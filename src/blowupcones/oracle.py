"""Independent exact cone-membership oracle (brute-force rational LP).

This module is the ground truth the decomposers are validated against, so it
is deliberately simple: a revised phase-1 simplex with Bland's rule (no
cycling) over integer generator columns, keeping only the fraction-free basis
inverse.  A membership query either returns non-negative rational coefficients
that re-sum to the target, or a separating functional that is non-negative on
all generators and negative on the target; both certificates are re-checked
in integer arithmetic before they are returned.

Two kinds of generator set are prepared, validated once, so a query checks
only its target: integral tuples, kept as integer columns (`PreparedCone`),
and the effective-cone truncations (`_Truncation`).  The effective-cone
truncation of degree k is the one of degree k - 1 without -K/2, then the
orbit table's listing of degree k, then -K/2; each slice is validated when
it is listed, and the cap is checked on the whole truncation.  The table
refuses a degree over MAX_GENERATORS classes (`weyl.ScaleExceeded`) before
anything is listed, so an oversized query fails before its LP is built;
`_check_shape` is the LP's own guard on any set.

`effective_membership` first tries a few fixed functionals (the shortcut),
once per query, on the class's integer frame.  They are verified once, on
the orbit's shapes up to the last degree under the table's cap, not on its
columns: every degree slice is closed under permuting the points, so
`_OrbitTable.minimum` gives a functional's exact least value with one sort
per shape.  A functional negative on the frame settles the query at its
window's top degree with a frozen report built once per functional and
degree (`_shortcut_report`), so a shortcut query enumerates no column and
builds no Fraction.  Otherwise the window loop runs LPs only: an LP's
functional, carried to the next degrees of the window, is checked on the new
slices' shapes the same way, so the orbit is listed only up to the degree an
LP prices.  `_solve`'s own certificates are still checked column by column,
and every column an LP reads is validated first.

The caches built from the orbit table (`_effective_cone`,
`_verified_functionals`, `_shortcut_report`) hold its listings or counts.
`cache_clear` empties the table and all three together, so none hands out
the old table's columns or counts; no library path calls it.

`divisor_problem` reads each generator's (divisor or curve class's)
integer frame (`scaled()`) and keeps the last integral generator *tuple* it
was given with its cone, such as `nef_generators()` or `curve_generators()`,
which return one cached tuple.
The memo is matched by identity, not by value: holding the tuple keeps its id
from being reused, and a tuple of frozen classes cannot change.  Lists can
change between calls, and rational sets need row scaling, so both are built
and scaled afresh for every query.

Each truncation is stored row-major per orbit slice (`_Truncation`): a
slice's nine `array('b')` rows hold entry i of each of its columns in
listing order, built once when the slice is listed and shared by every
truncation above it, followed by the -K/2 column; columns are rebuilt from
the bytes only when read (`len`, `cone[j]`, iteration).  A slice of 1024
columns or more (degree 6 and up) is also packed, 1024 at a time, into one
Python int per row with a 16-bit field per column (about 1.1 MB to degree
13 with the rows).  One pass over a block is 9 big-int multiply-adds; a
field's top bit says whether that column's price is positive.  Every run
the blocks leave (the degree 0-5 slices, -K/2, a block a price could
overflow, and the nef, curve and user cones) is priced by the row kernel,
one lazy chain of maps per run read up to its first positive entry.  Both
kernels enter the column that pricing one column at a time enters.  Every
column the simplex enters from a truncation must be -K/2 or a (-1)-class,
so a changed byte fails the LP that enters it.  `_solve`'s "no" check
stays a plain dot-product scan over the columns (`_dots`): it shares no
code with either kernel, so a pricing fault cannot pass its own check.
"""

from __future__ import annotations

import math
import struct
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import accumulate, chain, compress, count, repeat
from operator import add, gt, lt, mul

from .lattice import HALF_ANTICANONICAL, CurveClass, DivisorClass
from .weyl import (_HALF_ANTICANONICAL_INTS, MAX_GENERATORS, ScaleExceeded, _is_minus_one_frame,
                   _orbit_table, exceptional_orbit)

MAX_DIMENSION = 10
# Bland's rule cannot cycle, and no LP of the acceptance suite takes more than
# 103 pivots, so passing this many means the pricing is at fault: it fails
# instead of looping.
MAX_PIVOTS = 10_000
# effective_membership truncates the orbit at degree ceil(d) + EXTRA_DEGREE and
# re-checks an Infeasible verdict at WINDOW further degrees.
EXTRA_DEGREE = 3
WINDOW = 2


def _check_exact(value) -> None:
    if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
        raise TypeError(f"exact rational entry required, got {value!r}")


def _check_count(count: int) -> None:
    if count > MAX_GENERATORS:
        raise ScaleExceeded(f"{count} generators exceed {MAX_GENERATORS}")


def _check_shape(dim: int, generators) -> None:
    if not generators:
        raise ValueError("at least one generator is required")
    if dim == 0:
        raise ValueError("vectors must have positive dimension")
    if dim > MAX_DIMENSION:
        raise ScaleExceeded(f"dimension {dim} exceeds {MAX_DIMENSION}")
    _check_count(len(generators))
    if any(len(vec) != dim for vec in generators):
        raise ValueError("all generators must match the target dimension")


def _check_ints(values) -> None:
    for value in values:
        if type(value) is not int:
            raise TypeError(f"integer generator entry required, got {value!r}")


class PreparedCone(tuple):
    """Integer generator columns, validated once (as ConeProblem, but ints only).

    A ConeProblem on a PreparedCone checks only its target and skips scaling.
    """

    def __new__(cls, generators):
        cone = super().__new__(cls, generators)
        _check_shape(len(cone[0]) if cone else 0, cone)
        _check_ints(chain.from_iterable(cone))
        return cone

    @cached_property
    def runs(self) -> tuple:
        """The pricing runs (see `_entering`): one run of rows, with no packed block."""
        return ((tuple(zip(*self)), ()),)


class _Truncation:
    """An effective truncation stored row-major: its orbit slices, then -K/2.

    `runs` holds one (rows, blocks) pair per degree slice, lowest degree
    first, then `_HALF_RUN`: rows are nine `array('b')`, row i holding entry
    i of each of the slice's columns in listing order, and blocks are the
    slice's packed blocks (`_pack`).  A truncation shares its slices' runs
    with every truncation above it.  Columns are rebuilt from the rows only
    when read, through `len`, `cone[j]` and iteration.
    """

    __slots__ = ("runs", "_ends")

    def __init__(self, runs: tuple) -> None:
        self.runs = runs
        self._ends = tuple(accumulate(len(rows[0]) for rows, _ in runs))
        _check_count(self._ends[-1])

    def __len__(self) -> int:
        return self._ends[-1]

    def __getitem__(self, j: int) -> tuple[int, ...]:
        if j < 0:
            j += len(self)
        if not 0 <= j < len(self):
            raise IndexError("truncation index out of range")
        run = bisect_right(self._ends, j)
        j -= self._ends[run - 1] if run else 0
        return tuple(row[j] for row in self.runs[run][0])

    def __iter__(self):
        return chain.from_iterable(zip(*rows) for rows, _ in self.runs)


@dataclass(frozen=True)
class ConeProblem:
    """Is `target` a non-negative rational combination of `generators`?

    Vectors are tuples of exact rationals (plain ints are accepted) of a
    common dimension, at most MAX_DIMENSION.
    """

    target: tuple[Fraction, ...]
    generators: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        # A prepared cone was checked whole; its first column gives its dimension.
        prepared = isinstance(self.generators, (PreparedCone, _Truncation))
        _check_shape(len(self.target), (self.generators[0],) if prepared else self.generators)
        for value in chain(self.target, *(() if prepared else self.generators)):
            _check_exact(value)


@dataclass(frozen=True)
class Feasible:
    """Non-negative coefficients, one per generator, re-summing to the target."""

    coefficients: tuple[Fraction, ...]


@dataclass(frozen=True)
class Infeasible:
    """A functional phi with phi(g) >= 0 for every generator and phi(target) < 0."""

    functional: tuple[Fraction, ...]


# The last integral generator tuple and its PreparedCone (see the module docstring).
_memo: tuple = ((), None)


def divisor_problem(target: DivisorClass | CurveClass, generators) -> ConeProblem:
    """The membership problem of `target` over the generators' coefficient vectors."""
    global _memo
    if type(generators) is tuple and generators:
        held, cone = _memo
        if generators is not held:
            frames = [g.scaled() for g in generators]
            if any(den != 1 for _, den in frames):
                return ConeProblem(target.vector(), tuple(g.vector() for g in generators))
            cone = PreparedCone(tuple(ints) for ints, _ in frames)
            _memo = (generators, cone)
        return ConeProblem(target.vector(), cone)
    return ConeProblem(target.vector(), tuple(g.vector() for g in generators))


def cone_member(problem: ConeProblem) -> Feasible | Infeasible:
    """Decide exact cone membership by phase-1 simplex, with a checked certificate."""
    if isinstance(problem.generators, (PreparedCone, _Truncation)):
        return _solve(problem.generators, problem.target)
    # Scale each row by the lcm of its generator denominators: positive row
    # multipliers keep the coefficients, and a functional maps back row by row.
    # The scaled columns are prepared for this one query, so their rows are
    # transposed once, not on every pricing pass.
    scales = [math.lcm(*(x.denominator for x in row)) for row in zip(*problem.generators)]
    columns = PreparedCone(
        tuple(x.numerator * (s // x.denominator) for x, s in zip(g, scales))
        for g in problem.generators
    )
    outcome = _solve(columns, tuple(t * s for t, s in zip(problem.target, scales)))
    if isinstance(outcome, Infeasible):
        return Infeasible(tuple(p * s for p, s in zip(outcome.functional, scales)))
    return outcome


def _solve(columns: tuple[tuple[int, ...], ...], target) -> Feasible | Infeasible:
    # Row i is multiplied by +-denominator(target_i) for a non-negative integer
    # right-hand side.  Certificates are checked in integers: sum_j num_j a_j ==
    # det * target, or the cleared functional >= 0 on all columns, < 0 on target.
    scale = tuple(-t.denominator if t < 0 else t.denominator for t in target)
    rhs = tuple(abs(t.numerator) for t in target)
    basic, dual, det = _simplex(columns, scale, rhs)
    if basic is not None:
        if det <= 0 or any(numerator < 0 for numerator in basic.values()):
            raise RuntimeError("internal error: negative coefficient in feasibility certificate")
        for i, (s, b) in enumerate(zip(scale, rhs)):
            if s * sum(numerator * columns[j][i] for j, numerator in basic.items()) != det * b:
                raise RuntimeError("internal error: feasibility certificate does not re-sum")
        coefficients = [Fraction(0)] * len(columns)
        for j, numerator in basic.items():
            coefficients[j] = Fraction(numerator, det)
        return Feasible(tuple(coefficients))
    functional = tuple(Fraction(-y * s, det) for y, s in zip(dual, scale))
    psi = _cleared(functional)
    if any(map(gt, repeat(0), _dots(psi, columns))):
        raise RuntimeError("internal error: separating functional negative on a generator")
    if sum(map(mul, psi, _cleared(target))) >= 0:
        raise RuntimeError("internal error: separating functional non-negative on target")
    return Infeasible(functional)


def _simplex(columns, scale, rhs):
    """Minimize the artificial-variable sum for A x = rhs, x >= 0, A = scale * columns.

    Keeps the fraction-free tableau's artificial block M (M / det is the basis
    inverse, Bareiss 1968), rhs and z, the artificial part of the reduced-cost
    row.  Column j of the tableau is M (scale * a_j) and its reduced cost is
    v . (scale * a_j) with v = z + det, so Bland's rule pivots as on the full
    tableau.  Returns ({basic column: numerator}, None, det) when feasible, and
    (None, v, det) otherwise: y = v / det has y^T A <= 0 and y^T rhs > 0.
    """
    rows, n = len(rhs), len(columns)
    inverse = [[int(i == k) for k in range(rows)] for i in range(rows)]
    beta, z, det = list(rhs), [0] * rows, 1
    basis = list(range(n, n + rows))
    for _ in range(MAX_PIVOTS + 1):
        price = [(zi + det) * s for zi, s in zip(z, scale)]
        entering = _entering(price, columns)
        if entering >= 0:
            entered = columns[entering]
            # A truncation's columns are rebuilt from bytes: each one entered
            # must be -K/2 (the last) or a (-1)-class.
            if (type(columns) is _Truncation and entering < n - 1
                    and not _is_minus_one_frame(entered, 1)):
                raise RuntimeError(
                    f"internal error: entered column {entered} is not an orbit class")
            reduced = sum(map(mul, price, entered))
            scaled = [s * x for s, x in zip(scale, entered)]
            column = [sum(map(mul, row, scaled)) for row in inverse]
        else:
            artificial = next((i for i in range(rows) if z[i] > 0), -1)
            if artificial < 0:
                break
            entering, reduced = n + artificial, z[artificial]
            column = [row[artificial] for row in inverse]
        leaving = _leaving_row(column, beta, basis)
        if leaving < 0:
            raise RuntimeError("phase-1 simplex became unbounded; this cannot happen")
        pivot, row_l, rhs_l = column[leaving], inverse[leaving], beta[leaving]
        for i, factor in enumerate(column):
            if i != leaving:
                inverse[i] = [(pivot * x - factor * y) // det for x, y in zip(inverse[i], row_l)]
                beta[i] = (pivot * beta[i] - factor * rhs_l) // det
        z = [(pivot * x - reduced * y) // det for x, y in zip(z, row_l)]
        basis[leaving], det = entering, pivot
    else:
        raise RuntimeError(f"phase-1 simplex passed {MAX_PIVOTS} pivots; its pricing is at fault")
    if any(basis[i] >= n and beta[i] != 0 for i in range(rows)):
        return None, [zi + det for zi in z], det
    return {basis[i]: beta[i] for i in range(rows) if basis[i] < n}, None, det


def _dots(vector, columns):
    """vector . a for each column a, lazily, with no Python frame per column."""
    return map(sum, map(map, repeat(mul), repeat(vector), columns))


def _row_entering(price, rows) -> int:
    """The first j with sum_i price_i rows[i][j] > 0, or -1: the row kernel.

    One lazy chain of maps, map(add, ..., map(mul, repeat(p_i), row_i)) over
    the rows of non-zero price, read up to its first positive entry.
    """
    terms = [map(mul, repeat(p), row) for p, row in zip(price, rows) if p]
    if not terms:
        return -1
    return next(compress(count(), map(lt, repeat(0), reduce(partial(map, add), terms))), -1)


def _leaving_row(column, beta, basis) -> int:
    """Row i with column[i] > 0 of least ratio beta[i] / column[i], ties to least basis[i].

    The ratios are compared cross-multiplied, in integers; -1 if no entry is positive.
    """
    leaving = -1
    for i, a in enumerate(column):
        if a > 0:
            if leaving < 0:
                leaving = i
                continue
            delta = beta[i] * column[leaving] - beta[leaving] * a
            if delta < 0 or (delta == 0 and basis[i] < basis[leaving]):
                leaving = i
    return leaving


def _cleared(vector) -> tuple[int, ...]:
    """The vector times the lcm of its denominators, a positive integer multiple."""
    lcm = math.lcm(*(x.denominator for x in vector))
    return tuple(x.numerator * (lcm // x.denominator) for x in vector)


# Packed pricing.  Row i of a block of columns a_0..a_{n-1} is the one int
# sum_j a_ij 2^(16 j).  Then sum_i price_i row_i + _BIAS * sum_j 2^(16 j) holds
# price . a_j + 2^15 - 1 in its 16-bit field j, as long as every field lies in
# [0, 2^16): _GUARD keeps |price . a_j| < 2^14.  A field's top bit is then set
# exactly when price . a_j >= 1, and to_bytes puts the top bits in the odd
# bytes.  16-bit fields keep the blocks small; on every LP of the acceptance
# suite and the benchmark, sum |price_i| stays below 128 and the largest entry
# is 13, far inside the guard.
# Only orbit slices of at least one block are packed: degree >= 6.  Shorter
# slices (degree <= 5), -K/2 and every other cone (the nef and curve
# generators, user tuples) are priced by the row kernel, `_row_entering`.
# Packing them too is faster still, but the benchmark harness keeps every
# request it serves, so its peak RSS would then pass its bound (see CHANGES.md).
_BLOCK = 1024
_BIAS = (1 << 15) - 1
_GUARD = 1 << 14
_TOP_BIT = bytes(b >> 7 for b in range(256))


def _entering(price, columns) -> int:
    """Bland's entering column: the first j with price . columns[j] > 0, or -1.

    Each (rows, blocks) run of the cone is priced in column order: its packed
    blocks by 9 big-int multiply-adds each, and the columns between and after
    them, and a block whose fields this price could overflow, by the row
    kernel.  A cone without `runs` (a plain tuple) is one run of its rows.
    An all-zero price (the last pass of a feasible LP) makes no column
    positive, so it returns -1 without reading one.
    """
    weight, offset = sum(map(abs, price)), 0
    if not weight:
        return -1
    for rows, blocks in getattr(columns, "runs", None) or ((tuple(zip(*columns)), ()),):
        start = 0
        for low, high, bound, bias, packed in blocks:
            if weight * bound >= _GUARD:
                continue
            if start < low:
                hit = _row_entering(price, [row[start:low] for row in rows])
                if hit >= 0:
                    return offset + start + hit
            total = sum(map(mul, price, packed), bias)
            hit = total.to_bytes(2 * (high - low), "little")[1::2].translate(_TOP_BIT).find(1)
            if hit >= 0:
                return offset + low + hit
            start = high
        hit = _row_entering(price, [row[start:] for row in rows] if start else rows)
        if hit >= 0:
            return offset + start + hit
        offset += len(rows[0])
    return -1


def _pack(rows) -> tuple:
    """Blocks (low, high, bound, bias, packed) of the columns these rows hold, in order.

    A run of at least _BLOCK columns is cut into blocks of at most _BLOCK; a
    shorter run, and a block with an entry too large for a field, get none.
    bound is a block's largest |a_ij|.
    """
    blocks, stop = [], len(rows[0])
    for low in range(0, stop, _BLOCK) if stop >= _BLOCK else ():
        high = min(low + _BLOCK, stop)
        chunk, ones = [row[low:high] for row in rows], ((1 << 16 * (high - low)) - 1) // 0xFFFF
        bound = max(map(abs, chain.from_iterable(chunk)))
        if bound < _GUARD:
            # Two's complement with each field's top bit flipped is a + 2^15.
            top, fmt = ones << 15, f"<{high - low}h"
            packed = tuple((int.from_bytes(struct.pack(fmt, *row), "little") ^ top) - top
                           for row in chunk)
            blocks.append((low, high, bound, _BIAS * ones, packed))
    return tuple(blocks)


def _slice_run(listing) -> tuple:
    """One orbit slice's run: its columns as nine byte rows, and their packed blocks.

    Validated here, once: every column has the dimension of -K/2, and every
    entry is an int that fits a signed byte.
    """
    _check_shape(len(_HALF_ANTICANONICAL_INTS), listing)
    _check_ints(chain.from_iterable(listing))
    try:
        rows = tuple(array("b", row) for row in zip(*listing))
    except OverflowError:
        raise ScaleExceeded("an orbit entry does not fit in a signed byte") from None
    return rows, _pack(rows)


# -K/2's run: the last column of every truncation.
_HALF_RUN = (tuple((x,) for x in _HALF_ANTICANONICAL_INTS), ())


# -- effective-cone membership with per-instance truncation ----------------------

@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a truncated effective-cone membership query.

    ``conclusive`` is True for Feasible outcomes (the coefficients are a proof)
    and False for Infeasible ones: infeasibility is proven only against the
    truncated generator set, and stability of the verdict across the WINDOW
    further truncation degrees is evidence, not proof, for the full cone.
    """

    outcome: Feasible | Infeasible
    truncation_degree: int
    checked_degrees: tuple[int, ...]
    generator_count: int
    conclusive: bool


def effective_generators(truncation_degree: int) -> tuple[DivisorClass, ...]:
    """Orbit classes up to the truncation degree plus the half-anticanonical class."""
    return exceptional_orbit(truncation_degree) + (HALF_ANTICANONICAL,)


@lru_cache(maxsize=None)
def _effective_cone(truncation_degree: int) -> _Truncation:
    # One cone per degree, at most 16 under the table's cap.  It shares the
    # slice runs of the cone below; its slice is listed first, so a degree
    # over the cap is refused before any cone below it is built.
    new = _slice_run(_orbit_table.listing(truncation_degree))
    below = _effective_cone(truncation_degree - 1).runs[:-1] if truncation_degree else ()
    return _Truncation(below + (new, _HALF_RUN))


# Functionals known to be non-negative on every effective generator: the
# degree, the pairing with the half-anticanonical class, and degree minus each
# multiplicity.  They are re-verified against the orbit table before use, so a
# shortcut verdict carries the same guarantee as the LP's.
_CANDIDATE_FUNCTIONALS = ((1,) + (0,) * 8, (4,) + (-1,) * 8) + tuple(
    (1,) + tuple(-int(k == i) for k in range(8)) for i in range(8)
)


@lru_cache(maxsize=None)
def _verified_functionals() -> tuple[tuple[int, ...], ...]:
    # The candidates non-negative on -K/2 and on every orbit class the table
    # holds under its cap, so on every truncation a query can reach: exactly,
    # by phi's least value on the shapes (`_OrbitTable.minimum`).  With degree
    # 0 itself over the cap, `minimum` raises ScaleExceeded, as any query would.
    last = max(0, _orbit_table.last_degree())
    return tuple(phi for phi in _CANDIDATE_FUNCTIONALS
                 if sum(map(mul, phi, _HALF_ANTICANONICAL_INTS)) >= 0
                 and _orbit_table.minimum(phi, 0, last) >= 0)


@lru_cache(maxsize=None)
def _shortcut_report(phi: tuple[int, ...], truncation_degree: int) -> MembershipReport:
    # Reports are frozen, so every query phi settles at this top degree shares
    # one.  The count raises ScaleExceeded for a degree over the table's cap.
    checked = tuple(range(truncation_degree - WINDOW, truncation_degree + 1))
    return MembershipReport(Infeasible(tuple(map(Fraction, phi))), truncation_degree, checked,
                            _orbit_table.count(truncation_degree) + 1, False)


def cache_clear() -> None:
    """Empty the orbit table and the three oracle caches built from it."""
    _orbit_table.cache_clear()
    _effective_cone.cache_clear()
    _verified_functionals.cache_clear()
    _shortcut_report.cache_clear()


def effective_membership(divisor: DivisorClass) -> MembershipReport:
    """Truncated LP membership in the effective cone, stabilized over a window.

    The generator set is the exceptional orbit up to degree ceil(d) +
    EXTRA_DEGREE plus the half-anticanonical class.  Feasibility is monotone
    in the truncation degree, so a Feasible outcome is final; an Infeasible
    outcome is re-checked at WINDOW further degrees and reported with
    ``conclusive=False`` (see MembershipReport).

    The shortcut functionals, verified on the whole capped table, are tried
    first and once, on the class's integer frame: the first one negative on
    it settles the query at the window's top degree with that functional
    and degree's shared report.  Otherwise the loop runs LPs only.  A
    separating functional found at one degree is carried to the next and
    re-verified on the shapes of the newly added degree slice only
    (`_OrbitTable.minimum`), so widening the window rarely needs a new LP;
    where it fails, a fresh LP runs at that degree.  The orbit columns are
    enumerated and validated, and the class's Fraction vector built, only
    when an LP reads them.  The table's count raises ScaleExceeded at the
    first degree over its cap, so a class beyond desk scale, shortcut or
    not, is refused without enumerating anything.
    """
    cleared, den = divisor.scaled()
    base = max(0, -(-cleared[0] // den)) + EXTRA_DEGREE
    top = base + WINDOW
    for phi in _verified_functionals():
        if sum(map(mul, phi, cleared)) < 0:
            return _shortcut_report(phi, top)
    outcome = carried_psi = None
    for degree in range(base, top + 1):
        count = _orbit_table.count(degree) + 1
        if carried_psi is not None and _orbit_table.minimum(carried_psi, degree, degree) >= 0:
            continue
        outcome = cone_member(ConeProblem(divisor.vector(), _effective_cone(degree)))
        if isinstance(outcome, Feasible):
            return MembershipReport(outcome, degree, tuple(range(base, degree + 1)), count, True)
        carried_psi = _cleared(outcome.functional)
    return MembershipReport(outcome, top, tuple(range(base, top + 1)), count, False)
