"""Independent exact cone-membership oracle (brute-force rational LP).

This module is the ground truth the decomposers are validated against, so it
is deliberately simple: a revised phase-1 simplex with Bland's rule (no
cycling) over integer generator columns, keeping only the fraction-free basis
inverse.  A membership query either returns non-negative rational coefficients
that re-sum to the target, or a separating functional that is non-negative on
all generators and negative on the target; both certificates are re-checked
in integer arithmetic before they are returned.

Two generator sets are prepared: validated once and kept as integer columns
(`PreparedCone`), so a query checks only its target.  The effective-cone
truncation of degree k is the one of degree k - 1 without -K/2, then the
orbit table's listing of degree k, then -K/2; each is validated whole when
built.  The table refuses a degree over MAX_GENERATORS classes
(`weyl.ScaleExceeded`) before anything is listed, so an oversized query fails
before its LP is built; `_check_shape` is the LP's own guard on any set.

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

Each truncation packs its new orbit slice, if it has 1024 columns or more,
1024 at a time into one Python int per row with a 16-bit field per column,
and inherits the blocks below it (about 0.7 MB to degree 13).  One pass over
a block is 9 big-int multiply-adds; a field's top bit says whether that
column's price is positive, so it enters the column that pricing one column
at a time enters.  A block a price could overflow, a shorter slice and every
other cone (user tuples, the nef and curve generators) are priced by dot
products, as are the certificate checks.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, count, repeat
from operator import gt, lt, mul

from .lattice import HALF_ANTICANONICAL, CurveClass, DivisorClass
from .weyl import (_HALF_ANTICANONICAL_INTS, MAX_GENERATORS, ScaleExceeded, _orbit_table,
                   exceptional_orbit)

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


def _check_shape(dim: int, generators) -> None:
    if not generators:
        raise ValueError("at least one generator is required")
    if dim == 0:
        raise ValueError("vectors must have positive dimension")
    if dim > MAX_DIMENSION:
        raise ScaleExceeded(f"dimension {dim} exceeds {MAX_DIMENSION}")
    if len(generators) > MAX_GENERATORS:
        raise ScaleExceeded(f"{len(generators)} generators exceed {MAX_GENERATORS}")
    if any(len(vec) != dim for vec in generators):
        raise ValueError("all generators must match the target dimension")


class PreparedCone(tuple):
    """Integer generator columns, validated once (as ConeProblem, but ints only).

    A ConeProblem on a PreparedCone checks only its target and skips scaling.
    """

    blocks: tuple = ()  # packed pricing blocks (`_pack`): only the effective truncations have any

    def __new__(cls, generators):
        cone = super().__new__(cls, generators)
        _check_shape(len(cone[0]) if cone else 0, cone)
        for value in chain.from_iterable(cone):
            if type(value) is not int:
                raise TypeError(f"integer generator entry required, got {value!r}")
        return cone


@dataclass(frozen=True)
class ConeProblem:
    """Is `target` a non-negative rational combination of `generators`?

    Vectors are tuples of exact rationals (plain ints are accepted) of a
    common dimension, at most MAX_DIMENSION.
    """

    target: tuple[Fraction, ...]
    generators: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        # A PreparedCone was checked whole; its first column gives its dimension.
        prepared = isinstance(self.generators, PreparedCone)
        _check_shape(len(self.target), self.generators[:1] if prepared else self.generators)
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
    if isinstance(problem.generators, PreparedCone):
        return _solve(problem.generators, problem.target)
    # Scale each row by the lcm of its generator denominators: positive row
    # multipliers keep the coefficients, and a functional maps back row by row.
    scales = [math.lcm(*(x.denominator for x in row)) for row in zip(*problem.generators)]
    columns = tuple(
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
            reduced = sum(map(mul, price, columns[entering]))
            scaled = [s * x for s, x in zip(scale, columns[entering])]
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


def _first_positive(price, columns) -> int:
    """The first j with price . columns[j] > 0, or -1, by `_dots`."""
    return next(compress(count(), map(lt, repeat(0), _dots(price, columns))), -1)


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
# slices (degree <= 5) and every other cone (the nef and curve generators,
# user tuples) keep `_dots`.  Packing them too is faster still, but the
# benchmark harness keeps every request it serves, so its peak RSS would then
# pass its bound (see CHANGES.md).
_BLOCK = 1024
_BIAS = (1 << 15) - 1
_GUARD = 1 << 14
_TOP_BIT = bytes(b >> 7 for b in range(256))


def _entering(price, columns) -> int:
    """Bland's entering column: the first j with price . columns[j] > 0, or -1.

    The packed blocks of an effective truncation take 9 big-int multiply-adds each.
    The columns between and after them, a block whose fields this price could
    overflow, and all other columns are priced by `_dots`, in column order.
    An all-zero price (the last pass of a feasible LP) makes no column
    positive, so it returns -1 without reading one.
    """
    weight, start = sum(map(abs, price)), 0
    if not weight:
        return -1
    for low, high, bound, bias, rows in getattr(columns, "blocks", ()):
        if weight * bound >= _GUARD:
            continue
        if start < low:
            hit = _first_positive(price, columns[start:low])
            if hit >= 0:
                return start + hit
        total = sum(map(mul, price, rows), bias)
        hit = total.to_bytes(2 * (high - low), "little")[1::2].translate(_TOP_BIT).find(1)
        if hit >= 0:
            return low + hit
        start = high
    hit = _first_positive(price, columns[start:] if start else columns)
    return start + hit if hit >= 0 else -1


def _pack(columns, start: int, stop: int) -> tuple:
    """Blocks (low, high, bound, bias, rows) of columns[start:stop], in order.

    A run of at least _BLOCK columns is cut into blocks of at most _BLOCK; a
    shorter run, and a block with an entry too large for a field, get none.
    bound is a block's largest |a_ij|.
    """
    blocks = []
    for low in range(start, stop, _BLOCK) if stop - start >= _BLOCK else ():
        high = min(low + _BLOCK, stop)
        chunk, ones = columns[low:high], ((1 << 16 * (high - low)) - 1) // 0xFFFF
        bound = max(map(abs, chain.from_iterable(chunk)))
        if bound < _GUARD:
            # Two's complement with each field's top bit flipped is a + 2^15.
            top, fmt = ones << 15, f"<{high - low}h"
            rows = tuple((int.from_bytes(struct.pack(fmt, *row), "little") ^ top) - top
                         for row in zip(*chunk))
            blocks.append((low, high, bound, _BIAS * ones, rows))
    return tuple(blocks)


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
def _effective_cone(truncation_degree: int) -> PreparedCone:
    # One cone per degree, at most 16 under the table's cap.  It shares the
    # columns and blocks of the cone below; its slice is listed first, so a
    # degree over the cap is refused before any cone below it is built.
    new = _orbit_table.listing(truncation_degree)
    columns, blocks = (), ()
    if truncation_degree:
        below = _effective_cone(truncation_degree - 1)
        columns, blocks = below[:-1], below.blocks
    cone = PreparedCone(columns + new + (_HALF_ANTICANONICAL_INTS,))
    cone.blocks = blocks + _pack(cone, len(columns), len(cone) - 1)
    return cone


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
