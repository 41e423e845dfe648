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
truncations are cached per degree.  `divisor_problem` (and its alias
`curve_problem`) keeps the last integral generator *tuple* it was given with
its cone, such as `nef_generators()` or `curve_generators()`, which return one
cached tuple.  The memo is matched by identity, not by value: holding the tuple
keeps its id from being reused, and a tuple of frozen classes cannot change.
Lists can change between calls, and rational sets need row scaling, so both
are built and scaled afresh for every query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import chain, compress, count, islice, repeat
from operator import add, gt, lt, mul

from .lattice import HALF_ANTICANONICAL, CurveClass, DivisorClass
from .weyl import _HALF_ANTICANONICAL_INTS, _orbit_vectors

MAX_DIMENSION = 10
# Desk scale with headroom for the effective-cone truncations: stabilizing a
# degree-8 target checks the exceptional orbit up to degree 13 (37480 classes).
MAX_GENERATORS = 60_000


class ScaleExceeded(ValueError):
    """The problem is beyond the desk scale this oracle is meant for."""


def _check_exact(value) -> None:
    if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
        raise TypeError(f"exact rational entry required, got {value!r}")


def _check_shape(dim: int, generators, checked: int = 0) -> None:
    if not generators:
        raise ValueError("at least one generator is required")
    if dim == 0:
        raise ValueError("vectors must have positive dimension")
    if dim > MAX_DIMENSION:
        raise ScaleExceeded(f"dimension {dim} exceeds {MAX_DIMENSION}")
    if len(generators) > MAX_GENERATORS:
        raise ScaleExceeded(f"{len(generators)} generators exceed {MAX_GENERATORS}")
    if any(len(vec) != dim for vec in islice(generators, checked, None)):
        raise ValueError("all generators must match the target dimension")


class PreparedCone(tuple):
    """Integer generator columns, validated once (as ConeProblem, but ints only).

    The first `checked` columns were validated by an earlier cone.  A
    ConeProblem on a PreparedCone checks only its target and skips scaling.
    """

    def __new__(cls, generators, checked: int = 0):
        cone = super().__new__(cls, generators)
        _check_shape(len(cone[0]) if cone else 0, cone, checked)
        for value in chain.from_iterable(cone[checked:]):
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
            vectors = [g.vector() for g in generators]
            entries = chain.from_iterable(vectors)
            if not all(type(x) is Fraction and x.denominator == 1 for x in entries):
                return ConeProblem(target.vector(), tuple(vectors))
            cone = PreparedCone(tuple(x.numerator for x in v) for v in vectors)
            _memo = (generators, cone)
        return ConeProblem(target.vector(), cone)
    return ConeProblem(target.vector(), tuple(g.vector() for g in generators))


curve_problem = divisor_problem


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
    while True:
        price = [(zi + det) * s for zi, s in zip(z, scale)]
        entering = next(compress(count(), map(lt, repeat(0), _dots(price, columns))), -1)
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
    if any(basis[i] >= n and beta[i] != 0 for i in range(rows)):
        return None, [zi + det for zi in z], det
    return {basis[i]: beta[i] for i in range(rows) if basis[i] < n}, None, det


def _dots(vector, columns):
    """vector . a for each column a, lazily, with no Python frame per column."""
    return map(sum, map(map, repeat(mul), repeat(vector), columns))


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


# -- effective-cone membership with per-instance truncation ----------------------

@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a truncated effective-cone membership query.

    ``conclusive`` is True for Feasible outcomes (the coefficients are a proof)
    and False for Infeasible ones: infeasibility is proven only against the
    truncated generator set, and stability of the verdict across the window of
    truncation degrees is evidence, not proof, for the full cone.
    """

    outcome: Feasible | Infeasible
    truncation_degree: int
    checked_degrees: tuple[int, ...]
    generator_count: int
    conclusive: bool


def effective_generators(truncation_degree: int) -> tuple[DivisorClass, ...]:
    """Orbit classes up to the truncation degree plus the half-anticanonical class."""
    return _orbit_vectors.classes(truncation_degree) + (HALF_ANTICANONICAL,)


@lru_cache(maxsize=None)
def _effective_cone(truncation_degree: int) -> PreparedCone:
    # The columns are references into the shared orbit table, not copies, each
    # validated by the first cone it enters (`checked` resets with the table).
    orbit, checked = _orbit_vectors(truncation_degree), _orbit_vectors.checked
    cone = PreparedCone(orbit + (_HALF_ANTICANONICAL_INTS,), min(checked, len(orbit)))
    _orbit_vectors.checked = max(checked, len(orbit))
    return cone


# Functionals known to be non-negative on every effective generator: the
# degree, the pairing with the half-anticanonical class, and degree minus each
# multiplicity.  They are re-verified against each truncated generator list
# before use, so a shortcut verdict carries the same guarantee as the LP's.
_CANDIDATE_FUNCTIONALS = ((1,) + (0,) * 8, (4,) + (-1,) * 8) + tuple(
    (1,) + tuple(-int(k == i) for k in range(8)) for i in range(8)
)


@lru_cache(maxsize=None)
def _verified_functionals(truncation_degree: int) -> tuple[tuple[int, ...], ...]:
    # Each truncation adds one degree slice to the one below it, so a
    # generator is checked once per candidate, in whatever order degrees come.
    if truncation_degree < 0:
        candidates, added = _CANDIDATE_FUNCTIONALS, [_HALF_ANTICANONICAL_INTS]
    else:
        candidates = _verified_functionals(truncation_degree - 1)
        added = _orbit_vectors(truncation_degree)[_orbit_vectors.prefix(truncation_degree - 1) :]
    rows = tuple(zip(*added))
    return tuple(phi for phi in candidates if not rows or _nonnegative_on(phi, rows))


def _nonnegative_on(phi, rows) -> bool:
    # phi . column >= 0 for every column, summed row-wise over phi's non-zero rows.
    terms = (map(mul, repeat(c), row) for c, row in zip(phi, rows) if c)
    return min(reduce(partial(map, add), terms)) >= 0


def effective_membership(
    divisor: DivisorClass, *, extra_degree: int = 3, window: int = 2
) -> MembershipReport:
    """Truncated LP membership in the effective cone, stabilized over a window.

    The generator set is the exceptional orbit up to degree d + extra_degree
    plus the half-anticanonical class.  Feasibility is monotone in the
    truncation degree, so a Feasible outcome is final; an Infeasible outcome
    is re-checked at `window` further degrees and reported with
    ``conclusive=False`` (see MembershipReport).  A separating functional
    found at one degree is carried to the next and re-verified against the
    newly added generators only, so widening the window rarely needs a new LP.
    """
    target = divisor.vector()
    base = max(0, math.ceil(divisor.d)) + extra_degree
    checked: list[int] = []
    outcome: Feasible | Infeasible | None = None
    count = 0
    carried: tuple[Fraction, ...] | None = None
    carried_degree = -1
    for degree in range(base, base + window + 1):
        cone = _effective_cone(degree)
        count = len(cone)
        checked.append(degree)
        shortcut = _separating_shortcut(_cleared(target), degree)
        if shortcut is not None:
            outcome = shortcut
            continue
        if carried is not None:
            added = cone[_orbit_vectors.prefix(carried_degree) : -1]
            if not any(map(gt, repeat(0), _dots(carried_psi, added))):
                carried_degree = degree
                outcome = Infeasible(carried)
                continue
            carried = None
        outcome = cone_member(ConeProblem(target, cone))
        if isinstance(outcome, Feasible):
            return MembershipReport(outcome, degree, tuple(checked), count, True)
        carried = outcome.functional
        carried_psi = _cleared(carried)
        carried_degree = degree
    assert isinstance(outcome, Infeasible)
    return MembershipReport(outcome, checked[-1], tuple(checked), count, False)


def _separating_shortcut(cleared_target, truncation_degree: int) -> Infeasible | None:
    for phi in _verified_functionals(truncation_degree):
        if sum(map(mul, phi, cleared_target)) < 0:
            return Infeasible(tuple(Fraction(p) for p in phi))
    return None
