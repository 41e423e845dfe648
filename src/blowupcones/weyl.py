"""Weyl group action on divisor classes: reflections, Cremona moves, reduction.

The group is generated by eight involutions s_0, ..., s_7.  For i >= 1 the
reflection s_i swaps the multiplicities m_i and m_{i+1}; s_0 is the lattice
action of the standard Cremona transformation centered at the first four
points.  Words are sequences of generator indices applied left to right.

Reflections, words and reduction all run on one integer vector, the class's
`scaled()` frame (the action commutes with scaling); `from_scaled` builds a
DivisorClass only for a result that leaves the module.  Reduction
sorts an arbitrary input once by adjacent reflections; after each Cremona move
it re-sorts by merging the two descending runs s_0 leaves behind, which gives
the same word as the full sort.

The exceptional orbit is a lattice-point set.  Let Q = -K/2 = (2;1^8).  The
group is affine (type T_{2,4,4}, which is affine E_7) and Q is its null
vector: (Q, Q) = 0 and Q is orthogonal to every simple root, so W fixes Q.

Lemma.  An integral class D lies in W.E_8 iff (D, D) = -1 and (D, Q) = 1.

Proof.  "Only if": W preserves the form and fixes Q, and E_8 meets both.
"If": write e_i = m_i - d/2.  The equations say sum e_i = -1 and
|e|^2 = d + 1, so d >= -1.  Both equations and integrality hold all along the
reduction of D, and each Cremona step of it lowers d, so the reduction ends,
after at most d + 1 Cremona steps, at a class in the chamber: e sorted
descending and s = e_1 + ... + e_4 <= 0 (this is 2d >= m_1 + ... + m_4).
From e_5, ..., e_8 <= e_4 <= s/4 it follows that -1 - s <= s, so s >= -1/2.
If d is odd, every e_i lies in Z + 1/2, so e_5 + ... + e_8 <= -2 < -1 - s, a
contradiction.  If d is even, s = 0, and e_5..e_8 are integers <= 0 with sum
-1; so e = (0^7, -1), d = |e|^2 - 1 = 0, and the reduced class is E_8.  The
reduction word then carries D to E_8.  (Kac, "Infinite-dimensional Lie
algebras", 3rd ed., ch. 5-6: real roots of affine type.)

So the (-1)-class test is the two equations on the integer vector, with no
reduction; `minus_one_certificate` still reduces, for the word it returns.
The orbit table finds each degree d as lattice points: in f = 2m - d
coordinates, f_i has the parity of d, sum f = -2 and |f|^2 = 4(d + 1).  Its
own cap (ScaleExceeded past MAX_GENERATORS classes) bounds every reader of the
orbit.

Both equations are symmetric in m_1, ..., m_8, so each degree slice of the
orbit is closed under permuting the points: it is the permutations of its
shapes, the lattice points with m ascending (46 of them up to degree 13, for
37 480 classes).  So the table counts a slice as a sum of multinomials
8! / prod(multiplicity!) without listing it, and finds a functional's least
value on a slice shape by shape: by the rearrangement inequality (Hardy,
Littlewood and Polya, "Inequalities", 1934, section 10.2), the least value of
phi_0 d + sum phi_i m_i over the permutations of m pairs phi_1..phi_8 sorted
descending with m ascending.  The table keeps only the shapes and counts;
`_OrbitTable.listing(d)` expands one degree's shapes into its sorted
classes, afresh on each call.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby
from operator import mul

from .lattice import (
    EXCEPTIONALS,
    HALF_ANTICANONICAL,
    NUM_POINTS,
    DivisorClass,
    _form,
)

WeylWord = tuple[int, ...]

DEFAULT_MAX_STEPS = 100_000

#: Reduction always sorts multiplicities descending, so a class in the orbit of
#: any exceptional divisor reduces to this one.
REDUCED_EXCEPTIONAL = EXCEPTIONALS[7]


class StepLimitExceeded(RuntimeError):
    """Raised when reduction does not reach standard form within the step cap.

    This signals that the input most likely admits no standard form at all
    (its degree diverges under Cremona moves); it is never raised for an
    effective class at any realistic cap.
    """

    def __init__(self, message: str, steps: int, last: DivisorClass):
        super().__init__(message)
        self.steps = steps
        self.last = last


def _act(word, ints: list[int]) -> None:
    # The Weyl action on a coefficient vector (d, m_1, ..., m_8), in place:
    # s_0 adds t = 2d - m_1 - m_2 - m_3 - m_4 to d and m_1..m_4, s_i swaps m_i
    # and m_{i+1}.  Both commute with scaling, so any common denominator works.
    for letter in word:
        if letter == 0:
            t = 2 * ints[0] - ints[1] - ints[2] - ints[3] - ints[4]
            ints[0] += t
            ints[1] += t
            ints[2] += t
            ints[3] += t
            ints[4] += t
        elif 0 < letter < 8:
            ints[letter], ints[letter + 1] = ints[letter + 1], ints[letter]
        else:
            raise ValueError(f"generator index must be in 0..7, got {letter}")


def reflect(i: int, divisor: DivisorClass) -> DivisorClass:
    """Apply the simple reflection s_i(D) = D + (alpha_i, D) * alpha_i."""
    ints, den = divisor.scaled()
    _act((i,), ints)
    return DivisorClass.from_scaled(ints, den)


def cremona(indices, divisor: DivisorClass) -> DivisorClass:
    """Lattice action of the Cremona transformation centered at four points.

    With t = 2d - sum_{i in I} m_i the image is (d + t; m_i + t for i in I,
    other multiplicities unchanged).  An involution for every 4-element I.
    """
    index_set = frozenset(indices)
    if len(index_set) != 4 or not all(
        isinstance(i, int) and 1 <= i <= NUM_POINTS for i in index_set
    ):
        raise ValueError(f"need four distinct point indices in 1..{NUM_POINTS}, got {indices!r}")
    ints, den = divisor.scaled()
    t = 2 * ints[0] - sum(ints[i] for i in index_set)
    for i in (0, *index_set):
        ints[i] += t
    return DivisorClass.from_scaled(ints, den)


def apply_word(word, divisor: DivisorClass) -> DivisorClass:
    """Apply a word of generator indices left to right."""
    ints, den = divisor.scaled()
    _act(word, ints)
    return DivisorClass.from_scaled(ints, den)


def inverse_word(word) -> WeylWord:
    """The inverse of a word: its reversal (every generator is an involution)."""
    return tuple(reversed(word))


def _chamber_margins(divisor: DivisorClass) -> list[int]:
    """The simple roots' pairings with `scaled()`: 2d - m_1 - ... - m_4, m_i - m_{i+1}."""
    (d, *m), _ = divisor.scaled()
    return [2 * d - sum(m[:4])] + [m[i] - m[i + 1] for i in range(NUM_POINTS - 1)]


def is_standard_form(divisor: DivisorClass) -> bool:
    """True iff m_1 >= ... >= m_8 and 2d >= m_1 + m_2 + m_3 + m_4."""
    return min(_chamber_margins(divisor)) >= 0


def canonical_shape(divisor: DivisorClass) -> DivisorClass:
    """The class with the same degree and multiplicities sorted descending.

    Shapes identify permutation orbits, e.g. for comparing enumerated
    (-1)-classes against their three low-degree types.
    """
    ints, den = divisor.scaled()
    return DivisorClass.from_scaled(ints[:1] + sorted(ints[1:], reverse=True), den)


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of reduction to standard form.

    ``apply_word(word, input) == standard`` holds exactly, and ``steps``
    counts the Cremona (s_0) applications used.
    """

    standard: DivisorClass
    word: WeylWord
    steps: int


class _DegreeWentNegative(Exception):
    def __init__(self, last: DivisorClass, word: WeylWord):
        self.last = last
        self.word = word


def _sort_descending(ints: list[int], word: list[int]) -> None:
    # Bubble sort via adjacent reflections; swaps only on strict inversion,
    # so equal multiplicities keep their order and the word is deterministic.
    swapped = True
    while swapped:
        swapped = False
        for i in range(1, NUM_POINTS):
            if ints[i] < ints[i + 1]:
                ints[i], ints[i + 1] = ints[i + 1], ints[i]
                word.append(i)
                swapped = True


def _merge_runs(ints: list[int], word: list[int]) -> None:
    # The re-sort after s_0 acts on a sorted vector: m_1..m_4 and m_5..m_8 are
    # then two descending runs.  On them the bubble sort above moves m_4, m_3,
    # m_2, m_1 in turn, each right past every later entry strictly larger than
    # it, so this writes the same word; once one entry stays, all before it do.
    for j in range(4, 0, -1):
        value = ints[j]
        k = j
        while k < NUM_POINTS and ints[k + 1] > value:
            ints[k] = ints[k + 1]
            k += 1
        if k == j:
            return
        ints[k] = value
        word.extend(range(j, k))


def _reduce(
    ints: list[int], den: int, max_steps: int, nonnegative: bool = False
) -> ReductionResult:
    """Reduce den * D, given as ints, to standard form in place.

    Loop: sort multiplicities descending by adjacent reflections, then apply
    s_0 whenever 2d < m_1 + m_2 + m_3 + m_4.  With `nonnegative`, a degree
    below zero anywhere along the way raises _DegreeWentNegative: Weyl moves
    preserve effectivity and effective classes have non-negative degree, so
    the input is not effective.  That floor also bounds the loop: integral
    inputs admit at most d+1 Cremona moves before tripping it.
    """
    word: list[int] = []
    steps = 0
    sort = _sort_descending  # an arbitrary input; after each s_0, two runs
    while True:
        if nonnegative and ints[0] < 0:
            raise _DegreeWentNegative(DivisorClass.from_scaled(ints, den), tuple(word))
        sort(ints, word)
        if 2 * ints[0] >= ints[1] + ints[2] + ints[3] + ints[4]:
            return ReductionResult(DivisorClass.from_scaled(ints, den), tuple(word), steps)
        if steps >= max_steps:
            message = (
                f"reduction exceeded {max_steps} Cremona steps"
                if nonnegative
                else f"no standard form within {max_steps} Cremona steps"
            )
            raise StepLimitExceeded(message, steps, DivisorClass.from_scaled(ints, den))
        _act((0,), ints)
        word.append(0)
        steps += 1
        sort = _merge_runs


def to_standard_form(
    divisor: DivisorClass, max_steps: int = DEFAULT_MAX_STEPS
) -> ReductionResult:
    """Reduce a class to standard form, recording the word that achieves it.

    Each s_0 strictly lowers the degree, so any class admitting a standard
    form is reached; the step cap guards against inputs whose degree diverges
    (see StepLimitExceeded).
    """
    return _reduce(*divisor.scaled(), max_steps)


# -- orbit enumeration --------------------------------------------------------

#: The half-anticanonical class as an integer vector.
_HALF_ANTICANONICAL_INTS = tuple(HALF_ANTICANONICAL.scaled()[0])


def _arrangements(values: tuple[int, ...], memo: dict) -> list[tuple[int, ...]]:
    """The distinct permutations of an ascending tuple, in lexicographic order."""
    if len(values) > 1 and values not in memo:
        memo[values] = [(v,) + tail for i, v in enumerate(values) if v not in values[:i]
                        for tail in _arrangements(values[:i] + values[i + 1 :], memo)]
    return memo.get(values, [values])


class ScaleExceeded(ValueError):
    """The problem is beyond the desk scale this package is meant for."""


# Desk scale with headroom for the effective-cone truncations: a degree-8
# target checks the orbit to degree 13 (37 480 classes); degree 16 has 72 760.
MAX_GENERATORS = 60_000


def _lattice_shapes(d: int) -> list[tuple[int, ...]]:
    """The degree-d orbit classes with ascending multiplicities, by the lemma.

    These are the ascending f in Z^8 with f_i of the parity of d, sum f = -2 and
    |f|^2 = 4(d + 1), each read back as m = (f + d) / 2.
    """
    shapes = []
    bound = math.isqrt(4 * (d + 1))
    start = -bound if (bound - d) % 2 == 0 else 1 - bound

    def extend(prefix: tuple[int, ...], low: int, k: int, total: int, square: int) -> None:
        # k more entries, each >= low, summing to total with squares summing to square.
        if k == 1:
            if total >= low and total * total == square:
                shapes.append(tuple((x + d) // 2 for x in prefix + (total,)))
            return
        v = low
        while k * v <= total:
            rest = square - v * v
            # Cauchy-Schwarz: k - 1 entries summing to total - v need this much square.
            if rest >= 0 and (k - 1) * rest >= (total - v) ** 2:
                extend(prefix + (v,), v, k - 1, total - v, rest)
            v += 2

    extend((), start, NUM_POINTS, -2, 4 * (d + 1))
    return shapes


def _arrangement_count(values: tuple[int, ...]) -> int:
    """The number of distinct permutations of an ascending tuple: a multinomial."""
    return math.factorial(len(values)) // math.prod(
        math.factorial(len(list(run))) for _, run in groupby(values))


class _OrbitTable:
    """Each degree's orbit shapes and the cumulative class counts; no class.

    `count`, `shapes` and `minimum` read only the shapes, and `listing`
    expands one degree's.  `count` raises ScaleExceeded at the first
    truncation over MAX_GENERATORS classes, and every reader goes through it,
    so no reader of the orbit runs unbounded.
    """

    def __init__(self) -> None:
        self._shapes: list[list[tuple[int, ...]]] = []  # per degree, ascending
        self._ends = [0]  # _ends[k + 1]: the classes of degree at most k

    cache_clear = __init__

    def _grow(self) -> None:
        # The next degree's shapes, and its count as a sum of multinomials.
        shapes = _lattice_shapes(len(self._shapes))
        self._shapes.append(shapes)
        self._ends.append(self._ends[-1] + sum(map(_arrangement_count, shapes)))

    def count(self, max_degree: int) -> int:
        """The number of orbit classes of degree at most the bound, from the shapes alone.

        Raises ScaleExceeded, naming the first degree over the cap, when that
        is more than MAX_GENERATORS; shapes past that degree are never listed.
        """
        ends = self._ends
        while len(ends) <= max_degree + 1 and ends[-1] <= MAX_GENERATORS:
            self._grow()
        total = ends[min(max_degree + 1, len(ends) - 1)]
        if total > MAX_GENERATORS:
            over = bisect_right(ends, MAX_GENERATORS)
            raise ScaleExceeded(f"the orbit to degree {over - 1} has {ends[over]} classes, "
                                f"more than MAX_GENERATORS = {MAX_GENERATORS}")
        return total

    def last_degree(self) -> int:
        """The last degree with at most MAX_GENERATORS classes, read from the shapes as `count`."""
        while self._ends[-1] <= MAX_GENERATORS:
            self._grow()
        return bisect_right(self._ends, MAX_GENERATORS) - 2

    def shapes(self, degree: int) -> list[tuple[int, ...]]:
        """The degree's shapes, multiplicities ascending; refused past the cap like `count`."""
        self.count(degree)
        return self._shapes[degree]

    def listing(self, degree: int) -> tuple[tuple[int, ...], ...]:
        """The degree's orbit classes as sorted int vectors; refused past the cap by `shapes`."""
        memo: dict = {}
        return tuple(sorted((degree,) + p for m in self.shapes(degree)
                            for p in _arrangements(m, memo)))

    def minimum(self, phi, low: int, high: int) -> int:
        """The least value of the functional phi on the orbit classes of degree low..high.

        By the rearrangement inequality, phi's least value over the
        permutations of a shape pairs phi_1..phi_8 sorted descending with the
        ascending shape, so each shape costs one dot product.
        """
        weights = sorted(phi[1:], reverse=True)
        return min(phi[0] * d + sum(map(mul, weights, shape))
                   for d in range(low, high + 1) for shape in self.shapes(d))


_orbit_table = _OrbitTable()


def exceptional_orbit(max_degree: int) -> tuple[DivisorClass, ...]:
    """All Weyl images of the exceptional classes with degree at most the bound.

    Returned sorted by coefficient vector, so the enumeration is deterministic.
    A bound of 0 yields exactly the eight exceptional classes.
    """
    if not isinstance(max_degree, int) or max_degree < 0:
        raise ValueError(f"max_degree must be a non-negative integer, got {max_degree!r}")
    _orbit_table.count(max_degree)
    return tuple(DivisorClass.from_scaled(v, 1)
                 for d in range(max_degree + 1) for v in _orbit_table.listing(d))


def orbit_degree_counts(max_degree: int) -> dict[int, int]:
    """Number of orbit classes of each exact degree up to the bound."""
    ends = [_orbit_table.count(k) for k in range(-1, max_degree + 1)]
    return {k: ends[k + 1] - ends[k] for k in range(max_degree + 1) if ends[k + 1] > ends[k]}


# -- the (-1)-class decision procedure ----------------------------------------

def minus_one_certificate(
    divisor: DivisorClass, max_steps: int = DEFAULT_MAX_STEPS
) -> WeylWord | None:
    """A word carrying the class to a reduced exceptional class, or None.

    The class must be integral.  A (-1)-class (`is_minus_one_divisor`) is
    reduced to standard form, which by the lemma is the reduced exceptional
    class; the reduction's word is the certificate.  StepLimitExceeded
    propagates from the reduction.
    """
    if not divisor.is_integral():
        raise ValueError(f"integral class required, got {divisor}")
    if not is_minus_one_divisor(divisor):
        return None
    result = to_standard_form(divisor, max_steps)
    return result.word if result.standard == REDUCED_EXCEPTIONAL else None


def is_minus_one_divisor(divisor: DivisorClass) -> bool:
    """Whether the class lies in the Weyl orbit of an exceptional divisor.

    By the lemma: the class is integral, (D, D) = -1 and (D, Q) = 1 for the
    half-anticanonical class Q, computed on the integer vector.
    """
    return _is_minus_one_frame(*divisor.scaled())


def _is_minus_one_frame(ints, den: int) -> bool:
    # `is_minus_one_divisor` on a class's `scaled()` frame.
    return den == 1 and _form(ints, ints) == -1 and _form(ints, _HALF_ANTICANONICAL_INTS) == 1
