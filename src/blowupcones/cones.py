"""Constructive membership and decomposition for the cones of the blowup.

Four cones are covered: the cone of curves (36 generators), the nef cone
(rational polyhedral, 228 listed generators), the effective cone (generated by
the Weyl orbit of the exceptional classes together with the half-anticanonical
class), and the movable cone (Weyl translates of a 17-generator rational
polyhedral cone).  Every positive answer comes with a certificate that re-sums
to the input by exact arithmetic, and re-summation is asserted inside the
library before a certificate is returned.  The re-sum runs in integers: each
generator as its integer vector, each coefficient p/q folded into one common
denominator, compared with the reduced target scaled the same way.

`effective_decompose` and `movable_decompose` share one split of the reduced
integer class over the 17 movable generators (`_pi_split`); the effective one
expands the split by a fixed table of (-1)-classes and -K/2.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .lattice import (
    EXCEPTIONAL_LINES,
    EXCEPTIONALS,
    H,
    HALF_ANTICANONICAL,
    NUM_POINTS,
    CurveClass,
    DivisorClass,
    _parse_rational,
    curve_intersection,
    line_between,
)
# reflect and to_standard_form are unused here but stay importable from this
# module: the benchmark's self-test (bench/run.py) checks that its tracer
# reaches cones.reflect and cones.to_standard_form.
from .weyl import (  # noqa: F401
    DEFAULT_MAX_STEPS,
    WeylWord,
    _DegreeWentNegative,
    _HALF_ANTICANONICAL_INTS,
    _act,
    _is_minus_one_frame,
    _orbit_table,
    _reduce,
    apply_word,
    inverse_word,
    reflect,
    to_standard_form,
)

CONE_CURVES = "curves"
CONE_NEF = "nef"
CONE_EFF = "eff"
CONE_MOV = "mov"

CONE_TAGS = (CONE_CURVES, CONE_NEF, CONE_EFF, CONE_MOV)


class CertificateError(ValueError):
    """A decomposition certificate failed its arithmetic or membership check."""


class NotNef(ValueError):
    """A class meets `witness`, one of the curve generators, in `value` < 0."""

    def __init__(self, divisor: DivisorClass, witness: CurveClass, value):
        super().__init__(f"{divisor} is not nef: meets {witness} in {value}")
        self.witness = witness
        self.value = value


class NotInCurveCone(ValueError):
    """A curve meets `witness`, one of the nef generators, in `value` < 0."""

    def __init__(self, curve: CurveClass, witness: DivisorClass, value):
        super().__init__(f"{curve} is not in the curves cone: meets {witness} in {value}")
        self.witness = witness
        self.value = value


class NotEffective(ValueError):
    def __init__(self, reason: str, last: DivisorClass | None = None):
        super().__init__(reason)
        self.reason = reason
        self.last = last


class NotMovable(ValueError):
    def __init__(self, reason: str, reduced: DivisorClass | None = None, word: WeylWord = ()):
        super().__init__(reason)
        self.reason = reason
        self.reduced = reduced
        self.word = word


# -- certificates -------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """A non-negative decomposition over the generating set of one cone.

    ``terms`` sums exactly to ``apply_word(word, target)``; an empty word means
    the terms sum to the target itself.  Generators of effective certificates
    are either the half-anticanonical class or pass the (-1)-class test.
    """

    cone: str
    target: DivisorClass | CurveClass
    word: WeylWord
    terms: tuple[tuple[DivisorClass | CurveClass, Fraction], ...]

    def reduced_target(self):
        if isinstance(self.target, CurveClass):
            return self.target
        return apply_word(self.word, self.target)

    def resummation(self):
        return type(self.target).from_scaled(*self._resum())

    def _resum(self, frames=None) -> tuple[list[int], int]:
        # The terms' sum as (ints, den) over one common denominator, with each
        # generator its `scaled()` frame, read here unless `frames` holds them.
        if frames is None:
            frames = [generator.scaled() for generator, _ in self.terms]
        scaled = []
        for (generator, coefficient), (ints, den) in zip(self.terms, frames):
            if isinstance(generator, CurveClass) and coefficient.denominator != 1:
                raise CertificateError(f"curve coefficient {coefficient} is not an integer")
            scaled.append((ints, coefficient.numerator, den * coefficient.denominator))
        den = math.lcm(*(q for _, _, q in scaled))
        total = [0] * (NUM_POINTS + 1)
        for ints, p, q in scaled:
            factor = p * (den // q)
            total = [t + factor * x for t, x in zip(total, ints)]
        return total, den

    def check(self) -> None:
        """Re-check the certificate by exact arithmetic; raise CertificateError."""
        if self.cone not in CONE_TAGS:
            raise CertificateError(f"unknown cone tag {self.cone!r}")
        # W preserves the effective and movable cones only, so only they take a word.
        kind = "curve" if isinstance(self.target, CurveClass) else self.cone
        if self.word and kind not in (CONE_EFF, CONE_MOV):
            raise CertificateError(f"{kind} certificates carry no Weyl word")
        frames = []  # each generator's `scaled()` frame, read once
        for generator, coefficient in self.terms:
            if coefficient < 0:
                raise CertificateError(f"negative coefficient {coefficient} on {generator}")
            is_class = isinstance(generator, (DivisorClass, CurveClass))
            frame = generator.scaled() if is_class else None
            if not _generator_allowed(self.cone, generator, frame):
                raise CertificateError(f"{generator} is not a generator of the {self.cone} cone")
            frames.append(frame)
        try:
            expected = self.reduced_target()
        except ValueError as exc:  # a word letter outside 0..7
            raise CertificateError(str(exc)) from None
        total, den = self._resum(frames)
        ints, expected_den = expected.scaled()
        if [x * expected_den for x in total] != [x * den for x in ints]:
            total = type(self.target).from_scaled(total, den)
            raise CertificateError(f"terms sum to {total}, expected {expected}")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "cone": self.cone,
            "input": str(self.target),
            "word": list(self.word),
            "terms": [
                {"gen": str(generator), "coeff": str(coefficient)}
                for generator, coefficient in self.terms
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        try:
            cone = data["cone"]
            parse = CurveClass.parse if cone == CONE_CURVES else DivisorClass.parse
            target = parse(_json_str(data, "input"))
            word = _json_word(data["word"])
            terms = tuple(
                (parse(_json_str(item, "gen")),
                 Fraction(_parse_rational(_json_str(item, "coeff"))))
                for item in data["terms"]
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed certificate: {exc}") from None
        return cls(cone, target, word, terms)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # nesting past the stack
            raise ValueError(f"malformed certificate: {exc}") from None
        return cls.from_dict(data)


def _json_word(letters) -> WeylWord:
    # Every word letter must be a JSON integer: not a float, a string or a
    # bool.  One scan of the letters' types checks them all; the first bad
    # letter is named.
    word = tuple(letters)
    if not set(map(type, word)) <= {int}:
        bad = next(x for x in word if type(x) is not int)
        raise TypeError(f"word letter {bad!r} is not an integer")
    return word


def _json_str(item: dict, key: str) -> str:
    # Classes and coefficients are strings such as "3/2", never JSON numbers.
    value = item[key]
    if not isinstance(value, str):
        raise TypeError(f"{key} {value!r} is not a string")
    return value


def _key(generator) -> tuple[int, ...]:
    # The int vector of an integral class: the key of its term.
    return tuple(generator.scaled()[0])


def _freeze_terms(terms: dict, scale: int = 1, kind=DivisorClass) -> tuple:
    # Terms keyed by generator int vectors, as (generator, coefficient) pairs:
    # the non-zero ones in key order, which is vector() order since every
    # generator is integral, each generator built once and each integer
    # coefficient divided by the scale once.
    return tuple(
        (kind.from_scaled(key, 1), Fraction(coefficient, scale))
        for key, coefficient in sorted(terms.items())
        if coefficient
    )


# -- generating sets -----------------------------------------------------------

def _through_ints(degree: int, indices) -> tuple[int, ...]:
    # The plane (degree 1) or quadric (degree 2) through the points, simply, as
    # an int vector; H is the plane through no point.
    ints = [degree] + [0] * NUM_POINTS
    for i in indices:
        ints[i] = 1
    return tuple(ints)


def _through(degree: int, indices) -> DivisorClass:
    return DivisorClass.from_scaled(_through_ints(degree, indices), 1)


@lru_cache(maxsize=1)
def curve_generators() -> tuple[CurveClass, ...]:
    """The 36 generators of the cone of curves: e_i and the line classes h-e_i-e_j."""
    pairs = itertools.combinations(range(1, NUM_POINTS + 1), 2)
    return EXCEPTIONAL_LINES + tuple(line_between(i, j) for i, j in pairs)


@lru_cache(maxsize=1)
def nef_generators() -> tuple[DivisorClass, ...]:
    """The 228 nef-cone generators: H, H-E_i, and quadrics through 3..8 points."""
    gens = [H]
    gens.extend(_through(1, (i,)) for i in range(1, NUM_POINTS + 1))
    for size in range(3, NUM_POINTS + 1):
        for subset in itertools.combinations(range(1, NUM_POINTS + 1), size):
            gens.append(_through(2, subset))
    return tuple(gens)


@lru_cache(maxsize=1)
def pi_generators() -> tuple[DivisorClass, ...]:
    """The 17 generators of the fundamental movable cone.

    H; H-E_i and H-E_i-E_j supported on the first three points; the quadrics
    L_k = (2;1^k) for 4 <= k <= 8; and M_l = (3;3,1^(l-1)) for 4 <= l <= 8.
    """
    gens = [H]
    gens.extend(_through(1, (i,)) for i in (1, 2, 3))
    gens.extend(_through(1, pair) for pair in itertools.combinations((1, 2, 3), 2))
    gens.extend(_through(2, range(1, k + 1)) for k in range(4, NUM_POINTS + 1))
    gens.extend(DivisorClass(3, (3,) + (1,) * (a - 1) + (0,) * (NUM_POINTS - a))
                for a in range(4, NUM_POINTS + 1))
    return tuple(gens)


@lru_cache(maxsize=None)
def _generator_set(cone: str) -> frozenset:
    # The generators a curves, nef or mov certificate may use, hashed once.  A nef
    # certificate may also use quadrics through exactly two points; each equals
    # (H-E_i) + (H-E_j), so the generated cone is unchanged.
    if cone == CONE_CURVES:
        return frozenset(curve_generators())
    if cone == CONE_MOV:
        return frozenset(pi_generators())
    pairs = itertools.combinations(range(1, NUM_POINTS + 1), 2)
    return frozenset(nef_generators()) | frozenset(_through(2, pair) for pair in pairs)


def _generator_allowed(cone: str, generator, frame=None) -> bool:
    # frame is the generator's `scaled()` pair when the caller has it.
    if cone == CONE_EFF:
        if not isinstance(generator, DivisorClass):
            return False
        ints, den = frame or generator.scaled()
        if den == 1 and tuple(ints) == _HALF_ANTICANONICAL_INTS:
            return True
        return _is_minus_one_frame(ints, den)
    kind = CurveClass if cone == CONE_CURVES else DivisorClass
    return cone in CONE_TAGS and isinstance(generator, kind) and generator in _generator_set(cone)


# -- cone of curves -------------------------------------------------------------

def curve_decompose(curve: CurveClass) -> Certificate:
    """Write a curve class as a non-negative sum of the 36 curve generators.

    The cone of curves is dual to the nef cone, so with b_i = -c_i the class
    (a; c) is a member iff a >= 0, b_i <= a for every i and sum_i max(b_i, 0)
    <= 2a: it meets H, each H-E_i and each quadric through three or more
    points non-negatively.  Anything else raises NotInCurveCone with the first
    of `nef_generators()` it meets negatively.  A member is written by
    Hakimi's criterion (J. SIAM 10, 1962): degrees delta with sum 2a and max
    <= a are those of a loopless multigraph on the eight points.  Here
    delta_i = max(b_i, 0), topped up from point 1 upwards (each at most a) to
    sum 2a; e_i takes delta_i - b_i, and the edges are lines h-e_i-e_j, taken
    in bulk: each round joins the two largest degrees i1, i2 by
    min(delta_i2, a - delta_i3) lines, which empties i2 or makes i3 tight.
    """
    ints, _ = curve.scaled()
    a, b = ints[0], [-x for x in ints[1:]]
    delta = [max(x, 0) for x in b]
    if a < 0 or max(b) > a or sum(delta) > 2 * a:
        # Every nef generator is integral: its meeting number is an int dot product.
        for witness in nef_generators():
            value = sum(map(mul, _key(witness), ints))
            if value < 0:
                raise NotInCurveCone(curve, witness, value)
    spare = 2 * a - sum(delta)
    for i in range(NUM_POINTS):
        step = min(spare, a - delta[i])
        delta[i] += step
        spare -= step
    terms = Counter({_key(line): delta[i] - b[i] for i, line in enumerate(EXCEPTIONAL_LINES)})
    while a > 0:
        i1, i2, i3 = sorted(range(NUM_POINTS), key=lambda i: (-delta[i], i))[:3]
        k = min(delta[i2], a - delta[i3])
        terms[_key(line_between(i1 + 1, i2 + 1))] += k
        delta[i1] -= k
        delta[i2] -= k
        a -= k

    certificate = Certificate(CONE_CURVES, curve, (), _freeze_terms(terms, kind=CurveClass))
    certificate.check()
    return certificate


# -- nef cone --------------------------------------------------------------------

def _nef_witness(divisor: DivisorClass) -> tuple[CurveClass, Fraction] | None:
    # The first of curve_generators() the class meets negatively, with the
    # meeting number, or None when it meets all 36 non-negatively.
    for generator in curve_generators():
        value = curve_intersection(divisor, generator)
        if value < 0:
            return generator, value
    return None


def is_nef(divisor: DivisorClass) -> tuple[bool, CurveClass | None]:
    """Whether the class meets all 36 curve generators non-negatively.

    Returns (True, None) or (False, witness) where the witness is the first
    generator met negatively.  This is the test by the curves, independent of
    `nef_decompose`, which decides by its own construction.
    """
    found = _nef_witness(divisor)
    return found is None, None if found is None else found[0]


def nef_decompose(divisor: DivisorClass) -> Certificate:
    """Write a nef class over H, H-E_i and quadrics through >= 2 points.

    After ordering the multiplicities descending, m_(1) >= ... >= m_(8), the
    class equals (d-m_(1)-m_(2))*H + (m_(1)-m_(2))*(H-E_{i1}) + sum_k
    (m_(k) - m_(k+1)) * (2; 1 at the k largest positions), with m_(9) = 0;
    the permutation is folded back into the generator index sets, so the
    terms sum to the input itself.  The coefficients are all non-negative
    exactly when d >= m_(1) + m_(2) and m_(8) >= 0, which is the nef
    condition (the class meets each h-e_i-e_j and each e_i non-negatively),
    so the construction decides.  A class it refuses raises NotNef with the
    first of `curve_generators()` it meets negatively, found by the same
    search as `is_nef`; if that search finds none, the two tests disagree and
    RuntimeError is raised.
    """
    (d, *m), scale = divisor.scaled()
    order = sorted(range(NUM_POINTS), key=lambda i: (-m[i], i))
    sorted_m = [m[i] for i in order] + [0]
    if d < sorted_m[0] + sorted_m[1] or sorted_m[7] < 0:
        found = _nef_witness(divisor)
        if found is None:
            raise RuntimeError(f"{divisor} fails the nef inequalities but no curve test")
        raise NotNef(divisor, *found)
    terms = {
        _through_ints(1, ()): d - sorted_m[0] - sorted_m[1],
        _through_ints(1, (order[0] + 1,)): sorted_m[0] - sorted_m[1],
    }
    for k in range(2, NUM_POINTS + 1):
        terms[_through_ints(2, (order[i] + 1 for i in range(k)))] = sorted_m[k - 1] - sorted_m[k]

    certificate = Certificate(CONE_NEF, divisor, (), _freeze_terms(terms, scale))
    certificate.check()
    return certificate


# -- the split of a reduced class over Pi ------------------------------------------

#: L_k = (2;1^k) is pi_generators()[_QUADRICS + k] and M_a is [_CUBICS + a].
_QUADRICS, _CUBICS = 3, 8

#: The indices of pi_generators() in vector() order: a movable certificate's term order.
_PI_ORDER = sorted(range(len(pi_generators())), key=lambda i: pi_generators()[i].vector())


def _pi_split(ints: list[int]) -> tuple[list[int], list[int]]:
    # A reduced class (d; m) with 0 <= m_i <= d as counts over pi_generators(),
    # set on the L_k and M_a, plus a three-point rest [d; m_1, m_2, m_3] with
    # 2d >= m_1 + m_2 + m_3 and 0 <= m_j <= d.  The cubics go in closed form:
    # subtracting M_a, a the last non-zero position, keeps 0 <= m_i <= d and
    # lowers the defect m_1 + m_4 - d by one; round t takes one from each
    # m_j > t (j >= 2), so M_a goes min(m_a, defect) - min(m_{a+1}, defect)
    # times, and m_1 <= d gives m_4 >= defect, so a >= 4.  After the cubics
    # the class is sum_k (m_k - m_{k+1}) L_k + (d - 2m_4; m_j - m_4, j <= 3).
    d, m = ints[0], ints[1:] + [0]
    defect = max(0, m[0] + m[3] - d)
    peeled = [min(x, defect) for x in m]
    counts = [0] * len(pi_generators())
    for a in range(4, NUM_POINTS + 1):
        counts[_CUBICS + a] = peeled[a - 1] - peeled[a]
    d -= 3 * defect
    m = [x - p for x, p in zip(m, peeled)]
    m[0] -= 2 * defect
    for k in range(4, NUM_POINTS + 1):
        counts[_QUADRICS + k] = m[k - 1] - m[k]
    m4 = m[3]
    return counts, [d - 2 * m4, m[0] - m4, m[1] - m4, m[2] - m4]


#: What an effective certificate is built from, each a (-1)-class or -K/2:
#: E_1..E_8 (indices 0-7), -K/2, the plane through the first three points,
#: (2;2,1^5,0,0) and (1;1,0^5,1,1).
_PIECES = EXCEPTIONALS + (HALF_ANTICANONICAL, _through(1, (1, 2, 3)),
                          DivisorClass(2, (2, 1, 1, 1, 1, 1, 0, 0)),
                          DivisorClass(1, (1, 0, 0, 0, 0, 0, 1, 1)))
_Q, _PLANE, _DOUBLE_QUADRIC, _CUBIC_COMPLEMENT = 8, 9, 10, 11
_PIECE_INTS = tuple(_key(piece) for piece in _PIECES)

#: Each L_k and M_a as a sum of pieces (indices into _PIECES):
#: L_k = (2;2,1^5,0,0) + E_1 + E_{k+1} + ... + E_6 for k <= 6, L_7 = -K/2 + E_8,
#: L_8 = -K/2, and M_a = (2;2,1^5,0,0) + (1;1,0^5,1,1) + E_{a+1} + ... + E_8.
_EXPANSIONS = {
    _QUADRICS + 4: (_DOUBLE_QUADRIC, 0, 4, 5), _QUADRICS + 5: (_DOUBLE_QUADRIC, 0, 5),
    _QUADRICS + 6: (_DOUBLE_QUADRIC, 0), _QUADRICS + 7: (_Q, 7), _QUADRICS + 8: (_Q,),
} | {_CUBICS + a: (_DOUBLE_QUADRIC, _CUBIC_COMPLEMENT, *range(a, NUM_POINTS))
     for a in range(4, NUM_POINTS + 1)}


# -- effective cone ----------------------------------------------------------------

def _pulled_back(back: WeylWord, ints: tuple[int, ...]) -> tuple[int, ...]:
    # A piece's int vector carried by the word `back` into the input's frame.
    pulled = list(ints)
    _act(back, pulled)
    return tuple(pulled)


def effective_decompose(
    divisor: DivisorClass, max_steps: int = DEFAULT_MAX_STEPS
) -> Certificate:
    """Write an effective class over the exceptional orbit and -K/2.

    Pipeline: reduce to standard form while splitting off exceptional
    components for negative multiplicities; reject when the degree turns
    negative or a multiplicity exceeds the degree (both are supporting
    half-spaces of the effective cone).  Then split the reduced class over
    the movable generators as `movable_decompose` does (`_pi_split`), expand
    each quadric and cubic by a fixed table of (-1)-classes and -K/2, and
    write the three-point rest (d; m_1, m_2, m_3) as d times the plane through
    the first three points plus (d - m_j) * E_j.  Each distinct piece is
    pulled back to the input frame once, so the terms sum to the input.
    Rational classes are handled by clearing denominators, which scales the
    certificate exactly.  A reduction that exceeds `max_steps` raises
    StepLimitExceeded.
    """
    ints, scale = divisor.scaled()
    terms: Counter[tuple[int, ...]] = Counter()
    word: list[int] = []
    while True:
        try:
            result = _reduce(ints, 1, max_steps, nonnegative=True)
        except _DegreeWentNegative as floor:
            raise NotEffective(
                f"degree became negative under reduction (reached {floor.last})",
                floor.last,
            ) from None
        word += result.word
        negatives = [i for i in range(1, NUM_POINTS + 1) if ints[i] < 0]
        if not negatives:
            break
        back = inverse_word(word)
        for i in negatives:
            terms[_pulled_back(back, _PIECE_INTS[i - 1])] -= ints[i]  # E_i
            ints[i] = 0

    if ints[1] > ints[0]:
        raise NotEffective(
            f"multiplicity exceeds degree in standard form ({result.standard}); "
            "every effective class satisfies m_i <= d",
            result.standard,
        )

    counts, (d, *m) = _pi_split(ints)
    pieces = [0] * len(_PIECES)
    for index, row in _EXPANSIONS.items():
        for piece in row:
            pieces[piece] += counts[index]
    pieces[_PLANE] += d
    for j in range(3):
        pieces[j] += d - m[j]
    back = inverse_word(word)
    for piece, count in zip(_PIECE_INTS, pieces):
        if count:
            terms[_pulled_back(back, piece)] += count

    certificate = Certificate(CONE_EFF, divisor, (), _freeze_terms(terms, scale))
    certificate.check()
    return certificate


# -- movable cone --------------------------------------------------------------------

def movable_decompose(
    divisor: DivisorClass, max_steps: int = DEFAULT_MAX_STEPS
) -> Certificate:
    """Certify membership in the Weyl translates of the fundamental movable cone.

    The class is reduced to standard form (the word is recorded in the
    certificate); membership requires 0 <= m_i <= d afterwards.  The reduced
    class is then split over the 17 movable generators (`_pi_split`: the
    cubics M_a in closed form, then the quadrics L_k), and the three-point
    induction finishes the rest.  Rational classes are handled by clearing
    denominators, which scales the certificate exactly.  A reduction that
    exceeds `max_steps` raises StepLimitExceeded.
    """
    if divisor in _generator_set(CONE_MOV):
        certificate = Certificate(CONE_MOV, divisor, (), ((divisor, Fraction(1)),))
        certificate.check()
        return certificate

    ints, scale = divisor.scaled()
    try:
        result = _reduce(ints, 1, max_steps, nonnegative=True)
    except _DegreeWentNegative as floor:
        raise NotMovable(
            f"degree became negative under reduction (reached {floor.last}); "
            "the class is not even effective",
            floor.last,
            floor.word,
        ) from None
    reduced = result.standard
    bad_negative = [i for i in range(1, NUM_POINTS + 1) if ints[i] < 0]
    if bad_negative:
        raise NotMovable(
            f"negative multiplicity at points {bad_negative} in standard form ({reduced}); "
            "the corresponding exceptional divisors are fixed components",
            reduced,
            result.word,
        )
    if ints[1] > ints[0]:
        raise NotMovable(
            f"multiplicity exceeds degree in standard form ({reduced})",
            reduced,
            result.word,
        )

    counts, rest = _pi_split(ints)
    _three_point_decompose(rest, counts)
    generators = pi_generators()
    terms = tuple((generators[i], Fraction(counts[i], scale)) for i in _PI_ORDER if counts[i])
    certificate = Certificate(CONE_MOV, divisor, result.word, terms)
    certificate.check()
    return certificate


def _three_point_decompose(rest: list[int], counts: list[int]) -> None:
    # (d; m1, m2, m3) with 2d >= S = m1+m2+m3 and 0 <= m_j <= d, added to `counts`
    # as the induction subtracting the plane through the two points of non-minimal
    # multiplicity would: if 2m_t >= S for the largest m_t, H-E_t takes r_t = 2m_t - S,
    # else H-E_1 takes r_1 = S % 2; with R = sum r, the plane missing point l takes
    # (S - 2m_l - R + 2r_l) / 2, and H takes the rest of d.
    d, *m = rest
    total = sum(m)
    r = [0, 0, 0]
    t = max(range(3), key=m.__getitem__)
    if 2 * m[t] >= total:
        r[t] = 2 * m[t] - total
    else:
        r[0] = total % 2
    spare = sum(r)
    for j in range(3):
        counts[6 - j] += (total - 2 * m[j] - spare + 2 * r[j]) // 2
        counts[1 + j] += r[j]
    counts[0] += d - (total + spare) // 2


# -- accumulation of orbit rays ------------------------------------------------------

_HALF_ANTICANONICAL_NORM = sum(x * x for x in _HALF_ANTICANONICAL_INTS)


def _ray_distance(vec) -> Fraction:
    # As ray_distance, on a coefficient vector; scaling leaves it unchanged.
    cross = sum(map(mul, vec, _HALF_ANTICANONICAL_INTS))
    norm = sum(map(mul, vec, vec))
    if norm == 0:
        raise ValueError("the zero class spans no ray")
    return 1 - Fraction(cross * cross, norm * _HALF_ANTICANONICAL_NORM)


def ray_distance(divisor: DivisorClass) -> Fraction:
    """Exact squared-sine distance between the ray of the class and the -K/2 ray.

    Computed as 1 - <x, kappa>^2 / (<x, x> <kappa, kappa>) with the Euclidean
    inner product on coefficient vectors and kappa = (2; 1, ..., 1); zero iff
    the class is proportional to the half-anticanonical class.
    """
    return _ray_distance(divisor.scaled()[0])


def accumulation_report(max_degree: int) -> tuple[tuple[int, Fraction], ...]:
    """Per-degree maximum ray distance of the exceptional orbit to the -K/2 ray.

    Reports, for each exact degree up to the bound, the largest distance.  The
    distance is symmetric in the points, so each degree's maximum is one over
    its shapes, and no orbit class is listed.  The maxima shrink as the degree
    grows: the orbit rays accumulate only at the half-anticanonical ray.
    """
    if not isinstance(max_degree, int) or max_degree < 2:
        raise ValueError(f"max_degree must be an integer >= 2, got {max_degree!r}")
    return tuple(
        (degree, max(_ray_distance((degree, *shape)) for shape in _orbit_table.shapes(degree)))
        for degree in range(max_degree + 1)
    )
