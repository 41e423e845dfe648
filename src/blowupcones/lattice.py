"""Exact lattice model for the blowup of P^3 at eight very general points.

Divisor classes live in the rank-9 Neron-Severi lattice with basis
(H, E_1, ..., E_8); a class is stored as a coefficient tuple (d; m_1, ..., m_8)
meaning d*H - sum_i m_i*E_i.  Curve classes live in the dual rank-9 lattice
with basis (h, e_1, ..., e_8) and are stored as (a; c_1, ..., c_8) meaning
a*h + sum_i c_i*e_i.  Every coefficient is an arbitrary-precision rational
(integers for curves); nothing in this package ever stores a float.

A divisor class is stored as its integer frame (ints, den): den is the lcm
of its coefficients' denominators and ints = den * (d; m_1, ..., m_8).  Its
`d`, `m` and `vector()` are Fraction views of the frame, built on first read
and kept, so a class that only integer code reads never builds a Fraction.
Integer code (the Weyl action, the decomposers, the certificate re-sum, the
oracle) reads a class through `scaled()`, a fresh copy of the frame, and
`from_scaled` builds the class back.  The bilinear form and the intersection
numbers read the Fraction views.

The text form is read by `_parse_vector`.  Canonical integer text (ASCII
digits, each entry with at most a leading '-', no spaces) is split and read
by `int` alone, and `DivisorClass.parse` stores its ints as the frame
(ints, 1) directly.  Any other text (p/q entries, spaces, '+', '_', other
digits) goes entry by entry through `_parse_rational`; both paths give the
same class, or the same error, for every text.
"""

from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from operator import mul

NUM_POINTS = 8

RationalLike = Fraction | int | str


def _as_fraction(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floating-point coefficients are not allowed; use Fraction")
    return Fraction(value)


class DivisorClass:
    """A divisor class d*H - sum_i m_i*E_i with exact rational coefficients.

    A class is stored as its canonical integer frame (ints, den): den >= 1 is
    the lcm of the reduced denominators of (d; m) and ints = den * (d; m), so
    the frame is unique and gcd(den, *ints) == 1.  `d`, `m` and `vector()`
    are Fraction views of it, built on first read and kept.  Equality, the
    hash (that of the pair (d, m)), `str` and `repr` are those of the
    coefficients, and a class is immutable.
    """

    __slots__ = ("_ints", "_den", "_d", "_m")

    def __init__(self, d: RationalLike, m) -> None:
        values = (d, *m)
        if all(type(x) is int for x in values):
            den = 1
        else:
            values = [_as_fraction(x) for x in values]
            den = math.lcm(*(x.denominator for x in values))
            values = [x.numerator * (den // x.denominator) for x in values]
        if len(values) != NUM_POINTS + 1:
            raise ValueError(f"expected {NUM_POINTS} multiplicities, got {len(values) - 1}")
        self._store(tuple(values), den)

    def _store(self, ints: tuple[int, ...], den: int) -> None:
        set_slot = object.__setattr__
        set_slot(self, "_ints", ints)
        set_slot(self, "_den", den)
        set_slot(self, "_d", None)
        set_slot(self, "_m", None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self).from_scaled, (self._ints, self._den)

    # -- the Fraction views ---------------------------------------------------

    @property
    def d(self) -> Fraction:
        if self._d is None:
            self._build_views()
        return self._d

    @property
    def m(self) -> tuple[Fraction, ...]:
        if self._m is None:
            self._build_views()
        return self._m

    def _build_views(self) -> None:
        den = self._den
        if den == 1:
            d, *m = map(Fraction, self._ints)
        else:
            d, *m = (Fraction(x, den) for x in self._ints)
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_m", tuple(m))

    def __eq__(self, other):
        if type(other) is not DivisorClass:
            return NotImplemented
        return self._den == other._den and self._ints == other._ints

    def __hash__(self) -> int:
        # The hash of the pair (d, m).  An integral class hashes its ints
        # without building the views, since hash(Fraction(n)) == hash(n).
        if self._den == 1:
            return hash((self._ints[0], self._ints[1:]))
        return hash((self.d, self.m))

    def __repr__(self) -> str:
        return f"DivisorClass(d={self.d!r}, m={self.m!r})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        a, b = self._den, other._den
        ints = [x * b + y * a for x, y in zip(self._ints, other._ints)]
        return DivisorClass.from_scaled(ints, a * b)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        a, b = self._den, other._den
        ints = [x * b - y * a for x, y in zip(self._ints, other._ints)]
        return DivisorClass.from_scaled(ints, a * b)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass.from_scaled([-x for x in self._ints], self._den)

    def __mul__(self, scalar) -> "DivisorClass":
        if isinstance(scalar, float):
            return NotImplemented
        s = Fraction(scalar)
        ints = [x * s.numerator for x in self._ints]
        return DivisorClass.from_scaled(ints, self._den * s.denominator)

    __rmul__ = __mul__

    # -- views --------------------------------------------------------------

    def vector(self) -> tuple[Fraction, ...]:
        """Coefficient vector (d, m_1, ..., m_8)."""
        return (self.d, *self.m)

    def scaled(self) -> tuple[list[int], int]:
        """The class as (ints, den): den is the lcm of its denominators, ints = den * vector().

        The list is a fresh copy of the stored frame, free for the caller to change.
        """
        return list(self._ints), self._den

    @classmethod
    def from_scaled(cls, ints, den: int) -> "DivisorClass":
        """The class ints / den (den > 0, 9 ints), built back from `scaled`."""
        if den != 1:
            g = math.gcd(den, *ints)
            if g != 1:
                ints, den = [x // g for x in ints], den // g
        divisor = cls.__new__(cls)
        divisor._store(tuple(ints), den)
        return divisor

    def is_integral(self) -> bool:
        return self._den == 1

    # -- text form ----------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "DivisorClass":
        """Parse the canonical text form ``d;m1,m2,...,m8`` (entries may be p/q)."""
        entries, canonical = _parse_vector(text)
        if canonical:
            return cls.from_scaled(entries, 1)
        return cls(entries[0], entries[1:])

    def __str__(self) -> str:
        d, *m = self._ints if self._den == 1 else self.vector()
        return f"{d};{','.join(map(str, m))}"


@dataclass(frozen=True)
class CurveClass:
    """A curve class a*h + sum_i c_i*e_i with integer coefficients."""

    a: int
    c: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _as_int(self.a))
        coeffs = tuple(_as_int(x) for x in self.c)
        if len(coeffs) != NUM_POINTS:
            raise ValueError(f"expected {NUM_POINTS} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "c", coeffs)

    def __add__(self, other: "CurveClass") -> "CurveClass":
        if not isinstance(other, CurveClass):
            return NotImplemented
        return CurveClass(self.a + other.a, tuple(x + y for x, y in zip(self.c, other.c)))

    def __sub__(self, other: "CurveClass") -> "CurveClass":
        if not isinstance(other, CurveClass):
            return NotImplemented
        return CurveClass(self.a - other.a, tuple(x - y for x, y in zip(self.c, other.c)))

    def __neg__(self) -> "CurveClass":
        return CurveClass(-self.a, tuple(-x for x in self.c))

    def __mul__(self, scalar: int) -> "CurveClass":
        s = _as_int(scalar)
        return CurveClass(self.a * s, tuple(x * s for x in self.c))

    __rmul__ = __mul__

    def multiplicities(self) -> tuple[int, ...]:
        """Point multiplicities b_i of the curve, i.e. b_i = -c_i."""
        return tuple(-x for x in self.c)

    def vector(self) -> tuple[Fraction, ...]:
        return (Fraction(self.a), *(Fraction(x) for x in self.c))

    def scaled(self) -> tuple[list[int], int]:
        """The class as (ints, 1), as `DivisorClass.scaled`: curve classes are integral."""
        return [self.a, *self.c], 1

    @classmethod
    def from_scaled(cls, ints, den: int) -> "CurveClass":
        """The class ints / den, built back from `scaled`; den must be 1."""
        if den != 1:
            raise ValueError(f"curve classes must be integral, got denominator {den}")
        return cls(ints[0], tuple(ints[1:]))

    @classmethod
    def parse(cls, text: str) -> "CurveClass":
        """Parse the canonical text form ``a;c1,c2,...,c8`` (integers only)."""
        entries, _ = _parse_vector(text)
        if any(x.denominator != 1 for x in entries):
            raise ValueError(f"curve classes must be integral: {text!r}")
        return cls(int(entries[0]), tuple(map(int, entries[1:])))

    def __str__(self) -> str:
        return f"{self.a};{','.join(str(x) for x in self.c)}"


def _as_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer coefficient, got {value!r}")
    return value


def _parse_rational(text: str) -> int | Fraction:
    # An integer literal (an optional '-', then decimal digits) parses as an int;
    # anything else, such as "p/q", "+3" or "1_0", is left to Fraction.
    digits = text[1:] if text[:1] == "-" else text
    return int(text) if digits.isdecimal() else Fraction(text)


# Canonical integer text: the entries `int` reads exactly as `_parse_rational` does.
_INTEGER_TEXT = re.compile(rf"-?[0-9]+;-?[0-9]+(?:,-?[0-9]+){{{NUM_POINTS - 1}}}")


def _parse_vector(text: str) -> tuple[list[int | Fraction], bool]:
    """The entries of a class's text form, and whether it was canonical integer text."""
    if _INTEGER_TEXT.fullmatch(text):
        try:
            return [*map(int, text.replace(";", ",").split(","))], True
        except ValueError:  # an entry past int()'s digit limit: reported below
            pass
    head, sep, tail = text.strip().partition(";")
    if not sep:
        raise ValueError(f"missing ';' separator in class {text!r}")
    try:
        entries = [_parse_rational(head.strip())]
        entries += (_parse_rational(part.strip()) for part in tail.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse class {text!r}: {exc}") from None
    if len(entries) != NUM_POINTS + 1:
        raise ValueError(f"expected {NUM_POINTS} entries after ';' in {text!r}, "
                         f"got {len(entries) - 1}")
    return entries, False


# -- distinguished classes --------------------------------------------------

H = DivisorClass(1, (0,) * 8)


def exceptional(i: int) -> DivisorClass:
    """The exceptional divisor class E_i over the i-th point, 1 <= i <= 8."""
    if not 1 <= i <= NUM_POINTS:
        raise ValueError(f"point index must be in 1..{NUM_POINTS}, got {i}")
    m = [0] * NUM_POINTS
    m[i - 1] = -1
    return DivisorClass(0, tuple(m))


EXCEPTIONALS = tuple(exceptional(i) for i in range(1, NUM_POINTS + 1))

#: The canonical class, -4H + 2*sum(E_i).
CANONICAL = DivisorClass(-4, (-2,) * 8)

#: Class of the half-anticanonical surface (a quadric through the eight points).
HALF_ANTICANONICAL = DivisorClass(2, (1,) * 8)

#: Class of the transform of a general line.
LINE = CurveClass(1, (0,) * 8)


def exceptional_line(i: int) -> CurveClass:
    """The class e_i of a line inside the exceptional divisor E_i."""
    if not 1 <= i <= NUM_POINTS:
        raise ValueError(f"point index must be in 1..{NUM_POINTS}, got {i}")
    c = [0] * NUM_POINTS
    c[i - 1] = 1
    return CurveClass(0, tuple(c))


def line_between(i: int, j: int) -> CurveClass:
    """The class h - e_i - e_j of the transform of the line through points i and j."""
    if i == j or not (1 <= i <= NUM_POINTS and 1 <= j <= NUM_POINTS):
        raise ValueError(f"need two distinct point indices in 1..{NUM_POINTS}, got {i}, {j}")
    c = [0] * NUM_POINTS
    c[i - 1] = -1
    c[j - 1] = -1
    return CurveClass(1, tuple(c))


EXCEPTIONAL_LINES = tuple(exceptional_line(i) for i in range(1, NUM_POINTS + 1))


# -- the bilinear form and intersection numbers ------------------------------

def pairing(a: DivisorClass, b: DivisorClass) -> Fraction:
    """The symmetric bilinear form with (H,H)=2, (E_i,E_j)=-delta_ij, (H,E_i)=0."""
    return 2 * a.d * b.d - sum(x * y for x, y in zip(a.m, b.m))


def curve_intersection(divisor: DivisorClass, curve: CurveClass) -> Fraction:
    """Intersection number; satisfies D.e_i = m_i and D.(h-e_i-e_j) = d - m_i - m_j."""
    return divisor.d * curve.a + sum(x * y for x, y in zip(divisor.m, curve.c))


def dq_numbers(divisor: DivisorClass) -> tuple[Fraction, Fraction]:
    """The pair (D^2.Q, D.Q^2) = (pairing(D, D), pairing(D, Q)), Q the surface -K/2."""
    return pairing(divisor, divisor), pairing(divisor, HALF_ANTICANONICAL)


# -- the T_{2,4,4} root data --------------------------------------------------

def _simple_root(i: int) -> DivisorClass:
    if i == 0:
        return DivisorClass(1, (1, 1, 1, 1, 0, 0, 0, 0))
    m = [0] * NUM_POINTS
    m[i - 1] = -1
    m[i] = 1
    return DivisorClass(0, tuple(m))


_WEIGHT_DATA = (
    (Fraction(1, 2), 0),
    (Fraction(1, 2), 1),
    (Fraction(1), 2),
    (Fraction(3, 2), 3),
    (Fraction(2), 4),
    (Fraction(2), 5),
    (Fraction(2), 6),
    (Fraction(2), 7),
)


def _fundamental_weight(i: int) -> DivisorClass:
    degree, ones = _WEIGHT_DATA[i]
    return DivisorClass(degree, tuple(Fraction(1) if k < ones else Fraction(0) for k in range(8)))


@dataclass(frozen=True)
class RootSystem:
    """Simple roots and fundamental weights of the T_{2,4,4} diagram on the lattice.

    The Gram contract is checked on construction: (alpha_i, alpha_i) = -2,
    (alpha_i, alpha_j) in {0, 1} for i != j, (f_i, alpha_j) = delta_ij, and
    (K, alpha_i) = 0.
    """

    roots: tuple[DivisorClass, ...]
    weights: tuple[DivisorClass, ...]

    @classmethod
    def standard(cls) -> "RootSystem":
        system = cls(
            roots=tuple(_simple_root(i) for i in range(8)),
            weights=tuple(_fundamental_weight(i) for i in range(8)),
        )
        system._check_gram()
        return system

    def _check_gram(self) -> None:
        # In integers, on `scaled()` frames: (x, y) = _form(x_ints, y_ints) /
        # (x_den * y_den).  A message reads its value back through `pairing`.
        roots = [alpha.scaled() for alpha in self.roots]
        weights = [weight.scaled() for weight in self.weights]
        canonical, _ = CANONICAL.scaled()
        for i, (alpha, den) in enumerate(roots):
            if _form(alpha, alpha) != -2 * den * den:
                value = pairing(self.roots[i], self.roots[i])
                raise ValueError(f"root {i} has self-pairing {value}, want -2")
            if _form(canonical, alpha) != 0:
                raise ValueError(f"root {i} is not orthogonal to the canonical class")
            for j, (beta, beta_den) in enumerate(roots):
                if i != j and _form(alpha, beta) not in (0, den * beta_den):
                    value = pairing(self.roots[i], self.roots[j])
                    raise ValueError(f"roots {i},{j} pair to {value}, want 0 or 1")
            for j, (weight, weight_den) in enumerate(weights):
                expected = 1 if i == j else 0
                if _form(weight, alpha) != expected * weight_den * den:
                    value = pairing(self.weights[j], self.roots[i])
                    raise ValueError(f"(f_{j}, alpha_{i}) = {value}, want {expected}")


def _form(a, b) -> int:
    # The bilinear form of `pairing` on two int vectors (d, m_1, ..., m_8).
    return 2 * a[0] * b[0] - sum(map(mul, a[1:], b[1:]))


ROOT_SYSTEM = RootSystem.standard()
