"""Exact lattice model for the blowup of P^3 at eight very general points.

Divisor classes live in the rank-9 Neron-Severi lattice with basis
(H, E_1, ..., E_8); a class (d; m_1, ..., m_8) means d*H - sum_i m_i*E_i.
Curve classes live in the dual rank-9 lattice with basis (h, e_1, ..., e_8);
a class (a; c_1, ..., c_8) means a*h + sum_i c_i*e_i.  Every coefficient is
an arbitrary-precision rational (integers for curves); nothing in this
package ever stores a float.

Both lattices store a class as its integer frame (ints, den): den is the lcm
of its coefficients' denominators and ints = den * (coefficients); a curve's
den is 1.  The private base `_Frame` owns the frame arithmetic of both.
Integer code (the Weyl action, the decomposers, the certificate re-sum, the
oracle) reads a class through `scaled()`, a fresh copy of the frame, and
`from_scaled` builds the class back; `pairing` is `_form` on two frames over
the product of their denominators.  A divisor's `d`, `m` and `vector()` are
Fraction views of its frame, built on first read and kept, so a class that
only integer code reads never builds a Fraction.  The intersection numbers
of divisors with curves read those views.

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
    # Text is read as `parse` reads it, so exponent notation is refused here too.
    return Fraction(_parse_rational(value) if isinstance(value, str) else value)


class _Frame:
    """A class stored as its integer frame (ints, den): the class is ints / den, den >= 1.

    Equality compares frames of one class type, the hash is that of the pair
    (head, tail) of the coefficients, and `str` is the text form head;tail.
    """

    __slots__ = ("_ints", "_den")

    @classmethod
    def _stored(cls, ints, den: int):
        # The storing step of `from_scaled`, on a frame the caller has checked.
        # A subclass's own slots hold views built on first read: none is built yet.
        frame = object.__new__(cls)
        set_slot = object.__setattr__
        set_slot(frame, "_ints", tuple(ints))
        set_slot(frame, "_den", den)
        for name in cls.__slots__:
            set_slot(frame, name, None)
        return frame

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self).from_scaled, (self._ints, self._den)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._den == other._den and self._ints == other._ints

    def __hash__(self) -> int:
        # An integral frame hashes its ints without building Fractions, since
        # hash(Fraction(n)) == hash(n).
        ints = self._ints
        if self._den == 1:
            return hash((ints[0], ints[1:]))
        head, *tail = self.vector()
        return hash((head, tuple(tail)))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        a, b = self._den, other._den
        return self.from_scaled([x * b + y * a for x, y in zip(self._ints, other._ints)], a * b)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        a, b = self._den, other._den
        return self.from_scaled([x * b - y * a for x, y in zip(self._ints, other._ints)], a * b)

    def __neg__(self):
        return self.from_scaled([-x for x in self._ints], self._den)

    def scaled(self) -> tuple[list[int], int]:
        """The class as (ints, den): den is the lcm of its denominators, ints = den * vector().

        The list is a fresh copy of the stored frame, free for the caller to change.
        """
        return list(self._ints), self._den

    def __str__(self) -> str:
        head, *tail = self._ints if self._den == 1 else self.vector()
        return f"{head};{','.join(map(str, tail))}"


class DivisorClass(_Frame):
    """A divisor class d*H - sum_i m_i*E_i with exact rational coefficients.

    A class is stored as its canonical integer frame (ints, den): den >= 1 is
    the lcm of the reduced denominators of (d; m) and ints = den * (d; m), so
    the frame is unique and gcd(den, *ints) == 1.  `d`, `m` and `vector()`
    are Fraction views of it, built on first read and kept.  Equality, the
    hash (that of the pair (d, m)), `str` and `repr` are those of the
    coefficients, and a class is immutable.
    """

    __slots__ = ("_d", "_m")

    def __new__(cls, d: RationalLike, m) -> "DivisorClass":
        values = (d, *m)
        if all(type(x) is int for x in values):
            den = 1
        else:
            values = [_as_fraction(x) for x in values]
            den = math.lcm(*(x.denominator for x in values))
            values = [x.numerator * (den // x.denominator) for x in values]
        if len(values) != NUM_POINTS + 1:
            raise ValueError(f"expected {NUM_POINTS} multiplicities, got {len(values) - 1}")
        return cls._stored(values, den)

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

    def __repr__(self) -> str:
        return f"DivisorClass(d={self.d!r}, m={self.m!r})"

    def __mul__(self, scalar) -> "DivisorClass":
        if isinstance(scalar, float):
            return NotImplemented
        s = Fraction(scalar)
        ints = [x * s.numerator for x in self._ints]
        return DivisorClass.from_scaled(ints, self._den * s.denominator)

    __rmul__ = __mul__

    def vector(self) -> tuple[Fraction, ...]:
        """Coefficient vector (d, m_1, ..., m_8)."""
        return (self.d, *self.m)

    @classmethod
    def from_scaled(cls, ints, den: int) -> "DivisorClass":
        """The class ints / den (den > 0, 9 ints), built back from `scaled`."""
        if den != 1:
            g = math.gcd(den, *ints)
            if g != 1:
                ints, den = [x // g for x in ints], den // g
        return cls._stored(ints, den)

    def is_integral(self) -> bool:
        return self._den == 1

    @classmethod
    def parse(cls, text: str) -> "DivisorClass":
        """Parse the canonical text form ``d;m1,m2,...,m8`` (entries may be p/q)."""
        entries, canonical = _parse_vector(text)
        if canonical:
            return cls.from_scaled(entries, 1)
        return cls(entries[0], entries[1:])


class CurveClass(_Frame):
    """A curve class a*h + sum_i c_i*e_i with integer coefficients.

    It is stored as the frame ((a, c_1, ..., c_8), 1), read back through the
    `a` and `c` views; equality and the hash are those of the pair (a, c).
    """

    __slots__ = ()

    def __new__(cls, a: int, c) -> "CurveClass":
        ints = (_as_int(a), *map(_as_int, c))
        if len(ints) != NUM_POINTS + 1:
            raise ValueError(f"expected {NUM_POINTS} coefficients, got {len(ints) - 1}")
        return cls._stored(ints, 1)

    @property
    def a(self) -> int:
        return self._ints[0]

    @property
    def c(self) -> tuple[int, ...]:
        return self._ints[1:]

    def __repr__(self) -> str:
        return f"CurveClass(a={self.a!r}, c={self.c!r})"

    def __mul__(self, scalar: int) -> "CurveClass":
        s = _as_int(scalar)
        return CurveClass._stored([x * s for x in self._ints], 1)

    __rmul__ = __mul__

    def multiplicities(self) -> tuple[int, ...]:
        """Point multiplicities b_i of the curve, i.e. b_i = -c_i."""
        return tuple(-x for x in self.c)

    def vector(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self._ints))

    @classmethod
    def from_scaled(cls, ints, den: int) -> "CurveClass":
        """The class ints / den, built back from `scaled`; den must be 1."""
        if den != 1:
            raise ValueError(f"curve classes must be integral, got denominator {den}")
        return cls._stored(ints, 1)

    @classmethod
    def parse(cls, text: str) -> "CurveClass":
        """Parse the canonical text form ``a;c1,c2,...,c8`` (integers only)."""
        entries, _ = _parse_vector(text)
        if any(x.denominator != 1 for x in entries):
            raise ValueError(f"curve classes must be integral: {text!r}")
        return cls(int(entries[0]), tuple(map(int, entries[1:])))


def _as_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer coefficient, got {value!r}")
    return value


def _parse_rational(text: str) -> int | Fraction:
    # An integer literal (an optional '-', then decimal digits) parses as an int;
    # anything else, such as "p/q", "1.5", "+3" or "1_0", is left to Fraction,
    # but not exponent notation: Fraction("1e10000000") builds 10**10000000.
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation is not accepted: {text!r}")
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
    return Fraction(_form(a._ints, b._ints), a._den * b._den)


def _form(a, b) -> int:
    # The bilinear form of `pairing` on two int vectors (d, m_1, ..., m_8).
    return 2 * a[0] * b[0] - sum(map(mul, a[1:], b[1:]))


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
        for i, alpha in enumerate(self.roots):
            if (value := pairing(alpha, alpha)) != -2:
                raise ValueError(f"root {i} has self-pairing {value}, want -2")
            if pairing(CANONICAL, alpha) != 0:
                raise ValueError(f"root {i} is not orthogonal to the canonical class")
            for j, beta in enumerate(self.roots):
                if i != j and (value := pairing(alpha, beta)) not in (0, 1):
                    raise ValueError(f"roots {i},{j} pair to {value}, want 0 or 1")
            for j, weight in enumerate(self.weights):
                expected = 1 if i == j else 0
                if (value := pairing(weight, alpha)) != expected:
                    raise ValueError(f"(f_{j}, alpha_{i}) = {value}, want {expected}")


ROOT_SYSTEM = RootSystem.standard()
