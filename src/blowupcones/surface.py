"""The rank-10 lattice of the half-anticanonical surface and restriction to it.

A general half-anticanonical member is a quadric blown up at the eight points;
its divisor lattice has basis (l_1, l_2, e_1, ..., e_8) where l_1, l_2 are the
two rulings.  The intersection form is l_1.l_2 = 1, l_i^2 = 0, e_i.e_j =
-delta_ij, l_k.e_i = 0, and restriction from the threefold sends H to
l_1 + l_2 and E_i to e_i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import NUM_POINTS, DivisorClass


@dataclass(frozen=True)
class SurfaceClass:
    """A class a1*l_1 + a2*l_2 - sum_i n_i*e_i on the blown-up quadric."""

    a1: int
    a2: int
    n: tuple[int, ...]

    def __post_init__(self) -> None:
        for label, value in (("a1", self.a1), ("a2", self.a2)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{label} must be an integer, got {value!r}")
        coeffs = tuple(self.n)
        if len(coeffs) != NUM_POINTS:
            raise ValueError(f"expected {NUM_POINTS} multiplicities, got {len(coeffs)}")
        for value in coeffs:
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"multiplicities must be integers, got {value!r}")
        object.__setattr__(self, "n", coeffs)

    def vector(self) -> tuple[int, ...]:
        return (self.a1, self.a2, *self.n)

    @classmethod
    def parse(cls, text: str) -> "SurfaceClass":
        """Parse the canonical text form ``a1,a2;n1,...,n8``."""
        head, sep, tail = text.strip().partition(";")
        if not sep:
            raise ValueError(f"missing ';' separator in surface class {text!r}")
        try:
            rulings = [int(part.strip()) for part in head.split(",")]
            rest = tuple(int(part.strip()) for part in tail.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse surface class {text!r}: {exc}") from None
        if len(rulings) != 2 or len(rest) != NUM_POINTS:
            raise ValueError(f"surface class {text!r} must have 2 ruling and 8 point entries")
        return cls(rulings[0], rulings[1], rest)

    def __str__(self) -> str:
        return f"{self.a1},{self.a2};{','.join(str(x) for x in self.n)}"


#: The anticanonical class of the surface, 2*l_1 + 2*l_2 - sum e_i.
MINUS_CANONICAL = SurfaceClass(2, 2, (1,) * 8)


def surface_pairing(gamma1: SurfaceClass, gamma2: SurfaceClass) -> int:
    """Intersection number a1*a2' + a2*a1' - sum n_i*n_i'."""
    return (
        gamma1.a1 * gamma2.a2
        + gamma1.a2 * gamma2.a1
        - sum(x * y for x, y in zip(gamma1.n, gamma2.n))
    )


def restrict_to_surface(divisor: DivisorClass) -> SurfaceClass:
    """Restriction of an integral threefold class: (d; m) maps to (d, d; m)."""
    (d, *m), den = divisor.scaled()
    if den != 1:
        raise ValueError(f"integral class required, got {divisor}")
    return SurfaceClass(d, d, tuple(m))


def is_minus_one_curve(gamma: SurfaceClass) -> bool:
    """Whether the class has square -1 and meets the anticanonical class in 1."""
    return surface_pairing(gamma, gamma) == -1 and surface_pairing(MINUS_CANONICAL, gamma) == 1
