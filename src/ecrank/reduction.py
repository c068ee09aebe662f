"""Reduction of curves modulo small primes and exact point counting.

Good reduction means the prime does not divide the discriminant
-16(4b^3 + 27c^2).  Since that discriminant carries the factor 16, the
prime 2 is always classified bad here; nothing downstream ever needs a
count at 2 (the torsion bound uses odd primes only).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import is_prime, primes_from
from .curves import Curve, discriminant
from .errors import BadReduction, InconsistentCertificate, NotPrime


@dataclass(frozen=True)
class ReducedCurve:
    modulus: int
    b_mod: int
    c_mod: int
    reduction_type: str  # "good" | "bad"

    @property
    def is_good(self) -> bool:
        return self.reduction_type == "good"


def reduce_curve(curve: Curve, ell: int) -> ReducedCurve:
    """Residues of the coefficients mod ell, tagged by the exact
    divisibility test on the discriminant.  Bad reduction is a value, not
    an error."""
    if not is_prime(ell):
        raise NotPrime(f"modulus {ell} is not prime")
    kind = "bad" if discriminant(curve) % ell == 0 else "good"
    return ReducedCurve(ell, curve.b % ell, curve.c % ell, kind)


def count_points(rc: ReducedCurve) -> int:
    """#E(F_ell) = 1 + sum over x of (1 + chi(x^3 + bx + c)).

    Uses a precomputed square table, O(ell) time.  The Hasse bound
    |N - (ell + 1)| <= 2 sqrt(ell) is checked on every count rather than
    assumed.
    """
    if not rc.is_good:
        raise BadReduction(f"{rc.modulus} divides the discriminant")
    ell = rc.modulus
    squares = {y * y % ell for y in range(1, ell)}
    n = ell + 1
    for x in range(ell):
        v = (x * x * x + rc.b_mod * x + rc.c_mod) % ell
        if v == 0:
            continue
        n += 1 if v in squares else -1
    lo, hi = hasse_interval(ell)
    if not lo <= n <= hi:
        raise InconsistentCertificate(f"Hasse bound violated at {ell}: {n}")
    return n


def naive_point_count(b: int, c: int, ell: int) -> int:
    """Brute-force count of solutions to y^2 = x^3 + bx + c over F_ell,
    plus one for the point at infinity.

    Independent of the character-sum route (tests pit the two against each
    other) and defined even for bad reduction, where it counts points of
    the singular reduced equation.
    """
    if not is_prime(ell):
        raise NotPrime(f"modulus {ell} is not prime")
    n = 1
    for x in range(ell):
        rhs = (x * x * x + b * x + c) % ell
        for y in range(ell):
            if y * y % ell == rhs:
                n += 1
    return n


def good_odd_primes(curve: Curve, count: int) -> list[int]:
    """The first `count` odd primes of good reduction, in increasing order."""
    out = []
    delta = discriminant(curve)
    for ell in primes_from(3):
        if delta % ell != 0:
            out.append(ell)
            if len(out) == count:
                break
    return out


def hasse_interval(ell: int) -> tuple[int, int]:
    """Closed interval of admissible point counts over F_ell."""
    w = isqrt(4 * ell)  # floor(2*sqrt(ell))
    return ell + 1 - w, ell + 1 + w
