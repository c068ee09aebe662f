"""The parametric curve family y^2 = x^3 - m^2 x + (pqr)^2.

FamilyParams carries (m, p, q, r); constructing one enforces that p, q, r
are distinct odd primes.  The congruence hypotheses on m that the torsion
and rank arguments need are *reported*, never silently assumed: the sweep
machinery deliberately explores parameter sets outside the proven region.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .arith import is_prime, two_adic_valuation
from .curves import Curve, Point, add, is_on_curve
from .errors import InconsistentCertificate, NotPrime, PrimeIsTwo, PrimesNotDistinct

# Weakest two-adic exponent under which the congruence arguments all apply:
# the hypothesis is m = 2 (mod 2^K).
HYPOTHESIS_K = 5


def in_hypothesis_class(m: int) -> bool:
    """m = 2 (mod 2^HYPOTHESIS_K), the two-adic hypothesis on m."""
    return m % (1 << HYPOTHESIS_K) == 2


@dataclass(frozen=True)
class FamilyParams:
    m: int
    p: int
    q: int
    r: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        for v in (self.p, self.q, self.r):
            if v == 2:
                raise PrimeIsTwo("the parameter primes must be odd")
            if not is_prime(v):
                raise NotPrime(f"{v} is not prime")
        if len({self.p, self.q, self.r}) != 3:
            raise PrimesNotDistinct(f"p, q, r must be distinct, got {self.p}, {self.q}, {self.r}")

    @property
    def pqr(self) -> int:
        return self.p * self.q * self.r

    @property
    def k_witness(self) -> int | None:
        """Largest k >= 1 with m = 2 (mod 2^k) when m = 2 (mod 4), else 0.

        For m == 2 every k works; that unbounded case is reported as None.
        """
        if self.m == 2:
            return None
        if self.m % 4 != 2:
            return 0
        return two_adic_valuation(self.m - 2)


@dataclass(frozen=True)
class HypothesisReport:
    """Independently testable flags; all four true means the torsion and
    rank theorems' hypotheses hold for this parameter set."""

    mod3_ok: bool     # m not divisible by 3
    mod2k_ok: bool    # m = 2 (mod 2^HYPOTHESIS_K)
    coprime_ok: bool  # none of p, q, r divides m
    primes_ok: bool   # p, q, r distinct odd primes (enforced at construction)

    @property
    def all_ok(self) -> bool:
        return self.mod3_ok and self.mod2k_ok and self.coprime_ok and self.primes_ok


def validate_hypotheses(params: FamilyParams) -> HypothesisReport:
    m = params.m
    return HypothesisReport(
        mod3_ok=m % 3 != 0,
        mod2k_ok=in_hypothesis_class(m),
        coprime_ok=all(m % v != 0 for v in (params.p, params.q, params.r)),
        primes_ok=True,
    )


def build_family_curve(params: FamilyParams) -> Curve:
    """Curve with b = -m^2 and c = (pqr)^2.

    Never singular for integer parameters (4 m^6 = 27 (pqr)^4 has no integer
    solution), but Curve re-checks rather than trusting that argument.
    """
    return Curve(-params.m * params.m, params.pqr * params.pqr)


class CanonicalPoints(NamedTuple):
    base: Point      # (0, pqr)
    shifted: Point   # (m, pqr)
    combined: Point  # group-law sum of the two, lands at x = -m


def canonical_points(params: FamilyParams) -> CanonicalPoints:
    """The two evident rational points and their group-law sum.

    The chord through base and shifted is horizontal, so the sum is
    (-m, -pqr); the class of that point modulo doubled points is what the
    rank certificate needs, and [P] = [-P] there, so the sign of the
    y-coordinate never matters downstream.
    """
    curve = build_family_curve(params)
    base = Point(0, params.pqr)
    shifted = Point(params.m, params.pqr)
    combined = add(curve, base, shifted)
    if not is_on_curve(curve, combined):
        raise InconsistentCertificate(f"{combined} is not on the curve")
    return CanonicalPoints(base, shifted, combined)
