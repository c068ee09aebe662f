"""The parametric curve family y^2 = x^3 - m^2 x + (pqr)^2.

FamilyParams carries (m, p, q, r); constructing one enforces that all four
are ints (not bools or floats) and that p, q, r are distinct odd primes.
The congruence hypotheses on m that the torsion and rank arguments need
are *reported*, never silently assumed: the sweep machinery deliberately
explores parameter sets outside the proven region.

It is also the one home of the paper's family arguments, cited by
hypothesis class; no certificate rests on them.  cite_congruence records
the route for the three canonical targets (x' = 0, m, -m) under
m = 2 (mod 32) next to the halving verdict of descent.  cite_obstructions
records the congruences on m mod 3, 4 and 8 that rule out orders 3, 5
and 7 in a torsion report, with an order-2 verdict read from its
Nagell-Lutz candidates.  The canonical-target and order-3 facts are
proven once in tier-1 (tests/test_congruence_facts.py); the order-5 and
order-7 facts are only cited, not derived from psi_5 or psi_7.  Both
citations derive their result from the value they are given with
Value._replace, so this module imports neither descent nor torsion.
"""
from __future__ import annotations

from .arith import is_prime, two_adic_valuation
from .curves import Curve, Point, Value, add, init_field, is_on_curve
from .errors import InconsistentCertificate, NotPrime, PrimeIsTwo, PrimesNotDistinct
from .errors import UnsupportedOrder

# Weakest two-adic exponent under which the congruence arguments all apply:
# the hypothesis is m = 2 (mod 2^K).
HYPOTHESIS_K = 5


def in_hypothesis_class(m: int) -> bool:
    """m = 2 (mod 2^HYPOTHESIS_K), the two-adic hypothesis on m."""
    return m % (1 << HYPOTHESIS_K) == 2


class FamilyParams(Value):
    __slots__ = ("m", "p", "q", "r")

    def __init__(self, m: int, p: int, q: int, r: int):
        # a float or a bool passes is_prime and m >= 1, and fails or prints later
        for name, v in (("m", m), ("p", p), ("q", q), ("r", r)):
            if type(v) is not int:
                raise ValueError(f"{name} must be an int, got {v!r}")
        if m < 1:
            raise ValueError(f"m must be a positive integer, got {m!r}")
        for v in (p, q, r):
            if v == 2:
                raise PrimeIsTwo("the parameter primes must be odd")
            if not is_prime(v):
                raise NotPrime(f"{v} is not prime")
        if len({p, q, r}) != 3:
            raise PrimesNotDistinct(f"p, q, r must be distinct, got {p}, {q}, {r}")
        init_field(self, "m", m)
        init_field(self, "p", p)
        init_field(self, "q", q)
        init_field(self, "r", r)

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


class HypothesisReport(Value):
    """Independently testable flags; all four true means the torsion and
    rank theorems' hypotheses hold for this parameter set."""

    __slots__ = ("mod3_ok", "mod2k_ok", "coprime_ok", "primes_ok")

    def __init__(self, mod3_ok: bool, mod2k_ok: bool, coprime_ok: bool, primes_ok: bool):
        init_field(self, "mod3_ok", mod3_ok)        # m not divisible by 3
        init_field(self, "mod2k_ok", mod2k_ok)      # m = 2 (mod 2^HYPOTHESIS_K)
        init_field(self, "coprime_ok", coprime_ok)  # none of p, q, r divides m
        # p, q, r distinct odd primes (enforced at construction)
        init_field(self, "primes_ok", primes_ok)

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


class CanonicalPoints(Value):
    """The evident pair and its sum; iterates as (base, shifted, combined)."""

    __slots__ = ("base", "shifted", "combined")

    def __init__(self, base: Point, shifted: Point, combined: Point):
        init_field(self, "base", base)          # (0, pqr)
        init_field(self, "shifted", shifted)    # (m, pqr)
        init_field(self, "combined", combined)  # group-law sum of the two, lands at x = -m

    def __iter__(self):
        return iter(self._astuple(self))


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


# ---------------------------------------------------------------------------
# Congruence route for the canonical targets
# ---------------------------------------------------------------------------


class CongruenceEvidence(Value):
    """Record of a residue argument ruling the target out of 2E(Q)."""

    __slots__ = ("target_label", "modulus", "detail")

    def __init__(self, target_label: str, modulus: int, detail: str):
        init_field(self, "target_label", target_label)  # "base" | "shifted" | "combined"
        init_field(self, "modulus", modulus)
        init_field(self, "detail", detail)


# The paper's residue argument for each canonical target.  Each holds for
# every m = 2 (mod 32) and every odd pqr: the proof test evaluates it once
# over all the residues it depends on.
_BASE_EVIDENCE = CongruenceEvidence(
    "base",
    32,
    "x = 2k^2 with k even contradicts m^4 = 16 (mod 32); "
    "all 16 odd residues k fail the cleared identity mod 32",
)
_SHIFTED_EVIDENCE = CongruenceEvidence(
    "shifted", 4, "4s + 3m = 2 (mod 4) for every s, never a perfect square"
)
_COMBINED_EVIDENCE = CongruenceEvidence(
    "combined", 8, "2s^4 - 2s(pqr)^2 - (pqr)^2 != 0 (mod 8) for every residue s"
)


def _congruence_route(params: FamilyParams, target: Point) -> CongruenceEvidence | None:
    """The residue obstruction for a canonical target when m is in the
    hypothesis class; None when the route does not apply.

    base (x' = 0): 2C = base forces (x^2 + m^2)^2 = 8 x (pqr)^2, so
        x = 2k^2.  Even k collides with m^4 = 16 (mod 32); odd k makes the
        cleared identity 16k^8 + m^4 + 8 k^4 m^2 - 16 k^2 (pqr)^2 nonzero
        mod 32 for every odd residue k.
    shifted (x' = m): substituting x = m + 2s gives
        (2s^2 - m^2)^2 = (pqr)^2 (4s + 3m); 4s + 3m = 2 (mod 4) is never a
        square.
    combined (x' = -m): the same substitution gives a quartic in s that
        reduces mod 8 to 2s^4 - 2s(pqr)^2 - (pqr)^2, nonzero for every
        residue s.
    """
    if not in_hypothesis_class(params.m) or target.is_infinity or target.x.denominator != 1:
        return None
    x = target.x.numerator
    if x == 0:
        return _BASE_EVIDENCE
    if x == params.m:
        return _SHIFTED_EVIDENCE
    if x == -params.m:
        return _COMBINED_EVIDENCE
    return None


def cite_congruence(params: FamilyParams, verdict: ClassVerdict) -> ClassVerdict:
    """The class verdict with the congruence route attached when it
    applies to the verdict's point.  A cited target that halving found a
    half of raises InconsistentCertificate."""
    evidence = _congruence_route(params, verdict.point)
    if evidence is None:
        return verdict
    if not verdict.nonzero:
        raise InconsistentCertificate(f"congruence and halving routes disagree on {verdict.point}")
    return verdict._replace(congruence=evidence)


# ---------------------------------------------------------------------------
# Torsion obstructions
# ---------------------------------------------------------------------------

OBSTRUCTED = "obstructed"
NOT_OBSTRUCTED = "not_obstructed"
HYPOTHESIS_NOT_MET = "hypothesis_not_met"


class ObstructionVerdict(Value):
    __slots__ = ("order", "status", "reason")

    def __init__(self, order: int, status: str, reason: str):
        init_field(self, "order", order)
        init_field(self, "status", status)  # OBSTRUCTED | NOT_OBSTRUCTED | HYPOTHESIS_NOT_MET
        init_field(self, "reason", reason)

    @property
    def obstructed(self) -> bool:
        return self.status == OBSTRUCTED


def congruence_obstruction(params: FamilyParams, n: int) -> ObstructionVerdict:
    """The residue argument that rules out a point of exact order n in
    {3, 5, 7}, cited from the hypothesis on m alone.

    order 3: needs m != 0 (mod 3).  The quartic whose integer roots carry
        3-torsion x-coordinates reduces mod 3 to the constant -m^4, which
        is nonzero for every residue of x.
    order 5: needs m = 2 (mod 4).  Both parity branches of the mod-4
        reduction of the 4P = -P coordinate identity close: even x forces
        m = 0 (mod 4); odd x forces (1 + m^2)^8 = 0 (mod 4).
    order 7: needs m = 2 (mod 8).  Even x forces m = 0 (mod 4); odd x
        reduces the 6P = -P identity to a unit times
        4(3 - m^2)^2 (1 + m^2)^6 + (1 + m^2)^8 mod 8, which is nonzero.

    Tier-1 proves the order-3 fact from psi_3.  Orders 5 and 7 are only
    cited: tier-1 checks just the closed forms above, true on the whole
    gated class, while psi_5 and psi_7 have roots mod 2^j.  No certificate
    rests on any of the three.
    """
    m = params.m
    if n == 3:
        met, unmet = m % 3 != 0, "is divisible by 3"
        reason = "3-torsion quartic is = -m^4 != 0 (mod 3) for every x"
    elif n in (5, 7):
        k = 4 if n == 5 else 8
        met, unmet = m % k == 2, f"is not 2 (mod {k})"
        reason = f"both parity branches of the mod-{k} reduction close"
    else:
        raise UnsupportedOrder(f"no congruence argument for order {n} (expected 3, 5 or 7)")
    if not met:
        return ObstructionVerdict(n, HYPOTHESIS_NOT_MET, f"m = {m} {unmet}")
    return ObstructionVerdict(n, OBSTRUCTED, reason)


def cite_obstructions(params: FamilyParams, report: TorsionReport) -> TorsionReport:
    """The torsion report with its verdicts for orders 2, 3, 5 and 7.

    Order 2 needs no hypothesis: a 2-torsion point is (x, 0) with x an
    integer root of the cubic, hence a divisor of (pqr)^2, and every such
    point is a Nagell-Lutz candidate; the reason names the least root in
    (|x|, x < 0) order.  An obstructed prime n dividing the torsion order
    raises InconsistentCertificate: by Cauchy the group has a point of
    order n.
    """
    xs = [p.x for p in report.integral_candidates if p.y == 0]
    if xs:
        x = min(xs, key=lambda x: (abs(x), x < 0))
        order2 = ObstructionVerdict(2, NOT_OBSTRUCTED, f"x = {x} is an integral 2-torsion abscissa")
    else:
        order2 = ObstructionVerdict(
            2, OBSTRUCTED, "no divisor +-x of (pqr)^2 satisfies x^3 - m^2 x + (pqr)^2 = 0"
        )
    obstructions = (order2, *(congruence_obstruction(params, n) for n in (3, 5, 7)))
    for verdict in obstructions:
        if verdict.obstructed and report.torsion_order % verdict.order == 0:
            raise InconsistentCertificate(
                f"order-{verdict.order} point found despite congruence obstruction"
            )
    return report._replace(obstructions=obstructions)
