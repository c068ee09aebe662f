"""Membership in 2E(Q) and rank-lower-bound certificates.

The workhorse is exact point halving.  For a target T = (t, *) the
x-coordinates of every R with 2R = T are the roots of a quartic with
integer coefficients, so rational root extraction plus an exact square
test decides T in 2E(Q) unconditionally.  A sieve comes first: modulo a
small prime q of good reduction not dividing the denominator of x(T),
x(T) must be x(2R) for a point R over F_q or over its quadratic twist.
A residue outside that per-curve set at one such q proves the quartic
has no rational root, so most targets never reach root extraction.
With trivial torsion, E(Q)/2E(Q)
is an elementary abelian 2-group of order 2^rank; exhibiting enough
independent nonzero classes therefore bounds the rank from below.

For the family curves there is a second, congruence-based route for the
three canonical targets (x' = 0, m, -m) under m = 2 (mod 32); it is
replayed and recorded as corroborating evidence whenever it applies, but
every certificate rests on the halving route, which needs no hypotheses.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import polys
from .arith import exact_sqrt, rational_sqrt
from .curves import INFINITY, Curve, Point, _add_raw, add, is_on_curve
from .errors import InconsistentCertificate, InfinityTarget, PointNotOnCurve
from .family import (
    CanonicalPoints,
    FamilyParams,
    HypothesisReport,
    build_family_curve,
    canonical_points,
    validate_hypotheses,
)
from .torsion import TorsionReport, nagell_lutz_torsion


def halving_quartic(curve: Curve, target: Point) -> tuple[int, int, int, int, int]:
    """Primitive integer quartic in x, in ascending degree, whose roots are
    exactly the x(R) for 2R = target.

    Setting x(2R) = t in the duplication formula and clearing denominators
    gives, for t = tn/td in lowest terms,

        td x^4 - 4 tn x^3 - 2 b td x^2 - (8 c td + 4 b tn) x + (b^2 td - 4 c tn)

    which is then divided by its content.  For an integral target on a
    family curve the raw form is already primitive (leading coefficient 1).
    """
    if target.is_infinity:
        raise InfinityTarget("halves of O are the rational 2-torsion points")
    if not is_on_curve(curve, target):
        raise PointNotOnCurve(f"{target} is not on the curve")
    tn, td = target.x.numerator, target.x.denominator
    b, c = curve.b, curve.c
    raw = [
        b * b * td - 4 * c * tn,
        -(8 * c * td + 4 * b * tn),
        -2 * b * td,
        -4 * tn,
        td,
    ]
    return tuple(polys.primitive_part(raw))  # type: ignore[return-value]


# Odd primes for the halving sieve in _halve, each with the inverses of
# 4a mod q for a = 1, ..., q - 1 (entry 0 unused).
_HALVING_SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
_QUARTER_INVERSES = {
    q: (0, *(pow(4 * a, -1, q) for a in range(1, q))) for q in _HALVING_SIEVE_PRIMES
}


@lru_cache(maxsize=1)
def _doubled_x_residues(b: int, c: int) -> tuple[tuple[int, bytes], ...]:
    """(q, table) for each q in _HALVING_SIEVE_PRIMES not dividing the
    discriminant: table[t] is 1 when t = N(x) / (4 f(x)) mod q for some
    residue x with f(x) != 0, where f = x^3 + bx + c and
    N = (x^2 - b)^2 - 8cx, so that x(2R) = N(x) / (4 f(x)) at x(R) = x.

    One curve's tables serve all its halvings, so the last curve's are kept.
    """
    tables = []
    for q in _HALVING_SIEVE_PRIMES:
        bq, cq = b % q, c % q
        if (4 * bq**3 + 27 * cq * cq) % q == 0:
            continue
        inverses = _QUARTER_INVERSES[q]
        table = bytearray(q)
        for x in range(q):
            fx = (x * x * x + bq * x + cq) % q
            if fx:
                table[((x * x - bq) ** 2 - 8 * cq * x) * inverses[fx] % q] = 1
        tables.append((q, bytes(table)))
    return tuple(tables)


def _halve(curve: Curve, target: Point):
    """(quartic, its rational roots, the halves of target).

    Every half of the target (including translates of one half by rational
    2-torsion) has its x-coordinate among the quartic's roots, so rational
    root extraction is complete; each root is lifted to y by an exact
    square test and kept only when double(R) reproduces the target
    exactly.

    A sieve mod small primes runs first.  The quartic is td N(x) - 4 tn f(x)
    for t = tn/td, with N and f as in _doubled_x_residues.  Take a prime q
    that divides neither td nor the discriminant.  A rational root has a
    denominator dividing td, so it reduces to a residue x mod q.  There
    f(x) != 0, since f(x) = 0 would force N(x) = f'(x)^2 = 0 and a double
    root of f mod q.  So t = N(x) / (4 f(x)) mod q, and a t outside that
    set at one such q leaves the quartic with no rational root.
    """
    quartic = halving_quartic(curve, target)
    tn, td = target.x.numerator, target.x.denominator
    for q, table in _doubled_x_residues(curve.b, curve.c):
        if td % q and not table[tn * pow(td, -1, q) % q]:
            return quartic, (), []
    roots = tuple(polys.rational_roots(list(quartic)))
    halves: list[Point] = []
    for x in roots:
        u, v = x.numerator, x.denominator
        v3 = v * v * v
        y = rational_sqrt(Fraction(u * u * u + curve.b * u * v * v + curve.c * v3, v3))
        if y is None:
            continue
        for cand in (Point(x, y), Point(x, -y)):
            if _add_raw(curve, cand, cand) == target and cand not in halves:
                halves.append(cand)
    return quartic, roots, sorted(halves, key=lambda p: (p.x, p.y))


def halving_preimages(curve: Curve, target: Point) -> list[Point]:
    """All rational R with 2R = target, in deterministic order.  Empty
    result means target is not in 2E(Q)."""
    return _halve(curve, target)[2]


# ---------------------------------------------------------------------------
# Congruence route for the canonical family targets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CongruenceEvidence:
    """Record of a residue argument ruling the target out of 2E(Q)."""

    target_label: str  # "base" | "shifted" | "combined"
    modulus: int
    detail: str


def _congruence_route(params: FamilyParams, target: Point) -> CongruenceEvidence | None:
    """Replay the residue obstruction when the target is canonical and
    m = 2 (mod 32); None when the route does not apply.

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
    # Every test below is a congruence mod a divisor of 32, so m and pqr
    # enter reduced mod 32 (and m^4 = 16 (mod 32) holds once m = 2).
    m = params.m % 32
    if m != 2 or target.is_infinity or target.x.denominator != 1:
        return None
    x = target.x.numerator
    if x not in (0, params.m, -params.m):
        return None
    d = params.pqr % 32
    if x == 0:
        bad = [
            k
            for k in range(1, 32, 2)
            if (16 * k**8 + m**4 + 8 * k**4 * m * m - 16 * k * k * d * d) % 32 == 0
        ]
        if bad:
            return None
        return CongruenceEvidence(
            "base",
            32,
            "x = 2k^2 with k even contradicts m^4 = 16 (mod 32); "
            "all 16 odd residues k fail the cleared identity mod 32",
        )
    if x == params.m:
        if all((4 * s + 3 * m) % 4 in (2, 3) for s in range(4)):
            return CongruenceEvidence(
                "shifted",
                4,
                "4s + 3m = 2 (mod 4) for every s, never a perfect square",
            )
        return None
    if all((2 * s**4 - 2 * s * d * d - d * d) % 8 != 0 for s in range(8)):  # x == -m
        return CongruenceEvidence(
            "combined",
            8,
            "2s^4 - 2s(pqr)^2 - (pqr)^2 != 0 (mod 8) for every residue s",
        )
    return None


# ---------------------------------------------------------------------------
# Class verdicts and certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassVerdict:
    """Evidence that a point's class in E(Q)/2E(Q) is (non)zero.

    The quartic fields are None only for the point at infinity, whose
    class is zero without any halving.
    """

    point: Point
    nonzero: bool
    quartic: tuple[int, ...] | None
    quartic_roots: tuple[Fraction, ...] | None
    preimages: tuple[Point, ...] | None
    congruence: CongruenceEvidence | None


def class_is_nonzero(
    curve: Curve, point: Point, params: FamilyParams | None = None
) -> ClassVerdict:
    """Decide [point] != 0 in E(Q)/2E(Q) by exhaustive halving, with the
    congruence replay recorded too whenever it applies."""
    if point.is_infinity:
        return ClassVerdict(point, False, None, None, (INFINITY,), None)
    quartic, roots, halves = _halve(curve, point)
    congruence = _congruence_route(params, point) if params is not None else None
    nonzero = not halves
    if congruence is not None and not nonzero:
        raise InconsistentCertificate(f"congruence and halving routes disagree on {point}")
    return ClassVerdict(point, nonzero, quartic, roots, tuple(halves), congruence)


@dataclass(frozen=True)
class ProbePoint:
    """A candidate third generator C with the four class checks that certify
    independence from the canonical pair: the classes of C, C + base,
    C + shifted and C + combined, in that order."""

    point: Point
    classes: tuple[ClassVerdict, ClassVerdict, ClassVerdict, ClassVerdict]

    @property
    def independent(self) -> bool:
        return all(v.nonzero for v in self.classes)


@dataclass(frozen=True)
class RankCertificate:
    """Self-contained, re-checkable evidence for a Mordell-Weil rank bound;
    it carries the curve and the hypothesis report, so a record is packed
    from it alone.

    rank_lower_bound = 2 requires trivial torsion plus all three canonical
    classes nonzero; with trivial torsion alone the shifted point already
    has infinite order, giving bound 1.  A successful probe point raises
    the bound to 3.
    """

    params: FamilyParams
    curve: Curve
    hypotheses: HypothesisReport
    torsion: TorsionReport
    points: CanonicalPoints
    class_base: ClassVerdict
    class_shifted: ClassVerdict
    class_combined: ClassVerdict
    rank_lower_bound: int
    probe_height: int | None = None
    probe_points: tuple[ProbePoint, ...] = ()

    @property
    def torsion_trivial(self) -> bool:
        return self.torsion.is_trivial

    @property
    def classes_distinct(self) -> bool:
        """The canonical classes span a subgroup of order 4."""
        return self.rank_lower_bound >= 2


def _derive_bound(
    torsion_trivial: bool,
    base: ClassVerdict,
    shifted: ClassVerdict,
    combined: ClassVerdict,
) -> int:
    """Rank bound from the torsion verdict and the three class verdicts.

    Distinctness follows from nonzeroness of the pairwise sums: with
    [base] != 0, [shifted] != 0 and [base + shifted] != 0, the four classes
    {0, [base], [shifted], [base+shifted]} form a subgroup of order 4.
    """
    if not torsion_trivial:
        return 0
    if all(v.nonzero for v in (base, shifted, combined)):
        return 2
    # the shifted point is rational and not O; trivial torsion forces
    # infinite order, hence rank >= 1
    return 1


def rank_ge2_certificate(params: FamilyParams, num_primes: int = 5) -> RankCertificate:
    """Run the full torsion + three-class pipeline for one parameter set."""
    curve = build_family_curve(params)
    torsion = nagell_lutz_torsion(curve, params, num_primes)
    pts = canonical_points(params)
    base = class_is_nonzero(curve, pts.base, params)
    shifted = class_is_nonzero(curve, pts.shifted, params)
    combined = class_is_nonzero(curve, pts.combined, params)
    return RankCertificate(
        params=params,
        curve=curve,
        hypotheses=validate_hypotheses(params),
        torsion=torsion,
        points=pts,
        class_base=base,
        class_shifted=shifted,
        class_combined=combined,
        rank_lower_bound=_derive_bound(torsion.is_trivial, base, shifted, combined),
    )


# Sieve moduli for search_points: 16 and the odd primes up to 47.  A perfect
# square is a square modulo each of them, so a numerator whose value is a
# non-residue modulo any one of them cannot give a point.
_SIEVE_MODULI = (16, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _square_digits(n: int) -> bytes:
    """bytes.translate table mapping a residue v to b"1" when v is a square
    mod n and to b"0" otherwise, so a value table becomes binary digits."""
    squares = {r * r % n for r in range(n)}
    return bytes(b"01"[v in squares] for v in range(256))


_SQUARE_DIGITS = {n: _square_digits(n) for n in _SIEVE_MODULI}
_SIEVE_BLOCK = 1 << 18  # numerators per sieve block: a 32 KB integer at any height bound


def search_points(curve: Curve, height_bound: int, den_bound: int = 2) -> list[Point]:
    """Rational points with x = u/w^2, |u| <= height_bound * w^2, w <= den_bound.

    Exhaustive exact-square search; w = 1 is the integral sweep.  Points
    are returned with nonnegative y (the negative is redundant for class
    arithmetic since [P] = [-P]), sorted by x.

    The x-coordinate of a rational point has a square denominator, so every
    x in the box is u/w^2 in lowest terms for exactly one w <= den_bound and
    one u with |u| <= height_bound * w^2 and gcd(u, w) = 1; scanning those
    pairs visits each x once.  Clearing denominators, rhs(u/w^2) =
    F(u)/w^6 with F(u) = u^3 + b w^4 u + c w^6, and F(u) = u^3 (mod w) is
    prime to w, so rhs(x) is a rational square exactly when F(u) is a
    perfect square, and then y = sqrt(F(u))/w^3.

    Before any square root, a ratpoints-style sieve (M. Stoll) strikes out
    every u whose F(u) is a non-residue modulo 16 or a small odd prime.
    For each modulus n, the residues that pass form an n-bit mask, tiled by
    doubling once per w.  A block of numerators from `start` is one integer
    whose bit i stands for u = start + i; it is ANDed with each tile
    shifted right by start mod n, and the set bits left are walked in its
    binary digits.  The sieve only filters: each survivor is confirmed by
    exact_sqrt, so the result does not depend on the moduli.
    """
    found: list[Point] = []
    for w in range(1, den_bound + 1):
        w2 = w * w
        bw4, cw6 = curve.b * w2 * w2, curve.c * w2 * w2 * w2
        hi = height_bound * w2
        width = min(_SIEVE_BLOCK, 2 * hi + 1)
        tiles = []
        for n, values in zip(_SIEVE_MODULI, polys.cubic_value_tables(bw4, cw6, _SIEVE_MODULI)):
            # digit r of the reversed string is 1 when F(r) is a square mod n
            tile = int(bytes(values).translate(_SQUARE_DIGITS[n])[::-1], 2)
            span = n
            while span < width + n:  # bit i is residue i mod n, for i < width + n
                tile |= tile << span
                span *= 2
            tiles.append((n, tile))
        for start in range(-hi, hi + 1, _SIEVE_BLOCK):
            alive = (1 << min(_SIEVE_BLOCK, hi + 1 - start)) - 1
            for n, tile in tiles:
                alive &= tile >> (start % n)
            digits = f"{alive:b}"  # digit j stands for u = top - j
            top = start + len(digits) - 1
            j = digits.find("1")
            while j >= 0:
                u = top - j
                f = u * u * u + bw4 * u + cw6
                if gcd(u, w) == 1:
                    s = exact_sqrt(f)
                    if s is not None:
                        found.append(Point(Fraction(u, w2), Fraction(s, w2 * w)))
                j = digits.find("1", j + 1)
    return sorted(found, key=lambda p: (p.x, p.y))


def _check_probe_bounds(height_bound: int, den_bound: int) -> None:
    """Raise ValueError unless both probe bounds are nonnegative."""
    if height_bound < 0 or den_bound < 0:
        raise ValueError(
            f"probe bounds must be nonnegative, got height {height_bound}, denominator {den_bound}"
        )


def rank_ge3_probe(cert: RankCertificate, height_bound: int, den_bound: int = 2) -> RankCertificate:
    """Extend a rank certificate by a search for a third independent
    generator below a height bound.

    For each discovered point C outside the span-obvious set, independence
    of {[base], [shifted], [C]} is certified by all four classes [C],
    [C + base], [C + shifted], [C + base + shifted] being nonzero; together
    with the order-4 subgroup from the rank-2 certificate that exhibits a
    subgroup of order 8 in E(Q)/2E(Q), hence rank >= 3.

    Raises ValueError for a negative height or denominator bound; a bound
    of 0 means no search.
    """
    _check_probe_bounds(height_bound, den_bound)
    params, pts, curve = cert.params, cert.points, cert.curve
    known_x = {pts.base.x, pts.shifted.x, pts.combined.x}
    probes: list[ProbePoint] = []
    if height_bound >= 1:
        for cand in search_points(curve, height_bound, den_bound):
            if cand.x in known_x or cand.y == 0:
                continue
            # C, C + base, C + shifted, C + combined: the order of ProbePoint.classes
            combos = (cand, *(add(curve, cand, pt) for pt in pts))
            classes = tuple(class_is_nonzero(curve, pt, params) for pt in combos)
            probes.append(ProbePoint(cand, classes))
    bound = cert.rank_lower_bound
    if bound >= 2 and any(p.independent for p in probes):
        bound = 3
    return replace(
        cert, rank_lower_bound=bound, probe_height=height_bound, probe_points=tuple(probes)
    )
