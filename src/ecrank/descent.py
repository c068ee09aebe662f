"""Membership in 2E(Q) and rank-lower-bound certificates.

The workhorse is exact point halving.  For a target T = (t, *) the
x-coordinates of every R with 2R = T are the roots of a quartic with
integer coefficients, so rational root extraction plus an exact square
test decides T in 2E(Q) unconditionally.  A sieve comes first: modulo a
small prime q of good reduction not dividing the denominator of x(T),
x(T) must be x(2R) for a point R over F_q or over its quadratic twist.
A residue outside that set, which depends only on b and c mod q, at one
such q proves the quartic has no rational root, so most targets never
reach root extraction.  With trivial torsion, E(Q)/2E(Q) is an
elementary abelian 2-group of order 2^rank; exhibiting enough
independent nonzero classes therefore bounds the rank from below.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from . import polys
from .arith import Memo, exact_sqrt, rational_sqrt
from .curves import INFINITY, Curve, Point, Value, _add_raw, add, init_field, is_on_curve
from .errors import InfinityTarget, PointNotOnCurve
from .family import (
    CanonicalPoints,
    CongruenceEvidence,
    FamilyParams,
    HypothesisReport,
    build_family_curve,
    canonical_points,
    cite_congruence,
    cite_obstructions,
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


# Odd primes for the halving sieve in _halve.
_HALVING_SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


def _doubled_x_table(q: int, bq: int, cq: int) -> bytes | None:
    """The halving sieve's table mod q for b = bq and c = cq (mod q): None
    when q divides 4b^3 + 27c^2; otherwise table[t] is 1 when
    t = N(x) / (4 f(x)) mod q for some residue x with f(x) != 0, where
    f = x^3 + bx + c and N = (x^2 - b)^2 - 8cx, so that
    x(2R) = N(x) / (4 f(x)) at x(R) = x."""
    if (4 * bq**3 + 27 * cq * cq) % q == 0:
        return None
    table = bytearray(q)
    for x in range(q):
        fx = (x * x * x + bq * x + cq) % q
        if fx:
            table[((x * x - bq) ** 2 - 8 * cq * x) * pow(4 * fx, -1, q) % q] = 1
    return bytes(table)


# _doubled_x_table(q, b mod q, c mod q) by its key, built when a halving first
# reaches q: at most 1,552 tables, the sum of q^2 over the sieve's primes.
_DOUBLED_X_TABLES = Memo(_doubled_x_table)


def _halve(curve: Curve, target: Point):
    """(quartic, its rational roots, the halves of target).

    Every half of the target (including translates of one half by rational
    2-torsion) has its x-coordinate among the quartic's roots, so rational
    root extraction is complete; each root is lifted to y by an exact
    square test and kept only when double(R) reproduces the target
    exactly.

    A sieve mod small primes runs first.  The quartic is td N(x) - 4 tn f(x)
    for t = tn/td, with N and f as in _doubled_x_table.  Take a prime q
    that divides neither td nor the discriminant.  A rational root has a
    denominator dividing td, so it reduces to a residue x mod q.  There
    f(x) != 0, since f(x) = 0 would force N(x) = f'(x)^2 = 0 and a double
    root of f mod q.  So t = N(x) / (4 f(x)) mod q, and a t outside that
    set at one such q leaves the quartic with no rational root.  The
    table is _DOUBLED_X_TABLES[q, b mod q, c mod q], kept by that residue
    key, so each is built once per process, when a halving first reaches
    q, and shared by every curve with those residues; most targets are
    settled by the first two or three primes.
    """
    quartic = halving_quartic(curve, target)
    tn, td = target.x.numerator, target.x.denominator
    b, c = curve.b, curve.c
    for q in _HALVING_SIEVE_PRIMES:
        if td % q:
            table = _DOUBLED_X_TABLES[q, b % q, c % q]
            if table is not None and not table[tn * pow(td, -1, q) % q]:
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
# Class verdicts and certificates
# ---------------------------------------------------------------------------


class ClassVerdict(Value):
    """Evidence that a point's class in E(Q)/2E(Q) is (non)zero.

    The quartic fields are None only for the point at infinity, whose
    class is zero without any halving.
    """

    __slots__ = ("point", "nonzero", "quartic", "quartic_roots", "preimages", "congruence")

    def __init__(
        self,
        point: Point,
        nonzero: bool,
        quartic: tuple[int, ...] | None,
        quartic_roots: tuple[Fraction, ...] | None,
        preimages: tuple[Point, ...] | None,
        congruence: CongruenceEvidence | None = None,
    ):
        init_field(self, "point", point)
        init_field(self, "nonzero", nonzero)
        init_field(self, "quartic", quartic)
        init_field(self, "quartic_roots", quartic_roots)
        init_field(self, "preimages", preimages)
        init_field(self, "congruence", congruence)  # from family.cite_congruence


def class_is_nonzero(curve: Curve, point: Point) -> ClassVerdict:
    """Decide [point] != 0 in E(Q)/2E(Q) by exhaustive halving."""
    if point.is_infinity:
        return ClassVerdict(point, False, None, None, (INFINITY,))
    quartic, roots, halves = _halve(curve, point)
    return ClassVerdict(point, not halves, quartic, roots, tuple(halves))


class ProbePoint(Value):
    """A candidate third generator C with the four class checks that certify
    independence from the canonical pair: the classes of C, C + base,
    C + shifted and C + combined, in that order."""

    __slots__ = ("point", "classes")

    def __init__(
        self, point: Point, classes: tuple[ClassVerdict, ClassVerdict, ClassVerdict, ClassVerdict]
    ):
        init_field(self, "point", point)
        init_field(self, "classes", classes)

    @property
    def independent(self) -> bool:
        return all(v.nonzero for v in self.classes)


class RankCertificate(Value):
    """Self-contained, re-checkable evidence for a Mordell-Weil rank bound;
    it carries the curve and the hypothesis report, so a record is packed
    from it alone.

    rank_lower_bound = 2 requires trivial torsion plus all three canonical
    classes nonzero; with trivial torsion alone the shifted point already
    has infinite order, giving bound 1.  A successful probe point raises
    the bound to 3.
    """

    __slots__ = (
        "params",
        "curve",
        "hypotheses",
        "torsion",
        "points",
        "class_base",
        "class_shifted",
        "class_combined",
        "rank_lower_bound",
        "probe_height",
        "probe_points",
    )

    def __init__(
        self,
        params: FamilyParams,
        curve: Curve,
        hypotheses: HypothesisReport,
        torsion: TorsionReport,
        points: CanonicalPoints,
        class_base: ClassVerdict,
        class_shifted: ClassVerdict,
        class_combined: ClassVerdict,
        rank_lower_bound: int,
        probe_height: int | None = None,
        probe_points: tuple[ProbePoint, ...] = (),
    ):
        init_field(self, "params", params)
        init_field(self, "curve", curve)
        init_field(self, "hypotheses", hypotheses)
        init_field(self, "torsion", torsion)
        init_field(self, "points", points)
        init_field(self, "class_base", class_base)
        init_field(self, "class_shifted", class_shifted)
        init_field(self, "class_combined", class_combined)
        init_field(self, "rank_lower_bound", rank_lower_bound)
        init_field(self, "probe_height", probe_height)
        init_field(self, "probe_points", probe_points)

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
    torsion = cite_obstructions(params, nagell_lutz_torsion(curve, num_primes))
    pts = canonical_points(params)
    base, shifted, combined = (cite_congruence(params, class_is_nonzero(curve, pt)) for pt in pts)
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
_SIEVE_BLOCK = 1 << 18  # progression terms per sieve block: a 32 KB integer at any height bound


def _square_pattern(n: int, k: int, a: int, bn: int, cn: int) -> bytes | None:
    """Eight periods of the n-bit mask whose bit r is set when F(k r + a)
    is a square mod n, for F = x^3 + bn x + cn, as n little-endian bytes
    (bit i of the block is residue i mod n), or None when every bit is
    set: that modulus strikes nothing along the progression."""
    values = bytes([(x * x * x + bn * x + cn) % n for x in range(a, a + k * n, k)])
    squares = values.translate(_SQUARE_DIGITS[n])
    if b"0" not in squares:
        return None
    return int((squares * 8)[::-1], 2).to_bytes(n, "little")  # digit i reversed is bit i


# One pattern per (n, k, a, b w^4 mod n, c w^6 mod n): at most 42,872,
# four progressions times the sum of n^2.
_SQUARE_PATTERNS = Memo(_square_pattern)


def search_points(curve: Curve, height_bound: int, den_bound: int = 2) -> list[Point]:
    """Rational points with x = u/w^2, |u| <= height_bound * w^2, w <= den_bound.

    Exhaustive exact-square search; w = 1 is the integral sweep.  Points
    are returned with nonnegative y (the negative is redundant for class
    arithmetic since [P] = [-P]), sorted by x.

    The x-coordinate of a rational point has a square denominator, so every
    x in the box is u/w^2 in lowest terms for exactly one w <= den_bound and
    one u with |u| <= height_bound * w^2 and gcd(u, w) = 1; scanning those
    pairs visits each x once.  Clearing denominators, rhs(u/w^2) =
    F(u)/w^6 with F(u) = u^3 + w^4 (bu + c w^2), and F(u) = u^3 (mod w) is
    prime to w, so rhs(x) is a rational square exactly when F(u) is a
    perfect square, and then y = sqrt(F(u))/w^3.

    Only the progression u = k v + a can carry a point, where k is 8 when
    2 | w, times 3 when 3 | w, and a = 1 mod k (k = 1 scans every u).  The
    proof: u is prime to w and F(u) = u^3 (mod w^4).  When 2 | w, 16 | w^4,
    so F(u) = s^2 is odd, s^2 = 1 (mod 8) and u^3 = 1 (mod 8); cubing fixes
    every odd residue mod 8, so u = 1 (mod 8).  When 3 | w, s^2 = u^3 = u
    != 0 (mod 3), so u = 1 (mod 3).  No y = 0 point is lost: F(u) = 0 would
    make u^3 a multiple of w^4, so every prime of w would divide u.

    The progression starts where F(u) can first be a square.  With
    B = b w^4, C = c w^6, beta = max(-B, 0) and gamma = |C|^(1/3), any
    t > sqrt(beta) + gamma has t^2 - beta > gamma^2 and t > gamma, so
    t^3 + B t >= t (t^2 - beta) > |C| and F(-t) = -(t^3 + B t) + C < 0.
    cut = isqrt(beta) + 1 + 2^ceil(L / 3), for L the bit length of |C|,
    exceeds sqrt(beta) + gamma, since |C| < 2^L, so no point has u < -cut
    and the progression starts at its first term from -min(hi, cut): an
    integer bound, with no float and no search for F's real root.

    Before any square root, a ratpoints-style sieve (M. Stoll) strikes out
    every v whose F(k v + a) is a non-residue modulo 16 or a small odd
    prime.  For each modulus n, the residues of v that pass form an n-bit
    mask, _SQUARE_PATTERNS[n, k, a, b w^4 mod n, c w^6 mod n], kept by
    that residue key as n bytes that hold eight periods of the mask (an
    arith.Memo).  Once per w each is tiled in one step, by reading enough
    copies of those bytes as one integer, and a modulus where every
    residue passes, such as 16 at even w, gets no tile.  No higher power
    of 2 or 3 would strike along these progressions: at even w, u = 1
    (mod 8) and 16 | w^4 give F(u) = 1 (mod 8), and when 3 | w, u = 1
    (mod 3) and 81 | w^4 give F(u) = 1 (mod 9); a number = 1 (mod 8) is a
    square modulo every power of 2, and one = 1 (mod 3) modulo every power
    of 3.  A
    block of the progression from `start` is one integer whose bit i
    stands for v = start + i; it is ANDed with each tile shifted right by
    start mod n, and the set bits left are walked in its binary digits.
    The sieve only filters: each survivor is confirmed by exact_sqrt, so
    the result does not depend on the moduli.
    """
    found: list[Point] = []
    for w in range(1, den_bound + 1):
        w2 = w * w
        bw4, cw6 = curve.b * w2 * w2, curve.c * w2 * w2 * w2
        hi = height_bound * w2
        k = (8 if w % 2 == 0 else 1) * (3 if w % 3 == 0 else 1)
        a = 1 % k
        # F(u) < 0 for every u below -cut, so the progression starts at -cut
        cut = isqrt(max(-bw4, 0)) + 1 + (1 << -(-cw6.bit_length() // 3))
        lo, last = -((min(hi, cut) + a) // k), (hi - a) // k  # -min(hi, cut) <= k v + a <= hi
        width = min(_SIEVE_BLOCK, last - lo + 1)
        tiles = []
        for n in _SIEVE_MODULI:
            block = _SQUARE_PATTERNS[n, k, a, bw4 % n, cw6 % n]
            if block is None:
                continue  # every residue passes: the tile would strike nothing
            # a block is 8n bits, so these copies set bit i to residue i mod n for i < width + n
            tiles.append((n, int.from_bytes(block * (width // (8 * n) + 2), "little")))
        for start in range(lo, last + 1, _SIEVE_BLOCK):
            alive = (1 << min(_SIEVE_BLOCK, last + 1 - start)) - 1
            for n, tile in tiles:
                alive &= tile >> (start % n)
            digits = f"{alive:b}"  # digit j stands for v = top - j
            top = start + len(digits) - 1
            j = digits.find("1")
            while j >= 0:
                u = k * (top - j) + a
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
            classes = tuple(cite_congruence(params, class_is_nonzero(curve, pt)) for pt in combos)
            probes.append(ProbePoint(cand, classes))
    bound = cert.rank_lower_bound
    if bound >= 2 and any(p.independent for p in probes):
        bound = 3
    return cert._replace(
        rank_lower_bound=bound, probe_height=height_bound, probe_points=tuple(probes)
    )
