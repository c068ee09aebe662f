import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from ecrank.arith import rational_sqrt
from ecrank.curves import INFINITY, Curve, Point, add, double, is_on_curve, negate, scalar_mul
from ecrank import descent
from ecrank.descent import (
    ClassVerdict,
    _derive_bound,
    class_is_nonzero,
    halving_preimages,
    halving_quartic,
    rank_ge2_certificate,
    rank_ge3_probe,
    search_points,
)
from ecrank.errors import InfinityTarget, PointNotOnCurve
from ecrank.family import FamilyParams, build_family_curve, canonical_points, cite_congruence
from ecrank import polys
from ecrank.records import SweepSpec, build_curve_record
from ecrank.torsion import two_torsion_points

M2_PARAMS = FamilyParams(2, 3, 7, 11)
M2_CURVE = build_family_curve(M2_PARAMS)
PTS = canonical_points(M2_PARAMS)


def _cubic(curve, x):
    """x^3 + b x + c, evaluated in whatever arithmetic x brings."""
    return x * x * x + curve.b * x + curve.c


def test_halving_quartic_family_shape():
    """For an integral target on a family curve the primitive quartic is
    monic with the expected closed-form coefficients."""
    m, d = M2_PARAMS.m, M2_PARAMS.pqr
    for target in (PTS.base, PTS.shifted, PTS.combined):
        t = int(target.x)
        q = halving_quartic(M2_CURVE, target)
        assert q == (
            m**4 - 4 * d * d * t,
            4 * m * m * t - 8 * d * d,
            2 * m * m,
            -4 * t,
            1,
        )


def test_halving_quartic_rational_target_is_primitive():
    target = double(M2_CURVE, PTS.shifted)
    q = halving_quartic(M2_CURVE, target)
    assert polys.content(list(q)) == 1
    assert q[-1] > 0


def test_halving_preimages_canonical_points_empty():
    assert halving_preimages(M2_CURVE, PTS.base) == []
    assert halving_preimages(M2_CURVE, PTS.shifted) == []
    assert halving_preimages(M2_CURVE, PTS.combined) == []


def test_halving_preimages_recovers_constructed_half():
    target = double(M2_CURVE, PTS.shifted)
    halves = halving_preimages(M2_CURVE, target)
    assert PTS.shifted in halves
    for r in halves:
        assert double(M2_CURVE, r) == target


def test_halving_infinity_and_off_curve():
    with pytest.raises(InfinityTarget):
        halving_preimages(M2_CURVE, INFINITY)
    with pytest.raises(PointNotOnCurve):
        halving_preimages(M2_CURVE, Point(1, 1))


def test_halving_with_rational_two_torsion():
    """With full rational 2-torsion, a double has four rational halves
    (the point and its three 2-torsion translates); all must be found."""
    curve = Curve(-25, 0)  # y^2 = x^3 - 25x: rank 1, torsion (Z/2)^2
    assert set(two_torsion_points(curve)) == {Point(-5, 0), Point(0, 0), Point(5, 0)}
    p = Point(-4, 6)
    target = double(curve, p)
    halves = halving_preimages(curve, target)
    assert halves == [
        Point(-4, 6),
        Point(Fraction(-5, 9), Fraction(-100, 27)),
        Point(Fraction(25, 4), Fraction(75, 8)),
        Point(45, -300),
    ]
    for r in halves:
        assert double(curve, r) == target
    # the translate structure: halves differ from p by rational 2-torsion
    for r in halves:
        diff = add(curve, r, negate(curve, p))
        assert diff.is_infinity or diff in two_torsion_points(curve)


def test_halving_round_trip_integral_target_parity():
    """Constructed case where an integral point is itself a double: every
    preimage of the integral target must have integer x with x = m (mod 2)."""
    params = FamilyParams(1890, 3, 5, 7)  # pqr = 105 divides m: 2B is integral
    curve = build_family_curve(params)
    pts = canonical_points(params)
    target = double(curve, pts.shifted)
    assert target.x.denominator == 1, "construction guarantees an integral double"
    halves = halving_preimages(curve, target)
    assert pts.shifted in halves
    for r in halves:
        assert r.x.denominator == 1
        assert (int(r.x) - params.m) % 2 == 0


def test_class_is_nonzero_canonical():
    for target in PTS:
        verdict = cite_congruence(M2_PARAMS, class_is_nonzero(M2_CURVE, target))
        assert verdict.nonzero is True
        assert verdict.preimages == ()
        assert verdict.congruence is not None  # m = 2 (mod 32): the route applies
    labels = [
        cite_congruence(M2_PARAMS, class_is_nonzero(M2_CURVE, t)).congruence.target_label
        for t in PTS
    ]
    assert labels == ["base", "shifted", "combined"]


def test_class_zero_for_constructed_double():
    twob = double(M2_CURVE, PTS.shifted)
    verdict = cite_congruence(M2_PARAMS, class_is_nonzero(M2_CURVE, twob))
    assert verdict.nonzero is False
    assert PTS.shifted in verdict.preimages
    assert class_is_nonzero(M2_CURVE, INFINITY).nonzero is False


def test_route_agreement_on_hypothesis_grid():
    """Wherever the congruence route applies its verdict must match the
    unconditional halving route (the halving route is authoritative)."""
    for m in (2, 34, 66):
        for trip in ((3, 5, 7), (5, 7, 11)):
            params = FamilyParams(m, *trip)
            curve = build_family_curve(params)
            for target in canonical_points(params):
                v = cite_congruence(params, class_is_nonzero(curve, target))
                if v.congruence is not None:
                    assert v.nonzero is True


def test_derive_bound_logic_paths():
    nz = ClassVerdict(PTS.base, True, None, None, (), None)
    zero = ClassVerdict(PTS.base, False, None, None, (PTS.base,), None)
    inconclusive = ClassVerdict(PTS.base, None, None, None, None, None)
    assert _derive_bound(True, nz, nz, nz) == 2
    # [base] = [shifted] would force [combined] = 0: bound falls back to 1
    assert _derive_bound(True, nz, nz, zero) == 1
    assert _derive_bound(True, zero, nz, nz) == 1
    assert _derive_bound(False, nz, nz, nz) == 0
    assert _derive_bound(True, nz, nz, inconclusive) == 1


def test_rank_certificate_worked_example():
    cert = rank_ge2_certificate(M2_PARAMS)
    assert cert.rank_lower_bound == 2
    assert cert.torsion_trivial and cert.classes_distinct
    assert cert.hypotheses.all_ok
    assert cert.class_base.congruence is not None


def test_rank_certificate_outside_hypotheses_still_two():
    """m = 6 fails both congruence hypotheses, so the congruence route is
    unavailable; the halving route alone still certifies rank >= 2."""
    cert = rank_ge2_certificate(FamilyParams(6, 5, 7, 11))
    assert not cert.hypotheses.all_ok
    assert cert.class_base.congruence is None
    assert cert.rank_lower_bound == 2


def test_search_points_finds_canonical_x():
    pts = search_points(M2_CURVE, 500)
    xs = {p.x for p in pts}
    assert {Fraction(-2), Fraction(0), Fraction(2)} <= xs


def _fraction_scans(curve, height_bound, den_bound):
    """The search as it was first written, kept as the oracle for the
    sieved search: every x = u/v^2 in the box in Fraction arithmetic.  Its
    scan for a bound D is the first D rounds of the scan for a larger one,
    so one pass returns the result for each D = 1..den_bound."""
    found, seen_x, results = [], set(), []
    for v in range(1, den_bound + 1):
        vv = v * v
        for u in range(-height_bound * vv, height_bound * vv + 1):
            x = Fraction(u, vv)
            if x in seen_x:
                continue
            fy = _cubic(curve, x)
            if fy < 0:
                continue
            y = rational_sqrt(fy)
            if y is None:
                continue
            seen_x.add(x)
            found.append(Point(x, y))
        results.append(sorted(found, key=lambda p: (p.x, p.y)))
    return results


def _progression_residues(points):
    """(w^2, u mod 16) for points u/4 and (w^2, u mod 9) for points u/9:
    the residues that tell the progressions u = 1 (mod 8) and u = 1 (mod 3)
    from the longer steps 16 and 9."""
    return {
        (p.x.denominator, p.x.numerator % (16 if p.x.denominator == 4 else 9))
        for p in points
        if p.x.denominator in (4, 9)
    }


def test_search_points_matches_fraction_scan():
    """Family members, small random curves, y = 0 points (Curve(-1, 0)),
    negative x and x with denominator 4 or 9 (Curve(-12, -10): -7/4, 55/9;
    Curve(-11, -6): -11/9), up to D = 6 so that every progression step
    k in {1, 3, 8, 24} is scanned."""
    rng = random.Random(2024)
    curves = [Curve(-1, 0), Curve(-12, -10), Curve(-11, -6), Curve(-12, 0)]
    curves += [
        build_family_curve(FamilyParams(m, *trip))
        for m, trip in ((2, (3, 7, 11)), (34, (3, 5, 7)), (2, (3, 5, 13)), (6, (5, 7, 11)))
    ]
    while len(curves) < 12:
        b, c = rng.randint(-30, 30), rng.randint(-30, 30)
        if 4 * b**3 + 27 * c**2 != 0:
            curves.append(Curve(b, c))
    denominators, residues = set(), set()
    for curve in curves:
        for height, den_bound in ((0, 6), (1, 6), (30, 6), (200, 4)):
            for den, expected in enumerate(_fraction_scans(curve, height, den_bound), start=1):
                found = search_points(curve, height, den)
                assert found == expected, (curve, height, den)
                denominators.update(p.x.denominator for p in found)
                residues |= _progression_residues(found)
    assert {1, 4, 9} <= denominators
    assert {(4, 9), (9, 4), (9, 7)} <= residues


def _numerator_scan(curve, height_bound, den_bound):
    """Every numerator in the box, by an exact square test in integers:
    x = u/w^2 with gcd(u, w) = 1, |u| <= height_bound w^2 and w <= den_bound
    is on the curve when F(u) = u^3 + b w^4 u + c w^6 is a square."""
    found = []
    for w in range(1, den_bound + 1):
        w2 = w * w
        for u in range(-height_bound * w2, height_bound * w2 + 1):
            f = u**3 + curve.b * w2 * w2 * u + curve.c * w2**3
            if f >= 0 and gcd(u, w) == 1 and isqrt(f) ** 2 == f:
                found.append(Point(Fraction(u, w2), Fraction(isqrt(f), w2 * w)))
    return sorted(found, key=lambda p: (p.x, p.y))


def test_search_points_start_drops_no_point():
    """search_points starts each progression at -cut, where F(u) < 0 for
    every u below; checked against every numerator in the box on random
    (b, c) of both signs, cubics with three real roots, and b = 0, c = +-t^3,
    whose point (-+t, 0) is a root of F."""
    rng = random.Random(28)
    curves = [Curve(0, t**3) for t in (1, 2, 3, 7, 8)] + [Curve(0, -27), Curve(-4, 0)]
    while len(curves) < 17:
        b, c = rng.randint(-60, 60), rng.randint(-400, 400)
        if 4 * b**3 + 27 * c**2 != 0:
            curves.append(Curve(b, c))
    while len(curves) < 27:  # three real roots: the discriminant -16(4b^3 + 27c^2) > 0
        b = -rng.randint(3, 400)
        c = rng.randint(-isqrt(-4 * b**3 // 27), isqrt(-4 * b**3 // 27))
        if 4 * b**3 + 27 * c**2 < 0:
            curves.append(Curve(b, c))
    cut_inside, points = 0, 0
    for curve in curves:
        b, c = curve.b, curve.c
        for den in (1, 2, 3, 6):
            w4, w6 = den**4, den**6
            cut = isqrt(max(-b * w4, 0)) + 1 + (1 << -(-abs(c * w6).bit_length() // 3))
            assert all(u**3 + b * w4 * u + c * w6 < 0 for u in range(-cut - 30, -cut))
            for height in (3, 40):
                cut_inside += cut < height * den * den
                expected = _numerator_scan(curve, height, den)
                assert search_points(curve, height, den) == expected, (curve, height, den)
                points += len(expected)
    assert cut_inside > 80 and points > 150
    for t in (1, 2, 3, 7, 8):
        assert Point(-t, 0) in search_points(Curve(0, t**3), 9, 1)


def test_search_points_finds_planted_large_point():
    """A point with x near 10^5, far beyond reach of the Fraction scan,
    planted by choosing c = y0^2 - x0^3 - b x0."""
    rng = random.Random(7)
    for _ in range(3):
        x0, b = rng.randint(90_000, 110_000), rng.randint(-50, 50)
        y0 = isqrt(x0**3 + b * x0) + rng.randint(1, 1000)
        curve = Curve(b, y0 * y0 - x0**3 - b * x0)
        found = search_points(curve, 200_000)
        assert Point(x0, y0) in found
        assert all(p.y >= 0 and is_on_curve(curve, p) for p in found)


_BYTE_SIEVE_MODULI = (16, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_BYTE_SIEVE_SQUARES = {n: frozenset(r * r % n for r in range(n)) for n in _BYTE_SIEVE_MODULI}


def _bytearray_search(curve, height_bound, den_bound, block=1 << 16):
    """The sieve before the bit-packed one, kept as the oracle: one
    bytearray per block, non-residues struck by slice assignment."""
    found = []
    for w in range(1, den_bound + 1):
        w2 = w * w
        bw4, cw6 = curve.b * w2 * w2, curve.c * w2 * w2 * w2
        struck = [
            (n, [r for r in range(n) if (r**3 + bw4 * r + cw6) % n not in _BYTE_SIEVE_SQUARES[n]])
            for n in _BYTE_SIEVE_MODULI
        ]
        hi = height_bound * w2
        for start in range(-hi, hi + 1, block):
            size = min(block, hi + 1 - start)
            alive = bytearray(b"\x01") * size
            for n, residues in struck:
                for r in residues:
                    off = (r - start) % n
                    if off < size:
                        alive[off::n] = bytes((size - 1 - off) // n + 1)
            i = alive.find(1)
            while i >= 0:
                u = start + i
                f = u * u * u + bw4 * u + cw6
                if f >= 0 and gcd(u, w) == 1:
                    s = isqrt(f)
                    if s * s == f:
                        found.append(Point(Fraction(u, w2), Fraction(s, w2 * w)))
                i = alive.find(1, i + 1)
    return sorted(found, key=lambda p: (p.x, p.y))


def test_search_points_matches_bytearray_sieve():
    """Heights whose numerator range spans several sieve blocks, H = 0 and
    1, D up to 6, family members and non-family curves with c < 0."""
    rng = random.Random(31)
    curves = [build_family_curve(FamilyParams(m, *trip))
              for m, trip in ((2, (3, 7, 11)), (34, (3, 5, 7)), (66, (5, 7, 13)))]
    curves += [Curve(-12, -10), Curve(-11, -6), Curve(5, -7)]
    while len(curves) < 10:
        b, c = rng.randint(-10**4, 10**4), -rng.randint(1, 10**6)
        if 4 * b**3 + 27 * c**2 != 0:
            curves.append(Curve(b, c))
    tall = descent._SIEVE_BLOCK // 4 + 1  # at w = 2 the range spans more than 2 blocks
    found, denominators, residues = 0, set(), set()
    for curve in curves:
        for height, den in ((0, 6), (1, 4), (2, 1), (777, 6), (5000, 4), (tall, 2)):
            expected = _bytearray_search(curve, height, den)
            assert search_points(curve, height, den) == expected, (curve, height, den)
            found += len(expected)
            denominators.update(p.x.denominator for p in expected)
            residues |= _progression_residues(expected)
    assert found >= 80
    assert 36 in denominators  # a point at w = 6, where the step is 24
    assert {(4, 9), (9, 7)} <= residues
    # a planted integral point in the second of three blocks at w = 1
    block = descent._SIEVE_BLOCK
    for x0 in (block // 3, block - 5):
        b = rng.randint(-50, 50)
        y0 = isqrt(x0**3 + b * x0) + rng.randint(1, 1000)
        curve = Curve(b, y0 * y0 - x0**3 - b * x0)
        expected = _bytearray_search(curve, block, 1)
        assert Point(x0, y0) in expected
        assert search_points(curve, block, 1) == expected


def test_search_progression_lemma_over_residues():
    """The lemma behind search_points' progressions, checked on every
    residue.  F(u) = u^3 + b w^4 u + c w^6 mod 16 and mod 3 depends only on
    u, b, c and w mod 16 and mod 3.  At even w only u = 1 (mod 8) can make
    F(u) an odd square, and when 3 | w only u = 1 (mod 3) can make it a
    square prime to 3."""
    squares16, squares3 = {r * r % 16 for r in range(16)}, {r * r % 3 for r in range(3)}
    for u in range(1, 16, 2):
        assert (u**3 % 16 in squares16) == (u % 8 == 1), u
    assert 2**3 % 3 not in squares3
    for w in range(0, 16, 2):
        for b in range(16):
            for c in range(16):
                for u in range(1, 16, 2):
                    f = (u**3 + b * w**4 * u + c * w**6) % 16
                    assert f == u**3 % 16
                    assert f not in squares16 or u % 8 == 1
    for b in range(3):
        for c in range(3):
            for u in (1, 2):
                f = (u**3 + b * 3**4 * u + c * 3**6) % 3
                assert f not in squares3 or u == 1


def _all_pass_moduli(curve, w, moduli=descent._SIEVE_MODULI):
    """The moduli at which every term of search_points' progression for
    denominator w has a square value: the sieve moduli it builds no tile
    for, by default."""
    k = (8 if w % 2 == 0 else 1) * (3 if w % 3 == 0 else 1)
    f = [curve.c * w**6, curve.b * w**4, 0, 1]
    return [n for n in moduli
            if all(polys.evaluate_mod(f, k * r + 1 % k, n) in {s * s % n for s in range(n)}
                   for r in range(n))]


def test_sieve_moduli_that_strike_nothing():
    """16 at even w and 3 when 3 | w strike nothing along the progression,
    and neither does 3 at any w on a family curve with m prime to 3: there
    u^3 = u (mod 3) leaves F(u) = (pqr w^3)^2 (mod 3) when 3 does not
    divide w.  No higher power strikes either: F(u) = 1 (mod 8) at even w,
    so 32 and 64 pass every term, and F(u) = 1 (mod 9) when 3 | w, so 9
    and 27 do; at w = 1, 32 and 64 strike."""
    curve = build_family_curve(FamilyParams(66, 17, 47, 53))
    assert [_all_pass_moduli(curve, w) for w in (1, 2, 3, 4, 6)] == [[], [16], [3], [16], [16, 3]]
    for m, trip in ((2, (3, 7, 11)), (34, (3, 5, 7)), (130, (5, 11, 13))):
        for w in range(1, 7):
            assert 3 in _all_pass_moduli(build_family_curve(FamilyParams(m, *trip)), w), (m, w)
    for cv in (curve, build_family_curve(FamilyParams(2, 3, 7, 11)), Curve(-7, 10)):
        for w in range(2, 13):
            powers = [32, 64] * (w % 2 == 0) + [9, 27] * (w % 3 == 0)
            assert _all_pass_moduli(cv, w, powers) == powers, (cv, w)
        assert _all_pass_moduli(cv, 1, (32, 64)) == []


def test_probe_rejects_negative_bounds():
    """A negative height or denominator bound raises ValueError in the
    probe, the record builder and the sweep spec; 0 still means no search."""
    cert = rank_ge2_certificate(M2_PARAMS)
    for height, den in ((-5, 2), (500, -1), (-1, -1)):
        with pytest.raises(ValueError):
            rank_ge3_probe(cert, height, den)
        with pytest.raises(ValueError):
            build_curve_record(M2_PARAMS, height_bound=height, den_bound=den)
        with pytest.raises(ValueError):
            build_curve_record(M2_PARAMS, probe=False, height_bound=height, den_bound=den)
        with pytest.raises(ValueError):
            SweepSpec((2,), (3, 5, 7), height_bound=height, den_bound=den)
    for height, den in ((0, 2), (500, 0), (0, 0)):
        probed = rank_ge3_probe(cert, height, den)
        assert probed.probe_points == () and probed.rank_lower_bound == 2


def test_probe_height_zero_is_noop():
    cert = rank_ge3_probe(rank_ge2_certificate(M2_PARAMS), 0)
    assert cert.probe_points == ()
    assert cert.rank_lower_bound == 2
    assert cert.probe_height == 0


def test_probe_worked_example_finds_no_third_generator():
    cert = rank_ge3_probe(rank_ge2_certificate(M2_PARAMS), 500)
    assert cert.rank_lower_bound == 2
    assert all(not p.independent for p in cert.probe_points)


def test_probe_positive_control_rank_three():
    """(m, p, q, r) = (34, 3, 5, 7) carries integral points at x = -38 and
    x = 47 whose four class checks all pass: a full rank >= 3 certificate."""
    params = FamilyParams(34, 3, 5, 7)
    curve = build_family_curve(params)
    assert 9**2 == _cubic(curve, -38)
    base = rank_ge2_certificate(params)
    cert = rank_ge3_probe(base, 50, den_bound=1)
    assert cert.rank_lower_bound == 3
    independents = [p.point for p in cert.probe_points if p.independent]
    assert Point(-38, 9) in independents and Point(47, 246) in independents
    # the probe changes only its own fields, so a field added later is kept
    assert cert._replace(rank_lower_bound=2, probe_height=None, probe_points=()) == base


def test_probe_positive_control_small_m():
    """A rank >= 3 member exists even at m = 2: {p,q,r} = {3,5,13}."""
    cert = rank_ge3_probe(rank_ge2_certificate(FamilyParams(2, 3, 5, 13)), 50, den_bound=1)
    assert cert.rank_lower_bound == 3
    independents = [p.point for p in cert.probe_points if p.independent]
    assert Point(-25, 150) in independents and Point(27, 240) in independents


def test_probe_synthetic_dependent_point_fails():
    """C = base + 2*shifted lies in the span of the canonical classes:
    [C + base] = [2 base + 2 shifted] = 0, so the four-class test must fail."""
    curve = M2_CURVE
    c = add(curve, PTS.base, scalar_mul(curve, 2, PTS.shifted))
    v_c = cite_congruence(M2_PARAMS, class_is_nonzero(curve, c))
    v_mix = cite_congruence(M2_PARAMS, class_is_nonzero(curve, add(curve, c, PTS.base)))
    assert v_c.nonzero is True  # [C] = [base] != 0
    assert v_mix.nonzero is False  # halves exist: C + base = 2(base + shifted)
    assert len(v_mix.preimages) > 0


def test_substitution_expansions_match_closed_forms():
    """Rederive the x = m + 2s substitutions behind the congruence route
    symbolically and compare with the closed forms the congruence route relies on.

    shifted target (x' = m):   (x^2+m^2)^2 - 8xD^2 - 4m f(x)
        = 4[(2s^2 - m^2)^2 - D^2 (4s + 3m)]
    combined target (x' = -m): (x^2+m^2)^2 - 8xD^2 + 4m f(x)
        = 4[4s^4 + 16ms^3 + 20m^2 s^2 + 8m^3 s - 4D^2 s + m^4 - mD^2]
    """
    for m, trip in ((2, (3, 7, 11)), (34, (3, 5, 7)), (66, (5, 7, 13))):
        params = FamilyParams(m, *trip)
        d = params.pqr
        x = [m, 2]  # x = m + 2s as a polynomial in s
        x2 = polys.mul(x, x)
        x3 = polys.mul(x2, x)
        f = polys.add(polys.add(x3, polys.scale(x, -m * m)), [d * d])
        lhs_core = polys.add(
            polys.mul(polys.add(x2, [m * m]), polys.add(x2, [m * m])),
            polys.scale(x, -8 * d * d),
        )
        shifted_lhs = polys.normalize(polys.add(lhs_core, polys.scale(f, -4 * m)))
        shifted_rhs = polys.scale(
            [m**4 - 3 * m * d * d, -4 * d * d, -4 * m * m, 0, 4], 4
        )
        assert shifted_lhs == polys.normalize(shifted_rhs)
        combined_lhs = polys.normalize(polys.add(lhs_core, polys.scale(f, 4 * m)))
        combined_rhs = polys.scale(
            [m**4 - m * d * d, 8 * m**3 - 4 * d * d, 20 * m * m, 16 * m, 4], 4
        )
        assert combined_lhs == polys.normalize(combined_rhs)


def test_halving_round_trip_fuzz():
    rng = random.Random(99)
    pool_primes = [3, 5, 7, 11, 13, 17, 19, 23]
    checked = 0
    while checked < 40:
        m = rng.choice([2, 34, 66, 98, 130, 162, 194])
        trip = tuple(sorted(rng.sample(pool_primes, 3)))
        params = FamilyParams(m, *trip)
        curve = build_family_curve(params)
        pts = canonical_points(params)
        coeffs = (rng.randint(-1, 1), rng.randint(-1, 1))
        p = add(
            curve,
            scalar_mul(curve, coeffs[0], pts.base),
            scalar_mul(curve, coeffs[1], pts.shifted),
        )
        if p.is_infinity or p.y == 0:
            continue
        target = double(curve, p)
        halves = halving_preimages(curve, target)
        assert p in halves
        for r in halves:
            assert double(curve, r) == target
        checked += 1


def _unsieved_halve(curve, target):
    """descent._halve without its sieve: root extraction on every quartic,
    each root lifted to the points over it that double to the target."""
    quartic = halving_quartic(curve, target)
    roots = tuple(polys.rational_roots(list(quartic)))
    halves = set()
    for x in roots:
        y = rational_sqrt(_cubic(curve, x))
        if y is not None:
            halves |= {r for r in (Point(x, y), Point(x, -y)) if double(curve, r) == target}
    return quartic, roots, sorted(halves, key=lambda p: (p.x, p.y))


def _halving_targets(curve, points):
    """Each point, each pairwise sum and the double of each: targets with
    halves, and targets whose x-denominators carry small primes."""
    sums = [add(curve, p, q) for i, p in enumerate(points) for q in points[i:]]
    return [t for t in (*points, *sums, *(double(curve, s) for s in sums)) if not t.is_infinity]


def test_halving_sieve_matches_unsieved_route():
    """_halve decides most quartics mod small primes before root
    extraction; it must return what root extraction alone returns."""
    rng = random.Random(9)
    curves = []
    for _ in range(8):  # family curves, with 3 | m and 5 | m among them
        m = rng.choice([rng.randrange(1, 400), 3 * rng.randrange(1, 60), 15 * rng.randrange(1, 20)])
        params = FamilyParams(m, *sorted(rng.sample([3, 5, 7, 11, 13, 17, 19], 3)))
        curves.append((build_family_curve(params), list(canonical_points(params))))
    # x(2 base) = m^4 / (2pqr)^2 is divisible by 3 or 5, where these curves are singular
    for m, trip in ((6, (3, 5, 7)), (30, (3, 5, 11)), (15, (5, 7, 13))):
        params = FamilyParams(m, *trip)
        curves.append((build_family_curve(params), list(canonical_points(params))))
    while len(curves) < 24:  # rational 2-torsion at x = e, off the family
        e, b = rng.randrange(-12, 13), rng.randrange(-40, 41)
        c = -e * e * e - b * e
        if 4 * b**3 + 27 * c * c == 0:
            continue
        curve = Curve(b, c)
        curves.append((curve, [Point(e, 0), *search_points(curve, 30)[:3]]))
    seen = {"halves": 0, "bad 3 or 5 with halves": 0, "3 | td": 0, "5 | td": 0, "7 | td": 0}
    for curve, points in curves:
        bad = {q for q in (3, 5) if (4 * curve.b**3 + 27 * curve.c**2) % q == 0}
        for target in _halving_targets(curve, points):
            sieved = descent._halve(curve, target)
            assert sieved == _unsieved_halve(curve, target), (curve, target)
            seen["halves"] += bool(sieved[2])
            seen["bad 3 or 5 with halves"] += bool(sieved[2] and bad)
            for q in (3, 5, 7):
                seen[f"{q} | td"] += target.x.denominator % q == 0
    assert min(seen.values()) > 0, seen
