import random
from fractions import Fraction

import pytest

from ecrank.curves import (
    INFINITY,
    Curve,
    Point,
    add,
    discriminant,
    double,
    double_via_duplication,
    is_on_curve,
    negate,
    scalar_mul,
)
from ecrank.errors import PointNotOnCurve, SingularCurve

M2_CURVE = Curve(-4, 53361)  # b = -2^2, c = (3*7*11)^2
A = Point(0, 231)
B = Point(2, 231)


def test_make_curve_and_singular():
    assert discriminant(Curve(-1, 0)) == 64
    with pytest.raises(SingularCurve):
        Curve(0, 0)
    with pytest.raises(SingularCurve):
        Curve(-3, 2)  # (x-1)^2 (x+2)
    Curve(-4, 53361)  # the worked family curve constructs fine


def test_discriminant_values():
    assert discriminant(Curve(-1, 0)) == 64
    assert discriminant(Curve(0, 1)) == -432
    assert discriminant(M2_CURVE) == -1230075206576
    # family-form expression agrees: 16(4 m^6 - 27 (pqr)^4)
    assert discriminant(M2_CURVE) == 16 * (4 * 2**6 - 27 * 231**4)


def test_point_normalization_and_equality():
    p = Point(Fraction(2, 4), Fraction(-6, 4))
    assert p.x == Fraction(1, 2) and p.x.denominator == 2
    assert p == Point(Fraction(1, 2), Fraction(-3, 2))
    assert INFINITY.is_infinity
    with pytest.raises(ValueError):
        Point(1, None)


def test_is_on_curve():
    assert is_on_curve(M2_CURVE, A)
    assert is_on_curve(M2_CURVE, B)
    assert not is_on_curve(M2_CURVE, Point(1, 1))
    assert is_on_curve(M2_CURVE, INFINITY)


def test_add_identity_inverse_chord():
    assert add(M2_CURVE, A, INFINITY) == A
    assert add(M2_CURVE, INFINITY, B) == B
    assert add(M2_CURVE, A, Point(0, -231)) == INFINITY
    # horizontal chord through A and B meets the curve again at x = -2
    assert add(M2_CURVE, A, B) == Point(-2, -231)


def test_negate():
    assert negate(M2_CURVE, A) == Point(0, -231)
    assert negate(M2_CURVE, INFINITY) == INFINITY
    assert negate(M2_CURVE, B) == Point(2, -231)


def test_double_exact_values():
    assert double(M2_CURVE, A) == Point(
        Fraction(4, 53361), Fraction(-2847396313, 12326391)
    )
    assert double(M2_CURVE, B) == Point(
        Fraction(-213428, 53361), Fraction(-2846115721, 12326391)
    )
    assert double(M2_CURVE, A).x == Fraction(4, 53361)
    assert double(M2_CURVE, B).x == Fraction(-213428, 53361)
    # y = 0 is 2-torsion: the tangent is vertical
    c = Curve(-1, 0)
    assert double(c, Point(0, 0)) == INFINITY
    assert double(c, Point(1, 0)) == INFINITY


def test_double_routes_agree():
    for p in (A, B, add(M2_CURVE, A, B), double(M2_CURVE, A)):
        assert double_via_duplication(M2_CURVE, p) == double(M2_CURVE, p)
        assert add(M2_CURVE, p, p) == double(M2_CURVE, p)


def test_scalar_mul():
    assert scalar_mul(M2_CURVE, 1, B) == B
    assert scalar_mul(M2_CURVE, 0, B) == INFINITY
    assert scalar_mul(M2_CURVE, 2, B) == double(M2_CURVE, B)
    assert scalar_mul(M2_CURVE, -3, B) == negate(
        M2_CURVE, scalar_mul(M2_CURVE, 3, B)
    )
    # (2, 3) generates the full 6-element torsion of y^2 = x^3 + 1
    c = Curve(0, 1)
    p = Point(2, 3)
    assert scalar_mul(c, 2, p) == Point(0, 1)
    assert scalar_mul(c, 3, p) == Point(-1, 0)
    assert scalar_mul(c, 6, p) == INFINITY
    assert all(not scalar_mul(c, k, p).is_infinity for k in range(1, 6))


def test_off_curve_points_rejected():
    bad = Point(1, 1)
    with pytest.raises(PointNotOnCurve):
        add(M2_CURVE, bad, A)
    with pytest.raises(PointNotOnCurve):
        double(M2_CURVE, bad)
    with pytest.raises(PointNotOnCurve):
        negate(M2_CURVE, bad)
    with pytest.raises(PointNotOnCurve):
        scalar_mul(M2_CURVE, 2, bad)


def _random_curve_with_points(rng):
    """Integer curve through two random small integer points."""
    while True:
        x1, x2 = rng.sample(range(-8, 9), 2)
        y1, y2 = rng.randint(-9, 9), rng.randint(-9, 9)
        num = (y2 * y2 - y1 * y1) - (x2**3 - x1**3)
        if num % (x2 - x1) != 0:
            continue
        b = num // (x2 - x1)
        c = y1 * y1 - x1**3 - b * x1
        if 4 * b**3 + 27 * c**2 == 0:
            continue
        return Curve(b, c), Point(x1, y1), Point(x2, y2)


def test_group_law_fuzz():
    rng = random.Random(2024)
    for _ in range(150):
        curve, p, q = _random_curve_with_points(rng)
        s = add(curve, p, q)
        assert is_on_curve(curve, s)
        pool = [p, q, s, negate(curve, p), double(curve, q), INFINITY]
        for _ in range(4):
            a, bb, cc = (rng.choice(pool) for _ in range(3))
            left = add(curve, add(curve, a, bb), cc)
            right = add(curve, a, add(curve, bb, cc))
            assert left == right
            assert add(curve, a, bb) == add(curve, bb, a)
            assert is_on_curve(curve, left)


# -- oracle: the chord-tangent formulas in Fraction arithmetic --


def _oracle_on_curve(curve, pt):
    return pt.is_infinity or pt.y * pt.y == pt.x**3 + curve.b * pt.x + curve.c


def _oracle_add(curve, p, q):
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x:
        if p.y == -q.y:
            return INFINITY
        slope = (3 * p.x * p.x + curve.b) / (2 * p.y)
    else:
        slope = (q.y - p.y) / (q.x - p.x)
    x3 = slope * slope - p.x - q.x
    return Point(x3, slope * (p.x - x3) - p.y)


def _oracle_scalar_mul(curve, n, p):
    if n < 0:
        n, p = -n, (p if p.is_infinity else Point(p.x, -p.y))
    result = INFINITY
    while n:
        if n & 1:
            result = _oracle_add(curve, result, p)
        p = _oracle_add(curve, p, p)
        n >>= 1
    return result


def test_group_law_matches_fraction_oracle():
    from ecrank.descent import search_points
    from ecrank.family import FamilyParams, build_family_curve

    members = [(2, 3, 7, 11), (34, 3, 5, 7), (2, 3, 5, 13), (2, 7, 11, 13), (66, 3, 5, 7)]
    for params in members + [(6, 5, 7, 11)]:
        curve = build_family_curve(FamilyParams(*params))
        found = search_points(curve, 60, 2)
        pool = found[:6] + [Point(pt.x, -pt.y) for pt in found[:2]]
        pool += [_oracle_scalar_mul(curve, k, found[0]) for k in (2, 3, -5)]
        pool.append(INFINITY)
        assert len(found) >= 2 and any(p.x.denominator > 1 for p in pool[:-1])
        for p in pool:
            assert is_on_curve(curve, p) and _oracle_on_curve(curve, p)
            assert double(curve, p) == _oracle_add(curve, p, p)
            for n in (-7, -2, 0, 1, 4, 11):
                assert scalar_mul(curve, n, p) == _oracle_scalar_mul(curve, n, p)
            for q in pool:
                assert add(curve, p, q) == _oracle_add(curve, p, q)
        # off the curve by a change of y alone: each check must still say so
        for p in pool[:-1]:
            for dy in (Fraction(1), Fraction(-1), Fraction(1, p.y.denominator + 1), p.y / 7):
                off = Point(p.x, p.y + dy)
                assert is_on_curve(curve, off) == _oracle_on_curve(curve, off)
                if not _oracle_on_curve(curve, off):
                    with pytest.raises(PointNotOnCurve):
                        add(curve, off, p)
                    with pytest.raises(PointNotOnCurve):
                        double(curve, off)
