import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ecrank import polys
from ecrank.arith import divisors, factorize
from ecrank.curves import Curve, Point, discriminant, scalar_mul
from ecrank.errors import UnsupportedOrder
from ecrank.family import (
    HYPOTHESIS_NOT_MET,
    OBSTRUCTED,
    FamilyParams,
    build_family_curve,
    cite_obstructions,
    congruence_obstruction,
)
from ecrank.torsion import (
    division_poly_has_integer_root,
    division_polynomial,
    integral_torsion_candidates,
    nagell_lutz_torsion,
    torsion_order_bound,
    two_torsion_points,
)

M2_PARAMS = FamilyParams(2, 3, 7, 11)
M2_CURVE = build_family_curve(M2_PARAMS)

# y^2 = x^3 - 13392x - 1080432 has a rational point of order 5 at x = 168;
# y^2 = x^3 - 43x + 166 has one of order 7 at (3, 8)
FIVE_TORSION_CURVE = Curve(-13392, -1080432)
SEVEN_TORSION_CURVE = Curve(-43, 166)

# Full psi_5 / psi_7 coefficients (ascending degree), frozen from the
# double-index recursion so that the closed forms cannot drop a term.
M2_PSI5 = [
    -2075562441232682100992,
    388966181251253760,
    -10934001821440,
    -243103863862601280,
    21868003713280,
    -594228096,
    -683375097840,
    -51226560,
    -1680,
    20277180,
    -248,
    0,
    5,
]
M2_PSI7 = [
    4307959435352195736004917445021774292516864,
    -1130253035400728628280117630670759657472,
    201221938519036540065557282900738048,
    -988971435250157910188641077494968762368,
    280651653031130740359293308779724800,
    -25602800927961230477658524418048,
    -64867597670309233743313119345827840,
    12333575159348366624724098482176,
    -917066509185119991724371968,
    -672941800849387954745680985088,
    106816744906237575567353856,
    -6329880036209943392256,
    -7525989378845284108593664,
    1296035318270026414080,
    -28034780717210624,
    -126063939677637798144,
    6513384906512512,
    -79032336768,
    -122141911315088,
    23905728,
    -47264,
    210455784,
    -1232,
    0,
    7,
]
SEVEN_PSI5 = [
    -117959283223,
    69132529320,
    -4877828410,
    -6263020640,
    1847673235,
    -213626064,
    17238660,
    -1713120,
    -194145,
    63080,
    -2666,
    0,
    5,
]
SEVEN_PSI7 = [
    10620688173299950374255,
    -13964469389597669168464,
    11282639934025993155252,
    -6857231190911499575072,
    2779419609011903433254,
    -637608193592665428560,
    39103307959433635316,
    20500163896533534848,
    -6372210528708983399,
    712814722925909856,
    6633709871081384,
    -7181234840645824,
    -760587321169676,
    327599980428000,
    -19259731880888,
    -3375467957120,
    557167929745,
    -28412266512,
    396330788,
    799456,
    -5461946,
    654704,
    -13244,
    0,
    7,
]


def test_torsion_order_bound_default_selection():
    # delta(-1,0) = 64: first good odd primes are 3, 5
    bound, used = torsion_order_bound(Curve(-1, 0), 2)
    assert used == [(3, 4), (5, 8)] and bound == 4
    # delta(0,1) = -432: 3 is bad, so 5 and 7 are selected
    bound, used = torsion_order_bound(Curve(0, 1), 2)
    assert used == [(5, 6), (7, 12)] and bound == 6


def test_division_polynomial_small_orders():
    b, c = M2_CURVE.b, M2_CURVE.c
    assert division_polynomial(M2_CURVE, 2) == [c, b, 0, 1]
    # psi_3 = 3x^4 + 6bx^2 + 12cx - b^2
    assert division_polynomial(M2_CURVE, 3) == [-16, 640332, -24, 0, 3]
    for curve in (M2_CURVE, Curve(1, 1), Curve(-7, 10)):
        assert division_polynomial(curve, 3) == [
            -curve.b**2,
            12 * curve.c,
            6 * curve.b,
            0,
            3,
        ]
    psi5 = division_polynomial(M2_CURVE, 5)
    psi7 = division_polynomial(M2_CURVE, 7)
    assert polys.degree(psi5) == 12 and psi5[-1] == 5
    assert polys.degree(psi7) == 24 and psi7[-1] == 7
    assert psi5 == M2_PSI5 and psi7 == M2_PSI7
    assert division_polynomial(SEVEN_TORSION_CURVE, 5) == SEVEN_PSI5
    assert division_polynomial(SEVEN_TORSION_CURVE, 7) == SEVEN_PSI7
    with pytest.raises(UnsupportedOrder):
        division_polynomial(M2_CURVE, 4)
    with pytest.raises(UnsupportedOrder):
        division_polynomial(M2_CURVE, 11)


def test_division_polynomials_vanish_on_known_torsion():
    # order-5 point: 5P = O, and psi_5 kills both x(P) and x(2P)
    p5 = Point(168, 1188)
    assert scalar_mul(FIVE_TORSION_CURVE, 5, p5).is_infinity
    psi5 = division_polynomial(FIVE_TORSION_CURVE, 5)
    assert polys.evaluate(psi5, 168) == 0
    x2 = scalar_mul(FIVE_TORSION_CURVE, 2, p5).x
    assert x2.denominator == 1 and polys.evaluate(psi5, int(x2)) == 0
    verdict = division_poly_has_integer_root(FIVE_TORSION_CURVE, 5)
    assert verdict.has_integer_root and 168 in verdict.roots

    p7 = Point(3, 8)
    assert scalar_mul(SEVEN_TORSION_CURVE, 7, p7).is_infinity
    psi7 = division_polynomial(SEVEN_TORSION_CURVE, 7)
    assert polys.evaluate(psi7, 3) == 0
    verdict = division_poly_has_integer_root(SEVEN_TORSION_CURVE, 7)
    # exactly the x-coordinates of P, 2P, 3P (each pairs with its negative)
    assert verdict.roots == (-5, 3, 11)
    assert scalar_mul(SEVEN_TORSION_CURVE, 2, p7).x == -5
    assert scalar_mul(SEVEN_TORSION_CURVE, 3, p7).x == 11
    # and on the order-5 curve: the x-coordinates of P and 2P
    assert division_poly_has_integer_root(FIVE_TORSION_CURVE, 5).roots == (168, 564)


def test_division_poly_root_verdicts_on_family_curve():
    for n in (2, 3, 5, 7):
        verdict = division_poly_has_integer_root(M2_CURVE, n)
        assert verdict.certifies_no_point, f"unexpected order-{n} root"
    # 2-torsion present on y^2 = x^3 - x
    verdict = division_poly_has_integer_root(Curve(-1, 0), 2)
    assert verdict.has_integer_root and verdict.roots == (-1, 0, 1)


def test_division_polynomial_roots_large_member():
    # 7-digit primes: psi_7 has degree 24 and coefficients of up to 293 digits
    curve = build_family_curve(FamilyParams(2 + 32 * 10**6, 1000003, 1000033, 1000037))
    for n in (3, 5, 7):
        verdict = division_poly_has_integer_root(curve, n)
        assert verdict.roots == () and verdict.certifies_no_point, n


def test_congruence_obstructions():
    assert congruence_obstruction(M2_PARAMS, 3).status == OBSTRUCTED
    assert congruence_obstruction(M2_PARAMS, 5).status == OBSTRUCTED
    assert congruence_obstruction(M2_PARAMS, 7).status == OBSTRUCTED
    m4 = FamilyParams(4, 3, 5, 7)
    assert congruence_obstruction(m4, 5).status == HYPOTHESIS_NOT_MET
    assert congruence_obstruction(m4, 7).status == HYPOTHESIS_NOT_MET
    m3 = FamilyParams(3, 3, 7, 11)
    assert congruence_obstruction(m3, 3).status == HYPOTHESIS_NOT_MET
    # order 2 is read from the torsion report (test_family.py checks it)
    for n in (2, 11):
        with pytest.raises(UnsupportedOrder):
            congruence_obstruction(M2_PARAMS, n)


def test_nagell_lutz_negative_controls():
    rep = nagell_lutz_torsion(Curve(-1, 0))
    assert rep.torsion_order == 4
    assert rep.structure == "Z/2 x Z/2"
    assert {p for p in rep.integral_candidates} == {
        Point(-1, 0),
        Point(0, 0),
        Point(1, 0),
    }
    assert len(rep.generators) == 2

    rep = nagell_lutz_torsion(Curve(0, 1))
    assert rep.torsion_order == 6
    assert rep.structure == "Z/6"
    assert rep.generators == (Point(2, 3),)

    assert nagell_lutz_torsion(FIVE_TORSION_CURVE).torsion_order == 5
    assert nagell_lutz_torsion(SEVEN_TORSION_CURVE).torsion_order == 7


def test_nagell_lutz_worked_example():
    rep = cite_obstructions(M2_PARAMS, nagell_lutz_torsion(M2_CURVE))
    assert rep.is_trivial and rep.torsion_order == 1
    assert rep.bound_from_reduction == 1
    assert rep.structure == "trivial"
    assert [o.status for o in rep.obstructions] == [OBSTRUCTED] * 4
    assert rep.torsion_order == 1 and rep.bound_from_reduction % rep.torsion_order == 0


def test_three_routes_agree():
    """Wherever the congruence route obstructs order n, the enumeration
    and division-polynomial routes must concur."""
    for m, trip in ((2, (3, 5, 7)), (34, (3, 7, 11)), (10, (5, 7, 11)), (3, (5, 7, 11))):
        params = FamilyParams(m, *trip)
        curve = build_family_curve(params)
        rep = cite_obstructions(params, nagell_lutz_torsion(curve))
        orders_present = set()
        for pt in rep.integral_candidates:
            for n in range(1, 13):
                if scalar_mul(curve, n, pt).is_infinity:
                    orders_present.add(n)
                    break
        for verdict in rep.obstructions:
            if verdict.obstructed:
                assert verdict.order not in orders_present
                assert division_poly_has_integer_root(curve, verdict.order).certifies_no_point


def test_bound_divisibility_property():
    for curve in (Curve(-1, 0), Curve(0, 1), FIVE_TORSION_CURVE, SEVEN_TORSION_CURVE, M2_CURVE):
        rep = nagell_lutz_torsion(curve)
        assert rep.bound_from_reduction % rep.torsion_order == 0


# One curve per torsion shape that can occur over Q.  Entries were found
# by scanning curves built from normal forms carrying a torsion point and
# were verified twice: by the enumeration pipeline and by direct order
# computation with the group law (re-done inside the test).
TORSION_ZOO = [
    (-20, -60, 1, "trivial"),
    (-20, -33, 2, "Z/2"),
    (-9, 9, 3, "Z/3"),
    (-11, 6, 4, "Z/4"),
    (-13392, -1080432, 5, "Z/5"),
    (-15, 22, 6, "Z/6"),
    (-43, 166, 7, "Z/7"),
    (-50571, 4350726, 8, "Z/8"),
    (-17739, 1205766, 9, "Z/9"),
    (-58347, 3954150, 10, "Z/10"),
    (-1947, 108214, 12, "Z/12"),
    (-19, -30, 4, "Z/2 x Z/2"),
    (-5211, -31050, 8, "Z/2 x Z/4"),
    (-24003, 1296702, 12, "Z/2 x Z/6"),
    (-1386747, 368636886, 16, "Z/2 x Z/8"),
]


@pytest.mark.parametrize("b,c,order,structure", TORSION_ZOO)
def test_every_admissible_torsion_shape(b, c, order, structure):
    """The pipeline recovers each of the fifteen torsion groups that a
    rational elliptic curve can have, with generators of the right order."""
    curve = Curve(b, c)
    rep = nagell_lutz_torsion(curve, num_primes=3)
    assert rep.torsion_order == order
    assert rep.structure == structure
    assert rep.bound_from_reduction % order == 0
    generated = 1
    for g in rep.generators:
        g_order = next(
            n for n in range(1, 13) if scalar_mul(curve, n, g).is_infinity
        )
        generated *= g_order
    assert generated == order  # cyclic or Z/2 x Z/2n: orders multiply


def _unfiltered_candidates(curve):
    """The Nagell-Lutz loop without the residue filter, kept as the oracle:
    root extraction for every y with y^2 | Delta."""
    candidates = set(two_torsion_points(curve))
    halved = {p: e // 2 for p, e in factorize(discriminant(curve)).items() if e > 1}
    for y in divisors(halved):
        for x in polys.integer_roots([curve.c - y * y, curve.b, 0, 1]):
            candidates.add(Point(x, y))
            candidates.add(Point(x, -y))
    return sorted(candidates, key=str)


def test_candidate_filter_matches_unfiltered_loop():
    """Every torsion shape, 200 small random curves and family members:
    the filtered loop finds exactly the oracle's candidates."""
    rng = random.Random(17)
    curves = [Curve(b, c) for b, c, _, _ in TORSION_ZOO]
    while len(curves) < len(TORSION_ZOO) + 200:
        b, c = rng.randint(-60, 60), rng.randint(-200, 200)
        if 4 * b**3 + 27 * c**2 != 0:
            curves.append(Curve(b, c))
    for m, trip in itertools.product((2, 6, 34, 35), itertools.combinations((3, 5, 7, 11), 3)):
        curves.append(build_family_curve(FamilyParams(m, *trip)))
    with_y = 0
    for curve in curves:
        found = integral_torsion_candidates(curve)
        assert found == _unfiltered_candidates(curve), curve
        with_y += sum(p.y != 0 for p in found)
    assert with_y >= 100  # the filter was tested on y that do give points


def test_torsion_trivial_on_full_parameter_grid():
    """All 50 grid combinations, including the ones where a parameter
    prime divides m, still have trivial torsion."""
    import itertools

    count = 0
    for m in (2, 34, 66, 98, 130):
        for trip in itertools.combinations((3, 5, 7, 11, 13), 3):
            params = FamilyParams(m, *trip)
            rep = cite_obstructions(params, nagell_lutz_torsion(build_family_curve(params)))
            assert rep.torsion_order == 1, (m, trip)
            count += 1
    assert count == 50


def test_certificate_self_check_survives_optimize_flag():
    """A torsion order that does not divide the reduction bound raises
    InconsistentCertificate even under python -O, which strips asserts."""
    code = """
from ecrank import torsion
from ecrank.curves import Curve
from ecrank.errors import InconsistentCertificate

if __debug__:
    raise SystemExit("not running under -O")
torsion.torsion_order_bound = lambda curve, num_primes: (7, [])
try:
    torsion.nagell_lutz_torsion(Curve(-1, 0))  # torsion Z/2 x Z/2, order 4
except InconsistentCertificate as exc:
    print(type(exc).__name__)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "InconsistentCertificate"
