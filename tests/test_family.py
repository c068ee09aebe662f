import json
from dataclasses import replace
from pathlib import Path

import pytest

from ecrank import descent
from ecrank.arith import divisors
from ecrank.curves import Point, discriminant, is_on_curve
from ecrank.descent import rank_ge2_certificate
from ecrank.errors import InconsistentCertificate, NotPrime, PrimeIsTwo, PrimesNotDistinct
from ecrank.family import (
    NOT_OBSTRUCTED,
    OBSTRUCTED,
    FamilyParams,
    build_family_curve,
    canonical_points,
    cite_obstructions,
    validate_hypotheses,
)
from ecrank.torsion import nagell_lutz_torsion

GRID_SEED = Path(__file__).resolve().parents[1] / "bench" / "data" / "grid_seed.jsonl"


def test_params_validation():
    FamilyParams(2, 3, 7, 11)
    with pytest.raises(NotPrime):
        FamilyParams(2, 9, 7, 11)
    with pytest.raises(PrimesNotDistinct):
        FamilyParams(2, 3, 3, 5)
    with pytest.raises(PrimeIsTwo):
        FamilyParams(2, 2, 3, 5)
    with pytest.raises(ValueError):
        FamilyParams(0, 3, 5, 7)


def test_hypothesis_flags():
    assert validate_hypotheses(FamilyParams(2, 3, 7, 11)).all_ok
    rep = validate_hypotheses(FamilyParams(3, 3, 7, 11))
    assert not rep.mod3_ok and not rep.coprime_ok
    rep = validate_hypotheses(FamilyParams(6, 5, 7, 11))
    assert not rep.mod3_ok and not rep.mod2k_ok  # 6 = 0 (mod 3), 6 != 2 (mod 32)
    rep = validate_hypotheses(FamilyParams(34, 3, 5, 7))
    assert rep.all_ok  # 34 = 2 (mod 32)


def test_mod2k_implies_weaker_congruences():
    # the stronger hypothesis feeds arguments that need only mod 4/8/16
    for m in (2, 34, 66, 98, 130, 162):
        if validate_hypotheses(FamilyParams(m, 3, 5, 7)).mod2k_ok:
            assert m % 4 == 2 and m % 8 == 2 and m % 16 == 2


def test_k_witness():
    assert FamilyParams(2, 3, 5, 7).k_witness is None  # every k works
    assert FamilyParams(34, 3, 5, 7).k_witness == 5
    assert FamilyParams(66, 5, 7, 13).k_witness == 6
    assert FamilyParams(98, 3, 5, 11).k_witness == 5
    assert FamilyParams(130, 3, 7, 11).k_witness == 7
    assert FamilyParams(6, 3, 5, 7).k_witness == 2
    assert FamilyParams(4, 3, 5, 7).k_witness == 0  # 4 != 2 (mod 4)


def test_build_family_curve():
    assert build_family_curve(FamilyParams(2, 3, 7, 11)) .b == -4
    assert build_family_curve(FamilyParams(2, 3, 7, 11)).c == 53361
    curve = build_family_curve(FamilyParams(34, 3, 5, 7))
    assert (curve.b, curve.c) == (-1156, 11025)


def test_family_discriminant_formula():
    for m in (2, 34, 66):
        for trip in ((3, 5, 7), (3, 7, 11), (5, 11, 13)):
            params = FamilyParams(m, *trip)
            d = params.pqr
            assert discriminant(build_family_curve(params)) == 16 * (4 * m**6 - 27 * d**4)


def test_canonical_points_worked_example():
    pts = canonical_points(FamilyParams(2, 3, 7, 11))
    assert pts.base == Point(0, 231)
    assert pts.shifted == Point(2, 231)
    assert pts.combined == Point(-2, -231)


def test_canonical_points_always_on_curve():
    for m in (2, 10, 34, 66):
        for trip in ((3, 5, 7), (5, 7, 11), (3, 11, 13)):
            params = FamilyParams(m, *trip)
            curve = build_family_curve(params)
            pts = canonical_points(params)
            assert is_on_curve(curve, pts.base)
            assert is_on_curve(curve, pts.shifted)
            assert is_on_curve(curve, pts.combined)
            # the chord through the first two is horizontal
            assert pts.combined.x == -m


def _divisor_loop_order2(params):
    """The order-2 verdict by the former divisor loop, kept as the oracle:
    each signed divisor of (pqr)^2, in increasing |x| and + before -, is
    tested against the cubic."""
    m, d = params.m, params.pqr
    for div in divisors({params.p: 2, params.q: 2, params.r: 2}):
        for x in (div, -div):
            if x**3 - m * m * x + d * d == 0:
                return NOT_OBSTRUCTED, f"x = {x} is an integral 2-torsion abscissa"
    return OBSTRUCTED, "no divisor +-x of (pqr)^2 satisfies x^3 - m^2 x + (pqr)^2 = 0"


def test_order2_verdict_matches_divisor_loop():
    """Read from the Nagell-Lutz candidates, the order-2 verdict equals the
    divisor loop's on two members with 2-torsion and on the seed grid."""
    with open(GRID_SEED) as fh:
        grid = [json.loads(line)["params"] for line in fh]
    members = [FamilyParams(120, 7, 13, 17), FamilyParams(240, 7, 17, 23)]
    members += [FamilyParams(*(int(p[k]) for k in "mpqr")) for p in grid]
    assert len(members) == 52
    statuses = set()
    for params in members:
        rep = cite_obstructions(params, nagell_lutz_torsion(build_family_curve(params)))
        order2 = rep.obstructions[0]
        assert (order2.order, order2.status, order2.reason) == (2, *_divisor_loop_order2(params))
        statuses.add(order2.status)
    assert statuses == {OBSTRUCTED, NOT_OBSTRUCTED}


def test_cited_class_with_a_half_is_inconsistent(monkeypatch):
    """Halving that finds a half of a cited canonical target contradicts
    the congruence route; outside the hypothesis class nothing is cited."""
    monkeypatch.setattr(descent, "_halve", lambda curve, target: ((), (), [target]))
    with pytest.raises(InconsistentCertificate, match="disagree"):
        rank_ge2_certificate(FamilyParams(2, 3, 7, 11))
    cert = rank_ge2_certificate(FamilyParams(6, 5, 7, 11))
    assert cert.class_base.nonzero is False and cert.class_base.congruence is None


def test_cited_obstruction_with_a_point_of_that_order_is_inconsistent():
    """A torsion order divisible by an obstructed prime contradicts the
    citation; where the order-3 hypothesis fails, the same order passes."""
    params = FamilyParams(2, 3, 7, 11)
    report = nagell_lutz_torsion(build_family_curve(params))
    with pytest.raises(InconsistentCertificate, match="order-3"):
        cite_obstructions(params, replace(report, torsion_order=3))
    m3 = FamilyParams(3, 5, 7, 11)
    report = nagell_lutz_torsion(build_family_curve(m3))
    cited = cite_obstructions(m3, replace(report, torsion_order=3))
    assert [o.status for o in cited.obstructions[1:]] == ["hypothesis_not_met"] * 3
