"""The paper's sister families as oracles for the certificate core.

The paper's introduction cites rank results on three families close to
its own: Brown-Myers on E_m: y^2 = x^3 - x + m^2, Antoniewicz on
C_m: y^2 = x^3 - m^2 x + 1, and Eikenberg on D_m: y^2 = x^3 - m^2 x + m^2.
Their published points are checks that cannot share a bug with ecrank,
and the same checks certify that D_14 and D_31 have rank above 2, against
the "rank(D_m) = 2 for all m >= 2" that the paper cites.

With trivial torsion, E(Q)/2E(Q) is F_2^rank, so k points whose 2^k - 1
subset sums all have nonzero class certify rank >= k.  Only ecrank's
public API is used.
"""
from itertools import combinations

import pytest

from ecrank import (
    INFINITY,
    Curve,
    Point,
    add,
    class_is_nonzero,
    double,
    division_poly_has_integer_root,
    halving_preimages,
    is_on_curve,
    torsion_order_bound,
)


def assert_trivial_torsion(curve):
    """The reduction bound is 1, or else no psi_n has an integer root for
    the n in {2, 3, 5, 7} that divide it: by Mazur these are the only
    prime orders a rational torsion point can have, and by Nagell-Lutz the
    x of such a point is an integer root of psi_n."""
    bound, _ = torsion_order_bound(curve, 5)
    for n in (2, 3, 5, 7):
        if bound % n == 0:
            assert not division_poly_has_integer_root(curve, n).has_integer_root, (curve, n)


def assert_independent(curve, points):
    """Every subset sum of the points has nonzero class, so with trivial
    torsion the points certify rank >= len(points)."""
    assert_trivial_torsion(curve)
    for p in points:
        assert is_on_curve(curve, p), (curve, p)
    for size in range(1, len(points) + 1):
        for subset in combinations(points, size):
            total = INFINITY
            for p in subset:
                total = add(curve, total, p)
            assert class_is_nonzero(curve, total).nonzero, (curve, subset)


@pytest.mark.parametrize("m", range(2, 41))
def test_brown_myers_rank_at_least_two(m):
    """E_m: y^2 = x^3 - x + m^2 has trivial torsion and rank >= 2 from
    (0, m) and (1, m) for m >= 2."""
    assert_independent(Curve(-1, m * m), [Point(0, m), Point(1, m)])


@pytest.mark.parametrize("k", range(1, 6))
def test_antoniewicz_rank_at_least_three_on_c_4k(k):
    """C_m: y^2 = x^3 - m^2 x + 1 has rank >= 3 at m = 4k, from (0, 1),
    (m, 1) and (-1, m)."""
    m = 4 * k
    assert_independent(Curve(-m * m, 1), [Point(0, 1), Point(m, 1), Point(-1, m)])


@pytest.mark.parametrize(
    "m, points",
    [
        (14, [(0, 14), (14, 14), (-7, 35)]),
        (31, [(0, 31), (31, 31), (-24, 101), (-21, 109)]),
    ],
)
def test_d_m_rank_above_two(m, points):
    """D_14 has rank >= 3 and D_31 rank >= 4: rank(D_m) = 2 fails for
    these m, whatever holds over Q(m)."""
    assert_independent(Curve(-m * m, m * m), [Point(*xy) for xy in points])


def test_d_5_relation_is_found_by_halving():
    """On D_5, (0, 5) + (1, 1) lies in 2E(Q): halving finds its halves,
    and its class is zero."""
    curve = Curve(-25, 25)
    target = add(curve, Point(0, 5), Point(1, 1))
    halves = halving_preimages(curve, target)
    assert halves and all(double(curve, h) == target for h in halves)
    assert not class_is_nonzero(curve, target).nonzero
