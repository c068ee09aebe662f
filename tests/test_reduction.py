import random

import pytest

from ecrank import arith
from ecrank.arith import is_prime
from ecrank.curves import Curve, discriminant
from ecrank.errors import BadReduction, NotPrime, SingularCurve
from ecrank.family import FamilyParams, build_family_curve
from ecrank.reduction import (
    count_points,
    good_odd_primes,
    hasse_interval,
    naive_point_count,
    reduce_curve,
)

M2_CURVE = build_family_curve(FamilyParams(2, 3, 7, 11))


def test_reduce_curve():
    rc = reduce_curve(M2_CURVE, 5)
    assert rc.is_good and (rc.b_mod, rc.c_mod) == (1, 1)
    rc = reduce_curve(Curve(-1, 0), 2)
    assert rc.reduction_type == "bad"  # 2 | 64
    rc = reduce_curve(M2_CURVE, 3)
    assert (rc.b_mod, rc.c_mod) == (2, 0) and rc.is_good
    with pytest.raises(NotPrime):
        reduce_curve(M2_CURVE, 6)


# counts below were verified by brute-force enumeration over F_ell before
# being frozen; the paired assertion recomputes them with the enumeration
# oracle on every run
REFERENCE_COUNTS = [
    (0, 1, 5, 6),
    (-1, 1, 5, 8),
    (1, 1, 5, 9),
    (0, 4, 5, 6),
    (-1, 4, 5, 8),
    (1, 4, 5, 9),
    (0, 4, 7, 3),
    (-1, 4, 7, 10),
    (0, 1, 7, 12),
    (-1, 1, 7, 12),
    (0, 2, 7, 9),
    (-1, 2, 7, 9),
    (-1, 1, 3, 7),
    (-1, 0, 3, 4),
    (-1, 0, 5, 8),
    (-1, 0, 7, 8),
]


@pytest.mark.parametrize("b,c,ell,expected", REFERENCE_COUNTS)
def test_reference_counts(b, c, ell, expected):
    rc = reduce_curve(Curve(b, c), ell)
    assert rc.is_good
    assert count_points(rc) == expected
    assert naive_point_count(b, c, ell) == expected


def test_count_requires_good_reduction():
    rc = reduce_curve(Curve(-1, 0), 2)
    with pytest.raises(BadReduction):
        count_points(rc)
    # the enumeration fallback still counts the singular equation's points
    assert naive_point_count(1, 0, 2) == 3


def test_character_sum_matches_enumeration():
    """Exhaustive over every odd prime up to 97, three curves per prime,
    plus a randomized layer on top."""
    rng = random.Random(5)
    primes = [ell for ell in range(3, 98) if all(ell % d for d in range(2, ell))]
    for ell in primes:
        done = 0
        while done < 3:
            b, c = rng.randint(-30, 30), rng.randint(-30, 30)
            if 4 * b**3 + 27 * c**2 == 0:
                continue
            rc = reduce_curve(Curve(b, c), ell)
            if not rc.is_good:
                continue
            n = count_points(rc)
            assert n == naive_point_count(b, c, ell), (b, c, ell)
            lo, hi = hasse_interval(ell)
            assert lo <= n <= hi
            done += 1
    checked = 0
    while checked < 60:
        b, c = rng.randint(-200, 200), rng.randint(-200, 200)
        if 4 * b**3 + 27 * c**2 == 0:
            continue
        ell = rng.choice(primes)
        rc = reduce_curve(Curve(b, c), ell)
        if not rc.is_good:
            continue
        assert count_points(rc) == naive_point_count(rc.b_mod, rc.c_mod, ell)
        checked += 1


def test_good_odd_primes():
    assert good_odd_primes(Curve(-1, 0), 3) == [3, 5, 7]  # delta = 64
    assert good_odd_primes(Curve(0, 1), 2) == [5, 7]  # delta = -432 kills 3
    assert 2 not in good_odd_primes(M2_CURVE, 10)


def _miller_rabin_good_odd_primes(curve, count):
    """good_odd_primes over a stream that tests every odd number >= 3 by
    is_prime, as it was before primes_from drew on the sieve."""
    out, delta, n = [], discriminant(curve), 3
    while len(out) < count:
        if is_prime(n) and delta % n != 0:
            out.append(n)
        n += 2
    return out


def test_good_odd_primes_matches_miller_rabin_stream(monkeypatch):
    rng = random.Random(8)
    curves = []
    while len(curves) < 200:
        scale = rng.choice([1, 3 * 5 * 7, 3 * 5 * 7 * 11 * 13 * 17 * 19])
        b, c = (scale * rng.randint(-10**6, 10**6) for _ in range(2))
        try:
            curves.append(Curve(b, c))
        except SingularCurve:
            continue
    counts = [rng.randint(1, 12) for _ in curves]
    expected = [_miller_rabin_good_odd_primes(c, k) for c, k in zip(curves, counts)]
    calls = []
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or is_prime(n))
    assert [good_odd_primes(c, k) for c, k in zip(curves, counts)] == expected
    assert calls == []  # every prime came from the sieve
