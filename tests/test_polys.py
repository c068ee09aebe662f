import math
import random
from fractions import Fraction

import pytest

from ecrank import polys
from ecrank.arith import primes_from
from ecrank.curves import add
from ecrank.descent import halving_quartic, search_points
from ecrank.family import FamilyParams, build_family_curve, canonical_points


def test_evaluate_and_basics():
    p = [1, -3, 2]  # 2x^2 - 3x + 1
    assert polys.evaluate(p, 0) == 1
    assert polys.evaluate(p, 1) == 0
    assert polys.evaluate(p, Fraction(1, 2)) == 0
    assert polys.add([1, 1], [0, 0, 3]) == [1, 1, 3]
    assert polys.mul([1, 1], [-1, 1]) == [-1, 0, 1]
    assert polys.derivative([5, 4, 3, 2]) == [4, 6, 6]
    assert polys.degree([0, 0, 1, 0]) == 2


def test_primitive_part():
    assert polys.primitive_part([4, -8, 12]) == [1, -2, 3]
    assert polys.primitive_part([-2, 0, -4]) == [1, 0, 2]  # leading made positive


def test_divide_exact():
    prod = polys.mul([1, 2, 1], [-3, 1])
    assert polys.divide_exact(prod, [-3, 1]) == [1, 2, 1]
    with pytest.raises(ValueError):
        polys.divide_exact([1, 1, 1], [1, 1])


def test_squarefree_part_collapses_multiplicity():
    # (x-2)^2 (x+3)
    p = polys.mul(polys.mul([-2, 1], [-2, 1]), [3, 1])
    sf = polys.squarefree_part(p)
    assert polys.degree(sf) == 2
    assert polys.evaluate(sf, 2) == 0 and polys.evaluate(sf, -3) == 0


def test_integer_roots_constructed():
    rng = random.Random(11)
    for _ in range(60):
        roots = sorted(rng.sample(range(-40, 40), rng.randint(1, 4)))
        p = [1]
        for r in roots:
            p = polys.mul(p, [-r, 1])
        # multiply by an irreducible quadratic so extra factors do not add roots
        p = polys.mul(p, [1, 1, 1])
        assert polys.integer_roots(p) == roots


def test_integer_roots_repeated_and_zero():
    assert polys.integer_roots([0, 0, 4]) == [0]
    assert polys.integer_roots([4, -4, 1]) == [2]  # (x-2)^2
    assert polys.integer_roots([6, -5, 1]) == [2, 3]
    assert polys.integer_roots([53361, -4, 0, 1]) == []
    assert polys.integer_roots([5]) == []
    assert polys.integer_roots([0, 7]) == [0]
    with pytest.raises(ValueError):
        polys.integer_roots([])


def test_integer_roots_huge_coefficients():
    # scale of a degree-24 division polynomial: roots must still come back
    big = 10**45 + 7
    p = polys.mul([-3, 1], [big, 0, 0, 0, 0, 1])  # (x - 3)(x^5 + big)
    assert polys.integer_roots(p) == [3]
    assert polys.integer_roots([big, 0, 0, 0, 0, 1]) == []


def test_integer_roots_matches_bruteforce_scan():
    rng = random.Random(23)
    for _ in range(80):
        p = [rng.randint(-20, 20) for _ in range(rng.randint(3, 6))]
        if not any(p) or polys.degree(p) < 1:
            continue
        brute = [x for x in range(-25, 26) if polys.evaluate(p, x) == 0]
        mine = [r for r in polys.integer_roots(p) if -25 <= r <= 25]
        assert mine == brute


def test_rational_roots():
    # (2x - 1)(3x + 2)(x^2 + 1)
    p = polys.mul(polys.mul([-1, 2], [2, 3]), [1, 0, 1])
    assert polys.rational_roots(p) == [Fraction(-2, 3), Fraction(1, 2)]
    assert polys.rational_roots([-1, 0, 0, 0, 2]) == []  # 2x^4 - 1
    assert polys.rational_roots([0, 0, 5, 5]) == [Fraction(-1), Fraction(0)]


# -- oracle: Euclid over Q with Fraction, one residue at a time from p = 101 --


def _fraction_divmod(a, b):
    rem, den = polys.normalize(a), polys.normalize(b)
    lead, n = Fraction(den[-1]), len(den)
    quot = [0] * max(len(rem) - n + 1, 0)
    for k in reversed(range(len(quot))):
        f = rem[k + n - 1] / lead
        if f:
            quot[k] = f
            for i, d in enumerate(den):
                rem[k + i] -= f * d
    return quot, polys.normalize(rem)


def _oracle_squarefree_part(coeffs):
    cs = polys.normalize(coeffs)
    if len(cs) <= 2:
        return cs
    a, b = cs, polys.derivative(cs)
    while b:
        a, b = b, _fraction_divmod(a, b)[1]
    if len(a) <= 1:
        return polys.primitive_part(cs)
    quot, _ = _fraction_divmod(cs, a)
    denom = math.lcm(*(c.denominator for c in quot))
    return polys.primitive_part([int(c * denom) for c in quot])


def _oracle_integer_roots(coeffs):
    cs = polys.normalize(coeffs)
    roots = {0} if cs[0] == 0 else set()
    while cs[0] == 0:
        cs = cs[1:]
    if len(cs) == 1:
        return sorted(roots)
    sf = _oracle_squarefree_part(cs)
    dsf = polys.derivative(sf)
    bound = 2 + max(abs(c) for c in sf[:-1]) // abs(sf[-1])
    for p in primes_from(101):
        if sf[-1] % p == 0:
            continue
        residues = [r for r in range(p) if polys.evaluate_mod(sf, r, p) == 0]
        if any(polys.evaluate_mod(dsf, r, p) == 0 for r in residues):
            continue
        modulus = p
        while modulus <= 2 * bound:
            modulus *= modulus
            residues = [
                (r - polys.evaluate_mod(sf, r, modulus) * pow(polys.evaluate_mod(dsf, r, modulus), -1, modulus))
                % modulus
                for r in residues
            ]
        for r in residues:
            x = r if r <= modulus // 2 else r - modulus
            if polys.evaluate(cs, x) == 0:
                roots.add(x)
        return sorted(roots)


def _oracle_rational_roots(coeffs):
    cs = polys.normalize(coeffs)
    an, d = cs[-1], len(cs) - 1
    monic = [cs[i] * an ** (d - 1 - i) for i in range(d)] + [1]
    roots = [Fraction(z, an) for z in _oracle_integer_roots(monic)]
    return sorted(x for x in roots if polys.evaluate(cs, x) == 0)


LEAD_ALL_PRIMES_BELOW_50 = math.prod(p for p in range(2, 50) if all(p % q for q in range(2, p)))


def _differential_cases(rng):
    def coeff():
        digits = rng.randint(1, 30)
        return rng.randint(-(10**digits), 10**digits)

    def planted(roots, mult):
        p = [rng.choice([-1, 1]) * rng.randint(1, 10**6)]
        for r in roots:
            for _ in range(mult):
                p = polys.mul(p, [-r, 1])
        return p

    for _ in range(120):
        deg = rng.randint(1, 8)
        p = [coeff() for _ in range(deg)] + [coeff() or 1]
        yield p
        yield p[:-1] + [LEAD_ALL_PRIMES_BELOW_50 * rng.choice([-1, 1, 7])]
    for _ in range(60):
        roots = [rng.randint(-(10**12), 10**12) for _ in range(rng.randint(1, 3))]
        cofactor = [coeff() for _ in range(rng.randint(1, 3))] + [rng.randint(1, 99)]
        yield polys.mul(planted(roots, 1), cofactor)  # simple roots
        yield polys.mul(planted(roots, 2), cofactor)  # double roots
        yield polys.mul(planted(roots, rng.randint(1, 2)), [rng.choice([-1, 1]), LEAD_ALL_PRIMES_BELOW_50])
    for _ in range(40):
        # (x - a)^2 + 105 t: a double root mod 3, 5 and 7, no real root at all
        a, t = rng.randint(-(10**9), 10**9), rng.randint(1, 10**9)
        quad = [a * a + 105 * t, -2 * a, 1]
        yield quad
        yield polys.mul(quad, planted([rng.randint(-999, 999)], rng.randint(1, 2)))


def test_roots_match_fraction_euclid():
    rng = random.Random(4)
    for p in _differential_cases(rng):
        assert polys.squarefree_part(p) == _oracle_squarefree_part(p), p
        assert polys.integer_roots(p) == _oracle_integer_roots(p), p
        assert polys.rational_roots(p) == _oracle_rational_roots(p), p


def test_radical_taken_only_when_every_small_prime_repeats(monkeypatch):
    """integer_roots lifts from the input itself unless every odd prime below
    polys._RADICAL_AFTER shows a repeated root; then it takes the radical."""
    n = LEAD_ALL_PRIMES_BELOW_50  # 614889782588491410
    primes = [p for p in range(2, polys._RADICAL_AFTER) if all(p % q for q in range(2, p))]
    assert all(n % p == 0 for p in primes)
    radicals = []
    real = polys.squarefree_part
    monkeypatch.setattr(polys, "squarefree_part", lambda cs: radicals.append(cs) or real(cs))
    cases = [
        # (x - 1)^2 (x + 5)(x - 3): the double root stays double mod every prime
        (polys.mul(polys.mul([-1, 1], [-1, 1]), polys.mul([5, 1], [-3, 1])), True),
        # x (x - n): the roots meet mod every prime below 50; 0 is split off first
        (polys.mul([0, 1], [-n, 1]), False),
        # squarefree, yet 1 and 1 + n meet mod every prime below 50
        (polys.mul([-1, 1], [-1 - n, 1]), True),
        (polys.mul(polys.mul([-1, 1], [-1 - n, 1]), [1, 0, 1]), True),
        # simple roots mod 3 already: no radical
        (polys.mul(polys.mul([-2, 1], [1, 1]), [1, 1, 1]), False),
        (polys.mul([-1, 1], [-1 - 3 * n, 1]), True),
        (polys.mul([-1, 1], [-1 - n // 47, 1]), False),
    ]
    for p, radical in cases:
        radicals.clear()
        roots = polys.integer_roots(p)
        assert bool(radicals) == radical, p
        assert roots == _oracle_integer_roots(p), p
        assert polys.rational_roots(p) == _oracle_rational_roots(p), p


def _halving_quartics():
    """Halving quartics of probe points on three family members: C and
    C + each canonical point, for every C the search finds."""
    for m, p, q, r in ((2, 3, 7, 11), (34, 3, 5, 7), (2, 3, 5, 13)):
        params = FamilyParams(m, p, q, r)
        curve = build_family_curve(params)
        pts = canonical_points(params)
        for cand in search_points(curve, 300):
            if cand.y == 0:
                continue
            for target in (cand, *(add(curve, cand, pt) for pt in pts)):
                if not target.is_infinity:
                    yield list(halving_quartic(curve, target))


def test_no_root_primes_match_fraction_euclid():
    """integer_roots returns early when some prime in _NO_ROOT_PRIMES shows
    no root; these cases have a root mod every prime, planted roots, or
    are halving quartics, and must agree with the Fraction oracle."""
    rng = random.Random(9)
    everywhere = [
        polys.mul(polys.mul([-2, 0, 1], [-3, 0, 1]), [-6, 0, 1]),  # (x^2-2)(x^2-3)(x^2-6)
        polys.mul([3, 0, 1], [-2, 0, 0, 1]),  # (x^2+3)(x^3-2)
    ]
    for p in everywhere:
        for q in polys._NO_ROOT_PRIMES:
            assert any(polys.evaluate_mod(p, x, q) == 0 for x in range(q)), (p, q)
    cases = list(everywhere)
    for p in everywhere:
        cases.append(polys.mul(p, [-rng.randint(-10**6, 10**6), 1]))  # planted integer root
        cases.append(polys.mul(p, [rng.randint(1, 999), -rng.choice([2, 3, 35, 391])]))  # rational
    for _ in range(60):
        roots = [rng.randint(-(10**9), 10**9) for _ in range(rng.randint(1, 3))]
        planted = [rng.choice([-1, 1])]
        for x in roots:
            planted = polys.mul(planted, [-x, 1])
        cofactor = [rng.randint(-(10**6), 10**6) for _ in range(rng.randint(1, 3))] + [1]
        cases.append(polys.mul(planted, cofactor))
        u, v = rng.randint(-999, 999), rng.randint(2, 999)
        cases.append(polys.mul([-u, v], cofactor))  # root u/v when gcd(u, v) = 1
    quartics = list(_halving_quartics())
    assert len(quartics) >= 40
    cases += quartics
    with_roots = 0
    for p in cases:
        assert polys.integer_roots(p) == _oracle_integer_roots(p), p
        found = polys.rational_roots(p)
        assert found == _oracle_rational_roots(p), p
        with_roots += bool(found)
    assert with_roots >= 100


def test_has_root_mod_matches_full_residue_scan():
    """The no-root test stops at the first root; it must agree with the
    scan of every residue, with or without a root, and with huge or
    negative coefficients."""
    rng = random.Random(12)
    for _ in range(300):
        p = [rng.randint(-(10**30), 10**30) for _ in range(rng.randint(2, 6))]
        if rng.random() < 0.5:
            p = polys.mul(p, [-rng.randint(-50, 50), 1])  # a root mod every prime
        for q in polys._NO_ROOT_PRIMES:
            assert polys._has_root_mod(p, q) == bool(polys._roots_mod(p, q)), (p, q)
