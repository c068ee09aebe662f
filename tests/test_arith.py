import random

import pytest

from ecrank.arith import (
    divisors,
    exact_sqrt,
    factorize,
    is_prime,
    primes_from,
    rational_sqrt,
    two_adic_valuation,
)
from ecrank.errors import FactorizationIncomplete
from fractions import Fraction


def test_is_prime_small_cases():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-5, 43):
        assert is_prime(n) == (n in primes)


def test_is_prime_rejects_carmichael_and_strong_pseudoprimes():
    assert not is_prime(561)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert not is_prime(341550071728321)


def test_is_prime_large():
    assert is_prime(2**31 - 1)
    assert is_prime(1_000_000_007)
    assert not is_prime((2**31 - 1) * (2**61 - 1))
    # above the proven-deterministic bound the extra witness set is used
    assert is_prime(2**89 - 1)
    assert not is_prime(2**83 - 1)  # 167 divides it


def test_primes_from():
    gen = primes_from(3)
    assert [next(gen) for _ in range(6)] == [3, 5, 7, 11, 13, 17]


def test_factorize_roundtrip_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2, 10**9)
        fs = factorize(n)
        prod = 1
        for p, e in fs.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_semiprime():
    p, q = 1_000_003, 10_000_019
    assert factorize(p * q) == {p: 1, q: 1}


def test_factorize_family_discriminant():
    fs = factorize(-1230075206576)
    prod = 1
    for p, e in fs.items():
        prod *= p**e
    assert prod == 1230075206576
    assert fs[2] == 4


def test_factorize_budget_raises():
    # two 19-digit primes; a tiny rho budget cannot split the product
    p = 1000000000000000003
    q = 1000000000000000009
    with pytest.raises(FactorizationIncomplete):
        factorize(p * q, rho_budget=10)


def test_divisors_matches_bruteforce():
    for n in (1, 2, 12, 36, 53361, 97):
        ds = divisors(factorize(n))
        assert ds == [d for d in range(1, n + 1) if n % d == 0]


def test_exact_and_rational_sqrt():
    assert exact_sqrt(0) == 0
    assert exact_sqrt(53361) == 231
    assert exact_sqrt(2) is None
    assert exact_sqrt(-4) is None
    assert rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)
    assert rational_sqrt(Fraction(2, 9)) is None
    assert rational_sqrt(Fraction(-1, 4)) is None


def test_two_adic_valuation():
    assert two_adic_valuation(32) == 5
    assert two_adic_valuation(-12) == 2
    assert two_adic_valuation(7) == 0
    with pytest.raises(ValueError):
        two_adic_valuation(0)
