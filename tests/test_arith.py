import random

import pytest

from ecrank import arith
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


def test_is_prime_rejects_psi_12_and_psi_13():
    # psi_12 is a strong pseudoprime to every prime base up to 37, psi_13 to
    # every prime base up to 41: the smallest such numbers (Sorenson-Webster)
    psi_12 = 318665857834031151167461
    psi_13 = 3317044064679887385961981
    assert not is_prime(psi_12)
    assert not is_prime(psi_13)
    assert factorize(psi_12) == {399165290221: 1, 798330580441: 1}


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


def _trial_division_primes_from(start):
    n = max(2, start)
    while True:
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            yield n
        n += 1


@pytest.mark.parametrize("start", [0, 1, 2, 3, 4, 101, 65520, 65521, 65536, 65537, 65538])
def test_primes_from_across_the_sieve_limit(start):
    # the sieve covers [2, 2^16); from 2^16 on the stream tests candidates
    ours, oracle = primes_from(start), _trial_division_primes_from(start)
    got = [next(ours) for _ in range(12)]
    assert got == [next(oracle) for _ in range(12)]
    if start >= 65520:
        assert got[-1] > 1 << 16


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


def test_factorize_budget_raises(monkeypatch):
    # two 19-digit primes; a tiny rho budget cannot split the product
    monkeypatch.setattr(arith, "_RHO_BUDGET", 10)
    p = 1000000000000000003
    q = 1000000000000000009
    with pytest.raises(FactorizationIncomplete):
        factorize(p * q)


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


def _primes_below(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(limit) if sieve[i]]


ORACLE_PRIMES = _primes_below(1 << 17)


def _trial_division_oracle(n):
    """One prime at a time; exact for |n| < 2^34."""
    n, out = abs(n), {}
    for p in ORACLE_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    else:
        raise ValueError("outside the oracle's range")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_blocks_match_trial_division():
    from ecrank.arith import _TRIAL_BLOCK

    small = [p for p in ORACLE_PRIMES if p < 1 << 16]
    blocks = [small[i : i + _TRIAL_BLOCK] for i in range(0, len(small), _TRIAL_BLOCK)]
    ends = [(block[0], block[-1]) for block in blocks]
    cases = [0, 1, -1, 2, -2, 65521**2, 65537 * 65539, -65521 * 65537, 2**20 * 3**5 * 65521]
    for (first, last), (next_first, _) in zip(ends, ends[1:] + [(65537, None)]):
        cases += [first, -last, first * last, last * last, last * next_first]
        cases.append(-(last**2) * next_first)
    rng = random.Random(13)
    for _ in range(300):
        n = 1
        while n < 1 << 17:
            n *= rng.choice(small[: rng.choice([20, len(small)])])
        cases.append(rng.choice([1, -1]) * n)
    for n in cases:
        got, want = list(factorize(n).items()), _trial_division_oracle(n)
        assert dict(got) == want, n
        # trial division, not rho, finds every sieved prime, and in order
        sieved = [(p, e) for p, e in want.items() if p < 1 << 16]
        assert got[: len(sieved)] == sieved, n
