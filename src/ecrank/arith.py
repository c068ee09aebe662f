"""Integer plumbing: primality, factorization, divisors, exact square roots.

Everything here is deterministic.  Pollard rho walks a fixed parameter
schedule, so identical inputs always factor the same way; that property is
what makes the record files byte-reproducible.
"""
from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cache
from itertools import islice
from math import gcd, isqrt, prod

from .errors import FactorizationIncomplete

# The first 13 primes as witnesses are proven sufficient for every n below
# psi_13 = 3317044064679887385961981 (Sorenson-Webster); the first 12 are
# not, since psi_12 = 318665857834031151167461 is a strong pseudoprime to
# every prime base up to 37.  Inputs from psi_13 up get the extra witnesses
# below too; for this toolkit's desk-scale use the bound is never
# approached by anything whose primality actually matters.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXTRA = (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981

_SIEVE_LIMIT = 1 << 16

_TRIAL_BLOCK = 64  # consecutive small primes per gcd test in factorize
_RHO_BUDGET = 5_000_000  # Pollard rho iterations per composite before factorize gives up


@cache
def small_primes() -> list[int]:
    """Primes below 2^16, sieved once and cached."""
    sieve = bytearray([1]) * _SIEVE_LIMIT
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(_SIEVE_LIMIT) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(_SIEVE_LIMIT) if sieve[i]]


@cache
def _trial_blocks() -> list[tuple[tuple[int, ...], int]]:
    """The sieved primes in runs of _TRIAL_BLOCK, each with its product."""
    primes = small_primes()
    blocks = [tuple(primes[i : i + _TRIAL_BLOCK]) for i in range(0, len(primes), _TRIAL_BLOCK)]
    return [(block, prod(block)) for block in blocks]


def _mr_witness_says_composite(a: int, n: int, d: int, s: int) -> bool:
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic below psi_13 (3.3e24) by the fixed witness set."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = _MR_WITNESSES if n < _MR_PROVEN_BOUND else _MR_WITNESSES + _MR_EXTRA
    return not any(_mr_witness_says_composite(a, n, d, s) for a in witnesses)


def primes_from(start: int):
    """Yield primes >= start in increasing order, indefinitely.

    Below 2^16 they come from the sieve in small_primes(), with no
    primality test; from 2^16 on, each odd candidate is tested by is_prime.
    """
    primes = small_primes()
    yield from islice(primes, bisect_left(primes, start), None)
    n = max(start, _SIEVE_LIMIT) | 1
    while True:
        if is_prime(n):
            yield n
        n += 2


def _pollard_rho(n: int, budget: int) -> int:
    """One nontrivial factor of composite odd n, Brent's cycle variant.

    The (x0, c) schedule is fixed, so the returned factor is a function of
    n alone.  Raises FactorizationIncomplete when the iteration budget runs
    out before a factor splits off.
    """
    spent = 0
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r <<= 1
            spent += r
            if spent > budget:
                raise FactorizationIncomplete(f"rho budget exhausted on {n}")
        if g == n:
            g = 1
            ys_ = ys
            while g == 1:
                ys_ = (ys_ * ys_ + c) % n
                g = gcd(abs(x - ys_), n)
        if g != n:
            return g
    raise FactorizationIncomplete(f"rho parameter schedule exhausted on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.

    Trial division by the sieved primes first, Pollard rho for what is left.
    Trial division takes the primes a block at a time: one gcd with the
    block's product shows whether any of them divides n, and only then is n
    divided by each.  Raises FactorizationIncomplete instead of ever
    returning a wrong or partial answer.
    """
    n = abs(n)
    if n <= 1:
        return {}
    factors: dict[int, int] = {}
    for block, block_product in _trial_blocks():
        if block[0] * block[0] > n:
            break
        g = gcd(n, block_product)
        if g == 1:
            continue
        for p in block:
            if g % p == 0:
                while n % p == 0:
                    factors[p] = factors.get(p, 0) + 1
                    n //= p
    if n == 1:
        return factors
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m, _RHO_BUDGET)
        stack.append(d)
        stack.append(m // d)
    return factors


def divisors(factors: dict[int, int]) -> list[int]:
    """All positive divisors, sorted, from a factorization map."""
    out = [1]
    for p, e in factors.items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def exact_sqrt(n: int) -> int | None:
    """Integer square root of n when n is a perfect square, else None."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    rn = exact_sqrt(q.numerator)
    rd = exact_sqrt(q.denominator)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def two_adic_valuation(n: int) -> int:
    """Largest k with 2^k | n; n must be nonzero."""
    if n == 0:
        raise ValueError("2-adic valuation of 0 is unbounded")
    n = abs(n)
    k = 0
    while n % 2 == 0:
        n //= 2
        k += 1
    return k
