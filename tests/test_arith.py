import json
import random
from bisect import bisect_left
from collections import Counter
from functools import cache
from itertools import combinations, permutations
from math import prod
from pathlib import Path

import pytest

from ecrank import arith
from ecrank.arith import (
    divisors,
    exact_sqrt,
    factorize,
    is_prime,
    primes_from,
    rational_sqrt,
    square_part_root,
    two_adic_valuation,
)
from ecrank.curves import discriminant
from ecrank.errors import FactorizationIncomplete
from ecrank.family import FamilyParams, build_family_curve
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


def _segment_0_windows():
    """The odd primes below 2^16 window by window, as the table cuts them."""
    width = (1 << 16) // len(arith._segment_windows(0))
    small = [p for p in ORACLE_PRIMES if 2 < p < 1 << 16]
    return [small[bisect_left(small, lo) : bisect_left(small, lo + width)] for lo in range(0, 1 << 16, width)]


def test_factorize_windows_match_trial_division():
    windows = [w for w in _segment_0_windows() if w]
    small = [p for w in windows for p in w]
    ends = [(w[0], w[-1]) for w in windows]
    cases = [0, 1, -1, 2, -2, 65521**2, 65537 * 65539, -65521 * 65537, 2**20 * 3**5 * 65521]
    for (first, last), (next_first, _) in zip(ends, ends[1:] + [(65537, None)]):
        cases += [first, -last, first * last, last * last, last * next_first]
        cases.append(-(last**2) * next_first)
    rng = random.Random(13)
    for _ in range(300):
        n = rng.choice([1, 2, 8])
        while n < 1 << 17:
            n *= rng.choice(small[: rng.choice([20, len(small)])])
        cases.append(rng.choice([1, -1]) * n)
    for n in cases:
        got, want = list(factorize(n).items()), _trial_division_oracle(n)
        assert dict(got) == want, n
        # trial division, not rho, finds every sieved prime, and in order
        sieved = [(p, e) for p, e in want.items() if p < 1 << 16]
        assert got[: len(sieved)] == sieved, n


def test_trial_division_walks_a_hit_window_to_its_last_prime():
    # several primes, and powers of them, behind one gcd hit: in window 0,
    # where the walk starts from 3, and in the first window above 2^16
    low = 3**5 * 5 * 7**2 * 1021
    assert list(factorize(-low).items()) == [(3, 5), (5, 1), (7, 2), (1021, 1)]
    assert arith._trial_division(low, 3, range(1)) == ({3: 5, 5: 1, 7: 2, 1021: 1}, 1)
    assert square_part_root(low) == {3: 2, 7: 1}
    high = 65537 * 65539**2
    assert list(arith._trial_division(high, 3, range(1, 32))[0].items()) == [(65537, 1), (65539, 2)]
    assert square_part_root(high) == {65539: 1}
    assert square_part_root(16 * low * high) == {2: 2, 3: 2, 7: 1, 65539: 1}


# Primes above 2^8 and below 2^16, in four different windows of the
# table: p^2 q and p q with p < q leave the cube-root scan of segment 0
# before q's window.
BETWEEN_2_8_AND_2_16 = (257, 1031, 4099, 65521)

# Primes below 2^16 whose cubes are planted: 313 and 65371 inside windows,
# 12289 and 64513 at the low ends of windows 12 and 63, so that their cubes
# sit exactly on the lo^3 <= R bound of the scan.
INSIDE_WINDOWS = (313, 65371)
WINDOW_LOW_ENDS = (12289, 64513)

# Primes on both sides of 2^16 and 2^21.  65537 and 2073601 are the low
# ends of windows of the segment table, so their cubes sit exactly on the
# lo^3 <= R bound of square_part_root.
BELOW_2_16 = (3, 65521)
BETWEEN_2_16_AND_2_21 = (65537, 65539, 2073601, 2097143)
ABOVE_2_21 = (2097169, 16777259)
NEAR_2_31 = (2147483647, 4294967291)

EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "data" / "expected.json"


def _square_part_oracle(n):
    """The square part from factorize, checked without the scan: the
    primes it names are prime by Miller-Rabin and multiply back to |n|."""
    factors = factorize(n)
    assert all(map(is_prime, factors)) and prod(p**e for p, e in factors.items()) == (abs(n) or 1), n
    return {p: e // 2 for p, e in factors.items() if e > 1}


def _planted():
    """Planted inputs as (n, primes): n is +- the product of `primes`,
    repeats included, so their factorization is known without a scan."""
    cases = [(2,) * e + (p,) * 3 for p in INSIDE_WINDOWS for e in (0, 4)]
    low = BETWEEN_2_8_AND_2_16
    cases += [(p, p, q) for p, q in combinations(low, 2)]
    cases += [(p, q) for p, q in combinations(low, 2)]
    mid = BETWEEN_2_16_AND_2_21 + ABOVE_2_21
    cases += [(p, p) for p in BELOW_2_16 + mid + NEAR_2_31]
    cases += [(p,) * 3 for p in BELOW_2_16 + mid]
    cases += [(p, p, q) for p, q in permutations(mid, 2)]
    cases += [(p, q) for p, q in combinations(mid + NEAR_2_31, 2)]
    cases += [(p, q, s) for p, q, s in combinations(mid, 3)]
    cases += [(2,) * 4 + (3,) * 5 + (p, p, q, q, r) for p, q, r in permutations(BELOW_2_16[1:] + mid[:4], 3)]
    cases = [(prod(c), c) for c in cases] + [(-prod(c), c) for c in cases[::3]]
    return cases + [(prod(c), c) for p in WINDOW_LOW_ENDS for c in ((p,) * 3, (2,) * 4 + (p,) * 3)]


def _check_against_primes(n, primes):
    """factorize and square_part_root against the primes n was built from;
    the primes below 2^16 come first and in increasing order."""
    want = Counter(primes)
    got = factorize(n)
    assert got == want, (n, primes)
    small = sorted(p for p in want if p < 1 << 16)
    assert list(got)[: len(small)] == small, (n, primes)
    assert square_part_root(n) == {p: e // 2 for p, e in want.items() if e > 1}, (n, primes)


@cache
def _primes_below_2_21():
    return _primes_below(1 << 21)


def _next_prime(n):
    return next(primes_from(n))


def _chunks():
    """(low end, next chunk's low end, primes in between) for every chunk of
    arith._CHUNK windows below 2^21 but the first, which is never tested."""
    width = arith._CHUNK * ((1 << 16) // len(arith._segment_windows(0)))
    oracle = _primes_below_2_21()
    return [(lo + 1, lo + width + 1, oracle[bisect_left(oracle, lo) : bisect_left(oracle, lo + width)])
            for lo in range(width, 1 << 21, width)]


def _chunk_edge_cases():
    """(n, primes) with primes of n at the edges of chunks the scan tests
    with one gcd: lo is a chunk's low end and top the next chunk's, and a
    chunk is tested when top^3 is at most what is left of n."""
    cases = []
    q63 = _next_prime(1 << 63)
    for i, (lo, top, primes) in enumerate(_chunks()):
        first, last = primes[0], primes[-1]
        assert first < lo + 1024 and last >= top - 1024, lo  # in its first and last window
        if top**3 >= 1 << 63:
            continue  # segment 31's last chunk: straddles the stop whenever R < 2^63
        # p^2 q in the first and in the last window of a tested chunk: q is
        # chosen above top^3 / p^2, so the chunk is tested while p divides n,
        # and from segment 1 on n stays below 2^63, so the window scan runs
        for p in (first, last):
            q = _next_prime(-(-(top**3) // p**2))
            assert p * p * q >= top**3 and (lo < 1 << 16 or p * p * q < 1 << 63)
            prefix = (2,) * 4 + (3,) * 5 if i % 2 else ()
            cases.append(((-1) ** i * prod(prefix) * p * p * q, (*prefix, p, p, q)))
        # two primes of n in one tested chunk
        q = _next_prime(-(-(top**3) // (first * last)))
        cases.append((first * last * q, (first, last, q)))
        if lo < 1 << 16:
            # squares and a cube in one tested chunk of segment 0, then a
            # prime cofactor on each side of 2^63 (Miller-Rabin or the rho stage)
            for big in (_next_prime(1 << 50), q63):
                cases.append((first**2 * last**3 * big, (first, first, last, last, last, big)))
                cases.append((last**3 * big, (last, last, last, big)))
    # chunks that straddle the stop: lo^3 <= n < top^3 with n's prime p in
    # the chunk below the stop; the cube roots fall mid-chunk in segments 0,
    # 1 and 17, and past 2^21 - 2^14 in segment 31's last chunk
    for lo, top, primes in [c for c in _chunks() if c[0] in (16385, 65537, 1130497)] + _chunks()[-1:]:
        p = primes[0]
        q = _next_prime(max(-(-((lo + top) // 2) ** 3 // p**2), p + 1))
        assert lo**3 <= p * p * q < min(top**3, 1 << 63), lo
        cases.append((p * p * q, (p, p, q)))
    return cases


def _family_discriminants():
    with open(EXPECTED, encoding="utf-8") as fh:
        deep = json.load(fh)["verify_deep"]
    params = [m["params"] for m in deep["fixed"] + deep["pool"]]
    assert len(params) == 32
    params += [(m, *t) for m in (2, 34, 66, 98, 130) for t in combinations((3, 5, 7, 11, 13), 3)]
    return [discriminant(build_family_curve(FamilyParams(*ps))) for ps in params]


def _cofactor(n):
    """What trial division by every prime below 2^16 leaves of n."""
    return prod(p**e for p, e in factorize(n).items() if p > 1 << 16)


def test_square_part_root_matches_factorize():
    planted = _planted()
    cofactors = [prod(p for p in primes if p > 1 << 16) for _, primes in planted]
    # the planted cofactors fall on both sides of 2^48 (no window needed)
    # and of 2^63 (the rho stage takes over)
    assert {c < 1 << 48 for c in cofactors if c > 1} == {True, False}
    assert {c < 1 << 63 for c in cofactors} == {True, False}
    for n, primes in planted:
        _check_against_primes(n, primes)
    for n in _family_discriminants() + [0, 1, -1, 2, 65521, 65537]:
        assert square_part_root(n) == _square_part_oracle(n), n


def test_chunk_gcd_finds_primes_at_chunk_edges():
    cases = _chunk_edge_cases()
    assert len(cases) > 250
    for n, primes in cases:
        _check_against_primes(n, primes)


@pytest.mark.parametrize("params", [(514, 17, 43, 47), (1954, 13, 47, 59)])
def test_square_part_root_reads_segment_0_once_before_rho(monkeypatch, params):
    # the two verify-deep members whose cofactor left by segment 0 is from
    # 2^63 up: the scan to its cube root has read every window of segment 0,
    # so the rho stage takes the cofactor without a second scan
    n = discriminant(build_family_curve(FamilyParams(*params)))
    assert _cofactor(n) >= 1 << 63
    want = _square_part_oracle(n)
    reads = []
    table = arith._segment_windows
    monkeypatch.setattr(arith, "_segment_windows", lambda k: reads.append(k) or table(k))
    assert square_part_root(n) == want
    assert reads == [0]


def test_square_part_root_stops_at_the_cube_root_below_2_16(monkeypatch):
    for p, q in combinations(BETWEEN_2_8_AND_2_16, 2):
        for n in (p * p * q, p * q):
            _, rest = arith._trial_division(n, 3, range(1))
            assert rest % q == 0, (p, q)  # q's window was never read
            assert square_part_root(n) == _square_part_oracle(n), (p, q)
    width = (1 << 16) // len(arith._segment_windows(0))
    for p in WINDOW_LOW_ENDS:
        assert p % width == 1 and is_prime(p)
        assert arith._trial_division(p**3, 3, range(1)) == ({p: 3}, 1)
        assert arith._trial_division(16 * p**3, 3, range(1)) == ({2: 4, p: 3}, 1)
    # on the README grid |Delta| / 16 < (2^16 + 1)^3, so the scan ends below
    # 2^16 and no primality test is needed to settle what it leaves
    grid = _family_discriminants()[-50:]
    want = [_square_part_oracle(n) for n in grid]

    def no_test(n):
        raise AssertionError(f"is_prime({n})")

    monkeypatch.setattr(arith, "is_prime", no_test)
    assert [square_part_root(n) for n in grid] == want


def test_square_part_root_settles_below_2_63_without_rho(monkeypatch):
    p, q, s = 65537, 2073601, 2097143
    below = [p**3, p * p * s, p * q * s, q * s, 16 * 3**5 * p * p * s, 1939308433 * 1658225953]
    want = [_square_part_oracle(n) for n in below]
    big = 2147483647 * 4294967311
    assert max(map(_cofactor, below)) < 1 << 63 <= big
    # with no rho budget any rho call raises, so a cofactor below 2^63 that
    # comes out right was settled without one
    monkeypatch.setattr(arith, "_RHO_BUDGET", 0)
    assert [square_part_root(n) for n in below] == want
    # a composite cofactor from 2^63 up goes to rho, and running out of
    # budget raises rather than answering from a partial factorization
    for n in (big, -16 * big):
        with pytest.raises(FactorizationIncomplete):
            square_part_root(n)


def test_prime_tables_match_the_oracle_sieve_and_build_lazily():
    oracle = _primes_below(1 << 21)
    assert arith.small_primes() == oracle[: bisect_left(oracle, 1 << 16)]
    for k in range(32):
        table = arith._segment_windows(k)
        width = (1 << 16) // len(table)
        assert width * len(table) == 1 << 16
        for j, product in enumerate(table):
            lo = max((k << 16) + width * j, 3)  # odd primes only: 2 is stripped apart
            hi = (k << 16) + width * (j + 1)
            assert product == prod(oracle[bisect_left(oracle, lo) : bisect_left(oracle, hi)])
    arith._segment_windows.cache_clear()
    square_part_root(65537 * 65539)  # below 2^48: no window above 2^16 reaches its cube root
    assert arith._segment_windows.cache_info().currsize == 1
    square_part_root(2073601**3)  # the cube of a window's low end in segment 31
    assert arith._segment_windows.cache_info().currsize == 32
