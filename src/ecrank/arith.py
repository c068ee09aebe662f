"""Integer plumbing: primality, factorization, divisors, exact square roots.

factorize and square_part_root share one trial-division scan over one table
of prime products, one per window of 512 odd numbers: cut from the sieved
primes below 2^16, and above that sieved lazily one 2^16-wide segment at a
time (about 0.47 MB up to 2^21).  The scan settles a chunk of 16 windows
that holds no prime of n with one gcd, and walks window by window only the
chunks that hit, the one the stop falls in, and the first, whose primes
below 16,384 divide most discriminants.  factorize scans below 2^16 up to
the square root and hands what is left to a Miller-Rabin and Pollard-rho
stage.  Nagell-Lutz needs only the square part of the discriminant, so
square_part_root scans only up to the cube root of what is left, settles
cofactors below 2^63 without rho, and hands those from 2^63 up straight to
the same rho stage, with no second scan below 2^16.

Memo is the dict that holds each sieve table of descent and torsion: an
entry is built from its key on first use, and entries built in another
process are added with update().

Everything here is deterministic.  Pollard rho walks a fixed parameter
schedule, so identical inputs always factor the same way; that property is
what makes the record files byte-reproducible.
"""
from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cache
from itertools import chain, compress, islice
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

_WINDOW = 512  # consecutive odd numbers per product in the segment table
_CHUNK = 16  # windows settled by one gcd when none of them holds a prime of n
_CUBE_SCAN_LIMIT = 1 << 63  # (2^21)^3: cofactors below it are settled without rho
_WINDOW_SCAN_FLOOR = (_SIEVE_LIMIT + 1) ** 3  # segment 1's first low end, cubed
_RHO_BUDGET = 5_000_000  # Pollard rho iterations per composite before the rho stage gives up


def _odd_sieve(base: int, divisors) -> bytearray:
    """Flags for the odd numbers in [base, base + 2^16), base a multiple of
    2^16; index i stands for base + 2i + 1.  A 0 marks a multiple of one of
    the odd `divisors` other than the divisor itself.  The divisors are read
    in increasing order until one's square reaches the top, so when they
    include every odd prime below that, every odd composite is marked.
    """
    half = _SIEVE_LIMIT // 2
    top = base + _SIEVE_LIMIT
    flags = bytearray([1]) * half
    for d in divisors:
        if d * d >= top:
            break
        first = max(d * d, -(-base // d) * d)
        if first % 2 == 0:
            first += d
        i = (first - base) // 2
        flags[i::d] = bytes(len(range(i, half, d)))
    return flags


@cache
def small_primes() -> list[int]:
    """Primes below 2^16, sieved once (odd numbers only) and cached."""
    flags = _odd_sieve(0, range(3, isqrt(_SIEVE_LIMIT), 2))
    flags[0] = 0  # 1 is not prime
    return [2, *compress(range(1, _SIEVE_LIMIT, 2), flags)]


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


@cache
def _segment_windows(k: int) -> tuple[int, ...]:
    """Products of the odd primes in [k 2^16, (k + 1) 2^16), one per window
    of _WINDOW consecutive odd numbers, in increasing order.

    Segment 0 is cut from small_primes().  Any other segment below 2^32 is
    sieved on its own, odd numbers only, by the primes from 7 to below
    2^16.  Only the odd numbers prime to 15 are read off the sieve, one
    residue class mod 30 at a time (index j of flags[j::15] stands for
    base + 2j + 1 plus a multiple of 30), so multiples of 3 and 5 are
    neither marked nor walked; the primes are merged back into order and
    live only while the segment is built.
    """
    base = k * _SIEVE_LIMIT
    if k == 0:
        primes = small_primes()[1:]
    else:
        flags = _odd_sieve(base, islice(small_primes(), 3, None))
        starts = [base + 2 * j + 1 for j in range(15)]
        classes = [
            compress(range(start, base + _SIEVE_LIMIT, 30), flags[j::15])
            for j, start in enumerate(starts)
            if start % 3 and start % 5
        ]
        primes = sorted(chain.from_iterable(classes))
    cuts = [bisect_left(primes, lo) for lo in range(base, base + _SIEVE_LIMIT, 2 * _WINDOW)]
    return tuple(prod(primes[a:b]) for a, b in zip(cuts, [*cuts[1:], len(primes)]))


def _trial_division(n: int, root: int, segments: range) -> tuple[dict[int, int], int]:
    """The primes of |n| that a scan of the table's `segments` finds, as
    {prime: exponent} in increasing order, and the cofactor.

    After the 2s, the windows are taken _CHUNK at a time.  A chunk that
    lies wholly below the stop, the next chunk's low end raised to `root`
    being at most n, is tested first: its window products W are reduced
    mod n, and when gcd(n, product of the residues), which is gcd(n,
    product of the W), is 1, no window of it can hit and the whole chunk
    is skipped.  The first chunk of segment 0, the primes below 16,384, is
    walked untested, since they divide most discriminants.  A walked chunk
    takes one gcd g per window, n being what is left by then.  Only on a
    hit are the window's odd numbers d tried, from its low end (from 3 in
    window 0) until g is used up: a composite d cannot divide g, and once
    g < d^2 what is left of g is one prime.  The scan stops at the first window
    whose low end lo has lo^root > n, so n has no prime factor below lo and
    fewer than root prime factors: 1 or prime for root = 2, 1, P, P^2 or PQ
    for 3.  A skipped chunk would neither have hit nor stopped the scan, so
    the stop, the factors found and their order are those of a walk over
    every window.
    """
    n = abs(n)
    twos = two_adic_valuation(n) if n else 0
    factors = {2: twos} if twos else {}
    n >>= twos
    span = 2 * _WINDOW  # integers per window
    for k in segments:
        table = _segment_windows(k)
        for c in range(0, len(table), _CHUNK):
            lo = k * _SIEVE_LIMIT + c * span + 1
            chunk = table[c : c + _CHUNK]
            if (k or c) and (lo + _CHUNK * span) ** root <= n:
                # gcd(d, W mod n) = gcd(d, W) for every divisor d of n, so
                # the walk below may read the residues in place of W
                chunk = [w % n for w in chunk]
                if gcd(n, prod(chunk)) == 1:
                    continue
            for window in chunk:
                if lo**root > n:
                    return factors, n
                g = gcd(n, window)
                d = max(lo, 3)
                while g > 1:
                    if g < d * d:
                        d = g
                    if g % d == 0:
                        g //= d
                        factors[d] = 0
                        while n % d == 0:
                            factors[d] += 1
                            n //= d
                    d += 2
                lo += span
    return factors, n


def _split_by_rho(n: int, factors: dict[int, int]) -> dict[int, int]:
    """`factors` with the primes of n added, n odd and left by a scan of
    segment 0: Miller-Rabin on each part, Pollard rho to split a composite
    one.  Raises FactorizationIncomplete when rho runs out of budget.
    """
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


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.

    Trial division by the sieved primes first, Pollard rho for what is
    left.  Raises FactorizationIncomplete instead of ever returning a wrong
    or partial answer.
    """
    if abs(n) <= 1:
        return {}
    factors, rest = _trial_division(n, 2, range(1))
    return _split_by_rho(rest, factors)


def square_part_root(n: int) -> dict[int, int]:
    """{p: e // 2} over the p^e || n with e >= 2.

    The y with y^2 | n are the divisors of the product of p^(e // 2), so
    no prime that divides n only once needs to be split off, and no prime
    above the cube root of what is left: a number with no prime factor up
    to its own cube root is 1, P, P^2 or PQ, and only P^2, which
    exact_sqrt spots, adds to the answer (Crandall-Pomerance, Prime
    Numbers, 5.1.2).  A composite cofactor R below 2^63 that outlasts the
    scan below 2^16 needs no Pollard rho either: the scan goes on up to
    2^21, the cube root of 2^63.  R >= 2^63 has outlasted the whole scan
    below 2^16 (its cube root is above 2^21), so it goes straight to the
    Miller-Rabin and Pollard-rho stage that factorize ends with, rho's
    budget included, and segment 0 is not scanned a second time.
    """
    factors, rest = _trial_division(n, 3, range(1))
    if rest >= _CUBE_SCAN_LIMIT:
        _split_by_rho(rest, factors)
        rest = 1
    elif rest >= _WINDOW_SCAN_FLOOR and not is_prime(rest):
        more, rest = _trial_division(rest, 3, range(1, 32))
        factors.update(more)
    root = exact_sqrt(rest)
    if rest > 1 and root is not None:
        factors[root] = 2
    return {p: e // 2 for p, e in factors.items() if e > 1}


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
    return (n & -n).bit_length() - 1


class Memo(dict):
    """A dict whose entry table[key] is build(*key), built on first use and
    kept; update() adds entries built elsewhere."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(*key)
        return value
