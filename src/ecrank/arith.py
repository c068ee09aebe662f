"""Integer plumbing: primality, factorization, divisors, exact square roots.

factorize and square_part_root share one trial-division scan over one table
of primes: cut from the sieved primes below 2^16, and above that sieved
lazily one 2^16-wide segment at a time.  A segment is taken in chunks of
16 windows of 512 odd numbers.  Segment 0 keeps one product per window, and
the scan walks window by window its first chunk, whose primes below 16,384
divide most discriminants, and the chunk that its stop falls in.  Every
other chunk is held as the 2048-bit pieces of the products of its primes in
each half, and the scan settles a chunk that holds no prime of n with one
gcd: a half's sum(piece_i (2^(2048 i) mod n)) is its product mod n up to a
multiple of n, and multiplying a piece by a number below n is cheaper than
dividing it by n.  A hit walks segment 0's windows, and above 2^16 is split
from the chunk's gcd itself, so no window is kept there (the table up to
2^21 holds about 0.48 MB).  factorize scans below 2^16 up to the square
root and hands what is left to a Miller-Rabin and Pollard-rho stage.
Nagell-Lutz needs only the square part of the discriminant, so
square_part_root scans only up to the cube root of what is left.  It
settles a cofactor below 2^63 without rho: by Miller-Rabin, or by the scan
from 2^16 on to its cube root, below 2^21.  A cofactor from 2^63 up has
outlasted the scan below 2^16; rho splits one factor off it at a time, only
that factor is factored, and its primes are divided out in full, until what
is left is prime or below 2^63 and so goes to the same rule.  Miller-Rabin
takes only as many of the first 13 prime bases as its input's size needs:
below psi_t, the smallest strong pseudoprime to the first t prime bases,
those t bases are proven witnesses (Jaeschke 1993; Jiang-Deng 2014;
Sorenson-Webster 2017).

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
from operator import mul

from .errors import FactorizationIncomplete

# Below psi_t, the smallest strong pseudoprime to each of the first t prime
# bases, those t bases are proven Miller-Rabin witnesses: psi_1 to psi_8 by
# Jaeschke (Math. Comp. 61, 1993), psi_9 = psi_10 = psi_11 by Jiang-Deng
# (Math. Comp. 83, 2014), psi_12 and psi_13 by Sorenson-Webster (Math. Comp.
# 86, 2017).  Since psi_7 = psi_8, each grade is (psi_t, the first t bases)
# for the smallest t with that psi.  Inputs from psi_13 up get the extra
# witnesses below too; for this toolkit's desk-scale use that bound is never
# approached by anything whose primality actually matters.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_GRADES = tuple(
    (psi, _MR_WITNESSES[:t])
    for psi, t in (
        (2047, 1),
        (1_373_653, 2),
        (25_326_001, 3),
        (3_215_031_751, 4),
        (2_152_302_898_747, 5),
        (3_474_749_660_383, 6),
        (341_550_071_728_321, 7),
        (3_825_123_056_546_413_051, 9),
        (318_665_857_834_031_151_167_461, 12),
        (3_317_044_064_679_887_385_961_981, 13),
    )
)
_MR_EXTRA = (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107)

_SIEVE_LIMIT = 1 << 16

_WINDOW = 512  # consecutive odd numbers per product in the segment table
_CHUNK = 16  # windows settled by one gcd when none of them holds a prime of n
_PIECE_BITS = 2048  # bits per piece of a chunk's product
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
    """Miller-Rabin, deterministic below psi_13 (3.3e24): n takes the first
    t prime bases of the lowest grade psi_t above it (_MR_GRADES)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = next((w for psi, w in _MR_GRADES if n < psi), _MR_WITNESSES + _MR_EXTRA)
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


def _window_products(k: int) -> tuple[int, ...]:
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


# The window products the scan walks: only segment 0's are kept, since a hit
# above 2^16 is split from its chunk's gcd (_strip) and needs no window.
_segment_windows = cache(_window_products)


def _pieces(windows) -> tuple[int, ...]:
    """The product P of `windows` as _PIECE_BITS-bit pieces, lowest first:
    P = sum(piece_i 2^(_PIECE_BITS i)).  P comes from a product tree
    (pairs, then pairs of pairs), which multiplies operands of equal size."""
    while len(windows) > 1:
        windows = [prod(windows[i : i + 2]) for i in range(0, len(windows), 2)]
    (product,) = windows
    mask = (1 << _PIECE_BITS) - 1
    return tuple((product >> s) & mask for s in range(0, product.bit_length(), _PIECE_BITS))


@cache
def _segment_pieces(k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per chunk of segment k, the pieces of the products of its two halves
    of _CHUNK // 2 windows, built the first time a gate in the segment is
    read.  Halves spare the tree its largest multiplication, a third of
    the build, for one more reduction mod n per gate.  Segment 0's first
    chunk is walked untested and gets none, and segment 0 also keeps its
    window products, which its walks read (its pieces add about 10 KB);
    above 2^16 the window products are dropped once cut, so those
    segments hold their primes' bits once."""
    windows = _segment_windows(0) if k == 0 else _window_products(k)
    half = _CHUNK // 2
    return tuple(
        (_pieces(windows[c : c + half]), _pieces(windows[c + half : c + _CHUNK])) if k or c else ()
        for c in range(0, len(windows), _CHUNK)
    )


def _strip(n: int, g: int, d: int, factors: dict[int, int]) -> int:
    """n with each prime of g divided out in full and recorded in `factors`.

    g is a squarefree divisor of n with no prime below the odd d.  The odd
    numbers from d are tried until g is used up: a composite one cannot
    divide g, and once g < d^2 what is left of g is one prime.
    """
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
    return n


def _trial_division(n: int, root: int, segments: range) -> tuple[dict[int, int], int]:
    """The primes of |n| that a scan of the table's `segments` finds, as
    {prime: exponent} in increasing order, and the cofactor.

    After the 2s, the scan takes the table _CHUNK windows at a time and
    stops at the first chunk or window whose low end lo has lo^root > n:
    then n has no prime factor below lo and fewer than root prime factors,
    1 or prime for root = 2, 1, P, P^2 or PQ for 3.  The first chunk of
    segment 0, the primes below 16,384, is walked window by window, since
    they divide most discriminants, and so is a chunk of segment 0 that the
    stop falls in (the next chunk's low end to the root is above n): the
    walk reads only the windows below the stop, and a scan that ends in
    segment 0 without a gate, as on every README-grid discriminant, builds
    no pieces.  Every other chunk is gated first by g = gcd(n, P), P the
    product of its primes, and skipped when g = 1.  Each half H of the
    chunk's product is held as pieces, H = sum(piece_i 2^(b i)) with
    b = _PIECE_BITS, so sum(piece_i (2^(b i) mod n)) is H mod n up to a
    multiple of n, and g costs multiplications by numbers below n and two
    reductions of a sum of about b bits, in place of dividing P by n.  The
    powers are recomputed whenever n shrinks; those of a larger n would
    still give g, only on larger sums.  On a hit in segment 0 the chunk's
    windows are walked, one gcd per window, and _strip splits each
    window's gcd from the window's low end (from 3 in window 0), so there
    the stop, the factors found and their order are those of a walk over
    every window.  Above 2^16, where no window is kept, _strip splits g
    itself from the chunk's low end; the stop then falls on a chunk's low
    end, and a chunk that straddles it may add primes of n above it, which
    only leaves less to the caller.
    """
    n = abs(n)
    twos = two_adic_valuation(n) if n else 0
    factors = {2: twos} if twos else {}
    n >>= twos
    span = 2 * _WINDOW  # integers per window
    powers, reduced = [], 0  # 2^(_PIECE_BITS i) mod reduced, for reduced = n
    for k in segments:
        windows = _segment_windows(k) if k == 0 else ()
        chunks = None  # the segment's pieces, fetched by its first gate
        for c in range(0, _SIEVE_LIMIT // span, _CHUNK):
            lo = k * _SIEVE_LIMIT + c * span + 1
            if lo**root > n:
                return factors, n
            if k or (c and (lo + _CHUNK * span) ** root <= n):
                if chunks is None:
                    chunks = _segment_pieces(k)
                if reduced != n:
                    reduced, step, powers = n, pow(2, _PIECE_BITS, n), [1]
                r = 1  # P mod n, one half at a time
                for pieces in chunks[c // _CHUNK]:
                    while len(powers) < len(pieces):
                        powers.append(powers[-1] * step % n)
                    r = r * sum(map(mul, pieces, powers)) % n
                g = gcd(n, r)
                if g == 1:
                    continue
                if k:
                    n = _strip(n, g, lo, factors)
                    continue
            for window in windows[c : c + _CHUNK]:
                if lo**root > n:
                    return factors, n
                g = gcd(n, window)
                if g > 1:
                    n = _strip(n, g, max(lo, 3), factors)
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
    Numbers, 5.1.2).  So the scan below 2^16 runs to the cube root of what
    is left, and a cofactor R it leaves is settled by one rule when
    R < 2^63: R is prime, or the scan from 2^16 runs on to the cube root of
    R, which is below 2^21, with no Pollard rho.  R >= 2^63 has outlasted
    the whole scan below 2^16.  While it is composite and still 2^63 or
    more, Pollard rho splits off one factor, only that factor is factored
    (Miller-Rabin, and rho again on a composite part), and each of its
    primes is divided out of R in full; a remainder below 2^63 then goes
    to the rule above.  Raises FactorizationIncomplete when rho runs out
    of budget.
    """
    factors, rest = _trial_division(n, 3, range(1))
    while rest >= _CUBE_SCAN_LIMIT and not is_prime(rest):
        for p in _split_by_rho(_pollard_rho(rest, _RHO_BUDGET), {}):
            factors[p] = 0
            while rest % p == 0:
                factors[p] += 1
                rest //= p
    if _WINDOW_SCAN_FLOOR <= rest < _CUBE_SCAN_LIMIT and not is_prime(rest):
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
    kept: each residue table of descent and torsion is one.

    Memo.registry lists every Memo in the order they are made.  A table
    only grows, so what a forked process added to a table comes after the
    table's size at the fork: that slice of items(), per table in registry
    order, is what a forked sweep worker hands back, and update() keeps it
    in the caller."""

    __slots__ = ("build",)
    registry: list[Memo] = []

    def __init__(self, build):
        super().__init__()
        self.build = build
        Memo.registry.append(self)

    def __missing__(self, key):
        value = self[key] = self.build(*key)
        return value
