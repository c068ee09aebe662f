"""The residue-keyed sieve tables: the search sieve's square patterns, the
halving sieve's doubled-x tables and the Nagell-Lutz candidate sets.

Each entry must equal what a direct computation from the curve's own
coefficients gives, curves whose coefficients agree modulo every sieve
modulus must share entries, and no sweep may grow a table past the number
of residue keys it can have.
"""
import random
from math import lcm

from ecrank import descent, polys, torsion
from ecrank.curves import Curve, Point
from ecrank.family import FamilyParams, build_family_curve
from ecrank.records import SweepSpec, run_sweep

# search_points' progressions u = k v + a: k is 1, 8, 3 or 24 and a = 1 mod k
PROGRESSIONS = ((1, 0), (8, 1), (3, 1), (24, 1))
# The same steps at other offsets, and other steps at the same offsets: a
# key that drops the step or the offset hands one progression's pattern to
# another with the same residues.
SHIFTED = ((1, 1), (8, 5), (3, 2), (24, 13))

TABLES = (descent._SQUARE_PATTERNS, torsion._CANDIDATE_SETS)
HALVING = descent._doubled_x_table


def _sizes():
    return [len(table.memo) for table in TABLES] + [HALVING.cache_info().currsize]


def _coefficients(rng):
    """(b, c) of both signs and 1 to 40 digits, then, for each halving
    prime q, pairs with q | 4b^3 + 27c^2: b = -3s^2 and c = 2s^3 make it
    vanish, and so do shifts of b and c by multiples of q."""
    pairs = []
    for digits in range(1, 41):
        for _ in range(2):
            b, c = (rng.choice((1, -1)) * rng.randrange(10 ** (digits - 1), 10**digits)
                    for _ in range(2))
            pairs.append((b, c))
    for q in descent._HALVING_SIEVE_PRIMES:
        for _ in range(3):
            s = rng.randrange(-10**6, 10**6)
            b = -3 * s * s + q * rng.randrange(-10**30, 10**30)
            pairs.append((b, 2 * s**3 + q * rng.randrange(-10**30, 10**30)))
    return pairs


def _direct_pattern(b, c, n, k, a):
    """Bit r set when F(k r + a) is a square mod n; None when all are."""
    values = polys.cubic_value_tables(b, c, (n,), k, a)[0]
    digits = bytes(values).translate(descent._SQUARE_DIGITS[n])
    if b"0" not in digits:
        return None
    return sum(1 << r for r, digit in enumerate(digits) if digit == ord("1"))


def _direct_doubled_x(b, c, q):
    """The halving sieve's table by the direct loop over x mod q."""
    if (4 * b**3 + 27 * c * c) % q == 0:
        return None
    table = bytearray(q)
    for x in range(q):
        fx = (x**3 + b * x + c) % q
        if fx:
            table[((x * x - b) ** 2 - 8 * c * x) * pow(4 * fx, -1, q) % q] = 1
    return bytes(table)


def test_tables_match_direct_computation():
    rng = random.Random(19)
    pairs = _coefficients(rng)
    bad_primes = set()
    for b, c in pairs:
        for k, a in PROGRESSIONS + SHIFTED:
            got = descent._SQUARE_PATTERNS(b, c, k, a)
            want = [_direct_pattern(b, c, n, k, a) for n in descent._SIEVE_MODULI]
            assert got == want, (b, c, k, a)
        for q in descent._HALVING_SIEVE_PRIMES:
            table = HALVING(q, b % q, c % q)
            assert table == _direct_doubled_x(b, c, q), (b, c, q)
            if table is None:
                bad_primes.add(q)
        want = [frozenset(polys.cubic_value_tables(b, c, (n,))[0]) for n in torsion._CANDIDATE_MODULI]
        assert torsion._CANDIDATE_SETS(b, c) == want, (b, c)
    assert bad_primes == set(descent._HALVING_SIEVE_PRIMES)


def test_curves_with_equal_residues_share_tables():
    """A curve whose b and c are those of another plus multiples of every
    modulus adds no entry to any table."""
    params = FamilyParams(66, 5, 7, 13)
    curve, s = build_family_curve(params), 5 * 7 * 13
    shift = lcm(*descent._SIEVE_MODULI, *descent._HALVING_SIEVE_PRIMES, *torsion._CANDIDATE_MODULI)
    twin = Curve(curve.b + shift, (s + shift) ** 2)  # (s + shift)^2 = c (mod shift)

    def fill(cv, point):
        descent.search_points(cv, 40, 6)  # w up to 6 runs all four progressions
        descent.class_is_nonzero(cv, point)
        torsion._CANDIDATE_SETS(cv.b, cv.c)

    fill(curve, Point(0, s))
    torsion.integral_torsion_candidates(curve)
    sizes = _sizes()
    fill(twin, Point(0, s + shift))
    assert _sizes() == sizes


def test_tables_stay_within_their_residue_bounds():
    for table in TABLES:  # drop the other progressions the tests above built
        table.memo.clear()
    HALVING.cache_clear()
    run_sweep(SweepSpec(m_values=(2, 34, 66), prime_pool=(3, 5, 7, 11, 13), height_bound=60,
                        den_bound=6, num_reduction_primes=3))
    squares = [sum(n * n for n in moduli)
               for moduli in (descent._SIEVE_MODULI, torsion._CANDIDATE_MODULI,
                              descent._HALVING_SIEVE_PRIMES)]
    bounds = [len(PROGRESSIONS) * squares[0], *squares[1:]]
    assert bounds == [42_872, 2_528, 1_552]
    assert all(0 < size <= bound for size, bound in zip(_sizes(), bounds))
    for table in TABLES:
        for n, step, offset, bn, cn in table.memo:
            assert n in table.moduli and 0 <= bn < n and 0 <= cn < n
    assert {key[1:3] for key in descent._SQUARE_PATTERNS.memo} == set(PROGRESSIONS)
    assert {key[1:3] for key in torsion._CANDIDATE_SETS.memo} == {(1, 0)}
