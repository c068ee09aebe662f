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

BUILDERS = (descent._square_pattern, torsion._cubic_values, descent._doubled_x_table)


def _sizes():
    return [builder.cache_info().currsize for builder in BUILDERS]


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


def _direct_values(b, c, n, k=1, a=0):
    """F(k r + a) mod n for 0 <= r < n, with F = x^3 + bx + c evaluated
    on the full coefficients."""
    return [polys.evaluate_mod([c, b, 0, 1], k * r + a, n) for r in range(n)]


def _direct_pattern(b, c, n, k, a):
    """Bit r set when F(k r + a) is a square mod n; None when all are."""
    squares = {r * r % n for r in range(n)}
    bits = [v in squares for v in _direct_values(b, c, n, k, a)]
    if all(bits):
        return None
    return sum(1 << r for r, bit in enumerate(bits) if bit)


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
            for n in descent._SIEVE_MODULI:
                got = descent._square_pattern(n, k, a, b % n, c % n)
                assert got == _direct_pattern(b, c, n, k, a), (b, c, n, k, a)
        for q in descent._HALVING_SIEVE_PRIMES:
            table = descent._doubled_x_table(q, b % q, c % q)
            assert table == _direct_doubled_x(b, c, q), (b, c, q)
            if table is None:
                bad_primes.add(q)
        for n in torsion._CANDIDATE_MODULI:
            assert torsion._cubic_values(n, b % n, c % n) == set(_direct_values(b, c, n)), (b, c, n)
    assert bad_primes == set(descent._HALVING_SIEVE_PRIMES)


def test_curves_with_equal_residues_share_tables(monkeypatch):
    """A curve whose b and c are those of another plus multiples of every
    modulus adds no entry to any table.  The entries are looked up by the
    callers themselves, so a key they fail to reduce shows here."""
    params = FamilyParams(66, 5, 7, 13)
    curve, s = build_family_curve(params), 5 * 7 * 13
    shift = lcm(*descent._SIEVE_MODULI, *descent._HALVING_SIEVE_PRIMES, *torsion._CANDIDATE_MODULI)
    twin = Curve(curve.b + shift, (s + shift) ** 2)  # (s + shift)^2 = c (mod shift)

    def fill(cv, point):
        descent.search_points(cv, 40, 6)  # w up to 6 runs all four progressions
        descent.class_is_nonzero(cv, point)
        torsion.integral_torsion_candidates(cv)

    fill(curve, Point(0, s))
    sizes = _sizes()
    # The twin's 82-digit discriminant outlasts the rho budget; the value
    # sets are read before the y loop, so a square part of 1 still reads them.
    monkeypatch.setattr(torsion, "square_part_root", lambda n: {})
    fill(twin, Point(0, s + shift))
    assert _sizes() == sizes


def test_tables_stay_within_their_residue_bounds():
    for builder in BUILDERS:  # drop the other progressions the tests above built
        builder.cache_clear()
    run_sweep(SweepSpec(m_values=(2, 34, 66), prime_pool=(3, 5, 7, 11, 13), height_bound=60,
                        den_bound=6, num_reduction_primes=3))
    squares = [sum(n * n for n in moduli)
               for moduli in (descent._SIEVE_MODULI, torsion._CANDIDATE_MODULI,
                              descent._HALVING_SIEVE_PRIMES)]
    bounds = [len(PROGRESSIONS) * squares[0], *squares[1:]]
    assert bounds == [42_872, 2_528, 1_552]
    assert all(0 < size <= bound for size, bound in zip(_sizes(), bounds))
