"""The residue-keyed tables: the search sieve's square patterns, the
halving sieve's doubled-x tables, the Nagell-Lutz candidate sets and the
reduction bound's point counts.

Each entry must equal what a direct computation from the curve's own
coefficients gives, curves whose coefficients agree modulo every sieve
modulus must share entries, and no sweep may grow a table past the number
of residue keys it can have.  A forked sweep worker hands the entries it
builds back to its caller, so the next sweep's workers build none.
"""
import json
import os
import random
import subprocess
import sys
from math import lcm
from pathlib import Path

import pytest

from ecrank import descent, polys, torsion
from ecrank.arith import Memo
from ecrank.curves import Curve, Point
from ecrank.errors import BadReduction
from ecrank.family import FamilyParams, build_family_curve
from ecrank.records import SweepSpec, canonical_comparable, run_sweep
from ecrank.reduction import count_points, naive_point_count, reduce_curve

# search_points' progressions u = k v + a: k is 1, 8, 3 or 24 and a = 1 mod k
PROGRESSIONS = ((1, 0), (8, 1), (3, 1), (24, 1))
# The same steps at other offsets, and other steps at the same offsets: a
# key that drops the step or the offset hands one progression's pattern to
# another with the same residues.
SHIFTED = ((1, 1), (8, 5), (3, 2), (24, 13))

TABLES = (descent._SQUARE_PATTERNS, torsion._CUBIC_VALUES, descent._DOUBLED_X_TABLES,
          torsion._POINT_COUNTS)

# The odd primes below torsion._COUNT_TABLE_LIMIT, whose counts _POINT_COUNTS keeps
COUNTED_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# w up to 6 runs all four progressions
GRID = dict(m_values=(2, 34, 66), prime_pool=(3, 5, 7, 11, 13), height_bound=60, den_bound=6,
            num_reduction_primes=3)


def _sizes():
    return [len(table) for table in TABLES]


def _clear():
    for table in TABLES:
        table.clear()


def test_importing_the_cli_builds_no_entry():
    """A fresh `import ecrank.cli` leaves every residue table empty, and the
    tables a forked sweep worker sends back, those of Memo.registry, are
    these four: every Memo that descent and torsion bind."""
    code = ("import ecrank.cli; from ecrank.arith import Memo; "
            "print([len(table) for table in Memo.registry])")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert run.stdout.strip() == "[0, 0, 0, 0]"
    bound = [v for module in (descent, torsion) for v in vars(module).values()
             if isinstance(v, Memo)]
    assert {id(table) for table in TABLES} == {id(table) for table in bound}
    assert {id(table) for table in TABLES} == {id(table) for table in Memo.registry}


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


def _mask(block, n):
    """The n-bit mask a pattern block holds, checking that the block is
    eight whole periods of it; None stays None."""
    if block is None:
        return None
    bits = int.from_bytes(block, "little")
    mask = bits & ((1 << n) - 1)
    assert len(block) == n and bits == sum(mask << (n * i) for i in range(8)), (block, n)
    return mask


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
    bad_primes, bad_counts = set(), set()
    for b, c in pairs:
        for k, a in PROGRESSIONS + SHIFTED:
            for n in descent._SIEVE_MODULI:
                got = _mask(descent._SQUARE_PATTERNS[n, k, a, b % n, c % n], n)
                assert got == _direct_pattern(b, c, n, k, a), (b, c, n, k, a)
        for q in descent._HALVING_SIEVE_PRIMES:
            table = descent._DOUBLED_X_TABLES[q, b % q, c % q]
            assert table == _direct_doubled_x(b, c, q), (b, c, q)
            if table is None:
                bad_primes.add(q)
        for n in torsion._CANDIDATE_MODULI:
            assert torsion._CUBIC_VALUES[n, b % n, c % n] == set(_direct_values(b, c, n)), (b, c, n)
        curve = Curve(b, c)
        for ell in COUNTED_PRIMES:
            if (4 * b**3 + 27 * c * c) % ell:
                count = torsion._POINT_COUNTS[ell, b % ell, c % ell]
                assert count == count_points(reduce_curve(curve, ell)), (b, c, ell)
                assert count == naive_point_count(b, c, ell), (b, c, ell)
            else:
                with pytest.raises(BadReduction):
                    torsion._POINT_COUNTS[ell, b % ell, c % ell]
                bad_counts.add(ell)
    assert bad_primes == set(descent._HALVING_SIEVE_PRIMES)
    assert bad_counts >= bad_primes  # bad reduction at a halving prime is bad here too


def test_curves_with_equal_residues_share_tables(monkeypatch):
    """A curve whose b and c are those of another plus multiples of every
    modulus adds no entry to any table.  The entries are looked up by the
    callers themselves, so a key they fail to reduce shows here."""
    params = FamilyParams(66, 5, 7, 13)
    curve, s = build_family_curve(params), 5 * 7 * 13
    shift = lcm(*descent._SIEVE_MODULI, *descent._HALVING_SIEVE_PRIMES, *torsion._CANDIDATE_MODULI,
                *COUNTED_PRIMES)
    twin = Curve(curve.b + shift, (s + shift) ** 2)  # (s + shift)^2 = c (mod shift)

    def fill(cv, point):
        descent.search_points(cv, 40, 6)  # w up to 6 runs all four progressions
        descent.class_is_nonzero(cv, point)
        torsion.integral_torsion_candidates(cv)
        torsion.torsion_order_bound(cv, 5)

    fill(curve, Point(0, s))
    sizes = _sizes()
    # The twin's 82-digit discriminant outlasts the rho budget; the value
    # sets are read before the y loop, so a square part of 1 still reads them.
    monkeypatch.setattr(torsion, "square_part_root", lambda n: {})
    fill(twin, Point(0, s + shift))
    assert _sizes() == sizes


def _assert_within_bounds():
    squares = [sum(n * n for n in moduli)
               for moduli in (descent._SIEVE_MODULI, torsion._CANDIDATE_MODULI,
                              descent._HALVING_SIEVE_PRIMES, COUNTED_PRIMES)]
    bounds = [len(PROGRESSIONS) * squares[0], *squares[1:]]
    assert bounds == [42_872, 2_528, 1_552, 10_462]
    assert all(0 < size <= bound for size, bound in zip(_sizes(), bounds))


def test_tables_stay_within_their_residue_bounds():
    _clear()  # drop the other progressions the tests above built
    run_sweep(SweepSpec(**GRID), threads=1)
    _assert_within_bounds()
    patterns, values, doubled_x, counts = TABLES  # each holds just the keys the sweep asked for
    for n, k, a, bn, cn in patterns:
        assert n in descent._SIEVE_MODULI and 0 <= bn < n and 0 <= cn < n
    assert {key[1:3] for key in patterns} == set(PROGRESSIONS)
    for n, bn, cn in values:
        assert n in torsion._CANDIDATE_MODULI and 0 <= bn < n and 0 <= cn < n
    for q, bq, cq in doubled_x:
        assert q in descent._HALVING_SIEVE_PRIMES and 0 <= bq < q and 0 <= cq < q
    for ell, bl, cl in counts:
        assert ell in COUNTED_PRIMES and 0 <= bl < ell and 0 <= cl < ell


def _sweep(threads):
    """The grid's records, timings aside."""
    lines = run_sweep(SweepSpec(**GRID), threads=threads)
    return [canonical_comparable(json.loads(line)) for line in lines]


def _refuse(*key):
    raise AssertionError(f"built {key}")


@pytest.mark.parametrize("threads", [2, 3])
def test_forked_sweep_stays_within_the_residue_bounds(monkeypatch, threads):
    """A forked sweep leaves its caller with exactly the keys a serial sweep
    reads, the workers' entries equal to the builder's, and the next sweep
    of the grid, forked or not, builds nothing in any process."""
    _clear()
    serial = _sweep(1)
    keys = [set(table) for table in TABLES]
    _clear()
    assert _sweep(threads) == serial
    _assert_within_bounds()
    assert [set(table) for table in TABLES] == keys
    for table in TABLES:
        assert all(value == table.build(*key) for key, value in table.items())
        monkeypatch.setattr(table, "build", _refuse)  # a forked worker inherits it
    assert _sweep(threads) == serial
    assert _sweep(1) == serial
