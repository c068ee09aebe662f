"""Freeze the benchmark's oracle from the code in src/.

Writes data/grid_seed.jsonl (the README grid as run_sweep writes it) and
data/expected.json (the verify-deep and torsion-wide pools with each
member's verdicts, or the exception it raises).  The files committed with
the benchmark were written by ecrank 0.1.0, the seed code; later code is
judged against them, so rerunning this on a later revision would move the
goalposts.  It refuses to overwrite existing files without --force.

    python3 bench/freeze.py [--force]

Takes about a minute on a 2-core machine.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src/ on the path)
from ecrank import __version__, records  # noqa: E402
from ecrank.arith import is_prime  # noqa: E402

FREEZE_SEED = 20240302
VERIFY_FIXED = ((2, 3, 7, 11), (34, 3, 5, 7))  # the worked example and the rank-3 find
VERIFY_POOL = 30
TORSION_POOL_PER_SIZE = 20


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo | 1, hi, 2) if is_prime(p)]


def verify_member(params) -> dict:
    m, p, q, r = params
    argv = ["verify", "--m", str(m), "--p", str(p), "--q", str(q), "--r", str(r), "--json"]
    code, text = workloads.call_verify(argv)
    expected = workloads.verdicts(json.loads(text.strip().splitlines()[-1]))
    return {"params": list(params), "expected": {"exit": code, **expected}}


def torsion_member(params) -> dict:
    try:
        expected = workloads.verdicts(workloads.call_torsion(list(params)))
    except Exception as exc:  # the seed's failure is part of the oracle
        expected = {"raises": type(exc).__name__}
    return {"params": list(params), "expected": expected}


def draw_verify_pool(rng: random.Random) -> list[tuple[int, ...]]:
    """Family members m = 2 + 32k (k < 64) with primes below 60."""
    small = _primes(3, 60)
    out: list[tuple[int, ...]] = []
    while len(out) < VERIFY_POOL:
        member = (2 + 32 * rng.randrange(64), *sorted(rng.sample(small, 3)))
        if member not in out and member not in VERIFY_FIXED:
            out.append(member)
    return out


def draw_torsion_pool(rng: random.Random) -> list[tuple[int, ...]]:
    """m = 2 + 32k (k < 10^4) with three 3-digit primes, then with three
    4-digit primes."""
    out: list[tuple[int, ...]] = []
    for lo, hi in ((100, 1000), (1000, 10000)):
        primes = _primes(lo, hi)
        for _ in range(TORSION_POOL_PER_SIZE):
            out.append((2 + 32 * rng.randrange(10**4), *sorted(rng.sample(primes, 3))))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--force", action="store_true", help="overwrite existing oracle files")
    args = ap.parse_args(argv)
    targets = (workloads.GRID_PATH, workloads.EXPECTED_PATH)
    if not args.force and any(p.exists() for p in targets):
        print("error: oracle files exist; pass --force to overwrite", file=sys.stderr)
        return 2
    workloads.DATA.mkdir(exist_ok=True)

    workloads.GRID_PATH.unlink(missing_ok=True)
    spec = records.SweepSpec(**workloads.GRID, output_path=str(workloads.GRID_PATH))
    records.run_sweep(spec, threads=workloads.SWEEP_WORKERS)

    rng = random.Random(FREEZE_SEED)
    verify_pool = draw_verify_pool(rng)
    torsion_pool = draw_torsion_pool(rng)
    expected = {
        "ecrank_version": __version__,
        "freeze_seed": FREEZE_SEED,
        "verify_deep": {
            "fixed": [verify_member(p) for p in VERIFY_FIXED],
            "pool": [verify_member(p) for p in verify_pool],
        },
        "torsion_wide": {"pool": [torsion_member(p) for p in torsion_pool]},
    }
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
