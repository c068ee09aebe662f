"""Workload inputs, the frozen oracle, and the closed-loop runners.

Every workload is one caller that starts the next curve only when the
previous one has finished; `sweep-grid` instead hands the whole grid to
`records.run_sweep` with a process pool.  A "curve" is one certificate
built or one record rechecked.  Every output is checked against results
frozen from the seed code (see freeze.py), and a curve that raises or
deviates, or whose check raises, is counted, never raised.

The program is always looked up through its module attributes at call
time (`records.build_curve_record`, not a name imported here), so the
tracer's wrappers see every call the benchmark makes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import multiprocessing
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from pathlib import Path

from ecrank import cli, records
from ecrank.family import FamilyParams

DATA = Path(__file__).resolve().parent / "data"
EXPECTED_PATH = DATA / "expected.json"
GRID_PATH = DATA / "grid_seed.jsonl"

# The README grid: 5 values of m times the 10 prime triples from the pool.
GRID = {"m_values": (2, 34, 66, 98, 130), "prime_pool": (3, 5, 7, 11, 13), "height_bound": 500}
SWEEP_WORKERS = 2
TAMPERED_PER_RUN = 3
TINY_PARAMS = (2, 3, 7, 11)
TINY_OPTIONS = {"reduction_primes": 3, "probe": False, "height_bound": 0, "den_bound": 1}


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def digest(record: dict) -> str:
    return hashlib.sha256(records.canonical_comparable(record).encode()).hexdigest()


def verdicts(record: dict) -> dict:
    """The per-curve facts frozen from the seed code."""
    probe = record["probe"]
    return {
        "torsion_order": record["torsion"]["order"],
        "rank_lower_bound": record["rank"]["rank_lower_bound"],
        "independent_found": probe["independent_found"] if probe else None,
        "digest": digest(record),
    }


def deviation(expected: dict, record: dict) -> str | None:
    """First frozen field the record disagrees with, or None."""
    got = verdicts(record)
    for key in ("torsion_order", "rank_lower_bound", "independent_found", "digest"):
        if got[key] != expected[key]:
            return f"{key}: expected {expected[key]!r}, got {got[key]!r}"
    return None


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def load_grid_lines() -> list[str]:
    with open(GRID_PATH, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class CurveResult:
    ms: float  # wall time of the call, up to its result or its failure
    error: str | None = None  # why the curve failed; None when it passed
    expected_failure: bool = False  # the seed code failed on this input the same way
    unit: int = 0  # index in Run.unit_s of the timed unit of work the curve was in

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def unexpected(self) -> bool:
        return self.failed and not self.expected_failure


@dataclass
class Run:
    curves: list[CurveResult]
    # wall time of each timed unit of work: one call in a serial loop, one
    # whole run_sweep on sweep-grid; checks and speed samples fall between
    unit_s: list[float]
    workers: int = 1
    # sweep-grid only: parent wait between completions, sum of the records'
    # timings.total_s, and wall time inside run_sweep
    sweep: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.curves)

    @property
    def correct(self) -> bool:
        return not any(c.unexpected for c in self.curves)


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

# Time of reference_work() on an unloaded 2-core Intel Xeon (Python 3.11).
REF_NOMINAL_S = 0.030


def reference_work() -> int:
    """Fixed exact arithmetic of the kind ecrank does (Fraction values of a
    cubic, integer square roots), independent of ecrank's code."""
    acc = 0
    for u in range(-2000, 2000):
        x = Fraction(u, 4)
        v = x * x * x - 4 * x + 53361
        acc += isqrt(v.numerator if v > 0 else 0)
    return acc


def timed_reference(_=None) -> float:
    """Seconds reference_work() takes (run in a pool worker by Pace)."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Pace:
    """Samples reference_work() between units of work to measure the
    machine's speed while each unit ran.

    On a shared machine the speed of the same code drifts by up to 2x within
    minutes, and within one run.  So the runners call gap() before the first
    unit and after every unit (one curve, or one grid on sweep-grid): it runs
    the reference at least once, and until it has taken SHARE of the unit's
    time.  speed(k) is REF_NOMINAL_S / the median of the samples in the gaps
    just before and just after unit k, and every time measured in unit k is
    multiplied by it.  The gaps are not part of any unit's time.

    With `workers` > 1 (sweep-grid's pool) the reference runs in that many
    processes at once, so that it meets the load from outside on every core
    the pool's workers ran on.  In six 30 s sweep-grid runs this halved the
    spread of the scaled curves_per_s against a reference in one process,
    and cut that of the median and tail curve time by a factor of three.
    close() stops those processes.
    """

    SHARE = 0.2

    def __init__(self, workers: int = 1):
        self.gaps: list[list[float]] = []
        self.workers = workers
        self._pool = multiprocessing.get_context("fork").Pool(workers) if workers > 1 else None

    def gap(self, busy_s: float) -> None:
        """Sample the reference after `busy_s` seconds of work."""
        start = time.perf_counter()
        samples: list[float] = []
        while True:
            if self._pool is None:
                samples.append(timed_reference())
            else:
                samples.extend(self._pool.map(timed_reference, range(self.workers)))
            if time.perf_counter() - start >= self.SHARE * busy_s:
                break
        self.gaps.append(samples)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def speed(self, unit: int) -> float:
        return REF_NOMINAL_S / statistics.median(self.gaps[unit] + self.gaps[unit + 1])

    @property
    def samples(self) -> list[float]:
        return [x for gap in self.gaps for x in gap]


# ---------------------------------------------------------------------------
# Serial workloads: one item is (input, expectation)
# ---------------------------------------------------------------------------


def call_verify(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def check_verify(expected: dict, output: tuple[int, str]) -> str | None:
    code, text = output
    if code != expected["exit"]:
        return f"exit code {code}, expected {expected['exit']}"
    return deviation(expected, json.loads(text.strip().splitlines()[-1]))


def checked(check, expected, output) -> str | None:
    """check(expected, output), with an exception it raises as the failure."""
    try:
        return check(expected, output)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


def call_torsion(params: list[int]) -> dict:
    return records.build_curve_record(FamilyParams(*params), probe=False)


def count_points_naive(b: int, c: int, ell: int) -> int:
    """#E(F_ell) of y^2 = x^3 + bx + c by Euler's criterion, without ecrank."""
    n = ell + 1
    for x in range(ell):
        v = (x * x * x + b * x + c) % ell
        if v:
            n += 1 if pow(v, (ell - 1) // 2, ell) == 1 else -1
    return n


def check_unfrozen_torsion(params: list[int], record: dict) -> str | None:
    """A certificate for a member on which the seed code raised, so that no
    verdicts were frozen for it.  It passes when it is for the member asked,
    recheck_record reproduces it, each stored #E(F_ell) is right, and the
    torsion order divides every one of them."""
    if [int(v) for v in record["params"].values()] != params:
        return f"record is for {record['params']}, expected {params}"
    if not records.recheck_record(record):
        return "a certificate the seed could not build does not recheck"
    m, p, q, r = params
    b, c = -m * m, (p * q * r) ** 2
    order = int(record["torsion"]["order"])
    for ell, n in record["torsion"]["reduction_counts"]:
        if int(n) != count_points_naive(b, c, int(ell)):
            return f"#E(F_{ell}) stored as {n}, counted {count_points_naive(b, c, int(ell))}"
        if int(n) % order:
            return f"torsion order {order} does not divide #E(F_{ell}) = {n}"
    return None


def check_torsion(expected: dict, record: dict) -> str | None:
    if "raises" in expected:
        return check_unfrozen_torsion(expected["params"], record)
    return deviation(expected, record)


def check_recheck(expected_ok: bool, ok: bool) -> str | None:
    if ok != expected_ok:
        return f"recheck said {ok}, expected {expected_ok}"
    return None


def run_serial(items, call, check, seconds: float, tracer=None, pace=None) -> Run:
    """Closed loop over `items` (cycled) until `seconds` have passed.

    At least one curve always runs.  Each call is its own timed unit.  The
    check runs after it, untraced and outside the unit's time.
    """
    curves: list[CurveResult] = []
    unit_s: list[float] = []
    start = time.perf_counter()
    if pace is not None:
        pace.gap(0.0)
    i = 0
    while True:
        arg, expected = items[i % len(items)]
        i += 1
        if tracer is not None:
            tracer.curve = i
        t0 = time.perf_counter()
        try:
            output = call(arg)
        except Exception as exc:  # counted as a failed curve, never raised
            t1 = time.perf_counter()
            name = type(exc).__name__
            seed_raised = isinstance(expected, dict) and expected.get("raises") == name
            error = f"raised {name}: {exc}"
        else:
            t1 = time.perf_counter()
            seed_raised = False
            with tracer.paused() if tracer is not None else contextlib.nullcontext():
                error = checked(check, expected, output)
        curves.append(CurveResult((t1 - t0) * 1000, error, seed_raised, len(unit_s)))
        unit_s.append(t1 - t0)
        if pace is not None:
            pace.gap(t1 - t0)
        if time.perf_counter() - start >= seconds:
            return Run(curves, unit_s)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def verify_items(expected: dict, seed: int) -> list:
    """The two fixed curves, then the frozen pool in a seeded order."""
    vd = expected["verify_deep"]
    pool = random.Random(seed).sample(vd["pool"], len(vd["pool"]))
    out = []
    for member in vd["fixed"] + pool:
        m, p, q, r = member["params"]
        argv = ["verify", "--m", str(m), "--p", str(p), "--q", str(q), "--r", str(r), "--json"]
        out.append((argv, member["expected"]))
    return out


def torsion_items(expected: dict, seed: int) -> list:
    """The frozen pool in a seeded order; each expectation carries its params."""
    pool = expected["torsion_wide"]["pool"]
    return [(m["params"], {**m["expected"], "params": m["params"]})
            for m in random.Random(seed).sample(pool, len(pool))]


def _tamper_slots(node, slots: list) -> None:
    """(container, key) for every stored count and coordinate string."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("x", "y") and isinstance(value, str):
                slots.append((node, key))
            elif key == "reduction_counts":
                slots.extend((pair, 1) for pair in value)
            else:
                _tamper_slots(value, slots)
    elif isinstance(node, list):
        for value in node:
            _tamper_slots(value, slots)


def tamper(record: dict, rng: random.Random) -> dict:
    """Copy of the record with one digit of one count or coordinate changed."""
    out = json.loads(json.dumps(record))
    slots: list = []
    _tamper_slots(out, slots)
    container, key = rng.choice(slots)
    text = container[key]
    pos = rng.choice([i for i, ch in enumerate(text) if ch.isdigit()])
    digit = rng.choice([d for d in "123456789" if d != text[pos]])
    container[key] = text[:pos] + digit + text[pos + 1 :]
    return out


def recheck_items(seed: int) -> list:
    """The seed-written grid file in file order, with TAMPERED_PER_RUN
    records (chosen with the seed) carrying one flipped digit."""
    rng = random.Random(seed)
    recs = [json.loads(line) for line in load_grid_lines()]
    tampered = set(rng.sample(range(len(recs)), TAMPERED_PER_RUN))
    return [
        (tamper(rec, rng) if i in tampered else rec, i not in tampered)
        for i, rec in enumerate(recs)
    ]


def grid_expectations() -> list[dict]:
    """Frozen verdicts of the grid, in SweepSpec.combos() order."""
    lines = load_grid_lines()
    combos = records.SweepSpec(**GRID).combos()
    recs = [json.loads(line) for line in lines]
    got = [tuple(int(v) for v in rec["params"].values()) for rec in recs]
    if got != combos:
        raise ValueError(f"{GRID_PATH} does not hold the grid in combo order")
    return [verdicts(rec) for rec in recs]


# ---------------------------------------------------------------------------
# sweep-grid
# ---------------------------------------------------------------------------


def run_sweep_grid(expected: list[dict], seconds: float, workers: int, workdir: Path,
                   tracer=None, pace=None) -> Run:
    """Whole grids through run_sweep until `seconds` have passed.

    Per-curve times are the records' own timings.total_s.  Each grid is
    written to a fresh file under `workdir`, which must match the returned
    lines; a sweep that raises counts its missing curves as failed.
    """
    curves: list[CurveResult] = []
    unit_s: list[float] = []
    sweep = {"wait_s": 0.0, "busy_s": 0.0, "wall_s": 0.0}
    start = time.perf_counter()
    if pace is not None:
        pace.gap(0.0)
    grid_no = 0
    while True:
        path = workdir / f"grid-{grid_no}.jsonl"
        spec = records.SweepSpec(**GRID, output_path=str(path))
        base = grid_no * len(expected)
        stamps: list[float] = []

        def progress(done, total):
            stamps.append(time.perf_counter())
            if tracer is not None:
                tracer.curve = base + done + 1

        if tracer is not None:
            tracer.curve = base + 1
        t0 = time.perf_counter()
        error = None
        try:
            lines = records.run_sweep(spec, threads=workers, progress=progress)
        except Exception as exc:  # counted against the grid's missing curves
            error = f"sweep raised {type(exc).__name__}: {exc}"
            lines = []
        t1 = time.perf_counter()
        on_disk = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
        path.unlink(missing_ok=True)
        if error is None and on_disk != lines:
            error = "file contents differ from the returned lines"
        sweep["wall_s"] += t1 - t0
        sweep["wait_s"] += (stamps[-1] - t0) if stamps else t1 - t0
        for i, exp in enumerate(expected):
            if i >= len(on_disk):  # timed as the wait until the sweep gave up
                problem = error or "record missing"
                curves.append(CurveResult((t1 - t0) * 1000, problem, unit=grid_no))
                continue
            try:
                rec = json.loads(on_disk[i])
                busy = float(rec["timings"]["total_s"])
            except Exception as exc:  # a record that cannot be read fails its curve
                problem = error or f"record unreadable: {type(exc).__name__}: {exc}"
                curves.append(CurveResult((t1 - t0) * 1000, problem, unit=grid_no))
                continue
            sweep["busy_s"] += busy
            problem = error or checked(deviation, exp, rec)
            curves.append(CurveResult(busy * 1000, problem, unit=grid_no))
        unit_s.append(t1 - t0)
        grid_no += 1
        if pace is not None:  # between grids, while the pool's workers are gone
            pace.gap(t1 - t0)
        if time.perf_counter() - start >= seconds:
            return Run(curves, unit_s, workers, sweep)


# ---------------------------------------------------------------------------
# Entry points used by run.py
# ---------------------------------------------------------------------------

NAMES = ("verify-deep", "sweep-grid", "recheck-grid", "torsion-wide")


def tiny_certificate() -> None:
    """The first certificate of a fresh interpreter: small enough to cost
    only the lazy set-up it triggers (the arith.small_primes sieve)."""
    record = records.build_curve_record(FamilyParams(*TINY_PARAMS), **TINY_OPTIONS)
    if record["rank"]["rank_lower_bound"] != 2 or record["torsion"]["order"] != "1":
        raise RuntimeError("the tiny certificate came out wrong")


def load(name: str, seed: int):
    """Set-up: the tiny certificate, then the workload's inputs."""
    tiny_certificate()
    if name == "verify-deep":
        return verify_items(load_expected(), seed)
    if name == "torsion-wide":
        return torsion_items(load_expected(), seed)
    if name == "recheck-grid":
        return recheck_items(seed)
    if name == "sweep-grid":
        return grid_expectations()
    raise ValueError(f"unknown workload {name!r}")


def default_workers(name: str) -> int:
    return SWEEP_WORKERS if name == "sweep-grid" else 1


def run(name: str, inputs, seconds: float, workers: int, workdir: Path, tracer=None,
        pace=None) -> Run:
    if name == "sweep-grid":
        return run_sweep_grid(inputs, seconds, workers, workdir, tracer, pace)
    call, check = {
        "verify-deep": (call_verify, check_verify),
        "torsion-wide": (call_torsion, check_torsion),
        "recheck-grid": (records.recheck_record, check_recheck),
    }[name]
    return run_serial(inputs, call, check, seconds, tracer, pace)
