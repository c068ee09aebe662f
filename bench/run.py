"""ecrank benchmark: one workload per invocation, every metric with its unit.

    python3 bench/run.py --workload verify-deep --seed 1 --seconds 30 --trace 0

Workloads: verify-deep, sweep-grid, recheck-grid, torsion-wide (see
bench/README.md).  With --trace 0 the run measures the end-to-end metrics
with tracing off: curves per second, median and tail curve time, peak
memory, and the set-up time of a fresh interpreter (SETUP_RUNS probes,
each against a start-up reference).  With --trace 1 it spends half of
--seconds on an untraced run and half on a traced one, and reports
per-layer metrics from the spans the benchmark records around calls into
each ecrank module.

Every curve is checked against results frozen from the seed code.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Run from a checkout that holds src/ecrank; anywhere
else the benchmark exits 2 without a result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 11
# A fresh interpreter that imports the standard-library modules the set-up
# probe imports, and nothing of ecrank: the start-up reference for setup_s.
STARTUP_REF = ("import argparse, contextlib, dataclasses, fractions, hashlib, io, json, "
               "random, statistics, tempfile")
# Time of STARTUP_REF on an unloaded 2-core Intel Xeon (Python 3.11).
STARTUP_NOMINAL_S = 0.050

END_TO_END = {  # name: unit, as listed in BENCHMARK.json and put in the result line
    "setup_s": "s",
    "curves_per_s": "1/s",
    "curve_ms_p50": "ms",
    "curve_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
# failed_frac is printed but kept out of the result line: it is 0 on correct
# code, and the result line carries failed and attempted.

# name: (unit, better).  Counts and times are per traced curve, so a layer
# that gets faster shows up even though the run then completes more curves.
PER_LAYER = {
    "descent.search_points.calls": ("count/curve", "lower"),
    "descent.search_points.s": ("s/curve", "lower"),
    "descent.search_points.scanned": ("count/curve", "lower"),
    "descent.search_points.found": ("count/curve", "higher"),
    "descent.class_is_nonzero.calls": ("count/curve", "lower"),
    "descent.class_is_nonzero.s": ("s/curve", "lower"),
    "descent.probe.independent_ratio": ("ratio", "higher"),
    "descent.rank_ge2_certificate.s": ("s/curve", "lower"),
    "torsion.order_bound.s": ("s/curve", "lower"),
    "torsion.candidates.s": ("s/curve", "lower"),
    "torsion.candidates.count": ("count/curve", "lower"),
    "torsion.nagell_lutz.s": ("s/curve", "lower"),
    "reduction.count_points.calls": ("count/curve", "lower"),
    "reduction.count_points.s": ("s/curve", "lower"),
    "reduction.count_points.ell_sum": ("count/curve", "lower"),
    "arith.factorize.calls": ("count/curve", "lower"),
    "arith.factorize.s": ("s/curve", "lower"),
    "arith.factorize.fail": ("count/curve", "lower"),
    "arith.is_prime.calls": ("count/curve", "lower"),
    "polys.integer_roots.calls": ("count/curve", "lower"),
    "polys.integer_roots.s": ("s/curve", "lower"),
    "polys.rational_roots.calls": ("count/curve", "lower"),
    "polys.rational_roots.s": ("s/curve", "lower"),
    "curves.add.calls": ("count/curve", "lower"),
    "curves.add.s": ("s/curve", "lower"),
    "records.build_curve_record.s": ("s/curve", "lower"),
    "records.record_to_line.s": ("s/curve", "lower"),
    "records.bytes_out": ("bytes/curve", "lower"),
    "records.recheck_record.s": ("s/curve", "lower"),
    "records.recheck.mismatches": ("count/curve", "lower"),
    "records.sweep.wait_s": ("s/curve", "lower"),
    "records.sweep.busy_s": ("s/curve", "lower"),
    "records.sweep.pool_efficiency": ("ratio", "higher"),
    "cli.main.s": ("s/curve", "lower"),
    "trace.curves": ("count", "higher"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}
# per-layer entries that are a span's self time, and those that are counters
SELF_TIME = {name: name[: -len(".s")] for name in PER_LAYER if name.endswith(".s")}
COUNTERS = (
    "descent.search_points.calls", "descent.search_points.scanned", "descent.search_points.found",
    "descent.class_is_nonzero.calls", "torsion.candidates.count", "reduction.count_points.calls",
    "reduction.count_points.ell_sum", "arith.factorize.calls", "arith.factorize.fail",
    "arith.is_prime.calls", "polys.integer_roots.calls", "polys.rational_roots.calls",
    "curves.add.calls", "records.bytes_out", "records.recheck.mismatches",
)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples above it."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], f"max (n={n}: fewer than 11 samples)"
    return xs[n - 11], f"p{100 * (n - 10) / n:.1f} (n={n}, 10 samples above)"


def pass_tail(samples: list[float], per_pass: int) -> tuple[float, str]:
    """Median over the run's full passes over its inputs of each pass's tail().

    A pass is `per_pass` consecutive curves that together cover every input
    once: one grid on sweep-grid, one trip through the file on recheck-grid.
    The median over passes leaves out the passes that a burst of load from
    outside hit.  A run without a full pass takes tail() of all its curves.
    """
    passes = [samples[i:i + per_pass] for i in range(0, len(samples) - per_pass + 1, per_pass)]
    if not passes:
        value, label = tail(samples)
        return value, f"{label} of a partial pass over the {per_pass} inputs"
    label = tail(passes[0])[1]
    return (statistics.median(tail(p)[0] for p in passes),
            f"median over {len(passes)} passes of each pass's {label}")


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus, for a pool, `workers` times the
    largest pool child's peak (pages shared after fork count in each)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        kib += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib * 1024 / 1e6


def measure_setup(workload: str, seed: int) -> tuple[float, list[float], list[float]]:
    """Set-up time of a fresh interpreter that imports ecrank, builds the
    tiny certificate and loads the workload's inputs.

    Each of SETUP_RUNS probes runs right after a start-up reference (a fresh
    interpreter that only imports the standard library), and setup_s is
    STARTUP_NOMINAL_S times the median ratio of the two.  Start-up is
    process creation, file reads and unmarshalling, which the Fraction
    speed reference does not track; the adjacent start-up reference does.
    Returns setup_s and the raw probe and reference times.
    """
    probe = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)]
    reference = [sys.executable, "-c", STARTUP_REF]
    probes, refs = [], []
    for _ in range(SETUP_RUNS):
        for argv, times in ((reference, refs), (probe, probes)):
            t0 = time.perf_counter()
            subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - t0)
    setup_s = STARTUP_NOMINAL_S * statistics.median(p / r for p, r in zip(probes, refs))
    return setup_s, probes, refs


def layer_metrics(tracer, traced, untraced) -> dict[str, float]:
    n = len(traced.curves)
    self_s = tracer.self_times()
    counts = tracer.counts
    out = {name: self_s[span] / n for name, span in SELF_TIME.items()}
    out.update({name: counts[name] / n for name in COUNTERS})
    found = counts["descent.probe.found"]
    out["descent.probe.independent_ratio"] = counts["descent.probe.independent"] / found if found else 0.0
    sweep = untraced.sweep
    done = len(untraced.curves)
    out["records.sweep.wait_s"] = sweep.get("wait_s", 0.0) / done
    out["records.sweep.busy_s"] = sweep.get("busy_s", 0.0) / done
    wall = sweep.get("wall_s", 0.0)
    out["records.sweep.pool_efficiency"] = sweep["busy_s"] / (wall * untraced.workers) if wall else 0.0
    p50_traced = statistics.median(c.ms for c in traced.curves)
    p50_untraced = statistics.median(c.ms for c in untraced.curves)
    out["trace.curves"] = float(n)
    out["trace.overhead_ms"] = p50_traced - p50_untraced
    out["trace.overhead_frac"] = p50_traced / p50_untraced - 1
    return {name: out[name] for name in PER_LAYER}


# ---------------------------------------------------------------------------
# Run header
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def revision() -> str:
    """git revision of the checkout, or "unknown" outside a repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description="ecrank benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", help="with --trace 1, write every span here as jsonl")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, as one sample of setup_s, and exit")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ecrank" / "__init__.py").is_file():
        print(f"error: no ecrank sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    inputs = workloads.load(args.workload, args.seed)
    if args.setup_probe:
        return 0

    name = args.workload
    workers = workloads.default_workers(name)
    with tempfile.TemporaryDirectory(prefix=".bench_work_", dir=ROOT) as tmp:
        workdir = Path(tmp)
        if args.trace:
            untraced = workloads.run(name, inputs, args.seconds / 2, workers, workdir)
            tracer = Tracer()
            tracer.install()
            try:
                traced = workloads.run(name, inputs, args.seconds / 2, 1, workdir, tracer)
            finally:
                tracer.remove()
            runs = [untraced, traced]
        else:
            pace = workloads.Pace(workers)
            try:
                run = workloads.run(name, inputs, args.seconds, workers, workdir, pace=pace)
                rss = peak_rss_mb(workers)  # before the reference's processes end
            finally:
                pace.close()
            runs = [run]

    measured = runs[0]
    samples = [c.ms for c in measured.curves]
    per_pass = len(inputs)
    tail_ms, tail_label = pass_tail(samples, per_pass)
    attempted = sum(len(r.curves) for r in runs)
    failed = sum(r.failed for r in runs)
    header = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "revision": revision(),
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "loop": f"run_sweep pool of {measured.workers}" if name == "sweep-grid"
                else "closed, one caller",
        "samples": len(samples),
        "curve_ms_source": "records' timings.total_s" if name == "sweep-grid"
                           else "wall time of each call, timed from outside",
        "curve_ms_tail": tail_label,
        "tracing": "on (per-layer run, 1 worker)" if args.trace else "off",
        "time_scale": "per-layer times are wall time" if args.trace else
                      f"times in each unit of work are wall time x {workloads.REF_NOMINAL_S} s / "
                      "median time of the speed reference just before and after the unit; "
                      f"setup_s is {STARTUP_NOMINAL_S} s x the median ratio of set-up probe to "
                      "start-up reference; 'wall' lines are unscaled",
    }
    print("header " + json.dumps(header))

    if args.trace:
        values = layer_metrics(tracer, traced, untraced)
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
        wall = sum(c.ms for c in traced.curves) / 1000
        for span, s in tracer.self_times().most_common():
            print(f"self {span} = {s:.6f} s ({s / wall:.1%} of traced curve time)")
        if args.spans_out:
            tracer.write(args.spans_out)
    else:
        setup_s, probes, refs = measure_setup(name, args.seed)
        passed = sum(not c.failed for c in measured.curves)
        speeds = [pace.speed(k) for k in range(len(measured.unit_s))]
        scaled = [c.ms * speeds[c.unit] for c in measured.curves]
        values = {
            "setup_s": setup_s,
            "curves_per_s": passed / sum(t * v for t, v in zip(measured.unit_s, speeds)),
            "curve_ms_p50": statistics.median(scaled),
            "curve_ms_tail": pass_tail(scaled, per_pass)[0],
            "peak_rss_mb": rss,
        }
        units = END_TO_END
        wall = {
            "setup_s": statistics.median(probes),
            "curves_per_s": passed / sum(measured.unit_s),
            "curve_ms_p50": statistics.median(samples),
            "curve_ms_tail": tail_ms,
        }
        for key, value in wall.items():
            print(f"wall {key} = {value!r} {units[key]}")
        print(f"pace reference = {statistics.median(pace.samples) * 1000!r} ms "
              f"(n={len(pace.samples)}; {workloads.REF_NOMINAL_S * 1000:g} ms nominal), "
              f"speed min {min(speeds)!r} median {statistics.median(speeds)!r} "
              f"max {max(speeds)!r} over {len(speeds)} units")
        print(f"startup reference = {statistics.median(refs) * 1000!r} ms "
              f"(n={len(refs)}; {STARTUP_NOMINAL_S * 1000:g} ms nominal)")
        # the scaled per-curve times in run order, so that runs can be pooled
        # for a deeper tail
        print(f"samples curve_ms = {json.dumps([round(x, 3) for x in scaled])}")
    for key, value in values.items():
        print(f"{'layer' if args.trace else 'metric'} {key} = {value!r} {units[key]}")
    print(f"metric failed_frac = {failed / attempted!r} ratio ({failed} of {attempted} curves)")
    errors = [c.error for r in runs for c in r.curves if c.failed]
    for error in errors[:5]:
        print(f"failure: {error}")
    result = {
        "correct": all(r.correct for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
