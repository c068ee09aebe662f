"""Machine-checkable curve records, their serialization, and sweeps.

A record is one JSON object with a fixed field order.  Every integer that
can grow without bound (parameters, coefficients, discriminants, counts,
coordinates) is serialized as a decimal string so arbitrary precision
survives any parser; small structural fields (schema version, flags, the
rank bound) stay plain JSON numbers.  Identical inputs produce
byte-identical lines except for the "timings" field, which recheck
ignores.  Sweeps stream records in lexicographic (m, p, q, r) order from
the caller plus threads - 1 forked workers, each a fixed stride of the
grid.  A killed sweep resumes from whatever bytes it left, in either
format: the output file is read once before the append, a torn last line
is cut off, every record on disk is checked against the spec, and the
rest of the grid is appended.  The csv header is written only into an
empty file.
"""
from __future__ import annotations

import json
import marshal
import time
from itertools import combinations, islice, zip_longest

from .arith import Memo, is_prime
from .curves import Point, Value, discriminant, init_field
from .descent import (
    ClassVerdict,
    ProbePoint,
    RankCertificate,
    _check_probe_bounds,
    rank_ge2_certificate,
    rank_ge3_probe,
)
from .errors import NotPrime, PrimeIsTwo, SweepResumeMismatch, SweepWorkerDied
from .family import HYPOTHESIS_K, CongruenceEvidence, FamilyParams, in_hypothesis_class
from .torsion import TorsionReport

SCHEMA_VERSION = 1

CSV_HEADER = "m,p,q,r,discriminant,torsion_order,rank_lower_bound,probe_independent"

# Record labels of ProbePoint.classes, in its order.
_PROBE_CLASS_LABELS = ("c", "c_base", "c_shifted", "c_combined")


class SweepSpec(Value):
    """Full description of a sweep; records are a function of this alone."""

    __slots__ = (
        "m_values",
        "prime_pool",
        "height_bound",
        "num_reduction_primes",
        "den_bound",
        "probe",
        "require_hypotheses",
        "output_path",
        "output_format",
    )

    def __init__(
        self,
        m_values: tuple[int, ...],
        prime_pool: tuple[int, ...],
        height_bound: int = 10_000,
        num_reduction_primes: int = 5,
        den_bound: int = 2,
        probe: bool = True,
        require_hypotheses: bool = False,
        output_path: str | None = None,
        output_format: str = "jsonl",  # "jsonl" | "csv"
    ):
        # a float or a bool passes the checks below, and would fail only
        # once the sweep has written to its file
        for name, values in (("m values", m_values), ("prime pool entries", prime_pool)):
            for v in values:
                if type(v) is not int:
                    raise ValueError(f"{name} must be ints, got {v!r}")
        if not m_values or min(m_values) < 1:
            raise ValueError(f"m values must be positive integers, got {list(m_values)}")
        if len(set(prime_pool)) < 3:
            raise ValueError("prime pool needs at least three distinct primes")
        if output_format not in ("jsonl", "csv"):
            raise ValueError(f"unknown output format {output_format!r}")
        _record_options(num_reduction_primes, probe, height_bound, den_bound)
        for p in prime_pool:
            if p == 2:
                raise PrimeIsTwo("prime pool entries must be odd")
            if not is_prime(p):
                raise NotPrime(f"prime pool entry {p} is not prime")
        if require_hypotheses:
            bad = [m for m in m_values if not in_hypothesis_class(m)]
            if bad:
                raise ValueError(
                    f"hypothesis mode requires m = 2 (mod {1 << HYPOTHESIS_K}); offending m: {bad}"
                )
        init_field(self, "m_values", m_values)
        init_field(self, "prime_pool", prime_pool)
        init_field(self, "height_bound", height_bound)
        init_field(self, "num_reduction_primes", num_reduction_primes)
        init_field(self, "den_bound", den_bound)
        init_field(self, "probe", probe)
        init_field(self, "require_hypotheses", require_hypotheses)
        init_field(self, "output_path", output_path)
        init_field(self, "output_format", output_format)

    def combos(self) -> list[tuple[int, int, int, int]]:
        out = []
        for m in sorted(set(self.m_values)):
            for trip in combinations(sorted(set(self.prime_pool)), 3):
                out.append((m,) + trip)
        return out


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


def _point_obj(p: Point | None):
    if p is None or p.is_infinity:
        return None
    return {"x": str(p.x), "y": str(p.y)}


def _congruence_obj(ev: CongruenceEvidence | None):
    if ev is None:
        return None
    return {"target": ev.target_label, "modulus": ev.modulus, "detail": ev.detail}


def _class_obj(v: ClassVerdict):
    return {
        "point": _point_obj(v.point),
        "nonzero": v.nonzero,
        "quartic": [str(c) for c in v.quartic] if v.quartic is not None else None,
        "quartic_roots": [str(r) for r in v.quartic_roots]
        if v.quartic_roots is not None
        else None,
        "preimages": [_point_obj(p) for p in v.preimages] if v.preimages is not None else None,
        "congruence": _congruence_obj(v.congruence),
    }


def _torsion_obj(t: TorsionReport):
    return {
        "order": str(t.torsion_order),
        "structure": t.structure,
        "bound_from_reduction": str(t.bound_from_reduction),
        "reduction_counts": [[str(ell), str(n)] for ell, n in t.primes_used],
        "integral_candidates": [_point_obj(p) for p in t.integral_candidates],
        "generators": [_point_obj(p) for p in t.generators],
        "obstructions": [
            {"order": o.order, "status": o.status, "reason": o.reason} for o in t.obstructions
        ],
    }


def _probe_point_obj(pp: ProbePoint):
    return {
        "point": _point_obj(pp.point),
        "independent": pp.independent,
        "classes": {label: _class_obj(v) for label, v in zip(_PROBE_CLASS_LABELS, pp.classes)},
    }


def certificate_to_record(cert: RankCertificate, options: dict, timings: dict[str, float]) -> dict:
    params, curve, hyp = cert.params, cert.curve, cert.hypotheses
    record = {
        "schema": SCHEMA_VERSION,
        "params": {
            "m": str(params.m),
            "p": str(params.p),
            "q": str(params.q),
            "r": str(params.r),
        },
        "options": options,
        "curve": {"b": str(curve.b), "c": str(curve.c)},
        "discriminant": str(discriminant(curve)),
        "hypotheses": {
            "mod3_ok": hyp.mod3_ok,
            "mod2k_ok": hyp.mod2k_ok,
            "coprime_ok": hyp.coprime_ok,
            "primes_ok": hyp.primes_ok,
            "all_ok": hyp.all_ok,
            "k_witness": params.k_witness,  # null means every k works (m == 2)
        },
        "torsion": _torsion_obj(cert.torsion),
        "rank": {
            "torsion_trivial": cert.torsion_trivial,
            "classes": {
                "base": _class_obj(cert.class_base),
                "shifted": _class_obj(cert.class_shifted),
                "combined": _class_obj(cert.class_combined),
            },
            "classes_distinct": cert.classes_distinct,
            "rank_lower_bound": cert.rank_lower_bound,
        },
        "probe": None
        if cert.probe_height is None
        else {
            "height_bound": str(cert.probe_height),
            "points_found": len(cert.probe_points),
            "independent_found": any(p.independent for p in cert.probe_points),
            "points": [_probe_point_obj(p) for p in cert.probe_points],
        },
        "timings": timings,
    }
    return record


def _record_options(reduction_primes: int, probe: bool, height_bound: int, den_bound: int) -> dict:
    """The options of a record, in record order, once each is checked.

    A bool passes an int's range check and a float fails only inside the
    search; either would be recorded as given, and recheck_diff, which
    coerces the stored options, would then name them.  Raises ValueError
    for a count that is not an int, a probe that is not a bool, fewer than
    one reduction prime, or a negative probe bound.
    """
    options = dict(reduction_primes=reduction_primes, probe=probe,
                   height_bound=height_bound, den_bound=den_bound)
    for name, v in options.items():
        kind = bool if name == "probe" else int
        if type(v) is not kind:
            raise ValueError(f"{name} must be {kind.__name__}, got {v!r}")
    if reduction_primes < 1:
        raise ValueError("the number of reduction primes must be at least 1")
    _check_probe_bounds(height_bound, den_bound)
    return options


def build_curve_record(
    params: FamilyParams,
    *,
    reduction_primes: int = 5,
    probe: bool = True,
    height_bound: int = 10_000,
    den_bound: int = 2,
) -> dict:
    """Run the full pipeline on one parameter set and package the result.

    The options are recorded even with probe=False, so an option of the
    wrong type or range raises ValueError either way (_record_options).
    """
    options = _record_options(reduction_primes, probe, height_bound, den_bound)
    t0 = time.perf_counter()
    cert = rank_ge2_certificate(params, reduction_primes)
    t1 = time.perf_counter()
    if probe:
        cert = rank_ge3_probe(cert, height_bound, den_bound)
    t2 = time.perf_counter()
    timings = {
        "rank_certificate_s": round(t1 - t0, 6),
        "probe_s": round(t2 - t1, 6),
        "total_s": round(t2 - t0, 6),
    }
    return certificate_to_record(cert, options, timings)


def record_to_line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"), sort_keys=False)


def record_to_csv_row(record: dict) -> str:
    probe = record.get("probe")
    return ",".join(
        [
            record["params"]["m"],
            record["params"]["p"],
            record["params"]["q"],
            record["params"]["r"],
            record["discriminant"],
            record["torsion"]["order"],
            str(record["rank"]["rank_lower_bound"]),
            str(bool(probe and probe["independent_found"])).lower(),
        ]
    )


def canonical_comparable(record: dict) -> str:
    """Serialized form with the timings field removed; equality of these
    strings is what recheck_diff decides and the determinism tests assert."""
    return record_to_line({k: v for k, v in record.items() if k != "timings"})


def params_from_record(record: dict) -> FamilyParams:
    p = record["params"]
    return FamilyParams(int(p["m"]), int(p["p"]), int(p["q"]), int(p["r"]))


def _first_difference(stored, fresh) -> list | None:
    """Steps to the first place where stored and fresh differ, in
    serialization order, innermost first: a string per object key and an
    int per list index.  None when they serialize identically.  The steps
    are collected only on the way back from a difference."""
    if type(stored) is not type(fresh):
        return []
    if isinstance(stored, dict):
        for key, fresh_key in zip_longest(stored, fresh):  # keys are strings, never None
            if key != fresh_key:
                return [key if key is not None else fresh_key]
            found = _first_difference(stored[key], fresh[key])
            if found is not None:
                found.append(key)
                return found
        return None
    if isinstance(stored, list):
        for i, (a, b) in enumerate(zip(stored, fresh)):
            found = _first_difference(a, b)
            if found is not None:
                found.append(i)
                return found
        return None if len(stored) == len(fresh) else [min(len(stored), len(fresh))]
    return None if stored == fresh else []


def _json_path(steps: list) -> str:
    """JSON path such as a.b[2].c from the steps of _first_difference."""
    path = ""
    for step in reversed(steps):
        if isinstance(step, int):
            path = f"{path}[{step}]"
        else:
            path = f"{path}.{step}" if path else step
    return path


def recheck_diff(record: dict) -> str | None:
    """Re-derive every verdict from the raw parameters and options.

    None when the recomputation reproduces the record exactly (timings
    aside); otherwise the cause: the JSON path of the first field that
    differs, such as "torsion.reduction_counts[2][1]", or
    "exception: <Class>" when the record cannot be rebuilt at all.

    Types, key order and lengths count as well as values, so `true`
    against `1`, or reordered keys, differ here as in the serialized lines.
    One C-level comparison of the two records' marshal bytes decides
    "identical".  Version 2 writes no back-references and no interning
    flags (both arrive in version 3), so equal bytes mean equal exact
    types, equal key order and equal values.  The rebuilt record holds no
    floats, so there is no NaN for which equal bytes and == disagree.  The
    walk of _first_difference, the only place that names a differing
    field, runs only when the bytes differ, or when marshal refuses a
    subclass of dict, list, str or int, which json.loads never makes.
    """
    try:
        params = params_from_record(record)
        opts = record["options"]
        fresh = build_curve_record(
            params,
            reduction_primes=int(opts["reduction_primes"]),
            probe=bool(opts["probe"]),
            height_bound=int(opts["height_bound"]),
            den_bound=int(opts["den_bound"]),
        )
    except Exception as exc:  # a malformed record is a failed recheck, never a crash
        return f"exception: {type(exc).__name__}"
    stored = {k: v for k, v in record.items() if k != "timings"}
    fresh = {k: v for k, v in fresh.items() if k != "timings"}
    try:
        if marshal.dumps(stored, 2) == marshal.dumps(fresh, 2):
            return None
    except ValueError:  # a subclass of a JSON type: the walk compares exact types
        pass
    steps = _first_difference(stored, fresh)
    return None if steps is None else _json_path(steps)


def recheck_record(record: dict) -> bool:
    """True iff the recomputation reproduces the record exactly (timings
    aside); see recheck_diff for the cause of a mismatch."""
    return recheck_diff(record) is None


# ---------------------------------------------------------------------------
# Sweep engine
# ---------------------------------------------------------------------------


def _sweep_worker(combo, opts: dict) -> str:
    return record_to_line(build_curve_record(FamilyParams(*combo), **opts))


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a forked sweep
    worker, chained as the cause when the caller raises that exception."""


def _stream_stride(conn, todo: list, opts: dict, start: int, stride: int) -> None:
    """Body of a forked sweep worker: compute todo[start::stride] in order
    and send each line over conn, or the exception that stopped it with its
    traceback, which pickling would drop, and after the last line what it
    added to each table of Memo.registry, which would die with it."""
    sizes = [len(table) for table in Memo.registry]  # the caller's, at the fork
    try:
        for combo in todo[start::stride]:
            try:
                line = _sweep_worker(combo, opts)
            except Exception as exc:
                import traceback  # only on failure: importing it costs 1.6 ms of start-up

                conn.send((False, (exc, traceback.format_exc())))
                return
            conn.send((True, line))
        conn.send((True, [list(islice(t.items(), n, None)) for t, n in zip(Memo.registry, sizes)]))
    finally:
        conn.close()


def _fork_worker(todo: list, opts: dict, start: int, stride: int):
    """Fork the worker for todo[start::stride]; its pipe's receiving end
    and its process.  Fork, not spawn: a spawned worker would import
    ecrank and fill its caches afresh, which costs more than a whole
    README grid, while a forked one starts with the caller's."""
    import multiprocessing  # only here: just sweeps with threads >= 2 fork

    fork = multiprocessing.get_context("fork")
    conn, child_conn = fork.Pipe(duplex=False)
    child = fork.Process(target=_stream_stride, args=(child_conn, todo, opts, start, stride))
    child.start()
    child_conn.close()  # the worker now holds the only sending end
    return conn, child


def _receive(conn, child, what):
    """The next thing (a line, or at the end its table entries) a forked
    worker sends, its exception raised here, or SweepWorkerDied when it
    exited without sending `what`."""
    try:
        ok, payload = conn.recv()
    except EOFError:
        child.join()
        raise SweepWorkerDied(
            f"sweep worker {child.pid} exited with code {child.exitcode} "
            f"before sending {what}"
        ) from None
    if not ok:
        exc, text = payload
        raise exc from _WorkerTraceback(text)
    return payload


def _resume_lines(spec: SweepSpec, combos, opts: dict) -> list[str]:
    """The lines on disk in spec.output_path, read once; none without a
    file.  A torn last line that a killed run left is cut off the file, so
    that resuming recomputes its record instead of appending to it.  Refuse
    a file that another sweep wrote: after the csv header, the i-th record
    must be that of combos[i] under these options.  A csv row carries only
    m, p, q, r, so csv rows are checked on those alone."""
    path = spec.output_path
    try:
        with open(path, "rb+") as fh:
            data = fh.read()
            if not data.endswith(b"\n"):
                data = data[: data.rfind(b"\n") + 1]
                fh.truncate(len(data))
    except FileNotFoundError:
        return []
    lines = rows = data.decode("utf-8").split("\n")[:-1]
    if spec.output_format == "csv" and lines:
        if lines[0] != CSV_HEADER:
            raise SweepResumeMismatch(f"{path}: first line is not the csv header")
        rows = lines[1:]
    if len(rows) > len(combos):
        raise SweepResumeMismatch(f"{path} holds {len(rows)} records, the sweep has {len(combos)}")
    for i, (line, combo) in enumerate(zip(rows, combos)):
        wanted = [str(v) for v in combo], opts
        if spec.output_format == "csv":
            found = line.split(",")[:4], opts
        else:
            try:
                record = json.loads(line)
                found = [record["params"][k] for k in "mpqr"], record["options"]
            except (ValueError, KeyError, TypeError) as exc:
                raise SweepResumeMismatch(
                    f"{path}: record {i} is unreadable ({type(exc).__name__})"
                ) from exc
        if found != wanted:
            raise SweepResumeMismatch(
                f"{path}: record {i} has params {found[0]} and options {found[1]}; "
                f"this sweep writes params {wanted[0]} with options {wanted[1]}"
            )
    return lines


def run_sweep(spec: SweepSpec, threads: int = 1, progress=None) -> list[str]:
    """Execute a sweep, returning the jsonl lines in combo order.

    When spec.output_path is set, lines are appended as they complete
    (single writer).  The file is read once before the append: a killed
    run's file, cut at any byte, resumes to the file an uninterrupted run
    writes, since a torn last line is cut off and the combos whose records
    are on disk are skipped.  The csv header is written only into an empty
    file.  A file whose records another spec wrote raises
    SweepResumeMismatch before anything is appended.

    The k = min(threads, pending combos) processes split the pending
    combos by stride: the caller computes combos i = 0 (mod k) and each of
    k - 1 forked workers computes its own residue class, sending every
    line back over its own pipe.  The caller takes the lines in combo
    order, so the file, progress calls and returned lines are the same for
    any k.  An exception in a worker is raised here at its combo's turn,
    and no worker outlives the call.  After its last line a worker hands
    back its new table entries (arith.Memo), which the caller keeps, so a
    worker forked after the first sweep of a grid builds none.

    Raises ValueError for threads below 1, before the file is touched.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    combos = spec.combos()
    opts = _record_options(spec.num_reduction_primes, spec.probe, spec.height_bound, spec.den_bound)
    out_path = spec.output_path
    on_disk = _resume_lines(spec, combos, opts) if out_path else []
    skip = len(on_disk) - 1 if spec.output_format == "csv" and on_disk else len(on_disk)
    todo = combos[skip:]
    k = max(1, min(threads, len(todo)))
    workers = []  # (receiving end, process) of the workers for j = 1 .. k - 1
    lines: list[str] = []
    fh = None
    try:
        for j in range(1, k):  # before the file opens, so no worker holds its buffer
            workers.append(_fork_worker(todo, opts, j, k))
        if out_path:
            fh = open(out_path, "a", encoding="utf-8")
            if spec.output_format == "csv" and not on_disk:
                fh.write(CSV_HEADER + "\n")
        for i, combo in enumerate(todo):
            j = i % k
            if j == 0:
                line = _sweep_worker(combo, opts)
            else:
                line = _receive(*workers[j - 1], f"the record of {combo}")
            lines.append(line)
            if fh is not None:
                if spec.output_format == "csv":
                    fh.write(record_to_csv_row(json.loads(line)) + "\n")
                else:
                    fh.write(line + "\n")
                fh.flush()
            if progress is not None:
                progress(len(lines) + skip, len(combos))
        for conn, child in workers:
            for table, entries in zip(Memo.registry, _receive(conn, child, "its table entries")):
                table.update(entries)
    finally:
        if fh is not None:
            fh.close()
        for conn, child in workers:
            if child.is_alive():
                child.terminate()
            child.join()
            conn.close()
    return lines
