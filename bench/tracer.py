"""In-memory spans around calls into ecrank's public functions.

The tracer wraps each function listed in WRAPPED and swaps the wrapper
into every ecrank module that holds the function, because the modules
import names directly: `torsion` calls its own `factorize` binding and
`cli` its own `build_curve_record`.  `remove()` puts the originals back.
Nothing inside src/ changes.

Each span is (name, start, end, parent, curve).  A span's self time is its
duration minus the durations of its direct children; work inside a
function that is not wrapped (Curve.rhs, _add_raw, is_prime) stays in the
self time of the nearest wrapped caller.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter
from typing import NamedTuple

MODULES = ("arith", "polys", "curves", "family", "reduction", "torsion", "descent", "records", "cli")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a span with no traced caller
    curve: int


def _search_counts(counts, args, points) -> None:
    # computed from the arguments: every u in [-H v^2, H v^2] for each v <= D
    h, d = args["height_bound"], args["den_bound"]
    counts["descent.search_points.scanned"] += sum(2 * h * v * v + 1 for v in range(1, d + 1))
    counts["descent.search_points.found"] += len(points)


def _probe_counts(counts, args, record) -> None:
    probe = record["probe"]
    if probe:
        counts["descent.probe.found"] += probe["points_found"]
        counts["descent.probe.independent"] += sum(p["independent"] for p in probe["points"])


def _bytes_out(counts, args, line) -> None:
    counts["records.bytes_out"] += len(line.encode())


def _mismatches(counts, args, ok) -> None:
    counts["records.recheck.mismatches"] += not ok


def _candidates(counts, args, points) -> None:
    counts["torsion.candidates.count"] += len(points)


def _ell_sum(counts, args, n) -> None:
    counts["reduction.count_points.ell_sum"] += args["rc"].modulus


# (defining module, function, span name, counter hook or None)
WRAPPED = (
    ("cli", "main", "cli.main", None),
    ("records", "build_curve_record", "records.build_curve_record", _probe_counts),
    ("records", "record_to_line", "records.record_to_line", _bytes_out),
    ("records", "recheck_record", "records.recheck_record", _mismatches),
    ("descent", "rank_ge2_certificate", "descent.rank_ge2_certificate", None),
    ("descent", "search_points", "descent.search_points", _search_counts),
    ("descent", "class_is_nonzero", "descent.class_is_nonzero", None),
    ("torsion", "nagell_lutz_torsion", "torsion.nagell_lutz", None),
    ("torsion", "torsion_order_bound", "torsion.order_bound", None),
    ("torsion", "integral_torsion_candidates", "torsion.candidates", _candidates),
    ("reduction", "count_points", "reduction.count_points", _ell_sum),
    ("arith", "factorize", "arith.factorize", None),
    ("polys", "integer_roots", "polys.integer_roots", None),
    ("polys", "rational_roots", "polys.rational_roots", None),
    ("curves", "add", "curves.add", None),
)
# Counted, not spanned: too frequent and too cheap for a span to be worth it.
COUNTED = (("arith", "is_prime", "arith.is_prime"),)


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.curve = 0  # set by the workload runner before each curve
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import ecrank

        modules = [ecrank] + [importlib.import_module(f"ecrank.{m}") for m in MODULES]
        wrappers = [(mod, fn, self._span_wrapper(name, hook)) for mod, fn, name, hook in WRAPPED]
        wrappers += [(mod, fn, self._count_wrapper(name)) for mod, fn, name in COUNTED]
        for mod_name, fn_name, make in wrappers:
            original = getattr(importlib.import_module(f"ecrank.{mod_name}"), fn_name)
            wrapper = make(original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside go untraced: the oracle's own calls into ecrank."""
        self.remove()
        try:
            yield
        finally:
            self.install()

    def _count_wrapper(self, name: str):
        counts = self.counts
        key = name + ".calls"

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _span_wrapper(self, name: str, hook):
        tracer = self
        counts, spans, stack = self.counts, self.spans, self._stack
        calls_key, fail_key = name + ".calls", name + ".fail"

        def make(fn):
            signature = inspect.signature(fn) if hook is not None else None

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[calls_key] += 1
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    counts[fail_key] += 1
                    raise
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    spans[index] = Span(name, start, end, parent, tracer.curve)
                if hook is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(counts, bound.arguments, result)
                return result

            return wrapper

        return make

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> Counter:
        """Total self time in seconds per span name."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span.parent >= 0:
                children[span.parent] += span.end - span.start
        out: Counter = Counter()
        for span, child in zip(self.spans, children):
            if span is not None:
                out[span.name] += span.end - span.start - child
        return out

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span._asdict()) + "\n")
