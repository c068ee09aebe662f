"""Command-line interface.

Subcommands: verify (one curve, full pipeline), sweep (parameter grid),
count (point count mod one prime), torsion (torsion report), recheck
(re-derive a stored record).  Exit codes: 0 success with certificate,
1 verification failed, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .curves import Curve
from .errors import EcrankError
from .family import FamilyParams, build_family_curve, cite_obstructions
from .records import (
    CSV_HEADER,
    SweepSpec,
    _torsion_obj,
    build_curve_record,
    params_from_record,
    recheck_diff,
    record_to_csv_row,
    record_to_line,
    run_sweep,
)
from .reduction import count_points, naive_point_count, reduce_curve
from .torsion import nagell_lutz_torsion

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _parse_int_list(text: str) -> list[int]:
    """Comma list ("2,34,66") or progression ("start:step:count")."""
    if ":" in text:
        start, step, count = (int(tok) for tok in text.split(":"))
        if count < 1:
            raise ValueError("progression count must be positive")
        return [start + i * step for i in range(count)]
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _params_from_args(args) -> FamilyParams:
    return FamilyParams(args.m, args.p, args.q, args.r)


def _certified(record: dict) -> bool:
    """The exit-0 condition of verify and sweep: trivial torsion and rank >= 2."""
    return record["rank"]["rank_lower_bound"] >= 2 and record["rank"]["torsion_trivial"]


def _print_verify_summary(record: dict) -> None:
    par = record["params"]
    print(f"curve: y^2 = x^3 + ({record['curve']['b']})x + {record['curve']['c']}")
    print(f"params: m={par['m']} p={par['p']} q={par['q']} r={par['r']}")
    print(f"discriminant: {record['discriminant']}")
    hyp = record["hypotheses"]
    flags = " ".join(f"{k}={v}" for k, v in hyp.items() if k.endswith("_ok") and k != "all_ok")
    print(f"hypotheses: {flags} (all_ok={hyp['all_ok']})")
    tor = record["torsion"]
    print(
        f"torsion: order {tor['order']} ({tor['structure']}), "
        f"reduction bound {tor['bound_from_reduction']} from "
        f"{len(tor['reduction_counts'])} primes"
    )
    for ob in tor["obstructions"]:
        print(f"  order-{ob['order']} obstruction: {ob['status']}")
    rank = record["rank"]
    for label, cls in rank["classes"].items():
        route = "halving"
        if cls["congruence"]:
            route += "+congruence"
        print(f"  class [{label}] nonzero={cls['nonzero']} ({route})")
    print(f"rank lower bound: {rank['rank_lower_bound']}")
    probe = record["probe"]
    if probe:
        print(
            f"probe: height {probe['height_bound']}, {probe['points_found']} candidate "
            f"point(s), independent third generator: {probe['independent_found']}"
        )


def cmd_verify(args) -> int:
    params = _params_from_args(args)
    record = build_curve_record(
        params,
        reduction_primes=args.reduction_primes,
        probe=not args.no_probe,
        height_bound=args.height_bound,
        den_bound=args.den_bound,
    )
    line = record_to_line(record) if args.json or args.out else None
    if args.json:
        print(line)
    else:
        _print_verify_summary(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
    return EXIT_OK if _certified(record) else EXIT_FAILED


def cmd_sweep(args) -> int:
    spec = SweepSpec(
        m_values=tuple(_parse_int_list(args.m_list)),
        prime_pool=tuple(_parse_int_list(args.prime_pool)),
        height_bound=args.height_bound,
        num_reduction_primes=args.reduction_primes,
        den_bound=args.den_bound,
        probe=not args.no_probe,
        require_hypotheses=args.require_hypotheses,
        output_path=args.out,
        output_format=args.format,
    )

    def progress(done, total):
        if not args.json:
            print(f"[{done}/{total}]", file=sys.stderr)

    lines = run_sweep(spec, threads=args.threads, progress=progress)
    all_ok = True
    if not args.json and not args.out and args.format == "csv":
        print(CSV_HEADER)
    for line in lines:
        rec = json.loads(line)
        all_ok = all_ok and _certified(rec)
        if args.json:
            print(line)
        elif not args.out:
            print(record_to_csv_row(rec) if args.format == "csv" else line)
    return EXIT_OK if all_ok else EXIT_FAILED


def cmd_count(args) -> int:
    curve = Curve(args.b, args.c)
    rc = reduce_curve(curve, args.mod)
    if rc.is_good:
        n = count_points(rc)
        note = ""
    else:
        n = naive_point_count(rc.b_mod, rc.c_mod, args.mod)
        note = " (bad reduction: count of the singular reduced equation)"
    if args.json:
        print(
            json.dumps(
                {
                    "b": str(args.b),
                    "c": str(args.c),
                    "modulus": str(args.mod),
                    "reduction": rc.reduction_type,
                    "count": str(n),
                },
                separators=(",", ":"),
            )
        )
    else:
        print(f"#E(F_{args.mod}) = {n}{note}")
    return EXIT_OK


def cmd_torsion(args) -> int:
    given = [v is not None for v in (args.b, args.c, args.m, args.p, args.q, args.r)]
    if given not in ([True] * 2 + [False] * 4, [False] * 2 + [True] * 4):
        raise EcrankError("give either --b and --c or all of --m/--p/--q/--r, not a mix")
    if args.b is not None:
        curve = Curve(args.b, args.c)
        report = nagell_lutz_torsion(curve, args.reduction_primes)
    else:
        params = _params_from_args(args)
        curve = build_family_curve(params)
        report = cite_obstructions(params, nagell_lutz_torsion(curve, args.reduction_primes))
    if args.json:
        print(json.dumps(_torsion_obj(report), separators=(",", ":")))
    else:
        print(f"torsion order: {report.torsion_order} ({report.structure})")
        print(f"reduction bound: {report.bound_from_reduction} via {list(report.primes_used)}")
        if report.generators:
            print(f"generators: {[str(g) for g in report.generators]}")
        for ob in report.obstructions:
            print(f"order-{ob.order} obstruction: {ob.status} -- {ob.reason}")
    return EXIT_OK


def cmd_recheck(args) -> int:
    all_ok = True
    with open(args.record, "rb") as fh:  # a line that is not UTF-8 is unreadable, not fatal
        for i, line in enumerate(fh):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                all_ok = False
                print(f"record {i}: MISMATCH (unreadable: {type(exc).__name__})")
                continue
            cause = recheck_diff(record)
            all_ok = all_ok and cause is None
            if cause is None:
                print(f"record {i}: ok ({params_from_record(record)})")
            else:
                print(f"record {i}: MISMATCH ({cause})")
    print("recheck:", "true" if all_ok else "false")
    return EXIT_OK if all_ok else EXIT_FAILED


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ecrank argument parser, built once per process: parse_args does
    not change it, and building it costs about 15 times parsing."""
    ap = argparse.ArgumentParser(
        prog="ecrank",
        description="Exact torsion and rank-lower-bound certificates for "
        "curves y^2 = x^3 - m^2 x + (pqr)^2.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_param_flags(p, required=True):
        p.add_argument("--m", type=int, required=required)
        p.add_argument("--p", type=int, required=required)
        p.add_argument("--q", type=int, required=required)
        p.add_argument("--r", type=int, required=required)

    def add_common(p):
        p.add_argument("--reduction-primes", type=int, default=5, dest="reduction_primes")
        p.add_argument("--json", action="store_true", help="machine-readable stdout")

    def add_probe_flags(p):
        p.add_argument("--height-bound", type=int, default=10_000, dest="height_bound")
        p.add_argument("--den-bound", type=int, default=2, dest="den_bound")
        p.add_argument("--no-probe", action="store_true", help="skip the third-generator search")

    ver = sub.add_parser("verify", help="full pipeline on one parameter set")
    add_param_flags(ver)
    add_common(ver)
    add_probe_flags(ver)
    ver.add_argument("--out", help="write the jsonl record here")
    ver.set_defaults(fn=cmd_verify)

    sw = sub.add_parser("sweep", help="grid of (m, {p,q,r}) parameter sets")
    sw.add_argument("--m-list", required=True, dest="m_list", help='"2,34,66" or "2:32:5"')
    sw.add_argument("--prime-pool", required=True, dest="prime_pool", help='"3,5,7,11"')
    add_common(sw)
    add_probe_flags(sw)
    sw.add_argument("--require-hypotheses", action="store_true", dest="require_hypotheses")
    sw.add_argument("--out", help="output file (appended; enables resume)")
    sw.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sw.add_argument(
        "--threads",
        type=int,
        default=1,
        help="processes that compute records, the calling one included (default 1)",
    )
    sw.set_defaults(fn=cmd_sweep)

    ct = sub.add_parser("count", help="point count of y^2 = x^3 + bx + c mod a prime")
    ct.add_argument("--b", type=int, required=True)
    ct.add_argument("--c", type=int, required=True)
    ct.add_argument("--mod", type=int, required=True)
    ct.add_argument("--json", action="store_true")
    ct.set_defaults(fn=cmd_count)

    to = sub.add_parser("torsion", help="torsion report for a family or explicit curve")
    add_param_flags(to, required=False)
    to.add_argument("--b", type=int, help="explicit curve coefficient (with --c)")
    to.add_argument("--c", type=int, help="explicit curve coefficient (with --b)")
    add_common(to)
    to.set_defaults(fn=cmd_torsion)

    rc = sub.add_parser("recheck", help="re-derive every verdict in a record file")
    rc.add_argument("record", help="path to a jsonl record file")
    rc.set_defaults(fn=cmd_recheck)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except (EcrankError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
