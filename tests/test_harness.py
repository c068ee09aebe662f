import hashlib
import json
import multiprocessing
import os
import random
import signal
from pathlib import Path

import pytest

import ecrank
from ecrank.cli import main
from ecrank import records
from ecrank.errors import FactorizationIncomplete, SweepResumeMismatch, SweepWorkerDied
from ecrank.family import FamilyParams
from ecrank.records import (
    CSV_HEADER,
    SweepSpec,
    build_curve_record,
    canonical_comparable,
    record_to_csv_row,
    record_to_line,
    recheck_diff,
    recheck_record,
    run_sweep,
)

FAST = dict(reduction_primes=3, probe=False, height_bound=0, den_bound=1)

# ten fast combos, m = 2 over the triples of five primes
STRIDED = dict(m_values=(2,), prime_pool=(3, 5, 7, 11, 13), probe=False, height_bound=0,
               num_reduction_primes=3)

GRID_SEED = Path(__file__).resolve().parents[1] / "bench" / "data" / "grid_seed.jsonl"

# sha256 of canonical_comparable(record) at default options, as ecrank 0.1.0
# wrote them (bench/data/expected.json).  In the middle three, trial division
# below 2^16 leaves a 60- to 62-bit product of two primes, which
# arith.square_part_root settles with its window scan instead of rho; in the
# last two it leaves a cofactor from 2^63 up, which goes to Pollard rho.
FROZEN_DIGESTS = {
    (2, 3, 7, 11): "0920ec8043ed113c518fea8e1de00e00333cada8f183c5c0ca5e1b918892fd06",
    (34, 3, 5, 7): "8765232de874bcd0c0a9a39f632d99c5adb6a0eb4bba1d8d3d0d6dc51b6568fe",
    (66, 17, 47, 53): "8509272a9ddba6858dfbcc630ea9f38c73ebbd0c135b3ef87d6cf86548a082b3",
    (418, 13, 41, 59): "db704581267127792df7d41a68bd59fbfdaf647f2222435314ed0b7c73a7ae3d",
    (1954, 3, 7, 37): "e2627817557afa3d44ccc1c448d69053a9204bac51b43d61631486f6f35bee58",
    (514, 17, 43, 47): "fc6757a067a761550040ad3bc8a46de43e2e3f6da2ea957b4d1dc1792bfbfd6c",
    (1954, 13, 47, 59): "d02e45b71662b527ee9aac42064ee74c63cc0240fe47fe6f28abbc9d972691ab",
}


def _fast_record(m=2, p=3, q=7, r=11):
    return build_curve_record(FamilyParams(m, p, q, r), **FAST)


def test_record_shape_and_integer_strings():
    rec = _fast_record()
    assert rec["schema"] == 1
    assert rec["params"] == {"m": "2", "p": "3", "q": "7", "r": "11"}
    assert rec["curve"] == {"b": "-4", "c": "53361"}
    assert rec["discriminant"] == "-1230075206576"
    assert rec["torsion"]["order"] == "1"
    assert rec["rank"]["rank_lower_bound"] == 2
    assert rec["hypotheses"]["all_ok"] is True
    line = record_to_line(rec)
    assert json.loads(line) == rec


def test_records_match_frozen_seed(capsys):
    """Records stay byte-identical to ecrank 0.1.0's, field order included:
    seven default records hash to their frozen digests, one of them with a
    rank >= 3 probe hit, and the seed-written README grid file rechecks."""
    for params, digest in FROZEN_DIGESTS.items():
        line = canonical_comparable(build_curve_record(FamilyParams(*params)))
        assert hashlib.sha256(line.encode()).hexdigest() == digest, params
    assert main(["recheck", str(GRID_SEED)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "record 0: ok (FamilyParams(m=2, p=3, q=5, r=7))"
    assert out[-1] == "recheck: true"


def test_record_determinism():
    a, b = _fast_record(), _fast_record()
    assert a["timings"] != {} and b["timings"] != {}
    assert canonical_comparable(a) == canonical_comparable(b)


def test_recheck_fresh_and_tampered():
    rec = _fast_record()
    assert recheck_record(rec)
    for mutate in (
        lambda r: r["rank"].__setitem__("rank_lower_bound", 3),
        lambda r: r["torsion"].__setitem__("order", "2"),
        lambda r: r["rank"]["classes"]["base"].__setitem__("nonzero", False),
        lambda r: r["hypotheses"].__setitem__("mod3_ok", False),
        lambda r: r["discriminant"] and r.__setitem__("discriminant", "-1230075206575"),
    ):
        tampered = json.loads(record_to_line(rec))
        mutate(tampered)
        assert not recheck_record(tampered)


def test_sweep_spec_validation(tmp_path):
    out = tmp_path / "sweep.csv"
    for m_values, pool in (((2.0, 34), (3, 5, 7)), ((True, 34), (3, 5, 7)),
                           ((2, 34), (3, 5.0, 7)), ((2, 34), (True, 3, 5, 7))):
        with pytest.raises(ValueError, match="must be ints"):
            run_sweep(SweepSpec(m_values=m_values, prime_pool=pool, output_format="csv",
                                output_path=str(out)))
    assert not out.exists()
    with pytest.raises(ValueError):
        SweepSpec(m_values=(2,), prime_pool=())
    with pytest.raises(ValueError):
        SweepSpec(m_values=(2,), prime_pool=(3, 5))
    with pytest.raises(Exception):
        SweepSpec(m_values=(2,), prime_pool=(3, 5, 9))
    with pytest.raises(ValueError):
        SweepSpec(m_values=(3,), prime_pool=(3, 5, 7), require_hypotheses=True)
    SweepSpec(m_values=(2, 34), prime_pool=(3, 5, 7), require_hypotheses=True)


def test_sweep_combos_lexicographic():
    spec = SweepSpec(m_values=(34, 2), prime_pool=(7, 3, 5, 11), probe=False)
    combos = spec.combos()
    assert combos[0] == (2, 3, 5, 7)
    assert combos == sorted(combos)
    assert len(combos) == 8  # 2 m-values x C(4,3)


def test_sweep_run_and_resume(tmp_path):
    out = tmp_path / "sweep.jsonl"
    spec = SweepSpec(
        m_values=(2,),
        prime_pool=(3, 5, 7),
        probe=False,
        height_bound=0,
        num_reduction_primes=3,
        output_path=str(out),
    )
    lines = run_sweep(spec)
    assert len(lines) == 1
    on_disk = out.read_text().strip().splitlines()
    assert on_disk == lines
    # resume: nothing left to do, file untouched
    lines2 = run_sweep(spec)
    assert lines2 == []
    assert out.read_text().strip().splitlines() == on_disk
    # partial file: drop the record, rerun recomputes exactly it
    out.write_text("")
    lines3 = run_sweep(spec)
    assert [json.loads(l)["params"] for l in lines3] == [json.loads(on_disk[0])["params"]]


def test_sweep_example_grid():
    """Three m-values over a four-prime pool: 12 records, every one with
    trivial torsion and rank lower bound at least 2."""
    spec = SweepSpec(
        m_values=(2, 34, 66),
        prime_pool=(3, 5, 7, 11),
        probe=False,
        height_bound=0,
        num_reduction_primes=5,
    )
    lines = run_sweep(spec)
    assert len(lines) == 12
    for line in lines:
        rec = json.loads(line)
        assert rec["torsion"]["order"] == "1"
        assert rec["rank"]["rank_lower_bound"] >= 2


@pytest.mark.usefixtures("time_bound")
def test_sweep_threads_match_serial():
    spec = SweepSpec(
        m_values=(2,),
        prime_pool=(3, 5, 7, 11),
        probe=False,
        height_bound=0,
        num_reduction_primes=3,
    )
    serial = [canonical_comparable(json.loads(l)) for l in run_sweep(spec, threads=1)]
    parallel = [canonical_comparable(json.loads(l)) for l in run_sweep(spec, threads=2)]
    assert serial == parallel and len(serial) == 4


def test_csv_projection():
    rec = _fast_record()
    row = record_to_csv_row(rec)
    assert row == "2,3,7,11,-1230075206576,1,2,false"
    assert CSV_HEADER.count(",") == row.count(",")


def test_cli_verify_exit_codes(capsys):
    assert main(["verify", "--m", "2", "--p", "3", "--q", "7", "--r", "11",
                 "--no-probe", "--reduction-primes", "3"]) == 0
    out = capsys.readouterr().out
    assert "rank lower bound: 2" in out
    assert "torsion: order 1" in out
    assert main(["verify", "--m", "2", "--p", "9", "--q", "7", "--r", "11"]) == 2
    assert "not prime" in capsys.readouterr().err


def test_cli_rejects_negative_probe_bounds(tmp_path, capsys):
    params = ["--m", "2", "--p", "3", "--q", "7", "--r", "11"]
    assert main(["verify", *params, "--height-bound", "-5"]) == 2
    assert "nonnegative" in capsys.readouterr().err
    assert main(["verify", *params, "--den-bound", "-1", "--no-probe"]) == 2
    out = tmp_path / "out.jsonl"
    sweep = ["sweep", "--m-list", "2", "--prime-pool", "3,5,7", "--out", str(out)]
    assert main([*sweep, "--den-bound", "-1"]) == 2
    assert not out.exists()
    assert main(["verify", *params, "--height-bound", "0", "--den-bound", "0"]) == 0


def test_cli_verify_runs_outside_hypotheses(capsys):
    """Hypothesis failures are reported but never stop the pipeline; the
    exit code reflects what was actually certified."""
    code = main(["verify", "--m", "3", "--p", "3", "--q", "7", "--r", "11",
                 "--no-probe", "--json"])
    rec = json.loads(capsys.readouterr().out)
    assert rec["hypotheses"]["all_ok"] is False
    assert rec["torsion"]["order"] == "1"
    # the halving route needs no hypotheses, so rank >= 2 still certifies
    assert rec["rank"]["rank_lower_bound"] == 2
    assert code == 0


def test_cli_sweep_flags_rank_three_hit(tmp_path):
    """A sweep record where the probe finds a third generator carries the
    flag, and the csv projection surfaces it."""
    out = tmp_path / "hit.csv"
    code = main([
        "sweep", "--m-list", "34", "--prime-pool", "3,5,7", "--height-bound", "50",
        "--den-bound", "1", "--reduction-primes", "3", "--out", str(out),
        "--format", "csv",
    ])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[1].startswith("34,3,5,7,")
    assert rows[1].endswith(",1,3,true")  # torsion 1, rank bound 3, probe hit


def test_cli_verify_json(capsys):
    code = main(["verify", "--m", "2", "--p", "3", "--q", "7", "--r", "11",
                 "--json", "--no-probe", "--reduction-primes", "3"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["rank"]["rank_lower_bound"] == 2


def test_cli_verify_out_holds_the_printed_line(tmp_path, capsys, monkeypatch):
    out = tmp_path / "record.jsonl"
    calls = []

    def counted(record):
        calls.append(record)
        return record_to_line(record)

    monkeypatch.setattr("ecrank.cli.record_to_line", counted)
    code = main(["verify", "--m", "2", "--p", "3", "--q", "7", "--r", "11", "--json",
                 "--no-probe", "--reduction-primes", "3", "--out", str(out)])
    assert code == 0
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out
    assert len(calls) == 1  # serialized once, for stdout and the file alike


def test_cli_count(capsys):
    assert main(["count", "--b", "0", "--c", "1", "--mod", "5"]) == 0
    assert "= 6" in capsys.readouterr().out
    assert main(["count", "--b", "-1", "--c", "0", "--mod", "3"]) == 0
    assert "= 4" in capsys.readouterr().out
    assert main(["count", "--b", "-1", "--c", "0", "--mod", "2"]) == 0
    assert "bad reduction" in capsys.readouterr().out
    assert main(["count", "--b", "0", "--c", "1", "--mod", "6"]) == 2


def test_cli_torsion(capsys):
    assert main(["torsion", "--b", "-1", "--c", "0"]) == 0
    assert "order: 4" in capsys.readouterr().out
    assert main(["torsion", "--m", "2", "--p", "3", "--q", "7", "--r", "11"]) == 0
    assert "order: 1" in capsys.readouterr().out
    assert main(["torsion"]) == 2


def test_cli_recheck(tmp_path, capsys):
    rec = _fast_record()
    path = tmp_path / "record.jsonl"
    path.write_text(record_to_line(rec) + "\n")
    assert main(["recheck", str(path)]) == 0
    assert "recheck: true" in capsys.readouterr().out
    tampered = json.loads(record_to_line(rec))
    tampered["rank"]["classes"]["shifted"]["nonzero"] = False
    path.write_text(record_to_line(tampered) + "\n")
    assert main(["recheck", str(path)]) == 1
    assert "recheck: false" in capsys.readouterr().out
    assert main(["recheck", str(tmp_path / "missing.jsonl")]) == 2


def test_cli_recheck_of_a_directory_is_a_usage_error(tmp_path, capsys):
    assert main(["recheck", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_verify_out_to_a_directory_is_a_usage_error(tmp_path, capsys):
    code = main(["verify", "--m", "2", "--p", "3", "--q", "7", "--r", "11",
                 "--no-probe", "--reduction-primes", "3", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = main([
        "sweep", "--m-list", "2", "--prime-pool", "3,5,7", "--no-probe",
        "--reduction-primes", "3", "--out", str(out), "--format", "csv",
    ])
    assert code == 0
    content = out.read_text().strip().splitlines()
    assert content[0] == CSV_HEADER
    assert content[1].startswith("2,3,5,7,")
    assert main(["sweep", "--m-list", "2", "--prime-pool", ""]) == 2


def test_cli_sweep_progression_syntax(capsys):
    code = main([
        "sweep", "--m-list", "2:32:2", "--prime-pool", "3,5,7", "--no-probe",
        "--reduction-primes", "3", "--json", "--require-hypotheses",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    ms = [json.loads(l)["params"]["m"] for l in lines]
    assert ms == ["2", "34"]


def test_recheck_cli_survives_unreadable_line(tmp_path, capsys):
    line = record_to_line(_fast_record())
    path = tmp_path / "records.jsonl"
    path.write_bytes(f"{line}\n{{not json\n".encode() + b"\xc3(\n" + f"{line}\n".encode())
    assert main(["recheck", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("record 0: ok (")
    assert out[1] == "record 1: MISMATCH (unreadable: JSONDecodeError)"
    assert out[2] == "record 2: MISMATCH (unreadable: UnicodeDecodeError)"
    assert out[3].startswith("record 3: ok (")
    assert out[4] == "recheck: false"


def test_sweep_resume_after_torn_line(tmp_path):
    """A sweep killed mid-line resumes to the file an uninterrupted run
    writes: the torn record is dropped and recomputed, not appended to."""
    options = dict(
        m_values=(2,), prime_pool=(3, 5, 7, 11), probe=False, height_bound=0, num_reduction_primes=3
    )
    full, torn = tmp_path / "full.jsonl", tmp_path / "torn.jsonl"
    run_sweep(SweepSpec(**options, output_path=str(full)))
    lines = full.read_text().splitlines(keepends=True)
    assert len(lines) == 4
    torn.write_text("".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
    resumed = run_sweep(SweepSpec(**options, output_path=str(torn)))
    assert len(resumed) == 2

    def comparable(path):
        return [canonical_comparable(json.loads(ln)) for ln in path.read_text().splitlines()]

    assert comparable(torn) == comparable(full)


def test_sweep_resumes_from_every_cut(tmp_path):
    """A sweep file cut at any byte resumes to the file an uninterrupted run
    writes: the csv file is cut at every byte, and gets no second header
    when the cut leaves the header alone, and the jsonl file at every line
    boundary and at a few offsets inside each line."""
    options = dict(m_values=(2,), prime_pool=(3, 5, 7, 11), probe=False, height_bound=0,
                   num_reduction_primes=3)
    cut, failed = tmp_path / "cut", []
    for fmt in ("csv", "jsonl"):
        full = tmp_path / f"full.{fmt}"
        spec = dict(options, output_format=fmt)
        assert len(run_sweep(SweepSpec(**spec, output_path=str(full)))) == 4
        data = full.read_bytes()
        if fmt == "csv":
            offsets = range(len(data) + 1)
        else:
            ends = [i for i, byte in enumerate(data) if byte == ord("\n")]
            starts = [0] + [end + 1 for end in ends]
            offsets = [len(data)] + [at for start, end in zip(starts, ends)
                                     for at in (start, start + 1, (start + end) // 2, end)]
        for at in offsets:
            cut.write_bytes(data[:at])
            try:
                run_sweep(SweepSpec(**spec, output_path=str(cut)))
                if fmt == "csv":
                    same = cut.read_bytes() == data
                else:
                    same = _comparable(cut) == _comparable(full)
            except SweepResumeMismatch:
                same = False
            if not same:
                failed.append((fmt, at))
    assert failed == []


def test_sweep_resume_refuses_other_spec(tmp_path, capsys):
    """A sweep cut to 2 lines at --reduction-primes 3 and resumed at 5 is
    refused before anything is appended, from the API and from the CLI."""
    options = dict(m_values=(2,), prime_pool=(3, 5, 7, 11), probe=False, height_bound=0)
    out = tmp_path / "sweep.jsonl"
    run_sweep(SweepSpec(**options, num_reduction_primes=3, output_path=str(out)))
    cut = "".join(out.read_text().splitlines(keepends=True)[:2])
    out.write_text(cut)
    with pytest.raises(SweepResumeMismatch, match="record 0"):
        run_sweep(SweepSpec(**options, num_reduction_primes=5, output_path=str(out)))
    with pytest.raises(SweepResumeMismatch, match="record 1"):
        run_sweep(SweepSpec(**dict(options, prime_pool=(3, 5, 7, 13)),
                            num_reduction_primes=3, output_path=str(out)))
    assert out.read_text() == cut
    argv = ["sweep", "--m-list", "2", "--prime-pool", "3,5,7,11", "--no-probe",
            "--height-bound", "0", "--out", str(out)]
    assert main(argv + ["--reduction-primes", "5"]) == 2
    assert "record 0" in capsys.readouterr().err
    assert out.read_text() == cut
    assert main(argv + ["--reduction-primes", "3"]) == 0
    assert len(out.read_text().splitlines()) == 4


def test_sweep_resume_refuses_other_csv_rows(tmp_path):
    """A csv row carries only m, p, q, r: those are checked, and so is the header."""
    spec = dict(m_values=(2,), probe=False, height_bound=0, num_reduction_primes=3,
                output_format="csv")
    out = tmp_path / "sweep.csv"
    run_sweep(SweepSpec(**spec, prime_pool=(3, 5, 7, 11), output_path=str(out)))
    out.write_text("".join(out.read_text().splitlines(keepends=True)[:3]))
    with pytest.raises(SweepResumeMismatch, match="record 0"):
        run_sweep(SweepSpec(**spec, prime_pool=(5, 7, 11, 13), output_path=str(out)))
    assert len(run_sweep(SweepSpec(**spec, prime_pool=(3, 5, 7, 11), output_path=str(out)))) == 2
    out.write_text("m,p,q\n")
    with pytest.raises(SweepResumeMismatch, match="header"):
        run_sweep(SweepSpec(**spec, prime_pool=(3, 5, 7, 11), output_path=str(out)))


def test_recheck_diff_names_the_cause():
    rec = _fast_record()
    assert recheck_diff(rec) is None
    assert recheck_diff({}) == "exception: KeyError"
    tampered = json.loads(record_to_line(rec))
    counts = tampered["torsion"]["reduction_counts"]
    counts[2][1] = str(int(counts[2][1]) + 1)
    assert recheck_diff(tampered) == "torsion.reduction_counts[2][1]"
    assert not recheck_record(tampered)
    tampered = json.loads(record_to_line(rec))
    del tampered["rank"]["classes"]["combined"]
    assert recheck_diff(tampered) == "rank.classes.combined"
    tampered = json.loads(record_to_line(rec))
    tampered["rank"]["classes"]["base"]["quartic"].pop()
    assert recheck_diff(tampered) == "rank.classes.base.quartic[4]"


def test_recheck_diff_is_exact_where_dict_equality_is_not():
    # each tampering leaves the record dict-equal to the one recheck
    # reproduces, yet changes its serialization, so it must be named
    rec = json.loads(record_to_line(_fast_record()))
    seeded = json.loads(GRID_SEED.read_text().splitlines()[21])  # (66, 3, 5, 11), probed

    def tamper(record, change):
        tampered = json.loads(record_to_line(record))
        change(tampered)
        assert tampered == record
        return recheck_diff(tampered)

    assert rec["rank"]["torsion_trivial"] is True
    assert tamper(rec, lambda t: t["rank"].update(torsion_trivial=1)) == "rank.torsion_trivial"
    assert tamper(rec, lambda t: t.update(schema=1.0)) == "schema"
    reordered = lambda t: t.update(params=dict(reversed(t["params"].items())))
    assert tamper(rec, reordered) == "params.r"
    assert seeded["probe"]["points"][0]["classes"]["c_combined"]["nonzero"] is False
    zeroed = lambda t: t["probe"]["points"][0]["classes"]["c_combined"].update(nonzero=0)
    assert tamper(seeded, zeroed) == "probe.points[0].classes.c_combined.nonzero"


def test_recheck_diff_names_types_json_never_makes():
    # a caller can hand recheck a tuple or a dict subclass; marshal writes
    # the tuple under its own type code and refuses the subclass, and the
    # walk names both
    rec = json.loads(record_to_line(_fast_record()))
    tupled = json.loads(record_to_line(rec))
    tupled["torsion"]["reduction_counts"][2] = tuple(tupled["torsion"]["reduction_counts"][2])
    assert recheck_diff(tupled) == "torsion.reduction_counts[2]"

    class Params(dict):
        pass

    subclassed = json.loads(record_to_line(rec))
    subclassed["params"] = Params(subclassed["params"])
    assert subclassed == rec
    assert recheck_diff(subclassed) == "params"


def _digit_slots(node, path, slots):
    """(container, key, JSON path) of every string that holds a digit."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        step = f"[{key}]" if isinstance(key, int) else f".{key}" if path else key
        if isinstance(value, (dict, list)):
            _digit_slots(value, path + step, slots)
        elif isinstance(value, str) and any(ch.isdigit() for ch in value):
            slots.append((node, key, path + step))


def test_recheck_diff_compares_bytes_before_it_walks(monkeypatch):
    lines = GRID_SEED.read_text().splitlines()

    def no_walk(stored, fresh):
        raise AssertionError("the walk ran on an identical record")

    def strip(record):
        return {k: v for k, v in record.items() if k != "timings"}

    # equal marshal bytes decide "identical" on every seed record, which a
    # marshal.dumps at its default version, with its interning flags and
    # back-references, would not
    monkeypatch.setattr(records, "_first_difference", no_walk)
    assert all(recheck_diff(json.loads(line)) is None for line in lines)
    monkeypatch.undo()
    # a one-digit tampering anywhere but params, which recheck rebuilds
    # from, is named where the walk, called directly, names it
    rng = random.Random(15)
    for line in lines:
        rec, tampered, slots = json.loads(line), json.loads(line), []
        _digit_slots(tampered, "", slots)
        container, key, path = rng.choice([s for s in slots if not s[2].startswith("params.")])
        text = container[key]
        pos = rng.choice([i for i, ch in enumerate(text) if ch.isdigit()])
        container[key] = text[:pos] + str((int(text[pos]) + 1) % 10) + text[pos + 1 :]
        direct = records._json_path(records._first_difference(strip(tampered), strip(rec)))
        assert recheck_diff(tampered) == direct == path


@pytest.mark.parametrize("options", [
    ["--m-list", "", "--prime-pool", "3,5,7"],
    ["--m-list", "", "--prime-pool", "3,5,7", "--format", "csv"],
    ["--m-list", "2", "--prime-pool", "3,3,5"],
    ["--m-list", "2", "--prime-pool", "3,3,5", "--format", "csv"],
    ["--m-list", "0,2", "--prime-pool", "3,5,7"],
    ["--m-list", "2", "--prime-pool", "3,5,7", "--reduction-primes", "0"],
    ["--m-list", "2", "--prime-pool", "3,5,7", "--threads", "0"],
    ["--m-list", "2", "--prime-pool", "3,5,7", "--threads", "-2"],
], ids=["no-m", "no-m-csv", "two-distinct-primes", "two-distinct-primes-csv", "m-zero",
        "no-reduction-primes", "zero-threads", "negative-threads"])
def test_cli_sweep_rejects_empty_or_bad_spec_before_writing(tmp_path, capsys, options):
    out = tmp_path / "out"
    assert main(["sweep", *options, "--no-probe", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_recheck_prints_cause(tmp_path, capsys):
    rec = json.loads(record_to_line(_fast_record()))
    rec["rank"]["classes"]["shifted"]["nonzero"] = False
    path = tmp_path / "records.jsonl"
    path.write_text(record_to_line(rec) + "\n{}\n")
    assert main(["recheck", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "record 0: MISMATCH (rank.classes.shifted.nonzero)",
        "record 1: MISMATCH (exception: KeyError)",
        "recheck: false",
    ]


def _comparable(path):
    return [canonical_comparable(json.loads(ln)) for ln in path.read_text().splitlines()]


@pytest.fixture
def time_bound():
    """Fail a multiprocess sweep test that hangs, instead of waiting on it."""
    def expire(signum, frame):
        raise TimeoutError("the sweep did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("time_bound")
def test_sweep_resume_after_torn_line_with_two_threads(tmp_path):
    full, torn = tmp_path / "full.jsonl", tmp_path / "torn.jsonl"
    run_sweep(SweepSpec(**STRIDED, output_path=str(full)))
    lines = full.read_text().splitlines(keepends=True)
    assert len(lines) == 10
    torn.write_text("".join(lines[:3]) + lines[3][: len(lines[3]) // 2])
    resumed = run_sweep(SweepSpec(**STRIDED, output_path=str(torn)), threads=2)
    assert len(resumed) == 7
    assert _comparable(torn) == _comparable(full)
    assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("time_bound")
def test_sweep_csv_two_threads_byte_identical(tmp_path):
    serial, strided = tmp_path / "serial.csv", tmp_path / "strided.csv"
    run_sweep(SweepSpec(**STRIDED, output_format="csv", output_path=str(serial)))
    run_sweep(SweepSpec(**STRIDED, output_format="csv", output_path=str(strided)), threads=2)
    assert strided.read_bytes() == serial.read_bytes()
    assert len(serial.read_text().splitlines()) == 11


@pytest.mark.usefixtures("time_bound")
def test_sweep_progress_in_combo_order_with_two_threads():
    calls = []
    lines = run_sweep(SweepSpec(**STRIDED), threads=2, progress=lambda *a: calls.append(a))
    assert calls == [(i, 10) for i in range(1, 11)]
    assert len(lines) == 10


@pytest.mark.usefixtures("time_bound")
@pytest.mark.parametrize("failing", [3, 4], ids=["worker-stride", "caller-stride"])
def test_sweep_raises_a_workers_exception_at_its_turn(tmp_path, monkeypatch, failing):
    """With two processes, combo 3 is the forked worker's and combo 4 the
    caller's: either way the sweep raises that combo's exception once the
    records before it are written, and leaves no process behind."""
    combos = SweepSpec(**STRIDED).combos()
    build = records.build_curve_record

    def build_or_fail(params, **opts):
        if (params.m, params.p, params.q, params.r) == combos[failing]:
            raise FactorizationIncomplete(f"no factors of {params}")
        return build(params, **opts)

    monkeypatch.setattr(records, "build_curve_record", build_or_fail)  # forked workers inherit it
    out = tmp_path / "sweep.jsonl"
    with pytest.raises(FactorizationIncomplete, match="no factors") as raised:
        run_sweep(SweepSpec(**STRIDED, output_path=str(out)), threads=2)
    if failing % 2:  # the worker's traceback comes along as the cause
        assert "in build_or_fail" in str(raised.value.__cause__)
    written = [json.loads(ln)["params"] for ln in out.read_text().splitlines()]
    assert written == [dict(zip("mpqr", map(str, c))) for c in combos[:failing]]
    assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("time_bound")
def test_sweep_raises_when_a_worker_dies_without_sending(tmp_path, monkeypatch):
    combos = SweepSpec(**STRIDED).combos()
    caller, build = os.getpid(), records.build_curve_record

    def build_or_exit(params, **opts):
        if os.getpid() != caller and (params.m, params.p, params.q, params.r) == combos[5]:
            os._exit(3)
        return build(params, **opts)

    monkeypatch.setattr(records, "build_curve_record", build_or_exit)
    out = tmp_path / "sweep.jsonl"
    with pytest.raises(SweepWorkerDied, match="code 3") as raised:
        run_sweep(SweepSpec(**STRIDED, output_path=str(out)), threads=2)
    assert type(raised.value) is ecrank.SweepWorkerDied  # exported beside SweepResumeMismatch
    assert len(out.read_text().splitlines()) == 5
    assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("time_bound")
def test_sweep_starts_one_worker_per_extra_combo_at_most(monkeypatch):
    # every multiprocessing context's Process starts through BaseProcess.start
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    spec = SweepSpec(**dict(STRIDED, m_values=(2, 34), prime_pool=(3, 5, 7)))
    assert len(run_sweep(spec, threads=5)) == 2
    assert len(started) == 1
    assert run_sweep(spec, threads=1) and len(started) == 1
    assert multiprocessing.active_children() == []
