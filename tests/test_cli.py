import contextlib
import io
import json
import operator
import os
import random
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

import orderinv.catalog as catalog_mod
import orderinv.cli as cli_mod
import orderinv.groups as groups_mod
import orderinv.matching as matching_mod
import orderinv.report as report_mod
import orderinv.theorems as theorems_mod
from orderinv.catalog import (
    CatalogSpec,
    Family,
    _family_plan,
    _parser,
    default_catalog_spec,
    group_from_label,
    iter_catalog,
    semidirect_label_parts,
)
from orderinv.cli import main
from orderinv.groups import cyclic, elementary_abelian, from_cayley_table
from orderinv.matching import DivisibilityMatching
from orderinv.order_stats import order_profile
from orderinv.report import run_sweep
from deadline import time_limit
from oracles import report_text, v1_verdicts
from synthetic import relabelled_table

CHILD_ADDRESS_SPACE = 1_500_000_000  # bytes; an uncapped table dies here, not the host


def _limit_child_memory() -> None:
    resource.setrlimit(
        resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE)
    )


def run_cli(*argv, env=None, text=True) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "orderinv.cli", *argv],
        capture_output=True, text=text, timeout=60, preexec_fn=_limit_child_memory,
        env=None if env is None else {**os.environ, **env},
    )


def parse_table(text: str) -> dict[str, str]:
    rows = {}
    for line in text.splitlines():
        parts = re.split(r"\s{2,}", line.rstrip(), maxsplit=1)
        if len(parts) == 2:
            rows[parts[0]] = parts[1]
    return rows


def test_help_and_usage_exit_codes():
    assert run_cli("--help").returncode == 0
    assert run_cli().returncode == 2
    assert run_cli("compute").returncode == 2  # --group is required
    assert run_cli("frobnicate").returncode == 2


def test_compute_table_output(capsys):
    assert main(["compute", "--group", "S3", "--r", "0", "--s", "1"]) == 0
    rows = parse_table(capsys.readouterr().out)
    assert rows["weighted order sum"] == "13"
    assert rows["cyclic baseline"] == "21"
    assert rows["cyclic excess"] == "-8 (neg)"


def test_compute_json_output(capsys):
    assert main(["compute", "--group", "Q8", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 8
    assert payload["solution_counts"] == {"1": 1, "2": 2, "4": 8, "8": 8}
    assert payload["cyclic_subgroup_count"] == 5
    assert payload["is_nilpotent"] is True and payload["is_cyclic"] is False


def test_compute_exits_1_when_the_nilpotency_routes_differ(capsys, monkeypatch):
    # the flag is read off the profile and checked in the table
    monkeypatch.setattr(report_mod, "is_nilpotent", lambda group: False)
    assert main(["compute", "--group", "Q8", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "anomaly: Q8: nilpotent is False from the profile, True in the table\n"


def test_compute_fractional_exponents_get_exact_signs(capsys):
    # non-integer exponents get an exact sign too; only the values are float readings
    assert main(["compute", "--group", "C6", "--r", "0.5", "--s", "1/2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "exact"
    assert payload["sign"] == "zero"  # cyclic group, excess vanishes
    assert payload["cyclic_excess"] == "0"


def test_compute_prints_a_vanishing_excess_as_zero(capsys):
    # the float reading of this excess is 2^-31, a rounding error; the exact sum is 0
    assert main(["compute", "--group", "E2^6", "--r", "31/2", "--s", "31/2"]) == 0
    assert "cyclic excess         0 (zero)\n" in capsys.readouterr().out
    # a tiny but nonzero excess keeps its float reading and gets its exact sign
    assert main(["compute", "--group", "D4", "--r=-13/2", "--s=-32",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sign"] == "pos" and 0 < payload["cyclic_excess"] < 1e-8


def test_compute_bad_inputs(capsys):
    assert main(["compute", "--group", "NOPE"]) == 2
    assert main(["compute", "--group", "C12", "--n", "7"]) == 2
    capsys.readouterr()
    # an acting factor of 0 is no semidirect label, and must not stall the parser
    for argv in (["compute", "--group", "C3:C0"], ["compute", "--group", "C3:C00"],
                 ["compute", "--group", "C2xC3:C0"], ["match", "--group", "C5:C0"],
                 ["example", "--group", "C3:C0"]):
        with time_limit(5):
            assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv
    assert run_cli("compute", "--group", "C4", "--r", "abc").returncode == 2
    # a product with an empty factor is refused by the label as given
    for label in ("C2x", "xC2", "C2xxC3"):
        code, _, err = _main_in_process(["compute", "--group", label])
        assert (code, err) == (2, f"error: unrecognized group label {label!r}\n"), label
    # so is a product with a factor that is no label, wherever it stands
    for label in ("C2xfoo", "fooxC2", "C2xC3:C0xC3", "C2xfooxC3"):
        for command in ("compute", "match"):
            code, _, err = _main_in_process([command, "--group", label])
            assert (code, err) == (2, f"error: unrecognized group label {label!r}\n"), label
    # oversize labels are refused before any table is allocated
    for label in ("C20000", "S12", "D100000", "Q65536", "E2^100000000",
                  "C100xC100", "C101:C64"):
        proc = run_cli("compute", "--group", label)
        assert proc.returncode == 2, (label, proc.stderr)
        assert "exceeds the order cap 5000" in proc.stderr, label
        assert "Traceback" not in proc.stderr, label
    # the semidirect cap is checked on m, beta and u, before any product is printed
    huge = 10**4000
    proc = run_cli("compute", "--group", f"C{huge + 1}:C{2 * (huge + 3)}")
    assert proc.returncode == 2 and "exceeds the order cap" in proc.stderr, proc.stderr[-300:]
    assert "Traceback" not in proc.stderr
    # numbers too long for int() name the cap, or the family's own refusal
    # once their leading zeros are gone
    zeros, nines = "0" * 5000, "9" * 5000
    over = "a number of {} digits exceeds the order cap 5000".format
    for argv, message in (
        (["compute", "--group", f"C{nines}"], f"error: {over(5000)}"),
        (["compute", "--group", f"C3:C2{zeros}"], f"error: {over(5001)}"),
        (["match", "--group", f"E2^{nines}"], f"error: {over(5000)}"),
        (["example", "--group", f"C{nines}:C2"], f"error: {over(5000)}"),
        (["compute", "--group", f"C{zeros}"], "error: cyclic group needs order >= 1, got 0"),
        (["compute", "--group", f"C2:C{zeros}6"], "error: gcd(2, 2^1*3) = 2, expected 1"),
        (["compute", "--group", "C12", "--n", f"1{zeros}"], f"argument --n: {over(5001)}"),
        (["verify", "--order-cap", f"1{zeros}"], f"argument --order-cap: {over(5001)}"),
    ):
        code, _, err = _main_in_process(argv)
        assert code == 2 and message in err, (argv[:2], err[-200:])
    assert _main_in_process(["compute", "--group", f"C{zeros}7", "--n", f"{zeros}7"])[0] == 0
    # exponents beyond the bound are refused before any arithmetic
    for exponents in (("--r", "0.5", "--s", "1e300"), ("--s", "100000"),
                      ("--r", "0", "--s", "1000000000"), ("--s", "1e-999999999"),
                      ("--r", "1/33")):
        proc = run_cli("compute", "--group", "C2xC2", *exponents)
        assert proc.returncode == 2, (exponents, proc.stderr)
        assert "exceeds the exponent bound 32" in proc.stderr, exponents
        assert "Traceback" not in proc.stderr, exponents


def test_compute_at_the_exponent_bound(capsys):
    assert main(["compute", "--group", "S4", "--r", "-32", "--s", "32"]) == 0
    assert main(["compute", "--group", "S4", "--r=-31/32", "--s", "32.0"]) == 0
    assert main(["compute", "--group", "S4", "--r", "0e999999999"]) == 0
    assert "r=0 s=0 (exact)" in capsys.readouterr().out


def test_negative_exponents_need_no_equals_sign():
    for flag, value in (("--r", "-1/2"), ("--s", "-1e0"), ("--r", "-1/3"), ("--s", "-.5")):
        spaced = run_cli("compute", "--group", "S3", flag, value, "--format", "json")
        joined = run_cli("compute", "--group", "S3", f"{flag}={value}", "--format", "json")
        assert joined.returncode == 0, joined.stderr
        assert (spaced.returncode, spaced.stdout) == (0, joined.stdout), (value, spaced.stderr)
    proc = run_cli("compute", "--group", "S3", "--r")
    assert proc.returncode == 2
    assert "expected one argument" in proc.stderr


def test_compute_from_file(tmp_path, capsys):
    path = tmp_path / "klein.json"
    path.write_text(json.dumps({
        "label": "klein", "order": 4,
        "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
    }))
    assert main(["compute", "--group", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["group"] == "klein"
    assert payload["solution_counts"] == {"1": 1, "2": 4, "4": 4}


def test_a_file_does_not_shadow_a_label(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "C4").write_text("not a group file\n")
    assert main(["compute", "--group", "C4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["group"] == "C4"
    # a directory part makes it a path
    assert main(["compute", "--group", "./C4"]) == 2
    assert capsys.readouterr().err.startswith("error: ./C4: not valid JSON")


def test_match_solvable_group(capsys):
    assert main(["match", "--group", "D4"]) == 0
    assert "found and verified" in capsys.readouterr().out


def test_match_json(capsys):
    assert main(["match", "--group", "S3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "found" and payload["verified"] is True
    assert payload["assignment"]["2"] == {"2": 1, "6": 2}


def test_match_exit_code_is_the_matching_verdict(monkeypatch, capsys):
    # a missing matching is an inconsistency only for a solvable group
    violated = DivisibilityMatching("violated", {}, frozenset({2}))
    monkeypatch.setattr(matching_mod, "_matching_for", lambda profile: violated)
    for label, code in (("S3", 1), ("A5", 0)):
        assert main(["match", "--group", label]) == code
        assert "blocking orders [2]" in capsys.readouterr().out
        verdict = theorems_mod.check_divisibility_matching(group_from_label(label))
        assert verdict.consistent == (code == 0)


def test_example_defaults(capsys):
    assert main(["example"]) == 0
    rows = parse_table(capsys.readouterr().out)
    assert rows["expected count"] == "10"
    assert rows["consistent"] == "True"
    assert "brute=10" in rows["checks"]


def test_example_rejects_non_semidirect_labels():
    assert main(["example", "--group", "S4"]) == 2


def test_example_json(capsys):
    assert main(["example", "--group", "C5:C6", "--grid", "2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["claim"] == "inversion-semidirect-count"
    assert payload["consistent"] is True


def test_ingest_reports_and_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "label": "c3", "order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    }))
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["ingest", str(good)]) == 0
    assert "OK" in capsys.readouterr().out
    assert main(["ingest", str(good), str(bad), "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["groups"]) == 1 and len(payload["errors"]) == 1
    for data in (
        {"label": "x", "table": [[0, 1.0], [1, 0]]},
        {"label": "x", "table": [[0, 1], [1, None]]},
        {"label": "x", "table": [[0, "1"], [1, 0]]},
        {"label": "x", "table": [[False, True], [True, False]]},
        {"label": "x", "table": [[0, 1], 7]},
        {"label": "x", "degree": 0, "generators": []},
        {"label": "x", "degree": -1, "generators": []},
        {"label": "x", "degree": 300000000, "generators": []},
        {"label": "x", "degree": 3, "generators": [[1.0, 0.0, 2.0]]},
        {"label": "x", "degree": 3, "generators": [5]},
        {"label": "x", "degree": 3, "generators": [[True, False, 2]]},
    ):
        bad.write_text(json.dumps(data))
        assert main(["ingest", str(bad)]) == 2, data
        assert "ERROR" in capsys.readouterr().out, data
    # an integer too long for int() is no valid JSON, and int()'s advice stays out
    bad.write_text('{"label": "x", "table": [[' + "9" * 5001 + "]]}")
    assert main(["ingest", str(bad)]) == 2
    assert capsys.readouterr().out == (
        f"ERROR {bad}: not valid JSON (Exceeds the limit (4300 digits) for integer"
        " string conversion: value has 5001 digits)\n")


def test_group_file_order_must_be_an_integer(tmp_path, capsys):
    # 2.0 and true compare equal to a table size; "2" does not, and got a
    # message about the size
    path, spec = tmp_path / "g.json", tmp_path / "cat.json"
    spec.write_text(json.dumps({"families": {}, "ingested": ["g.json"]}))
    for order, shown in ((2.0, "2.0"), (True, "True"), ("2", "'2'")):
        path.write_text(json.dumps({"label": "g", "order": order, "table": [[0, 1], [1, 0]]}))
        message = f"'order' must be an integer, got {shown}"
        assert main(["ingest", str(path)]) == 2, order
        assert capsys.readouterr().out == f"ERROR {path}: {message}\n"
        assert main(["compute", "--group", str(path)]) == 2, order
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert main(["verify", "--catalog", str(spec)]) == 2, order
        assert json.loads(capsys.readouterr().out)["input_errors"] == [
            {"path": str(path), "error": message}]
    for order in (2, None):  # an integer or null order is read as before
        path.write_text(json.dumps({"label": "g", "order": order, "table": [[0, 1], [1, 0]]}))
        assert main(["ingest", str(path)]) == 0, order
        assert capsys.readouterr().out.startswith("OK ")


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # both cost start-up time in every one-shot process; no value type needs them
    probe = ("import sys; before = set(sys.modules); import orderinv.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    src = os.path.dirname(os.path.dirname(cli_mod.__file__))  # the package under test
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "orderinv.cli" in added and "orderinv.order_stats" in added, added
    assert "dataclasses" not in added and "inspect" not in added, added


LOOP5 = [  # a loop with two-sided identity that is not associative
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_ingest_refuses_each_table_that_is_no_group(tmp_path, capsys):
    # every ingested table gets the Latin scan and Light's test
    path = tmp_path / "bad.json"
    for table, message in (
        ([[0, 1], [1, 1]], "row 1 is not a permutation of 0..1"),
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "column 1 is not a permutation of 0..2"),
        ([[(i - j) % 3 for j in range(3)] for i in range(3)],
         "0 is not a left identity at element 1"),
        (LOOP5, "(1*1)*2 != 1*(1*2)"),
    ):
        path.write_text(json.dumps({"label": "bad", "table": table}))
        assert main(["ingest", str(path)]) == 2, message
        assert capsys.readouterr().out == f"ERROR {path}: {message}\n"


def test_ingest_names_each_path_once(tmp_path, capsys):
    files = {
        "not-rows.json": {"label": "x", "table": 5},
        "loop.json": {"label": "loop5", "order": 5, "table": LOOP5},
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    paths = [str(tmp_path / name) for name in files]
    assert main(["ingest", *paths, "--format", "json"]) == 2
    errors = json.loads(capsys.readouterr().out)["errors"]
    assert [e["path"] for e in errors] == paths
    assert errors[0]["error"] == "'table' must be a list of rows"
    assert errors[1]["error"].startswith("(")  # the failing triple
    assert all(e["path"] not in e["error"] for e in errors)
    assert main(["ingest", *paths]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"ERROR {e['path']}: {e['error']}" for e in errors]


def test_deeply_nested_file_exits_two(tmp_path):
    # json.load raises RecursionError on nesting this deep
    path = tmp_path / "deep.json"
    path.write_text('{"label": "x", "table": ' + "[" * 100_000 + "]" * 100_000 + "}")
    spec = tmp_path / "spec.json"
    spec.write_text('{"families": ' + "[" * 100_000 + "]" * 100_000 + "}")
    for argv in (("ingest", str(path)), ("compute", "--group", str(path)),
                 ("verify", "--catalog", str(spec))):
        proc = run_cli(*argv)
        assert proc.returncode == 2, argv
        assert "not valid JSON (nested too deeply)" in proc.stdout + proc.stderr, argv
        assert "Traceback" not in proc.stderr, argv


def test_ingest_1024_row_table_in_seconds(tmp_path):
    # a relabelled E2^10: every element has order 2, so Light's test needs
    # ten generators; the full O(n^3) scan took about 53 s on this file
    group = elementary_abelian(2, 10)
    n = group.order
    table = relabelled_table(group, [0] + random.Random(1).sample(range(1, n), n - 1))
    path = tmp_path / "e2-10.json"
    path.write_text(json.dumps({"label": "E", "order": n, "table": table}))
    start = time.perf_counter()
    proc = run_cli("ingest", str(path), "--format", "json")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    [row] = json.loads(proc.stdout)["groups"]
    assert row["profile"] == {"1": 1, "2": n - 1}
    assert elapsed < 20, elapsed


def test_verify_small_catalog(tmp_path, capsys):
    spec = tmp_path / "cat.json"
    spec.write_text(json.dumps({
        "families": {"cyclic": [1, 8], "symmetric": [1, 3]},
        "order_cap": 8,
    }))
    assert main(["verify", "--catalog", str(spec)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["groups"] == 11
    assert payload["summary"]["inconsistent"] == 0
    assert payload["exit_status"] == 0


def test_verify_paranoid_gives_the_same_report():
    plain = run_cli("verify", "--order-cap", "24")
    paranoid = run_cli("verify", "--paranoid", "--order-cap", "24")
    assert plain.returncode == paranoid.returncode == 0
    assert paranoid.stdout == plain.stdout


def test_verify_streams_the_same_bytes_to_stdout_and_out_file(tmp_path):
    expected = report_text(
        run_sweep(iter_catalog(default_catalog_spec(order_cap=24)))).encode()
    unbuffered = run_cli("verify", "--order-cap", "24", env={"PYTHONUNBUFFERED": "1"},
                         text=False)
    out = tmp_path / "report.json"
    to_file = run_cli("verify", "--order-cap", "24", "--out", str(out), text=False)
    assert unbuffered.returncode == to_file.returncode == 0
    assert to_file.stdout == b""
    assert unbuffered.stdout == out.read_bytes() == expected


def test_verify_claim_selection(tmp_path, capsys):
    spec = tmp_path / "cat.json"
    spec.write_text(json.dumps({"families": {"cyclic": [1, 5]}}))
    assert main(["verify", "--catalog", str(spec),
                 "--claims", "frobenius-divisibility,min-cyclic-count"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["claims"] == ["frobenius-divisibility", "min-cyclic-count"]
    for record in payload["groups"]:
        assert {v["claim"] for v in v1_verdicts(record)} == set(payload["claims"])


def test_verify_out_file(tmp_path, capsys):
    spec = tmp_path / "cat.json"
    spec.write_text(json.dumps({"families": {"cyclic": [1, 4]}}))
    out = tmp_path / "report.json"
    assert main(["verify", "--catalog", str(spec), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["summary"]["groups"] == 4


def test_verify_bad_ingested_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    spec = tmp_path / "cat.json"
    spec.write_text(json.dumps({
        "families": {"cyclic": [1, 4]}, "ingested": ["bad.json"],
    }))
    assert main(["verify", "--catalog", str(spec)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["groups"] == 4  # families still swept
    assert len(payload["input_errors"]) == 1


def test_verify_input_errors_name_each_path_once(tmp_path, capsys):
    (tmp_path / "rows.json").write_text(json.dumps({"label": "x", "table": 5}))
    (tmp_path / "loop.json").write_text(json.dumps({"label": "loop5", "table": LOOP5}))
    spec = tmp_path / "cat.json"
    spec.write_text(json.dumps({
        "families": {"cyclic": [1, 2]}, "ingested": ["rows.json", "loop.json"],
    }))
    assert main(["verify", "--catalog", str(spec)]) == 2
    errors = json.loads(capsys.readouterr().out)["input_errors"]
    by_name = {e["path"].rsplit("/", 1)[-1]: e["error"] for e in errors}
    assert by_name["rows.json"] == "'table' must be a list of rows"
    assert by_name["loop.json"].startswith("(")  # the failing triple
    assert all(e["path"] not in e["error"] for e in errors)
    assert main(["verify", "--catalog", str(spec), "--format", "table"]) == 2
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("INPUT ERROR")]
    assert lines == [f"INPUT ERROR {e['path']}: {e['error']}" for e in errors]


def test_verify_ingested_file_errors(tmp_path, capsys):
    # each check on an ingested file, against catalog labels and earlier files
    def cyclic_table(order):
        return [[(i + j) % order for j in range(order)] for i in range(order)]

    files = {
        "a-big.json": {"label": "big", "table": cyclic_table(12)},
        "b-bad.json": [],
        "c-dup-catalog.json": {"label": "C2", "table": cyclic_table(2)},
        "d-k.json": {"label": "k", "table": cyclic_table(3)},
        "e-dup-file.json": {"label": "k", "table": cyclic_table(5)},
        "f-semidirect.json": {"label": "C3:C2", "table": cyclic_table(6)},
        "g-no-semidirect.json": {"label": "C3:C0", "table": cyclic_table(3)},
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    spec = tmp_path / "cat.json"
    spec.write_text(json.dumps({
        "families": {"cyclic": [1, 4]}, "ingested": list(files), "order_cap": 8,
    }))
    expected = [
        ("a-big.json", "order 12 is above the catalog cap 8"),
        ("b-bad.json", "expected a JSON object at top level"),
        ("c-dup-catalog.json", "duplicate label 'C2'"),
        ("e-dup-file.json", "duplicate label 'k'"),
    ]
    for paranoid in ((), ("--paranoid",)):
        with time_limit(10):
            assert main(["verify", "--catalog", str(spec), *paranoid]) == 2
        payload = json.loads(capsys.readouterr().out)
        # a label is only a name: a file's C3:C2 (a C6 table) and C3:C0 are
        # swept like any other label, and no claim reads them
        assert [g["label"] for g in payload["groups"]] == [
            "C1", "C2", "C3", "C3:C0", "k", "C4", "C3:C2"]
        assert "inversion-semidirect-count" not in payload["groups"][-1]["verdicts"]
        assert payload["input_errors"] == [
            {"path": str(tmp_path / name), "error": error} for name, error in expected]


def test_verify_duplicate_catalog_label_exits_two(monkeypatch, capsys):
    # the plan refuses the second C2 before any table is built; nothing is printed
    spec = CatalogSpec(families=(("cyclic", (1, 4)), ("cyclic", (2, 6))), order_cap=8)
    monkeypatch.setattr(cli_mod, "default_catalog_spec", lambda order_cap: spec)
    for paranoid in ((), ("--paranoid",)):
        assert main(["verify", *paranoid]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: duplicate catalog label 'C2'\n")


def test_verify_relative_ingest_paths_resolve_to_spec_dir(tmp_path, capsys):
    (tmp_path / "k.json").write_text(json.dumps({
        "label": "k4", "order": 4,
        "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
    }))
    spec = tmp_path / "cat.json"
    spec.write_text(json.dumps({
        "families": {"cyclic": [1, 2]}, "ingested": ["k.json"],
    }))
    assert main(["verify", "--catalog", str(spec)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [g["label"] for g in payload["groups"]] == ["C1", "C2", "k4"]


def test_verify_table_format(tmp_path, capsys):
    spec = tmp_path / "cat.json"
    spec.write_text(json.dumps({"families": {"dihedral": [3, 5]}}))
    assert main(["verify", "--catalog", str(spec), "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert parse_table(out)["groups"] == "3"
    assert "INCONSISTENT" not in out


def test_verify_table_lists_inconsistent_verdicts_in_parameter_text_order(
        tmp_path, monkeypatch, capsys):
    # generated at (r, s) = (-2, -3), (-1, -3), (-1, -2); listed as the JSON
    # text of their parameters sorts
    real = theorems_mod.check_nonnegative_gap

    def doctored(group, n, points):
        return [v._replace(consistent=False) if n == 2 and r < 0 else v
                for v, (r, _) in zip(real(group, n, points), points)]

    monkeypatch.setattr(theorems_mod, "check_nonnegative_gap", doctored)
    spec = tmp_path / "cat.json"
    spec.write_text(json.dumps({"families": {"cyclic": [1, 3]}}))
    assert main(["verify", "--catalog", str(spec), "--claims",
                 "gap-nonneg,min-cyclic-count", "--format", "table"]) == 1
    out = capsys.readouterr().out
    assert parse_table(out)["inconsistent"] == "3"
    assert [line for line in out.splitlines() if line.startswith("INCONSISTENT")] == [
        "INCONSISTENT C2 gap-nonneg n=2 r=-1 s=-2 ",
        "INCONSISTENT C2 gap-nonneg n=2 r=-1 s=-3 ",
        "INCONSISTENT C2 gap-nonneg n=2 r=-2 s=-3 ",
    ]


def test_verify_rejects_bad_spec_files(tmp_path):
    missing = tmp_path / "none.json"
    assert main(["verify", "--catalog", str(missing)]) == 2
    for spec in (
        {"families": ["cyclic"]},
        {"families": {"cyclic": 5}},
        {"families": {"cyclic": ["a", "b"]}},
        {"families": {"cyclic": [1.5, 4]}},
        {"families": {"cyclic": [True, 4]}},
        {"families": {"cyclic": [1, 4]}, "order_cap": True},
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        assert main(["verify", "--catalog", str(bad)]) == 2, spec
    bad.write_text('{"order_cap": ' + "9" * 5001 + "}")
    code, _, err = _main_in_process(["verify", "--catalog", str(bad)])
    assert code == 2 and err.startswith(f"error: {bad}: not valid JSON (Exceeds the limit")
    assert "set_int_max_str_digits" not in err


def test_every_catalog_spec_read_error_names_the_path(tmp_path, capsys):
    files = {"missing.json": None, "cut.json": b'{"families": {', "latin1.json": b"\xff"}
    for name, content in files.items():
        if content is not None:
            (tmp_path / name).write_bytes(content)
        assert main(["verify", "--catalog", str(tmp_path / name)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / name}: "), name


def test_verify_refuses_a_catalog_above_the_cell_budget():
    # at cap 2000 the default catalog plans 5.6e9 table cells; it is refused
    # before the first table is built
    start = time.perf_counter()
    proc = run_cli("verify", "--order-cap", "2000")
    assert proc.returncode == 2, proc.stderr
    assert "order cap 2000 exceeds 25000000 table cells" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert time.perf_counter() - start < 20


def test_grid_beyond_the_exponent_bound_exits_two():
    for argv in (("verify", "--order-cap", "4", "--grid", "1000000"),
                 ("example", "--grid", "33")):
        start = time.perf_counter()
        proc = run_cli(*argv)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert "exceeds the exponent bound 32" in proc.stderr, argv
        assert "Traceback" not in proc.stderr, argv
        assert time.perf_counter() - start < 20


def test_verify_family_ranges_stop_at_the_cap(tmp_path):
    # ranges far beyond the cap plan only the groups within it
    for families, cap, labels in (
        ({"cyclic": [1, 10**12]}, 4, ["C1", "C2", "C3", "C4"]),
        ({"symmetric": [1, 10**9]}, 6, ["S1", "S2", "S3"]),
    ):
        spec = tmp_path / "cat.json"
        spec.write_text(json.dumps({"families": families, "order_cap": cap}))
        proc = run_cli("verify", "--catalog", str(spec), "--format", "json")
        assert proc.returncode == 0, proc.stderr
        assert [g["label"] for g in json.loads(proc.stdout)["groups"]] == labels


def test_verify_sweeps_ingested_semidirect_labels(tmp_path, capsys):
    # valid cyclic tables under labels of the semidirect family's form: C9:C6
    # names no group of the family, and C3:C10 a different group of order 30.
    # No claim reads a label, so each file is swept as the cyclic group it is.
    for label, order in (("C9:C6", 54), ("C3:C10", 30)):
        table = [[(i + j) % order for j in range(order)] for i in range(order)]
        (tmp_path / f"c{order}.json").write_text(
            json.dumps({"label": label, "order": order, "table": table}))
    spec = tmp_path / "cat.json"
    spec.write_text(json.dumps({
        "families": {"cyclic": [1, 2]}, "ingested": ["c54.json", "c30.json"],
        "order_cap": 64,
    }))
    assert main(["verify", "--catalog", str(spec)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [g["label"] for g in payload["groups"]] == ["C1", "C2", "C3:C10", "C9:C6"]
    assert (payload["anomalies"], payload["input_errors"]) == ([], [])
    for record, order in zip(payload["groups"][2:], (30, 54)):
        assert "inversion-semidirect-count" not in record["verdicts"]
        [twin] = run_sweep([group_from_label(f"C{order}")])["groups"]
        assert {**record, "label": f"C{order}"} == json.loads(twin)


# a label grammar: family letters; digit strings, often small, with leading
# zeros and the non-ASCII digits \u0663 (3) and \uff14 (4); the separators
# of products, semidirect and elementary abelian labels; whitespace
_DIGITS = st.builds(
    operator.add,
    st.sampled_from(["", "", "", "0", "00"]),
    st.one_of(
        st.sampled_from(["0", "1", "2", "3", "4", "5", "6", "8", "9", "10", "12",
                         "15", "16", "\u0663", "\uff14", "1\u0663"]),
        st.sampled_from(["0", "2", "3", "4", "5", "8"]),
        st.text("0123456789\u0663\uff14", min_size=1, max_size=2),
    ),
)


def _planned_labels(cap: int = 64) -> list[str]:
    """The label of every group each catalog family plans under the cap,
    with the default catalog's parameters (none for a family outside it)."""
    params = dict(default_catalog_spec(cap).families)
    return [label for name in catalog_mod._FAMILIES
            for _, label in _family_plan(name, params.get(name, ()), cap)]


def _respell(label: str, zeros: str, foreign: bool) -> str:
    """The label with each number led by zeros, and its digits 3 and 4
    written as \u0663 and \uff14 when foreign."""
    text = re.sub(r"\d+", lambda number: zeros + number.group(), label)
    return text.translate(str.maketrans("34", "\u0663\uff14")) if foreign else text


# well-formed factors from every family's plan, some in unusual spellings,
# so that labels also parse
_VALID_FACTOR = st.builds(_respell, st.sampled_from(_planned_labels()),
                          st.sampled_from(["", "", "", "0", "00"]), st.booleans())
_FACTOR = st.one_of(
    _VALID_FACTOR,
    _VALID_FACTOR,
    st.builds(operator.add, st.sampled_from("CDQSEA"), _DIGITS),
    st.builds("E{}^{}".format, _DIGITS, _DIGITS),
    st.builds("C{}:C{}".format, _DIGITS, _DIGITS),
)
_SEPARATOR = st.sampled_from(["x", "x", "x", ":", "^", " ", " x "])
_PAD = st.sampled_from(["", "", "", "", " ", "\t"])


@st.composite
def _labels(draw):
    factors = draw(st.lists(_FACTOR, min_size=1, max_size=2))
    text = factors[0] + "".join(draw(_SEPARATOR) + f for f in factors[1:])
    return draw(_PAD) + text + draw(_PAD)


# exponents: integers, fractions, decimals, exponent notation, signs, underscores
_SIGN = st.sampled_from(["", "-", "+"])
_MAYBE_DIGITS = st.one_of(st.just(""), _DIGITS)
_EXPONENT = st.one_of(
    st.integers(-4, 4).map(str),
    st.integers(-4, 4).map(str),
    st.builds("{}{}/{}".format, _SIGN, _DIGITS, _DIGITS),
    st.builds("{}{}.{}".format, _SIGN, _MAYBE_DIGITS, _MAYBE_DIGITS),
    st.builds("{}{}e{}{}".format, _SIGN, _DIGITS, _SIGN, _DIGITS),
    st.sampled_from(["1_0", "_1", "1/0", "nan", "-inf", "", " 1"]),
)
_OPTIONS = st.lists(st.builds(
    lambda flag, value, joined: [f"{flag}={value}"] if joined else [flag, value],
    st.sampled_from(["--r", "--s", "--r", "--s", "--n"]), _EXPONENT, st.booleans(),
), max_size=2).map(lambda options: sum(options, []))

FUZZ_ORDER_CAP = 128  # every table the fuzz builds stays small; the real cap is tested above


def test_compute_at_the_order_cap_builds_only_the_rows_it_reads():
    # C4999 x C1 built in bulk made its 25M cells and its factor's: 2.9 s, 398 MB
    tracemalloc.start()
    try:
        with time_limit(5):
            code, out, _ = _main_in_process(
                ["compute", "--group", "C4999xC1", "--format", "json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["is_cyclic"] is True
    assert peak < 32 * 2**20, peak


def _main_in_process(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# no shrink phase: each stalled example costs the full deadline, and the
# labels are short enough to read as found
@settings(max_examples=200, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(_labels(), _OPTIONS)
@example("C3:C0", [])
@example("C2xC3:C00", ["--r", "-1/2"])
@example(" C\uff14", ["--s=\u0663"])
@example("C3:C10", ["--r", "-1/2", "--n", "15"])
@example(" C3:C10", [])
@example("C\u0663:C1\u0660", [])
def test_cli_grammar_fuzz(label, options):
    """No label or exponent stalls or crashes compute, match or example."""
    printed = {}
    with mock.patch.object(groups_mod, "MAX_ORDER", FUZZ_ORDER_CAP):
        for argv in (["compute", "--group", label, "--format", "json", *options],
                     ["match", "--group", label],
                     ["example", "--group", label]):
            with time_limit(3):
                code, out, err = _main_in_process(argv)
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in out + err, argv
            if code == 2:
                assert err.strip(), argv
            if argv[0] != "match" and code == 0:
                printed[argv[0]] = (json.loads(out) if argv[0] == "compute"
                                    else parse_table(out))["group"]
                with time_limit(3):
                    assert (order_profile(group_from_label(printed[argv[0]]))
                            == order_profile(group_from_label(label))), (label, printed)
    # example takes every semidirect label that compute takes, and prints it alike
    if semidirect_label_parts(printed.get("compute", "")) is not None:
        assert printed.get("example") == printed["compute"], (label, printed)


# JSON of random shape, for catalog specs and group files: the keys and family
# names of both formats appear among the random ones, so some examples get deep
_JSON_KEYS = st.sampled_from(
    ["families", "ingested", "order_cap", "label", "order", "table", "degree", "generators"])
_FAMILY_NAMES = st.sampled_from([*catalog_mod._FAMILIES, "nope"])
_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-2, 40) | st.floats()
                | st.sampled_from([10**30, -(2**63), "g.json", "C4", "C3:C0", "C3:C10"])
                | st.text(max_size=3))
_JSON_SHAPES = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_JSON_KEYS | _FAMILY_NAMES | st.text(max_size=3),
                                     inner, max_size=4)),
    max_leaves=12,
)
_SMALL_ROWS = st.lists(st.lists(st.integers(-1, 5), max_size=5), max_size=5)
_SPEC_DOCS = _JSON_SHAPES | st.fixed_dictionaries({}, optional={
    "families": st.dictionaries(
        _FAMILY_NAMES, st.lists(st.integers(-2, 12), max_size=3) | _JSON_SHAPES, max_size=3),
    "ingested": st.lists(st.sampled_from(["g.json", "missing.json", "."]), max_size=2)
    | _JSON_SHAPES,
    "order_cap": st.integers(-1, 40) | _JSON_SHAPES,
})
_LABEL_VALUES = st.sampled_from(["G", "C4", "C3:C10", "C3:C0", " ", ""])
# a third random, a third near a Cayley-table file, a third near a permutation file
_GROUP_DOCS = st.one_of(
    _JSON_SHAPES,
    st.fixed_dictionaries(
        {"label": _LABEL_VALUES,
         "table": st.integers(1, 8).map(
             lambda n: [[(i + j) % n for j in range(n)] for i in range(n)])
         | _SMALL_ROWS | _JSON_SHAPES},
        optional={"order": st.integers(-1, 8) | _JSON_LEAVES}),
    st.integers(1, 5).flatmap(lambda degree: st.fixed_dictionaries(
        {"label": _LABEL_VALUES,
         "degree": st.just(degree) | _JSON_LEAVES,
         "generators": st.lists(st.permutations(range(degree)), max_size=2)
         | _SMALL_ROWS | _JSON_SHAPES})),
)


def _exit_two_message(command: str, out: str, err: str):
    """What an exit 2 told the user: stderr, or the errors listed in the output."""
    if err.strip() or command == "compute":
        return err.strip()
    if command == "ingest":
        return [line for line in out.splitlines() if line.startswith("ERROR")]
    return json.loads(out)["input_errors"]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_SPEC_DOCS, _GROUP_DOCS)
def test_json_file_shape_fuzz(tmp_path, spec, group):
    """No catalog spec or group file stalls or crashes verify, ingest or compute."""
    spec_path, group_path = tmp_path / "spec.json", tmp_path / "g.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    group_path.write_text(json.dumps(group), encoding="utf-8")
    with mock.patch.object(groups_mod, "MAX_ORDER", FUZZ_ORDER_CAP):
        for argv in (["verify", "--catalog", str(spec_path)],
                     ["ingest", str(group_path)],
                     ["compute", "--group", str(group_path)]):
            with time_limit(3):
                code, out, err = _main_in_process(argv)
            assert code in (0, 1, 2), (argv, code, err)
            assert "Traceback" not in out + err, argv
            if code == 2:
                assert _exit_two_message(argv[0], out, err), (argv, spec, group)


def test_a_family_is_one_table_entry(monkeypatch, tmp_path, capsys):
    # a family added in one place: verify --catalog plans and builds it,
    # compute parses its labels, and the grammar fuzz draws them
    toy = Family((), lambda cap: ((n, f"T{n}") for n in range(1, min(cap, 5) + 1)),
                 _parser(r"^T(\d+)$"), lambda n: from_cayley_table(cyclic(n).mul, f"T{n}"))
    monkeypatch.setitem(catalog_mod._FAMILIES, "toy", toy)
    spec = tmp_path / "cat.json"
    spec.write_text(json.dumps({"families": {"toy": []}, "order_cap": 4}))
    assert main(["verify", "--catalog", str(spec)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [g["label"] for g in payload["groups"]] == ["T1", "T2", "T3", "T4"]
    code, out, _ = _main_in_process(["compute", "--group", "T3", "--format", "json"])
    payload = json.loads(out)
    assert (code, payload["group"], payload["order"]) == (0, "T3", 3)
    assert {"T1", "T5"} <= set(_planned_labels())


def test_console_script_smoke():
    proc = run_cli("compute", "--group", "C6", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["is_cyclic"] is True


def test_python_dash_m_orderinv():
    proc = subprocess.run(
        [sys.executable, "-m", "orderinv", "compute", "--group", "S3"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert parse_table(proc.stdout)["order"] == "6"
