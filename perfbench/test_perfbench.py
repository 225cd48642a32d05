"""Self-tests of the benchmark: seeded generators, the oracle, the checks.

    python3 -m pytest perfbench -q
"""

import json
from fractions import Fraction
from pathlib import Path

import gen
import oracle
import run


def test_oneshot_pool_is_seeded():
    assert gen.oneshot_pool(7) == gen.oneshot_pool(7)
    assert gen.oneshot_pool(7) != gen.oneshot_pool(8)


def test_oneshot_pool_composition_is_fixed():
    compositions = set()
    for seed in range(5):
        pool = gen.oneshot_pool(seed)
        orders = [sum(oracle.label_profile(label).values()) for label, _ in pool]
        assert all(1 <= n <= gen.LABEL_ORDER_CAP for n in orders)
        compositions.add(tuple(sum(lo <= n <= hi for n in orders) for lo, hi in gen.ORDER_BANDS))
    assert compositions == {(28, 32, 24)}


def test_ingest_files_are_seeded(tmp_path):
    a = gen.ingest_files(3, tmp_path / "a")
    b = gen.ingest_files(3, tmp_path / "b")
    assert [Path(c["path"]).read_bytes() for c in a] == [Path(c["path"]).read_bytes() for c in b]
    assert [{**c, "path": Path(c["path"]).name} for c in a] == \
        [{**c, "path": Path(c["path"]).name} for c in b]
    c = gen.ingest_files(4, tmp_path / "c")
    assert [Path(x["path"]).read_bytes() for x in a] != [Path(x["path"]).read_bytes() for x in c]


def _table_profile(table):
    out = {}
    for x in range(len(table)):
        k, y = 1, x
        while y != 0:
            y, k = table[y][x], k + 1
        order = k if x else 1
        out[order] = out.get(order, 0) + 1
    return out


def test_generated_tables_have_the_oracle_profile(tmp_path):
    for case in gen.ingest_files(5, tmp_path):
        data = json.loads(Path(case["path"]).read_text())
        if case["kind"] == "valid-table":
            assert _table_profile(data["table"]) == case["profile"]
        if case["kind"] == "non-associative":
            assert gen.first_associativity_failure(data["table"]) is not None


def test_oracle_matches_hand_derived_profiles():
    assert oracle.label_profile("S3") == {1: 1, 2: 3, 3: 2}
    assert oracle.label_profile("Q8") == {1: 1, 2: 1, 4: 6}
    assert oracle.label_profile("D4") == {1: 1, 2: 5, 4: 2}
    assert oracle.label_profile("C2xC2") == {1: 1, 2: 3}
    assert oracle.label_facts("S3")[1:] == (False, True)
    assert oracle.label_facts("D4")[1:] == (True, True)


def _cli_payload(label, r, s):
    """The oracle's answer laid out the way `compute --format json` prints it."""
    want = oracle.compute_answer(label, r, s)
    payload = {k: str(v) if isinstance(v, Fraction) else v for k, v in want.items()}
    for key in ("solution_counts", "order_product", "cyclic_order_product"):
        payload[key] = {str(k): v for k, v in want[key].items()}
    return payload


def test_tampered_compute_answer_is_counted_failed():
    tally = run.Tally()
    payload = _cli_payload("S3", 0, 1)
    assert payload["cyclic_excess"] == "-8"  # README's worked example
    tally.add("compute", run.check_query("S3", ("compute", 0, 1), 0, json.dumps(payload)))
    assert (tally.attempted, sum(tally.failed.values()), tally.wrong) == (1, 0, 0)
    payload["weighted_order_sum"] = str(Fraction(payload["weighted_order_sum"]) + 1)
    tally.add("compute", run.check_query("S3", ("compute", 0, 1), 0, json.dumps(payload)))
    assert (tally.attempted, sum(tally.failed.values()), tally.wrong) == (2, 1, 1)


def test_tampered_verify_profile_is_counted_failed():
    report = {"summary": {"groups": 1}, "groups": [
        {"label": "Q8", "order": 8, "profile": {"1": 1, "2": 1, "4": 6}}]}
    assert oracle.verify_mismatches(report, {"groups": 1}) == []
    report["groups"][0]["profile"] = {"1": 1, "2": 5, "4": 2}
    assert oracle.verify_mismatches(report, {"groups": 1}) == ["Q8: profile"]


def test_ingest_exit_codes_decide_failure_and_correctness():
    valid = {"kind": "valid-table", "expect_exit": 0, "profile": {1: 1, 2: 1}}
    good = json.dumps({"groups": [{"profile": {"1": 1, "2": 1}}], "errors": []})
    assert run.check_ingest(valid, 0, good) == []
    assert run.check_ingest(valid, 0, good.replace('"2": 1', '"2": 3')) == ["profile"]
    malformed = {"kind": "bool-entry", "expect_exit": 2, "profile": None}
    assert run.check_ingest(malformed, 0, good) == ["exit 0, expected 2"]
    tally = run.Tally()
    kind, well_formed = run.ingest_kind(malformed)
    tally.add(kind, run.check_ingest(malformed, 0, good), well_formed)
    kind, well_formed = run.ingest_kind(valid)
    tally.add(kind, run.check_ingest(valid, 2, good), well_formed)
    assert tally.failed == {"ingest:bool-entry": 1, "ingest:valid-table": 1}
    assert tally.wrong == 1  # only the valid group's rejection is a wrong answer


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
