import gc
import json
import math
import re
import sys
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orderinv.groups as groups_mod
import orderinv.matching as matching_mod
import orderinv.report as report_mod
import orderinv.theorems as theorems_mod
from orderinv.catalog import (
    default_catalog_spec,
    group_from_label,
    iter_catalog,
    semidirect_label_parts,
)
from orderinv.groups import FiniteGroup, LazyTable, cyclic
from orderinv.matching import verify_matching
from orderinv.numtheory import divisor_power_sum, divisors
from orderinv.order_stats import (
    excess_table,
    frobenius_table,
    order_profile,
    sign_of,
    weighted_order_sum,
)
from orderinv.report import group_record, run_sweep, verdict_as_json, write_json, write_report
from orderinv.theorems import (
    ALL_CLAIMS,
    DIVISOR_SWEEP_LIMIT,
    TheoremVerdict,
    diagonal_exponents,
    evaluate_claim,
    integer_pairs,
    nonneg_pairs,
    nonpos_pairs,
)
from deadline import time_limit
from oracles import json_text, records, report_text, v1_verdicts


def test_exponent_pair_helpers():
    assert len(integer_pairs(3)) == 49
    assert len(nonneg_pairs(3)) == 18
    assert all(s < r and s <= 0 for r, s in nonneg_pairs(3))
    assert len(nonpos_pairs(3)) == 15
    assert all(r <= s - 1 and s >= 1 for r, s in nonpos_pairs(3))
    assert diagonal_exponents(3) == [-1, -2, -3]


def test_semidirect_label_parts():
    assert semidirect_label_parts("C3:C10") == (3, 5, 1)
    assert semidirect_label_parts("C15:C4") == (15, 1, 2)
    assert semidirect_label_parts("C3:C5") is None  # odd acting factor
    assert semidirect_label_parts("S4") is None
    with time_limit(2):  # alpha = 0 has no odd part to halve down to
        assert semidirect_label_parts("C3:C0") is None
        assert semidirect_label_parts("C3:C00") is None


def test_sweep_claim_mix_for_s3():
    rep = run_sweep([group_from_label("S3")])
    assert rep["exit_status"] == 0
    verdicts = v1_verdicts(records(rep)[0])
    mix = Counter(v["claim"] for v in verdicts)
    assert mix == {
        "frobenius-divisibility": 1,
        "min-cyclic-count": 1,
        "gap-nonneg": 4 * 18,  # four divisors, eighteen pairs
        "gap-diagonal": 4 * 3,
        "gap-nonpos": 15,
        "cyclic-part-equivalence": 4,
        "order-product-max": 1,
        "divisibility-matching": 1,
    }
    assert all(v["consistent"] for v in verdicts)


def test_claim_applicability():
    q8 = group_from_label("Q8")
    assert len(evaluate_claim(q8, "nilpotent-sign")) == 49
    assert evaluate_claim(group_from_label("C12"), "nilpotent-sign") == []
    assert evaluate_claim(group_from_label("S3"), "nilpotent-sign") == []
    semi = group_from_label("C3:C10")
    assert len(evaluate_claim(semi, "inversion-semidirect-count")) == 1
    assert evaluate_claim(q8, "inversion-semidirect-count") == []
    with pytest.raises(ValueError, match="unknown claim"):
        evaluate_claim(q8, "no-such-claim")


def test_group_record_contents():
    record = group_record(group_from_label("S3"))
    assert record["order"] == 6
    assert record["profile"] == {"1": 1, "2": 3, "3": 2}  # no element of order 6
    assert record["solution_counts"] == {"1": 1, "2": 4, "3": 3, "6": 6}
    assert record["solution_ratios"] == {"1": 1, "2": 2, "3": 1, "6": 1}
    assert record["is_solvable"] and not record["is_nilpotent"]
    assert record["cyclic_subgroup_count"] == 5
    assert record["order_product"] == {"2": 3, "3": 2}
    assert record["cyclic_order_product"] == {"2": 3, "3": 4}
    assert len(record["excess_grid"]) == 49
    assert record["matching"]["status"] == "found"
    assert record["matching"]["verified"] is True


def test_cyclic_groups_have_flat_excess_grid():
    groups = [cyclic(n) for n in range(1, 13)]
    rep = run_sweep(groups)
    assert rep["exit_status"] == 0
    for record in records(rep):
        assert all(cell[2] == "0" for cell in record["excess_grid"])


def test_sweep_is_deterministic():
    groups = [group_from_label(lbl) for lbl in ("S3", "Q8", "C12", "C3:C10")]
    first = report_text(run_sweep(groups))
    second = report_text(run_sweep(groups))
    assert first == second


def test_verdicts_do_not_depend_on_labels(catalog64):
    # the same groups renamed g0, g1, ...: a claim that read a label would
    # change its blocks on some group, or lose them
    renamed = [FiniteGroup(g.order, g.mul, g.inv, g.element_orders, g.cyclic_walks,
                           label=f"g{i}", family=g.family) for i, g in enumerate(catalog64)]
    names = {f"g{i}": g.label for i, g in enumerate(catalog64)}
    as_built, neutral = (
        {names.get(r["label"], r["label"]): r["verdicts"] for r in records(run_sweep(groups))}
        for groups in (catalog64, renamed))
    assert neutral == as_built
    assert sum("inversion-semidirect-count" in blocks for blocks in neutral.values()) == 12
    assert sum(len(block["rows"]) for blocks in neutral.values()
               for block in blocks.values()) == 16683


def test_claim_selection_and_order():
    rep = run_sweep([group_from_label("C6")], claims=["min-cyclic-count",
                                                      "frobenius-divisibility"])
    # registry order, not request order
    assert rep["claims"] == ["frobenius-divisibility", "min-cyclic-count"]
    claims_seen = {v["claim"] for v in v1_verdicts(records(rep)[0])}
    assert claims_seen == {"frobenius-divisibility", "min-cyclic-count"}
    with pytest.raises(ValueError, match="unknown claims"):
        run_sweep([group_from_label("C6")], claims=["bogus"])


def test_sweep_order_does_not_matter(catalog64):
    # records are ordered by (order, label) however the groups arrive
    assert report_text(run_sweep(reversed(catalog64))) == report_text(run_sweep(catalog64))


@pytest.mark.parametrize("arrival", ["stream", "reversed list"])
def test_profile_memos_miss_once_per_distinct_profile(catalog64, arrival):
    # value-keyed: twins such as C6 and C2xC3 share one entry whatever the order;
    # the excess tables are keyed by their terms, which far fewer (profile, n) have
    groups = (iter_catalog(default_catalog_spec()) if arrival == "stream"
              else catalog64[::-1])
    frobenius_table.cache_clear()
    matching_mod._matching_for.cache_clear()
    excess_table.cache_clear()
    rep = run_sweep(groups)
    distinct = {json.dumps(record["profile"], sort_keys=True) for record in records(rep)}
    assert len(distinct) == 117
    assert frobenius_table.cache_info().misses == len(distinct)
    assert matching_mod._matching_for.cache_info().misses == len(distinct)
    assert excess_table.cache_info().misses == 99


def test_sweep_computes_solvability_once_per_group(catalog64, monkeypatch):
    # the record's flag serves divisibility-matching: no memo stands behind it
    calls = Counter()
    solvable = report_mod.is_solvable

    def counted(group):
        calls[group.label] += 1
        return solvable(group)

    for name, module in list(sys.modules.items()):
        if name.startswith("orderinv") and getattr(module, "is_solvable", None) is solvable:
            monkeypatch.setattr(module, "is_solvable", counted)
    payload = run_sweep(catalog64)
    assert payload["summary"]["anomalies"] == 0
    assert len(calls) == payload["summary"]["groups"] == 162
    assert set(calls.values()) == {1}


def test_no_cyclic_walk_after_a_group_is_built(catalog64, monkeypatch):
    # the records and all claims read the cyclic subgroups the build walked
    calls = []
    walk = groups_mod.cyclic_powers
    monkeypatch.setattr(groups_mod, "cyclic_powers", lambda mul, x: calls.append(x) or walk(mul, x))
    assert cyclic(6).cyclic_walks == len(calls) == 3  # <1>, <2> and <3>
    calls.clear()
    payload = run_sweep(catalog64)
    assert payload["summary"]["anomalies"] == 0
    assert {c for text in payload["groups"] for c in json.loads(text)["verdicts"]} == set(
        ALL_CLAIMS)
    assert calls == []


def test_no_group_outlives_its_record():
    refs = []

    def tracked(groups):
        for group in groups:
            refs.append(weakref.ref(group))
            yield group

    payload = run_sweep(tracked(iter_catalog(default_catalog_spec(64))))
    gc.collect()
    assert len(refs) == payload["summary"]["groups"] == 162
    # a memo or cache that pins a group keeps its table alive
    assert [ref().label for ref in refs if ref() is not None] == []


def _deep_size(value, seen) -> int:
    if id(value) in seen:
        return 0
    seen.add(id(value))
    size = sys.getsizeof(value)
    if isinstance(value, dict):
        size += sum(_deep_size(k, seen) + _deep_size(v, seen) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        size += sum(_deep_size(v, seen) for v in value)
    return size


def test_streamed_sweep_holds_one_table_at_a_time():
    spec = default_catalog_spec(128)
    tables = sum(sys.getsizeof(g.mul) + sum(map(sys.getsizeof, g.mul))
                 for g in iter_catalog(spec))
    tracemalloc.start()
    try:
        payload = run_sweep(iter_catalog(spec))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # what is bounded is the peak beyond the report's record texts: caches and
    # one group's work, where holding every table would add all 13.7 MB
    beyond_report = peak - _deep_size(payload, set())
    assert beyond_report < tables / 2, (beyond_report, tables)


def test_cap64_sweep_builds_about_a_third_of_the_table_rows():
    # the claims read the rows of the elements they start from: 35% of them
    # at cap 64, where a bulk build would make every row
    tables = []

    def stream():
        for group in iter_catalog(default_catalog_spec(64)):
            tables.append(group.mul)
            yield group

    run_sweep(stream())
    lazy = [t for t in tables if isinstance(t, LazyTable)]
    assert len(lazy) == len(tables) - 5  # S1 to S4 and A5 come from permutations
    built, rows = sum(t.rows_built for t in lazy), sum(map(len, lazy))
    assert built < 0.4 * rows, (built, rows)


def test_large_grid_sweep_keeps_no_grid_beyond_its_record():
    # a memo of each profile's grid strings took this peak to 4.7 MB
    spec = default_catalog_spec(12)
    with time_limit(10):
        tracemalloc.start()
        try:
            run_sweep(iter_catalog(spec), claims=[], bound=16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 2.2e6, peak  # 1.76 MB measured, 33 records of 1089 grid cells


def test_sweep_verifies_each_matching_once(monkeypatch):
    calls = Counter()

    def counted(profile, matching):
        calls[profile] += 1
        return verify_matching(profile, matching)

    monkeypatch.setattr(matching_mod, "verify_matching", counted)
    groups = list(iter_catalog(default_catalog_spec(16)))
    payload = run_sweep(groups)
    assert sum(calls.values()) == payload["summary"]["matchings_found"] == len(groups)


def test_duplicate_group_labels_rejected():
    with pytest.raises(ValueError, match="unique"):
        run_sweep([cyclic(3), cyclic(3)])


def _doctored_verdict(group):
    return TheoremVerdict(
        claim="min-cyclic-count", group=group.label, parameters=(("n", group.order),),
        sign="neg", inequality_holds=False, equality_condition_holds=False,
        consistent=False, witness="forced for the test",
    )


def test_exact_inconsistency_forces_exit_one(monkeypatch):
    monkeypatch.setattr(theorems_mod, "check_min_cyclic_subgroups", _doctored_verdict)
    rep = run_sweep([group_from_label("C4")], claims=["min-cyclic-count"])
    assert rep["exit_status"] == 1
    assert rep["summary"]["inconsistent"] == 1


def test_anomaly_forces_exit_one(monkeypatch):
    def boom(group):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(theorems_mod, "check_min_cyclic_subgroups", boom)
    rep = run_sweep([group_from_label("C4")], claims=["min-cyclic-count"])
    assert rep["exit_status"] == 1
    assert rep["anomalies"] == [{
        "group": "C4", "claim": "min-cyclic-count",
        "error": "RuntimeError: synthetic failure",
    }]
    # the static record survives the claim failure
    assert records(rep)[0]["profile"] == {"1": 1, "2": 1, "4": 2}


def test_input_errors_alone_exit_two(monkeypatch):
    errs = [{"path": "x.json", "error": "bad file"}]
    rep = run_sweep([group_from_label("C4")], input_errors=errs)
    assert rep["exit_status"] == 2
    assert rep["input_errors"] == errs
    # but an inconsistency outranks them
    monkeypatch.setattr(theorems_mod, "check_min_cyclic_subgroups", _doctored_verdict)
    rep = run_sweep([group_from_label("C4")], claims=["min-cyclic-count"],
                    input_errors=errs)
    assert rep["exit_status"] == 1


def test_all_claims_registry_is_complete():
    group = group_from_label("C3:C10")
    assert len(ALL_CLAIMS) == 10
    for claim in ALL_CLAIMS:
        for verdict in evaluate_claim(group, claim):
            assert verdict.claim == claim


class _CountingHandle:
    chars = 0

    def write(self, text):
        self.chars += len(text)


# lone surrogates and non-BMP text go out as \u escapes, a pair for the latter
_json_text_values = st.text(st.characters() | st.sampled_from(
    '"\\\x00\x1f\n\u00e9\u6f22\ud800\udfff\U0001f600\U0010ffff'))
_json_floats = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324])
# True and 1, False and 0 compare equal but print apart; empty containers print inline
_json_fixed = st.sampled_from([
    [True, 1, False, 0], {"1": 1, "false": False, "true": True, "0": 0},
    [], {}, (), [[], {}], {"": {"": []}}, ((), [()]),
])
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _json_floats | _json_text_values
    | _json_fixed,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(_json_text_values, inner)),
    max_leaves=30,
)


@settings(max_examples=60, deadline=None)
@given(_json_values)
def test_write_json_matches_json_dumps_in_few_writes(payload):
    # the writer of compute, match, example and ingest: one write
    writes = []
    write_json(payload, SimpleNamespace(write=writes.append))
    assert writes == [json.dumps(payload, indent=2, sort_keys=True) + "\n"]


def test_streamed_report_holds_no_copy_of_its_text(catalog64):
    payload = run_sweep(catalog64)
    sink = _CountingHandle()
    tracemalloc.start()
    try:
        write_report(payload, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < sink.chars / 10, (peak, sink.chars)


@pytest.mark.parametrize("payload", [
    math.nan, -math.inf, -0.0, 5e-324, 0, True, None, "\ud800\U0001f600",
    [True, 1, False, 0], (1, ("a", ())), {"": [{}, ()]},
])
def test_write_json_matches_json_dumps_on_edge_values(payload):
    assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payload", [
    Fraction(1, 2), {1, 2}, {"rows": [{"n": Fraction(1, 3)}]},
], ids=["fraction", "set", "nested fraction"])
def test_write_json_rejects_what_json_cannot_print_as_is(payload):
    with pytest.raises(TypeError):
        json_text(payload)


def test_report_text_is_json_dumps_of_the_payload(catalog64):
    payload = run_sweep(catalog64)
    text = report_text(payload)
    lines = text.split("\n")
    # the top level, then one record per line, as run_sweep encoded it
    assert [line.rstrip(",") for line in lines[1:-2]] == payload["groups"]
    assert lines[-1] == "" and len(lines) == len(payload["groups"]) + 3
    decoded = {**payload, "groups": records(payload)}
    assert json.loads(text) == decoded
    # without its line breaks, the text is the compact encoding with sorted keys
    assert text.replace("\n", "") == json.dumps(decoded, sort_keys=True, separators=(",", ":"))
    assert decoded["schema_version"] == 2 and "inconsistent_exact" not in decoded["summary"]


@pytest.mark.parametrize("cap", [64, 128])
def test_rows_expand_to_the_schema_1_verdicts(cap):
    # each record holds the facts of group_record, and its rows, expanded,
    # are the verdict dicts schema 1 carried, in schema 1's order
    by_label = {r["label"]: r for r in records(run_sweep(iter_catalog(default_catalog_spec(cap))))}
    for group in iter_catalog(default_catalog_spec(cap)):
        record = by_label.pop(group.label)
        expected = [verdict_as_json(v) for claim in ALL_CLAIMS
                    for v in evaluate_claim(group, claim)]
        expected.sort(key=lambda v: (v["claim"], json.dumps(v["parameters"], sort_keys=True)))
        assert v1_verdicts(record) == expected, group.label
        del record["verdicts"]
        assert record == json.loads(json.dumps(group_record(group))), group.label
    assert by_label == {}


@pytest.mark.parametrize("bound", [1, 2, 5])
def test_excess_rows_carry_the_weight_route_sign_at_other_grids(bound):
    # each excess claim's rows, at every point in the order the claim takes
    # them, carry the sign of the weighted sums through numtheory.weight
    assert 48 <= DIVISOR_SWEEP_LIMIT  # so every divisor is swept below
    groups = list(iter_catalog(default_catalog_spec(48)))
    by_label = {r["label"]: r for r in records(run_sweep(groups, bound=bound))}
    nilpotent_rows = 0
    for group in groups:
        profile, order = order_profile(group), group.order
        expected = {
            "gap-nonneg": [(n, r, s) for n in divisors(order) for r, s in nonneg_pairs(bound)],
            "gap-diagonal": [(n, r, r) for n in divisors(order)
                             for r in diagonal_exponents(bound)],
            "gap-nonpos": [(order, r, s) for r, s in nonpos_pairs(bound)],
            "nilpotent-sign": [(order, r, s) for r, s in integer_pairs(bound)],
        }
        blocks = by_label[group.label]["verdicts"]
        for claim, points in expected.items():
            if claim == "nilpotent-sign" and claim not in blocks:
                continue  # not nilpotent, or cyclic
            block = blocks[claim]
            assert block["parameters"] == ["n", "r", "s"]
            assert [tuple(row[:3]) for row in block["rows"]] == points, (group.label, claim)
            for n, r, s, sign in (row[:4] for row in block["rows"]):
                oracle = weighted_order_sum(profile, n, r, s) - divisor_power_sum(n, r, s)
                assert sign == sign_of(oracle), (group.label, claim, n, r, s)
        nilpotent_rows += len(blocks.get("nilpotent-sign", {"rows": ()})["rows"])
    assert nilpotent_rows > 0


def test_readme_gives_the_routes_of_every_claim():
    # the route table under "verify": | `claim-id` | route 1 | route 2 | route 3 |
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `([a-z]+(?:-[a-z]+)+)` \|(.*)\|$", readme, re.M))
    assert sorted(rows) == sorted(ALL_CLAIMS)
    for claim, routes in rows.items():
        sources = re.findall(r"\((profile|table|family parameters)\) \|", routes + " |")
        assert len(sources) >= 2, claim
