import json
import re
import tracemalloc
from pathlib import Path

import pytest

import orderinv.catalog as catalog_mod
from orderinv.catalog import (
    CatalogSpec,
    UnknownFamily,
    _FAMILIES,
    _family_plan,
    default_catalog_spec,
    group_from_label,
    iter_catalog,
    load_group_file,
    read_json,
)
from orderinv.cli import main
from orderinv.groups import MAX_ORDER, GroupConstructionError, OrderCapExceeded, direct_product

README = Path(__file__).resolve().parents[1] / "README.md"


def family_key(label: str) -> str:
    if ":" in label:
        return "semidirect"
    if "x" in label:
        return "product"
    return label[0]


def test_default_catalog_shape(catalog64):
    assert len(catalog64) >= 150
    assert all(g.order <= 64 for g in catalog64)
    labels = [g.label for g in catalog64]
    assert len(set(labels)) == len(labels)
    # sorted by order, ties broken by label
    keys = [(g.order, g.label) for g in catalog64]
    assert keys == sorted(keys)


def test_default_catalog_family_counts(catalog64):
    counts: dict[str, int] = {}
    for g in catalog64:
        counts[family_key(g.label)] = counts.get(family_key(g.label), 0) + 1
    assert counts["C"] == 64
    assert counts["D"] == 30  # flip groups on 3..32 points
    assert counts["Q"] == 4  # orders 8, 16, 32, 64
    assert counts["S"] == 4  # degrees 1..4; degree 5 is over the cap
    assert counts["E"] == 27  # p^k <= 64 over all primes p
    assert counts["A"] == 1
    assert counts["semidirect"] == 12
    assert counts["product"] == 20


def test_catalog_spec_single_family():
    spec = CatalogSpec(families=(("cyclic", (1, 12)),), order_cap=12)
    groups = iter_catalog(spec)
    assert [g.label for g in groups] == [f"C{n}" for n in range(1, 13)]


def test_order_cap_trims_families():
    spec = default_catalog_spec(order_cap=24)
    groups = list(iter_catalog(spec))
    labels = {g.label for g in groups}
    assert {"Q8", "Q16"} <= labels and "Q32" not in labels
    assert "A5" not in labels
    assert "S4" in labels
    assert max(g.order for g in groups) <= 24


def planned_cells(spec: CatalogSpec) -> int:
    return sum(order * order for name, params in spec.families
               for order, _ in _family_plan(name, params, spec.order_cap))


def test_catalog_cell_budget():
    # one table at MAX_ORDER bounds the whole catalog: cap 320 fits,
    # cap 384 (40.3M cells) is refused before anything is built
    assert planned_cells(default_catalog_spec(256)) == 12_247_554
    assert planned_cells(default_catalog_spec(320)) == 23_615_513 <= MAX_ORDER**2
    with pytest.raises(OrderCapExceeded, match="order cap 384 exceeds 25000000 table cells"):
        iter_catalog(default_catalog_spec(384))


def test_catalog_plan_is_checked_before_the_stream_starts():
    # the call itself refuses a bad plan; no step of the stream is taken
    with pytest.raises(OrderCapExceeded):
        iter_catalog(default_catalog_spec(384))
    with pytest.raises(UnknownFamily):
        iter_catalog(CatalogSpec(families=(("sporadic", ()),)))
    with pytest.raises(ValueError, match="takes the parameters"):
        iter_catalog(CatalogSpec(families=(("cyclic", (1,)),)))


def test_unknown_family_rejected():
    spec = CatalogSpec(families=(("sporadic", ()),), order_cap=64)
    with pytest.raises(UnknownFamily):
        iter_catalog(spec)


def test_duplicate_labels_rejected():
    spec = CatalogSpec(families=(("cyclic", (1, 4)), ("cyclic", (2, 6))), order_cap=8)
    with pytest.raises(ValueError, match="duplicate"):
        list(iter_catalog(spec))


def test_every_label_round_trips(catalog64):
    for g in catalog64:
        rebuilt = group_from_label(g.label)
        assert rebuilt.order == g.order
        assert sorted(rebuilt.element_orders) == sorted(g.element_orders)


@pytest.mark.parametrize("label", ["X9", "C0", "C3:C5", "C9:C6", ""])
def test_bad_labels_rejected(label):
    with pytest.raises(ValueError):
        group_from_label(label)


def test_ingested_file_above_cap_rejected(tmp_path, capsys):
    path = tmp_path / "c6.json"
    table = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    path.write_text(json.dumps({"label": "big", "order": 6, "table": table}))
    spec = tmp_path / "cat.json"
    spec.write_text(json.dumps({"families": {}, "ingested": ["c6.json"], "order_cap": 4}))
    assert main(["verify", "--catalog", str(spec)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["groups"] == []
    [error] = payload["input_errors"]
    assert "cap" in error["error"]


def test_load_group_file_permutations(tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps({
        "label": "perm-s3", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]],
    }))
    g = load_group_file(str(path))
    assert g.order == 6 and g.label == "perm-s3"
    assert sorted(g.element_orders) == [1, 2, 2, 2, 3, 3]


@pytest.mark.parametrize("content", [
    "not json at all",
    json.dumps([1, 2, 3]),
    json.dumps({"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}),
    json.dumps({"label": "x", "order": 4, "table": [[0, 1], [1, 0]]}),
    json.dumps({"label": "x", "degree": "3", "generators": [[0, 1, 2]]}),
    json.dumps({"label": "x"}),
    json.dumps({"label": "bad", "order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 0]]}),
])
def test_load_group_file_rejects_garbage(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    with pytest.raises(ValueError):
        load_group_file(str(path))


def test_load_group_file_missing_path():
    with pytest.raises(ValueError, match="cannot read"):
        load_group_file("/nonexistent/nowhere.json")


@pytest.mark.parametrize("family, params, takes", [
    ("cyclic", [1], "[lo, hi]"),
    ("cyclic", [1, 2, 3], "[lo, hi]"),
    ("alternating", [], "[degree]"),
    ("elementary_abelian", [5], "[]"),
])
def test_catalog_spec_parameter_count_checked(tmp_path, capsys, family, params, takes):
    spec = tmp_path / "cat.json"
    spec.write_text(json.dumps({"families": {family: params}}))
    assert main(["verify", "--catalog", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: catalog family {family!r} takes the parameters"
                            f" {takes}, got {params}\n")


def test_every_planned_label_builds_a_group_of_its_planned_order():
    # the cell budget counts planned orders, so a plan that drifted from its
    # builder would size the catalog wrongly without a sound
    spec = default_catalog_spec(256)
    assert {name for name, _ in spec.families} == set(_FAMILIES)
    for name, params in spec.families:
        planned = list(_family_plan(name, params, spec.order_cap))
        assert planned, name
        for order, label in planned:
            group = group_from_label(label)
            assert (group.label, group.order) == (label, order), name


def _rebuilt(family):
    """The group a family slot's builder makes from its arguments, called
    again; a product slot holds its factors' slots, rebuilt first."""
    builder, arguments = family
    if builder is direct_product:
        arguments = tuple(map(_rebuilt, arguments))
    return builder(*arguments)


def test_each_family_slot_rebuilds_its_group():
    # the slot holds the arguments the builder was called with: called again
    # they give the same label and table; only S_n and A5 leave it empty
    unbuilt = []
    for group in iter_catalog(default_catalog_spec(256)):
        if group.family is None:
            unbuilt.append(group.label)
            continue
        again = _rebuilt(group.family)
        assert (again.label, again.family, again.mul) == (group.label, group.family, group.mul)
    assert unbuilt == ["S1", "S2", "S3", "S4", "S5", "A5"]


@pytest.mark.parametrize("families, message", [
    # n^2 cells of a negative n once blamed the cell budget
    ({"cyclic": [-100000, 3]}, "cyclic group needs order >= 1, got -100000"),
    # C1 to C3 were built and swept before D-3 was refused
    ({"cyclic": [1, 3], "dihedral": [-3, 3]}, "dihedral parameter must be >= 1, got -3"),
    ({"cyclic": [0, 3]}, "cyclic group needs order >= 1, got 0"),
])
def test_family_range_below_one_is_refused_by_the_plan(tmp_path, capsys, families, message):
    spec = CatalogSpec(tuple((name, tuple(params)) for name, params in families.items()))
    with pytest.raises(GroupConstructionError, match=f"^{message}$"):
        iter_catalog(spec)  # the call refuses it: no table is built
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"families": families}))
    assert main(["verify", "--catalog", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_quaternion_and_symmetric_ranges_skip_values_below_their_least_member():
    spec = CatalogSpec((("quaternion", (-5, 16)), ("symmetric", (-2, 3))), order_cap=64)
    assert [g.label for g in iter_catalog(spec)] == ["Q8", "Q16", "S1", "S2", "S3"]


def test_read_json_reads_at_most_its_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(catalog_mod, "MAX_JSON_BYTES", 4096)
    path = tmp_path / "big.json"
    path.write_text("[" + "0, " * 2**20 + "0]")  # 3 MiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^larger than the JSON file cap of 4096 bytes$"):
            read_json(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert main(["verify", "--catalog", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: larger than the JSON file cap of 4096 bytes\n")
    # a file of exactly the cap is read
    path.write_text("[" + " " * 4094 + "]")
    assert read_json(str(path)) == []
    path.write_text("[" + " " * 4095 + "]")
    with pytest.raises(ValueError, match="larger than"):
        read_json(str(path))


def test_readme_names_every_family_with_its_parameters():
    # the family table under "File formats": | `name` | `[parameters]` | ...
    rows = dict(re.findall(r"^\| `(\w+)` \| `\[(.*?)\]` \|", README.read_text(), re.M))
    assert rows == {name: ", ".join(family.params) for name, family in _FAMILIES.items()}
