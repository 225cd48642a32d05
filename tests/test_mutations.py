"""One-sided bugs seeded into the program, and what the sweep says of each.

Every claim checks a structural fact by two routes, so a bug on one route
should show up as an inconsistent verdict or an anomaly, and exit 1.  Each
mutation below seeds one such bug and sweeps the catalog up to order 64.
A bug that the sweep lets through today is a strict ``xfail`` whose reason
names the ROADMAP item that would catch it.

A module that imports a function keeps its own binding, and a memo keeps
values made before a patch.  So a bug is patched at each site of use, the
memos are cleared around each mutated sweep, and a test checks that every
mutation changes at least one record, so none of them is a no-op.
"""

import json
import sys

import pytest

import orderinv.groups as groups_mod
import orderinv.order_stats as order_stats_mod
import orderinv.structure as structure_mod
from orderinv.catalog import default_catalog_spec, iter_catalog
from orderinv.report import run_sweep

CAP = 64


def _clear_memos():
    for name, module in list(sys.modules.items()):
        if name.startswith("orderinv") and module is not None:
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name:
                    value.cache_clear()


def _patch_everywhere(mp, original, replacement):
    """Rebind ``original`` in every orderinv module that holds it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("orderinv") and module is not None:
            for key, value in list(vars(module).items()):
                if value is original:
                    mp.setattr(module, key, replacement)


def _deny_nilpotency_to_noncyclic_two_groups(mp):
    real = structure_mod.is_nilpotent

    def mutant(group):
        size = group.order
        if size & (size - 1) == 0 and max(group.element_orders) < size:
            return False  # a 2-group with no generator: not cyclic
        return real(group)

    _patch_everywhere(mp, real, mutant)


def _metacyclic_tables(mp, change):
    real = groups_mod._MetacyclicTable
    mp.setattr(groups_mod, "_MetacyclicTable", lambda m, k, t, c: real(*change(m, k, t, c)))


def _abelian_odd_dihedral(mp):
    # D_m and C{m}:C2 share the table <a, b | a^m, b^2, b a b^-1 = a^-1>
    _metacyclic_tables(mp, lambda m, k, t, c: (
        m, k, 1 if (k, t, c) == (2, -1, 0) and m % 2 else t, c))


def _unwrapped_quaternion(mp):
    # b^2 = 1 in place of b^2 = a^(m/2): the dihedral table under a Q label
    _metacyclic_tables(mp, lambda m, k, t, c: (m, k, t, 0 if (k, t) == (2, -1) else c))


def _always_solvable(mp):
    _patch_everywhere(mp, structure_mod.is_solvable, lambda group: True)


def _semidirect_slot_off_by_one(mp):
    # the right table, but u + 1 recorded as the builder's argument
    real = groups_mod._build

    def mutant(mul, label, family=None):
        if family and family[0] is groups_mod.inversion_semidirect:
            m, beta, u = family[1]
            family = (family[0], (m, beta, u + 1))
        return real(mul, label, family)

    mp.setattr(groups_mod, "_build", mutant)


def _excess_terms_drop_the_last(mp):
    real = order_stats_mod.excess_terms
    _patch_everywhere(mp, real, lambda profile, n: real(profile, n)[:-1])


MUTATIONS = {
    "is_nilpotent false on non-cyclic 2-groups": _deny_nilpotency_to_noncyclic_two_groups,
    "D_m for odd m built abelian": _abelian_odd_dihedral,
    "Q_2^k built without its wrap": _unwrapped_quaternion,
    "is_solvable always true": _always_solvable,
    "semidirect slot records u + 1": _semidirect_slot_off_by_one,
    "excess_terms drops its last term": _excess_terms_drop_the_last,
}


def _sweep():
    return run_sweep(iter_catalog(default_catalog_spec(CAP)))


@pytest.fixture(scope="module")
def sweeps():
    """The sweep of the catalog as it is (key None) and under each mutation."""
    _clear_memos()
    out = {None: _sweep()}
    for name, seed in MUTATIONS.items():
        with pytest.MonkeyPatch.context() as mp:
            seed(mp)
            out[name] = _sweep()
        _clear_memos()
    return out


def flagged(payload) -> set[str]:
    """The groups a report names: in an anomaly or an inconsistent verdict."""
    labels = {anomaly["group"] for anomaly in payload["anomalies"]}
    for text in payload["groups"]:
        record = json.loads(text)
        if any(not row[-2] for block in record["verdicts"].values() for row in block["rows"]):
            labels.add(record["label"])
    return labels


def inconsistent_claims(payload) -> set[str]:
    return {claim for text in payload["groups"]
            for claim, block in json.loads(text)["verdicts"].items()
            if any(not row[-2] for row in block["rows"])}


def test_the_catalog_as_it_is_flags_nothing(sweeps):
    assert sweeps[None]["exit_status"] == 0 and flagged(sweeps[None]) == set()


@pytest.mark.parametrize("name", MUTATIONS)
def test_each_mutation_changes_a_record(sweeps, name):
    assert set(sweeps[name]["groups"]) - set(sweeps[None]["groups"])


def test_nilpotency_bug_is_caught(sweeps):
    # the record's flag is read off the profile and checked in the table
    payload = sweeps["is_nilpotent false on non-cyclic 2-groups"]
    assert payload["exit_status"] == 1 and payload["anomalies"]
    assert {a["claim"] for a in payload["anomalies"]} == {"group-record"}


def test_abelian_odd_dihedral_shows_on_the_semidirect_labels(sweeps):
    payload = sweeps["D_m for odd m built abelian"]
    assert payload["exit_status"] == 1
    assert inconsistent_claims(payload) == {"inversion-semidirect-count"}
    twins = {f"C{m}:C2" for m in range(3, CAP // 2 + 1, 2)}
    assert flagged(payload) and flagged(payload) <= twins


def test_semidirect_slot_feeds_the_closed_form(sweeps):
    # the closed form reads (m, beta, u) from the slot, the other routes the table
    payload = sweeps["semidirect slot records u + 1"]
    assert payload["exit_status"] == 1 and not payload["anomalies"]
    assert inconsistent_claims(payload) == {"inversion-semidirect-count"}
    assert flagged(payload) == {
        label for text in sweeps[None]["groups"]
        if ":" in (label := json.loads(text)["label"])}
    assert len(flagged(payload)) == 12


def test_dropped_excess_term_shows_against_the_profiles_condition(sweeps):
    # gap-nonneg reads its sign from the terms and its condition off the profile
    payload = sweeps["excess_terms drops its last term"]
    assert payload["exit_status"] == 1
    assert "gap-nonneg" in inconsistent_claims(payload)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 20: no second route for the D_m table")
def test_abelian_odd_dihedral_shows_on_d_m(sweeps):
    assert {f"D{m}" for m in range(3, CAP // 2 + 1, 2)} & flagged(
        sweeps["D_m for odd m built abelian"])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 20: no second route for the Q table")
def test_unwrapped_quaternion_is_caught(sweeps):
    payload = sweeps["Q_2^k built without its wrap"]
    assert payload["exit_status"] == 1 and {"Q8", "Q16", "Q32", "Q64"} & flagged(payload)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 23: solvability has one route")
def test_always_solvable_is_caught(sweeps):
    payload = sweeps["is_solvable always true"]
    assert payload["exit_status"] == 1 and "A5" in flagged(payload)
