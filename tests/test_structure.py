"""Structure predicates checked against hand-counted subgroup data."""

from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from orderinv.catalog import default_catalog_spec, iter_catalog
from orderinv.groups import (
    OrderCapExceeded,
    PermutationGenSet,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    from_cayley_table,
    from_permutations,
    generated,
    inversion_semidirect,
    quaternion_generalized,
    symmetric,
)
from orderinv.numtheory import divisor_count, divisors
from orderinv.order_stats import frobenius_table, order_profile
from deadline import time_limit
from oracles import (
    ENUMERATION_CAP,
    enumerate_subgroups,
    is_closed_by_every_product,
    is_nilpotent_by_sylow_closure,
    subgroup_as_group,
)
from synthetic import relabelled_table
from orderinv.structure import (
    has_unique_nilpotent_subgroup,
    is_closed,
    is_cyclic,
    is_nilpotent,
    is_solvable,
)


def alt5():
    gens = PermutationGenSet(5, ((1, 2, 0, 3, 4), (1, 2, 3, 4, 0)))
    return from_permutations(gens, "A5")


# --- predicates ---


def test_is_cyclic():
    for n in (1, 2, 7, 12, 30):
        assert is_cyclic(cyclic(n))
    assert not is_cyclic(symmetric(3))
    assert not is_cyclic(elementary_abelian(2, 2))
    # coprime direct factors recombine into a cyclic group
    assert is_cyclic(direct_product(cyclic(2), cyclic(3)))
    assert not is_cyclic(direct_product(cyclic(2), cyclic(4)))


def test_prime_power_groups_are_nilpotent():
    for g in (
        cyclic(27),
        dihedral(4),
        quaternion_generalized(16),
        elementary_abelian(2, 3),
        elementary_abelian(3, 2),
    ):
        assert is_nilpotent(g)


def test_nilpotent_mixed_orders():
    assert is_nilpotent(direct_product(quaternion_generalized(8), cyclic(3)))
    assert is_nilpotent(cyclic(30))
    # S_3 has four elements of 2-power order, not a subgroup of order 2
    assert not is_nilpotent(symmetric(3))
    assert not is_nilpotent(dihedral(6))
    assert not is_nilpotent(inversion_semidirect(5, 1, 2))


def test_solvability():
    assert is_solvable(symmetric(3))
    assert is_solvable(symmetric(4))
    assert is_solvable(dihedral(10))
    assert is_solvable(elementary_abelian(5, 2))
    assert not is_solvable(alt5())


A5_GENERATORS = [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]]
S5_GENERATORS = [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.permutations(range(d)), max_size=3))))
@example((5, A5_GENERATORS))
@example((5, S5_GENERATORS))
def test_solvable_and_nilpotent_match_sympy(drawn):
    degree, generators = drawn
    g = from_permutations(
        PermutationGenSet(degree, tuple(tuple(p) for p in generators)), "p")
    reference = PermutationGroup(
        [Permutation(list(p)) for p in generators] or [Permutation(list(range(degree)))])
    assert is_solvable(g) == reference.is_solvable
    assert is_nilpotent(g) == reference.is_nilpotent
    assert is_nilpotent_by_sylow_closure(g) == reference.is_nilpotent


def test_nilpotency_off_the_profile_matches_the_sylow_closure(catalog64):
    flags = [is_nilpotent(g) for g in catalog64]
    assert flags == [is_nilpotent_by_sylow_closure(g) for g in catalog64]
    assert 0 < sum(flags) < len(flags)


def is_solvable_by_all_commutators(group):
    """Oracle: the derived series, each term generated by all |H|^2
    commutators of the previous one."""
    mul, inv = group.mul, group.inv
    current = frozenset(range(group.order))
    while len(current) > 1:
        commutators = {
            mul[mul[inv[x]][inv[y]]][mul[x][y]] for x in current for y in current
        }
        derived = generated(mul, tuple(sorted(commutators)))
        if derived == current:
            return False
        current = derived
    return True


def test_solvable_matches_all_commutators_on_the_catalog(catalog64):
    for g in catalog64:
        assert is_solvable(g) == is_solvable_by_all_commutators(g), g.label


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.permutations(range(d)), max_size=3))))
@example((5, A5_GENERATORS))
@example((5, S5_GENERATORS))
@example((4, [[1, 0, 2, 3], [1, 2, 3, 0]]))  # S4, derived series S4 > A4 > V4 > 1
def test_solvable_matches_all_commutators_on_permutation_groups(drawn):
    degree, generators = drawn
    g = from_permutations(
        PermutationGenSet(degree, tuple(tuple(p) for p in generators)), "p")
    with time_limit(5):  # milliseconds for the normal closure, even on S6
        solvable = is_solvable(g)
    assert solvable == is_solvable_by_all_commutators(g)


def test_predicate_implication_chain():
    groups = [
        cyclic(12),
        cyclic(30),
        dihedral(4),
        dihedral(9),
        quaternion_generalized(8),
        symmetric(3),
        symmetric(4),
        elementary_abelian(2, 3),
        direct_product(quaternion_generalized(8), cyclic(3)),
        inversion_semidirect(3, 1, 1),
        alt5(),
    ]
    for g in groups:
        if is_cyclic(g):
            assert is_nilpotent(g)
        if is_nilpotent(g):
            assert is_solvable(g)


def test_nilpotent_groups_have_exact_coprime_solution_counts():
    # every divisor k coprime to its cofactor must satisfy B(k) = k
    for g in (
        cyclic(36),
        direct_product(quaternion_generalized(8), cyclic(3)),
        direct_product(cyclic(4), cyclic(9)),
    ):
        assert is_nilpotent(g)
        table = frobenius_table(order_profile(g))
        for k in divisors(g.order):
            if gcd(k, g.order // k) == 1:
                assert table.counts[k] == k


# --- subgroup enumeration ---


def test_enumerate_symmetric3():
    subs = enumerate_subgroups(symmetric(3))
    assert sorted(map(len, subs)) == [1, 2, 2, 2, 3, 6]


def test_enumerate_klein():
    subs = enumerate_subgroups(elementary_abelian(2, 2))
    assert sorted(map(len, subs)) == [1, 2, 2, 2, 4]


def test_enumerate_dihedral4():
    subs = enumerate_subgroups(dihedral(4))
    assert sorted(map(len, subs)) == [1, 2, 2, 2, 2, 2, 4, 4, 4, 8]


def test_enumerate_quaternion8():
    subs = enumerate_subgroups(quaternion_generalized(8))
    assert sorted(map(len, subs)) == [1, 2, 4, 4, 4, 8]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=40))
def test_cyclic_group_has_one_subgroup_per_divisor(n):
    g = cyclic(n)
    subs = enumerate_subgroups(g)
    assert len(subs) == divisor_count(n)
    assert sorted(map(len, subs)) == list(divisors(n))
    for s in subs:
        assert is_cyclic(subgroup_as_group(g, s))


def test_enumeration_cap():
    with pytest.raises(OrderCapExceeded, match="enumeration cap 200"):
        enumerate_subgroups(cyclic(201))


def test_subgroups_are_validated_sets():
    g = symmetric(4)
    for s in enumerate_subgroups(g):
        assert g.order % len(s) == 0
        assert is_closed(g, list(s))
        assert subgroup_as_group(g, s).order == len(s)


# --- one subgroup of order n, and it nilpotent ---


def unique_nilpotent_by_enumeration(group, subgroups, n):
    """Oracle: exactly one of ``subgroups`` has order n, and rebuilt as a
    group of its own it is nilpotent."""
    of_order_n = [s for s in subgroups if len(s) == n]
    return len(of_order_n) == 1 and is_nilpotent(subgroup_as_group(group, of_order_n[0]))


def test_targeted_search_agrees_with_full_enumeration(catalog64):
    # at every divisor, the closure tests in the parent's table against full
    # enumeration with the unique subgroup rebuilt as a group of its own
    pairs = unique = 0
    for g in catalog64:
        subgroups = enumerate_subgroups(g)
        for n in divisors(g.order):
            expected = unique_nilpotent_by_enumeration(g, subgroups, n)
            assert has_unique_nilpotent_subgroup(g, n) == expected, (g.label, n)
            pairs, unique = pairs + 1, unique + expected
    assert (pairs, unique) == (769, 569)  # 615 unique subgroups, 569 of them nilpotent


def test_nilpotency_in_the_parent_table_matches_the_rebuilt_subgroup(catalog64):
    # where a subgroup of order n is unique, the predicate read in the parent's
    # table is the rebuilt table's own is_nilpotent (Latin scan and Light's test)
    checked = 0
    for g in catalog64:
        subgroups = enumerate_subgroups(g)
        for n in divisors(g.order):
            of_order_n = [s for s in subgroups if len(s) == n]
            if len(of_order_n) == 1:
                rebuilt = subgroup_as_group(g, of_order_n[0])
                assert has_unique_nilpotent_subgroup(g, n) == is_nilpotent(rebuilt), (g.label, n)
                checked += 1
    assert checked == 615


def test_unique_subgroup_shortcuts(catalog64):
    # n = 1 is the trivial subgroup; n = |G| is the group, nilpotent or not
    s3 = symmetric(3)
    assert has_unique_nilpotent_subgroup(s3, 1)
    assert not has_unique_nilpotent_subgroup(s3, 6)
    for g in catalog64:
        assert has_unique_nilpotent_subgroup(g, 1), g.label
        assert has_unique_nilpotent_subgroup(g, g.order) == is_nilpotent(g), g.label


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.permutations(range(d)), max_size=3))))
@example((5, A5_GENERATORS))
@example((4, [[1, 0, 2, 3], [1, 2, 3, 0]]))  # S4
def test_unique_nilpotent_subgroup_matches_enumeration_on_permutation_groups(drawn):
    degree, generators = drawn
    g = from_permutations(
        PermutationGenSet(degree, tuple(tuple(p) for p in generators)), "p")
    assume(g.order <= ENUMERATION_CAP)
    subgroups = enumerate_subgroups(g)
    for n in divisors(g.order):
        expected = unique_nilpotent_by_enumeration(g, subgroups, n)
        assert has_unique_nilpotent_subgroup(g, n) == expected, n


def test_unique_subgroup_quaternion_center():
    assert has_unique_nilpotent_subgroup(quaternion_generalized(8), 2)


def test_multiple_subgroups_of_order_two():
    assert not has_unique_nilpotent_subgroup(symmetric(3), 2)


def test_cyclic_groups_unique_at_every_divisor():
    g = cyclic(12)
    assert all(has_unique_nilpotent_subgroup(g, n) for n in divisors(12))


def test_no_subgroup_of_order_thirty_in_alt5():
    assert not has_unique_nilpotent_subgroup(alt5(), 30)


def test_unique_subgroup_rejects_non_divisor():
    for n in (0, 4, -3):
        with pytest.raises(ValueError, match="does not divide"):
            has_unique_nilpotent_subgroup(symmetric(3), n)


RELABELLED_SOURCES = [cyclic(12), cyclic(16), dihedral(6), quaternion_generalized(16),
                      elementary_abelian(2, 3), symmetric(4),
                      direct_product(cyclic(2), cyclic(6)), inversion_semidirect(3, 1, 2)]


def cyclic_generator_map_by_cells(group):
    """Oracle: walk <x> for every x and keep the first generator of each."""
    out = {}
    for x in range(1, group.order):
        elems, y = {0}, x
        while y != 0:
            elems.add(y)
            y = group.mul[y][x]
        out.setdefault(frozenset(elems), x)
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cyclic_generator_map_matches_visiting_every_element(data):
    source = data.draw(st.sampled_from(RELABELLED_SOURCES))
    relabel = [0] + data.draw(st.permutations(range(1, source.order)))
    group = from_cayley_table(relabelled_table(source, relabel), "g")
    assert group.cyclic_walks == len(cyclic_generator_map_by_cells(group))


def test_catalog_cyclic_subgroups_match_visiting_every_element():
    # family LazyTables, products, S_n and A5, each built here: the oracle reads every row
    groups = list(iter_catalog(default_catalog_spec(64)))
    assert {type(g.mul).__name__ for g in groups} == {"_MetacyclicTable", "_ProductTable", "tuple"}
    for g in groups:
        assert g.cyclic_walks == len(cyclic_generator_map_by_cells(g)), g


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RELABELLED_SOURCES), st.data())
def test_is_closed_matches_every_product(group, data):
    elements = data.draw(st.lists(
        st.integers(0, group.order - 1), min_size=1, unique=True))
    assert is_closed(group, elements) == is_closed_by_every_product(group, elements)


@st.composite
def subgroups_and_near_misses(draw):
    """A group of S4, D6, Q16 and E2^3 and a set of its elements: a
    subgroup, one with an element dropped (0 too) or added, or any set."""
    group = draw(st.sampled_from(CLOSURE_SOURCES))
    everything = range(group.order)
    kind = draw(st.sampled_from(["subgroup", "dropped", "added", "any"]))
    if kind == "any":
        return group, draw(st.lists(st.sampled_from(everything), unique=True))
    gens = draw(st.lists(st.sampled_from(everything), max_size=3))
    members = set(generated(group.mul, gens))
    if kind == "dropped":
        members.discard(draw(st.sampled_from(sorted(members))))
    elif kind == "added" and len(members) < group.order:
        members.add(draw(st.sampled_from(sorted(set(everything) - members))))
    return group, draw(st.permutations(sorted(members)))


CLOSURE_SOURCES = [symmetric(4), dihedral(6), quaternion_generalized(16),
                   elementary_abelian(2, 3)]


@settings(max_examples=300, deadline=None)
@given(subgroups_and_near_misses())
def test_is_closed_agrees_with_every_product_on_subgroups_and_near_misses(case):
    group, elements = case
    assert is_closed(group, elements) == is_closed_by_every_product(group, elements)


def test_is_closed_needs_every_index_for_the_whole_group_shortcut():
    g = symmetric(3)
    assert is_closed(g, list(range(g.order)))
    t1, t2 = [x for x in range(g.order) if g.element_orders[x] == 2][:2]
    assert not is_closed(g, [0, t1, t2])  # t1 * t2 has order 3
    repeated = [0, t1, t2, t1, t2, 0]  # |G| entries, three distinct
    assert len(repeated) == g.order and not is_closed(g, repeated)
