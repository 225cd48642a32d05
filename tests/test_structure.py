"""Structure predicates checked against hand-counted subgroup data."""

from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from orderinv.groups import (
    OrderCapExceeded,
    PermutationGenSet,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    from_cayley_table,
    from_permutations,
    inversion_semidirect,
    quaternion_generalized,
    symmetric,
)
from orderinv.numtheory import divisor_count, divisors
from orderinv.order_stats import frobenius_table, order_profile
from synthetic import relabelled_table
from orderinv.structure import (
    SubgroupSet,
    _cyclic_generator_map,
    enumerate_subgroups,
    is_closed,
    is_cyclic,
    is_nilpotent,
    is_solvable,
    subgroup_as_group,
    subgroup_from_indices,
    unique_subgroup_of_order,
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


def test_subgroup_set_validation():
    with pytest.raises(ValueError):
        SubgroupSet(())
    with pytest.raises(ValueError):
        SubgroupSet((1, 2))
    with pytest.raises(ValueError):
        SubgroupSet((0, 2, 2))
    g = symmetric(3)
    with pytest.raises(ValueError):
        subgroup_from_indices(g, range(4))  # 4 does not divide 6 and not closed


def test_enumerate_symmetric3():
    subs = enumerate_subgroups(symmetric(3))
    assert sorted(s.order for s in subs) == [1, 2, 2, 2, 3, 6]


def test_enumerate_klein():
    subs = enumerate_subgroups(elementary_abelian(2, 2))
    assert sorted(s.order for s in subs) == [1, 2, 2, 2, 4]


def test_enumerate_dihedral4():
    subs = enumerate_subgroups(dihedral(4))
    assert sorted(s.order for s in subs) == [1, 2, 2, 2, 2, 2, 4, 4, 4, 8]


def test_enumerate_quaternion8():
    subs = enumerate_subgroups(quaternion_generalized(8))
    assert sorted(s.order for s in subs) == [1, 2, 4, 4, 4, 8]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=40))
def test_cyclic_group_has_one_subgroup_per_divisor(n):
    g = cyclic(n)
    subs = enumerate_subgroups(g)
    assert len(subs) == divisor_count(n)
    assert sorted(s.order for s in subs) == list(divisors(n))
    for s in subs:
        assert is_cyclic(subgroup_as_group(g, s))


def test_enumeration_cap():
    with pytest.raises(OrderCapExceeded):
        enumerate_subgroups(cyclic(12), cap=10)


def test_subgroups_are_validated_sets():
    g = symmetric(4)
    for s in enumerate_subgroups(g):
        assert g.order % s.order == 0
        assert subgroup_from_indices(g, s.elements) == s


# --- unique subgroup of a given order ---


def test_unique_subgroup_quaternion_center():
    g = quaternion_generalized(8)
    res = unique_subgroup_of_order(g, 2)
    assert res.status == "unique"
    sub = subgroup_as_group(g, res.subgroup)
    assert sub.order == 2


def test_unique_subgroup_shortcuts():
    g = symmetric(3)
    assert unique_subgroup_of_order(g, 1).subgroup == SubgroupSet((0,))
    whole = unique_subgroup_of_order(g, 6)
    assert whole.status == "unique"
    assert whole.subgroup.order == 6


def test_multiple_subgroups_of_order_two():
    assert unique_subgroup_of_order(symmetric(3), 2).status == "multiple"


def test_cyclic_groups_unique_at_every_divisor():
    g = cyclic(12)
    for n in divisors(12):
        assert unique_subgroup_of_order(g, n).status == "unique"


def test_no_subgroup_of_order_thirty_in_alt5():
    assert unique_subgroup_of_order(alt5(), 30).status == "none"


def test_unique_subgroup_rejects_non_divisor():
    with pytest.raises(ValueError):
        unique_subgroup_of_order(symmetric(3), 4)


def test_subgroup_as_group_relabels():
    g = symmetric(3)
    res = unique_subgroup_of_order(g, 3)
    assert res.status == "unique"
    h = subgroup_as_group(g, res.subgroup)
    assert h.order == 3
    assert is_cyclic(h)


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
    # same subgroups, generators and insertion order
    assert list(_cyclic_generator_map(group).items()) == list(
        cyclic_generator_map_by_cells(group).items())


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RELABELLED_SOURCES), st.data())
def test_is_closed_matches_every_product(group, data):
    elements = data.draw(st.lists(
        st.integers(0, group.order - 1), min_size=1, unique=True))
    members = set(elements)
    expected = all(group.mul[x][y] in members for x in elements for y in elements)
    assert is_closed(group, elements) == expected
