"""Order statistics: frozen spot values, dual-route identities, oracles."""

from fractions import Fraction

import pytest

from orderinv.groups import (
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    inversion_semidirect,
    quaternion_generalized,
    symmetric,
)
from orderinv.numtheory import (
    FactoredInteger,
    divisor_count,
    divisors,
    factorize,
    totient,
)
from orderinv.order_stats import (
    FrobeniusViolated,
    OrderProfile,
    ParameterDomainViolated,
    cyclic_excess,
    cyclic_profile,
    cyclic_subgroup_count,
    frobenius_table,
    order_profile,
    product_of_orders,
    weighted_order_sum,
)
from orderinv.report import _matching_for
from oracles import frobenius_expansion, log_mobius_kernel, product_of_orders_direct
from synthetic import random_abelian_profiles


def sample_groups():
    return [
        cyclic(1),
        cyclic(12),
        symmetric(3),
        symmetric(4),
        quaternion_generalized(8),
        dihedral(6),
        elementary_abelian(2, 3),
        inversion_semidirect(3, 5, 1),
        direct_product(cyclic(2), cyclic(2)),
    ]


SMALL_GRID = [(r, s) for r in range(-2, 3) for s in range(-2, 3)]


# ------------------------------------------------------------- profiles

def test_profile_spots():
    assert order_profile(symmetric(3)).counts == {1: 1, 2: 3, 3: 2}
    assert order_profile(quaternion_generalized(8)).counts == {1: 1, 2: 1, 4: 6}
    assert cyclic_profile(6).counts == {1: 1, 2: 1, 3: 2, 6: 2}
    assert order_profile(cyclic(6)).counts == cyclic_profile(6).counts


def test_profile_validation():
    with pytest.raises(ValueError):
        OrderProfile(6, {1: 1, 2: 2})  # sums to 3
    with pytest.raises(ValueError):
        OrderProfile(6, {2: 6})  # no identity
    with pytest.raises(ValueError):
        OrderProfile(6, {1: 1, 4: 5})  # 4 does not divide 6
    with pytest.raises(ValueError):
        OrderProfile(6, {1: 1, 3: 3, 2: 2})  # 3 not a multiple of phi(3)


def test_cached_profile_is_read_only():
    # order_profile serves one cached instance to every caller
    s3 = symmetric(3)
    with pytest.raises(TypeError):
        order_profile(s3).counts[2] = 0
    assert order_profile(s3).counts == {1: 1, 2: 3, 3: 2}
    counts = {1: 1, 2: 1}
    profile = OrderProfile(2, counts)
    counts[2] = 0
    assert profile.counts == {1: 1, 2: 1}


def test_cached_frobenius_table_is_read_only():
    # frobenius_table serves one cached instance per profile to every caller
    profile = order_profile(symmetric(3))
    table = frobenius_table(profile)
    assert frobenius_table(profile) is table
    with pytest.raises(TypeError):
        table.counts[2] = 0
    with pytest.raises(TypeError):
        table.ratios[2] = 0
    assert table.counts == {1: 1, 2: 4, 3: 3, 6: 6}


@pytest.mark.parametrize("exact_first", [True, False])
def test_excess_cache_keeps_exact_and_float_apart(exact_first):
    # 1 == 1.0 and both hash alike; neither call may return the other's result
    cyclic_excess.cache_clear()
    profile = order_profile(symmetric(3))
    calls = [(1, 2), (1.0, 2.0)] if exact_first else [(1.0, 2.0), (1, 2)]
    results = [cyclic_excess(profile, 6, *rs) for rs in calls]
    exact, approximate = results if exact_first else results[::-1]
    assert type(exact) is Fraction and type(approximate) is float
    # three order-2 subgroups add 2 * 2^2, the missing C6 takes 6^2 away
    assert exact == approximate == 2 * 4 - 36
    assert cyclic_excess.cache_info().misses == 2


def test_excess_cache_does_not_keep_domain_errors():
    cyclic_excess.cache_clear()
    profile = order_profile(symmetric(3))
    for _ in range(2):
        with pytest.raises(ParameterDomainViolated):
            cyclic_excess(profile, 4, 0, 1)
    assert cyclic_excess.cache_info().currsize == 0


def test_profiles_are_values():
    c6, s3 = order_profile(cyclic(6)), order_profile(symmetric(3))
    assert c6 == order_profile(direct_product(cyclic(2), cyclic(3)))
    assert s3 == order_profile(dihedral(3)) == order_profile(inversion_semidirect(3, 1, 1))
    assert c6 != s3 and c6 == cyclic_profile(6)
    # equal profiles of different groups are one dict key
    seen = {s3: "S3"}
    seen[order_profile(dihedral(3))] = "D3"
    assert seen == {s3: "D3"}
    assert len({c6, s3, order_profile(direct_product(cyclic(3), cyclic(2)))}) == 2


def test_profile_twins_share_excess_values():
    # three groups, three profile objects, one value: the later two only hit
    twins = [order_profile(g) for g in
             (symmetric(3), dihedral(3), inversion_semidirect(3, 1, 1))]
    assert len({id(p) for p in twins}) == 3 and len(set(twins)) == 1
    cyclic_excess.cache_clear()
    values = [[cyclic_excess(p, n, r, s) for n in divisors(6) for r, s in SMALL_GRID]
              for p in twins]
    assert values[0] == values[1] == values[2]
    assert cyclic_excess.cache_info().hits == 2 * len(values[0])


def test_profile_twins_share_frobenius_and_matching_entries():
    twins = [order_profile(g) for g in
             (symmetric(3), dihedral(3), inversion_semidirect(3, 1, 1))]
    frobenius_table.cache_clear()
    _matching_for.cache_clear()
    tables = [frobenius_table(p) for p in twins]
    matchings = [_matching_for(p) for p in twins]
    assert tables[0] is tables[1] is tables[2]
    assert matchings[0] is matchings[1] is matchings[2]
    assert frobenius_table.cache_info().misses == 1
    assert _matching_for.cache_info().misses == 1


# ------------------------------------------------------------ Frobenius

def test_frobenius_spots():
    t = frobenius_table(order_profile(symmetric(3)))
    assert t.counts == {1: 1, 2: 4, 3: 3, 6: 6}
    assert t.ratios == {1: 1, 2: 2, 3: 1, 6: 1}
    klein = frobenius_table(order_profile(direct_product(cyclic(2), cyclic(2))))
    assert klein.counts[2] == 4
    assert klein.ratios[2] == 2


def test_frobenius_of_cyclic_is_flat():
    for n in (1, 2, 12, 30, 64):
        t = frobenius_table(cyclic_profile(n))
        assert all(v == 1 for v in t.ratios.values())
        assert t.counts == {m: m for m in divisors(n)}


def test_frobenius_rejects_corrupted_profile():
    bad = OrderProfile(6, {1: 1, 2: 1, 3: 4})
    with pytest.raises(FrobeniusViolated, match=r"B\(3\) = 5"):
        frobenius_table(bad)


def test_frobenius_ratios_at_least_one_on_groups():
    for g in sample_groups():
        t = frobenius_table(order_profile(g))
        assert all(v >= 1 for v in t.ratios.values()), g.label


# ------------------------------------------------- cyclic subgroup counts

def test_cyclic_subgroup_count_spots():
    assert cyclic_subgroup_count(order_profile(symmetric(3)), 6) == 5
    assert cyclic_subgroup_count(order_profile(symmetric(3)), 3) == 2
    assert cyclic_subgroup_count(order_profile(quaternion_generalized(8)), 8) == 5
    for n in (1, 6, 12, 36):
        assert cyclic_subgroup_count(cyclic_profile(n), n) == divisor_count(n)
    with pytest.raises(ValueError):
        cyclic_subgroup_count(order_profile(symmetric(3)), 4)


# ----------------------------------------------------- weighted order sums

def test_weighted_order_sum_spots():
    s3 = order_profile(symmetric(3))
    assert weighted_order_sum(s3, 6, 0, 1) == 13  # sum of element orders
    assert weighted_order_sum(cyclic_profile(6), 6, 0, 1) == 21
    assert weighted_order_sum(s3, 6, 1, 0) == 5  # number of cyclic subgroups
    assert weighted_order_sum(s3, 2, 0, 1) == 7  # identity + three involutions
    q8 = order_profile(quaternion_generalized(8))
    assert weighted_order_sum(q8, 8, 0, 1) == 27
    assert weighted_order_sum(cyclic_profile(8), 8, 0, 1) == 43
    with pytest.raises(ValueError):
        weighted_order_sum(s3, 5, 0, 1)


def test_weighted_order_sum_counts_solutions_at_origin():
    # at r = s = 0 the sum counts elements with o(x) | n, i.e. B(n)
    for g in sample_groups():
        p = order_profile(g)
        t = frobenius_table(p)
        for n in divisors(g.order):
            assert weighted_order_sum(p, n, 0, 0) == t.counts[n]


def test_weighted_order_sum_element_oracle():
    # independent route: iterate the elements themselves
    for g in sample_groups():
        p = order_profile(g)
        for n in divisors(g.order):
            for r, s in SMALL_GRID:
                direct = sum(
                    (
                        Fraction(o) ** s / Fraction(totient(o)) ** r
                        for o in g.element_orders
                        if n % o == 0
                    ),
                    Fraction(0),
                )
                assert weighted_order_sum(p, n, r, s) == direct, (g.label, n, r, s)


def test_weighted_order_sum_float_mode():
    s3 = order_profile(symmetric(3))
    val = weighted_order_sum(s3, 6, 0.5, 1.0)
    expect = 1 + 3 * 2 / 1**0.5 + 2 * 3 / 2**0.5
    assert isinstance(val, float)
    assert val == pytest.approx(expect, abs=1e-12)


# ------------------------------------------------------------ excess

def test_cyclic_excess_at_origin_counts_extra_solutions():
    # at r = s = 0 the excess is B(n) - n: zero at n = |G|, and for proper
    # divisors the surplus of solutions of x^n = 1 over the cyclic count
    for g in sample_groups():
        p = order_profile(g)
        t = frobenius_table(p)
        for n in divisors(g.order):
            assert cyclic_excess(p, n, 0, 0) == t.counts[n] - n
        assert cyclic_excess(p, g.order, 0, 0) == 0


def test_cyclic_excess_spots():
    s3 = order_profile(symmetric(3))
    assert cyclic_excess(s3, 6, 0, 1) == -8
    assert cyclic_excess(s3, 6, 1, 0) == 1
    klein = order_profile(direct_product(cyclic(2), cyclic(2)))
    assert cyclic_excess(klein, 4, 0, 1) == -4
    q8 = order_profile(quaternion_generalized(8))
    assert cyclic_excess(q8, 8, 0, 1) == 27 - 43
    assert cyclic_excess(q8, 8, 1, 0) == 5 - 4
    with pytest.raises(ParameterDomainViolated):  # checked on every call, cached or not
        cyclic_excess(s3, 4, 0, 1)


def test_cyclic_excess_of_cyclic_groups_is_zero():
    for n in (1, 4, 12, 30):
        p = cyclic_profile(n)
        for m in divisors(n):
            for r, s in SMALL_GRID:
                assert cyclic_excess(p, m, r, s) == 0


def test_cyclic_excess_matches_sum_difference():
    for g in sample_groups():
        p = order_profile(g)
        for n in divisors(g.order):
            for r, s in SMALL_GRID:
                expect = weighted_order_sum(p, n, r, s) - weighted_order_sum(
                    cyclic_profile(g.order), n, r, s
                )
                assert cyclic_excess(p, n, r, s) == expect


# ------------------------------------------------- Frobenius expansion

def test_frobenius_expansion_matches_weighted_sum_on_groups():
    for g in sample_groups():
        p = order_profile(g)
        for n in divisors(g.order):
            for r, s in SMALL_GRID:
                assert frobenius_expansion(p, n, r, s) == weighted_order_sum(
                    p, n, r, s
                ), (g.label, n, r, s)


def test_frobenius_expansion_on_synthetic_profiles():
    for p in random_abelian_profiles(30, seed=2026):
        n = p.group_order
        for r, s in [(-2, -2), (0, 0), (1, 0), (2, -1), (-1, 2)]:
            assert frobenius_expansion(p, n, r, s) == weighted_order_sum(p, n, r, s)


# ------------------------------------------------------- order products

def test_product_of_orders_spots():
    assert product_of_orders(order_profile(symmetric(3))).as_json() == {"2": 3, "3": 2}
    assert product_of_orders(cyclic_profile(6)).as_json() == {"2": 3, "3": 4}
    assert product_of_orders(cyclic_profile(6)).value() == 648
    assert product_of_orders(order_profile(cyclic(1))) == FactoredInteger()
    klein = order_profile(direct_product(cyclic(2), cyclic(2)))
    assert product_of_orders(klein).value() == 8
    assert product_of_orders(cyclic_profile(4)).value() == 32


def test_product_closed_form_equals_direct_product():
    for g in sample_groups():
        p = order_profile(g)
        assert product_of_orders(p) == product_of_orders_direct(p), g.label
    for p in random_abelian_profiles(20, seed=7):
        assert product_of_orders(p) == product_of_orders_direct(p)


def test_product_log_kernel_derivation():
    # folding (coefficient, base) log-kernel tags against B(k) reproduces the
    # factored product exactly: log P = sum_{k|n} kernel(k, n/k) B(k)
    for g in sample_groups():
        p = order_profile(g)
        n = p.group_order
        table = frobenius_table(p)
        exps: dict[int, int] = {}
        for k in divisors(n):
            coeff, base = log_mobius_kernel(k, n // k)
            if coeff:
                for q, e in factorize(base).factors:
                    exps[q] = exps.get(q, 0) + coeff * e * table.counts[k]
        assert FactoredInteger.from_exponents(exps) == product_of_orders(p), g.label


def test_product_divides_cyclic_product():
    for g in sample_groups():
        p = order_profile(g)
        pg = product_of_orders(p)
        pc = product_of_orders(cyclic_profile(g.order))
        assert pg.divides(pc), g.label
        cyclic_group = max(g.element_orders) == g.order
        assert (pg == pc) == cyclic_group, g.label
