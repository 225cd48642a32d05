"""Order statistics: frozen spot values, dual-route identities, oracles."""

import copy
import pickle
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv

import orderinv.order_stats as order_stats_mod
from orderinv.catalog import default_catalog_spec, group_from_label, iter_catalog
from orderinv.groups import (
    GroupConstructionError,
    PermutationGenSet,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    inversion_semidirect,
    quaternion_generalized,
    symmetric,
)
from orderinv.matching import find_divisibility_matching
from orderinv.numtheory import (
    FactoredInteger,
    divisor_count,
    divisor_power_sum,
    divisors,
    factorize,
    totient,
    weight,
)
from orderinv.order_stats import (
    FrobeniusViolated,
    OrderProfile,
    ParameterDomainViolated,
    cyclic_excess,
    cyclic_profile,
    cyclic_subgroup_count,
    excess_sign,
    excess_table,
    frobenius_table,
    order_profile,
    product_of_orders,
    weighted_order_sum,
)
from orderinv.report import _matching_for
from orderinv.theorems import (
    check_frobenius_divisibility,
    check_nilpotent_sign,
    check_nonnegative_gap,
)
from oracles import frobenius_expansion, log_mobius_kernel, product_of_orders_direct
from synthetic import abelian_profile, random_abelian_profiles


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


def test_construction_checks_keep_their_messages():
    for build, error, message in (
        (lambda: OrderProfile(0, {}), ValueError, "group order must be positive, got 0"),
        (lambda: OrderProfile(6), ValueError, "a profile needs exactly one element of order 1"),
        (lambda: OrderProfile(6, {1: 1, 4: 5}), ValueError,
         "order 4 does not divide the group order 6"),
        (lambda: OrderProfile(4, {1: 1, 2: 0, 4: 3}), ValueError,
         "count for order 2 must be positive, got 0"),
        (lambda: OrderProfile(6, {1: 1, 3: 3, 2: 2}), ValueError,
         "count 3 for order 3 is not a multiple of phi(3)=2"),
        (lambda: OrderProfile(6, {1: 1, 2: 2}), ValueError, "profile counts sum to 3, expected 6"),
        (lambda: FactoredInteger(((3, 1), (2, 1))), ValueError,
         "malformed factorization entry (2, 1)"),
        (lambda: FactoredInteger(((4, 1),)), ValueError, "malformed factorization entry (4, 1)"),
        (lambda: PermutationGenSet(2.0, ()), GroupConstructionError,
         "permutation degree must be a positive integer, got 2.0"),
        (lambda: PermutationGenSet(10**9, ()), GroupConstructionError,
         "permutation degree 1000000000 exceeds the order cap 5000"),
        (lambda: PermutationGenSet(3, ((0, 0, 1),)), GroupConstructionError,
         "generator (0, 0, 1) is not a permutation of 0..2"),
    ):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()


def test_value_types_are_immutable_and_compare_as_documented():
    group = cyclic(6)
    profile = order_profile(group)
    matching = find_divisibility_matching(profile)
    verdict = check_frobenius_divisibility(group)
    for value, name in (
        (factorize(12), "factors"),
        (group, "order"),
        (PermutationGenSet(2, ((1, 0),)), "degree"),
        (profile, "counts"),
        (frobenius_table(profile), "counts"),
        (matching, "status"),
        (default_catalog_spec(), "order_cap"),
        (verdict, "consistent"),
    ):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    # the named tuples unpack and take _replace
    status, assignment, violator = matching
    assert status == "found" and violator is None and assignment == matching.assignment
    assert verdict._replace(consistent=False).consistent is False and verdict.consistent
    # a profile is a value: twins are equal and hash alike
    twin = order_profile(direct_product(cyclic(2), cyclic(3)))
    assert twin is not profile and twin == profile and hash(twin) == hash(profile)
    assert profile != cyclic_profile(12) and profile != profile.key
    assert factorize(12) == FactoredInteger(((2, 2), (3, 1)))
    assert hash(factorize(12)) == hash(FactoredInteger(((2, 2), (3, 1))))
    # a group is itself only, and per_group memos may hold it weakly
    assert group != cyclic(6) and weakref.ref(group)() is group
    # copy and pickle restore the slots, which assignment may not
    clone = pickle.loads(pickle.dumps(group))
    assert (clone.label, clone.mul, clone.inv) == (group.label, group.mul, group.inv)
    assert copy.deepcopy(factorize(12)) == factorize(12) and copy.copy(profile) == profile


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
    # 1, 1.0 and Fraction(1) are one exponent: one memo entry, one exact
    # value, whichever comes first; a float caller never leaves a float
    # reading where an exact caller will find it
    excess_table.cache_clear()
    profile = order_profile(symmetric(3))
    calls = [(1, 2), (1.0, 2.0), (Fraction(1), Fraction(2))]
    results = [cyclic_excess(profile, 6, *rs)
               for rs in (calls if exact_first else calls[::-1])]
    assert all(type(value) is Fraction for value in results)
    # three order-2 subgroups add 2 * 2^2, the missing C6 takes 6^2 away
    assert results == [2 * 4 - 36] * 3
    assert excess_table.cache_info().misses == 1


def test_excess_cache_does_not_keep_domain_errors():
    excess_table.cache_clear()
    profile = order_profile(symmetric(3))
    for _ in range(2):
        with pytest.raises(ParameterDomainViolated):
            cyclic_excess(profile, 4, 0, 1)
    assert excess_table.cache_info().currsize == 0


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
    excess_table.cache_clear()
    values = [[cyclic_excess(p, n, r, s) for n in divisors(6) for r, s in SMALL_GRID]
              for p in twins]
    assert values[0] == values[1] == values[2]
    assert excess_table.cache_info().hits == 2 * len(values[0])


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
    # a root has no rational value: the sum is a float reading, the sign is exact
    s3 = order_profile(symmetric(3))
    val = weighted_order_sum(s3, 6, 0.5, 1.0)
    expect = 1 + 3 * 2 / 1**0.5 + 2 * 3 / 2**0.5
    assert isinstance(val, float)
    assert val == pytest.approx(expect, abs=1e-12)
    # three order-2 subgroups add 2 * 2 / 1^-0.5, the missing C6 takes 6 / 2^-0.5 away
    assert excess_sign(s3, 6, 0.5, 1.0) == "neg"


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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=3).map(abelian_profile),
       st.integers(-3, 3), st.integers(-3, 3), st.sampled_from([int, float, Fraction]))
def test_integer_excess_is_the_fraction_sum(profile, r, s, kind):
    # the integer path against the defining sum of (c_m - 1) weight(m, r - 1, s)
    excess_table.cache_clear()
    for n in divisors(profile.group_order):
        expected = sum(((profile.cyclic_count(m) - 1) * weight(m, r - 1, s)
                        for m in divisors(n)), Fraction(0))
        value = cyclic_excess(profile, n, kind(r), kind(s))
        assert type(value) is Fraction and value == expected, (profile.key, n, r, s)


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


# ------------------------------------------- exact signs, mpmath oracle

CATALOG_64 = sorted({order_profile(g) for g in iter_catalog(default_catalog_spec(order_cap=64))},
                    key=lambda p: p.key)
EXPONENTS = st.one_of(
    st.builds(Fraction, st.integers(-32, 32), st.integers(1, 32)),
    st.floats(-4, 4, allow_nan=False),
)
# ROADMAP item 3: strict signs of excesses below 1e-9, and exact zeros whose
# float readings are 16384, 0.00195, -0.0117 and 3.0e-08
NAMED_CASES = [
    ("E2^2", Fraction(1, 32), -32, "pos"),
    ("Q8", Fraction(-31, 32), -32, "pos"),
    ("D4", Fraction(-13, 2), -32, "pos"),
    ("E2^6", Fraction(121, 2), Fraction(121, 2), "zero"),
    ("D8", Fraction(81, 2), Fraction(81, 2), "zero"),
    ("C2xC4xC4", Fraction(81, 2), Fraction(81, 2), "zero"),
    ("E2^12", Fraction(31, 2), Fraction(31, 2), "zero"),
]


def _named_profile(label):
    # E2^12 arithmetically: its 4096^2 Cayley table takes seconds to build
    return abelian_profile([2] * 12) if label == "E2^12" else order_profile(
        group_from_label(label))


def _iv_excess(profile, n, r, s):
    """The excess as an mpmath interval, term by term at the current iv.dps."""
    a, b = Fraction(r) - 1, Fraction(s)
    return sum(((profile.cyclic_count(m) - 1)
                * iv.mpf(m) ** (iv.mpf(b.numerator) / b.denominator)
                / iv.mpf(totient(m)) ** (iv.mpf(a.numerator) / a.denominator)
                for m in divisors(n) if profile.cyclic_count(m) != 1), iv.mpf(0))


def _with_examples(test):
    for label, r, s, _ in NAMED_CASES:
        test = example(_named_profile(label), r, s)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.sampled_from(CATALOG_64),
              st.lists(st.integers(1, 12), min_size=1, max_size=3).map(abelian_profile)),
    EXPONENTS,
    EXPONENTS,
)
@_with_examples
def test_excess_sign_agrees_with_mpmath_intervals(profile, r, s):
    dps, iv.dps = iv.dps, 130
    try:
        for n in divisors(profile.group_order):
            value = _iv_excess(profile, n, r, s)
            if value.a > 0 or value.b < 0:  # else the interval cannot tell
                expected = "pos" if value.a > 0 else "neg"
                assert excess_sign(profile, n, r, s) == expected, (profile.key, n, r, s)
    finally:
        iv.dps = dps


@pytest.mark.parametrize("label, r, s, sign", NAMED_CASES)
def test_named_cases_get_exact_signs_and_consistent_verdicts(label, r, s, sign):
    profile = _named_profile(label)
    assert excess_sign(profile, profile.group_order, r, s) == sign
    if label != "E2^12":
        [verdict] = check_nilpotent_sign(group_from_label(label), [(r, s)])
        assert verdict.sign == sign and verdict.consistent, verdict


# ------------------------------------------- excess tables, weight oracle

def _weight_route(profile, n, r, s):
    """The excess the independent way: the profile's weighted order sum
    less the cyclic group's, both through numtheory.weight."""
    return weighted_order_sum(profile, n, r, s) - divisor_power_sum(n, r, s)


def test_excess_table_is_the_weight_route_on_the_cap64_catalog():
    span = range(-3, 4)
    for profile in CATALOG_64:
        for n in divisors(profile.group_order):
            denominator, rows = excess_table(profile, n, span, span)
            for r, row in zip(span, rows):
                for s, numerator in zip(span, row):
                    value = Fraction(numerator, denominator)
                    assert value == _weight_route(profile, n, r, s), (profile.key, n, r, s)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=3).map(abelian_profile),
       st.integers(1, 32), st.data())
def test_excess_table_is_the_weight_route_at_grid_bounds_up_to_32(profile, g, data):
    # the corners of [-g, g]^2 and drawn points of it, at a drawn divisor
    excess_table.cache_clear()  # hold one large table at a time
    span = range(-g, g + 1)
    n = data.draw(st.sampled_from(divisors(profile.group_order)))
    points = data.draw(st.lists(st.tuples(st.integers(-g, g), st.integers(-g, g)),
                                max_size=6))
    denominator, rows = excess_table(profile, n, span, span)
    assert len(rows) == len(span) and {len(row) for row in rows} == {len(span)}
    for r, s in [(-g, -g), (-g, g), (g, -g), (g, g), *points]:
        value = Fraction(rows[r + g][s + g], denominator)
        assert value == _weight_route(profile, n, r, s), (profile.key, n, r, s)
    excess_table.cache_clear()


def test_excess_sign_is_indeterminate_beyond_the_digit_budget(monkeypatch):
    # E2^2 at (1/32, -32) has terms of both signs: 10 digits are all guard digits
    monkeypatch.setattr(order_stats_mod, "SIGN_DIGITS", 10)
    e2_2 = group_from_label("E2^2")
    assert excess_sign(order_profile(e2_2), 4, Fraction(1, 32), -32) == "indeterminate"
    for verdict in (*check_nilpotent_sign(e2_2, [(Fraction(1, 32), -32)]),
                    *check_nonnegative_gap(e2_2, 4, [(Fraction(1, 32), -32)])):
        assert verdict.sign == "indeterminate" and verdict.consistent, verdict
        assert verdict.witness.startswith("excess sign indeterminate at 10 digits")
    # a sum of positive terms only, and an exact zero, need no digits
    assert excess_sign(order_profile(e2_2), 2, Fraction(1, 2), Fraction(1, 3)) == "pos"
    assert excess_sign(cyclic_profile(12), 12, Fraction(1, 3), 0.5) == "zero"
    with pytest.raises(ParameterDomainViolated):
        excess_sign(order_profile(e2_2), 3, Fraction(1, 2), 0)


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
