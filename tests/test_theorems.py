"""Claim checks against hand-computed verdicts for the stock groups."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orderinv.theorems as theorems_mod
from orderinv.catalog import default_catalog_spec, group_from_label, iter_catalog
from orderinv.groups import (
    FiniteGroup,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    inversion_semidirect,
    quaternion_generalized,
    symmetric,
)
from orderinv.numtheory import divisor_count, divisors
from orderinv.order_stats import cyclic_excess, order_profile
from orderinv.report import run_sweep
from orderinv.structure import is_cyclic, is_nilpotent
from orderinv.theorems import (
    ALL_CLAIMS,
    CLAIMS,
    EqualityRouteMismatch,
    ParameterDomainViolated,
    PreconditionViolated,
    check_cyclic_part_equivalence,
    check_diagonal_gap,
    check_frobenius_divisibility,
    check_min_cyclic_subgroups,
    check_nilpotent_sign,
    check_nonnegative_gap,
    check_nonpositive_gap,
    check_order_product_maximal,
    check_semidirect_count,
    evaluate_claim,
    _verdict,
)

NILPOTENT_NONCYCLIC = [
    elementary_abelian(2, 2),
    quaternion_generalized(8),
    dihedral(4),
    direct_product(quaternion_generalized(8), cyclic(3)),
    direct_product(cyclic(2), cyclic(6)),
]

MIXED_BAG = [
    cyclic(1),
    cyclic(12),
    cyclic(30),
    symmetric(3),
    symmetric(4),
    dihedral(6),
    quaternion_generalized(16),
    elementary_abelian(3, 2),
    inversion_semidirect(9, 5, 1),
]


# --- domain and precondition gates ---


def test_domain_gates():
    g = symmetric(3)
    with pytest.raises(ParameterDomainViolated):
        check_nonnegative_gap(g, 6, [(0, 1)])  # s > 0
    with pytest.raises(ParameterDomainViolated):
        check_nonnegative_gap(g, 6, [(0, 0)])  # s == r
    with pytest.raises(ParameterDomainViolated):
        check_nonnegative_gap(g, 4, [(1, 0)])  # 4 does not divide 6
    with pytest.raises(ParameterDomainViolated):
        check_diagonal_gap(g, 6, [0])  # r must be negative
    with pytest.raises(ParameterDomainViolated):
        check_nonpositive_gap(g, [(1, 1)])  # needs r <= s-1
    with pytest.raises(PreconditionViolated):
        check_nilpotent_sign(g, [(1, 0)])  # not nilpotent
    with pytest.raises(PreconditionViolated):
        check_nilpotent_sign(cyclic(8), [(1, 0)])  # cyclic


# --- nonnegative gap (s < r, s <= 0) ---


def test_nonnegative_gap_symmetric3():
    [v] = check_nonnegative_gap(symmetric(3), 6, [(1, 0)])
    assert v.sign == "pos"
    assert v.inequality_holds
    assert not v.equality_condition_holds
    assert v.consistent
    assert "2" in v.witness


def test_nonnegative_gap_quaternion():
    [v] = check_nonnegative_gap(quaternion_generalized(8), 8, [(1, 0)])
    assert v.sign == "pos"  # five cyclic subgroups against four divisors
    assert not v.equality_condition_holds
    assert v.consistent


def test_nonnegative_gap_cyclic_equality():
    for n in (1, 4, 12, 30):
        g = cyclic(n)
        for m in divisors(n):
            [v] = check_nonnegative_gap(g, m, [(2, -1)])
            assert v.sign == "zero"
            assert v.equality_condition_holds
            assert v.consistent


def test_nonnegative_gap_float_exponent_gets_an_exact_sign():
    # a float exponent is the dyadic rational it is, and its sign is exact
    [v] = check_nonnegative_gap(symmetric(3), 6, [(0.5, 0.0)])
    assert v.sign == "pos"
    assert v.consistent


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(range(len(MIXED_BAG))),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=0),
)
def test_nonnegative_gap_consistent_everywhere(idx, r, s):
    g = MIXED_BAG[idx]
    if not (s < r):
        r = s + 1
    for n in divisors(g.order):
        [v] = check_nonnegative_gap(g, n, [(r, s)])
        assert v.consistent


# --- diagonal gap (r = s < 0) ---


def test_diagonal_gap_quaternion_is_tight():
    [v] = check_diagonal_gap(quaternion_generalized(8), 8, [-1])
    assert v.sign == "zero"
    assert v.equality_condition_holds
    assert v.consistent
    assert v.witness == "equality_route: both-agree"


def test_diagonal_gap_symmetric3():
    [v] = check_diagonal_gap(symmetric(3), 6, [-1])
    assert v.sign == "pos"
    assert not v.equality_condition_holds
    assert v.consistent
    # order 3 part is fine: unique subgroup of order 3
    [v3] = check_diagonal_gap(symmetric(3), 3, [-1])
    assert v3.sign == "zero"
    assert v3.equality_condition_holds
    assert v3.consistent


def test_diagonal_gap_nilpotent_groups_vanish_at_full_order():
    for g in NILPOTENT_NONCYCLIC:
        for r in (-1, -2, -3):
            [v] = check_diagonal_gap(g, g.order, [r])
            assert v.sign == "zero"
            assert v.consistent


def test_diagonal_gap_cap_fallback_still_answers():
    # order 202: the subgroup route runs at every divisor, at any order
    big = dihedral(101)
    [v] = check_diagonal_gap(big, 2, [-1])
    assert v.witness == "equality_route: both-agree"
    assert v.consistent
    [whole] = check_diagonal_gap(big, 202, [-1])
    assert whole.witness == "equality_route: both-agree"
    assert [v.sign for v in check_diagonal_gap(big, 1, [-1])] == ["zero"]


def test_diagonal_gap_takes_both_routes_above_order_200():
    # every divisor of every cap-256 catalog group, those above order 200 included
    verdicts = [v for g in iter_catalog(default_catalog_spec(256))
                for n in divisors(g.order) for v in check_diagonal_gap(g, n, [-1])]
    assert len(verdicts) == 3382
    assert len({v.group for v in verdicts}) == 580
    assert all(v.consistent and v.witness == "equality_route: both-agree"
               for v in verdicts)


def test_diagonal_gap_routes_stay_apart_at_full_order():
    # S3's table under C6's element orders: a reflection and a 3-cycle read 3
    s3 = symmetric(3)
    reflections = [x for x in range(6) if s3.element_orders[x] == 2]
    rotations = [x for x in range(6) if s3.element_orders[x] == 3]
    orders = list(s3.element_orders)
    orders[reflections[0]] = orders[rotations[0]] = 3
    orders[reflections[1]] = orders[rotations[1]] = 6
    g = FiniteGroup(6, s3.mul, s3.inv, tuple(orders), s3.cyclic_walks, "S3-read-as-C6")
    assert order_profile(g) == order_profile(cyclic(6))
    assert is_cyclic(g) and is_nilpotent(g)  # the profile's flags agree
    # the solution counts say nilpotent; {x : o(x) | 3} is not closed in the table
    with pytest.raises(EqualityRouteMismatch, match="n=6"):
        check_diagonal_gap(g, 6, [-1])
    report = run_sweep([g])
    assert report["exit_status"] == 1
    assert any(a["claim"] == "gap-diagonal" and a["error"].startswith("EqualityRouteMismatch")
               for a in report["anomalies"])
    # the record's nilpotency flag: C6's profile says yes, S3's table no
    assert {"group": "S3-read-as-C6", "claim": "group-record", "error":
            "EqualityRouteMismatch: S3-read-as-C6: nilpotent is True from the profile, "
            "False in the table"} in report["anomalies"]
    # C6's profile counts 4 cyclic subgroups; S3's table has 5
    assert {"group": "S3-read-as-C6", "claim": "min-cyclic-count", "error":
            "EqualityRouteMismatch: S3-read-as-C6: 4 cyclic subgroups from the profile, "
            "5 walked in the table"} in report["anomalies"]


def test_diagonal_gap_all_divisors_consistent():
    for g in MIXED_BAG:
        for n in divisors(g.order):
            for r in (-1, -2):
                [v] = check_diagonal_gap(g, n, [r])
                assert v.consistent


# --- nonpositive gap (r <= s-1, s >= 1) ---


def test_nonpositive_gap_spot_values():
    [v] = check_nonpositive_gap(symmetric(3), [(0, 1)])
    assert v.sign == "neg"
    assert v.consistent
    for g in (elementary_abelian(2, 2), quaternion_generalized(8)):
        assert [v.sign for v in check_nonpositive_gap(g, [(0, 1)])] == ["neg"]


def test_nonpositive_gap_cyclic_equality():
    for n in (1, 6, 16, 30):
        [v] = check_nonpositive_gap(cyclic(n), [(0, 1)])
        assert v.sign == "zero"
        assert v.equality_condition_holds
        assert v.consistent


def test_nonpositive_gap_float_exponent_gets_an_exact_sign():
    # a float exponent is the dyadic rational it is, and its sign is exact
    [v] = check_nonpositive_gap(symmetric(3), [(0.5, 1.5)])
    assert v.sign == "neg"
    assert v.consistent


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(range(len(MIXED_BAG))),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-3, max_value=2),
)
def test_nonpositive_gap_consistent_everywhere(idx, s, r):
    if r > s - 1:
        r = s - 1
    [v] = check_nonpositive_gap(MIXED_BAG[idx], [(r, s)])
    assert v.consistent


# --- nilpotent sign ---


def test_nilpotent_sign_klein_grid():
    g = elementary_abelian(2, 2)
    signs = [v.sign for v in check_nilpotent_sign(g, [(2, 1), (1, 1), (1, 2)])]
    assert signs == ["pos", "zero", "neg"]


def test_nilpotent_sign_quaternion():
    [v] = check_nilpotent_sign(quaternion_generalized(8), [(0, 1)])
    assert v.sign == "neg"
    assert v.consistent


def test_nilpotent_sign_full_grid():
    for g in NILPOTENT_NONCYCLIC:
        for r in range(-3, 4):
            for s in range(-3, 4):
                [v] = check_nilpotent_sign(g, [(r, s)])
                assert v.consistent


def test_nilpotent_excess_vanishes_on_diagonal_only_when_nilpotent():
    # the diagonal value at (1,1) is zero for every nilpotent group; for
    # other groups it is data, recorded but not asserted either way
    for g in NILPOTENT_NONCYCLIC:
        assert cyclic_excess(order_profile(g), g.order, 1, 1) == 0
    observed = cyclic_excess(order_profile(symmetric(3)), 6, 1, 1)
    assert isinstance(observed, Fraction)


# --- minimum cyclic subgroup count ---


def test_min_cyclic_subgroups_spots():
    v = check_min_cyclic_subgroups(symmetric(3))
    assert v.sign == "pos"
    assert "5" in v.witness and "4" in v.witness
    assert v.consistent
    assert check_min_cyclic_subgroups(cyclic(30)).sign == "zero"
    assert check_min_cyclic_subgroups(quaternion_generalized(8)).sign == "pos"
    for g in MIXED_BAG:
        assert check_min_cyclic_subgroups(g).consistent


def test_min_cyclic_count_agrees_with_origin_adjacent_gap():
    # the (1,0) excess at n = |G| literally counts surplus cyclic subgroups
    for g in MIXED_BAG:
        [gap] = check_nonnegative_gap(g, g.order, [(1, 0)])
        mini = check_min_cyclic_subgroups(g)
        assert gap.sign == mini.sign


# --- three equivalent cyclicity conditions ---


def test_cyclic_part_equivalence_spots():
    v = check_cyclic_part_equivalence(cyclic(12), 6)
    assert v.equality_condition_holds
    assert v.consistent

    v2 = check_cyclic_part_equivalence(symmetric(3), 2)
    assert not v2.equality_condition_holds
    assert v2.sign == "pos"
    assert v2.consistent  # all three conditions false together

    v3 = check_cyclic_part_equivalence(symmetric(3), 3)
    assert v3.equality_condition_holds
    assert v3.sign == "zero"
    assert v3.consistent


def test_cyclic_part_equivalence_everywhere():
    for g in MIXED_BAG:
        for n in divisors(g.order):
            assert check_cyclic_part_equivalence(g, n).consistent


# --- product of element orders ---


def test_order_product_spots():
    v = check_order_product_maximal(symmetric(3))
    assert v.sign == "neg"
    assert v.inequality_holds and not v.equality_condition_holds
    assert v.consistent

    klein = check_order_product_maximal(elementary_abelian(2, 2))
    assert klein.sign == "neg"  # 8 against 32

    for n in (1, 7, 24):
        assert check_order_product_maximal(cyclic(n)).sign == "zero"
    for g in MIXED_BAG:
        assert check_order_product_maximal(g).consistent


# --- solution count divisibility ---


def test_frobenius_divisibility_spots():
    v = check_frobenius_divisibility(symmetric(3))
    assert v.inequality_holds
    assert v.sign == "pos"
    assert v.consistent
    assert check_frobenius_divisibility(cyclic(20)).sign == "zero"
    for g in MIXED_BAG:
        assert check_frobenius_divisibility(g).consistent


# --- semidirect family ---


def test_semidirect_smallest_case_matches_symmetric3():
    v = check_semidirect_count(inversion_semidirect(3, 1, 1))
    assert v.consistent
    assert "brute=5" in v.witness


def test_semidirect_order_thirty():
    v = check_semidirect_count(inversion_semidirect(3, 5, 1))
    assert v.consistent
    assert "predicted=10" in v.witness


def test_semidirect_grid():
    for m, beta, u in [(3, 1, 1), (5, 1, 1), (5, 3, 1), (9, 1, 1), (3, 1, 2), (15, 1, 1)]:
        v = check_semidirect_count(inversion_semidirect(m, beta, u))
        assert v.consistent, v.witness
        assert v.parameters == (("m", m), ("beta", beta), ("u", u))
        surplus = divisor_count(beta) * (m - divisor_count(m))
        assert v.sign == ("pos" if surplus else "zero")


def test_semidirect_count_needs_the_builders_parameters():
    # the same table under the family's own label, but no family slot
    built = inversion_semidirect(3, 1, 1)
    unbuilt = FiniteGroup(6, built.mul, built.inv, built.element_orders,
                          built.cyclic_walks, "C3:C2")
    for group in (dihedral(3), symmetric(3), unbuilt,
                  direct_product(inversion_semidirect(3, 1, 1), cyclic(5))):
        with pytest.raises(PreconditionViolated, match="not built by inversion_semidirect"):
            check_semidirect_count(group)
        assert evaluate_claim(group, "inversion-semidirect-count") == []


# the claims of the form "the inequality holds, and the sign is zero exactly
# when the condition holds"
RULE_CLAIMS = (
    "frobenius-divisibility", "min-cyclic-count", "gap-nonneg", "gap-diagonal",
    "gap-nonpos", "nilpotent-sign", "cyclic-part-equivalence", "order-product-max",
)


def test_one_verdict_rule_for_eight_claims(catalog64):
    for sign in ("neg", "zero", "pos", "indeterminate"):
        for inequality in (False, True):
            for condition in (False, True):
                v = _verdict("claim", cyclic(1), (), sign, inequality, condition)
                assert v.consistent == (sign == "indeterminate" or (
                    inequality and (sign == "zero") == condition))
    verdicts = [v for g in catalog64 for claim in RULE_CLAIMS
                for v in evaluate_claim(g, claim)]
    assert {v.claim for v in verdicts} == set(RULE_CLAIMS)
    for v in verdicts:
        assert v.sign == "indeterminate" or v.consistent == (
            v.inequality_holds and (v.sign == "zero") == v.equality_condition_holds), v


PROFILE_ONLY_CLAIMS = (
    "frobenius-divisibility", "min-cyclic-count", "gap-nonneg", "gap-nonpos",
    "nilpotent-sign", "order-product-max",
)


@pytest.mark.parametrize("label", ["E2^2xC3", "Q8xC5", "D4xC9"])
def test_profile_only_claims_need_no_table(label):
    g = group_from_label(label)
    bare = FiniteGroup(g.order, None, None, g.element_orders, g.cyclic_walks, g.label)
    assert is_nilpotent(bare) and not is_cyclic(bare)
    for claim in PROFILE_ONLY_CLAIMS:
        verdicts = evaluate_claim(g, claim)
        assert verdicts and evaluate_claim(bare, claim) == verdicts, claim


# each claim's check, by the name its CLAIMS entry reads
CLAIM_CHECKS = {
    "frobenius-divisibility": "check_frobenius_divisibility",
    "min-cyclic-count": "check_min_cyclic_subgroups",
    "gap-nonneg": "check_nonnegative_gap",
    "gap-diagonal": "check_diagonal_gap",
    "gap-nonpos": "check_nonpositive_gap",
    "nilpotent-sign": "check_nilpotent_sign",
    "cyclic-part-equivalence": "check_cyclic_part_equivalence",
    "order-product-max": "check_order_product_maximal",
    "inversion-semidirect-count": "check_semidirect_count",
    "divisibility-matching": "check_divisibility_matching",
}


def test_claim_table_is_the_list_of_claims():
    assert ALL_CLAIMS == tuple(CLAIMS) == tuple(CLAIM_CHECKS)
    with pytest.raises(ValueError, match="unknown claim 'no-such'"):
        evaluate_claim(cyclic(2), "no-such")


@pytest.mark.parametrize("claim", ALL_CLAIMS)
def test_a_patched_check_reaches_the_sweep(claim, monkeypatch):
    # an entry that captured its check's function object would miss the patch
    groups = [group_from_label(label) for label in ("C6", "Q8", "C3:C4")]
    applies = sorted(g.label for g in groups if evaluate_claim(g, claim))
    assert applies

    def broken(*args, **kwargs):
        raise RuntimeError("patched")

    monkeypatch.setattr(theorems_mod, CLAIM_CHECKS[claim], broken)
    payload = run_sweep(groups)
    assert [(a["group"], a["claim"]) for a in payload["anomalies"]] == [
        (label, claim) for label in applies]
