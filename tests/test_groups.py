"""Group model: constructors, validation of untrusted tables, order laws."""

import copy
import pickle
import re
import sys
import tracemalloc
from collections import Counter
from enum import IntEnum
from itertools import chain
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

import orderinv.groups as groups_mod
from orderinv.catalog import (
    ALTERNATING5_GENERATORS,
    default_catalog_spec,
    group_from_label,
    iter_catalog,
)
from orderinv.groups import (
    MAX_ORDER,
    CoprimalityViolated,
    FiniteGroup,
    GroupConstructionError,
    LazyTable,
    NoIdentity,
    NotAssociative,
    NotClosed,
    OrderCapExceeded,
    ParityViolated,
    PermutationGenSet,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    from_cayley_table,
    from_permutations,
    greedy_closure,
    inversion_semidirect,
    quaternion_generalized,
    _check_latin_and_identity,
    _MetacyclicTable,
    _cyclic_walk,
    cyclic_powers,
    is_int,
    symmetric,
)
from orderinv.numtheory import is_prime, totient
from orderinv.order_stats import order_profile
from deadline import time_limit
from oracles import metacyclic_orders, symmetric_order_counts
from synthetic import relabelled_table


def order_counts(g: FiniteGroup) -> dict[int, int]:
    return dict(Counter(g.element_orders))


# ------------------------------------------------------------- ingestion

def test_trivial_group():
    g = from_cayley_table([[0]], "triv")
    assert g.order == 1
    assert g.element_orders == (1,)
    assert g.inv == (0,)


def test_cyclic_table_ingested():
    table = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    g = from_cayley_table(table, "C6")
    assert g.element_orders == (1, 6, 3, 2, 3, 6)
    assert g.inv == (0, 5, 4, 3, 2, 1)


def test_rejects_non_latin():
    table = [[0, 1], [1, 1]]
    with pytest.raises(NotClosed):
        from_cayley_table(table, "bad")
    with pytest.raises(NotClosed):
        from_cayley_table([[0, 7], [1, 0]], "bad")
    with pytest.raises(NotClosed):
        from_cayley_table([[0, 1], [1]], "bad")


def test_power_walk_stops_on_a_table_that_never_returns_to_identity():
    # not Latin: 1 * 1 = 2 and 2 * 1 = 2, so the powers of 1 stay at 2; the
    # guard is what bounds the walk when an unvalidated table reaches it
    table = ((0, 1, 2), (1, 2, 2), (2, 2, 2))
    with pytest.raises(NotClosed, match="powers of element 1 do not return to identity"):
        cyclic_powers(table, 1)


def test_rejects_missing_identity():
    # subtraction mod 3: right identity only
    table = [[(i - j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(NoIdentity):
        from_cayley_table(table, "bad")


def test_rejects_non_associative_loop():
    # smallest loop with two-sided identity that is not a group
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NotAssociative):
        from_cayley_table(table, "loop5")


def full_scan_associative(table) -> bool:
    """Brute-force O(n^3) oracle: every triple associates."""
    n = len(table)
    return all(
        table[table[x][a]][y] == table[x][table[a][y]]
        for x in range(n) for a in range(n) for y in range(n)
    )


SMALL_GROUPS = (
    [cyclic(n) for n in range(1, 17)]
    + [dihedral(n) for n in range(2, 9)]
    + [quaternion_generalized(8), quaternion_generalized(16), symmetric(3)]
    + [elementary_abelian(2, 3), elementary_abelian(2, 4), elementary_abelian(3, 2)]
    + [direct_product(cyclic(2), cyclic(4)), direct_product(cyclic(2), cyclic(8)),
       direct_product(cyclic(4), cyclic(4)), direct_product(cyclic(2), dihedral(4))]
)


def intercalates(table) -> list[tuple[int, int, int, int]]:
    """2x2 subsquares (i1, i2) x (j1, j2) off row and column 0; swapping the
    two entries in each of their rows keeps the table a loop."""
    n = len(table)
    position = [{v: j for j, v in enumerate(row)} for row in table]
    out = []
    for i1 in range(1, n):
        for i2 in range(i1 + 1, n):
            for j1 in range(1, n):
                j2 = position[i1][table[i2][j1]]
                if j2 > j1 and table[i2][j2] == table[i1][j1]:
                    out.append((i1, i2, j1, j2))
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_light_test_agrees_with_full_scan(data):
    group = data.draw(st.sampled_from(SMALL_GROUPS))
    n = group.order
    table = relabelled_table(group, [0] + data.draw(st.permutations(range(1, n))))
    for _ in range(data.draw(st.integers(0, 3))):
        squares = intercalates(table)
        if not squares:
            break
        i1, i2, j1, j2 = data.draw(st.sampled_from(squares))
        for i in (i1, i2):
            table[i][j1], table[i][j2] = table[i][j2], table[i][j1]
    if full_scan_associative(table):
        assert from_cayley_table(table, "t").order == n
        return
    with pytest.raises(NotAssociative) as failure:
        from_cayley_table(table, "t")
    x, a, y = map(int, re.fullmatch(
        r"\((\d+)\*(\d+)\)\*(\d+) != \1\*\(\2\*\3\)", str(failure.value)).groups())
    assert table[table[x][a]][y] != table[x][table[a][y]]


def test_latin_square_without_two_sided_inverses_is_not_associative():
    # 2 * 3 = 0 but 3 * 2 = 1: no two-sided inverse, so Light's test must fail
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NotAssociative):
        from_cayley_table(table, "loop")


def test_every_catalog_element_has_a_two_sided_inverse(catalog64):
    # the trusted constructors' tables, and the same tables validated again
    for trusted in catalog64:
        for g in (trusted, from_cayley_table(trusted.mul, trusted.label)):
            mul, inv = g.mul, g.inv
            assert all(mul[x][inv[x]] == mul[inv[x]][x] == 0 for x in range(g.order)), g


# ----------------------------------------------------------- permutations

def test_permutation_gen_set_validates():
    with pytest.raises(Exception):
        PermutationGenSet(3, ((0, 0, 1),))


def test_from_permutations_transposition():
    g = from_permutations(PermutationGenSet(2, ((1, 0),)), "C2")
    assert g.order == 2
    assert g.element_orders == (1, 2)


def test_from_permutations_symmetric3():
    gens = PermutationGenSet(3, ((1, 0, 2), (1, 2, 0)))
    g = from_permutations(gens, "S3")
    assert g.order == 6
    assert order_counts(g) == {1: 1, 2: 3, 3: 2}


def test_from_permutations_alternating5():
    gens = PermutationGenSet(5, ((1, 2, 0, 3, 4), (1, 2, 3, 4, 0)))
    g = from_permutations(gens, "A5")
    assert g.order == 60
    assert order_counts(g) == {1: 1, 2: 15, 3: 20, 5: 24}


def test_from_permutations_cap():
    # a transposition and an 8-cycle generate S8 (order 40320); the closure
    # stops once it would hold more than MAX_ORDER elements
    transposition = (1, 0, 2, 3, 4, 5, 6, 7)
    cycle = (1, 2, 3, 4, 5, 6, 7, 0)
    gens = PermutationGenSet(8, (transposition, cycle))
    with pytest.raises(OrderCapExceeded, match=f"order cap {MAX_ORDER}"):
        from_permutations(gens, "S8")


def composition_table(gens: PermutationGenSet) -> list[tuple[int, ...]]:
    """Direct oracle: BFS closure, then all n^2 compositions a(b(t))."""
    identity = tuple(range(gens.degree))
    elements, index = [identity], {identity: 0}
    for p in elements:
        for g in gens.generators:
            q = tuple(p[t] for t in g)
            if q not in index:
                index[q] = len(elements)
                elements.append(q)
    return [tuple(index[tuple(a[t] for t in b)] for b in elements) for a in elements]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.permutations(range(d)), max_size=3))))
def test_from_permutations_matches_composition_and_sympy(drawn):
    degree, generators = drawn
    gens = PermutationGenSet(degree, tuple(tuple(g) for g in generators))
    g = from_permutations(gens, "p")
    assert list(g.mul) == composition_table(gens)
    reference = PermutationGroup(
        [Permutation(list(p)) for p in generators] or [Permutation(list(range(degree)))])
    expected = Counter(p.order() for p in reference.elements)
    assert dict(order_profile(g).counts) == dict(expected)


def test_permutation_cyclic_matches_table_cyclic():
    for n in (1, 2, 3, 8, 12, 30, 50):
        rot = tuple((i + 1) % n for i in range(n)) if n > 1 else (0,)
        g = from_permutations(PermutationGenSet(max(n, 1), (rot,)), f"perm{n}")
        assert order_counts(g) == order_counts(cyclic(n))


# ------------------------------------------------------------- families

def test_cyclic_profiles():
    for n in (1, 2, 6, 12, 36):
        g = cyclic(n)
        counts = order_counts(g)
        assert counts == {d: totient(d) for d in counts}
        assert sum(counts.values()) == n


def test_dihedral_matches_symmetric3():
    assert order_counts(dihedral(3)) == order_counts(symmetric(3))
    d4 = dihedral(4)
    assert d4.order == 8
    assert order_counts(d4) == {1: 1, 2: 5, 4: 2}


def test_dihedral_degenerate_params():
    assert order_counts(dihedral(1)) == {1: 1, 2: 1}
    assert order_counts(dihedral(2)) == {1: 1, 2: 3}
    with pytest.raises(Exception):
        dihedral(0)


def test_quaternion():
    q8 = quaternion_generalized(8)
    assert order_counts(q8) == {1: 1, 2: 1, 4: 6}
    q16 = quaternion_generalized(16)
    assert order_counts(q16) == {1: 1, 2: 1, 4: 10, 8: 4}
    for bad in (4, 12, 24):
        with pytest.raises(Exception):
            quaternion_generalized(bad)


def test_symmetric4():
    s4 = symmetric(4)
    assert s4.order == 24
    assert order_counts(s4) == {1: 1, 2: 9, 3: 8, 4: 6}


def test_symmetric_profiles_are_cycle_type_counts():
    for k in range(1, 7):
        assert order_counts(symmetric(k)) == symmetric_order_counts(k), k


@st.composite
def metacyclic_parameters(draw):
    """(m, k, t, c) with mk <= 96, t^k = 1 and c(t - 1) = 0 (mod m)."""
    m, k = draw(st.sampled_from([(m, k) for m in range(1, 97) for k in range(1, 96 // m + 1)]))
    t = draw(st.sampled_from([t for t in range(m) if pow(t, k, m) == 1 % m]))
    c = draw(st.sampled_from([c for c in range(m) if c * (t - 1) % m == 0]))
    return m, k, t, c


@settings(max_examples=200, deadline=None)
@given(metacyclic_parameters())
def test_metacyclic_table_is_a_group_with_arithmetic_orders(params):
    g = from_cayley_table(_MetacyclicTable(*params), "M")  # Latin and Light
    assert g.element_orders == metacyclic_orders(*params)


def test_elementary_abelian():
    e = elementary_abelian(2, 2)
    assert sorted(e.element_orders) == [1, 2, 2, 2]
    e27 = elementary_abelian(3, 3)
    assert order_counts(e27) == {1: 1, 3: 26}
    with pytest.raises(Exception):
        elementary_abelian(4, 2)


def test_direct_product_structure():
    g = direct_product(cyclic(2), cyclic(3))
    assert order_counts(g) == order_counts(cyclic(6))
    assert g.label == "C2xC3"
    # order law o((a,b)) = lcm(o(a), o(b))
    a, b = cyclic(4), dihedral(3)
    prod = direct_product(a, b)
    for xa in range(a.order):
        for xb in range(b.order):
            o = prod.element_orders[xa * b.order + xb]
            assert o == lcm(a.element_orders[xa], b.element_orders[xb])
    with pytest.raises(OrderCapExceeded):
        direct_product(cyclic(100), cyclic(100))


def test_direct_product_with_trivial():
    g = direct_product(symmetric(3), cyclic(1))
    assert order_counts(g) == order_counts(symmetric(3))


# ------------------------------------------------- inversion semidirect

def test_semidirect_s3():
    g = inversion_semidirect(3, 1, 1)
    assert g.label == "C3:C2"
    assert order_counts(g) == order_counts(symmetric(3))


def test_semidirect_order30():
    g = inversion_semidirect(3, 5, 1)
    assert g.order == 30
    # odd powers of the acting generator invert, so 12 elements of order 10
    # and 3 of order 2; even powers centralize, giving orders 3, 5, 15
    assert order_counts(g) == {1: 1, 2: 3, 3: 2, 5: 4, 10: 12, 15: 8}


def test_semidirect_rejections():
    with pytest.raises(CoprimalityViolated):
        inversion_semidirect(2, 1, 1)
    with pytest.raises(CoprimalityViolated):
        inversion_semidirect(3, 3, 1)
    with pytest.raises(ParityViolated):
        inversion_semidirect(3, 2, 1)
    with pytest.raises(OrderCapExceeded):
        inversion_semidirect(101, 1, 6)


def test_semidirect_odd_slice_orders():
    # elements (i, j) with odd j invert the normal factor, so their order is
    # the order of the acting component alone: alpha / gcd(alpha, j)
    for m, beta, u in [(3, 1, 1), (5, 1, 2), (9, 5, 1), (15, 1, 2)]:
        g = inversion_semidirect(m, beta, u)
        alpha = 2**u * beta
        for i in range(m):
            for j in range(1, alpha, 2):
                assert g.element_orders[i + m * j] == alpha // gcd(alpha, j)
        # even j commutes with the normal factor
        for i in range(m):
            for j in range(0, alpha, 2):
                expect = lcm(m // gcd(m, i), alpha // gcd(alpha, j))
                assert g.element_orders[i + m * j] == expect


def test_semidirect_cap_is_checked_before_the_acting_order_is_formed():
    # 2^(10^9) alone is a 125 MB integer, and m * alpha has too many digits to print
    tracemalloc.start()
    try:
        with time_limit(5), pytest.raises(OrderCapExceeded, match="exceeds the order cap"):
            inversion_semidirect(3, 1, 10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_paranoid_revalidation():
    # verify --paranoid passes every trusted table through the untrusted path
    a5 = PermutationGenSet(5, ((1, 2, 0, 3, 4), (1, 2, 3, 4, 0)))
    samples = [
        cyclic(12),
        dihedral(6),
        quaternion_generalized(8),
        symmetric(4),
        elementary_abelian(3, 2),
        inversion_semidirect(3, 5, 1),
        direct_product(cyclic(2), cyclic(2)),
        from_permutations(a5, "A5"),
    ]
    checked = 0
    # and so does every default-catalog group at cap 128, one table at a time
    for g in chain(samples, iter_catalog(default_catalog_spec(128))):
        again = from_cayley_table(g.mul, g.label)
        assert (again.mul, again.inv, again.element_orders) == (
            g.mul, g.inv, g.element_orders)
        checked += 1
    assert checked == len(samples) + 304


def count_latin_scans(monkeypatch) -> list[int]:
    """The orders of the tables _check_latin_and_identity sees from now on."""
    scanned, scan = [], groups_mod._check_latin_and_identity
    monkeypatch.setattr(groups_mod, "_check_latin_and_identity",
                        lambda mul: scanned.append(len(mul)) or scan(mul))
    return scanned


def test_trusted_constructors_skip_the_latin_scan(monkeypatch):
    s3, a5 = symmetric(3), from_permutations(ALTERNATING5_GENERATORS, "A5")  # scanned here
    scanned = count_latin_scans(monkeypatch)
    built = [
        cyclic(12), dihedral(6), quaternion_generalized(16), elementary_abelian(3, 2),
        elementary_abelian(2, 5), inversion_semidirect(3, 5, 1),
        direct_product(cyclic(2), dihedral(4)), direct_product(s3, cyclic(5)),
        direct_product(direct_product(cyclic(2), quaternion_generalized(8)), a5),
        group_from_label("C3:C10xE2^2xD5"),
    ]
    assert [g.order for g in built] == [12, 12, 16, 9, 32, 30, 16, 30, 960, 1200]
    assert scanned == []


def test_untrusted_paths_run_the_latin_scan(monkeypatch):
    scanned = count_latin_scans(monkeypatch)
    from_cayley_table(cyclic(6).mul, "c6")
    from_permutations(ALTERNATING5_GENERATORS, "A5")
    symmetric(4)  # the closure of a 4-cycle and a transposition
    assert scanned == [6, 60, 24]
    # paranoid adds one scan per catalog group to those of the closures
    spec = default_catalog_spec(32)
    scanned.clear()
    plain = list(iter_catalog(spec))
    closures = Counter(scanned)
    scanned.clear()
    checked = list(iter_catalog(spec, paranoid=True))
    assert closures == Counter([1, 2, 6, 24])  # S1 to S4
    assert Counter(scanned) == closures + Counter(g.order for g in plain)
    assert [g.label for g in checked] == [g.label for g in plain]


def test_paranoid_build_walks_each_table_once(monkeypatch):
    # the check validates the table; only the group that goes on is walked
    calls, walk = Counter(), groups_mod._cyclic_walk
    monkeypatch.setattr(groups_mod, "_cyclic_walk",
                        lambda mul: calls.update([len(mul)]) or walk(mul))
    spec = default_catalog_spec(64)
    plain = [g.label for g in iter_catalog(spec)]
    walked = calls.copy()
    calls.clear()
    assert [g.label for g in iter_catalog(spec, paranoid=True)] == plain
    assert calls == walked


def test_greedy_closure_takes_the_candidates_in_order():
    e8 = elementary_abelian(2, 3)
    steps = list(greedy_closure(e8.mul, range(1, 8)))
    assert [c for c, _ in steps] == [1, 2, 4]
    assert [len(closure) for _, closure in steps] == [2, 4, 8]
    # a list grown while it is walked: the new candidates come after the old
    pending = [3]
    taken = []
    for c, _ in greedy_closure(e8.mul, pending):
        taken.append(c)
        pending.extend([1, 4] if c == 3 else [])
    assert taken == [3, 1, 4]


# (label, order) of each group a family builds from its label, up to order 512
FAMILY_LABELS_TO_512 = {
    "cyclic": [(f"C{n}", n) for n in range(1, 513)],
    "dihedral": [(f"D{n}", 2 * n) for n in range(1, 257)],
    "quaternion": [(f"Q{2**k}", 2**k) for k in range(3, 10)],
    "permutations": [("S1", 1), ("S2", 2), ("S3", 6), ("S4", 24), ("S5", 120), ("A5", 60)],
    "elementary abelian": [(f"E{p}^{k}", p**k) for p in range(2, 513) if is_prime(p)
                           for k in range(1, 10) if p**k <= 512],
    "semidirect": [(f"C{m}:C{alpha}", m * alpha) for m in range(1, 256, 2)
                   for alpha in range(2, 513, 2) if gcd(m, alpha) == 1 and m * alpha <= 512],
}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_labels_to_order_512_pass_the_untrusted_path(data):
    # what compute builds beyond the catalog, products of up to three factors
    # included, is a group by the full check, with the profile it was built with
    factors, order = [], 1
    for _ in range(data.draw(st.integers(1, 3))):
        fits = {family: [(label, n) for label, n in labels if order * n <= 512]
                for family, labels in FAMILY_LABELS_TO_512.items()}
        family = data.draw(st.sampled_from(sorted(f for f in fits if fits[f])))
        label, n = data.draw(st.sampled_from(fits[family]))
        factors.append(label)
        order *= n
    group = group_from_label("x".join(factors))
    assert group.order == order
    again = from_cayley_table(group.mul, group.label)
    assert order_profile(again) == order_profile(group)


def test_lagrange_and_totient_divisibility():
    # element orders divide the group order; order-d counts are multiples of phi(d)
    samples = [
        cyclic(24),
        dihedral(12),
        quaternion_generalized(16),
        symmetric(4),
        elementary_abelian(2, 4),
        inversion_semidirect(9, 1, 2),
        direct_product(dihedral(3), cyclic(5)),
    ]
    for g in samples:
        for d, count in order_counts(g).items():
            assert g.order % d == 0
            assert count % totient(d) == 0


# ------------------------------------------- per-cell oracles for the kernels

def latin_and_identity_by_cells(mul) -> None:
    """Oracle: the Latin-square and identity scan, one cell at a time."""
    n = len(mul)
    full = frozenset(range(n))
    for i, row in enumerate(mul):
        if len(row) != n:
            raise NotClosed(f"row {i} has length {len(row)}, expected {n}")
        bad = [x for x in row if not (0 <= x < n)]
        if bad:
            raise NotClosed(f"row {i} contains out-of-range entry {bad[0]}")
        if frozenset(row) != full:
            raise NotClosed(f"row {i} is not a permutation of 0..{n - 1}")
    for j in range(n):
        if frozenset(mul[i][j] for i in range(n)) != full:
            raise NotClosed(f"column {j} is not a permutation of 0..{n - 1}")
    for i in range(n):
        if mul[0][i] != i:
            raise NoIdentity(f"0 is not a left identity at element {i}")
        if mul[i][0] != i:
            raise NoIdentity(f"0 is not a right identity at element {i}")


def inverses_by_cells(mul) -> tuple[int, ...]:
    """Oracle: for each i the first j with i*j = 0, which must also give j*i = 0."""
    n = len(mul)
    inv = [-1] * n
    for i in range(n):
        for j in range(n):
            if mul[i][j] == 0:
                assert mul[j][i] == 0, f"element {i} has no two-sided inverse"
                inv[i] = j
                break
        assert inv[i] >= 0, f"element {i} has no right inverse"
    return tuple(inv)


def element_orders_by_cells(mul) -> tuple[int, ...]:
    """Oracle: the order of each element by walking its own powers."""
    orders = [1] * len(mul)
    for x in range(1, len(mul)):
        y, k = x, 1
        while y != 0:
            y, k = mul[y][x], k + 1
        orders[x] = k
    return tuple(orders)


def outcome(check, table):
    try:
        return "ok", check(table)
    except GroupConstructionError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_kernels_match_per_cell_scans(data):
    group = data.draw(st.sampled_from(SMALL_GROUPS))
    n = group.order
    table = relabelled_table(group, [0] + data.draw(st.permutations(range(1, n))))
    valid = tuple(map(tuple, table))
    inv, orders, _ = _cyclic_walk(valid)
    assert (orders, inv) == (element_orders_by_cells(valid), inverses_by_cells(valid))
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    damage = data.draw(st.sampled_from(
        ["none", "cell", "mirrored cell", "row", "out of range", "rows", "columns",
         "length"]))
    if damage == "cell":  # usually breaks a row and a column
        table[i][j] = data.draw(st.integers(0, n - 1))
    elif damage == "mirrored cell":  # an abelian table stays symmetric, not Latin
        table[i][j] = table[j][i] = data.draw(st.integers(0, n - 1))
    elif damage == "row":  # rows stay permutations, columns usually break
        table[i] = data.draw(st.permutations(range(n)))
    elif damage == "out of range":
        table[i][j] = data.draw(st.sampled_from([-1, n, n + 7]))
    elif damage == "rows":  # still Latin, identity misplaced unless i == k
        table[i], table[k] = table[k], table[i]
    elif damage == "columns":
        for row in table:
            row[j], row[k] = row[k], row[j]
    elif damage == "length":
        table[i] = table[i][:-1] if data.draw(st.booleans()) else table[i] + [0]
    assert outcome(_check_latin_and_identity, table) == outcome(
        latin_and_identity_by_cells, table)


def dihedral_by_cells(n):
    def mul_one(i1, j1, i2, j2):
        i = (i1 - i2) % n if j1 else (i1 + i2) % n
        return i + n * (j1 ^ j2)

    return tuple(
        tuple(mul_one(i1, j1, i2, j2) for j2 in range(2) for i2 in range(n))
        for j1 in range(2) for i1 in range(n)
    )


def quaternion_by_cells(order):
    m = order // 2
    h = m // 2

    def mul_one(i1, j1, i2, j2):
        if j1 == 0:
            return (i1 + i2) % m + m * j2
        if j2 == 0:
            return (i1 - i2) % m + m
        return (i1 - i2 + h) % m

    return tuple(
        tuple(mul_one(i1, j1, i2, j2) for j2 in range(2) for i2 in range(m))
        for j1 in range(2) for i1 in range(m)
    )


def elementary_abelian_by_cells(p, k):
    n = p**k
    digits = [[(x // p**t) % p for t in range(k)] for x in range(n)]
    return tuple(
        tuple(sum((a + b) % p * p**t for t, (a, b) in enumerate(zip(dx, dy)))
              for dy in digits)
        for dx in digits
    )


def direct_product_by_cells(a, b):
    nb = b.order
    return tuple(
        tuple(a.mul[xa][ya] * nb + b.mul[xb][yb] for ya in range(a.order) for yb in range(nb))
        for xa in range(a.order) for xb in range(nb)
    )


def semidirect_by_cells(m, alpha):
    return tuple(
        tuple((i1 + (-1) ** j1 * i2) % m + m * ((j1 + j2) % alpha)
              for j2 in range(alpha) for i2 in range(m))
        for j1 in range(alpha) for i1 in range(m)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(3, 7))
def test_cyclic_dihedral_quaternion_tables_match_formulas(n, log_order):
    assert cyclic(n).mul == tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    assert dihedral(n).mul == dihedral_by_cells(n)
    order = 2**log_order
    assert quaternion_generalized(order).mul == quaternion_by_cells(order)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 8))
def test_elementary_abelian_table_is_digitwise_addition(p, k):
    while p**k > 400:
        k -= 1
    assert elementary_abelian(p, k).mul == elementary_abelian_by_cells(p, k)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.sampled_from(SMALL_GROUPS))
def test_direct_product_table_is_pairwise(a, b):
    assert direct_product(a, b).mul == direct_product_by_cells(a, b)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 3, 5, 7, 9, 15]), st.sampled_from([1, 3, 5]), st.integers(1, 3))
def test_semidirect_table_matches_formula(m, beta, u):
    if gcd(m, beta) != 1:
        return
    alpha = 2**u * beta
    assert inversion_semidirect(m, beta, u).mul == semidirect_by_cells(m, alpha)


# ---------------------------------------------------------- lazy tables

LAZY_BY_CELLS = [  # (group, its table cell by cell) for every lazy builder
    (lambda: cyclic(9), lambda: tuple(tuple((i + j) % 9 for j in range(9)) for i in range(9))),
    (lambda: dihedral(7), lambda: dihedral_by_cells(7)),
    (lambda: quaternion_generalized(16), lambda: quaternion_by_cells(16)),
    (lambda: inversion_semidirect(5, 3, 2), lambda: semidirect_by_cells(5, 12)),
    (lambda: elementary_abelian(3, 3), lambda: elementary_abelian_by_cells(3, 3)),
    (lambda: direct_product(dihedral(3), cyclic(4)),
     lambda: direct_product_by_cells(dihedral(3), cyclic(4))),
    (lambda: direct_product(cyclic(5), symmetric(3)),  # a dense factor
     lambda: direct_product_by_cells(cyclic(5), symmetric(3))),
]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(LAZY_BY_CELLS), st.data())
def test_lazy_rows_read_in_any_order_match_the_cells(case, data):
    group, expected = case[0](), case[1]()
    order = data.draw(st.permutations(range(group.order)))
    for x in order:
        assert group.mul[x] == expected[x], x
    assert group.mul.rows_built == group.order and group.mul == expected


def test_lazy_table_is_the_sequence_of_its_rows():
    g = cyclic(5)
    mul = g.mul
    assert isinstance(mul, LazyTable) and mul.rows_built == 1  # the walk of 1 read row 1
    assert len(mul) == 5 and mul[-1] == mul[4] == (4, 0, 1, 2, 3)
    assert mul.rows_built == 2
    rows = tuple(mul)
    assert mul.rows_built == 5 and list(mul) == list(rows)
    assert mul == rows and rows == mul and mul == cyclic(5).mul
    assert mul != cyclic(6).mul and mul != [list(row) for row in rows] and mul != rows[:4]
    with pytest.raises(IndexError):
        mul[5]


def test_lazy_tables_survive_copy_and_pickle():
    for g in (cyclic(7), dihedral(5), elementary_abelian(2, 4), inversion_semidirect(3, 5, 1),
              direct_product(quaternion_generalized(8), cyclic(3)),
              direct_product(symmetric(3), dihedral(4))):
        built = g.mul.rows_built
        for clone in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert type(clone.mul) is type(g.mul) and clone.mul.rows_built == built
            assert (clone.label, clone.inv, clone.element_orders, clone.profile,
                    clone.cyclic_walks, clone.family) == (
                g.label, g.inv, g.element_orders, g.profile, g.cyclic_walks, g.family)
            assert clone.mul == g.mul  # rows built after the round trip
        assert copy.copy(g).mul is g.mul


def test_lazy_rows_share_one_int_object_per_element():
    # a row made of fresh ints would hold one object per cell, not a reference
    for g in (cyclic(300), dihedral(150), quaternion_generalized(512),
              inversion_semidirect(25, 3, 2), elementary_abelian(2, 9),
              direct_product(cyclic(2), dihedral(75)), direct_product(symmetric(3), cyclic(60))):
        assert len(set(map(id, chain.from_iterable(g.mul)))) == g.order, g


def test_product_table_holds_its_rows_and_little_else():
    # E2^10 as C2 x E2^9 keeping its factor rows held a third more; blocks kept per row, double
    for build in (lambda: elementary_abelian(2, 10), lambda: elementary_abelian(3, 6)):
        tracemalloc.start()
        try:
            g = build()
            rows = tuple(g.mul)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(map(sys.getsizeof, rows)) + sys.getsizeof(g.mul._rows)
        assert peak < 1.1 * held, (g, peak, held)


class Cell(IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2
    THREE = 3


CELL_TYPES = {
    "int": int, "bool": bool, "float": float, "str": str,
    "none": lambda v: None, "list": lambda v: [v], "enum": Cell,
}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.sampled_from(sorted(CELL_TYPES))), max_size=6))
def test_row_type_check_matches_per_cell_scan(changes):
    mul = cyclic(4).mul
    table = [list(row) for row in mul]
    for i, j, kind in changes:
        table[i][j] = CELL_TYPES[kind](mul[i][j])
    bad_rows = [i for i, row in enumerate(table) if not all(is_int(x) for x in row)]
    if bad_rows:
        with pytest.raises(GroupConstructionError,
                           match=f"^row {bad_rows[0]} is not a list of integers$"):
            from_cayley_table(table, "t")
    else:  # ints and IntEnum members of the same values: the group itself
        assert from_cayley_table(table, "t").mul == mul
