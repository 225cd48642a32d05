"""Explicit finite groups as dense Cayley tables.

A group of order n lives on indices 0..n-1 with the identity pinned at
index 0.  Instances are immutable and carry their element orders, so all
order statistics downstream are pure table reads.

Construction comes in two flavors: trusted family constructors (cyclic,
dihedral, generalized quaternion, symmetric, elementary abelian, direct
products, and the odd-by-inversion semidirect family) whose tables are
correct by construction, and untrusted ingestion (``from_cayley_table``)
which validates the full group axioms, associativity by Light's test in
O(n^2 log n).  Every constructor checks the order against ``MAX_ORDER``
before it allocates anything, so no input can ask for an unbounded table.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import wraps
from math import gcd
from operator import itemgetter

from .numtheory import is_prime

MAX_ORDER = 5000


class GroupConstructionError(ValueError):
    """Base class for every rejected construction."""


class NotClosed(GroupConstructionError):
    pass


class NoIdentity(GroupConstructionError):
    pass


class NotAssociative(GroupConstructionError):
    pass


class OrderCapExceeded(GroupConstructionError):
    pass


class CoprimalityViolated(GroupConstructionError):
    pass


class ParityViolated(GroupConstructionError):
    pass


def _require_order(n: int, what: str) -> None:
    """Refuse a group of order n (or at least n) above MAX_ORDER."""
    if n > MAX_ORDER:
        raise OrderCapExceeded(f"{what} exceeds the order cap {MAX_ORDER}")


def is_int(value) -> bool:
    # JSON true/false arrive as bool, which is a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Immutable multiplication structure; equality is identity.

    mul[i][j] is the product of elements i and j, inv[i] the inverse,
    element_orders[i] the multiplicative order of i.
    """

    order: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    element_orders: tuple[int, ...]
    label: str

    def __repr__(self):  # tables are bulky; keep reprs scannable
        return f"FiniteGroup({self.label!r}, order={self.order})"


def per_group(fn):
    """Memoise fn(group) for as long as the group lives: the memo holds its
    groups weakly, so a dropped group takes its entry along."""
    memo = weakref.WeakKeyDictionary()

    @wraps(fn)
    def memoised(group):
        if group not in memo:
            memo[group] = fn(group)
        return memo[group]

    return memoised


def _check_latin_and_identity(mul) -> None:
    n = len(mul)
    full = list(range(n))
    for i, row in enumerate(mul):
        if len(row) != n:
            raise NotClosed(f"row {i} has length {len(row)}, expected {n}")
        if sorted(row) != full:
            bad = [x for x in row if not (0 <= x < n)]
            if bad:
                raise NotClosed(f"row {i} contains out-of-range entry {bad[0]}")
            raise NotClosed(f"row {i} is not a permutation of 0..{n - 1}")
    for j, column in enumerate(zip(*mul)):
        if sorted(column) != full:
            raise NotClosed(f"column {j} is not a permutation of 0..{n - 1}")
    for i in range(n):
        if mul[0][i] != i:
            raise NoIdentity(f"0 is not a left identity at element {i}")
        if mul[i][0] != i:
            raise NoIdentity(f"0 is not a right identity at element {i}")


def _check_associative(mul) -> None:
    """Light's associativity test on a loop (a Latin square with identity 0).

    The elements a with (x*a)*y == x*(a*y) for all x, y are closed under
    the product, so the table is associative once such elements generate
    it.  The smallest element outside the closure of those already passed
    is tested next.  In a loop these elements form a subgroup, so each pass
    at least doubles the closure: at most log2(n) elements are tested, at
    n^2 comparisons each, and the first failure names a witness triple.
    """
    n = len(mul)
    closure = {0}
    generators = []
    for a in range(1, n):
        if a in closure:
            continue
        row_a = mul[a]
        for x in range(1, n):
            row_x = mul[x]
            right = tuple(map(row_x.__getitem__, row_a))  # x*(a*y) over y
            left = mul[row_x[a]]  # (x*a)*y over y
            if left != right:
                y = next(y for y in range(n) if left[y] != right[y])
                raise NotAssociative(f"({x}*{a})*{y} != {x}*({a}*{y})")
        generators.append(a)
        closure = generated(mul, generators)


def generated(mul, gens) -> frozenset[int]:
    """The subgroup generated by ``gens``: {0} closed under right
    multiplication by them, which in a finite group supplies the inverses."""
    found = {0}
    words = [0]
    for x in words:  # grows while it is walked: BFS order
        row = mul[x]
        for g in gens:
            y = row[g]
            if y not in found:
                found.add(y)
                words.append(y)
    return frozenset(found)


def cyclic_powers(mul, x: int) -> list[int]:
    """[x^0, x^1, ..., x^(k-1)] for x of order k."""
    powers = [0]
    y = x
    while y != 0:
        powers.append(y)
        if len(powers) > len(mul):  # cannot happen once the table validated
            raise NotClosed(f"powers of element {x} do not return to identity")
        y = mul[y][x]
    return powers


def _orders_and_inverses(mul) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Walk <x> only for an x not yet reached as a power of an earlier one:
    if x has order k, then x^e has order k / gcd(e, k) and inverse x^(k-e)."""
    orders = [0] * len(mul)
    orders[0] = 1
    inv = [0] * len(mul)
    for x in range(1, len(mul)):
        if not orders[x]:
            powers = cyclic_powers(mul, x)
            k = len(powers)
            for e in range(1, k):
                orders[powers[e]] = k // gcd(e, k)
                inv[powers[e]] = powers[k - e]
    return tuple(orders), tuple(inv)


def _build(mul_rows, label: str, check_associativity: bool = False) -> FiniteGroup:
    mul = tuple(tuple(row) for row in mul_rows)
    if not mul:
        raise NotClosed("empty multiplication table")
    _check_latin_and_identity(mul)
    if check_associativity:
        _check_associative(mul)
    orders, inv = _orders_and_inverses(mul)
    return FiniteGroup(
        order=len(mul),
        mul=mul,
        inv=inv,
        element_orders=orders,
        label=label,
    )


def from_cayley_table(table, label: str) -> FiniteGroup:
    """Validate an untrusted table: a Latin square with identity 0 that
    passes Light's associativity test is a group, so every element has a
    two-sided inverse."""
    _require_order(len(table), f"table {label!r} of order {len(table)}")
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple)) or any(  # is_int per distinct type
                t is bool or not issubclass(t, int) for t in set(map(type, row))):
            raise GroupConstructionError(f"row {i} is not a list of integers")
    return _build(table, label, check_associativity=True)


@dataclass(frozen=True)
class PermutationGenSet:
    """Generators as 0-based image tuples on 0..degree-1."""

    degree: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not is_int(self.degree) or self.degree < 1:
            raise GroupConstructionError(
                f"permutation degree must be a positive integer, got {self.degree!r}"
            )
        _require_order(self.degree, f"permutation degree {self.degree}")
        full = frozenset(range(self.degree))
        for g in self.generators:
            if (
                len(g) != self.degree
                or not all(is_int(x) for x in g)
                or frozenset(g) != full
            ):
                raise GroupConstructionError(
                    f"generator {g} is not a permutation of 0..{self.degree - 1}"
                )


def from_permutations(gens: PermutationGenSet, label: str) -> FiniteGroup:
    """Close a generating set of permutations and index the result.

    The identity gets index 0; the remaining elements are numbered in BFS
    discovery order, which makes the construction deterministic.  Each
    element j > 0 is found as parent[j] * g for a generator g, so column j
    of the table is column parent[j] mapped through right multiplication
    by g: n * len(generators) compositions instead of n^2.
    """
    identity = tuple(range(gens.degree))
    elements = [identity]
    index = {identity: 0}
    right = [[] for _ in gens.generators]  # right[g][i] = index of elements[i] * g
    parent = [0]
    via = [0]
    for i, p in enumerate(elements):  # grows while it is walked: BFS order
        for gi, g in enumerate(gens.generators):
            q = tuple(p[t] for t in g)
            j = index.get(q)
            if j is None:
                _require_order(len(elements) + 1, f"closure of {label}")
                j = index[q] = len(elements)
                elements.append(q)
                parent.append(i)
                via.append(gi)
            right[gi].append(j)
    columns = [tuple(range(len(elements)))]
    for j in range(1, len(elements)):
        columns.append(tuple(map(right[via[j]].__getitem__, columns[parent[j]])))
    return _build(zip(*columns), label)


# ----------------------------------------------------------- families

def _product_rows(mul_a, mul_b) -> list[tuple[int, ...]]:
    """Table of A x B on pairs indexed i_a * |B| + i_b: row (xa, xb) chains,
    for each entry v of row xa of A, row xb of B shifted by v * |B|."""
    nb = len(mul_b)
    blocks = [tuple(range(v * nb, (v + 1) * nb)) for v in range(len(mul_a))]
    rows = [()] * (len(mul_a) * nb)
    for xb, row_b in enumerate(mul_b):
        shifted = [tuple(map(block.__getitem__, row_b)) for block in blocks]
        rows[xb::nb] = [
            tuple(itertools.chain.from_iterable(map(shifted.__getitem__, row_a)))
            for row_a in mul_a
        ]
    return rows


def _dicyclic_rows(m: int, shift: int) -> list[tuple[int, ...]]:
    """Table on pairs (i, j), i mod m and j mod 2, indexed i + m*j, with
    (i1, 0)(i2, j2) = (i1 + i2, j2), (i1, 1)(i2, 0) = (i1 - i2, 1) and
    (i1, 1)(i2, 1) = (i1 - i2 + shift, 0), for 0 <= shift < m."""
    up, flip = tuple(range(m)) * 3, tuple(range(m, 2 * m)) * 3
    # up[i : i + m] runs i, i + 1, ... and up[i + m : i : -1] runs i, i - 1, ...
    return [up[i : i + m] + flip[i : i + m] for i in range(m)] + [
        flip[i + m : i : -1] + up[i + shift + m : i + shift : -1] for i in range(m)
    ]


def cyclic(n: int) -> FiniteGroup:
    _require_order(n, f"C{n}")
    if n < 1:
        raise GroupConstructionError(f"cyclic group needs order >= 1, got {n}")
    doubled = tuple(range(n)) * 2  # row i is range(n) rotated left by i
    return _build([doubled[i : i + n] for i in range(n)], f"C{n}")


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n; element (i, j) is
    rotation^i * flip^j, encoded as i + n*j."""
    _require_order(2 * n, f"D{n} of order {2 * n}")
    if n < 1:
        raise GroupConstructionError(f"dihedral parameter must be >= 1, got {n}")
    return _build(_dicyclic_rows(n, 0), f"D{n}")


def quaternion_generalized(order: int) -> FiniteGroup:
    """Generalized quaternion group of the given 2-power order >= 8."""
    _require_order(order, f"Q{order}")
    if order < 8 or order & (order - 1):
        raise GroupConstructionError(
            f"generalized quaternion groups exist for 2-power orders >= 8, got {order}"
        )
    m = order // 2  # index of the cyclic half <a>; b^2 = a^(m/2), b a b^-1 = a^-1
    return _build(_dicyclic_rows(m, m // 2), f"Q{order}")


def symmetric(k: int) -> FiniteGroup:
    """All permutations of k points, in lexicographic order (identity first)."""
    order = 1
    for j in range(2, k + 1):  # stops at the first factorial above the cap
        order *= j
        _require_order(order, f"S{k}")
    if k < 1:
        raise GroupConstructionError(f"symmetric group parameter must be >= 1, got {k}")
    elements = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(elements)}
    mul = [
        tuple(index[tuple(a[b[t]] for t in range(k))] for b in elements)
        for a in elements
    ]
    return _build(mul, f"S{k}")


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    """(Z/p)^k with componentwise addition; element index is base-p digits."""
    _require_order(p, f"E{p}^{k}")  # before the trial-division primality test
    if not is_prime(p):
        raise GroupConstructionError(f"elementary abelian base {p} is not prime")
    if k < 1:
        raise GroupConstructionError(f"elementary abelian rank must be >= 1, got {k}")
    n = 1
    for _ in range(k):  # never p**k for an unbounded k
        n *= p
        _require_order(n, f"E{p}^{k}")
    # the k-fold product of C_p, digits added independently in any order
    mul = cp = cyclic(p).mul
    for _ in range(k - 1):
        mul = _product_rows(cp, mul)
    return _build(mul, f"E{p}^{k}")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs, indexed as i_a * |b| + i_b."""
    label = f"{a.label}x{b.label}"
    _require_order(a.order * b.order, f"{label} of order {a.order * b.order}")
    return _build(_product_rows(a.mul, b.mul), label)


def inversion_semidirect(m: int, beta: int, u: int) -> FiniteGroup:
    """Odd cyclic group of order m extended by a cyclic group of order
    2^u * beta whose odd-index elements act by inversion.

    Elements are pairs (i, j) with i mod m, j mod alpha, indexed i*alpha + j;
    the product is (i1 + (-1)^j1 * i2 mod m, j1 + j2 mod alpha).
    """
    if m < 1 or beta < 1 or u < 1:
        raise GroupConstructionError(
            f"semidirect parameters must be positive, got ({m}, {beta}, {u})"
        )
    alpha = 2**u * beta
    if gcd(m, alpha) != 1:
        raise CoprimalityViolated(
            f"gcd({m}, 2^{u}*{beta}) = {gcd(m, alpha)}, expected 1"
        )
    if m % 2 == 0:
        raise ParityViolated(f"m = {m} must be odd")
    if beta % 2 == 0:
        raise ParityViolated(f"beta = {beta} must be odd")
    _require_order(m * alpha, f"C{m}:C{alpha} of order {m * alpha}")
    # rows with odd j are those of C_m x C_alpha with column (i2, j2) read at (-i2, j2)
    mul = _product_rows(cyclic(m).mul, cyclic(alpha).mul)
    negate = itemgetter(*[(-i % m) * alpha + j for i in range(m) for j in range(alpha)])
    mul[1::2] = map(negate, mul[1::2])  # alpha is even, so j and the index share parity
    return _build(mul, f"C{m}:C{alpha}")
