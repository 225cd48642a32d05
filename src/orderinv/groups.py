"""Explicit finite groups as dense Cayley tables.

A group of order n lives on indices 0..n-1 with the identity pinned at
index 0.  Instances are immutable and carry their element orders, so all
order statistics downstream are pure table reads.

Trusted family constructors check nothing: their tables come from
``_metacyclic_rows`` (cyclic, dihedral, quaternion, semidirect) or
``_product_rows`` (direct and elementary abelian products), correct by
construction, and tests and ``verify --paranoid`` send them through the
untrusted path.  The untrusted entry points validate: ``from_permutations``
(group files, symmetric, A5) scans for a Latin square with identity, and
``from_cayley_table`` adds Light's associativity test, O(n^2 log n).  Every
constructor checks the order against ``MAX_ORDER`` before it allocates
anything, so no input can ask for an unbounded table.
"""

from __future__ import annotations

import re
import weakref
from functools import wraps
from itertools import chain
from math import factorial, gcd
from operator import eq, itemgetter

from .numtheory import Frozen, is_prime

MAX_ORDER = 5000
_CAP_BITS = MAX_ORDER.bit_length()  # 2**_CAP_BITS > MAX_ORDER: bound exponents by it


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


def bounded_int(text: str) -> int:
    """int(text) for a number that bounds a group order.  More than 640
    digits, leading zeros aside, exceed the order cap: refused before int()
    could meet any limit Python sets on the length of a conversion."""
    text = re.sub(r"^(\s*[+-]?)(?:0_?)*(?=\d)", r"\1", text)
    if (digits := len(text.strip().lstrip("+-"))) > 640:
        raise OrderCapExceeded(f"a number of {digits} digits exceeds the order cap {MAX_ORDER}")
    return int(text)


def is_int(value) -> bool:
    # JSON true/false arrive as bool, which is a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


class FiniteGroup(Frozen):
    """Immutable, weakly referenceable multiplication structure; equality is identity.

    mul[i][j] is the product of elements i and j, inv[i] the inverse,
    element_orders[i] the multiplicative order of i.
    """

    __slots__ = ("order", "mul", "inv", "element_orders", "label", "__weakref__")

    def __init__(self, order: int, mul: tuple, inv: tuple, element_orders: tuple, label: str):
        for name, value in zip(self.__slots__, (order, mul, inv, element_orders, label)):
            object.__setattr__(self, name, value)

    def __repr__(self):  # tables are bulky; keep reprs scannable
        return f"FiniteGroup({self.label!r}, order={self.order})"


def per_group(fn):
    """Memoise fn(group, *args) for as long as the group lives: the memo
    holds its groups weakly, so a dropped group takes its entries along."""
    memo = weakref.WeakKeyDictionary()

    @wraps(fn)
    def memoised(group, *args):
        try:
            return memo[group][args]
        except KeyError:
            value = memo.setdefault(group, {})[args] = fn(group, *args)
            return value

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
    # a table equal to its transpose has its rows for columns: they passed
    if not all(map(eq, map(tuple, mul), zip(*mul))):
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


def generated(mul, gens, limit: int | None = None) -> frozenset[int]:
    """The subgroup generated by ``gens``: {0} closed under right
    multiplication by them, which in a finite group supplies the inverses.
    With a ``limit``, the walk stops as soon as it has more elements than
    that, and returns those: a set larger than ``limit`` but no subgroup."""
    found = {0}
    words = [0]
    for x in words:  # grows while it is walked: BFS order
        row = mul[x]
        for g in gens:
            y = row[g]
            if y not in found:
                found.add(y)
                words.append(y)
        if limit is not None and len(found) > limit:
            break
    return frozenset(found)


def cyclic_powers(mul, x: int) -> list[int]:
    """[x^0, x^1, ..., x^(k-1)] for x of order k."""
    powers = [0]
    y = x
    while y != 0:
        powers.append(y)
        if len(powers) > len(mul):  # bounds the walk on a table nobody validated
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


def _build(mul_rows, label: str) -> FiniteGroup:
    """No check: the caller validated the table or built it correct."""
    mul = tuple(map(tuple, mul_rows))
    orders, inv = _orders_and_inverses(mul)
    return FiniteGroup(len(mul), mul, inv, orders, label)


def from_cayley_table(table, label: str) -> FiniteGroup:
    """Validate an untrusted table: a Latin square with identity 0 that
    passes Light's associativity test is a group, so every element has a
    two-sided inverse."""
    _require_order(len(table), f"table {label!r} of order {len(table)}")
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple)) or any(  # is_int per distinct type
                t is bool or not issubclass(t, int) for t in set(map(type, row))):
            raise GroupConstructionError(f"row {i} is not a list of integers")
    mul = tuple(map(tuple, table))
    if not mul:
        raise NotClosed("empty multiplication table")
    _check_latin_and_identity(mul)
    _check_associative(mul)
    return _build(mul, label)


class PermutationGenSet(Frozen):
    """Generators as 0-based image tuples on 0..degree-1."""

    __slots__ = ("degree", "generators")

    def __init__(self, degree: int, generators: tuple[tuple[int, ...], ...]):
        if not is_int(degree) or degree < 1:
            raise GroupConstructionError(
                f"permutation degree must be a positive integer, got {degree!r}"
            )
        _require_order(degree, f"permutation degree {degree}")
        full = frozenset(range(degree))
        for g in generators:
            if len(g) != degree or not all(is_int(x) for x in g) or frozenset(g) != full:
                raise GroupConstructionError(
                    f"generator {g} is not a permutation of 0..{degree - 1}"
                )
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", generators)


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
    mul = tuple(zip(*columns))
    _check_latin_and_identity(mul)
    return _build(mul, label)


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
            tuple(chain.from_iterable(map(shifted.__getitem__, row_a)))
            for row_a in mul_a
        ]
    return rows


def _metacyclic_rows(m: int, k: int, t: int, c: int) -> list[tuple[int, ...]]:
    """Table of <a, b | a^m = 1, b^k = a^c, b a b^-1 = a^t> on a^i b^j at
    index i + m*j, for t^k = 1 and c*(t - 1) = 0 (mod m).

    Row a^i1 b^j1 is a^(i1 + s*i2) b^(j1 + j2), s = t^j1, times a^c where
    j1 + j2 wraps: k windows of the lane s*i2 mod m, run twice.  A later j1
    with the s of an earlier j0 is row (i1, j0) moved left j1 - j0 blocks,
    then the head of row (i1 + c, j0)."""
    cells = tuple(range(m * k))  # one int object per element, shared by the rows
    rows = [()] * (m * k)
    first = {}  # t^j1 mod m -> the first j1 acting by it
    for j1 in range(k):
        s, block = pow(t, j1, m), slice(m * j1, m * j1 + m)
        j0 = m * first.setdefault(s, j1)
        if d := m * j1 - j0:
            rows[block] = [rows[i + j0][d:] + rows[(i + c) % m + j0][:d] for i in range(m)]
            continue
        lane = [s * i % m for i in range(m)] * 2
        blocks = list(map(itemgetter(*lane), [cells[m * j : m * j + m] for j in range(k)]))
        # window o of a block is the lane of row i1 = s*o; wrapped blocks read row i1 + c's
        here = [slice(o, o + m) for o in sorted(range(m), key=lane.__getitem__)]
        wrapped = here[c % m :] + here[: c % m]
        windows = zip(*[map(b.__getitem__, here) for b in blocks[j1:]],
                      *[map(b.__getitem__, wrapped) for b in blocks[:j1]])
        # one concatenation joins two windows; more are chained, as a sum is quadratic in k
        rows[block] = [sum(w, ()) if k <= 2 else tuple(chain.from_iterable(w)) for w in windows]
    return rows


def cyclic(n: int) -> FiniteGroup:
    _require_order(n, f"C{n}")
    if n < 1:
        raise GroupConstructionError(f"cyclic group needs order >= 1, got {n}")
    return _build(_metacyclic_rows(n, 1, 1, 0), f"C{n}")


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n; element (i, j) is
    rotation^i * flip^j, encoded as i + n*j."""
    _require_order(2 * n, f"D{n} of order {2 * n}")
    if n < 1:
        raise GroupConstructionError(f"dihedral parameter must be >= 1, got {n}")
    return _build(_metacyclic_rows(n, 2, -1, 0), f"D{n}")


def quaternion_generalized(order: int) -> FiniteGroup:
    """Generalized quaternion group of the given 2-power order >= 8."""
    _require_order(order, f"Q{order}")
    if order < 8 or order & (order - 1):
        raise GroupConstructionError(
            f"generalized quaternion groups exist for 2-power orders >= 8, got {order}"
        )
    m = order // 2  # index of the cyclic half <a>; b^2 = a^(m/2), b a b^-1 = a^-1
    return _build(_metacyclic_rows(m, 2, -1, m // 2), f"Q{order}")


def symmetric(k: int) -> FiniteGroup:
    """All permutations of k points, identity first, the rest in BFS closure order."""
    if k < 1:
        raise GroupConstructionError(f"symmetric group parameter must be >= 1, got {k}")
    _require_order(factorial(min(k, _CAP_BITS)), f"S{k}")
    gens = ((*range(1, k), 0), (*range(k)[1::-1], *range(2, k)))  # a k-cycle and (0 1)
    return from_permutations(PermutationGenSet(k, gens), f"S{k}")


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    """(Z/p)^k with componentwise addition; element index is base-p digits."""
    if k < 1:
        raise GroupConstructionError(f"elementary abelian rank must be >= 1, got {k}")
    _require_order(p ** min(k, _CAP_BITS), f"E{p}^{k}")  # before the primality test
    if not is_prime(p):
        raise GroupConstructionError(f"elementary abelian base {p} is not prime")
    # the k-fold product of C_p, digits added independently in any order
    mul = cp = _metacyclic_rows(p, 1, 1, 0)
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
    alpha = 2^u * beta whose odd-index elements act by inversion.

    Elements are pairs (i, j) with i mod m, j mod alpha, indexed i + m*j;
    the product is (i1 + (-1)^j1 * i2 mod m, j1 + j2 mod alpha).
    """
    if m < 1 or beta < 1 or u < 1:
        raise GroupConstructionError(
            f"semidirect parameters must be positive, got ({m}, {beta}, {u})"
        )
    # no 2^u for a huge u, and no product too long to print
    _require_order(m * beta << min(u, _CAP_BITS), f"C{m}:C(2^{u}*{beta})")
    alpha = 2**u * beta
    if gcd(m, alpha) != 1:
        raise CoprimalityViolated(
            f"gcd({m}, 2^{u}*{beta}) = {gcd(m, alpha)}, expected 1"
        )
    if m % 2 == 0:
        raise ParityViolated(f"m = {m} must be odd")
    if beta % 2 == 0:
        raise ParityViolated(f"beta = {beta} must be odd")
    return _build(_metacyclic_rows(m, alpha, -1, 0), f"C{m}:C{alpha}")
