"""Explicit finite groups as Cayley tables.

A group of order n lives on indices 0..n-1 with the identity pinned at
index 0.  Instances are immutable and carry their element orders, inverses,
order profile and the number of their nontrivial cyclic subgroups, all
found by one walk of the table when the group is built (``_cyclic_walk``),
so order statistics downstream read those, not the table.

Trusted family constructors check nothing.  Each keeps itself and its
arguments in the group's ``family`` slot, which claims read, never the
label.  Their tables are LazyTables, correct by construction, whose rows
are built on first read: ``_MetacyclicTable`` (cyclic, dihedral,
quaternion, semidirect) slices each row out of the family's lanes, and
``_ProductTable`` (direct and elementary abelian products) joins each
row from one row of each factor.  The table routes read only the rows of
the elements they start from: ``cyclic_powers`` reads the row of x,
``generated`` the generators' rows.  Tests and ``verify --paranoid``
send the trusted tables, every row built, through the untrusted check.
The untrusted entry points keep no family, and validate and keep a dense
tuple of row tuples: ``from_permutations`` (group files, symmetric, A5)
scans for a Latin square with identity, and ``from_cayley_table`` builds
what ``check_cayley_table`` passes, which adds Light's associativity test,
O(n^2 log n), run on ``greedy_closure``, the loop that also serves
``structure``'s closure test and derived series.
Every constructor checks the order against ``MAX_ORDER`` before it
allocates anything, so no input can ask for an unbounded table.
"""

from __future__ import annotations

import re
from collections import Counter
from math import factorial, gcd
from operator import eq, itemgetter

from .numtheory import Frozen, is_prime
from .order_stats import OrderProfile

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

    mul[i][j] is the product of i and j, inv[i] the inverse, element_orders[i]
    the order of i, and ``profile`` their OrderProfile.  ``cyclic_walks`` is
    the number of nontrivial cyclic subgroups the build walked.  ``mul`` is
    a tuple of row tuples, or a LazyTable that builds each row on first read.
    ``family`` is (builder, arguments) for a family builder's group, else None.
    """

    __slots__ = ("order", "mul", "inv", "element_orders", "cyclic_walks", "label",
                 "family", "profile", "__weakref__")

    def __init__(self, order: int, mul, inv: tuple, element_orders: tuple,
                 cyclic_walks: int, label: str, family: tuple | None = None):
        profile = OrderProfile(order, Counter(element_orders))
        values = (order, mul, inv, element_orders, cyclic_walks, label, family, profile)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __repr__(self):  # tables are bulky; keep reprs scannable
        return f"FiniteGroup({self.label!r}, order={self.order})"


def _check_latin_and_identity(mul) -> None:
    n = len(mul)
    cells = set(range(n))
    for i, row in enumerate(mul):
        if len(row) != n:
            raise NotClosed(f"row {i} has length {len(row)}, expected {n}")
        if set(row) != cells:  # n entries, all of 0..n-1: a permutation
            bad = [x for x in row if not (0 <= x < n)]
            if bad:
                raise NotClosed(f"row {i} contains out-of-range entry {bad[0]}")
            raise NotClosed(f"row {i} is not a permutation of 0..{n - 1}")
    # a table equal to its transpose has its rows for columns: they passed
    if not all(map(eq, map(tuple, mul), zip(*mul))):
        for j, column in enumerate(zip(*mul)):
            if set(column) != cells:  # n entries: a permutation
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
    it.  The greedy closure of the elements in index order tests each
    element it takes as a generator.  In a loop these elements form a
    subgroup, so each one at least doubles the closure: at most log2(n)
    elements are tested, at n^2 comparisons each, and the first failure
    names a witness triple.
    """
    n = len(mul)
    for a, _ in greedy_closure(mul, range(1, n)):
        through_a = itemgetter(*mul[a])  # a row read at the entries of row a
        for x in range(1, n):
            row_x = mul[x]
            right = through_a(row_x)  # x*(a*y) over y
            left = mul[row_x[a]]  # (x*a)*y over y
            if left != right:
                y = next(y for y in range(n) if left[y] != right[y])
                raise NotAssociative(f"({x}*{a})*{y} != {x}*({a}*{y})")


def generated(mul, gens, limit: int | None = None) -> frozenset[int]:
    """The subgroup generated by ``gens``: {0} closed under left
    multiplication by them, which in a finite group supplies the inverses,
    so only the generators' rows are read.  With a ``limit``, the walk
    stops as soon as it has more elements than that, and returns those: a
    set larger than ``limit`` but no subgroup."""
    rows = [mul[g] for g in gens]
    found = {0}
    words = [0]
    for x in words:  # grows while it is walked: BFS order
        for row in rows:
            y = row[x]
            if y not in found:
                found.add(y)
                words.append(y)
        if limit is not None and len(found) > limit:
            break
    return frozenset(found)


def greedy_closure(mul, candidates, limit: int | None = None):
    """Yield (c, closure) for each candidate c outside the closure so far,
    in order: c joins the generators and closure is what they generate
    (``generated``, with ``limit``).  A list of candidates may grow while
    it is walked; its new candidates are taken after the old."""
    gens, closure = (), frozenset({0})
    for c in candidates:
        if c not in closure:
            gens += (c,)
            closure = generated(mul, gens, limit)
            yield c, closure


def cyclic_powers(mul, x: int) -> list[int]:
    """[x^0, x^1, ..., x^(k-1)] for x of order k, read off the row of x."""
    row = mul[x]
    powers = [0]
    y = x
    for _ in row:  # at most |G| steps: bounds the walk on a table nobody validated
        if y == 0:
            return powers
        powers.append(y)
        y = row[y]
    raise NotClosed(f"powers of element {x} do not return to identity")


def _cyclic_walk(mul) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Walk each nontrivial cyclic subgroup once, from its first generator
    x in index order: if x has order k, then x^e has order k / gcd(e, k)
    and inverse x^(k-e), and generates <x> when gcd(e, k) = 1, so it is
    skipped.  Returns the inverses, the orders, and the number of
    subgroups walked."""
    n = len(mul)
    orders, inv, walked = [1] + [0] * (n - 1), [0] * n, bytearray(n)
    subgroups = 0
    for x in range(1, n):
        if walked[x]:
            continue
        powers = cyclic_powers(mul, x)
        k = len(powers)
        for e in range(1, k):
            y, d = powers[e], gcd(e, k)
            orders[y], inv[y] = k // d, powers[k - e]
            if d == 1:
                walked[y] = 1
        subgroups += 1
    return tuple(inv), tuple(orders), subgroups


def _build(mul, label: str, family: tuple | None = None) -> FiniteGroup:
    """No check: the caller validated the table, a tuple of row tuples, or
    it is the LazyTable of the builder in ``family``, correct by construction."""
    return FiniteGroup(len(mul), mul, *_cyclic_walk(mul), label, family)


def check_cayley_table(table, label: str) -> tuple[tuple[int, ...], ...]:
    """Validate an untrusted table and return it as a tuple of row tuples:
    a Latin square with identity 0 that passes Light's associativity test
    is a group, so every element has a two-sided inverse."""
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
    return mul


def from_cayley_table(table, label: str) -> FiniteGroup:
    """The group of an untrusted table, once ``check_cayley_table`` passes it."""
    return _build(check_cayley_table(table, label), label)


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

def _joined(parts) -> tuple[int, ...]:
    """The tuples of ``parts`` end to end: a list takes each part in one
    copy, where a chain would visit every item."""
    row = []
    for part in parts:
        row += part
    return tuple(row)


class LazyTable(Frozen):
    """A trusted family's Cayley table whose rows are built on first read:
    ``table[x]`` is the row of x, a tuple made by ``_row`` once and kept.
    It equals the tuple of its rows; iterating it builds every row."""

    __slots__ = ("_rows",)

    def __init__(self, order: int):
        object.__setattr__(self, "_rows", [None] * order)

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, x: int) -> tuple[int, ...]:
        row = self._rows[x]
        if row is None:
            row = self._rows[x] = self._row(x % len(self._rows))
        return row

    def __eq__(self, other):
        if isinstance(other, LazyTable):
            other = tuple(other)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    @property
    def rows_built(self) -> int:
        return len(self._rows) - self._rows.count(None)


class _MetacyclicTable(LazyTable):
    """Table of <a, b | a^m = 1, b^k = a^c, b a b^-1 = a^t> on a^i b^j at
    index i + m*j, for t^k = 1 and c*(t - 1) = 0 (mod m).

    Row a^i1 b^j1 is a^(i1 + s*i2) b^(j1 + j2), s = t^j1, times a^c where
    j1 + j2 wraps.  Its block at j1 + j2 = j is a window of m cells of
    lane s at j: the cells m*j + (s*o mod m) for o in 0..2m-1, entered at
    o = i1/s (or (i1 + c)/s where it wraps).  One lane per s, from one
    tuple of the n cells, so every row shares the same n int objects."""

    __slots__ = ("m", "k", "t", "c", "_cells", "_lanes")

    def __init__(self, m: int, k: int, t: int, c: int):
        super().__init__(m * k)
        for name, value in zip(self.__slots__, (m, k, t, c, tuple(range(m * k)), {})):
            object.__setattr__(self, name, value)

    def _lane(self, s: int) -> tuple[int, list[tuple[int, ...]]]:
        """1/s mod m and the k blocks of lane s, made once per s."""
        m, cells = self.m, self._cells
        pick = itemgetter(*[s * o % m for o in range(m)] * 2)
        lane = (pow(s, -1, m), [pick(cells[j:j + m]) for j in range(0, len(cells), m)])
        self._lanes[s] = lane
        return lane

    def _row(self, x: int) -> tuple[int, ...]:
        m = self.m
        i, j = x % m, x // m
        s = pow(self.t, j, m)
        s_inv, blocks = self._lanes.get(s) or self._lane(s)
        o, wrapped = i * s_inv % m, (i + self.c) * s_inv % m
        windows = [b[o:o + m] for b in blocks[j:]] + [b[wrapped:wrapped + m] for b in blocks[:j]]
        return windows[0] if self.k == 1 else _joined(windows)


class _ProductTable(LazyTable):
    """Table of A x B on pairs indexed i_a * |B| + i_b, where block v holds
    the cells v*|B| .. v*|B| + |B| - 1.  Row (xa, 0) is the blocks in the
    order of row xa of A, and row (0, xb) each block picked by row xb of B.
    Every other row, of (xa, xb) = (0, xb)(xa, 0), is row (0, xb) read at
    the entries of row (xa, 0): one pick, and no factor row is read."""

    __slots__ = ("a", "b", "_blocks")

    def __init__(self, a, b):
        super().__init__(len(a) * len(b))
        cells, nb = tuple(range(len(a) * len(b))), len(b)
        blocks = [cells[v:v + nb] for v in range(0, len(cells), nb)]
        for name, value in zip(self.__slots__, (a, b, blocks)):
            object.__setattr__(self, name, value)

    def _row(self, x: int) -> tuple[int, ...]:
        xa, xb = divmod(x, len(self._blocks[0]))
        if xa and xb:
            return itemgetter(*self[x - xb])(self[xb])
        if xb:
            return _joined(map(itemgetter(*self.b[xb]), self._blocks))
        return _joined(map(self._blocks.__getitem__, self.a[xa]))


def cyclic(n: int) -> FiniteGroup:
    _require_order(n, f"C{n}")
    if n < 1:
        raise GroupConstructionError(f"cyclic group needs order >= 1, got {n}")
    return _build(_MetacyclicTable(n, 1, 1, 0), f"C{n}", (cyclic, (n,)))


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n; element (i, j) is
    rotation^i * flip^j, encoded as i + n*j."""
    _require_order(2 * n, f"D{n} of order {2 * n}")
    if n < 1:
        raise GroupConstructionError(f"dihedral parameter must be >= 1, got {n}")
    return _build(_MetacyclicTable(n, 2, -1, 0), f"D{n}", (dihedral, (n,)))


def quaternion_generalized(order: int) -> FiniteGroup:
    """Generalized quaternion group of the given 2-power order >= 8."""
    _require_order(order, f"Q{order}")
    if order < 8 or order & (order - 1):
        raise GroupConstructionError(
            f"generalized quaternion groups exist for 2-power orders >= 8, got {order}"
        )
    m = order // 2  # index of the cyclic half <a>; b^2 = a^(m/2), b a b^-1 = a^-1
    return _build(_MetacyclicTable(m, 2, -1, m // 2), f"Q{order}",
                  (quaternion_generalized, (order,)))


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
    return _build(_elementary_table(p, k), f"E{p}^{k}", (elementary_abelian, (p, k)))


def _elementary_table(p: int, k: int) -> LazyTable:
    """Digits added independently: E_p^k is E_p^h x E_p^(k-h) on its first
    h digits and the rest, split in half so each factor has about
    sqrt(p^k) elements and the rows it keeps stay few."""
    if k == 1:
        return _MetacyclicTable(p, 1, 1, 0)
    return _ProductTable(_elementary_table(p, k // 2), _elementary_table(p, k - k // 2))


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs, indexed as i_a * |b| + i_b."""
    label = f"{a.label}x{b.label}"
    _require_order(a.order * b.order, f"{label} of order {a.order * b.order}")
    return _build(_ProductTable(a.mul, b.mul), label, (direct_product, (a.family, b.family)))


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
    return _build(_MetacyclicTable(m, alpha, -1, 0), f"C{m}:C{alpha}",
                  (inversion_semidirect, (m, beta, u)))
