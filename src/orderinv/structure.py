"""Structural predicates behind the equality conditions.

Cyclicity, nilpotency and solvability are decided directly from the
multiplication table, the derived series by normal closures (Holt, Eick and
O'Brien, Handbook of Computational Group Theory, 2005); subgroups are
enumerated explicitly by closing joins of cyclic subgroups, so "unique
subgroup of order n" questions are answered by exhaustion, not by theory.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd
from operator import itemgetter

from .groups import FiniteGroup, OrderCapExceeded, cyclic_powers, from_cayley_table, per_group
from .numtheory import factorize

# enumeration is quadratic-ish in the subgroup count; keep desk scale honest
DEFAULT_SUBGROUP_CAP = 200


@dataclass(frozen=True)
class SubgroupSet:
    """A subgroup stored as the sorted tuple of its element indices."""

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.elements or self.elements[0] != 0:
            raise ValueError("a subgroup must contain the identity index 0")
        if any(a >= b for a, b in zip(self.elements, self.elements[1:])):
            raise ValueError("element indices must be strictly increasing")

    @property
    def order(self) -> int:
        return len(self.elements)

    def as_set(self) -> frozenset[int]:
        return frozenset(self.elements)


@dataclass(frozen=True)
class UniqueSubgroupResult:
    """Outcome of asking for the subgroup of a given order.

    ``status`` is "unique", "multiple" or "none"; ``subgroup`` is set
    only in the unique case.
    """

    status: str
    subgroup: SubgroupSet | None


def subgroup_from_indices(group: FiniteGroup, indices) -> SubgroupSet:
    """Validate that ``indices`` really form a subgroup of ``group``."""
    sub = SubgroupSet(tuple(sorted(set(indices))))
    members = sub.as_set()
    for x in members:
        if group.inv[x] not in members:
            raise ValueError(f"set is not closed under inversion at index {x}")
        for y in members:
            if group.mul[x][y] not in members:
                raise ValueError(
                    f"set is not closed under multiplication at indices ({x}, {y})"
                )
    if group.order % sub.order:
        raise ValueError(
            f"subgroup size {sub.order} does not divide the group order {group.order}"
        )
    return sub


def _generated(group: FiniteGroup, gens: tuple[int, ...]) -> frozenset[int]:
    """Subgroup generated by ``gens``: all words in the generators.

    Finiteness supplies inverses, so closing under right multiplication
    by the generators starting from the identity is enough.
    """
    mul = group.mul
    found = {0}
    queue: deque[int] = deque()
    for x in gens:
        if x not in found:
            found.add(x)
            queue.append(x)
    while queue:
        x = queue.popleft()
        for s in gens:
            y = mul[x][s]
            if y not in found:
                found.add(y)
                queue.append(y)
    return frozenset(found)


def _cyclic_generator_map(group: FiniteGroup) -> dict[frozenset[int], int]:
    """Each distinct cyclic subgroup mapped to its first-found generator;
    the other generators x^e, gcd(e, |x|) = 1, of a walked <x> are skipped."""
    out: dict[frozenset[int], int] = {}
    generates_found = bytearray(group.order)
    for x in range(1, group.order):
        if generates_found[x]:
            continue
        powers = cyclic_powers(group.mul, x)
        k = len(powers)
        for e in range(1, k):
            if gcd(e, k) == 1:
                generates_found[powers[e]] = 1
        out[frozenset(powers)] = x
    return out


def count_cyclic_subgroups(group: FiniteGroup) -> int:
    """Distinct cyclic subgroups counted directly from the table.

    Independent of the order-profile shortcut (counts per order divided
    by the totient), so the two can cross-check each other.
    """
    # the generator map only sees nontrivial subgroups; count <e> too
    return 1 + len(_cyclic_generator_map(group))


@per_group
def enumerate_subgroups(group: FiniteGroup) -> tuple[SubgroupSet, ...]:
    """All subgroups, sorted by (order, element indices).

    Seeds with the cyclic subgroups and repeatedly joins every known
    subgroup with every cyclic one until no new subgroup appears; every
    subgroup is a join of cyclic ones, so the fixpoint is exhaustive.
    """
    if group.order > DEFAULT_SUBGROUP_CAP:
        raise OrderCapExceeded(
            f"group order {group.order} exceeds the subgroup enumeration cap"
            f" {DEFAULT_SUBGROUP_CAP}"
        )
    cyc_gen = _cyclic_generator_map(group)
    trivial = frozenset({0})
    # remember a small generating set per subgroup to keep joins cheap
    found: dict[frozenset[int], tuple[int, ...]] = {trivial: ()}
    for elems, x in cyc_gen.items():
        found.setdefault(elems, (x,))
    queue: deque[tuple[frozenset[int], tuple[int, ...]]] = deque(found.items())
    cyclics = list(cyc_gen.items())
    while queue:
        sub, sub_gens = queue.popleft()
        for cyc, x in cyclics:
            if cyc <= sub:
                continue
            gens = sub_gens + (x,)
            join = _generated(group, gens)
            if join not in found:
                found[join] = gens
                queue.append((join, gens))
    ordered = sorted(found, key=lambda s: (len(s), sorted(s)))
    return tuple(subgroup_from_indices(group, s) for s in ordered)


def unique_subgroup_of_order(group: FiniteGroup, n: int) -> UniqueSubgroupResult:
    """Classify the order-``n`` subgroups as unique, multiple or absent."""
    if n < 1 or group.order % n:
        raise ValueError(f"{n} does not divide the group order {group.order}")
    if n == 1:
        return UniqueSubgroupResult("unique", SubgroupSet((0,)))
    if n == group.order:
        return UniqueSubgroupResult("unique", SubgroupSet(tuple(range(group.order))))
    matches = [s for s in enumerate_subgroups(group) if s.order == n]
    if not matches:
        return UniqueSubgroupResult("none", None)
    if len(matches) > 1:
        return UniqueSubgroupResult("multiple", None)
    return UniqueSubgroupResult("unique", matches[0])


def subgroup_as_group(group: FiniteGroup, sub: SubgroupSet) -> FiniteGroup:
    """Reindex a subgroup into a standalone group (identity stays at 0)."""
    index = {e: i for i, e in enumerate(sub.elements)}
    table = [
        [index[group.mul[a][b]] for b in sub.elements] for a in sub.elements
    ]
    return from_cayley_table(table, f"{group.label} sub({sub.order})")


def is_cyclic(group: FiniteGroup) -> bool:
    return max(group.element_orders) == group.order


def is_closed(group: FiniteGroup, elements: list[int]) -> bool:
    """Whether every product of two of ``elements`` is one of them."""
    members = set(elements)
    if len(members) == group.order:  # the whole validated table
        return True
    pick = itemgetter(0, *elements)  # x * 0 = x; a tuple even for one element
    return all(members.issuperset(pick(group.mul[x])) for x in elements)


@per_group
def is_nilpotent(group: FiniteGroup) -> bool:
    """True iff for every prime p the p-power-order elements form a
    full Sylow subgroup, i.e. the group is the product of its Sylows."""
    orders = group.element_orders
    for p, a in factorize(group.order).factors:
        sylow = p**a  # o(x) divides |G|: a power of p iff it divides p^a
        part = [x for x in range(group.order) if sylow % orders[x] == 0]
        if len(part) != sylow or not is_closed(group, part):
            return False
    return True


def _greedy_closure(group: FiniteGroup, pending: list[int], conjugators=()):
    """Close ``pending`` greedily: a popped candidate outside the closure so
    far becomes a generator, and its conjugates g^-1 c g by ``conjugators``
    become candidates.  Returns the generators and their closure."""
    mul, inv = group.mul, group.inv
    gens, closure = (), frozenset({0})
    while pending:
        c = pending.pop()
        if c not in closure:
            gens += (c,)
            closure = _generated(group, gens)
            pending.extend(mul[mul[inv[g]][c]][g] for g in conjugators)
    return gens, closure


@per_group
def is_solvable(group: FiniteGroup) -> bool:
    """Derived series, solvable iff it reaches 1: H' is the normal closure in
    H = <S> of the commutators of S, and <C> is normal once each g^-1 c g,
    c in C, g in S, lies in it (Holt, Eick and O'Brien, 2005); |S| <= log2 |H|."""
    mul, inv = group.mul, group.inv
    gens, current = _greedy_closure(group, list(range(group.order - 1, 0, -1)))
    while len(current) > 1:
        commutators = [mul[mul[inv[x]][inv[y]]][mul[x][y]] for x in gens for y in gens]
        gens, derived = _greedy_closure(group, commutators, gens)
        if derived == current:
            return False
        current = derived
    return True
