"""Structural predicates behind the equality conditions.

Cyclicity and nilpotency are read off the order profile, solvability off
the multiplication table: the derived series by normal closures (Holt, Eick
and O'Brien, Handbook of Computational Group Theory, 2005).  Whether a
group has exactly one subgroup of order n, a nilpotent one, is one closure
test in the table per prime of n: no subgroup is searched for or rebuilt.
The closure test and the derived series both walk ``groups.greedy_closure``.
"""

from __future__ import annotations

from .groups import FiniteGroup, greedy_closure
from .numtheory import factorize
from .order_stats import frobenius_table, order_profile


def count_cyclic_subgroups(group: FiniteGroup) -> int:
    """Distinct cyclic subgroups, as walked in the table when the group was
    built: the nontrivial ones it counted, and <e>.

    Independent of the order-profile shortcut (counts per order divided
    by the totient), so the two can cross-check each other.
    """
    return 1 + group.cyclic_walks


def is_cyclic(group: FiniteGroup) -> bool:
    return order_profile(group).count(group.order) > 0


def is_closed(group: FiniteGroup, elements: list[int]) -> bool:
    """Whether every product of two of ``elements`` is one of them.

    A nonempty set S closed under the product is the subgroup <S>.  So S
    is closed iff its greedy closure stays inside it: each closure, capped
    at |S| elements, must remain a subset of S.  At most log2 |S| + 1
    generators, so only their rows are read."""
    members = frozenset(elements)
    if len(members) == group.order:  # the whole group
        return True
    return all(closure <= members
               for _, closure in greedy_closure(group.mul, members, len(members)))


def is_nilpotent(group: FiniteGroup) -> bool:
    """True iff B(p^a) = p^a for each p^a exactly dividing |G|, i.e. every
    Sylow is normal; B is read off the profile."""
    counts = frobenius_table(order_profile(group)).counts
    return all(counts[p**a] == p**a for p, a in factorize(group.order).factors)


def has_unique_nilpotent_subgroup(group: FiniteGroup, n: int) -> bool:
    """Whether the group has exactly one subgroup of order n, and it is
    nilpotent: true iff, for each p^a exactly dividing n, the p^a-part
    {x : o(x) divides p^a} has p^a elements and is closed in the table.

    Each such part is then the only subgroup of order p^a, so it is normal,
    and their product is a nilpotent subgroup of order n that every
    subgroup of order n contains.  Conversely, the Sylow p-subgroup P of
    the unique H is normal, and Q H_p' is a subgroup of order n for any Q
    of order p^a, so P is the only one; for x in the p^a-part, <x> lies in
    a subgroup of order p^a of the p-group P<x>, which is P."""
    if n < 1 or group.order % n:
        raise ValueError(f"{n} does not divide the group order {group.order}")
    orders = group.element_orders
    for p, a in factorize(n).factors:
        part = [x for x in range(group.order) if p**a % orders[x] == 0]
        if len(part) != p**a or not is_closed(group, part):
            return False
    return True


def is_solvable(group: FiniteGroup) -> bool:
    """Derived series, solvable iff it reaches 1: H' is the normal closure in
    H = <S> of the commutators of S, and <C> is normal once each g^-1 c g,
    c in C, g in S, lies in it (Holt, Eick and O'Brien, 2005); |S| <= log2 |H|.
    Each S is a greedy closure's generators."""
    mul, inv = group.mul, group.inv
    gens = [c for c, _ in greedy_closure(mul, range(1, group.order))]
    current = frozenset(range(group.order))
    while len(current) > 1:
        # x^-1 (y^-1 (x y)): only the rows of the generators and their inverses
        pending = [mul[inv[x]][mul[inv[y]][mul[x][y]]] for x in gens for y in gens]
        derived_gens, derived = [], frozenset({0})
        for c, derived in greedy_closure(mul, pending):
            derived_gens.append(c)
            pending.extend(mul[mul[inv[g]][c]][g] for g in gens)  # its conjugates
        if derived == current:
            return False
        gens, current = derived_gens, derived
    return True
