"""Structural predicates behind the equality conditions.

Cyclicity and nilpotency are read off the order profile, solvability off
the multiplication table: the derived series by normal closures (Holt, Eick
and O'Brien, Handbook of Computational Group Theory, 2005).  Subgroups are
found by closing joins of cyclic subgroups, so "unique subgroup of order n"
questions are answered by search, not by theory.  A subgroup is what
``generated`` returns, the frozenset of its element indices in its parent's
table, and predicates on it read that table: none is rebuilt on its own.
"""

from __future__ import annotations

from math import gcd

from .groups import FiniteGroup, cyclic_powers, generated
from .numtheory import factorize
from .order_stats import frobenius_table, order_profile


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


def unique_subgroup_of_order(group: FiniteGroup, n: int) -> tuple[str, frozenset[int] | None]:
    """Classify the order-``n`` subgroups as "unique", "multiple" or "none",
    with the subgroup's element indices in the unique case.

    A subgroup of order n is reached from one of its cyclic subgroups by
    joining one more at a time, and each join on the way is a subgroup
    whose order divides n.  So the search joins the cyclic subgroups whose
    order divides n, depth-first and largest first, closes each join with
    ``generated`` capped at n elements, and stops at a second subgroup of
    order n.
    """
    if n < 1 or group.order % n:
        raise ValueError(f"{n} does not divide the group order {group.order}")
    if n == 1:
        return "unique", frozenset({0})
    if n == group.order:
        return "unique", frozenset(range(group.order))
    cyclics = sorted(((c, x) for c, x in _cyclic_generator_map(group).items()
                      if n % len(c) == 0), key=lambda cx: len(cx[0]))
    stack = [(c, (x,)) for c, x in cyclics]  # the largest is popped first
    seen, hits = set(), []
    while stack:
        sub, gens = stack.pop()
        if sub in seen:
            continue
        seen.add(sub)
        if len(sub) == n:
            hits.append(sub)
            if len(hits) == 2:
                return "multiple", None
            continue
        joins = []
        for c, x in cyclics:
            if not c <= sub:
                join = generated(group.mul, gens + (x,), limit=n)
                if n % len(join) == 0 and join not in seen:  # len(join) > n fails too
                    joins.append((join, gens + (x,)))
        stack.extend(sorted(joins, key=lambda jg: len(jg[0])))
    return ("unique", hits[0]) if hits else ("none", None)


def is_cyclic(group: FiniteGroup) -> bool:
    return order_profile(group).count(group.order) > 0


def is_closed(group: FiniteGroup, elements: list[int]) -> bool:
    """Whether every product of two of ``elements`` is one of them.

    A nonempty set S closed under the product is the subgroup <S>.  So S
    is closed iff a greedy closure stays inside it: each element outside
    the closure so far joins the generators, and the closure, capped at
    |S| elements, must remain a subset of S.  At most log2 |S| + 1
    generators, so only their rows are read."""
    members = frozenset(elements)
    if len(members) == group.order:  # the whole group
        return True
    gens, closure = (), frozenset({0})
    for x in members:
        if x not in closure:
            gens += (x,)
            closure = generated(group.mul, gens, limit=len(members))
            if not closure <= members:
                return False
    return True


def is_nilpotent(group: FiniteGroup, elements: frozenset[int] | None = None) -> bool:
    """Whether the subgroup on ``elements``, the whole group by default, is
    nilpotent: true iff it has p^a elements of order dividing p^a for each p^a
    exactly dividing its order, i.e. every Sylow is normal.  The whole group
    reads B(p^a) off its profile; a subgroup, its orders in the parent's table."""
    if elements is None:
        counts = frobenius_table(order_profile(group)).counts
        return all(counts[p**a] == p**a for p, a in factorize(group.order).factors)
    return all(sum(p**a % group.element_orders[x] == 0 for x in elements) == p**a
               for p, a in factorize(len(elements)).factors)


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
            closure = generated(group.mul, gens)
            pending.extend(mul[mul[inv[g]][c]][g] for g in conjugators)
    return gens, closure


def is_solvable(group: FiniteGroup) -> bool:
    """Derived series, solvable iff it reaches 1: H' is the normal closure in
    H = <S> of the commutators of S, and <C> is normal once each g^-1 c g,
    c in C, g in S, lies in it (Holt, Eick and O'Brien, 2005); |S| <= log2 |H|."""
    mul, inv = group.mul, group.inv
    gens, current = _greedy_closure(group, list(range(group.order - 1, 0, -1)))
    while len(current) > 1:
        # x^-1 (y^-1 (x y)): only the rows of the generators and their inverses
        commutators = [mul[inv[x]][mul[inv[y]][mul[x][y]]] for x in gens for y in gens]
        gens, derived = _greedy_closure(group, commutators, gens)
        if derived == current:
            return False
        current = derived
    return True
