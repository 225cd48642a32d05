"""Order-divisibility matchings between a group and its cyclic benchmark.

Asks, per order profile, whether the elements can be mapped onto the
cyclic group of the same order so that each element's order divides its
target's order.  Worked at the level of order classes: elements of order
d are interchangeable, so the question is a transportation problem with
supplies A(d), slot capacities phi(e) and edges d -> e exactly when
d | e.  Solved by maximum flow; on failure the residual cut yields a set
of orders whose combined supply provably exceeds its available slots.

The module owns the matching: the flow, its check, a memo keyed by profile,
and ``matching_as_json``, the form that records, ``match`` and the claim read.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .numtheory import divisors, totient
from .order_stats import OrderProfile


class DivisibilityMatching(NamedTuple):
    """Either a complete assignment or a deficiency certificate.

    ``assignment`` maps element order d -> {target order e -> count};
    ``violator`` is the set of orders whose elements outnumber the slots
    they can legally occupy (present exactly when status is "violated").
    """

    status: str  # "found" | "violated"
    assignment: dict[int, dict[int, int]]
    violator: frozenset[int] | None = None


def _reachable(res, src: int) -> dict[int, int]:
    """Breadth-first parents of every node reachable from src through spare
    capacity: the parents trace a shortest augmenting path to any of them."""
    parent, queue = {src: src}, [src]
    for u in queue:  # grows while it is walked: BFS order
        for v, spare in res[u].items():
            if spare > 0 and v not in parent:
                parent[v] = u
                queue.append(v)
    return parent


def find_divisibility_matching(profile: OrderProfile) -> DivisibilityMatching:
    """Transportation problem on the order-divisibility graph.

    Found iff the maximum flow moves every element; otherwise the orders
    reachable from the source in the final residual graph form a Hall
    violator: their total count exceeds the capacity of every slot any
    of them divides.
    """
    n = profile.group_order
    supplies = sorted(profile.counts)
    slots = divisors(n)
    src = 0
    left = {d: 1 + i for i, d in enumerate(supplies)}
    right = {e: 1 + len(supplies) + j for j, e in enumerate(slots)}
    sink = 1 + len(supplies) + len(slots)
    unlimited = n + 1

    res: list[dict[int, int]] = [dict() for _ in range(sink + 1)]

    def add_edge(u: int, v: int, capacity: int) -> None:
        res[u][v] = capacity
        res[v].setdefault(u, 0)

    for d in supplies:
        add_edge(src, left[d], profile.counts[d])
    for d in supplies:
        for e in slots:
            if e % d == 0:
                add_edge(left[d], right[e], unlimited)
    for e in slots:
        add_edge(right[e], sink, totient(e))

    pushed = 0
    while sink in (parent := _reachable(res, src)):
        path = [sink]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        bottleneck = min(res[u][v] for u, v in zip(path, path[1:]))
        for u, v in zip(path, path[1:]):
            res[u][v] -= bottleneck
            res[v][u] += bottleneck
        pushed += bottleneck

    # flow on d -> e is whatever accumulated on the reverse edge
    assignment: dict[int, dict[int, int]] = {}
    for d in supplies:
        row = {
            e: res[right[e]][left[d]]
            for e in slots
            if e % d == 0 and res[right[e]].get(left[d], 0) > 0
        }
        assignment[d] = row

    if pushed == n:
        return DivisibilityMatching("found", assignment)

    # the last search's reach, which the sink is not in
    violator = frozenset(d for d in supplies if left[d] in parent)
    return DivisibilityMatching("violated", assignment, violator)


def verify_matching(profile: OrderProfile, matching: DivisibilityMatching) -> bool:
    """Re-derive every invariant of a found matching from scratch.

    Checks that supplies are spent exactly, that every used edge is a
    divisibility edge into a real slot, and that no slot is overfilled.
    Independent of how the matching was produced.
    """
    if matching.status != "found":
        return False
    n = profile.group_order
    slots = set(divisors(n))
    filled = {e: 0 for e in slots}
    for d in profile.counts:
        row = matching.assignment.get(d)
        if row is None:
            return False
        total = 0
        for e, count in row.items():
            if count <= 0 or e not in slots or e % d:
                return False
            filled[e] += count
            total += count
        if total != profile.counts[d]:
            return False
    for extra in matching.assignment:
        if extra not in profile.counts:
            return False
    return all(filled[e] == totient(e) for e in slots)


@lru_cache(maxsize=512)
def _matching_for(profile: OrderProfile) -> DivisibilityMatching:
    # keyed by profile value: twins such as S3, D3 and C3:C2 share one entry
    return find_divisibility_matching(profile)


def matching_as_json(profile: OrderProfile) -> dict:
    """The divisibility matching of a profile, and whether it checks out."""
    matching = _matching_for(profile)
    found = matching.status == "found"
    return {
        "status": matching.status,
        "assignment": {
            str(d): {str(e): count for e, count in sorted(row.items())}
            for d, row in sorted(matching.assignment.items())
        },
        "violator": sorted(matching.violator) if matching.violator is not None else None,
        "verified": verify_matching(profile, matching) if found else False,
    }
