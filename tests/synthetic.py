"""Shared helpers for building synthetic-but-valid order profiles and tables."""

import math
import random
from math import gcd

from orderinv.groups import FiniteGroup
from orderinv.numtheory import divisors
from orderinv.order_stats import OrderProfile
from oracles import moebius_invert


def abelian_profile(cyclic_factors) -> OrderProfile:
    """Order profile of a direct product of cyclic groups, arithmetically.

    x^m = 1 has prod_i gcd(a_i, m) solutions in C_{a_1} x ... x C_{a_k};
    Moebius inversion recovers the exact-order counts.  Valid by
    construction, no Cayley table involved.
    """
    n = math.prod(cyclic_factors)
    b = {m: math.prod(gcd(a, m) for a in cyclic_factors) for m in divisors(n)}
    counts = moebius_invert(b, n)
    return OrderProfile(n, {d: c for d, c in counts.items() if c})


def random_abelian_profiles(count: int, seed: int, max_factor: int = 16):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(1, 3)
        out.append(abelian_profile([rng.randint(1, max_factor) for _ in range(k)]))
    return out


def relabelled_table(group: FiniteGroup, relabel) -> list[list[int]]:
    """The Cayley table of ``group`` with element i renamed relabel[i];
    relabel must be a permutation of 0..n-1 that fixes the identity 0."""
    n = group.order
    back = [0] * n
    for old, new in enumerate(relabel):
        back[new] = old
    return [[relabel[group.mul[back[x]][back[y]]] for y in range(n)] for x in range(n)]
