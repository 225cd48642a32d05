"""Independent routes the tests check the package against.

Nothing in ``orderinv`` calls these.  Each one evaluates an invariant by
its defining formula, or through a structurally different identity, so a
test can compare it with the package's own route.  Exact arithmetic only.
"""

import io
import json
from collections import Counter, deque
from fractions import Fraction
from math import factorial, gcd, lcm, prod

from orderinv.groups import FiniteGroup, OrderCapExceeded, from_cayley_table, generated
from orderinv.numtheory import FactoredInteger, divisors, factorize, weight
from orderinv.order_stats import OrderProfile, frobenius_table, require_divisor
from orderinv.report import write_json, write_report

ENUMERATION_CAP = 200  # enumerate_subgroups refuses larger groups


def moebius(n: int) -> int:
    """Moebius mu: (-1)^(#prime factors) on squarefree n, else 0."""
    factors = factorize(n).factors
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def moebius_invert(g_values, n: int) -> dict:
    """Recover f from g(m) = sum_{d|m} f(d), for every divisor m of n.

    ``g_values`` must supply every divisor of n; a missing key is an error
    rather than an implicit zero, since that silently corrupts the inversion.
    """
    divs = divisors(n)
    for d in divs:
        if d not in g_values:
            raise KeyError(f"g_values is missing divisor {d} of {n}")
    return {
        m: sum(moebius(m // d) * g_values[d] for d in divisors(m))
        for m in divs
    }


def mobius_kernel(m: int, j: int, r: int, s: int) -> Fraction:
    """sum_{i|j} mu(i) (mi)^s / phi(mi)^r, in closed multiplicative form.

    Writing j = p_1^t_1 ... p_k^t_k with p_1..p_l the primes shared with m,
    the sum collapses to

        m^s/phi(m)^r * prod_{t<=l} (1 - p_t^(s-r))
                     * prod_{t>l} (1 - p_t^s / (p_t - 1)^r).

    On the domain s <= min{0, r} the value is nonnegative, and it vanishes
    exactly when (a) s = r = 0 and j > 1, (b) s = r != 0 and gcd(j, m) > 1,
    or (c) s = 0 != r with j even and m odd.
    """
    if m < 1 or j < 1:
        raise ValueError("mobius_kernel needs positive integers m, j")
    value = weight(m, r, s)
    for p, _ in factorize(j).factors:
        if m % p == 0:
            value *= 1 - Fraction(p) ** (s - r)
        else:
            value *= 1 - Fraction(p) ** s / Fraction(p - 1) ** r
    return value


def mobius_kernel_by_definition(m: int, j: int, r: int, s: int) -> Fraction:
    """The defining alternating sum of mobius_kernel."""
    if m < 1 or j < 1:
        raise ValueError("mobius_kernel needs positive integers m, j")
    return sum(
        (moebius(i) * weight(m * i, r, s) for i in divisors(j) if moebius(i)),
        Fraction(0),
    )


def log_mobius_kernel(m: int, j: int) -> tuple[int, int]:
    """sum_{i|j} mu(i) log(mi), returned exactly as (coefficient, base).

    The value is coefficient * log(base): (1, m) when j = 1, (-1, p) when j
    is a prime power p^e > 1, and (0, 1) when j has two or more distinct
    prime factors.  Never a float; callers fold the pair into exact prime
    exponent arithmetic.
    """
    if m < 1 or j < 1:
        raise ValueError("log_mobius_kernel needs positive integers m, j")
    factors = factorize(j).factors
    if j == 1:
        return (1, m)
    if len(factors) == 1:
        return (-1, factors[0][0])
    return (0, 1)


def frobenius_expansion(profile: OrderProfile, n: int, r: int, s: int) -> Fraction:
    """The weighted order sum evaluated through solution counts:

        sum_{k|n} kernel(k, n/k) * B(k)

    Algebraically identical to weighted_order_sum; a structurally
    different route.
    """
    require_divisor(profile, n)
    counts = frobenius_table(profile).counts
    return sum(
        (mobius_kernel(k, n // k, r, s) * counts[k] for k in divisors(n)),
        Fraction(0),
    )


def factored_product(powers) -> FactoredInteger:
    """prod b^k over (b, k) pairs of a FactoredInteger b and an int k >= 0,
    by adding exponents."""
    exps: Counter = Counter()
    for base, k in powers:
        if k < 0:
            raise ValueError("negative power of a FactoredInteger")
        for p, e in base.factors:
            exps[p] += e * k
    return FactoredInteger.from_exponents(exps)


def product_of_orders_direct(profile: OrderProfile) -> FactoredInteger:
    """The defining product prod_d d^(A(d)); route for the closed form."""
    return factored_product((factorize(d), a) for d, a in profile.counts.items())


def is_closed_by_every_product(group: FiniteGroup, elements) -> bool:
    """Whether every product x * y of two of ``elements`` is one of them,
    read cell by cell: |S|^2 table reads."""
    members = set(elements)
    return all(group.mul[x][y] in members for x in members for y in members)


def is_nilpotent_by_sylow_closure(group: FiniteGroup) -> bool:
    """Nilpotency as a count and a closure: for each p^a exactly dividing
    |G|, the elements of order dividing p^a are p^a in number and closed
    under the product, read cell by cell, so they are the one Sylow
    p-subgroup."""
    for p, a in factorize(group.order).factors:
        part = [x for x in range(group.order) if p**a % group.element_orders[x] == 0]
        if len(part) != p**a or not is_closed_by_every_product(group, part):
            return False
    return True


def enumerate_subgroups(group: FiniteGroup) -> tuple[frozenset[int], ...]:
    """All subgroups as sets of element indices, sorted by (order, indices).

    Seeds with the cyclic subgroups and repeatedly joins every known
    subgroup with every cyclic one until no new subgroup appears; every
    subgroup is a join of cyclic ones, so the fixpoint is exhaustive.
    """
    if group.order > ENUMERATION_CAP:
        raise OrderCapExceeded(
            f"group order {group.order} exceeds the subgroup enumeration cap"
            f" {ENUMERATION_CAP}"
        )
    cyclics = {generated(group.mul, (x,)): x for x in range(1, group.order)}
    # remember a small generating set per subgroup to keep joins cheap
    found: dict[frozenset[int], tuple[int, ...]] = {frozenset({0}): ()}
    for elems, x in cyclics.items():
        found.setdefault(elems, (x,))
    queue = deque(found.items())
    while queue:
        sub, sub_gens = queue.popleft()
        for cyc, x in cyclics.items():
            if cyc <= sub:
                continue
            gens = sub_gens + (x,)
            join = generated(group.mul, gens)
            if join not in found:
                found[join] = gens
                queue.append((join, gens))
    for sub in found:
        assert is_closed_by_every_product(group, sub) and group.order % len(sub) == 0
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def subgroup_as_group(group: FiniteGroup, elements) -> FiniteGroup:
    """A subgroup rebuilt as a group of its own: its sorted elements
    reindexed (the identity stays at 0) and the table sent through
    ``from_cayley_table``'s Latin scan and Light's test."""
    members = sorted(elements)
    index = {e: i for i, e in enumerate(members)}
    table = [[index[group.mul[a][b]] for b in members] for a in members]
    return from_cayley_table(table, f"{group.label} sub({len(members)})")


def metacyclic_orders(m: int, k: int, t: int, c: int) -> tuple[int, ...]:
    """Element orders of <a, b | a^m = 1, b^k = a^c, b a b^-1 = a^t>, with
    a^i b^j at index i + m*j, by arithmetic and no table.

    The image of a^i b^j in <b>/<b^k> has order o = k/gcd(j, k), and
    (a^i b^j)^o = a^e with e = i*(1 + t^j + ... + t^(j(o-1))) + c*j*o/k, so
    the order is o * m/gcd(m, e).
    """
    orders = []
    for j in range(k):
        o = k // gcd(j, k)
        spread = sum(pow(t, j * l, m) for l in range(o))
        for i in range(m):
            e = (i * spread + c * j * o // k) % m
            orders.append(o * (m // gcd(m, e)))
    return tuple(orders)


def partitions(k: int, largest: int | None = None):
    """The partitions of k, as non-increasing tuples of parts."""
    if k == 0:
        yield ()
        return
    for part in range(min(k, largest or k), 0, -1):
        for rest in partitions(k - part, part):
            yield (part,) + rest


def symmetric_order_counts(k: int) -> dict[int, int]:
    """Element orders of S_k by cycle type: k!/z elements of order lcm(parts)
    for each partition of k, with z = prod over part sizes i of i^m_i * m_i!."""
    counts: Counter = Counter()
    for shape in partitions(k):
        z = prod(i**mult * factorial(mult) for i, mult in Counter(shape).items())
        counts[lcm(*shape)] += factorial(k) // z
    return dict(counts)


def json_text(payload) -> str:
    """``write_json``'s text, in memory."""
    buffer = io.StringIO()
    write_json(payload, buffer)
    return buffer.getvalue()


def report_text(report: dict) -> str:
    """``write_report``'s text, in memory."""
    buffer = io.StringIO()
    write_report(report, buffer)
    return buffer.getvalue()


def records(report: dict) -> list[dict]:
    """The group records of a ``run_sweep`` report, decoded."""
    return [json.loads(text) for text in report["groups"]]


def v1_verdicts(record: dict) -> list[dict]:
    """A record's verdict rows expanded into the verdict dicts of report
    schema 1, sorted as that schema sorted them: by claim, then by the
    JSON text of the parameters."""
    out = []
    for claim, block in record["verdicts"].items():
        names = block["parameters"]
        for row in block["rows"]:
            sign, inequality, condition, consistent, witness = row[len(names):]
            out.append({
                "claim": claim, "group": record["label"],
                "parameters": dict(zip(names, row)), "sign": sign,
                "inequality_holds": inequality, "equality_condition_holds": condition,
                "consistent": consistent, "mode": "exact", "witness": witness,
            })
    out.sort(key=lambda v: (v["claim"], json.dumps(v["parameters"], sort_keys=True)))
    return out
