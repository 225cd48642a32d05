"""Independent answers for every output the benchmark checks.

Nothing here imports orderinv or reads its output.  Order profiles come
from closed forms per family (cyclic, dihedral, generalized quaternion,
elementary abelian, inversion semidirect products, direct products) and
from ``sympy.combinatorics`` for groups given by permutations (S_k, A5,
permutation-generator files).  The ``compute`` fields are exact
``Fraction`` formulas over the profile; the ``match`` question is a max
flow in ``networkx``.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

Profile = dict[int, int]  # element order -> number of elements of that order


# ------------------------------------------------------------ arithmetic

@lru_cache(maxsize=None)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == ((n, 1),)


# ------------------------------------------------------- family profiles

def cyclic_profile(n: int) -> Profile:
    return {d: phi(d) for d in divisors(n)}


def dihedral_profile(n: int) -> Profile:
    """Order 2n: the rotations form C_n, the n reflections have order 2."""
    out = cyclic_profile(n)
    out[2] = out.get(2, 0) + n
    return out


def quaternion_profile(order: int) -> Profile:
    """Order 2^k >= 8: the cyclic half C_{order/2}, every other element has order 4."""
    out = cyclic_profile(order // 2)
    out[4] = out.get(4, 0) + order // 2
    return out


def elementary_profile(p: int, k: int) -> Profile:
    return {1: 1, p: p**k - 1} if k else {1: 1}


def semidirect_profile(m: int, alpha: int) -> Profile:
    """C_m extended by C_alpha, odd j acting by inversion.

    (i, j) with j even commutes with C_m, so its order is
    lcm(m/gcd(m, i), alpha/gcd(alpha, j)).  With j odd, (i, j)^2 = (0, 2j)
    and no odd power is trivial, so the order is 2*alpha/gcd(alpha, 2j).
    """
    out: Counter = Counter()
    for i in range(m):
        for j in range(alpha):
            if j % 2:
                out[2 * alpha // gcd(alpha, 2 * j)] += 1
            else:
                out[lcm(m // gcd(m, i), alpha // gcd(alpha, j))] += 1
    return dict(out)


def product_profile(a: Profile, b: Profile) -> Profile:
    out: Counter = Counter()
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            out[lcm(d1, d2)] += c1 * c2
    return dict(out)


def permutation_profile(degree: int, generators) -> Profile:
    from sympy.combinatorics import Permutation, PermutationGroup

    gens = [Permutation(list(g)) for g in generators] or [Permutation(list(range(degree)))]
    return dict(Counter(g.order() for g in PermutationGroup(gens).generate()))


# ---------------------------------------------------------------- labels

_PART = (
    (re.compile(r"C(\d+):C(\d+)"), "semidirect"),
    (re.compile(r"C(\d+)"), "cyclic"),
    (re.compile(r"D(\d+)"), "dihedral"),
    (re.compile(r"Q(\d+)"), "quaternion"),
    (re.compile(r"S(\d+)"), "symmetric"),
    (re.compile(r"E(\d+)\^(\d+)"), "elementary"),
    (re.compile(r"A(5)"), "alternating"),
)


@lru_cache(maxsize=None)
def _sympy_facts(kind: str, k: int) -> tuple[tuple[tuple[int, int], ...], bool, bool]:
    from sympy.combinatorics.named_groups import AlternatingGroup, SymmetricGroup

    group = SymmetricGroup(k) if kind == "symmetric" else AlternatingGroup(k)
    profile = Counter(g.order() for g in group.generate())
    return tuple(sorted(profile.items())), bool(group.is_nilpotent), bool(group.is_solvable)


@lru_cache(maxsize=None)
def _part_facts(text: str) -> tuple[tuple[tuple[int, int], ...], bool, bool]:
    """(profile items, nilpotent, solvable) of one x-free label part."""
    for pattern, kind in _PART:
        hit = pattern.fullmatch(text)
        if hit:
            args = [int(x) for x in hit.groups()]
            break
    else:
        raise ValueError(f"not a label the oracle knows: {text!r}")
    if kind in ("symmetric", "alternating"):
        return _sympy_facts(kind, args[0])
    if kind == "cyclic":
        profile, nilpotent = cyclic_profile(args[0]), True
    elif kind == "dihedral":
        n = args[0]
        profile, nilpotent = dihedral_profile(n), n & (n - 1) == 0
    elif kind == "quaternion":
        profile, nilpotent = quaternion_profile(args[0]), True
    elif kind == "elementary":
        profile, nilpotent = elementary_profile(*args), True
    else:  # a nontrivial inversion action makes C_m:C_alpha non-nilpotent
        m, alpha = args
        profile, nilpotent = semidirect_profile(m, alpha), m == 1
    return tuple(sorted(profile.items())), nilpotent, True


@lru_cache(maxsize=None)
def label_facts(label: str) -> tuple[tuple[tuple[int, int], ...], bool, bool]:
    """Profile, nilpotency and solvability of a catalog label; products
    combine their factors (nilpotent / solvable iff every factor is)."""
    profile: Profile = {1: 1}
    nilpotent = solvable = True
    for part in label.split("x"):
        items, nil, sol = _part_facts(part)
        profile = product_profile(profile, dict(items))
        nilpotent, solvable = nilpotent and nil, solvable and sol
    return tuple(sorted(profile.items())), nilpotent, solvable


def label_profile(label: str) -> Profile:
    return dict(label_facts(label)[0])


# ------------------------------------------------------ derived answers

def weight(m: int, r: int, s: int) -> Fraction:
    return Fraction(m) ** s / Fraction(phi(m)) ** r


def factored_product(profile: Profile) -> dict[int, int]:
    """prod over elements of their order, as {prime: exponent}."""
    out: Counter = Counter()
    for d, count in profile.items():
        for p, e in factor(d):
            out[p] += e * count
    return dict(out)


def compute_answer(label: str, r: int, s: int) -> dict:
    """Every field ``orderinv compute --format json`` prints, at n = |G|."""
    items, nilpotent, solvable = label_facts(label)
    profile = dict(items)
    n = sum(profile.values())
    wos = sum((c * weight(m, r, s) for m, c in profile.items()), Fraction(0))
    baseline = sum((weight(i, r - 1, s) for i in divisors(n)), Fraction(0))
    excess = wos - baseline
    return {
        "group": label,
        "order": n,
        "n": n,
        "r": r,
        "s": s,
        "mode": "exact",
        "weighted_order_sum": wos,
        "cyclic_baseline": baseline,
        "cyclic_excess": excess,
        "sign": "pos" if excess > 0 else "neg" if excess < 0 else "zero",
        "cyclic_subgroup_count": sum(c // phi(m) for m, c in profile.items()),
        "divisor_count": len(divisors(n)),
        "solution_counts": {
            m: sum(c for k, c in profile.items() if m % k == 0) for m in divisors(n)
        },
        "order_product": factored_product(profile),
        "cyclic_order_product": factored_product(cyclic_profile(n)),
        "is_cyclic": n in profile,
        "is_nilpotent": nilpotent,
        "is_solvable": solvable,
    }


_EXACT_FIELDS = ("weighted_order_sum", "cyclic_baseline", "cyclic_excess")


def compute_mismatches(payload: dict, label: str, r: int, s: int) -> list[str]:
    """Fields of a ``compute`` JSON payload that disagree with the oracle."""
    want = compute_answer(label, r, s)
    bad = []
    for key, value in want.items():
        got = payload.get(key)
        if key in _EXACT_FIELDS:
            try:
                ok = Fraction(str(got)) == value
            except (ValueError, ZeroDivisionError):
                ok = False
        elif key in ("solution_counts", "order_product", "cyclic_order_product"):
            ok = isinstance(got, dict) and {int(k): v for k, v in got.items()} == value
        else:
            ok = got == value and type(got) is type(value)
        if not ok:
            bad.append(key)
    return bad


def matching_exists(profile: Profile) -> bool:
    """Max flow from order classes (supply A(d)) to cyclic slots (capacity
    phi(e)) along d | e; a matching exists iff every element moves."""
    import networkx as nx

    n = sum(profile.values())
    graph = nx.DiGraph()
    for d, count in profile.items():
        graph.add_edge("src", ("d", d), capacity=count)
        for e in divisors(n):
            if e % d == 0:
                graph.add_edge(("d", d), ("e", e), capacity=n)
    for e in divisors(n):
        graph.add_edge(("e", e), "sink", capacity=phi(e))
    return nx.maximum_flow_value(graph, "src", "sink") == n


def match_mismatches(payload: dict, exit_code: int, label: str) -> list[str]:
    """What a ``match --format json`` answer gets wrong: status, the
    assignment or blocking set it certifies, solvability, exit code."""
    items, _, solvable = label_facts(label)
    profile = dict(items)
    n = sum(profile.values())
    found = matching_exists(profile)
    bad = []
    if payload.get("group") != label or payload.get("order") != n:
        bad.append("group")
    if payload.get("status") != ("found" if found else "violated"):
        bad.append("status")
    if payload.get("is_solvable") is not solvable:
        bad.append("is_solvable")
    if found:
        if payload.get("verified") is not True or not _valid_assignment(
            profile, payload.get("assignment")
        ):
            bad.append("assignment")
    elif not _is_hall_violator(profile, payload.get("violator")):
        bad.append("violator")
    if exit_code != (0 if found or not solvable else 1):
        bad.append("exit_code")
    return bad


def _valid_assignment(profile: Profile, assignment) -> bool:
    if not isinstance(assignment, dict):
        return False
    n = sum(profile.values())
    filled: Counter = Counter()
    try:
        rows = {int(d): {int(e): c for e, c in row.items()} for d, row in assignment.items()}
    except (AttributeError, ValueError):
        return False
    if set(rows) != set(profile):
        return False
    for d, row in rows.items():
        if sum(row.values()) != profile[d]:
            return False
        for e, count in row.items():
            if count <= 0 or n % e or e % d:
                return False
            filled[e] += count
    return all(filled[e] == phi(e) for e in divisors(n))


def _is_hall_violator(profile: Profile, violator) -> bool:
    if not isinstance(violator, list) or not violator:
        return False
    n = sum(profile.values())
    demand = sum(profile.get(d, 0) for d in violator)
    slots = [e for e in divisors(n) if any(e % d == 0 for d in violator)]
    return demand > sum(phi(e) for e in slots)


# ------------------------------------------------------- verify report

# summary of `orderinv verify --order-cap 256` recorded in ROADMAP item 1
VERIFY_CAP256_SUMMARY = {
    "groups": 580,
    "verdicts": 34362,
    "inconsistent": 0,
    "anomalies": 0,
    "matchings_found": 580,
}


def verify_mismatches(report: dict, expected_summary: dict) -> list[str]:
    """Summary counts that differ, then every group whose profile differs."""
    summary = report.get("summary", {})
    bad = [
        f"summary.{key}={summary.get(key)!r}, expected {value}"
        for key, value in expected_summary.items()
        if summary.get(key) != value
    ]
    labels = [g.get("label") for g in report.get("groups", [])]
    if len(set(labels)) != len(labels):
        bad.append("duplicate group labels")
    for record in report.get("groups", []):
        label = record.get("label")
        try:
            want = label_profile(label)
        except ValueError:
            bad.append(f"{label}: unknown label")
            continue
        got = {int(d): c for d, c in record.get("profile", {}).items()}
        if got != want or record.get("order") != sum(want.values()):
            bad.append(f"{label}: profile")
    return bad
