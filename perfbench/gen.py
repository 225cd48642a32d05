"""Seeded inputs for the cli-oneshot and ingest-untrusted workloads.

The same seed always gives the same inputs.  Both generators fix the
composition of a pass (how many inputs of each family, order band or file
kind) and draw only the members at random, so the cost of a pass, and
with it the spread of the timings, does not depend on the seed.  The
program under test sees only the generated labels and files; every
expected answer comes from ``oracle``.
"""

from __future__ import annotations

import json
import random
from math import factorial, gcd, prod
from pathlib import Path

import oracle

LABEL_ORDER_CAP = 256
# labels per (family, band) the family reaches; the top band decides p90
ORDER_BANDS = ((1, 32), (33, 128), (129, 256))
LABELS_PER_CELL = 2
EXPONENT_BOUND = 3


# ------------------------------------------------------------ cli-oneshot

def _family_labels(cap: int) -> dict[str, list[tuple[str, int]]]:
    """Every label of each single family with order <= cap.

    Labels of order > cap, such as C100000 or S12, are never drawn:
    orderinv builds their n^2 tables without a size check.
    """
    prime_powers = [
        (p, k) for p in range(2, cap + 1) if oracle.is_prime(p)
        for k in range(1, 9) if p**k <= cap
    ]
    return {
        "cyclic": [(f"C{n}", n) for n in range(1, cap + 1)],
        "dihedral": [(f"D{n}", 2 * n) for n in range(1, cap // 2 + 1)],
        "quaternion": [(f"Q{2**k}", 2**k) for k in range(3, 9) if 2**k <= cap],
        "symmetric": [(f"S{k}", factorial(k)) for k in range(1, 6) if factorial(k) <= cap],
        "elementary": [(f"E{p}^{k}", p**k) for p, k in prime_powers],
        "alternating": [("A5", 60)] if cap >= 60 else [],
        "semidirect": [
            (f"C{m}:C{a}", m * a)
            for m in range(3, cap + 1, 2)
            for a in range(2, cap // m + 1, 2)
            if gcd(m, a) == 1
        ],
    }


def _product_label(rng: random.Random, singles: list[tuple[str, int]], lo: int, hi: int):
    """A direct product of 2 or 3 single-family labels with order in [lo, hi]."""
    for _ in range(10_000):
        k = rng.choice((2, 3))
        parts = [rng.choice(singles) for _ in range(k)]
        order = prod(o for _, o in parts)
        if lo <= order <= hi and all(o > 1 for _, o in parts):
            return "x".join(label for label, _ in parts), order
    raise RuntimeError(f"no product label with order in [{lo}, {hi}]")


def oneshot_pool(seed: int, cap: int = LABEL_ORDER_CAP) -> list[tuple[str, tuple]]:
    """The queries of one pass: for every label family and order band the
    family reaches, two drawn labels, each queried once by ``compute`` at a drawn
    (r, s) in [-3, 3]^2 and once by ``match``.  Returned in a drawn order
    as (label, ("compute", r, s)) and (label, ("match",)) pairs."""
    rng = random.Random(f"cli-oneshot/{seed}")
    families = _family_labels(cap)
    singles = [item for items in families.values() for item in items]
    labels = []
    for lo, hi in ORDER_BANDS:
        for name in sorted(families):
            band = [item for item in families[name] if lo <= item[1] <= hi]
            labels += [rng.choice(band)[0] for _ in range(LABELS_PER_CELL if band else 0)]
        labels += [_product_label(rng, singles, lo, hi)[0] for _ in range(LABELS_PER_CELL)]
    queries = []
    for label in labels:
        r = rng.randint(-EXPONENT_BOUND, EXPONENT_BOUND)
        s = rng.randint(-EXPONENT_BOUND, EXPONENT_BOUND)
        queries += [(label, ("compute", r, s)), (label, ("match",))]
    rng.shuffle(queries)
    return queries


# ------------------------------------------------------ ingest-untrusted

def cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral_table(n: int) -> list[list[int]]:
    """r^i s^j at index i + n*j; s r = r^-1 s."""
    def mul(x, y):
        i1, j1, i2, j2 = x % n, x // n, y % n, y // n
        return ((i1 - i2) if j1 else (i1 + i2)) % n + n * (j1 ^ j2)
    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]


def quaternion_table(order: int) -> list[list[int]]:
    """a^i b^j at index i + m*j with m = order/2, b^2 = a^(m/2), b a = a^-1 b."""
    m = order // 2

    def mul(x, y):
        i1, j1, i2, j2 = x % m, x // m, y % m, y // m
        if not j1:
            return (i1 + i2) % m + m * j2
        if not j2:
            return (i1 - i2) % m + m
        return (i1 - i2 + m // 2) % m
    return [[mul(x, y) for y in range(order)] for x in range(order)]


def product_table(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    nb = len(b)
    return [
        [a[x // nb][y // nb] * nb + b[x % nb][y % nb] for y in range(len(a) * nb)]
        for x in range(len(a) * nb)
    ]


def elementary2_table(k: int) -> list[list[int]]:
    n = 2**k
    return [[x ^ y for y in range(n)] for x in range(n)]


def _valid_group(rng: random.Random, order: int):
    """A drawn family realizing ``order``: (description, table, profile)."""
    options = ["cyclic", "dihedral", "abelian2"]
    if order & (order - 1) == 0:
        options += ["quaternion", "elementary"]
    kind = rng.choice(options)
    if kind == "cyclic":
        return f"C{order}", cyclic_table(order), oracle.cyclic_profile(order)
    if kind == "dihedral":
        n = order // 2
        return f"D{n}", dihedral_table(n), oracle.dihedral_profile(n)
    if kind == "quaternion":
        return f"Q{order}", quaternion_table(order), oracle.quaternion_profile(order)
    if kind == "elementary":
        k = order.bit_length() - 1
        return f"E2^{k}", elementary2_table(k), oracle.elementary_profile(2, k)
    a = rng.choice([d for d in oracle.divisors(order) if 1 < d < order and order % (d * d) == 0] or [1])
    b = order // a
    return (
        f"C{a}xC{b}",
        product_table(cyclic_table(a), cyclic_table(b)),
        oracle.product_profile(oracle.cyclic_profile(a), oracle.cyclic_profile(b)),
    )


def relabel(table: list[list[int]], rng: random.Random) -> list[list[int]]:
    """Apply a random permutation to every element but the identity 0."""
    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    pi = [0] + rest
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[pi[i]][pi[j]] = pi[table[i][j]]
    return out


def non_associative_square(rng: random.Random, k: int) -> list[list[int]]:
    """(Z/2)^k with one intercalate swapped away from row and column 0:
    still a Latin square with identity 0, no longer associative."""
    n = 2**k
    table = elementary2_table(k)
    while True:
        i, j, c = rng.sample(range(1, n), 3)
        d = i ^ j ^ c
        if d not in (0, i, j, c):
            break
    table[i][c], table[i][d] = table[i][d], table[i][c]
    table[j][c], table[j][d] = table[j][d], table[j][c]
    return relabel(table, rng)


def first_associativity_failure(table: list[list[int]]):
    """The first (x, y, z) in lexicographic order with (xy)z != x(yz), or None."""
    import numpy as np

    t = np.asarray(table, dtype=np.int64)
    for x in range(len(t)):
        lhs = t[t[x]]           # lhs[y, z] = (x y) z
        rhs = t[x][t]           # rhs[y, z] = x (y z)
        bad = np.argwhere(lhs != rhs)
        if len(bad):
            return (x, int(bad[0][0]), int(bad[0][1]))
    return None


def _perm_gens(name: str) -> tuple[int, list[list[int]]]:
    def cycle(d, pts):
        return [pts[(pts.index(t) + 1) % len(pts)] if t in pts else t for t in range(d)]

    if name == "S4":
        return 4, [cycle(4, [0, 1]), cycle(4, [0, 1, 2, 3])]
    if name == "A5":
        return 5, [cycle(5, [0, 1, 2]), cycle(5, [0, 1, 2, 3, 4])]
    if name == "S5":
        return 5, [cycle(5, [0, 1]), cycle(5, [0, 1, 2, 3, 4])]
    if name == "S3xS3":
        return 6, [cycle(6, [0, 1]), cycle(6, [0, 1, 2]), cycle(6, [3, 4]), cycle(6, [3, 4, 5])]
    if name == "A6":
        return 6, [cycle(6, [0, 1, 2]), cycle(6, [1, 2, 3, 4, 5])]
    raise ValueError(name)


def _conjugated(rng: random.Random, degree: int, gens: list[list[int]]) -> list[list[int]]:
    """Conjugate by a random point relabelling, shuffle, add one redundant
    product of two generators: the same group, a fresh presentation."""
    sigma = list(range(degree))
    rng.shuffle(sigma)
    inv = [0] * degree
    for t, st in enumerate(sigma):
        inv[st] = t
    out = [[sigma[g[inv[t]]] for t in range(degree)] for g in gens]
    a, b = rng.sample(out, 2)
    out.append([a[b[t]] for t in range(degree)])
    rng.shuffle(out)
    return out


# composition of one ingest pass; orders fixed, members drawn
VALID_TABLE_ORDERS = (96, 128, 160, 192, 224, 256)
PERMUTATION_GROUPS = ("S4", "A5", "S5", "S3xS3", "A6")
NON_ASSOCIATIVE_RANKS = (6, 7, 8)  # orders 64, 128, 256
MALFORMED_KINDS = (
    "float-entry", "null-entry", "bool-entry", "degree-nonpositive", "float-generator",
)


def _malformed(rng: random.Random, kind: str) -> dict:
    label = f"bad-{kind}-{rng.randrange(10**6)}"
    if kind == "degree-nonpositive":
        return {"label": label, "degree": rng.choice((0, -1, -3)), "generators": []}
    if kind == "float-generator":
        degree, gens = _perm_gens(rng.choice(("S4", "A5")))
        return {"label": label, "degree": degree,
                "generators": [[float(x) for x in g] for g in _conjugated(rng, degree, gens)]}
    order = rng.choice((12, 16, 24, 32))
    table = relabel(_valid_group(rng, order)[1], rng)
    x, y = rng.randrange(1, order), rng.randrange(1, order)
    if kind == "float-entry":
        table[x][y] = float(table[x][y])
    elif kind == "null-entry":
        table[x][y] = None
    else:  # every 0 and 1 becomes False and True, numerically unchanged
        table = [[bool(v) if v in (0, 1) else v for v in row] for row in table]
    return {"label": label, "order": order, "table": table}


def ingest_files(seed: int, directory: Path) -> list[dict]:
    """Write the files of one ingest pass into ``directory``.

    Returns one case per file: path, kind, expected exit code (README:
    0 for a valid group, 2 for every malformed file) and, for valid
    groups, the oracle profile.  Files are listed in a drawn order.
    """
    rng = random.Random(f"ingest-untrusted/{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    cases = []

    def emit(kind: str, data: dict, expect_exit: int, profile=None, triples=0):
        path = directory / f"{len(cases):02d}-{kind}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        cases.append({"path": str(path), "kind": kind, "expect_exit": expect_exit,
                      "profile": profile, "assoc_triples": triples})

    for order in VALID_TABLE_ORDERS:
        name, table, profile = _valid_group(rng, order)
        emit("valid-table", {"label": f"{name}-relabelled", "order": order,
                             "table": relabel(table, rng)}, 0, profile, order**3)
    for name in PERMUTATION_GROUPS:
        degree, gens = _perm_gens(name)
        gens = _conjugated(rng, degree, gens)
        emit("permutations", {"label": f"{name}-conjugated", "degree": degree,
                              "generators": gens}, 0,
             oracle.permutation_profile(degree, gens))
    for k in NON_ASSOCIATIVE_RANKS:
        table = non_associative_square(rng, k)
        x, y, z = first_associativity_failure(table)
        n = len(table)
        emit("non-associative", {"label": f"loop-{n}", "order": n, "table": table}, 2,
             triples=x * n * n + y * n + z + 1)
    for kind in MALFORMED_KINDS:
        emit(kind, _malformed(rng, kind), 2)
    rng.shuffle(cases)
    return cases
