"""Catalog assembly, label parsing, and group-file ingestion.

The default catalog covers every stock family up to order 64 plus the
order-60 alternating group; ingested files extend it.  Labels double as
addresses: anything the catalog can build, ``group_from_label`` can
rebuild from its label alone.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from functools import partial, reduce
from math import gcd
from typing import NamedTuple

from .groups import (
    MAX_ORDER,
    FiniteGroup,
    OrderCapExceeded,
    PermutationGenSet,
    bounded_int,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    from_cayley_table,
    from_permutations,
    inversion_semidirect,
    is_int,
    quaternion_generalized,
    symmetric,
)
from .numtheory import factorize, is_prime

DEFAULT_ORDER_CAP = 64

ALTERNATING5_GENERATORS = PermutationGenSet(5, ((1, 2, 0, 3, 4), (1, 2, 3, 4, 0)))

# grid the semidirect family is sampled on (coprimality filters it further)
SEMIDIRECT_M = (3, 5, 9, 15)
SEMIDIRECT_BETA = (1, 3, 5)
SEMIDIRECT_U = (1, 2)


class UnknownFamily(ValueError):
    """A catalog family name with no registered builder."""


class CatalogSpec(NamedTuple):
    """What to build: named families under an order cap."""

    families: tuple[tuple[str, tuple[int, ...]], ...]
    order_cap: int = DEFAULT_ORDER_CAP


def default_catalog_spec(order_cap: int = DEFAULT_ORDER_CAP) -> CatalogSpec:
    return CatalogSpec(
        families=(
            ("cyclic", (1, order_cap)),
            ("dihedral", (3, order_cap // 2)),
            ("quaternion", (8, order_cap)),
            ("elementary_abelian", ()),
            ("symmetric", (1, 5)),
            ("semidirect", ()),
            ("prime_products", ()),
            ("alternating", (5,)),
        ),
        order_cap=order_cap,
    )


# the parameters each catalog family takes, in order
_FAMILY_PARAMS = {
    "cyclic": ("lo", "hi"),
    "dihedral": ("lo", "hi"),
    "quaternion": ("lo", "hi"),
    "elementary_abelian": (),
    "symmetric": ("lo", "hi"),
    "semidirect": (),
    "prime_products": (),
    "alternating": ("degree",),
}


def _family_plan(name: str, params: tuple[int, ...], cap: int):
    """Yield (order, builder) for each group of the family within the cap,
    building nothing, so a catalog can be sized before it is built."""
    if name not in _FAMILY_PARAMS:
        raise UnknownFamily(f"no catalog family named {name!r}")
    takes = _FAMILY_PARAMS[name]
    if len(params) != len(takes):
        raise ValueError(
            f"catalog family {name!r} takes the parameters [{', '.join(takes)}],"
            f" got {list(params)}"
        )
    if name == "cyclic":
        lo, hi = params
        for n in range(lo, min(hi, cap) + 1):
            yield n, partial(cyclic, n)
    elif name == "dihedral":
        lo, hi = params
        for n in range(lo, min(hi, cap // 2) + 1):
            yield 2 * n, partial(dihedral, n)
    elif name == "quaternion":
        lo, hi = params
        m = 8
        while m <= hi and m <= cap:
            if m >= lo:
                yield m, partial(quaternion_generalized, m)
            m *= 2
    elif name == "elementary_abelian":
        for p in range(2, cap + 1):
            k = 1
            while p**k <= cap and is_prime(p):
                yield p**k, partial(elementary_abelian, p, k)
                k += 1
    elif name == "symmetric":
        lo, hi = params
        order = 1
        for k in range(1, hi + 1):
            order *= k
            if order > cap:
                break
            if k >= lo:
                yield order, partial(symmetric, k)
    elif name == "semidirect":
        for m in SEMIDIRECT_M:
            for beta in SEMIDIRECT_BETA:
                for u in SEMIDIRECT_U:
                    alpha = 2**u * beta
                    if gcd(m, alpha) == 1 and m * alpha <= cap:
                        yield m * alpha, partial(inversion_semidirect, m, beta, u)
    elif name == "prime_products":
        for n in range(6, cap + 1):  # squarefree with at least two primes
            fact = factorize(n)
            if len(fact.factors) >= 2 and all(e == 1 for _, e in fact.factors):
                yield n, lambda ps=fact.primes(): reduce(direct_product, map(cyclic, ps))
    else:  # alternating
        (k,) = params
        if k != 5:
            raise UnknownFamily(f"only the degree-5 alternating group is built, got {k}")
        if 60 <= cap:
            yield 60, partial(from_permutations, ALTERNATING5_GENERATORS, "A5")


def iter_catalog(spec: CatalogSpec, paranoid: bool = False) -> Iterator[FiniteGroup]:
    """Resolve a CatalogSpec into concrete groups, built one at a time.

    The plan is checked here, before any table is built: every family
    builder stays within ``spec.order_cap``, and the catalog must fit in
    MAX_ORDER**2 table cells, the size of the largest single table, which
    bounds the build work of one catalog.  The iterator returned builds one
    group per step, refuses a repeated label and keeps nothing.  The family
    tables are correct by construction and not scanned (S_n and A5, closed
    from permutations, get the Latin scan); with ``paranoid`` every table
    also gets from_cayley_table's full check, the one group files get.
    Group files are loaded by the caller, one by one with load_group_file.
    """
    cells, builders = 0, []
    for name, params in spec.families:
        for order, build in _family_plan(name, params, spec.order_cap):
            cells += order * order
            if cells > MAX_ORDER**2:
                raise OrderCapExceeded(
                    f"the catalog under order cap {spec.order_cap} exceeds {MAX_ORDER**2}"
                    f" table cells, the size of one table of order {MAX_ORDER}"
                )
            builders.append(build)
    return _build_each(builders, paranoid)


def _build_each(builders, paranoid: bool) -> Iterator[FiniteGroup]:
    seen: set[str] = set()
    for build in builders:
        group = build()
        if paranoid:
            group = from_cayley_table(group.mul, group.label)
        if group.label in seen:
            raise ValueError(f"duplicate catalog label {group.label!r}")
        seen.add(group.label)
        yield group


_SEMIDIRECT_LABEL = re.compile(r"^C(\d+):C(\d+)$")

_LABEL_PATTERNS: tuple[tuple[re.Pattern, object], ...] = (
    (re.compile(r"^C(\d+)$"), cyclic),
    (re.compile(r"^D(\d+)$"), dihedral),
    (re.compile(r"^Q(\d+)$"), quaternion_generalized),
    (re.compile(r"^S(\d+)$"), symmetric),
    (re.compile(r"^E(\d+)\^(\d+)$"), elementary_abelian),
    (re.compile(r"^A5$"), partial(from_permutations, ALTERNATING5_GENERATORS, "A5")),
)


def semidirect_label_parts(label: str) -> tuple[int, int, int] | None:
    """Split a label of the form C{m}:C{2^u * beta} into (m, beta, u).

    Returns None when the label is not of that form or the acting factor
    is odd or zero (the construction needs at least one factor of 2).
    """
    hit = _SEMIDIRECT_LABEL.match(label)
    if not hit:
        return None
    m, alpha = bounded_int(hit.group(1)), bounded_int(hit.group(2))
    if alpha % 2 or not alpha:
        return None
    u = (alpha & -alpha).bit_length() - 1  # the power of 2 in alpha
    return m, alpha >> u, u


def group_from_label(label: str) -> FiniteGroup:
    """Rebuild a catalog group from its label (e.g. C12, D6, Q16, S4,
    E3^2, A5, C3:C10, C2xC3)."""
    build = _label_builder(label.strip())
    if build is None:
        raise ValueError(f"unrecognized group label {label!r}")
    return build()


def _label_builder(text: str):
    """A function of no arguments that builds the group a label names, or
    None when it names none; a product (C2xC3) names one only when every
    factor does, so C2xfoo and C2xxC3 are refused by their whole label."""
    parts = semidirect_label_parts(text)
    if parts is not None:
        return partial(inversion_semidirect, *parts)
    if "x" in text:
        factors = [_label_builder(factor.strip()) for factor in text.split("x")]
        if None in factors:
            return None
        return lambda: reduce(direct_product, (build() for build in factors))
    for pattern, build in _LABEL_PATTERNS:
        match = pattern.match(text)
        if match:
            return partial(build, *map(bounded_int, match.groups()))
    return None


def read_json(path: str):
    """The decoded contents of a JSON file.  Every failure is a ValueError
    whose message does not name the path; callers report it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()  # a UnicodeDecodeError keeps its own message
    except OSError as exc:
        raise ValueError(f"cannot read file ({exc})") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or int() refusing a long number
        reason = str(exc).partition(";")[0]  # without int()'s advice to raise its limit
        raise ValueError(f"not valid JSON ({reason})") from exc
    except RecursionError as exc:
        raise ValueError("not valid JSON (nested too deeply)") from exc


def load_group_file(path: str) -> FiniteGroup:
    """Read one group from a JSON file: either a Cayley table
    {"label", "order", "table"} or permutation generators
    {"label", "degree", "generators"}.  Everything is validated; Cayley
    tables get the full associativity check (Light's test) since files are
    untrusted.  Error messages do not name the path; callers report it."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object at top level")
    label = data.get("label")
    if not isinstance(label, str) or not label:
        raise ValueError("missing or empty 'label'")
    if "table" in data:
        table = data["table"]
        order = data.get("order")
        if not isinstance(table, list):
            raise ValueError("'table' must be a list of rows")
        if order is not None and not is_int(order):  # 2.0 and true equal 2 and 1
            raise ValueError(f"'order' must be an integer, got {order!r}")
        if order is not None and order != len(table):
            raise ValueError(
                f"'order' ({order}) does not match the table size ({len(table)})"
            )
        return from_cayley_table(table, label)
    if "generators" in data:
        degree = data.get("degree")
        gens = data["generators"]
        if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
            raise ValueError("'generators' must be a list of lists")
        genset = PermutationGenSet(degree, tuple(tuple(g) for g in gens))
        return from_permutations(genset, label)
    raise ValueError("neither a Cayley-table nor a permutation-group file")
