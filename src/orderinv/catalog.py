"""Catalog assembly, label parsing, and group-file ingestion.

Each catalog family is one ``_FAMILIES`` entry: its parameters, a plan of
(order, label) pairs, its label parser and its builder.  Labels are the
catalog's addresses: ``iter_catalog`` plans labels and builds each one
through ``group_from_label``, the only construction path.  The default
catalog covers every stock family up to order 64 plus the order-60
alternating group; ingested files extend it.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Iterator
from functools import partial, reduce
from itertools import product, takewhile
from math import factorial, gcd, prod
from typing import NamedTuple

from .groups import (
    MAX_ORDER,
    FiniteGroup,
    OrderCapExceeded,
    PermutationGenSet,
    bounded_int,
    check_cayley_table,
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

# a compact JSON table of order MAX_ORDER is about 120 MB, with indent=1 about 195 MB
MAX_JSON_BYTES = 256 * 2**20

ALTERNATING5_GENERATORS = PermutationGenSet(5, ((1, 2, 0, 3, 4), (1, 2, 3, 4, 0)))


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


class Family(NamedTuple):
    """One catalog family, as the module docstring describes."""

    params: tuple[str, ...]  # the names of its catalog spec parameters
    plan: Callable  # plan(cap, *params): (order, label) per group within the cap
    parse: Callable | None  # parse(label): build's arguments, or None for no label of it
    build: Callable | None


def _parser(pattern: str) -> Callable[[str], tuple | None]:
    """The integers a label pattern's groups capture, or None."""
    match = re.compile(pattern).match
    return lambda text: (hit := match(text)) and tuple(map(bounded_int, hit.groups()))


def _range_plan(letter: str, build, scale: int):
    """Plan {letter}{n}, of order scale * n, for n in [lo, hi]."""

    def plan(cap: int, lo: int, hi: int):
        if lo < 1:
            build(lo)  # refused with the constructor's own message, before any table
        return ((scale * n, f"{letter}{n}") for n in range(lo, min(hi, cap // scale) + 1))

    return plan


def _quaternion_plan(cap: int, lo: int, hi: int):  # the 2-powers from 8 to the cap
    return ((m, f"Q{m}") for m in (2**e for e in range(3, cap.bit_length())) if lo <= m <= hi)


def _elementary_plan(cap: int):
    return ((p**k, f"E{p}^{k}") for p in filter(is_prime, range(2, cap + 1))
            for k in range(1, cap.bit_length()) if p**k <= cap)


def _symmetric_plan(cap: int, lo: int, hi: int):
    degrees = takewhile(lambda k: factorial(k) <= cap, range(1, hi + 1))
    return ((factorial(k), f"S{k}") for k in degrees if k >= lo)


def _semidirect_plan(cap: int):  # on a grid of m, beta and u, kept where coprime
    alphas = [2**u * beta for beta in (1, 3, 5) for u in (1, 2)]
    return ((m * alpha, f"C{m}:C{alpha}") for m, alpha in product((3, 5, 9, 15), alphas)
            if gcd(m, alpha) == 1 and m * alpha <= cap)


def _prime_products_plan(cap: int):  # squarefree orders with at least two primes
    facts = (factorize(n) for n in range(6, cap + 1))
    return ((prod(f.primes()), "x".join(f"C{p}" for p in f.primes())) for f in facts
            if len(f.factors) >= 2 and all(e == 1 for _, e in f.factors))


def _alternating_plan(cap: int, k: int):
    if k != 5:
        raise UnknownFamily(f"only the degree-5 alternating group is built, got {k}")
    return [(60, "A5")] if 60 <= cap else []


_semidirect_numbers = _parser(r"^C(\d+):C(\d+)$")


def semidirect_label_parts(label: str) -> tuple[int, int, int] | None:
    """(m, beta, u) of a label C{m}:C{2^u * beta}, or None for any other
    label, or an odd or zero acting order (the family needs a factor 2)."""
    m, alpha = _semidirect_numbers(label) or (0, 0)  # no match: refused as alpha = 0
    if alpha % 2 or not alpha:
        return None
    u = (alpha & -alpha).bit_length() - 1  # the power of 2 in alpha
    return m, alpha >> u, u


# the catalog families; a product label (C2xC3) is split before any parser
# reads it, so prime_products, whose labels are products of C labels, has none
_FAMILIES: dict[str, Family] = {
    "cyclic": Family(("lo", "hi"), _range_plan("C", cyclic, 1), _parser(r"^C(\d+)$"), cyclic),
    "dihedral": Family(
        ("lo", "hi"), _range_plan("D", dihedral, 2), _parser(r"^D(\d+)$"), dihedral),
    "quaternion": Family(
        ("lo", "hi"), _quaternion_plan, _parser(r"^Q(\d+)$"), quaternion_generalized),
    "elementary_abelian": Family(
        (), _elementary_plan, _parser(r"^E(\d+)\^(\d+)$"), elementary_abelian),
    "symmetric": Family(("lo", "hi"), _symmetric_plan, _parser(r"^S(\d+)$"), symmetric),
    "semidirect": Family((), _semidirect_plan, semidirect_label_parts, inversion_semidirect),
    "prime_products": Family((), _prime_products_plan, None, None),
    "alternating": Family(("degree",), _alternating_plan, _parser(r"^A5$"),
                          partial(from_permutations, ALTERNATING5_GENERATORS, "A5")),
}


def _family_plan(name: str, params: tuple[int, ...], cap: int) -> Iterator[tuple[int, str]]:
    """The (order, label) of each group of the family within the cap,
    building nothing, so a catalog can be sized before it is built."""
    if name not in _FAMILIES:
        raise UnknownFamily(f"no catalog family named {name!r}")
    family = _FAMILIES[name]
    if len(params) != len(family.params):
        raise ValueError(f"catalog family {name!r} takes the parameters"
                         f" [{', '.join(family.params)}], got {list(params)}")
    return family.plan(cap, *params)


def iter_catalog(spec: CatalogSpec, paranoid: bool = False) -> Iterator[FiniteGroup]:
    """Resolve a CatalogSpec into concrete groups, built one at a time.

    The plan is checked here, before any table is built: it stays within
    ``spec.order_cap``, repeats no label, and fits in MAX_ORDER**2 table
    cells, one largest table, which bounds the build work of a catalog.
    The iterator returned builds one label per step and keeps nothing.
    Family tables are correct by construction and not scanned (S_n and A5
    get the Latin scan); ``paranoid`` gives every table check_cayley_table's
    full check, as group files get, which the caller loads one by one.
    """
    cells, labels = 0, {}
    for name, params in spec.families:
        for order, label in _family_plan(name, params, spec.order_cap):
            cells += order * order
            if cells > MAX_ORDER**2:
                raise OrderCapExceeded(
                    f"the catalog under order cap {spec.order_cap} exceeds {MAX_ORDER**2}"
                    f" table cells, the size of one table of order {MAX_ORDER}"
                )
            if label in labels:
                raise ValueError(f"duplicate catalog label {label!r}")
            labels[label] = order
    return _build_each(labels, paranoid)


def _build_each(labels, paranoid: bool) -> Iterator[FiniteGroup]:
    for label in labels:
        group = group_from_label(label)
        if paranoid:  # the table is checked; the group itself goes on
            check_cayley_table(group.mul, label)
        yield group


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
    if "x" in text:
        factors = [_label_builder(factor.strip()) for factor in text.split("x")]
        if None in factors:
            return None
        return lambda: reduce(direct_product, (build() for build in factors))
    for family in _FAMILIES.values():
        if family.parse and (args := family.parse(text)) is not None:
            return partial(family.build, *args)
    return None


def read_json(path: str):
    """The decoded contents of a JSON file of at most MAX_JSON_BYTES bytes.
    Every failure is a ValueError whose message does not name the path;
    callers report it."""
    try:
        with open(path, "rb") as handle:
            data = bytearray()  # read in chunks: read(n) would allocate all n at once
            while len(data) <= MAX_JSON_BYTES and (
                    chunk := handle.read(min(2**20, MAX_JSON_BYTES + 1 - len(data)))):
                data += chunk
    except OSError as exc:
        raise ValueError(f"cannot read file ({exc})") from exc
    if len(data) > MAX_JSON_BYTES:
        raise ValueError(f"larger than the JSON file cap of {MAX_JSON_BYTES} bytes")
    text = data.decode("utf-8")  # a UnicodeDecodeError keeps its own message
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
