"""Catalog sweeps: run every claim over every group, emit a deterministic report.

The report is plain JSON with sorted keys and no timestamps, so two runs
over the same catalog are byte-identical.  Exit status is part of the
payload: 1 means some verdict came back inconsistent (or a claim raised),
2 means the only defects were malformed input files.
"""

from __future__ import annotations

import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _string_text

from .catalog import semidirect_label_parts
from .groups import FiniteGroup
from .matching import DivisibilityMatching, find_divisibility_matching, verify_matching
from .numtheory import divisors
from .order_stats import (
    cyclic_excess,
    cyclic_profile,
    frobenius_table,
    order_profile,
    product_of_orders,
)
from .structure import (
    count_cyclic_subgroups,
    is_cyclic,
    is_nilpotent,
    is_solvable,
)
from .theorems import (
    TheoremVerdict,
    check_cyclic_part_equivalence,
    check_diagonal_gap,
    check_frobenius_divisibility,
    check_min_cyclic_subgroups,
    check_nilpotent_sign,
    check_nonnegative_gap,
    check_nonpositive_gap,
    check_order_product_maximal,
    check_semidirect_count,
)

TOOL_VERSION = "0.1.0"

ALL_CLAIMS = (
    "frobenius-divisibility",
    "min-cyclic-count",
    "gap-nonneg",
    "gap-diagonal",
    "gap-nonpos",
    "nilpotent-sign",
    "cyclic-part-equivalence",
    "order-product-max",
    "inversion-semidirect-count",
    "divisibility-matching",
)

DEFAULT_GRID_BOUND = 3
# full-divisor sweeps only below this order; above it n = |G| alone
DIVISOR_SWEEP_LIMIT = 48
# json.dumps(sort_keys=True) with one encoder; a tuple key would reorder "1}" < "12}"
_sorted_json = json.JSONEncoder(sort_keys=True).encode
# write_json's strings per write: bounds both the system calls and the text held
JSON_WRITE_BATCH = 1024


def integer_pairs(bound: int) -> list[tuple[int, int]]:
    """All integer exponent pairs (r, s) with |r|, |s| <= bound."""
    span = range(-bound, bound + 1)
    return [(r, s) for r in span for s in span]


def nonneg_pairs(bound: int) -> list[tuple[int, int]]:
    """Integer pairs in the nonnegative-excess domain: s < r, s <= 0."""
    return [(r, s) for r, s in integer_pairs(bound) if s < r and s <= 0]


def nonpos_pairs(bound: int) -> list[tuple[int, int]]:
    """Integer pairs in the nonpositive-excess domain: r <= s - 1, s >= 1."""
    return [(r, s) for r, s in integer_pairs(bound) if r <= s - 1 and s >= 1]


def diagonal_exponents(bound: int) -> list[int]:
    """Negative diagonal exponents r = s = -1, ..., -bound."""
    return list(range(-1, -bound - 1, -1))


@lru_cache(maxsize=512)
def _matching_for(profile) -> DivisibilityMatching:
    # keyed by profile value: twins such as S3, D3 and C3:C2 share one entry
    return find_divisibility_matching(profile)


def _sweep_orders(group: FiniteGroup) -> list[int]:
    if group.order <= DIVISOR_SWEEP_LIMIT:
        return list(divisors(group.order))
    return [group.order]


def _matching_verdict(group: FiniteGroup) -> TheoremVerdict:
    """Solvable groups always admit a divisibility matching.

    For non-solvable groups the claim is an open question, so a missing
    matching there is recorded but never counted as an inconsistency.
    """
    matching = matching_as_json(order_profile(group))
    found = matching["status"] == "found"
    verified = matching["verified"]
    solvable = is_solvable(group)
    if found:
        witness = "assignment verified" if verified else "assignment failed check"
    else:
        witness = f"no matching, blocking orders {matching['violator']}"
        if not solvable:
            witness += " (non-solvable, conjecture event)"
    return TheoremVerdict(
        claim="divisibility-matching",
        group=group.label,
        parameters=(("n", group.order),),
        sign="zero" if found else "pos",
        inequality_holds=found,
        equality_condition_holds=solvable,
        consistent=(found and verified) or (not found and not solvable),
        witness=witness,
    )


def evaluate_claim(
    group: FiniteGroup, claim: str, bound: int = DEFAULT_GRID_BOUND
) -> list[TheoremVerdict]:
    """All verdicts one claim produces for one group, [] when it does not apply."""
    if claim == "frobenius-divisibility":
        return [check_frobenius_divisibility(group)]
    if claim == "min-cyclic-count":
        return [check_min_cyclic_subgroups(group)]
    if claim == "gap-nonneg":
        return [
            check_nonnegative_gap(group, n, r, s)
            for n in _sweep_orders(group)
            for r, s in nonneg_pairs(bound)
        ]
    if claim == "gap-diagonal":
        return [
            check_diagonal_gap(group, n, r)
            for n in _sweep_orders(group)
            for r in diagonal_exponents(bound)
        ]
    if claim == "gap-nonpos":
        return [check_nonpositive_gap(group, r, s) for r, s in nonpos_pairs(bound)]
    if claim == "nilpotent-sign":
        if not is_nilpotent(group) or is_cyclic(group):
            return []
        return [check_nilpotent_sign(group, r, s) for r, s in integer_pairs(bound)]
    if claim == "cyclic-part-equivalence":
        return [
            check_cyclic_part_equivalence(group, n)
            for n in _sweep_orders(group)
        ]
    if claim == "order-product-max":
        return [check_order_product_maximal(group)]
    if claim == "inversion-semidirect-count":
        parts = semidirect_label_parts(group.label)
        if parts is None:
            return []
        m, beta, u = parts
        return [check_semidirect_count(m, beta, u, grid=bound)]
    if claim == "divisibility-matching":
        return [_matching_verdict(group)]
    raise ValueError(f"unknown claim {claim!r}")


def scalar_json(value):
    """Ints, bools and floats stay JSON numbers; fractions become strings."""
    return value if isinstance(value, (int, float)) else str(value)


def verdict_as_json(verdict: TheoremVerdict) -> dict:
    return {
        "claim": verdict.claim,
        "group": verdict.group,
        "parameters": {key: scalar_json(value) for key, value in verdict.parameters},
        "sign": verdict.sign,
        "inequality_holds": verdict.inequality_holds,
        "equality_condition_holds": verdict.equality_condition_holds,
        "consistent": verdict.consistent,
        "mode": "exact",  # every sign is exact; the key stays for readers of v1
        "witness": verdict.witness,
    }


def matching_as_json(profile) -> dict:
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


def group_invariants(group: FiniteGroup, profile) -> dict:
    """The order products and structure flags that both ``compute`` and
    the report's group records carry."""
    return {
        "order_product": product_of_orders(profile).as_json(),
        "cyclic_order_product": product_of_orders(cyclic_profile(group.order)).as_json(),
        "is_cyclic": is_cyclic(group),
        "is_nilpotent": is_nilpotent(group),
        "is_solvable": is_solvable(group),
    }


def group_record(group: FiniteGroup, bound: int = DEFAULT_GRID_BOUND) -> dict:
    """Static per-group facts: profile, structure flags, invariants, excess grid."""
    profile = order_profile(group)
    table = frobenius_table(profile)
    grid = [
        [r, s, str(cyclic_excess(profile, group.order, r, s))]
        for r, s in integer_pairs(bound)
    ]
    return {
        "label": group.label,
        "order": group.order,
        "profile": {str(d): c for d, c in profile.counts.items()},
        "solution_counts": {str(m): b for m, b in table.counts.items()},
        "solution_ratios": {str(m): q for m, q in table.ratios.items()},
        **group_invariants(group, profile),
        "cyclic_subgroup_count": count_cyclic_subgroups(group),
        "excess_grid": grid,
        "matching": matching_as_json(profile),
    }


# json's text of each scalar by exact type: a Fraction, set or subclass is a TypeError
_SCALAR_TEXT = {
    str: _string_text,
    int: int.__repr__,
    float: json.dumps,  # float.__repr__, or NaN, Infinity and -Infinity
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def write_json(payload, handle) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"`` in one
    recursive pass, one string per key and scalar: ``json`` indents with a generator."""
    parts: list[str] = []

    def emit(value, lead: str, indent: str) -> None:
        # lead: what precedes value on its line; indent: newline and value's indentation
        kind = type(value)
        if kind is not dict and kind is not list and kind is not tuple:
            if kind not in _SCALAR_TEXT:
                raise TypeError(f"type {kind.__name__} is not JSON serializable")
            return parts.append(lead + _SCALAR_TEXT[kind](value))
        opener, closer = "{}" if kind is dict else "[]"
        inner = indent + "  "
        separator, comma = lead + opener + inner, "," + inner
        if kind is dict:  # a key that is not a str is a TypeError from the encoder
            for key, item in sorted(value.items()):
                text = _SCALAR_TEXT.get(type(item))
                if text is None:
                    emit(item, f"{separator}{_string_text(key)}: ", inner)
                else:
                    parts.append(f"{separator}{_string_text(key)}: {text(item)}")
                separator = comma
        else:
            for item in value:
                text = _SCALAR_TEXT.get(type(item))
                if text is None:
                    emit(item, separator, inner)
                else:
                    parts.append(separator + text(item))
                separator = comma
        parts.append(indent + closer if value else lead + opener + closer)
        if len(parts) >= JSON_WRITE_BATCH:
            handle.write("".join(parts))
            parts.clear()

    emit(payload, "", "\n")
    handle.write("".join(parts) + "\n")


def run_sweep(
    groups,
    claims=None,
    bound: int = DEFAULT_GRID_BOUND,
    input_errors=(),
) -> dict:
    """Evaluate the selected claims on each group of an iterable, consumed
    once and in any order, and keep only its record; ``input_errors`` is
    read after the last group, so the groups' stream may still add to it."""
    if claims is None:
        selected = list(ALL_CLAIMS)
    else:
        unknown = sorted(set(claims) - set(ALL_CLAIMS))
        if unknown:
            raise ValueError(f"unknown claims: {', '.join(unknown)}")
        selected = [c for c in ALL_CLAIMS if c in set(claims)]

    anomalies: list[dict] = []
    records: dict[str, dict] = {}
    for group in groups:
        if group.label in records:
            raise ValueError("group labels must be unique within a sweep")
        try:
            record = group_record(group, bound)
        except Exception as exc:  # noqa: BLE001 - report and flag, never hide
            record = {"label": group.label, "order": group.order}
            anomalies.append({
                "group": group.label,
                "claim": "group-record",
                "error": f"{type(exc).__name__}: {exc}",
            })
        rows: list[dict] = []
        for claim in selected:
            try:
                rows.extend([
                    verdict_as_json(v) for v in evaluate_claim(group, claim, bound=bound)
                ])
            except Exception as exc:  # noqa: BLE001
                anomalies.append({
                    "group": group.label,
                    "claim": claim,
                    "error": f"{type(exc).__name__}: {exc}",
                })
        rows.sort(key=lambda v: (v["claim"], _sorted_json(v["parameters"])))
        record["verdicts"] = rows
        records[group.label] = record
    anomalies.sort(key=lambda a: (a["group"], a["claim"], a["error"]))
    ordered = sorted(records.values(), key=lambda r: (r["order"], r["label"]))

    flat = [v for record in ordered for v in record["verdicts"]]
    inconsistent = [v for v in flat if not v["consistent"]]
    matching_rows = [record.get("matching") for record in ordered]
    found = sum(1 for m in matching_rows if m and m["status"] == "found")
    violated = sum(1 for m in matching_rows if m and m["status"] == "violated")
    conjecture_events = sorted(
        record["label"]
        for record in ordered
        if record.get("matching", {}).get("status") == "violated"
        and not record.get("is_solvable", True)
    )
    errors = [dict(e) for e in input_errors]
    errors.sort(key=lambda e: (e.get("path", ""), e.get("error", "")))

    if inconsistent or anomalies:
        exit_status = 1
    elif errors:
        exit_status = 2
    else:
        exit_status = 0

    return {
        "schema_version": 1,
        "tool_version": TOOL_VERSION,
        "grid_bound": bound,
        "claims": selected,
        "groups": ordered,
        "anomalies": anomalies,
        "input_errors": errors,
        "summary": {
            "groups": len(ordered),
            "verdicts": len(flat),
            "inconsistent": len(inconsistent),
            "inconsistent_exact": len(inconsistent),  # the same, as every sign is exact
            "matchings_found": found,
            "matchings_violated": violated,
            "conjecture_events": conjecture_events,
            "anomalies": len(anomalies),
            "input_errors": len(errors),
        },
        "exit_status": exit_status,
    }
