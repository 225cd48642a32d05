"""Catalog sweeps: run every claim over every group, emit a deterministic report.

The report is compact JSON with sorted keys and no timestamps, so two runs
over the same catalog are byte-identical.  Exit status is part of the
payload: 1 means some verdict came back inconsistent (or a claim raised),
2 means the only defects were malformed input files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

from .catalog import semidirect_label_parts
from .groups import FiniteGroup
from .matching import DivisibilityMatching, find_divisibility_matching, verify_matching
from .numtheory import divisors
from .order_stats import (
    cyclic_profile,
    excess_table,
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
# the report's encoder: json's C encoder, compact, with sorted keys
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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


def _matching_verdict(group: FiniteGroup, matching: dict | None = None) -> TheoremVerdict:
    """Solvable groups always admit a divisibility matching.

    For non-solvable groups the claim is an open question, so a missing
    matching there is recorded but never counted as an inconsistency.
    ``matching`` is the group's ``matching_as_json`` when the caller has it.
    """
    if matching is None:
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
    group: FiniteGroup, claim: str, bound: int = DEFAULT_GRID_BOUND,
    matching: dict | None = None,
) -> list[TheoremVerdict]:
    """All verdicts one claim produces for one group, [] when it does not
    apply; divisibility-matching reads ``matching`` when it is given."""
    if claim == "frobenius-divisibility":
        return [check_frobenius_divisibility(group)]
    if claim == "min-cyclic-count":
        return [check_min_cyclic_subgroups(group)]
    if claim == "gap-nonneg":
        pairs = nonneg_pairs(bound)
        return [v for n in _sweep_orders(group) for v in check_nonnegative_gap(group, n, pairs)]
    if claim == "gap-diagonal":
        exponents = diagonal_exponents(bound)
        return [v for n in _sweep_orders(group)
                for v in check_diagonal_gap(group, n, exponents)]
    if claim == "gap-nonpos":
        return check_nonpositive_gap(group, nonpos_pairs(bound))
    if claim == "nilpotent-sign":
        if not is_nilpotent(group) or is_cyclic(group):
            return []
        return check_nilpotent_sign(group, integer_pairs(bound))
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
        return [check_semidirect_count(m, beta, u, grid=bound, group=group)]
    if claim == "divisibility-matching":
        return [_matching_verdict(group, matching)]
    raise ValueError(f"unknown claim {claim!r}")


def scalar_json(value):
    """Ints, bools and floats stay JSON numbers; fractions become strings."""
    return value if isinstance(value, (int, float)) else str(value)


def verdict_as_json(verdict: TheoremVerdict) -> dict:
    # every sign is exact; "mode" stays for readers of v1
    return {**verdict._asdict(), "mode": "exact",
            "parameters": {key: scalar_json(value) for key, value in verdict.parameters}}


def verdict_rows(verdicts: list[TheoremVerdict]) -> dict:
    """One claim's verdicts on one group as a report block: the parameter
    names once, then a row per verdict in generation order, holding the
    parameter values, sign, inequality_holds, equality_condition_holds,
    consistent and witness."""
    return {
        "parameters": [key for key, _ in verdicts[0].parameters],
        "rows": [[*(scalar_json(value) for _, value in v.parameters), v.sign,
                  v.inequality_holds, v.equality_condition_holds, v.consistent,
                  v.witness] for v in verdicts],
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


def _excess_grid(profile, bound: int) -> tuple[tuple[int, int, str], ...]:
    # the claims at n = |G| read the same excess table
    span = range(-bound, bound + 1)
    denominator, rows = excess_table(profile, profile.group_order, span, span)
    return tuple((r, s, str(Fraction(numerator, denominator)))
                 for r, row in zip(span, rows) for s, numerator in zip(span, row))


def group_record(group: FiniteGroup, bound: int = DEFAULT_GRID_BOUND) -> dict:
    """Static per-group facts: profile, structure flags, invariants, excess grid."""
    profile = order_profile(group)
    table = frobenius_table(profile)
    return {
        "label": group.label,
        "order": group.order,
        "profile": {str(d): c for d, c in profile.counts.items()},
        "solution_counts": {str(m): b for m, b in table.counts.items()},
        "solution_ratios": {str(m): q for m, q in table.ratios.items()},
        **group_invariants(group, profile),
        "cyclic_subgroup_count": count_cyclic_subgroups(group),
        "excess_grid": _excess_grid(profile, bound),
        "matching": matching_as_json(profile),
    }


def write_json(payload, handle) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline:
    the output of every command but ``verify``."""
    handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_report(report: dict, handle) -> None:
    """Write a ``run_sweep`` report as compact JSON with sorted keys and a
    final newline: the top level around the records' texts, each record
    on a line of its own and in one write, so the text is never joined."""
    keys = sorted(report)
    at = keys.index("groups")
    head = _encode({key: report[key] for key in keys[:at]})
    tail = _encode({key: report[key] for key in keys[at + 1:]})
    handle.write(head[:-1] + ',"groups":[')
    separator = "\n"
    for text in report["groups"]:
        handle.write(separator + text)
        separator = ",\n"
    handle.write("\n]," + tail[1:] + "\n")


def run_sweep(
    groups,
    claims=None,
    bound: int = DEFAULT_GRID_BOUND,
    input_errors=(),
) -> dict:
    """Evaluate the selected claims on each group of an iterable, consumed
    once and in any order, and keep only its record, encoded; ``input_errors``
    is read after the last group, so the groups' stream may still add to it.

    Returns the report as a dict whose ``groups`` holds each record's JSON
    text, ordered by (order, label), for ``write_report`` to write out."""
    if claims is None:
        selected = list(ALL_CLAIMS)
    else:
        unknown = sorted(set(claims) - set(ALL_CLAIMS))
        if unknown:
            raise ValueError(f"unknown claims: {', '.join(unknown)}")
        selected = [c for c in ALL_CLAIMS if c in set(claims)]

    anomalies: list[dict] = []
    texts: dict[str, tuple[int, str]] = {}  # label -> (order, record text)
    verdicts = inconsistent = found = violated = 0
    conjecture_events = []
    for group in groups:
        if group.label in texts:
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
        blocks: dict[str, dict] = {}
        for claim in selected:
            try:
                results = evaluate_claim(group, claim, bound, record.get("matching"))
                if results:
                    blocks[claim] = verdict_rows(results)
            except Exception as exc:  # noqa: BLE001
                anomalies.append({
                    "group": group.label,
                    "claim": claim,
                    "error": f"{type(exc).__name__}: {exc}",
                })
            else:
                verdicts += len(results)
                inconsistent += sum(not v.consistent for v in results)
        record["verdicts"] = blocks
        status = record.get("matching", {}).get("status")
        found += status == "found"
        violated += status == "violated"
        if status == "violated" and not record.get("is_solvable", True):
            conjecture_events.append(group.label)
        texts[group.label] = (group.order, _encode(record))
    anomalies.sort(key=lambda a: (a["group"], a["claim"], a["error"]))
    errors = [dict(e) for e in input_errors]
    errors.sort(key=lambda e: (e.get("path", ""), e.get("error", "")))

    if inconsistent or anomalies:
        exit_status = 1
    elif errors:
        exit_status = 2
    else:
        exit_status = 0

    return {
        "schema_version": 2,
        "tool_version": TOOL_VERSION,
        "grid_bound": bound,
        "claims": selected,
        "groups": [text for _, (_, text) in sorted(
            texts.items(), key=lambda item: (item[1][0], item[0]))],
        "anomalies": anomalies,
        "input_errors": errors,
        "summary": {
            "groups": len(texts),
            "verdicts": verdicts,
            "inconsistent": inconsistent,
            "matchings_found": found,
            "matchings_violated": violated,
            "conjecture_events": sorted(conjecture_events),
            "anomalies": len(anomalies),
            "input_errors": len(errors),
        },
        "exit_status": exit_status,
    }
