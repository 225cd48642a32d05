"""Command line front end.

Subcommands:
  compute  order profile and weighted invariants of one group
  verify   sweep the claim suite over a catalog, emit a JSON report
  match    divisibility matching between element orders and cyclic slots
  example  the inversion semidirect product family, counts and excess
  ingest   validate group files and print what they contain

Exit codes: 0 clean, 1 inconsistency or anomaly, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from decimal import Decimal
from fractions import Fraction

from .catalog import (
    DEFAULT_ORDER_CAP,
    CatalogSpec,
    default_catalog_spec,
    group_from_label,
    iter_catalog,
    load_group_file,
    read_json,
    semidirect_label_parts,
)
from .groups import OrderCapExceeded, bounded_int, is_int
from .numtheory import divisor_count, divisor_power_sum, divisors, totient
from .order_stats import (
    FrobeniusViolated,
    cyclic_excess,
    cyclic_subgroup_count,
    excess_sign,
    frobenius_table,
    order_profile,
    weighted_order_sum,
)
from .report import (
    DEFAULT_GRID_BOUND,
    _matching_verdict,
    group_invariants,
    matching_as_json,
    run_sweep,
    scalar_json,
    verdict_as_json,
    write_json,
    write_report,
)
from .structure import is_solvable
from .theorems import EqualityRouteMismatch, check_semidirect_count


def _positive_int(text: str) -> int:
    try:
        value = bounded_int(text)
    except OrderCapExceeded as exc:  # a ValueError too: keep the cap in the message
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


# bounds |numerator| and denominator of r, s and --grid: at n <= MAX_ORDER the terms
# m^s / phi(m)^(r-1), m | n, stay below 5000^65 < 10^241 with denominators dividing
# n^32 phi(n)^33, so a printed sum has under 500 of Python's 4,300 digits.
EXPONENT_BOUND = 32


def _exponent(text: str):
    """An exponent as an exact rational: an int, else a Fraction."""
    digits = len(str(EXPONENT_BOUND))  # |value| in [1/32, 32]: lead digit 10^-2..10^1
    try:
        if "/" in text:
            value = Fraction(text)
        else:
            literal = Decimal(text)  # keeps the 10^k of 1e999999999 unexpanded
            in_range = not literal or -digits <= literal.adjusted() < digits
            value = Fraction(literal) if in_range else None
    except (ValueError, ArithmeticError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if value is None or max(abs(value.numerator), value.denominator) > EXPONENT_BOUND:
        raise argparse.ArgumentTypeError(
            f"exponent {text!r} exceeds the exponent bound {EXPONENT_BOUND}")
    return int(value) if value.denominator == 1 else value


def _grid(text: str) -> int:
    _exponent(text)  # the grid's exponents reach +-value: the same bound
    return _positive_int(text)


def _factored_text(exponents: dict) -> str:
    pairs = sorted(exponents.items(), key=lambda kv: int(kv[0]))
    return " * ".join(f"{p}^{e}" for p, e in pairs) if pairs else "1"


def _resolve_group(spec: str):
    """A group argument is a group file when it ends in .json or has a
    directory part (./C4 is the file, C4 the label), else a catalog label."""
    if spec.endswith(".json") or os.path.dirname(spec):
        try:
            return load_group_file(spec)
        except ValueError as exc:
            raise ValueError(f"{spec}: {exc}") from exc
    return group_from_label(spec)


def _emit(output: str | dict, out: str | None, write=write_json) -> None:
    """Write a table's text as it is, or a payload through ``write``."""
    with (contextlib.nullcontext(sys.stdout) if out is None
          else open(out, "w", encoding="utf-8")) as handle:
        if isinstance(output, str):
            handle.write(output)
        else:
            write(output, handle)


def _kv_table(rows: list[tuple[str, object]]) -> str:
    width = max(len(key) for key, _ in rows)
    return "".join(f"{key.ljust(width)}  {value}\n" for key, value in rows)


def _run_compute(args) -> int:
    group = _resolve_group(args.group)
    n = args.n if args.n is not None else group.order
    profile = order_profile(group)
    table = frobenius_table(profile)
    r, s = args.r, args.s
    sign = excess_sign(profile, n, r, s)
    # a float reading of a vanishing excess would show a rounding error
    excess = Fraction(0) if sign == "zero" else cyclic_excess(profile, n, r, s)
    payload = {
        "group": group.label,
        "order": group.order,
        "n": n,
        "r": scalar_json(r),
        "s": scalar_json(s),
        "mode": "exact",
        "weighted_order_sum": scalar_json(weighted_order_sum(profile, n, r, s)),
        "cyclic_baseline": scalar_json(divisor_power_sum(n, r, s)),
        "cyclic_excess": scalar_json(excess),
        "sign": sign,
        "cyclic_subgroup_count": cyclic_subgroup_count(profile, n),
        "divisor_count": divisor_count(n),
        "solution_counts": {str(m): table.counts[m] for m in divisors(n)},
        **group_invariants(group, profile),
    }
    if args.format == "json":
        output = payload
    else:
        counts = " ".join(f"{m}={b}" for m, b in sorted(
            payload["solution_counts"].items(), key=lambda kv: int(kv[0])))
        output = _kv_table([
            ("group", payload["group"]),
            ("order", payload["order"]),
            ("n", payload["n"]),
            ("exponents", f"r={payload['r']} s={payload['s']} (exact)"),
            ("weighted order sum", payload["weighted_order_sum"]),
            ("cyclic baseline", payload["cyclic_baseline"]),
            ("cyclic excess", f"{payload['cyclic_excess']} ({payload['sign']})"),
            ("cyclic subgroups", f"{payload['cyclic_subgroup_count']}"
             f" (divisor floor {payload['divisor_count']})"),
            ("solution counts", counts),
            ("order product", _factored_text(payload["order_product"])),
            ("cyclic order product", _factored_text(payload["cyclic_order_product"])),
            ("cyclic", payload["is_cyclic"]),
            ("nilpotent", payload["is_nilpotent"]),
            ("solvable", payload["is_solvable"]),
        ])
    _emit(output, args.out)
    return 0


def _load_catalog_spec(path: str, order_cap: int | None) -> tuple[CatalogSpec, list[str]]:
    try:
        data = read_json(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    families = data.get("families", {})
    if not isinstance(families, dict):
        raise ValueError(f"{path}: 'families' must map family names to parameter lists")
    for name, params in families.items():
        if not isinstance(params, list) or not all(is_int(p) for p in params):
            raise ValueError(f"{path}: parameters of family {name!r} must be a list"
                             " of integers")
    ingested = data.get("ingested", [])
    if not isinstance(ingested, list) or not all(isinstance(p, str) for p in ingested):
        raise ValueError(f"{path}: 'ingested' must be a list of file paths")
    cap = order_cap if order_cap is not None else data.get("order_cap", DEFAULT_ORDER_CAP)
    if not is_int(cap) or cap < 1:
        raise ValueError(f"{path}: 'order_cap' must be a positive integer")
    base = os.path.dirname(os.path.abspath(path))
    paths = [p if os.path.isabs(p) else os.path.join(base, p) for p in ingested]
    families = tuple((name, tuple(params)) for name, params in families.items())
    return CatalogSpec(families, cap), paths


def _with_ingested(catalog, paths: list[str], cap: int, input_errors: list[dict]):
    """The catalog's groups, then the group of each file in ``paths`` that
    passes the checks below; a file that fails goes to ``input_errors``."""
    labels = set()
    for group in catalog:
        labels.add(group.label)
        yield group
    for path in paths:
        try:
            group = load_group_file(path)
            if group.order > cap:
                raise ValueError(f"order {group.order} is above the catalog cap {cap}")
            if group.label in labels:
                raise ValueError(f"duplicate label {group.label!r}")
            if semidirect_label_parts(group.label) is not None:
                # inversion-semidirect-count would rebuild the group from its label
                raise ValueError(
                    f"label {group.label!r} is reserved for the inversion"
                    " semidirect family"
                )
        except ValueError as exc:
            input_errors.append({"path": path, "error": str(exc)})
            continue
        labels.add(group.label)
        yield group


def _run_verify(args) -> int:
    if args.catalog == "default":
        cap = args.order_cap if args.order_cap is not None else DEFAULT_ORDER_CAP
        spec = default_catalog_spec(order_cap=cap)
        ingested_paths: list[str] = []
    else:
        spec, ingested_paths = _load_catalog_spec(args.catalog, args.order_cap)
    groups = iter_catalog(spec, paranoid=args.paranoid)
    input_errors: list[dict] = []
    claims = None
    if args.claims is not None:
        claims = [c.strip() for c in args.claims.split(",") if c.strip()]
        if not claims:
            raise ValueError("--claims given but no claim ids found")
    report = run_sweep(
        _with_ingested(groups, ingested_paths, spec.order_cap, input_errors),
        claims=claims, bound=args.grid, input_errors=input_errors,
    )
    _emit(_verify_table(report) if args.format == "table" else report, args.out,
          write_report)
    return report["exit_status"]


def _verify_table(report: dict) -> str:
    summary = report["summary"]
    lines = [_kv_table([
        ("groups", summary["groups"]),
        ("verdicts", summary["verdicts"]),
        ("inconsistent", summary["inconsistent"]),
        ("anomalies", summary["anomalies"]),
        ("input errors", summary["input_errors"]),
        ("matchings found", summary["matchings_found"]),
        ("matchings violated", summary["matchings_violated"]),
        ("exit status", report["exit_status"]),
    ])]
    for text in report["groups"] if summary["inconsistent"] else ():
        record = json.loads(text)
        failed = [(claim, dict(zip(block["parameters"], row)), row[-1])
                  for claim, block in record["verdicts"].items()
                  for row in block["rows"] if not row[-2]]  # row[-2]: consistent
        failed.sort(key=lambda f: (f[0], json.dumps(f[1], sort_keys=True)))
        for claim, parameters, witness in failed:
            params = " ".join(f"{k}={v}" for k, v in sorted(parameters.items()))
            lines.append(f"INCONSISTENT {record['label']} {claim} {params} {witness}\n")
    for anomaly in report["anomalies"]:
        lines.append(
            f"ANOMALY {anomaly['group']} {anomaly['claim']} {anomaly['error']}\n")
    for err in report["input_errors"]:
        lines.append(f"INPUT ERROR {err['path']}: {err['error']}\n")
    for label in summary["conjecture_events"]:
        lines.append(f"CONJECTURE EVENT {label}: no divisibility matching\n")
    return "".join(lines)


def _run_match(args) -> int:
    group = _resolve_group(args.group)
    profile = order_profile(group)
    matching = matching_as_json(profile)
    found = matching["status"] == "found"
    solvable = is_solvable(group)
    payload = {"group": group.label, "order": group.order, **matching,
               "is_solvable": solvable}
    if args.format == "json":
        output = payload
    else:
        status, lines = matching["status"], []
        if found:
            status += " and verified" if matching["verified"] else " but FAILED verification"
            for d, row in matching["assignment"].items():
                for e, count in row.items():
                    lines.append(f"  {count} element(s) of order {d} -> slots of C{e}\n")
        else:
            blockers = matching["violator"]
            demand = sum(profile.counts[d] for d in blockers)
            slots = [e for e in divisors(group.order)
                     if any(e % d == 0 for d in blockers)]
            capacity = sum(totient(e) for e in slots)
            lines.append(f"  blocking orders {blockers}: "
                         f"{demand} elements but only {capacity} cyclic slots\n")
            if not solvable:
                lines.append("  group is not solvable; recorded as a conjecture event,"
                             " not a violation\n")
        output = f"group {group.label} (order {group.order}): {status}\n" + "".join(lines)
    _emit(output, args.out)
    return 0 if _matching_verdict(group, matching).consistent else 1


def _run_example(args) -> int:
    parts = semidirect_label_parts(args.group.strip())
    if parts is None:
        raise ValueError(
            f"{args.group!r} is not an inversion semidirect label of the form"
            " C{m}:C{2^u * beta} with odd m"
        )
    m, beta, u = parts
    verdict = check_semidirect_count(m, beta, u, grid=args.grid)
    order = m * beta * 2**u
    payload = verdict_as_json(verdict)
    if args.format == "json":
        output = payload
    else:
        surplus = divisor_count(beta) * (m - divisor_count(m))
        output = _kv_table([
            ("group", verdict.group),
            ("order", order),
            ("divisor floor", divisor_count(order)),
            ("cyclic subgroup surplus", surplus),
            ("expected count", divisor_count(order) + surplus),
            ("checks", verdict.witness),
            ("closed-form excess grid", f"[-{args.grid}, {args.grid}]^2"),
            ("consistent", verdict.consistent),
        ])
    _emit(output, args.out)
    return 0 if verdict.consistent else 1


def _run_ingest(args) -> int:
    rows, errors = [], []
    for path in args.files:
        try:
            group = load_group_file(path)
        except ValueError as exc:
            errors.append({"path": path, "error": str(exc)})
            continue
        profile = order_profile(group)
        rows.append({
            "path": path,
            "label": group.label,
            "order": group.order,
            "profile": {str(d): c for d, c in profile.counts.items()},
        })
    if args.format == "json":
        output = {"groups": rows, "errors": errors}
    else:
        lines = []
        for row in rows:
            counts = " ".join(f"{d}:{c}" for d, c in sorted(
                row["profile"].items(), key=lambda kv: int(kv[0])))
            lines.append(f"OK {row['path']}: {row['label']} order {row['order']}"
                         f" profile {counts}\n")
        for err in errors:
            lines.append(f"ERROR {err['path']}: {err['error']}\n")
        output = "".join(lines)
    _emit(output, args.out)
    return 2 if errors else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orderinv",
        description="Order-profile invariants of finite groups, with a claim"
        " verification sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_format: str) -> None:
        p.add_argument("--format", choices=("json", "table"), default=default_format,
                       help=f"output format (default: {default_format})")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write output to FILE instead of stdout")

    p = sub.add_parser("compute", help="order profile and invariants of one group")
    p.add_argument("--group", required=True,
                   help="catalog label (S4, C3:C10, C2xC6, ...) or a group JSON file")
    p.add_argument("--n", type=_positive_int, default=None,
                   help="restrict to divisors of n (default: the group order)")
    p.add_argument("--r", type=_exponent, default=1, help="totient exponent (default 1)")
    p.add_argument("--s", type=_exponent, default=0, help="order exponent (default 0)")
    # -1/2, -1e0, -.5 are values, not options: argparse alone reads only -N, -N.M
    p._negative_number_matcher = re.compile(r"-\.?\d")
    common(p, "table")
    p.set_defaults(run=_run_compute)

    p = sub.add_parser("verify", help="sweep every claim over a catalog of groups")
    p.add_argument("--catalog", default="default",
                   help="'default' or a catalog spec JSON file")
    p.add_argument("--order-cap", type=_positive_int, default=None,
                   help=f"largest group order to include (default {DEFAULT_ORDER_CAP})")
    p.add_argument("--grid", type=_grid, default=DEFAULT_GRID_BOUND,
                   help="exponent bound G for the [-G, G]^2 sweeps (default"
                   f" {DEFAULT_GRID_BOUND})")
    p.add_argument("--claims", default=None,
                   help="comma separated claim ids to run (default: all)")
    p.add_argument("--paranoid", action="store_true",
                   help="fully re-validate constructed Cayley tables")
    common(p, "json")
    p.set_defaults(run=_run_verify)

    p = sub.add_parser("match", help="match elements to cyclic-subgroup slots by"
                       " divisibility")
    p.add_argument("--group", required=True,
                   help="catalog label or a group JSON file")
    common(p, "table")
    p.set_defaults(run=_run_match)

    p = sub.add_parser("example", help="inversion semidirect products: subgroup"
                       " counts and excess, closed form vs brute force")
    p.add_argument("--group", default="C3:C10",
                   help="semidirect label C{m}:C{2^u * beta} (default C3:C10)")
    p.add_argument("--grid", type=_grid, default=DEFAULT_GRID_BOUND,
                   help="exponent bound for the closed-form comparison")
    common(p, "table")
    p.set_defaults(run=_run_example)

    p = sub.add_parser("ingest", help="validate group files and show their profiles")
    p.add_argument("files", nargs="+", metavar="FILE")
    common(p, "table")
    p.set_defaults(run=_run_ingest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (EqualityRouteMismatch, FrobeniusViolated) as exc:
        print(f"anomaly: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
