#!/usr/bin/env python3
"""Benchmark of the orderinv command line, end to end and per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs ``src/orderinv`` from
that checkout and writes only under ``perfbench/.work``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Workloads (one process sends one query at a time and waits for it):

* ``verify-cap256``: ``orderinv verify --order-cap 256`` again and again
  for S seconds (at least once).  The main user job: catalog build,
  records, the ten claims and the JSON report all do real work.  It has
  no seeded input.
* ``cli-oneshot``: fresh-process ``compute`` and ``match`` queries over a
  seeded pool of labels (see ``gen.oneshot_pool``), in passes, for S
  seconds and at least 100 queries.  Start-up cost dominates.
* ``ingest-untrusted``: one fresh ``orderinv ingest FILE`` per seeded file
  (see ``gen.ingest_files``), in passes, for S seconds.  The only path that
  validates untrusted tables.  One process per file, so a file that
  crashes the program takes no other file's verdict or timing with it.

With ``--trace 0`` it reports the end-to-end metrics, timed around child
processes: ``setup_s`` (median cold start of ``compute --group C1``),
``wall_s`` (median time of one pass), ``peak_rss_mb`` (largest max-RSS of
any workload child, from its own rusage) and ``query_p50_ms`` /
``query_p90_ms`` (latency of each invocation).  With ``--trace 1`` it runs
the same inputs in process (``trace.py``), once plain and once with layer
spans, and reports the per-layer metrics; layers a workload does not
reach read 0.

Every answer is checked against ``oracle``, which never uses orderinv.
``failed`` counts operations whose answer or exit code differs from the
oracle or from the exit codes README promises.  ``correct`` is false when
an answer about a well-formed input is wrong: a bad profile, a bad verify
summary, a valid group rejected or a non-group accepted.  The type-
malformed ingest files (float, null and bool table entries, degree <= 0,
float generators) must exit 2; where they do not, they count as failed,
listed by kind, without making the run incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import gen
import oracle

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
CLI = [sys.executable, "-m", "orderinv.cli"]

WORKLOADS = ("verify-cap256", "cli-oneshot", "ingest-untrusted")
CLAIMS = (
    "frobenius-divisibility", "min-cyclic-count", "gap-nonneg", "gap-diagonal",
    "gap-nonpos", "nilpotent-sign", "cyclic-part-equivalence", "order-product-max",
    "inversion-semidirect-count", "divisibility-matching",
)
FAMILIES = (
    "cyclic", "dihedral", "quaternion", "elementary_abelian", "symmetric",
    "semidirect", "prime_products", "alternating",
)
CACHES = (
    "numtheory._primes", "numtheory.factorize", "numtheory.divisors", "numtheory.totient",
    "numtheory._weight_exact", "order_stats.order_profile", "order_stats.cyclic_profile",
    "structure.enumerate_subgroups", "structure.is_cyclic", "structure.is_nilpotent",
    "structure.is_solvable", "report._matching_for",
)
# report SHA-256 pinned in ROADMAP.md for the default catalog
PINNED_REPORT_SHA256 = {
    64: "898709fe8211c59a64766435e26e81960e22284baa4803d6fc3bacef72338a5d",
    128: "f78949579b6e06ea42b3bf9529556be89fb3326f79c7314c9a0c67b1bee5aaa4",
}
SETUP_RUNS = 11
PROBE_RUNS = 5
MIN_QUERIES = 100     # so that at least 10 latencies lie above p90
BUDGET_S = 140.0      # start no new pass after this; a run must end within 180 s
CHILD_TIMEOUT_S = 120.0
WELL_FORMED_INGEST = ("valid-table", "permutations", "non-associative")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "query_p50_ms": "ms", "query_p90_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in BENCHMARK.json order, with its unit."""
    units = {"cli.import_s": "s", "numtheory.sieve_s": "s", "cli.main.self_s": "s",
             "catalog.build_s": "s"}
    units.update({f"groups.build_s.{f}": "s" for f in FAMILIES})
    units.update({
        "groups.table_cells": "count", "catalog.group_from_label_s": "s",
        "catalog.load_group_file_s": "s", "groups.validate_s": "s",
        "groups.assoc_triples": "count", "order_stats.order_profile_s": "s",
        "order_stats.frobenius_table_s": "s", "order_stats.profile_reuse_ratio": "ratio",
        "structure.is_nilpotent_s": "s", "structure.is_solvable_s": "s",
        "structure.count_cyclic_subgroups_s": "s", "structure.enumerate_subgroups_s": "s",
        "structure.subgroups": "count", "matching.find_s": "s", "matching.verify_s": "s",
    })
    units.update({f"theorems.claim_s.{c}": "s" for c in CLAIMS})
    units.update({f"theorems.claim_self_s.{c}": "s" for c in CLAIMS})
    units.update({f"theorems.verdicts.{c}": "count" for c in CLAIMS})
    units.update({
        "report.group_record_s": "s", "report.group_record.self_s": "s",
        "report.run_sweep_s": "s", "report.run_sweep.self_s": "s",
        "report.to_json_s": "s", "report.json_bytes": "bytes",
    })
    units.update({f"{c}.cache_hit_ratio": "ratio" for c in CACHES})
    units.update({"trace.unattributed_share": "ratio", "trace.overhead_ratio": "ratio",
                  "trace.spans": "count"})
    return units


# ------------------------------------------------------------ children

@dataclass
class Child:
    exit: int
    seconds: float
    max_rss_mb: float
    stdout: bytes
    stderr: bytes


def child_env(workers: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["ORDERINV_WORKERS"] = str(workers)
    return env


def run_child(argv: list[str], env: dict, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one process to completion; time it start to exit and take its
    own rusage from wait4.  Killed (and reaped) after ``timeout``."""
    with open(WORK / "child.out", "w+b") as out, open(WORK / "child.err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, seconds, usage.ru_maxrss / 1024, out.read(), err.read())


@dataclass
class Tally:
    """Operations attempted, and what went wrong with them, by kind."""

    attempted: int = 0
    failed: Counter = field(default_factory=Counter)
    wrong: int = 0
    notes: list = field(default_factory=list)

    def add(self, kind: str, problems: list[str], well_formed: bool = True) -> None:
        self.attempted += 1
        if problems:
            self.failed[kind] += 1
            self.wrong += well_formed
            note = f"{kind}: {'; '.join(problems)[:300]}"
            if len(self.notes) < 20 and note not in self.notes:
                self.notes.append(note)


def _json(text) -> dict | None:
    try:
        value = json.loads(text)
    except (ValueError, TypeError):
        return None
    return value if isinstance(value, dict) else None


# -------------------------------------------------------------- checks

def check_verify(exit_code: int, report_path: Path, shas: set) -> list[str]:
    if exit_code != 0:
        return [f"exit {exit_code}"]
    data = report_path.read_bytes()
    shas.add(hashlib.sha256(data).hexdigest())
    report = _json(data)
    if report is None:
        return ["report is not a JSON object"]
    return oracle.verify_mismatches(report, oracle.VERIFY_CAP256_SUMMARY)


def query_argv(label: str, query: tuple) -> list[str]:
    if query[0] == "compute":
        return ["compute", "--group", label, f"--r={query[1]}", f"--s={query[2]}",
                "--format", "json"]
    return ["match", "--group", label, "--format", "json"]


def check_query(label: str, query: tuple, exit_code: int, stdout) -> list[str]:
    payload = _json(stdout)
    if payload is None:
        return [f"exit {exit_code}, no JSON answer"]
    if query[0] == "compute":
        bad = oracle.compute_mismatches(payload, label, query[1], query[2])
        return bad + ([f"exit {exit_code}"] if exit_code != 0 else [])
    return oracle.match_mismatches(payload, exit_code, label)


def check_ingest(case: dict, exit_code: int, stdout) -> list[str]:
    if exit_code != case["expect_exit"]:
        return [f"exit {exit_code}, expected {case['expect_exit']}"]
    payload = _json(stdout)
    if payload is None:
        return ["no JSON answer"]
    if exit_code == 2:
        return [] if payload.get("errors") and not payload.get("groups") else ["no error listed"]
    groups = payload.get("groups") or [{}]
    got = {int(d): c for d, c in groups[0].get("profile", {}).items()}
    return [] if got == case["profile"] else ["profile"]


def ingest_kind(case: dict) -> tuple[str, bool]:
    return f"ingest:{case['kind']}", case["kind"] in WELL_FORMED_INGEST


# ----------------------------------------------------------- statistics

def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def provenance() -> dict:
    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = done.stdout.strip() or sha
    lines = sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "git_sha": sha, "src_lines": lines}


# ------------------------------------------------------- end to end

def end_to_end(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    env = child_env(len(os.sched_getaffinity(0)))
    setup_argv = CLI + ["compute", "--group", "C1"]
    run_child(setup_argv, env)  # the first start byte-compiles the sources
    setup, latencies, pass_times, rss = [], [], [], [0.0]
    start = time.perf_counter()

    def sample_setup(finish: bool = False) -> None:
        # cold starts are spread over the whole run, so their median sees
        # the machine the workload saw, not just its first second
        while len(setup) < SETUP_RUNS and (
                finish or time.perf_counter() - start >= len(setup) * seconds / SETUP_RUNS):
            child = run_child(setup_argv, env)
            if child.exit != 0 or b"C1" not in child.stdout:  # not a workload operation
                tally.add("setup", [f"exit {child.exit}"])
            setup.append(child.seconds)

    def more() -> bool:
        elapsed = time.perf_counter() - start
        if not pass_times:
            return True
        if elapsed + pass_times[-1] > BUDGET_S:
            return False
        return elapsed < seconds or (workload == "cli-oneshot" and len(latencies) < MIN_QUERIES)

    def timed(argv: list[str]) -> Child:
        sample_setup()
        child = run_child(CLI + argv, env)
        latencies.append(child.seconds)
        rss.append(child.max_rss_mb)
        return child

    if workload == "verify-cap256":
        report, shas = WORK / "report-256.json", set()
        while more():
            child = timed(["verify", "--order-cap", "256", "--out", str(report)])
            tally.add("verify", check_verify(child.exit, report, shas))
            pass_times.append(child.seconds)
        print(f"report sha256 at cap 256: {sorted(shas)}")
    elif workload == "cli-oneshot":
        pool = gen.oneshot_pool(seed)
        while more():
            before = len(latencies)
            for label, query in pool:
                child = timed(query_argv(label, query))
                tally.add(query[0], check_query(label, query, child.exit, child.stdout))
            pass_times.append(sum(latencies[before:]))
    else:
        cases = gen.ingest_files(seed, WORK / "ingest")
        while more():
            before = len(latencies)
            for case in cases:
                child = timed(["ingest", case["path"], "--format", "json"])
                kind, well_formed = ingest_kind(case)
                tally.add(kind, check_ingest(case, child.exit, child.stdout), well_formed)
            pass_times.append(sum(latencies[before:]))
    sample_setup(finish=True)
    print(f"passes {len(pass_times)}, invocations {len(latencies)}")
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(pass_times),
        "peak_rss_mb": max(rss),
        "query_p50_ms": 1000 * percentile(latencies, 0.5),
        "query_p90_ms": 1000 * percentile(latencies, 0.9),
    }


# ------------------------------------------------------------ traced

PROBE = (
    "import time; t0 = time.perf_counter(); import orderinv.cli; t1 = time.perf_counter(); "
    "from orderinv.numtheory import factorize; factorize(2); t2 = time.perf_counter(); "
    "print(t1 - t0, t2 - t1)"
)


def run_in_process(spec: dict, name: str) -> dict:
    spec_path, result_path = WORK / f"{name}.spec.json", WORK / f"{name}.result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    child = run_child([sys.executable, str(ROOT / "perfbench" / "trace.py"),
                       str(spec_path), str(result_path)], child_env(1), timeout=80)
    if child.exit != 0:
        raise RuntimeError(f"in-process {name} run exited {child.exit}: "
                           f"{child.stderr.decode(errors='replace')[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def traced(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    env = child_env(1)
    probes = []
    for _ in range(PROBE_RUNS):
        child = run_child([sys.executable, "-c", PROBE], env)
        if child.exit != 0:  # not a workload operation
            tally.add("probe", [f"exit {child.exit}"])
        probes.append([float(x) for x in child.stdout.split()] if child.exit == 0 else [0, 0])
    metrics = dict.fromkeys(per_layer_units(), 0.0)
    metrics["cli.import_s"] = statistics.median(p[0] for p in probes)
    metrics["numtheory.sieve_s"] = statistics.median(p[1] for p in probes)

    spec = {"workload": workload, "seconds": seconds / 2}
    if workload == "verify-cap256":
        spec["argv"] = ["verify", "--order-cap", "256", "--out", str(WORK / "report-256.json")]
    elif workload == "cli-oneshot":
        pool = gen.oneshot_pool(seed)
        spec["argvs"] = [query_argv(label, query) for label, query in pool]
        profiles = [oracle.label_facts(label)[0] for label in {label for label, _ in pool}]
    else:
        cases = gen.ingest_files(seed, WORK / "ingest")
        spec["argvs"] = [["ingest", c["path"], "--format", "json"] for c in cases]
        profiles = [tuple(sorted(c["profile"].items())) for c in cases if c["profile"]]
        metrics["groups.assoc_triples"] = sum(c["assoc_triples"] for c in cases)

    results = {}
    for mode in ("plain", "traced"):
        res = results[mode] = run_in_process(
            dict(spec, trace=mode == "traced", spans=str(WORK / f"spans-{workload}.json")), mode)
        if workload == "verify-cap256":
            problems = check_verify(res["outputs"][0]["exit"], WORK / "report-256.json", set())
            tally.add("verify", problems)
            report = {} if problems else json.loads((WORK / "report-256.json").read_bytes())
            profiles = [tuple(sorted(g["profile"].items())) for g in report.get("groups", [])]
        elif workload == "cli-oneshot":
            for (label, query), out in zip(pool * res["passes"], res["outputs"]):
                tally.add(query[0], check_query(label, query, out["exit"], out["stdout"]))
        else:
            for case, out in zip(cases * res["passes"], res["outputs"]):
                kind, well_formed = ingest_kind(case)
                tally.add(kind, check_ingest(case, out["exit"], out["stdout"]), well_formed)
    plain, res = results["plain"], results["traced"]
    total, own = res["total"], res["self"]
    metrics["order_stats.profile_reuse_ratio"] = len(profiles) / max(1, len(set(profiles)))
    metrics["cli.main.self_s"] = own.get("cli.main", 0.0)
    metrics["trace.unattributed_share"] = own.get("cli.main", 0.0) / total["cli.main"]
    metrics["trace.overhead_ratio"] = res["wall_per_pass"] / plain["wall_per_pass"] - 1
    metrics["trace.spans"] = res["spans"]
    metrics["groups.table_cells"] = res["table_cells"]
    metrics["structure.subgroups"] = res["subgroups"]
    metrics["report.json_bytes"] = res["json_bytes"]
    spans = {
        "catalog.build_s": "catalog.build",
        "catalog.group_from_label_s": "catalog.group_from_label",
        "catalog.load_group_file_s": "catalog.load_group_file",
        "groups.validate_s": "groups.validate",
        "order_stats.order_profile_s": "order_stats.order_profile",
        "order_stats.frobenius_table_s": "order_stats.frobenius_table",
        "structure.is_nilpotent_s": "structure.is_nilpotent",
        "structure.is_solvable_s": "structure.is_solvable",
        "structure.count_cyclic_subgroups_s": "structure.count_cyclic_subgroups",
        "structure.enumerate_subgroups_s": "structure.enumerate_subgroups",
        "matching.find_s": "matching.find",
        "matching.verify_s": "matching.verify",
        "report.group_record_s": "report.group_record",
        "report.run_sweep_s": "report.run_sweep",
        "report.to_json_s": "report.to_json",
    }
    spans.update({f"groups.build_s.{f}": f"groups.build.{f}" for f in FAMILIES})
    spans.update({f"theorems.claim_s.{c}": f"theorems.claim.{c}" for c in CLAIMS})
    for metric, span in spans.items():
        metrics[metric] = total.get(span, 0.0)
    for c in CLAIMS:
        metrics[f"theorems.claim_self_s.{c}"] = own.get(f"theorems.claim.{c}", 0.0)
        metrics[f"theorems.verdicts.{c}"] = res["verdicts"].get(c, 0)
    metrics["report.group_record.self_s"] = own.get("report.group_record", 0.0)
    metrics["report.run_sweep.self_s"] = own.get("report.run_sweep", 0.0)
    for c in CACHES:
        metrics[f"{c}.cache_hit_ratio"] = res["cache_hit_ratio"].get(c, 0.0)

    if workload == "verify-cap256":
        shas = {}
        for cap in sorted(PINNED_REPORT_SHA256):
            out = WORK / f"report-{cap}.json"
            child = run_child(CLI + ["verify", "--order-cap", str(cap), "--out", str(out)], env)
            shas[cap] = hashlib.sha256(out.read_bytes()).hexdigest() if child.exit == 0 else None
        print("report sha256 vs ROADMAP: " + json.dumps({
            cap: {"sha256": sha, "matches_pinned": sha == PINNED_REPORT_SHA256[cap]}
            for cap, sha in shas.items()}))
    print(f"trace: {res['spans']:.0f} spans per pass written to perfbench/.work/"
          f"spans-{workload}.json; in-process wall per pass plain {plain['wall_per_pass']:.3f} s,"
          f" traced {res['wall_per_pass']:.3f} s")
    return metrics


# --------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "orderinv" / "cli.py").is_file():
        print(f"error: no orderinv sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    print("provenance " + json.dumps(provenance()))

    tally = Tally()
    if args.trace:
        values = traced(args.workload, args.seed, args.seconds, tally)
        units = per_layer_units()
    else:
        values = end_to_end(args.workload, args.seed, args.seconds, tally)
        units = END_TO_END
    failed = sum(tally.failed.values())
    print(f"failed_ratio {failed / tally.attempted:.6f}; failed by kind: "
          + json.dumps(dict(sorted(tally.failed.items()))))
    for note in tally.notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
