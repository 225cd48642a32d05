"""In-process runs of one workload, with or without layer spans.

Run as a child of ``run.py`` with ``src`` on PYTHONPATH:

    python3 perfbench/trace.py SPEC.json RESULT.json

SPEC names the workload, its inputs and whether to trace.  The child
drives ``orderinv.cli.main`` exactly as the command line would.  When
tracing, it first rebinds public functions of each orderinv module (and
the per-family catalog builder) to wrappers that record a span (name,
start, end, parent) in memory; nothing in ``src/`` changes.  Spans are
written to SPEC["spans"] once the run ends, and RESULT gets the outputs
for the parent's oracle checks plus per-pass layer totals.

The ``verify`` thread pool is pinned to one worker by the parent, so
spans opened on the pool thread nest under the sweep span instead of
overlapping it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute) -> span name; a callable name is given the call's args
_NAMED = {
    ("catalog", "build_catalog"): "catalog.build",
    ("catalog", "_build_family"): lambda a, k: f"groups.build.{a[0] if a else k.get('name')}",
    ("catalog", "group_from_label"): "catalog.group_from_label",
    ("catalog", "load_group_file"): "catalog.load_group_file",
    ("groups", "from_cayley_table"): "groups.validate",
    ("groups", "from_permutations"): "groups.validate",
    ("order_stats", "order_profile"): "order_stats.order_profile",
    ("order_stats", "frobenius_table"): "order_stats.frobenius_table",
    ("structure", "is_nilpotent"): "structure.is_nilpotent",
    ("structure", "is_solvable"): "structure.is_solvable",
    ("structure", "count_cyclic_subgroups"): "structure.count_cyclic_subgroups",
    ("structure", "enumerate_subgroups"): "structure.enumerate_subgroups",
    ("matching", "find_divisibility_matching"): "matching.find",
    ("matching", "verify_matching"): "matching.verify",
    ("report", "evaluate_claim"): lambda a, k: f"theorems.claim.{a[1] if len(a) > 1 else k.get('claim')}",
    ("report", "group_record"): "report.group_record",
    ("report", "run_sweep"): "report.run_sweep",
}
# spans whose result holds groups (their table cells are counted)
_GROUP_SOURCES = ("catalog.build", "catalog.group_from_label", "catalog.load_group_file")


class Tracer:
    """Spans kept in memory as [name id, start, end, parent index, nested]."""

    def __init__(self):
        self.names: dict[str, int] = {}
        self.spans: list[list] = []
        self.outer = -1  # innermost open span of the main thread
        self.verdicts: Counter = Counter()
        self.subgroups = 0
        self.json_bytes = 0
        self.groups: list = []
        self._local = threading.local()
        self._subgroup_sets: dict[int, tuple] = {}  # holds them, so ids stay unique

    def _state(self):
        state = self._local.__dict__
        if "stack" not in state:
            state["stack"], state["active"] = [], Counter()
        return state["stack"], state["active"]

    def open(self, name: str) -> int:
        stack, active = self._state()
        nid = self.names.setdefault(name, len(self.names))
        idx = len(self.spans)
        parent = stack[-1] if stack else self.outer
        self.spans.append([nid, time.perf_counter(), 0.0, parent, active[nid] > 0])
        stack.append(idx)
        active[nid] += 1
        if threading.current_thread() is threading.main_thread():
            self.outer = idx
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        stack, active = self._state()
        stack.pop()
        active[span[0]] -= 1
        if threading.current_thread() is threading.main_thread():
            self.outer = stack[-1] if stack else -1

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.observe(label, idx, result)
            return result

        return traced

    def observe(self, label: str, idx: int, result) -> None:
        if label.startswith("theorems.claim."):
            self.verdicts[label.rsplit(".", 1)[1]] += len(result)
        elif label == "structure.enumerate_subgroups":
            if id(result) not in self._subgroup_sets:  # cached results count once
                self._subgroup_sets[id(result)] = result
                self.subgroups += len(result)
        elif label in _GROUP_SOURCES and not self.spans[idx][4]:
            self.groups.extend(result if isinstance(result, list) else [result])

    def summary(self) -> tuple[dict, dict]:
        """Inclusive seconds per span name (outermost spans of a name only,
        so recursion is not counted twice) and self seconds per name."""
        names = {nid: name for name, nid in self.names.items()}
        covered = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total, own = defaultdict(float), defaultdict(float)
        for i, (nid, start, end, _, nested) in enumerate(self.spans):
            if not nested:
                total[names[nid]] += end - start
            own[names[nid]] += end - start - covered[i]
        return total, own

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": sorted(self.names, key=self.names.get),
                       "fields": ["name", "start", "end", "parent"],
                       "spans": [s[:4] for s in self.spans]}, handle)


def _lru_caches() -> dict[str, object]:
    """Every functools.lru_cache defined in an orderinv module, by
    'module.qualname' with the package prefix dropped."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("orderinv.") or module is None:
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == modname:
                out[f"{modname[len('orderinv.'):]}.{value.__qualname__}"] = value
    return out


def _instrument(tracer: Tracer) -> None:
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "orderinv" or n.startswith("orderinv."))]
    for (modname, attr), name in _NAMED.items():
        original = getattr(sys.modules.get(f"orderinv.{modname}"), attr, None)
        if original is None:
            continue  # the layer is gone; its metrics read 0
        wrapper = tracer.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    report_cls = getattr(sys.modules.get("orderinv.report"), "Report", None)
    if report_cls is not None and hasattr(report_cls, "to_json"):
        to_json = report_cls.to_json

        def traced_to_json(self):
            idx = tracer.open("report.to_json")
            try:
                text = to_json(self)
            finally:
                tracer.close(idx)
            tracer.json_bytes += len(text.encode("utf-8"))
            return text

        report_cls.to_json = traced_to_json


def _table_cells(group) -> int:
    """Cells of a materialised Cayley table (a lazily built table that was
    never built counts 0)."""
    try:
        return group.order**2 if "mul" in vars(group) else 0
    except TypeError:  # no instance dict: count the dense table
        return group.order**2


def _call_main(main, argv: list[str], tracer: Tracer | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    idx = tracer.open("cli.main") if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:  # noqa: BLE001 - an uncaught error exits 1, as on the command line
        code = 1
    finally:
        if tracer:
            tracer.close(idx)
    return {"exit": code, "stdout": out.getvalue()}


def run(spec: dict) -> dict:
    import orderinv.cli

    caches = _lru_caches()
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        _instrument(tracer)
    cache_stats = defaultdict(lambda: [0, 0])

    def drain_caches() -> None:
        # a fresh process starts with empty caches; so does each query here
        for key, fn in caches.items():
            info = fn.cache_info()
            cache_stats[key][0] += info.hits
            cache_stats[key][1] += info.misses
            fn.cache_clear()

    outputs, passes = [], 0
    start = time.perf_counter()
    if spec["workload"] == "verify-cap256":
        outputs.append(_call_main(orderinv.cli.main, spec["argv"], tracer))
        passes = 1
    else:
        while passes == 0 or time.perf_counter() - start < spec["seconds"]:
            for argv in spec["argvs"]:
                drain_caches()
                outputs.append(_call_main(orderinv.cli.main, argv, tracer))
            passes += 1
    wall = time.perf_counter() - start
    drain_caches()
    result = {"wall_per_pass": wall / passes, "passes": passes, "outputs": outputs}
    if tracer:
        total, own = tracer.summary()
        result.update({
            "total": {k: v / passes for k, v in total.items()},
            "self": {k: v / passes for k, v in own.items()},
            "verdicts": {k: v / passes for k, v in tracer.verdicts.items()},
            "subgroups": tracer.subgroups / passes,
            "json_bytes": tracer.json_bytes / passes,
            "table_cells": sum(_table_cells(g) for g in tracer.groups) / passes,
            "spans": len(tracer.spans) / passes,
            "cache_hit_ratio": {
                k: (h / (h + m) if h + m else 0.0) for k, (h, m) in cache_stats.items()
            },
        })
        tracer.dump(spec["spans"])
    return result


if __name__ == "__main__":
    spec_path, result_path = sys.argv[1:3]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    Path(result_path).write_text(json.dumps(run(spec)), encoding="utf-8")
