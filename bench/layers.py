"""Per-layer metric definitions of the benchmark, and their reduction from spans.

Standard library only, so that the benchmark's own process stays small: a
process it starts inherits its current RSS as the floor of ``ru_maxrss``.
"""

from __future__ import annotations

from collections import defaultdict

# Per-layer stages: metric stem and the spans whose self time it sums.
STAGES = (
    ("constructors.parse", ("constructors.parse_spec",)),
    ("constructors.realize", ("constructors.realize",)),
    ("cyclic.subgroups", ("cyclic._cyclic_index", "cyclic.cyclic_subgroups")),
    ("cyclic.powers", ("cyclic.g_minus_via_powers",)),
    ("cyclic.maxscan", ("cyclic.maximal_cyclic_subgroups", "cyclic.g_minus")),
    ("cyclic.classes", ("cyclic.conjugacy_classes_of_subgroups", "cyclic.eta")),
    ("core.elem_classes", ("core.conjugacy_classes",)),
    ("core.normals", ("core.normal_subgroups",)),
    ("core.quotient", ("core.quotient_group",)),
    ("theorems.compute_X", ("theorems.compute_X",)),
    ("theorems.check_quot", ("theorems.check_quot_conditions",)),
    ("theorems.gk_graph", ("theorems.gk_graph",)),
)

SUITE_NAMES = (
    "values", "dirproduct", "frobenius", "centre", "pgrp-lemma",
    "gminus-containment", "gminus-subgroup", "quot", "products-join", "xsub",
    "derived", "exp-bound", "eitheror", "l-relation", "first-main", "gk-graph",
)

# Work counts: metric name and the span whose result size it sums.
COUNTS = {
    "constructors.elements": "constructors.realize",
    "cyclic.subgroups": "cyclic._cyclic_index",
    "cyclic.maximal": "cyclic.maximal_cyclic_subgroups",
    "core.normals": "core.normal_subgroups",
    "core.quotients": "core.quotient_group",
}

# Every lru_cache'd function at the parent commit of the benchmark.
CACHED = (
    "conjugacy_classes", "quotient_group", "center", "derived_subgroup",
    "normal_subgroups", "exponent", "_cyclic_index", "g_minus_via_powers",
    "maximal_cyclic_subgroups", "g_minus", "eta",
)


def _stage_names() -> dict[str, tuple[str, str]]:
    """Span name -> (time metric, memory metric)."""
    out = {}
    for stem, names in STAGES:
        for name in names:
            out[name] = (f"{stem}_s", f"mem.{stem.split('.')[1]}_mb")
    for suite in SUITE_NAMES:
        out[f"corpus.suite.{suite}"] = (f"corpus.suite.{suite}_s", "mem.suites_mb")
    return out


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    units = {f"{stem}_s": "s" for stem, _ in STAGES}
    units.update({f"corpus.suite.{suite}_s": "s" for suite in SUITE_NAMES})
    units.update({name: "count" for name in COUNTS})
    units.update({f"perm.{key}_calls": "count" for key in ("mul", "conjugate", "pow")})
    units.update({"corpus.reports": "count", "corpus.reports_failed": "count"})
    units.update({f"corpus.cache.{name}.hit_ratio": "ratio" for name in CACHED})
    for _, mem in _stage_names().values():
        units[mem] = "MB"
    units.update({"trace.overhead_s": "s", "trace.spans": "count"})
    return units


def process_metrics(spans: list[dict], perm: dict[str, int], payload: dict) -> dict[str, float]:
    """Reduce one process's spans to per-layer values.

    Stage times and memory are self values: a span's duration (or max-RSS
    growth) minus that of its child spans.  A suite's time and memory include
    the stage spans inside it, since the shared stages ran before the suites.
    Memory metrics are to be combined across processes by max, everything
    else by sum.
    """
    child_time: dict[int, float] = defaultdict(float)
    child_mem: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
            child_mem[s["parent"]] += s["rss1"] - s["rss0"]
    stage_of = _stage_names()
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if s["name"] in stage_of:
            time_key, mem_key = stage_of[s["name"]]
            suite = s["name"].startswith("corpus.suite.")
            out[time_key] += s["end"] - s["start"] - (0 if suite else child_time[s["id"]])
            out[mem_key] += s["rss1"] - s["rss0"] - (0 if suite else child_mem[s["id"]])
    for metric, name in COUNTS.items():
        out[metric] = sum(s.get("n", 0) for s in spans if s["name"] == name)
    for key, calls in perm.items():
        out[f"perm.{key}_calls"] = calls
    out["corpus.reports"] = payload.get("reports", 0)
    out["corpus.reports_failed"] = payload.get("failed", 0)
    out["trace.spans"] = len(spans)
    return out
