"""Traced run of one benchmark command, in its own process.

Usage: python3 bench/stages.py '<json task>' with ``src`` on PYTHONPATH,
where the task is ``{"trace": id, "command": name, "spec": text}``.
It prints two lines: the result (payload, per-layer values, cache
statistics) and then the spans, which the benchmark writes out unparsed.

Instead of going through the CLI, this calls each module's public functions
in pipeline order (parse, realize, cyclic structure, element classes, the
normal-subgroup lattice, quotients, theorems, suites).  Results are
``lru_cache``d, so calling the stages in dependency order makes each span
that stage's own cost.  The stage functions are wrapped in every
``maxcyc`` module namespace, so calls one stage makes into another become
child spans, and ``Permutation`` products are counted.  Spans stay in
memory; the process prints them at the end.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import maxcyc
from layers import CACHED, process_metrics
from maxcyc import cli, constructors, core, corpus, cyclic, theorems
from maxcyc.perm import Permutation

MODULES = (maxcyc, cli, constructors, core, corpus, cyclic, theorems)

# Functions that get a span, with how to size a result for the count metrics.
TRACED = {
    "constructors.parse_spec": None,
    "constructors.realize": len,
    "cyclic._cyclic_index": lambda result: len(result[0]),
    "cyclic.cyclic_subgroups": None,
    "cyclic.g_minus_via_powers": None,
    "cyclic.maximal_cyclic_subgroups": len,
    "cyclic.g_minus": None,
    "cyclic.conjugacy_classes_of_subgroups": None,
    "cyclic.eta": None,
    "core.conjugacy_classes": None,
    "core.normal_subgroups": len,
    "core.quotient_group": lambda result: 1,
    "theorems.compute_X": None,
    "theorems.check_quot_conditions": None,
    "theorems.gk_graph": None,
}


class Tracer:
    """The spans of one command, kept in memory until the process ends."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def span(self, name: str, fn, *args, size=None, **kwargs):
        """Run fn as a span, recording size(result) as the span's work count.

        A call answered from an ``lru_cache`` does no work and leaves no span.
        """
        info = getattr(fn, "cache_info", None)
        misses = info().misses if info else None
        span = {
            "id": len(self.spans),
            "name": name,
            "trace": self.trace_id,
            "parent": self.stack[-1] if self.stack else None,
        }
        self.spans.append(span)
        self.stack.append(span["id"])
        span["rss0"] = _maxrss_mb()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            span["rss1"] = _maxrss_mb()
            self.stack.pop()
        if info and info().misses == misses:
            self.spans.pop()
        elif size is not None:
            span["n"] = size(result)
        return result

    def wrap(self, qualname: str, size) -> None:
        """Replace a stage function in every maxcyc namespace that binds it."""
        module_name, attr = qualname.split(".")
        fn = getattr(globals()[module_name], attr, None)
        if fn is None:
            return

        def traced(*args, **kwargs):
            return self.span(qualname, fn, *args, size=size, **kwargs)

        traced.__wrapped__ = fn
        for mod in MODULES:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, traced)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def count_perm_calls() -> dict[str, list[int]]:
    counts = {"mul": [0], "conjugate": [0], "pow": [0]}
    for attr, key in (("__mul__", "mul"), ("conjugate_by", "conjugate"), ("__pow__", "pow")):
        orig = getattr(Permutation, attr)
        cell = counts[key]

        def counted(self, other, _orig=orig, _cell=cell):
            _cell[0] += 1
            return _orig(self, other)

        setattr(Permutation, attr, counted)
    return counts


def cyclic_stages(G):
    """Cyclic index, the G^- power map, the maximal-cyclic scan, then classes."""
    cyclic.cyclic_subgroups(G)
    cyclic.g_minus_via_powers(G)
    cyclic.maximal_cyclic_subgroups(G)
    cyclic.g_minus(G)
    return cyclic.eta(G)


def realize(text: str):
    return constructors.realize(constructors.parse_spec(text))


def run_eta(text: str) -> dict:
    G = realize(text)
    rep = cyclic_stages(G)
    return {
        "order": G.order, "eta": rep.eta, "l": rep.l_value, "gminus_size": rep.gminus_size,
        "classes": [{"subgroup_order": o, "class_size": s} for o, s in rep.class_reps],
    }


def run_gkgraph(text: str) -> dict:
    graph = theorems.gk_graph(realize(text))
    return {
        "vertices": list(graph.vertices),
        "edges": [list(e) for e in graph.edges],
        "components": graph.component_count(),
    }


def run_normals(text: str) -> dict:
    G = realize(text)
    core.conjugacy_classes(G)
    return {"normal_subgroups": [{"order": N.order} for N in core.normal_subgroups(G)]}


def run_xsub(text: str) -> dict:
    G = realize(text)
    core.conjugacy_classes(G)
    normals = core.normal_subgroups(G)
    cyclic_stages(G)
    for M in normals:
        if M.order < G.order:
            cyclic_stages(core.quotient_group(G, M)[0])
    X = theorems.compute_X(G)
    return {
        "x_order": X.order,
        "eta_g": cyclic.eta(G).eta,
        "eta_g_mod_x": cyclic.eta(core.quotient_group(G, X)[0]).eta,
        "cyclic": core.is_cyclic(X),
    }


def run_verify(tracer: Tracer) -> dict:
    """The serial ``maxcyc verify`` loop, with the shared stages first."""
    entries = corpus.parse_corpus(corpus.default_corpus_text())
    instances = []
    for entry in entries:
        inst = corpus.realize_entry(entry)
        core.conjugacy_classes(inst.group)
        core.normal_subgroups(inst.group)
        cyclic_stages(inst.group)
        instances.append(inst)
    reports = []
    for name, fn in corpus.SUITES.items():
        found = tracer.span(f"corpus.suite.{name}", lambda: [fn(i) for i in instances])
        reports.extend(r for r in found if r is not None)
    return {"reports": len(reports), "failed": sum(not r.passed for r in reports)}


RUNNERS = {"eta": run_eta, "gkgraph": run_gkgraph, "normals": run_normals, "xsub": run_xsub}


def main(task: dict) -> tuple[dict, list[dict]]:
    tracer = Tracer(task["trace"])
    for qualname, size in TRACED.items():
        tracer.wrap(qualname, size)
    counts = count_perm_calls()
    if task["command"] == "verify":
        payload = run_verify(tracer)
    else:
        payload = RUNNERS[task["command"]](task["spec"])
    caches = {}
    for name in CACHED:
        fn = getattr(core, name, None) or getattr(cyclic, name, None)
        while fn is not None and not hasattr(fn, "cache_info"):
            fn = getattr(fn, "__wrapped__", None)
        if fn is not None:
            caches[name] = [fn.cache_info().hits, fn.cache_info().misses]
    perm = {key: cell[0] for key, cell in counts.items()}
    result = {
        "payload": payload,
        "metrics": process_metrics(tracer.spans, perm, payload),
        "caches": caches,
    }
    return result, tracer.spans


if __name__ == "__main__":
    result, spans = main(json.loads(sys.argv[1]))
    print(json.dumps(result))
    print(json.dumps(spans))
