"""Command-line front end.

Subcommands: eta, normals, quot, xsub, gminus, gkgraph, verify.  Output is
deterministic: identical invocations produce byte-identical output.  Exit
codes: 0 success, 1 verification failure, 2 usage/parse/realization error.
Each command imports what it runs: :mod:`maxcyc.theorems` for quot, xsub
and gkgraph, :mod:`maxcyc.corpus` for verify alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Iterable

from .core import (
    DEFAULT_DEGREE_CAP,
    DEFAULT_ORDER_CAP,
    Group,
    is_cyclic,
    named_normal,
    normal_lattice,
)
from .constructors import parse_spec, realize
from .cyclic import eta, g_minus, quotient_eta
from .errors import MaxcycError

CORPUS_ENV = "MAXCYC_CORPUS"


def _common_flags(p: argparse.ArgumentParser, run: Callable[[argparse.Namespace], int]) -> None:
    """The flags every command takes, and `run`, the function that carries it out."""
    p.set_defaults(run=run)
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default text)")
    p.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP,
                   help="largest allowed group order when realizing specs")
    p.add_argument("--degree-cap", type=int, default=DEFAULT_DEGREE_CAP,
                   help="largest allowed permutation degree when realizing specs")


class _WholeWords(argparse.HelpFormatter):
    """Wraps help at spaces only, so that no suite name breaks at a hyphen."""

    def _split_lines(self, text: str, width: int) -> list[str]:
        import textwrap  # as argparse does: only help output needs it
        return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)


def build_parser(suites: Iterable[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxcyc",
        description="Maximal cyclic subgroup invariants of finite permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eta", help="eta, l, |G^-| and the maximal cyclic classes")
    p.add_argument("spec", help="group spec, e.g. 'S(3) x D(10)'")
    _common_flags(p, cmd_eta)

    p = sub.add_parser("normals", help="list every normal subgroup")
    p.add_argument("spec")
    _common_flags(p, cmd_normals)

    p = sub.add_parser("quot", help="quotient conditions for one normal subgroup")
    p.add_argument("spec")
    p.add_argument("--order", type=int, required=True, help="order of the normal subgroup")
    p.add_argument("--index", type=int, default=0, help="index among that order (default 0)")
    _common_flags(p, cmd_quot)

    p = sub.add_parser("xsub", help="largest eta-preserving normal subgroup of a p-group")
    p.add_argument("spec")
    _common_flags(p, cmd_xsub)

    p = sub.add_parser("gminus", help="the set of non-generators of maximal cyclic subgroups")
    p.add_argument("spec")
    _common_flags(p, cmd_gminus)

    p = sub.add_parser("gkgraph", help="prime graph of the group")
    p.add_argument("spec")
    _common_flags(p, cmd_gkgraph)

    p = sub.add_parser("verify", help="run verification suites over a corpus",
                       formatter_class=_WholeWords)
    p.add_argument("--suite", action="append", default=None,
                   help="suite name (repeatable; default all); one of: "
                        + ", ".join(suites) + ", all")
    p.add_argument("--corpus", default=None,
                   help=f"corpus path (default ${CORPUS_ENV} or the bundled corpus)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    _common_flags(p, cmd_verify)

    return parser


def _realize(args: argparse.Namespace) -> Group:
    spec = parse_spec(args.spec)
    return realize(spec, order_cap=args.order_cap, degree_cap=args.degree_cap)


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def cmd_eta(args: argparse.Namespace) -> int:
    G = _realize(args)
    rep = eta(G)
    payload = {
        "order": G.order,
        "eta": rep.eta,
        "l": rep.l_value,
        "gminus_size": rep.gminus_size,
        "classes": [
            {"subgroup_order": o, "class_size": s} for o, s in rep.class_reps
        ],
    }
    lines = [
        f"group: {args.spec}",
        f"order: {G.order}",
        f"eta: {rep.eta}",
        f"l: {rep.l_value}",
        f"gminus_size: {rep.gminus_size}",
        "classes (subgroup order, class size): "
        + ", ".join(f"({o}, {s})" for o, s in rep.class_reps),
    ]
    _emit(args, payload, lines)
    return 0


def cmd_normals(args: argparse.Namespace) -> int:
    G = _realize(args)
    rows = [
        {"order": order, "index": idx,
         "generators": [g.cycle_string() for g in N.generators] or ["()"]}
        for (order, idx), N in normal_lattice(G).named.items()
    ]
    payload = {"order": G.order, "normal_subgroups": rows}
    lines = [f"{r['order']:>6}  {r['index']:>3}  {' '.join(r['generators'])}" for r in rows]
    lines.insert(0, f"{'order':>6}  {'idx':>3}  generators")
    _emit(args, payload, lines)
    return 0


def cmd_quot(args: argparse.Namespace) -> int:
    from .theorems import check_quot_conditions
    G = _realize(args)
    N = named_normal(G, args.order, args.index)
    rep = check_quot_conditions(G, N)
    payload = {
        "eta_g": rep.eta_g,
        "eta_quotient": rep.eta_q,
        "equal": rep.equal,
        "cond_a": rep.cond_a,
        "cond_b": rep.cond_b,
        "cond_c": rep.cond_c,
        "coset_union": rep.gminus_coset_union,
        "witnesses": {k: list(v) for k, v in rep.witnesses.items()},
    }
    lines = [
        f"eta(G): {rep.eta_g}",
        f"eta(G/N): {rep.eta_q}",
        f"equal: {rep.equal}",
        f"cond_a (N in G^-): {rep.cond_a}",
        f"cond_b (quotient non-generators are G^- cosets): {rep.cond_b}",
        f"cond_c (coset elements conjugate to generators): {rep.cond_c}",
        f"coset_union (G^- a union of N-cosets): {rep.gminus_coset_union}",
    ]
    for key, vals in sorted(rep.witnesses.items()):
        lines.append(f"witnesses[{key}]: {', '.join(vals)}")
    _emit(args, payload, lines)
    return 0


def cmd_xsub(args: argparse.Namespace) -> int:
    from .theorems import compute_X
    G = _realize(args)
    X = compute_X(G)
    e_g = eta(G).eta
    e_q = quotient_eta(G, X)
    gens = [g.cycle_string() for g in X.generators] or ["()"]
    x_cyclic = is_cyclic(X)
    payload = {
        "x_order": X.order,
        "generators": gens,
        "eta_g": e_g,
        "eta_g_mod_x": e_q,
        "cyclic": x_cyclic,
    }
    lines = [
        f"|X|: {X.order}",
        f"generators: {' '.join(gens)}",
        f"eta(G): {e_g}",
        f"eta(G/X): {e_q}",
        f"X cyclic: {x_cyclic}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_gminus(args: argparse.Namespace) -> int:
    G = _realize(args)
    elements = [g.cycle_string() for g in sorted(g_minus(G))]
    payload = {
        "order": G.order,
        "gminus_size": len(elements),
        "elements": elements,
    }
    lines = [
        f"order: {G.order}",
        f"gminus_size: {len(elements)}",
        "elements: " + ", ".join(elements),
    ]
    _emit(args, payload, lines)
    return 0


def cmd_gkgraph(args: argparse.Namespace) -> int:
    from .theorems import gk_graph
    G = _realize(args)
    graph = gk_graph(G)
    components = graph.component_count()
    payload = {
        "vertices": list(graph.vertices),
        "edges": [list(e) for e in graph.edges],
        "components": components,
    }
    lines = [
        "vertices: " + ", ".join(str(v) for v in graph.vertices),
        "edges: " + (", ".join(f"{a}-{b}" for a, b in graph.edges) or "none"),
        f"components: {components}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from pathlib import Path
    from .corpus import SUITES, default_corpus_text, parse_corpus, run_suites

    names = args.suite or ["all"]
    if "all" in names:
        names = list(SUITES)
    corpus_path = args.corpus or os.environ.get(CORPUS_ENV)
    text = Path(corpus_path).read_text("utf-8") if corpus_path else default_corpus_text()
    entries = parse_corpus(text)
    reports = run_suites(
        names,
        entries,
        order_cap=args.order_cap,
        degree_cap=args.degree_cap,
        jobs=args.jobs,
    )
    failures = 0
    for rep in reports:
        if args.format == "json":
            print(json.dumps(rep.to_dict()))
        else:
            mark = "PASS" if rep.passed else "FAIL"
            print(f"{mark} {rep.suite} {rep.instance}")
            if not rep.passed:
                for c in rep.checks:
                    if not c.passed:
                        print(f"     {c.name}: expected {c.expected!r}, got {c.actual!r}")
        if not rep.passed:
            failures += 1
    if args.format == "text":
        print(f"{len(reports) - failures}/{len(reports)} reports passed")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    suites: Iterable[str] = ()
    if argv[:1] == ["verify"]:  # the one parser that lists the suites
        from .corpus import SUITES as suites
    args = build_parser(suites).parse_args(argv)
    try:
        if args.order_cap < 1 or args.degree_cap < 1:
            raise ValueError("caps must be >= 1")
        if getattr(args, "jobs", 1) < 1:
            raise ValueError("jobs must be >= 1")
        return args.run(args)
    except (MaxcycError, OSError, ValueError) as exc:
        print(f"maxcyc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
