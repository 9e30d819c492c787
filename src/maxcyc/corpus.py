"""Corpus loading and the verification suite runner.

A corpus is a line-oriented file of records ``spec ; key=value ; ...``
('#' starts a comment).  Each suite is one row of ``_ROWS``: whether its
laws apply to an entry, asked before any of them runs, and the laws, each
computed in :mod:`maxcyc.theorems`, which decides and guards every
hypothesis on the group.  This layer only selects and labels.  Each suite
yields one :class:`VerifyReport` per (suite, entry), built in one place:
the checks of the laws where they apply, then one check per expectation
of the entry that the suite checks, as :data:`KEYS` names them.  Selector
keys such as ``quot_eta[5,0]`` address the normal subgroup of order 5 at
index 0 in the deterministic ordering of
:func:`maxcyc.core.normal_subgroups`.

Negative controls pass by failing: an entry marked ``frobenius=9:notfrob``
passes its suite exactly when the Frobenius verification rejects it.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Callable, Iterable, NamedTuple

from .constructors import DirectProductSpec, GroupSpec, parse_spec, realize
from .core import (
    DEFAULT_DEGREE_CAP,
    DEFAULT_ORDER_CAP,
    Group,
    join,
    named_normal,
    normal_lattice,
    normal_subgroups,
    point_stabilizer,
)
from .cyclic import eta, eta_preserving_normals, eta_star, quotient_eta
from .errors import CorpusError, InternalCheckError, MaxcycError, NotFrobenius
from .theorems import (
    Check,
    check_centre_bounds,
    check_derived_criterion,
    check_dirproduct_laws,
    check_eitheror,
    check_exp_bound,
    check_first_main,
    check_frobenius_eta,
    check_gk_graph,
    check_gminus_containment,
    check_gminus_subgroup_lemma,
    check_l_relation,
    check_pgrp_lemma,
    check_quot_conditions,
    check_quotient_join,
    check_xsub,
    classify_prime_order_group,
    compute_X,
    gk_graph,
    in_derived,
    is_exponent_p_group,
    is_noncyclic_p_group,
    is_nontrivial,
    noncyclic_sylows_of_abelianization,
    quot_report_checks,
    x_cyclic,
)

# Selector integers have no leading zeros, so each selector has one spelling
# and a repeated selector is a repeated key.
_SELECTOR_RE = re.compile(r"^([a-z_]+)\[((?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*)\]$")


def _kernel_and_mode(value: str) -> tuple[int, str]:
    order, _, mode = value.partition(":")
    return int(order), mode


def _kernel_and_complement(inst: Instance) -> tuple[Group, Group]:
    """The frobenius suite's kernel, the first normal of the order that the
    entry's ``frobenius`` value names, and its complement, the stabilizer of
    point 0, which G holds, so that eta of it is computed once.  A kernel
    order that names no normal subgroup is an error naming the key."""
    G = inst.group
    try:
        N = named_normal(G, inst.entry.expect["frobenius"][0], 0)
    except MaxcycError as exc:
        raise MaxcycError(f"frobenius: {exc}") from exc
    return N, point_stabilizer(G, 0)


def _frobenius_gap(inst: Instance) -> int:
    G = inst.group
    N, H = _kernel_and_complement(inst)
    return eta_star(G, N) + eta(H).eta - eta(G).eta


def _classify(inst: Instance) -> str:
    """The class of G, as a group with all element orders prime, in the
    spelling of the ``classify`` key."""
    G = inst.group
    c = classify_prime_order_group(G, normal_subgroups(G)[0])
    spelling = {"exponent_p": f"p:{c.p}", "frobenius_pq": f"frob:{c.p}:{c.q}", "a5": "a5"}
    return spelling.get(c.kind, "composite")


def _edges(inst: Instance) -> str:
    return ":".join(f"{a}-{b}" for a, b in gk_graph(inst.group).edges) or "none"


# The form of each key's value: what it must look like, and how it is read.
# Each value is checked and read as its record is read, so that a bad value
# is an error even where its suite does not apply, and the suites compare
# the values read.
_INTEGER = ("an integer", re.compile(r"-?[0-9]+"), int)
_FLAG = ("0 or 1", re.compile(r"[01]"), "1".__eq__)
_INTEGERS = ("integers joined by ':'", re.compile(r"-?[0-9]+(?::-?[0-9]+)*"),
             lambda value: sorted(map(int, value.split(":"))))
_TEXT = ("text", re.compile(r".*"), str)

# The corpus keys (``tag`` aside), in the order their suites check them.
# Each row holds the number of integers in the key's brackets (0 for a plain
# key), the form of its value, the suite that checks it, the name of that
# check (a selector key names its check itself), and how the actual value is
# read from the instance and the normals its selector names.  The readers
# call what the suite's laws computed and G holds: eta, the prime graph,
# X(G), the normals, the Frobenius complement.  ``frobenius`` is no
# expectation but the frobenius suite's switch and kernel, which
# ``frob_gap`` needs.
KEYS: dict[str, tuple] = {
    "eta": (0, _INTEGER, "values", "eta", lambda inst: eta(inst.group).eta),
    "l": (0, _INTEGER, "values", "l", lambda inst: eta(inst.group).l_value),
    "gminus": (0, _INTEGER, "values", "gminus_size", lambda inst: eta(inst.group).gminus_size),
    "maxcyc": (0, _INTEGERS, "values", "maxcyc_class_orders",
               lambda inst: sorted(o for o, _ in eta(inst.group).class_reps)),
    "normals": (0, _INTEGERS, "values", "normal_subgroup_orders",
                lambda inst: sorted(N.order for N in normal_subgroups(inst.group))),
    "frobenius": (0, ("<int>:eq or <int>:notfrob", re.compile(r"[0-9]+:(?:eq|notfrob)"),
                      _kernel_and_mode), None, None, None),
    "frob_gap": (0, _INTEGER, "frobenius", "sum_minus_eta_gap", _frobenius_gap),
    "eta_star": (2, _INTEGER, "centre", None, lambda inst, N: eta_star(inst.group, N)),
    "quot_eta": (2, _INTEGER, "quot", None,
                 lambda inst, N: check_quot_conditions(inst.group, N).eta_q),
    "quot_union": (2, _FLAG, "quot", None,
                   lambda inst, N: check_quot_conditions(inst.group, N).gminus_coset_union),
    "join_eta": (4, _INTEGER, "products-join", None,
                 lambda inst, N, M: quotient_eta(inst.group, join(inst.group, (N, M)))),
    "x_order": (0, _INTEGER, "xsub", "x_order", lambda inst: compute_X(inst.group).order),
    "x_cyclic": (0, _FLAG, "xsub", "x_cyclic", lambda inst: x_cyclic(inst.group)),
    "in_derived": (2, _FLAG, "derived", None, lambda inst, N: in_derived(inst.group, N)),
    "derived_hyp": (0, _FLAG, "derived", "derived_hyp",
                    lambda inst: noncyclic_sylows_of_abelianization(inst.group)),
    "classify": (0, _TEXT, "first-main", "classify", _classify),
    "gk_edges": (0, ("'none' or p-q pairs joined by ':'",
                     re.compile(r"none|[0-9]+-[0-9]+(?::[0-9]+-[0-9]+)*"), str),
                 "gk-graph", "edges", _edges),
    "gk_comps": (0, _INTEGER, "gk-graph", "components",
                 lambda inst: gk_graph(inst.group).component_count()),
}


class CorpusEntry(NamedTuple):
    """One corpus record: a group spec plus optional expectations, each
    value read by its key's form."""

    line_no: int
    spec_text: str
    tag: str
    expect: dict[str, object]


def _split_fields(line: str) -> list[str]:
    """Split a record on ';' at parenthesis depth 0 (Perm specs carry ';'
    inside their parentheses)."""
    fields = []
    depth = 0
    start = 0
    for i, ch in enumerate(line):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == ";" and depth == 0:
            fields.append(line[start:i])
            start = i + 1
    fields.append(line[start:])
    return [f.strip() for f in fields]


def parse_corpus(text: str) -> list[CorpusEntry]:
    entries = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = _split_fields(line)
        spec_text = fields[0]
        if not spec_text:
            raise CorpusError(line_no, "empty spec")
        expect: dict[str, object] = {}
        tag = "derived"
        seen: set[str] = set()
        for f in fields[1:]:
            if not f:
                continue
            if "=" not in f:
                raise CorpusError(line_no, f"field {f!r} is not key=value")
            key, _, value = f.partition("=")
            key, value = key.strip(), value.strip()
            if key in seen:
                raise CorpusError(line_no, f"repeated key {key!r}")
            seen.add(key)
            if key == "tag":
                tag = value
                continue
            m = _SELECTOR_RE.match(key)
            name, arity = (m.group(1), m.group(2).count(",") + 1) if m else (key, 0)
            want, (form, pattern, read), *_ = KEYS.get(name, (None, _TEXT))
            if want != arity:
                raise CorpusError(line_no, f"unknown key {key!r}")
            if not pattern.fullmatch(value):
                raise CorpusError(line_no, f"{key}={value!r}: expected {form}")
            try:
                expect[key] = read(value)
            except ValueError as exc:  # an integer too long for int()
                raise CorpusError(line_no, f"{key}: {exc}") from exc
        if "frob_gap" in expect and "frobenius" not in expect:
            raise CorpusError(line_no, "frob_gap needs a frobenius=<kernel order>:<mode> field")
        try:
            parse_spec(spec_text)
        except MaxcycError as exc:
            raise CorpusError(line_no, f"bad spec {spec_text!r}: {exc}") from exc
        entries.append(CorpusEntry(line_no, spec_text, tag, expect))
    return entries


def default_corpus_text() -> str:
    from importlib import resources

    return resources.files("maxcyc").joinpath("data/default.corpus").read_text("utf-8")


class Instance(NamedTuple):
    """A realized corpus entry."""

    entry: CorpusEntry
    spec: GroupSpec
    group: Group


def realize_entry(
    entry: CorpusEntry,
    order_cap: int = DEFAULT_ORDER_CAP,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> Instance:
    spec = parse_spec(entry.spec_text)
    return Instance(entry, spec, realize(spec, order_cap=order_cap, degree_cap=degree_cap))


class VerifyReport(NamedTuple):
    """Outcome of one suite on one corpus entry."""

    suite: str
    instance: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "instance": self.instance,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "expected": repr(c.expected),
                    "actual": repr(c.actual),
                }
                for c in self.checks
            ],
        }


def _flatten(parts: Iterable[tuple[str, list[Check]]]) -> list[Check]:
    """The checks of every (label, checks) part, each named ``label.name``."""
    return [Check(f"{label}.{c.name}", c.passed, c.expected, c.actual)
            for label, checks in parts for c in checks]


def _on_group(check: Callable) -> Callable[[Instance], object]:
    """A theorem on G, as a function of the instance."""
    return lambda inst: check(inst.group)


def _per_normal(check: Callable, *, proper: bool = False) -> Callable[[Instance], list[Check]]:
    """check(G, N) for each normal N of G, or each proper one, labelled
    ``N[order,index]``."""
    def laws(inst: Instance) -> list[Check]:
        G = inst.group
        return _flatten((f"N[{o},{i}]", check(G, N))
                        for (o, i), N in normal_lattice(G).named.items()
                        if not (proper and N.order == G.order))
    return laws


def _per_pair(G: Group, check: Callable, firsts: list, seconds: list) -> list[Check]:
    """check(G, N, M) for each labelled normal ((o, i), N) of `firsts` and M
    of `seconds`, labelled ``N[order,index]vM[order,index]``."""
    return _flatten((f"N[{o1},{i1}]vM[{o2},{i2}]", check(G, N, M))
                    for (o1, i1), N in firsts for (o2, i2), M in seconds)


def _expect(name: str, want: object, actual: object) -> Check:
    """The check that a corpus value, as read, equals what was computed."""
    return Check(name, want == actual, want, actual)


def _expect_each(inst: Instance, suite: str) -> list[Check]:
    """One check per expectation that `suite` checks, in ``KEYS`` order and
    then in selector order: want against what the key's reader finds, each
    pair o,i of a selector naming the normal ``named_normal(G, o, i)``.  An
    expectation whose quantity does not exist, such as X(G) of a group that
    is not a noncyclic p-group or a normal that its selector does not name,
    is an error that names the key."""
    found = []
    for key, want in inst.entry.expect.items():
        name, _, sel = key.partition("[")
        arity, _, owner, check, read = KEYS[name]
        if owner == suite:
            sel = tuple(map(int, sel[:-1].split(","))) if arity else ()
            found.append((list(KEYS).index(name), sel, key, want, check or key, read))
    checks = []
    for _, sel, key, want, check, read in sorted(found, key=lambda f: f[:2]):
        try:
            normals = [named_normal(inst.group, *sel[k:k + 2]) for k in range(0, len(sel), 2)]
            checks.append(_expect(check, want, read(inst, *normals)))
        except MaxcycError as exc:
            raise MaxcycError(f"{key}: {exc}") from exc
    return checks


# ---------------------------------------------------------------------------
# The three runners that select and label: products-join and eitheror pick
# their pairs of normals, and frobenius handles its negative controls.
# ---------------------------------------------------------------------------

def _frobenius(inst: Instance) -> list[Check]:
    try:
        checks, rejection = check_frobenius_eta(inst.group, *_kernel_and_complement(inst)), None
    except NotFrobenius as exc:
        checks, rejection = [], str(exc)
    if inst.entry.expect["frobenius"][1] == "notfrob":
        return [Check("rejected_as_frobenius", rejection is not None,
                      "NotFrobenius raised", rejection or "structure accepted")]
    if rejection is not None:
        return [Check("frobenius_sum", False, "Frobenius structure", rejection)]
    return checks


def _products_join(inst: Instance) -> list[Check]:
    G = inst.group
    preserving = eta_preserving_normals(G)
    qualifying = [(label, N) for label, N in normal_lattice(G).named.items() if N in preserving]
    return _per_pair(G, check_quotient_join, qualifying, qualifying)


def _eitheror(inst: Instance) -> list[Check]:
    G = inst.group
    preserving = eta_preserving_normals(G)
    labelled = list(normal_lattice(G).named.items())
    qualifying = [(label, N) for label, N in labelled if N.order > 1 and N in preserving]
    if not qualifying:
        return [Check("vacuous (no eta-preserving nontrivial N)", True, "skip", "skip")]
    return _per_pair(G, check_eitheror, qualifying, labelled)


def _factors(inst: Instance) -> list[Group]:
    """The factors H and K of an entry written ``H x K``, each realized
    within G's order and degree, which bound theirs; |G| = |H| * |K| is
    checked."""
    G = inst.group
    H, K = (realize(factor, order_cap=G.order, degree_cap=G.degree)
            for factor in (inst.spec.left, inst.spec.right))
    if G.order != H.order * K.order:
        raise InternalCheckError("direct product order mismatch")
    return [H, K]


# One row per suite, in the order of SUITES: whether its laws apply to an
# instance (None: to every group), and the laws, as a function of the
# instance: a theorem on G, one on each normal or each proper normal, or a
# runner.  The hypotheses on G are the predicates of ``theorems``, which
# each law's own guard asks again, so an error that a guard raises while
# the laws run stops ``verify`` and never makes a suite n/a.  ``values``
# has no laws: it checks its expectations only.
_ROWS: dict[str, tuple[Callable[[Instance], bool] | None, Callable | None]] = {
    "values": (None, None),
    "dirproduct": (lambda inst: isinstance(inst.spec, DirectProductSpec),
                   lambda inst: check_dirproduct_laws(inst.group, *_factors(inst))),
    "frobenius": (lambda inst: "frobenius" in inst.entry.expect, _frobenius),
    "centre": (None, _per_normal(check_centre_bounds)),
    "pgrp-lemma": (None, _on_group(check_pgrp_lemma)),
    "gminus-containment": (None, _per_normal(check_gminus_containment)),
    "gminus-subgroup": (None, _on_group(check_gminus_subgroup_lemma)),
    "quot": (None, _per_normal(lambda G, N: quot_report_checks(G, check_quot_conditions(G, N)),
                               proper=True)),
    "products-join": (_on_group(is_noncyclic_p_group), _products_join),
    "xsub": (_on_group(is_noncyclic_p_group), _on_group(check_xsub)),
    "derived": (None, _per_normal(check_derived_criterion, proper=True)),
    "exp-bound": (_on_group(is_exponent_p_group), _on_group(check_exp_bound)),
    "eitheror": (_on_group(is_noncyclic_p_group), _eitheror),
    "l-relation": (_on_group(is_nontrivial), _on_group(check_l_relation)),
    "first-main": (None, _on_group(check_first_main)),
    "gk-graph": (None, _on_group(check_gk_graph)),
}


def _report(name: str, applies: Callable[[Instance], bool] | None,
            laws: Callable[[Instance], list[Check]] | None,
            inst: Instance) -> VerifyReport | None:
    """Suite `name`'s report on an instance: the checks of its laws, when
    they apply, then those of the expectations it checks; None when the
    laws do not apply and the entry holds no such expectation."""
    checks = laws(inst) if laws and (applies is None or applies(inst)) else None
    expected = _expect_each(inst, name)
    if checks is None and not expected:
        return None
    return VerifyReport(name, inst.entry.spec_text, tuple((checks or []) + expected))


SUITES: dict[str, Callable[[Instance], VerifyReport | None]] = {
    name: partial(_report, name, *row) for name, row in _ROWS.items()
}


def _run_entry(task: tuple[list[str], CorpusEntry, int, int]) -> list[VerifyReport | None]:
    """Realize one corpus record once and run every named suite on it.  An
    error from either step, such as a selector that names no normal
    subgroup, is re-raised naming the record's line."""
    suite_names, entry, order_cap, degree_cap = task
    try:
        inst = realize_entry(entry, order_cap, degree_cap)
        return [SUITES[name](inst) for name in suite_names]
    except (MaxcycError, ValueError) as exc:
        raise CorpusError(entry.line_no, str(exc)) from exc


def run_suites(
    suite_names: list[str],
    entries: list[CorpusEntry],
    *,
    order_cap: int = DEFAULT_ORDER_CAP,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    jobs: int = 1,
) -> list[VerifyReport]:
    """Run the named suites over the corpus, reports in (suite, entry) order;
    a suite named twice runs once, where it is first named.  Each entry is
    one task that realizes its group once and runs every suite on it, in a
    pool of at most one process per entry when jobs > 1; transposing the
    per-entry results makes the output identical either way.
    """
    suite_names = list(dict.fromkeys(suite_names))
    for name in suite_names:
        if name not in SUITES:
            raise MaxcycError(f"unknown suite {name!r}")
    tasks = [(suite_names, entry, order_cap, degree_cap) for entry in entries]
    workers = min(jobs, len(tasks))
    if workers > 1:
        # Imported here: only --jobs needs it, and every CLI process would
        # pay for the import.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_entry = list(pool.map(_run_entry, tasks))
    else:
        per_entry = list(map(_run_entry, tasks))
    return [r for per_suite in zip(*per_entry) for r in per_suite if r is not None]
