"""Acceptance criteria: exact-value and law checks over the bundled corpus.

Each test prints one ``[acceptance] criterion NN PASS|FAIL`` line (visible
with ``pytest -s`` or in the captured output of a failing run).  All value
comparisons are exact integer matches.
"""

from __future__ import annotations

import math

import pytest

from maxcyc import (
    NotFrobenius,
    derived_subgroup,
    eta,
    eta_star,
    g_minus,
    named_normal,
    normal_subgroups,
    quotient_group,
    realize,
    realize_text,
    subgroup_generated,
)
from maxcyc.constructors import Cyclic, DirectProductSpec, parse_spec
from maxcyc.core import exponent, is_cyclic, is_p_group, point_stabilizer
from maxcyc.corpus import default_corpus_text, parse_corpus
from maxcyc.cyclic import g_minus_mask
from maxcyc.theorems import (
    check_centre_bounds,
    check_dirproduct_laws,
    check_pgrp_lemma,
    check_quot_conditions,
    classify_prime_order_group,
    compute_X,
)

from oracles import g_minus_oracle, normal_subgroup_element_sets, passed


ENTRIES = parse_corpus(default_corpus_text())


@pytest.fixture(scope="module")
def groups():
    return {e.spec_text: realize_text(e.spec_text) for e in ENTRIES}


def record(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {status}: {description}" +
          (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {description} {detail}"


def proper_normal_pairs(groups):
    for e in ENTRIES:
        G = groups[e.spec_text]
        for N in normal_subgroups(G):
            if N.order < G.order:
                yield e.spec_text, G, N


def test_criterion_01_exact_pinned_values(groups):
    ok = True
    detail = []

    def expect(value, want, what):
        nonlocal ok
        if value != want:
            ok = False
            detail.append(f"{what}: {value} != {want}")

    expect(eta(groups["S(3) x D(10)"]).eta, 4, "eta(S3xD10)")
    expect(eta(groups["S(3)"]).eta, 2, "eta(S3)")
    expect(eta(groups["D(10)"]).eta, 2, "eta(D10)")

    sg = groups["SG72_50"]
    expect(eta(sg).eta, 3, "eta(SG72_50)")
    expect(sorted(o for o, _ in eta(sg).class_reps), [4, 6, 6], "SG72_50 class orders")
    expect(eta_star(sg, named_normal(sg, 9, 0)), 2, "eta*(translations)")
    expect(eta(point_stabilizer(sg, 0)).eta, 3, "eta(D8 stabilizer)")

    expect(eta(groups["W(3)"]).eta, 7, "eta(C3 wr C3)")
    expect(eta(groups["EA(3,3)"]).eta, 13, "eta(C3^3)")
    for p in (2, 3, 5):
        expect(eta(groups[f"EA({p},2)"]).eta, p + 1, f"eta(C{p}^2)")

    d30 = groups["D(30)"]
    expect(eta(d30).eta, 2, "eta(D30)")
    for order, want in ((3, 2), (5, 2), (15, 1)):
        Q, _ = quotient_group(d30, named_normal(d30, order, 0))
        expect(eta(Q).eta, want, f"eta(D30/C{order})")
    union = named_normal(d30, 3, 0).elements | named_normal(d30, 5, 0).elements
    expect(g_minus(d30), union, "G^-(D30) = C3 union C5")

    dic = groups["Dic12"]
    expect(eta(dic).eta, 2, "eta(Dic12)")
    Z = named_normal(dic, 2, 0)
    expect(eta(quotient_group(dic, Z)[0]).eta, 2, "eta(Dic12/Z)")
    expect(Z.elements <= derived_subgroup(dic).elements, False, "Z not inside G'")

    expect(eta(groups["D(8)"]).eta, 3, "eta(D8)")
    expect(eta(groups["Q(8)"]).eta, 3, "eta(Q8)")
    for e in ENTRIES:
        if isinstance(parse_spec(e.spec_text), Cyclic):
            expect(eta(groups[e.spec_text]).eta, 1, f"eta({e.spec_text})")

    record(1, "exact pinned values", ok, "; ".join(detail))


def gminus_mismatches(groups) -> list[str]:
    """Criterion 2's failures: each group whose G^- is not the oracle's
    element-by-element prime powers, and each failing check of the
    pgrp-lemma, which compares G^- with its definition and, in a p-group,
    with the p-th powers."""
    mismatches = []
    for text, G in groups.items():
        if g_minus(G) != g_minus_oracle(G):
            mismatches.append(text)
        mismatches += [f"{text} ({c.name})" for c in check_pgrp_lemma(G) if not c.passed]
    return mismatches


def test_criterion_02_gminus_power_identity(groups):
    mismatches = gminus_mismatches(groups)
    record(2, "G^- equals the prime-power characterization on every entry",
           not mismatches, ", ".join(mismatches))


def test_criterion_02_fails_on_a_planted_gminus():
    # class 0 is the identity's, which G^- of a nontrivial group holds
    G = realize_text("S(3)")
    g_minus_mask.record(G, result=g_minus_mask(realize_text("S(3)")) & ~1)
    assert gminus_mismatches({"S(3)": G}) == ["S(3)", "S(3) (gminus_equals_power_set)"]
    with pytest.raises(AssertionError, match="criterion 2 failed"):
        test_criterion_02_gminus_power_identity({"S(3)": G})


def test_criterion_03_quotient_biconditional(groups):
    pairs = 0
    failures = []
    for text, G, N in proper_normal_pairs(groups):
        pairs += 1
        rep = check_quot_conditions(G, N)
        conds = rep.cond_a and rep.cond_b and rep.cond_c
        if rep.equal != conds:
            failures.append(f"{text} N={N.order}: equal != conditions")
        if is_p_group(G) and rep.equal and not rep.gminus_coset_union:
            failures.append(f"{text} N={N.order}: p-group coset union")
        if (rep.equal and rep.gminus_coset_union) != rep.strong_generator_condition:
            failures.append(f"{text} N={N.order}: part-4 biconditional")
    record(3, f"quotient-equality biconditional on {pairs} pairs (need >= 100)",
           pairs >= 100 and not failures, "; ".join(failures[:5]))


def test_criterion_04_monotonicity_and_centre_bounds(groups):
    failures = []
    for text, G, N in proper_normal_pairs(groups):
        if eta(quotient_group(G, N)[0]).eta > eta(G).eta:
            failures.append(f"{text}: monotonicity N={N.order}")
    for e in ENTRIES:
        G = groups[e.spec_text]
        for N in normal_subgroups(G):
            if not passed(check_centre_bounds(G, N)):
                failures.append(f"{e.spec_text}: centre bounds N={N.order}")
    record(4, "eta monotone under quotients; eta* and central/index bounds",
           not failures, "; ".join(failures[:5]))


def test_criterion_05_direct_product_laws(groups):
    products = [e for e in ENTRIES
                if isinstance(parse_spec(e.spec_text), DirectProductSpec)]
    failures = []
    for e in products:
        spec = parse_spec(e.spec_text)
        H = realize(spec.left)
        K = realize(spec.right)
        rep = check_dirproduct_laws(groups[e.spec_text], H, K)
        if not passed(rep):
            failures.append(e.spec_text)
    record(5, f"direct-product laws on {len(products)} products (need >= 20)",
           len(products) >= 20 and not failures, "; ".join(failures))


def test_criterion_06_frobenius_equality(groups):
    wanted = ["AGL1(5,4)", "AGL1(5,2)", "AGL1(7,3)", "AGL1(7,6)",
              "AGL1(13,4)", "AGL1(9,2)"]
    failures = []
    for text in wanted:
        G = groups[text]
        kernel_order = int(text.split("(")[1].split(",")[0])
        N = named_normal(G, kernel_order, 0)
        H = point_stabilizer(G, 0)
        if eta(G).eta != eta_star(G, N) + eta(H).eta:
            failures.append(text)
    record(6, "Frobenius equality eta(G) = eta*(N) + eta(H) on all six instances",
           not failures, "; ".join(failures))


def test_criterion_07_classification_and_first_main(groups):
    from maxcyc.theorems import check_first_main

    failures = []
    named = ["Heis(3)", "Heis(5)", "EA(2,2)", "EA(2,3)", "EA(2,4)", "EA(3,2)",
             "EA(3,3)", "EA(5,2)", "A(5)", "AGL1(3,2)", "AGL1(7,3)"]
    for text in named:
        G = groups[text]
        cls = classify_prime_order_group(G, normal_subgroups(G)[0])
        if cls.kind == "not_all_prime_order":
            failures.append(f"{text}: classified as composite-order")
    for e in ENTRIES:
        if not passed(check_first_main(groups[e.spec_text])):
            failures.append(f"{e.spec_text}: first-main")
    record(7, "classification succeeds; quotient-by-<G^-> law on every entry",
           not failures, "; ".join(failures[:5]))


def test_criterion_08_exponent_bound(groups):
    named = ["EA(2,2)", "EA(2,3)", "EA(2,4)", "EA(3,2)", "EA(3,3)", "EA(5,2)",
             "Heis(3)", "Heis(5)"]
    failures = []
    for text in named:
        G = groups[text]
        p = is_p_group(G)
        assert p is not None and exponent(G) == p
        n = round(math.log(G.order, p))
        if eta(G).eta < n + p - 1:
            failures.append(text)
    record(8, "eta >= n + p - 1 on every exponent-p entry", not failures,
           "; ".join(failures))


def test_criterion_09_x_subgroup(groups):
    failures = []
    for e in ENTRIES:
        G = groups[e.spec_text]
        if is_p_group(G) is None or is_cyclic(G):
            continue
        X = compute_X(G)
        target = eta(G).eta
        if eta(quotient_group(G, X)[0]).eta != target:
            failures.append(f"{e.spec_text}: eta not preserved")
        for M in normal_subgroups(G):
            qualifies = eta(quotient_group(G, M)[0]).eta == target
            if qualifies != (M.elements <= X.elements):
                failures.append(f"{e.spec_text}: maximality at |M|={M.order}")
    if not is_cyclic(compute_X(groups["M16"])):
        failures.append("X(M16) not cyclic")
    record(9, "X(G) preserves eta and is the largest such normal subgroup; "
              "X(M16) cyclic", not failures, "; ".join(failures[:5]))


def test_criterion_10_negative_controls(groups):
    failures = []

    d30 = groups["D(30)"]
    N, M = named_normal(d30, 5, 0), named_normal(d30, 3, 0)
    J = subgroup_generated(d30, N.elements | M.elements)
    if eta(quotient_group(d30, J)[0]).eta != 1 or eta(d30).eta != 2:
        failures.append("D30 join counterexample")
    for sel in (N, M):
        if check_quot_conditions(d30, sel).gminus_coset_union:
            failures.append(f"D30 coset-union should fail for |N|={sel.order}")

    dic = groups["Dic12"]
    from maxcyc.theorems import noncyclic_sylows_of_abelianization

    if noncyclic_sylows_of_abelianization(dic):
        failures.append("Dic12 derived-criterion hypothesis should fail")
    if named_normal(dic, 2, 0).elements <= derived_subgroup(dic).elements:
        failures.append("Dic12 center should not lie in the derived subgroup")

    sg = groups["SG72_50"]
    N9 = named_normal(sg, 9, 0)
    H = point_stabilizer(sg, 0)
    try:
        from maxcyc.theorems import check_frobenius_eta

        check_frobenius_eta(sg, N9, H)
        failures.append("SG72_50 accepted as Frobenius")
    except NotFrobenius:
        pass
    if not (eta(sg).eta == 3 < eta_star(sg, N9) + eta(H).eta == 5):
        failures.append("SG72_50 gap 3 < 5")

    record(10, "negative controls fail exactly as expected", not failures,
           "; ".join(failures))


def test_criterion_11_normal_subgroup_oracle(groups):
    failures = []
    for e in ENTRIES:
        G = groups[e.spec_text]
        if G.order > 200:
            continue
        got = {N.elements for N in normal_subgroups(G)}
        want = normal_subgroup_element_sets(G)
        if got != want:
            failures.append(f"{e.spec_text}: {len(got)} vs oracle {len(want)}")
    record(11, "normal subgroups match the exhaustive-subgroup oracle "
               "(every entry has order <= 200)", not failures,
           "; ".join(failures[:5]))


def test_full_verify_suite_passes(groups):
    from maxcyc.corpus import SUITES, run_suites

    reports = run_suites(list(SUITES), ENTRIES)
    bad = [r for r in reports if not r.passed]
    assert not bad, [f"{r.suite}: {r.instance}" for r in bad[:5]]
