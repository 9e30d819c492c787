import pytest

import maxcyc.core
from maxcyc import (
    DEFAULT_DEGREE_CAP,
    EtaReport,
    GroupIsCyclic,
    HypothesisFailed,
    InternalCheckError,
    NotExponentP,
    NotFrobenius,
    NotNormal,
    NotPGroup,
    NotProper,
    Permutation,
    eta,
    eta_star,
    g_minus,
    named_normal,
    normal_subgroups,
    quotient_group,
    realize_text,
    subgroup_generated,
)
from maxcyc.core import (
    class_mask, coset_table, derived_subgroup, is_cyclic, is_nilpotent, normal_lattice,
    point_stabilizer,
)
from maxcyc.cyclic import (
    eta_preserving_normals, g_minus_via_powers, quotient_invariants, read_quotient,
)
from maxcyc.theorems import (
    check_centre_bounds,
    check_derived_criterion,
    check_dirproduct_laws,
    check_eitheror,
    check_exp_bound,
    check_first_main,
    check_frobenius_eta,
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
    verify_frobenius,
)
from maxcyc.corpus import default_corpus_text, parse_corpus

from oracles import classify_oracle, frobenius_conjugate_oracle, outcome, passed, perm_order


CORPUS = parse_corpus(default_corpus_text())


# --- quotient conditions ------------------------------------------------------

def test_quot_d30_order5_equal_but_not_coset_union():
    G = realize_text("D(30)")
    rep = check_quot_conditions(G, named_normal(G, 5, 0))
    assert rep.equal and rep.eta_q == 2
    assert rep.cond_a and rep.cond_b and rep.cond_c
    assert not rep.gminus_coset_union
    assert not rep.strong_generator_condition


def test_quot_dic12_center_preserves_eta():
    G = realize_text("Dic12")
    rep = check_quot_conditions(G, named_normal(G, 2, 0))
    assert rep.eta_g == rep.eta_q == 2
    assert rep.equal == (rep.cond_a and rep.cond_b and rep.cond_c)


def test_quot_trivial_kernel_is_equal_vacuously():
    G = realize_text("S(4)")
    rep = check_quot_conditions(G, named_normal(G, 1, 0))
    assert rep.equal
    assert rep.cond_a and rep.cond_b and rep.cond_c
    assert rep.gminus_coset_union


def test_quot_biconditional_across_many_pairs():
    for text in ["D(30)", "S(4)", "Q(16)", "M16", "EA(3,2)", "Dic12", "C(12)"]:
        G = realize_text(text)
        for N in normal_subgroups(G):
            if N.order == G.order:
                continue
            rep = check_quot_conditions(G, N)
            assert rep.equal == (rep.cond_a and rep.cond_b and rep.cond_c), (text, N.order)
            assert rep.eta_q <= rep.eta_g
            assert (rep.equal and rep.gminus_coset_union) == rep.strong_generator_condition


def test_quot_pgroup_equal_implies_coset_union():
    for text in ["Q(16)", "M16", "D(16)", "W(3)", "C(2) x C(4)"]:
        G = realize_text(text)
        for N in normal_subgroups(G):
            if N.order == G.order:
                continue
            rep = check_quot_conditions(G, N)
            if rep.equal:
                assert rep.gminus_coset_union, (text, N.order)
                assert rep.gminus_n_stable
                assert rep.quotient_gminus_matches


def test_quot_requires_proper_normal():
    G = realize_text("S(3)")
    with pytest.raises(NotProper):
        check_quot_conditions(G, G)
    d30 = realize_text("D(30)")
    with pytest.raises(NotNormal):
        check_quot_conditions(d30, subgroup_generated(d30, [
            next(x for x in d30 if perm_order(x) == 2)
        ]))


@pytest.mark.parametrize("text", ["Q(16)", "M16", "W(3)", "Heis(3) x C(3)"])
def test_quot_conditions_after_the_quotients_were_read(text):
    # compute_X reads the quotients of the eta-preserving normals first; the
    # conditions read on check_quot_conditions' own table must not differ
    G, fresh = realize_text(text), realize_text(text)
    compute_X(G)
    assert any(key[0] is quotient_invariants.__wrapped__ for key in G.derived)
    normals = [N for N in normal_subgroups(G) if N.order < G.order]
    fresh_normals = [N for N in normal_subgroups(fresh) if N.order < fresh.order]
    assert [N.elements for N in normals] == [N.elements for N in fresh_normals]
    for N, M in zip(normals, fresh_normals):
        assert check_quot_conditions(G, N) == check_quot_conditions(fresh, M)
        assert quotient_invariants(G, N) == read_quotient(G, coset_table(G, N))


# --- X(G) --------------------------------------------------------------------

def test_compute_X_values():
    assert compute_X(realize_text("EA(3,2)")).order == 1
    assert compute_X(realize_text("Q(8)")).order == 2
    X = compute_X(realize_text("M16"))
    assert X.order == 2 and is_cyclic(X)
    X16 = compute_X(realize_text("Q(16)"))
    assert X16.order == 4 and is_cyclic(X16)


def test_compute_X_rejects_bad_inputs():
    with pytest.raises(NotPGroup):
        compute_X(realize_text("S(3)"))
    with pytest.raises(GroupIsCyclic):
        compute_X(realize_text("C(8)"))


@pytest.mark.parametrize("text", ["Q(16)", "M16", "Heis(5) x C(5)"])
def test_compute_X_is_the_lattice_member(text):
    G = realize_text(text)
    X = compute_X(G)
    assert any(N is X for N in normal_subgroups(G))


def test_compute_X_requires_its_join_in_the_lattice(monkeypatch):
    x_elements = compute_X(realize_text("Q(16)")).elements
    G = realize_text("Q(16)")
    eta_preserving_normals(G)
    monkeypatch.delitem(normal_lattice(G).member, class_mask(G, x_elements))
    with pytest.raises(InternalCheckError):
        compute_X(G)


# Negative controls: a value planted with `record` on a fresh realization
# breaks the law, and its check must fail with the values it reports.

def test_a_planted_power_route_fails_the_pgrp_lemma():
    G = realize_text("S(3)")
    real = g_minus_via_powers(realize_text("S(3)"))
    g_minus_via_powers.record(G, result=real - {G.identity})
    assert [(c.name, c.passed, c.expected, c.actual) for c in check_pgrp_lemma(G)] == [
        ("gminus_equals_power_set", False, "G^- == {g^q : q | o(g)}", 1),
    ]


def test_a_planted_eta_fails_the_star_bound():
    # eta*(N) = 2 for the translation plane N of SG72_50
    G = realize_text("SG72_50")
    eta.record(G, result=EtaReport(0, (), 0, 0))
    checks = {c.name: (c.passed, c.expected, c.actual)
              for c in check_centre_bounds(G, named_normal(G, 9, 0))}
    assert checks["star_bound"] == (False, "eta(G) >= 2", 0)


def test_a_planted_eta_fails_the_frobenius_sum():
    # AGL1(7,3) = C(7) : C(3), with eta*(C(7)) = 1 and eta(C(3)) = 1
    G = realize_text("AGL1(7,3)")
    eta.record(G, result=EtaReport(0, (), 0, 0))
    checks = check_frobenius_eta(G, named_normal(G, 7, 0), point_stabilizer(G, 0))
    assert [(c.name, c.passed, c.expected, c.actual) for c in checks] == [
        ("frobenius_sum", False, "eta(G) == 1 + 1", 0),
    ]


# The trivial member keeps eta but leaves out the other qualifying normals;
# G itself is no proper normal, and eta(G/G) = 1.
@pytest.mark.parametrize("member, eta_x", [(0, 3), (-1, 1)], ids=["trivial", "G"])
def test_a_planted_X_fails_the_xsub_laws(member, eta_x):
    G = realize_text("Q(16)")
    compute_X.record(G, result=normal_subgroups(G)[member])
    assert {c.name: (c.passed, c.expected, c.actual) for c in check_xsub(G)} == {
        "eta_preserved": (eta_x == 3, 3, eta_x),
        "maximality_scan": (False, "M qualifies <=> M <= X", False),
    }


def test_compute_X_is_maximal():
    for text in ["Q(8)", "Q(16)", "M16", "D(8)", "EA(2,3)", "Heis(3)"]:
        G = realize_text(text)
        X = compute_X(G)
        target = eta(G).eta
        for M in normal_subgroups(G):
            qualifies = eta(quotient_group(G, M)[0]).eta == target
            assert qualifies == (M.elements <= X.elements), (text, M.order)


# --- classification ------------------------------------------------------------

def classify(text):
    """The class of a group itself: of G/1, with 1 the lattice's trivial normal."""
    G = realize_text(text)
    return classify_prime_order_group(G, normal_subgroups(G)[0])


def test_classification_cases():
    assert classify("Heis(3)").kind == "exponent_p"
    assert classify("EA(2,4)").p == 2
    assert classify("A(5)").kind == "a5"
    frob = classify("AGL1(3,2)")
    assert (frob.kind, frob.p, frob.q) == ("frobenius_pq", 3, 2)
    frob = classify("AGL1(7,3)")
    assert (frob.kind, frob.p, frob.q) == ("frobenius_pq", 7, 3)
    assert classify("C(6)").kind == "not_all_prime_order"
    assert classify("D(10)").kind == "frobenius_pq"


@pytest.mark.parametrize(
    "text",
    sorted({e.spec_text for e in CORPUS}) + ["A(5) x C(2)", "S(5)", "AGL1(13,12)", "S(4) x C(3)"],
)
def test_classification_matches_the_oracle(text):
    """G/N classified on G's data agrees with the oracle on the regular
    realization of G/N, for every normal N, failures and their messages
    included."""
    G = realize_text(text)
    assert G.order <= 2000
    for N in normal_subgroups(G):
        want = outcome(classify_oracle, quotient_group(G, N)[0])
        assert outcome(classify_prime_order_group, G, N) == want, (text, N.order)


def test_first_main_builds_no_quotient_group(monkeypatch):
    """first-main classifies G/<G^-> without realizing it: no quotient
    group, and no permutation of degree above the default degree cap, for
    W(5), whose index 3125 is far above that cap, and for every corpus
    group with <G^-> proper."""

    def refuse(*args):
        raise AssertionError("a quotient group was built")

    unchecked = Permutation._unchecked.__func__

    def capped(cls, images):
        assert len(images) <= DEFAULT_DEGREE_CAP, f"a permutation of degree {len(images)}"
        return unchecked(cls, images)

    monkeypatch.setattr(maxcyc.core, "quotient_group", refuse)
    monkeypatch.setattr(Permutation, "_unchecked", classmethod(capped))
    w5 = realize_text("W(5)")
    H = subgroup_generated(w5, g_minus(w5))
    assert w5.order // H.order == 3125
    assert passed(check_first_main(w5))
    proper = 0
    for e in CORPUS:
        G = realize_text(e.spec_text)
        if subgroup_generated(G, g_minus(G)).order < G.order:
            proper += 1
            assert passed(check_first_main(G)), e.spec_text
    assert proper > 0


def test_first_main_examples():
    # all elements of prime order: <G^-> is trivial, quotient is G itself
    assert passed(check_first_main(realize_text("A(5)")))
    # kernel C9: <G^-> = C3, quotient of order 6 is Frobenius
    assert passed(check_first_main(realize_text("AGL1(9,2)")))
    # C4: <G^-> = C2, quotient C2 has exponent 2
    assert passed(check_first_main(realize_text("C(4)")))
    for text in ["D(30)", "SG72_50", "S(4)", "W(3)", "Dic12", "M16"]:
        assert passed(check_first_main(realize_text(text))), text


def test_closures_at_cap_scale():
    # In AGL1(127,126) = C(127) : C(126), G^- holds the elements of orders 63
    # and 42 of every complement, which generate it, so <G^-> = G.
    agl = realize_text("AGL1(127,126)")
    assert subgroup_generated(agl, g_minus(agl)).order == agl.order
    report = check_first_main(agl)
    assert passed(report)
    assert [c.name for c in report] == ["gminus_closure_normal", "vacuous (<G^-> = G)"]
    # in a p-group G^- is the set of p-th powers, so G/<G^-> has exponent p
    report = check_first_main(realize_text("W(5)"))
    assert passed(report)
    assert [(c.name, c.actual) for c in report] == [
        ("gminus_closure_normal", True), ("quotient_class", "exponent_p")
    ]
    # W(5) has order 5**6, and every p-group is nilpotent
    assert is_nilpotent(realize_text("W(5)"))
    # the derived subgroup of S(7) is A(7): the even permutations
    s7 = realize_text("S(7)")
    a7 = derived_subgroup(s7)
    assert a7.order == 2520
    assert all(sum(len(c) - 1 for c in x.cycles()) % 2 == 0 for x in a7)


# --- G^- as a set --------------------------------------------------------------

def test_gminus_containment_examples():
    d30 = realize_text("D(30)")
    rep = check_gminus_containment(d30, named_normal(d30, 15, 0))
    assert passed(rep)

    heis = realize_text("Heis(3)")
    rep = check_gminus_containment(heis, named_normal(heis, 3, 0))
    assert passed(rep)
    assert any(c.name == "part3" for c in rep)

    c6 = realize_text("C(6)")
    rep = check_gminus_containment(c6, named_normal(c6, 3, 0))
    assert passed(rep)


def test_gminus_subgroup_lemma():
    # kernel cyclic of order 9: G^- is the order-3 subgroup, all orders prime powers
    rep = check_gminus_subgroup_lemma(realize_text("AGL1(9,2)"))
    assert passed(rep)
    assert any(c.name == "all_prime_power_orders" for c in rep)
    # kernel 5, complement 4: G^- is identity plus involutions, not closed
    rep = check_gminus_subgroup_lemma(realize_text("AGL1(5,4)"))
    assert passed(rep)
    assert any("vacuous" in c.name for c in rep)
    rep = check_gminus_subgroup_lemma(realize_text("C(6)"))
    assert any("vacuous" in c.name for c in rep)


def test_gk_graph_examples():
    g = gk_graph(realize_text("A(5)"))
    assert g.vertices == (2, 3, 5) and g.edges == ()
    assert g.component_count() == 3
    g = gk_graph(realize_text("C(6)"))
    assert g.edges == ((2, 3),)
    g = gk_graph(realize_text("D(30)"))
    assert g.vertices == (2, 3, 5) and g.edges == ((3, 5),)
    assert g.component_count() == 2


def test_l_relation_examples():
    assert passed(check_l_relation(realize_text("A(5)")))
    assert passed(check_l_relation(realize_text("C(6)")))
    assert passed(check_l_relation(realize_text("Heis(3)")))
    with pytest.raises(HypothesisFailed, match="^the l relation requires a nontrivial group$"):
        check_l_relation(realize_text("C(1)"))
    rep = eta(realize_text("A(5)"))
    assert rep.eta == rep.l_value - 1 == 3
    rep = eta(realize_text("C(6)"))
    assert rep.eta == 1 and rep.l_value == 4


# --- products -------------------------------------------------------------------

def _dirproduct_laws(left: str, right: str) -> list:
    return check_dirproduct_laws(realize_text(f"{left} x {right}"), realize_text(left),
                                 realize_text(right))


def test_dirproduct_laws_examples():
    assert passed(_dirproduct_laws("S(3)", "D(10)"))
    assert passed(_dirproduct_laws("C(2)", "C(3)"))
    rep = _dirproduct_laws("C(2)", "C(2)")
    assert passed(rep)
    assert any(c.name == "v.same_prime_pgroups" for c in rep)


def test_dirproduct_equality_without_coprimality():
    s3, d10 = realize_text("S(3)"), realize_text("D(10)")
    assert eta(s3).eta == eta(d10).eta == 2
    assert eta(realize_text("S(3) x D(10)")).eta == 4


def test_frobenius_eta_examples():
    for text, kernel in [("AGL1(5,4)", 5), ("AGL1(7,3)", 7), ("AGL1(9,2)", 9)]:
        G = realize_text(text)
        rep = check_frobenius_eta(G, named_normal(G, kernel, 0), point_stabilizer(G, 0))
        assert passed(rep), text


def test_frobenius_at_cap_scale():
    # AGL1(127,126) = C(127) : C(126), with 126 conjugates of the complement
    G = realize_text("AGL1(127,126)")
    rep = check_frobenius_eta(G, named_normal(G, 127, 0), point_stabilizer(G, 0))
    assert passed(rep)


@pytest.mark.parametrize(
    "text, kernel",
    sorted({(e.spec_text, e.expect["frobenius"][0])
            for e in CORPUS if "frobenius" in e.expect}) + [("S(4)", 4)],
)
def test_frobenius_conjugates_match_the_oracle(text, kernel):
    """One conjugate per coset of the complement finds the same first
    witness as conjugating it by every element outside it."""
    G = realize_text(text)
    N, H = named_normal(G, kernel, 0), point_stabilizer(G, 0)
    want = frobenius_conjugate_oracle(G, H)
    assert outcome(verify_frobenius, G, N, H) == (want and ("NotFrobenius", want))


def test_frobenius_rejects_sg72_50():
    G = realize_text("SG72_50")
    N = named_normal(G, 9, 0)
    H = point_stabilizer(G, 0)
    with pytest.raises(NotFrobenius):
        check_frobenius_eta(G, N, H)
    # and the would-be identity indeed fails by a gap of 2
    assert eta_star(G, N) + eta(H).eta - eta(G).eta == 2


def test_frobenius_rejects_wrong_decomposition():
    G = realize_text("S(4)")
    with pytest.raises(NotFrobenius):
        check_frobenius_eta(G, named_normal(G, 4, 0), point_stabilizer(G, 0))


# A Frobenius complement H has 1 < |H| < |G|.  The stabilizer of point 0 is
# trivial in C(3) and in AGL1(7,1), which is C(7), and is the whole group
# when C(3) fixes point 0, with the trivial kernel.
@pytest.mark.parametrize("text, kernel", [("C(3)", 3), ("AGL1(7,1)", 7), ("Perm(4; (1 2 3))", 1)])
def test_frobenius_rejects_a_trivial_factor(text, kernel):
    G = realize_text(text)
    N, H = named_normal(G, kernel, 0), point_stabilizer(G, 0)
    assert H.order in (1, G.order)
    with pytest.raises(NotFrobenius, match=f"^complement of order {H.order} is not"):
        verify_frobenius(G, N, H)
    with pytest.raises(NotFrobenius):
        check_frobenius_eta(G, N, H)


def test_centre_bounds():
    sg = realize_text("SG72_50")
    assert passed(check_centre_bounds(sg, named_normal(sg, 9, 0)))
    q8 = realize_text("Q(8)")
    assert passed(check_centre_bounds(q8, named_normal(q8, 2, 0)))
    d30 = realize_text("D(30)")
    assert passed(check_centre_bounds(d30, named_normal(d30, 15, 0)))
    for text in ["S(4)", "Dic12", "W(3)"]:
        G = realize_text(text)
        for N in normal_subgroups(G):
            assert passed(check_centre_bounds(G, N))


# --- derived, exponent bound, dichotomy, joins -----------------------------------

def test_derived_criterion_positive_case():
    q8 = realize_text("Q(8)")
    rep = check_derived_criterion(q8, named_normal(q8, 2, 0))
    assert passed(rep)
    assert any(c.name == "N_inside_derived" and c.passed for c in rep)


def test_derived_criterion_counterexamples_are_vacuous():
    dic = realize_text("Dic12")
    Z = named_normal(dic, 2, 0)
    rep = check_derived_criterion(dic, Z)
    assert passed(rep)
    assert any("vacuous" in c.name for c in rep)
    from maxcyc import derived_subgroup

    assert not Z.elements <= derived_subgroup(dic).elements

    G = realize_text("EA(2,2) x C(3)")
    C = named_normal(G, 3, 0)
    rep = check_derived_criterion(G, C)
    assert passed(rep)
    assert not C.elements <= derived_subgroup(G).elements


def test_exp_bound():
    assert passed(check_exp_bound(realize_text("EA(3,2)")))
    assert passed(check_exp_bound(realize_text("Heis(3)")))
    assert eta(realize_text("Heis(3)")).eta == 5  # 3 + 3 - 1, attained
    assert passed(check_exp_bound(realize_text("EA(2,3)")))
    with pytest.raises(NotExponentP):
        check_exp_bound(realize_text("C(4)"))
    with pytest.raises(NotExponentP):
        check_exp_bound(realize_text("C(3)"))
    with pytest.raises(NotExponentP):
        check_exp_bound(realize_text("S(3)"))


def test_eitheror():
    q8 = realize_text("Q(8)")
    Z = named_normal(q8, 2, 0)
    for M in normal_subgroups(q8):
        assert passed(check_eitheror(q8, Z, M))
    m16 = realize_text("M16")
    N = named_normal(m16, 2, 0)
    rep = check_eitheror(m16, N, named_normal(m16, 8, 0))
    assert passed(rep)
    assert any("normal_maximal_cyclic" in c.name for c in rep)
    with pytest.raises(NotPGroup):
        check_eitheror(realize_text("S(3)"), Z, Z)
    with pytest.raises(HypothesisFailed):
        check_eitheror(q8, named_normal(q8, 4, 0), Z)


def test_quotient_join():
    q8 = realize_text("Q(8)")
    Z = named_normal(q8, 2, 0)
    assert passed(check_quotient_join(q8, Z, Z))
    q16 = realize_text("Q(16)")
    Z2 = named_normal(q16, 2, 0)
    C4 = named_normal(q16, 4, 0)
    assert passed(check_quotient_join(q16, Z2, C4))
    with pytest.raises(NotPGroup):
        check_quotient_join(realize_text("D(30)"), Z, Z)


def test_d30_join_counterexample_value():
    G = realize_text("D(30)")
    N, M = named_normal(G, 5, 0), named_normal(G, 3, 0)
    J = subgroup_generated(G, N.elements | M.elements)
    assert eta(quotient_group(G, J)[0]).eta == 1
    assert eta(G).eta == 2
