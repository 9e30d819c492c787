import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import maxcyc.core
import maxcyc.cyclic
from maxcyc import (
    InternalCheckError,
    NotNormal,
    cyclic_classes,
    cyclic_subgroups,
    eta,
    eta_p,
    eta_star,
    g_minus,
    g_minus_via_powers,
    g_power_set,
    maximal_cyclic_subgroups,
    named_normal,
    quotient_invariants,
    realize_text,
    subgroup_generated,
    subgroup_invariants,
)
from maxcyc.core import (
    BaseIndex,
    center,
    class_orders,
    conjugacy_classes,
    enumerate_elements,
    normal_lattice,
    normal_subgroups,
)
from maxcyc.corpus import parse_corpus, run_suites
from maxcyc.cyclic import maximal_cyclic_classes
from maxcyc.numutil import prime_factors
from maxcyc.theorems import check_pgrp_lemma, gk_graph

from oracles import eta_oracle, perm_order, relabelled
from test_properties import assert_quotients_match_the_regular_realization


def trivial_group():
    return enumerate_elements(3, [])


def test_cyclic_subgroup_counts():
    assert len(cyclic_subgroups(realize_text("C(6)"))) == 4
    assert len(cyclic_subgroups(realize_text("S(3)"))) == 5
    # thirteen subgroups of order 3 plus the trivial one
    assert len(cyclic_subgroups(realize_text("EA(3,3)"))) == 14


def test_cyclic_subgroups_include_trivial():
    subs = cyclic_subgroups(realize_text("S(3)"))
    assert min(s.order for s in subs) == 1


def test_maximal_cyclic_of_cyclic_group_is_itself():
    subs = maximal_cyclic_subgroups(realize_text("C(6)"))
    assert len(subs) == 1
    assert subs[0].order == 6


def test_maximal_cyclic_d30():
    subs = maximal_cyclic_subgroups(realize_text("D(30)"))
    orders = sorted(s.order for s in subs)
    assert orders == [2] * 15 + [15]


def test_maximal_cyclic_exponent_p():
    G = realize_text("Heis(3)")
    subs = maximal_cyclic_subgroups(G)
    assert len(subs) == 13
    assert all(s.order == 3 for s in subs)


def test_maximal_cyclic_union_covers_group():
    for text in ["S(4)", "D(30)", "Q(16)", "SG72_50"]:
        G = realize_text(text)
        union = set()
        for s in maximal_cyclic_subgroups(G):
            union |= s.elements
        assert union == set(G.elements)


def test_covering_by_classes_is_irredundant():
    for text in ["S(4)", "D(30)", "Q(8)", "W(3)"]:
        G = realize_text(text)
        classes = maximal_cyclic_classes(G)
        for dropped in range(len(classes)):
            union = set()
            for i, cls in enumerate(classes):
                if i == dropped:
                    continue
                for s in cls:
                    union |= s.elements
            assert union != set(G.elements)


def test_subgroup_class_partition():
    d30 = realize_text("D(30)")
    twos = [c for c in maximal_cyclic_classes(d30) if c[0].order == 2]
    assert len(twos) == 1
    assert len(twos[0]) == 15

    abelian = realize_text("EA(3,2)")
    assert all(len(c) == 1 for c in maximal_cyclic_classes(abelian))
    assert all(len(c) == 1 for c in cyclic_classes(abelian).values())


def test_eta_values_match_pinned_examples():
    assert eta(realize_text("S(3) x D(10)")).eta == 4
    assert eta(realize_text("SG72_50")).eta == 3
    assert eta(realize_text("W(3)")).eta == 7
    assert eta(realize_text("EA(3,3)")).eta == 13
    for p in (2, 3, 5):
        assert eta(realize_text(f"EA({p},2)")).eta == p + 1
    assert eta(realize_text("Q(8)")).eta == 3
    assert eta(realize_text("D(8)")).eta == 3
    assert eta(realize_text("C(12)")).eta == 1


def test_eta_report_consistency():
    rep = eta(realize_text("SG72_50"))
    assert rep.eta == len(rep.class_reps)
    assert sorted(o for o, _ in rep.class_reps) == [4, 6, 6]
    assert rep.l_value - 1 >= rep.eta


def test_eta_of_trivial_group_is_one():
    rep = eta(trivial_group())
    assert rep.eta == 1
    assert rep.l_value == 1
    assert rep.gminus_size == 0


def test_g_minus_cyclic():
    G = realize_text("C(6)")
    gm = g_minus(G)
    assert len(gm) == 4
    assert sorted(perm_order(x) for x in gm) == [1, 2, 3, 3]


def test_g_minus_d30_is_union_of_the_two_odd_normals():
    G = realize_text("D(30)")
    gm = g_minus(G)
    expected = named_normal(G, 3, 0).elements | named_normal(G, 5, 0).elements
    assert gm == expected
    assert len(gm) == 7


def test_g_minus_exponent_p_is_identity_only():
    G = realize_text("Heis(3)")
    assert g_minus(G) == frozenset([G.identity])


def test_g_minus_via_powers_agrees_everywhere():
    for text in ["C(6)", "S(4)", "D(30)", "Q(16)", "SG72_50", "W(3)", "AGL1(5,4)"]:
        G = realize_text(text)
        assert g_minus(G) == g_minus_via_powers(G)


def test_g_minus_of_trivial_group_is_empty():
    G = trivial_group()
    assert g_minus(G) == frozenset()
    assert g_minus_via_powers(G) == frozenset()


def test_g_power_set():
    c4 = realize_text("C(4)")
    assert len(g_power_set(c4, 2)) == 2
    ea = realize_text("EA(3,2)")
    assert g_power_set(ea, 3) == frozenset([ea.identity])
    q8 = realize_text("Q(8)")
    squares = g_power_set(q8, 2)
    assert len(squares) == 2  # the center
    with pytest.raises(ValueError):
        g_power_set(q8, 4)


def test_pgroup_g_minus_is_pth_power_set():
    for text, p in [("Q(8)", 2), ("D(16)", 2), ("W(3)", 3), ("Heis(5)", 5), ("M16", 2)]:
        G = realize_text(text)
        assert g_minus(G) == g_power_set(G, p)


def test_eta_p():
    d10 = realize_text("D(10)")
    assert eta_p(d10, 5) == 1
    assert eta_p(d10, 2) == 1
    assert eta_p(d10, 3) == 0
    with pytest.raises(ValueError):
        eta_p(d10, 6)


def test_eta_star():
    sg = realize_text("SG72_50")
    assert eta_star(sg, named_normal(sg, 9, 0)) == 2
    assert eta_star(sg, sg) == eta(sg).eta
    assert eta_star(sg, named_normal(sg, 1, 0)) == 1

    s3 = realize_text("S(3)")
    c2 = subgroup_generated(s3, [next(x for x in s3 if perm_order(x) == 2)])
    with pytest.raises(NotNormal):
        eta_star(s3, c2)


def test_eta_star_counts_fused_classes():
    # the four order-3 subgroups of the translation plane fall in two orbits
    sg = realize_text("SG72_50")
    N = named_normal(sg, 9, 0)
    assert len(maximal_cyclic_classes(N)) == 4
    assert eta_star(sg, N) == 2


def test_eta_star_cross_check_fires(monkeypatch):
    # put the trivial subgroup, which is not N-maximal, in the class of an
    # N-maximal one
    real = maxcyc.cyclic.cyclic_classes

    def merged(G):
        trivial = next(s for s in cyclic_subgroups(G) if s.order == 1)
        return {label: c + [trivial] if any(s.elements == target for s in c) else c
                for label, c in real(G).items()}

    sg = realize_text("SG72_50")
    N = named_normal(sg, 9, 0)
    assert eta_star(sg, N) == 2
    # taken before the patch, which the maximal subgroups of N would read;
    # each index holds its own subgroup objects, so G's is found by its elements
    target = maximal_cyclic_subgroups(N)[0].elements
    monkeypatch.setattr(maxcyc.cyclic, "cyclic_classes", merged)
    with pytest.raises(InternalCheckError):
        eta_star(sg, N)


def test_maximality_cross_check_fires(monkeypatch):
    # the power route loses the identity, which the pgrp-lemma scan finds
    real = maxcyc.cyclic.g_minus_via_powers
    monkeypatch.setattr(
        maxcyc.cyclic, "g_minus_via_powers", lambda G: real(G) - {G.identity}
    )
    lemma = check_pgrp_lemma(realize_text("S(3)"))[0]
    assert (lemma.name, lemma.passed, lemma.actual) == ("gminus_equals_power_set", False, 1)


@pytest.mark.parametrize("text", ["AGL1(127,126)", "W(5)"])
def test_orders_and_powers_are_taken_once_per_class(monkeypatch, text):
    calls = Counter()

    def counted(name):
        real = getattr(BaseIndex, name)

        def method(self, *args):
            calls[name] += 1
            return real(self, *args)

        return method

    G = realize_text(text)
    for name in ("order", "power"):
        monkeypatch.setattr(BaseIndex, name, counted(name))
    orders = class_orders(G)
    assert calls == {"order": len(conjugacy_classes(G))}
    g_minus_via_powers(G)
    assert calls["power"] <= sum(len(prime_factors(n)) for n in orders)


@pytest.mark.parametrize("text", ["AGL1(13,4)", "W(3)"])
def test_eta_reads_gminus_and_orders_per_class(text):
    # eta builds no per-element view of G^-, and each cyclic subgroup holds
    # the power list it was built from
    G = realize_text(text)
    eta(G)
    assert not g_minus_via_powers.held(G)
    subs, _ = maxcyc.cyclic._cyclic_index(G)
    for s in subs:
        assert s.powers[0] == G.identity and len(s.powers) == s.order
        g = s.powers[1] if s.order > 1 else G.identity
        assert all(x == g ** k for k, x in enumerate(s.powers))
        assert s.elements == frozenset(s.powers)


def test_quotients_are_read_without_base_walks(monkeypatch):
    G = realize_text("EA(2,2) x S(3)")
    normals = normal_subgroups(G)
    eta(G)
    monkeypatch.setattr(BaseIndex, "power", lambda *args: pytest.fail("a base walk"))
    for N in normals:
        quotient_invariants(G, N)


def test_central_generators_give_no_conjugator(monkeypatch):
    # conjugation by a central element moves nothing, so the orbit walks of
    # the quotient and subgroup invariants leave EA(2,3)'s generators out
    G = realize_text("EA(2,3) x S(3)")
    normals = normal_subgroups(G)
    requested = []
    conjugator = BaseIndex.conjugator
    monkeypatch.setattr(BaseIndex, "conjugator",
                        lambda base, g: requested.append(g) or conjugator(base, g))
    for N in normals:
        quotient_invariants(G, N)
        subgroup_invariants(G, N)
    assert requested
    assert center(G).elements.isdisjoint(requested)
    assert set(G.generators[:3]) <= center(G).elements


@pytest.mark.parametrize("text", ["S(4) x C(2)", "AGL1(7,6) x C(2)", "Q(16)"])
def test_the_centre_invariants_build_no_class_index(text):
    # a generator is central when it commutes with every generator of G,
    # which core.moving decides on words, without the element -> class map
    # that only the lattice builds
    G = realize_text(text)
    Z = center(G)
    quotient_invariants(G, Z)
    subgroup_invariants(G, Z)
    assert not normal_lattice.held(G)


def test_the_centre_suite_tests_each_generator_once(monkeypatch):
    # core.moving's word test is memoized per element and group, so the
    # centre suite on EA(2,6)'s 2825 normals makes one word test per
    # distinct generator, of G or of a normal, and not one per normal
    tests = Counter()
    word_test = maxcyc.core._central.__wrapped__

    def counted(G, g):
        tests[id(G), g.word] += 1
        return word_test(G, g)

    monkeypatch.setattr(maxcyc.core, "_central", maxcyc.core.memo(counted))
    reports = run_suites(["centre"], parse_corpus("EA(2,6)\n"))
    assert len(reports) == 1 and reports[0].passed
    assert tests and max(tests.values()) == 1


def test_a_wrong_label_is_caught():
    # <(0 1)(2 3)> labelled as a transposition class joins the class of
    # maximal subgroups of order 2, which the oracle counts as six
    G = realize_text("S(4)")
    subs, _ = maxcyc.cyclic._cyclic_index(G)
    twos = [s for s in subs if s.order == 2]
    moved = next(s for s in twos if s.label != twos[0].label)
    moved.label = twos[0].label
    got = eta(G)
    assert (got.eta, got.class_reps, got.l_value, got.gminus_size) != eta_oracle(G)[:4]


def test_cyclic_classes_take_no_conjugator(monkeypatch):
    # the classes of cyclic subgroups are read off the labels of the index
    G = realize_text("W(3)")
    requested = []
    conjugator = BaseIndex.conjugator
    monkeypatch.setattr(BaseIndex, "conjugator",
                        lambda base, g: requested.append(g) or conjugator(base, g))
    assert len(cyclic_classes(G)) == 9
    assert requested == []


@pytest.mark.parametrize("text", ["AGL1(7,6)", "S(4) x C(2)"])
def test_eta_and_gkgraph_build_no_class_index(text):
    # the element -> class map, which only the lattice builds, has |G|
    # entries, which eta does not need
    G = realize_text(text)
    eta(G)
    gk_graph(G)
    assert (conjugacy_classes.__wrapped__,) in G.derived
    assert (normal_lattice.__wrapped__,) not in G.derived
    assert (cyclic_classes.__wrapped__,) in G.derived


@pytest.mark.parametrize("text", ["S(4)", "AGL1(7,6)", "W(3)"])
def test_a_merged_class_walk_is_caught(monkeypatch, text):
    # merge the first nontrivial class with the first later class of another
    # order: the merged class takes one order, which the element orders
    # contradict; on AGL1(7,6) the power route's G^- is also 7 elements off
    # the one the pgrp-lemma scan finds
    real = maxcyc.core.conjugacy_classes

    def merged(G):
        classes = list(real(G))
        a = 1
        b = next(i for i in range(2, len(classes))
                 if perm_order(classes[i][0]) != perm_order(classes[a][0]))
        classes[a] = classes[a] + classes.pop(b)
        return tuple(classes)

    monkeypatch.setattr(maxcyc.core, "conjugacy_classes", merged)
    monkeypatch.setattr(maxcyc.cyclic, "conjugacy_classes", merged)
    G = realize_text(text)
    merged_classes = maxcyc.core.conjugacy_classes(G)
    assert any(perm_order(x) != n for c, n in zip(merged_classes, class_orders(G)) for x in c)
    if text == "AGL1(7,6)":
        lemma = check_pgrp_lemma(G)[0]
        assert (lemma.name, lemma.passed, lemma.actual) == ("gminus_equals_power_set", False, 7)


def test_quotient_cross_check_fires(monkeypatch):
    # a quotient read that loses the identity coset from (G/N)^- is caught
    # by the regular realization scored by the oracle
    G = realize_text("D(30)")
    N = named_normal(G, 5, 0)
    assert quotient_invariants(G, N).g_minus == {0}
    real = maxcyc.cyclic.read_quotient

    def drop_point_zero(G, table):
        got = real(G, table)
        return got._replace(g_minus=got.g_minus - {0})

    monkeypatch.setattr(maxcyc.cyclic, "read_quotient", drop_point_zero)
    with pytest.raises(AssertionError):
        assert_quotients_match_the_regular_realization(realize_text("D(30)"))


def test_quotient_order_cross_check_fires(monkeypatch):
    real = maxcyc.cyclic.read_quotient

    def wrong_orders(G, table):
        got = real(G, table)
        return got._replace(orders=(got.orders[0] + 1, *got.orders[1:]))

    monkeypatch.setattr(maxcyc.cyclic, "read_quotient", wrong_orders)
    with pytest.raises(AssertionError):
        assert_quotients_match_the_regular_realization(realize_text("D(30)"))


def test_subgroup_maximal_order_does_not_depend_on_the_hash_seed():
    # element hashes are salted per process, so only fresh processes can vary it
    code = (
        "from maxcyc import realize_text, subgroup_invariants\n"
        "from maxcyc.core import center\n"
        "G = realize_text('EA(2,5)')\n"
        "for s in subgroup_invariants(G, center(G)).maximal:\n"
        "    print(s.canonical_generator.cycle_string())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(maxcyc.__file__).parents[1])}
    first, second = (
        subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONHASHSEED": seed},
                       capture_output=True, text=True, check=True, timeout=120).stdout
        for seed in ("1", "2")
    )
    assert len(first.splitlines()) == 31
    assert first == second


# (eta, l, |G^-|, {(subgroup order, class size): number of classes}),
# as recorded in bench/references.json.
CAP_SCALE = {
    "S(7)": (
        6, 15, 1506,
        {(4, 315): 1, (6, 210): 1, (6, 420): 1, (7, 120): 1, (10, 126): 1, (12, 105): 1},
    ),
    "W(5)": (161, 163, 5, {(5, 5): 156, (5, 625): 1, (25, 125): 4}),
    "AGL1(127,126)": (2, 13, 11304, {(126, 127): 1, (127, 1): 1}),
}


@pytest.mark.parametrize("text", sorted(CAP_SCALE))
def test_eta_at_cap_scale(text):
    rep = eta(realize_text(text))
    assert (rep.eta, rep.l_value, rep.gminus_size, Counter(rep.class_reps)) == CAP_SCALE[text]


@pytest.mark.parametrize("text", ["AGL1(127,126)", "W(5)"])
def test_eta_at_cap_scale_does_not_depend_on_the_labelling(text):
    rep = eta(relabelled(realize_text(text), 17))
    assert (rep.eta, rep.l_value, rep.gminus_size, Counter(rep.class_reps)) == CAP_SCALE[text]


@pytest.mark.parametrize("text", ["AGL1(7,6)", "S(4)"])
def test_cyclic_index_holds_the_groups_own_elements(text):
    G = realize_text(text)
    own = {id(x) for x in G.element_list}
    for s in cyclic_subgroups(G):
        assert all(id(x) in own for x in s.elements)
        assert id(s.canonical_generator) in own
