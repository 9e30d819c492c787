"""Randomized invariants over small generated groups and parser inputs."""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from maxcyc import (
    Permutation,
    center,
    conjugacy_classes,
    cyclic_classes,
    enumerate_elements,
    eta,
    eta_star,
    g_minus,
    g_minus_via_powers,
    g_power_set,
    maximal_cyclic_subgroups,
    normal_closure,
    normal_subgroups,
    parse_spec,
    quotient_group,
    quotient_invariants,
    realize_text,
    render,
    subgroup_generated,
    subgroup_invariants,
)
from maxcyc.constructors import DirectProductSpec
from maxcyc.core import class_orders, is_cyclic, is_nilpotent, is_p_group
from maxcyc.corpus import default_corpus_text, parse_corpus
from maxcyc.cyclic import _cyclic_index, eta_preserving_normals, maximal_cyclic_classes
from maxcyc.theorems import check_eitheror, check_quot_conditions, classify_prime_order_group

from oracles import (
    classify_oracle,
    element_classes_oracle,
    eta_oracle,
    eta_star_oracle,
    g_minus_oracle,
    greedy_generators,
    is_nilpotent_oracle,
    normal_subgroup_element_sets,
    outcome,
    perm_order,
    quot_conditions_oracle,
    relabelled,
    subgroup_closure,
)


def perms(degree):
    return st.permutations(list(range(degree))).map(Permutation)


@st.composite
def small_groups(draw):
    degree = draw(st.integers(min_value=2, max_value=6))
    gens = draw(st.lists(perms(degree), min_size=1, max_size=3))
    return enumerate_elements(degree, gens, order_cap=720)


group_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(small_groups())
@group_settings
def test_group_axioms_hold_for_enumerated_closures(G):
    assert G.identity in G
    for x in list(G)[:10]:
        assert x.inverse() in G
        assert perm_order(x) >= 1
        assert G.order % perm_order(x) == 0


@given(perms(6), perms(6), perms(6))
@settings(max_examples=100, deadline=None)
def test_composition_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(small_groups())
@group_settings
def test_conjugacy_classes_partition_the_group(G):
    classes = conjugacy_classes(G)
    assert sum(len(c) for c in classes) == G.order
    assert all(G.order % len(c) == 0 for c in classes)


def assert_element_classes_match_the_oracle(G):
    """The same partition as the oracle's, classes ordered by minimum and
    each listed from its minimum, which the lattice takes as the class's
    representative."""
    want = element_classes_oracle(G)
    classes = conjugacy_classes(G)
    assert [frozenset(c) for c in classes] == want
    assert [len(c) for c in classes] == [len(c) for c in want]
    assert [c[0] for c in classes] == [min(c) for c in want]


@given(small_groups())
@group_settings
def test_element_classes_match_the_oracle(G):
    assume(G.order <= 120)
    assert_element_classes_match_the_oracle(G)


NAMED_GROUPS = ["S(4)", "A(5)", "D(30)", "Q(16)", "SG72_50", "AGL1(7,3)", "Heis(3)", "W(3)",
                "EA(2,2) x C(4)"]


@pytest.mark.parametrize("text", NAMED_GROUPS)
def test_named_element_classes_match_the_oracle(text):
    assert_element_classes_match_the_oracle(realize_text(text))


@given(small_groups())
@group_settings
def test_gminus_power_characterization(G):
    assert g_minus(G) == g_minus_oracle(G)


@given(small_groups())
@group_settings
def test_class_orders_match_the_oracle(G):
    classes = conjugacy_classes(G)
    orders = class_orders(G)
    assert len(orders) == len(classes)
    assert all(perm_order(x) == n for c, n in zip(classes, orders) for x in c)


@given(small_groups(), st.integers(min_value=0, max_value=2**16))
@group_settings
def test_gminus_power_route_matches_its_definition(G, seed):
    for H in (G, relabelled(G, seed)):
        assert g_minus_via_powers(H) == g_minus_oracle(H)


@given(small_groups())
@group_settings
def test_pgroup_gminus_is_pth_powers(G):
    p = is_p_group(G)
    assume(p is not None)
    assert g_minus(G) == g_power_set(G, p)


@given(small_groups())
@group_settings
def test_maximal_cyclic_union_covers(G):
    union = set()
    for s in maximal_cyclic_subgroups(G):
        union |= s.elements
    assert union == set(G.elements)


@given(small_groups())
@group_settings
def test_eta_at_most_l_minus_one(G):
    assume(G.order > 1)
    rep = eta(G)
    assert rep.eta <= rep.l_value - 1


@given(small_groups())
@group_settings
def test_quotient_eta_monotone_and_star_bound(G):
    assume(G.order <= 120)
    e_g = eta(G).eta
    for N in normal_subgroups(G):
        assert eta(quotient_group(G, N)[0]).eta <= e_g
        assert eta_star(G, N) <= e_g


@given(small_groups())
@group_settings
def test_classification_matches_the_oracle(G):
    """G/N classified on G's data agrees with the oracle on the regular
    realization of G/N, for every normal N, failures and their messages
    included."""
    for N in normal_subgroups(G):
        want = outcome(classify_oracle, quotient_group(G, N)[0])
        assert outcome(classify_prime_order_group, G, N) == want


def assert_quotients_match_the_regular_realization(G):
    """eta, the non-generators (as coset points) and the coset orders of
    G/N, read off G's cyclic index, against the regular realization of G/N
    scored by the brute-force oracle, for every normal N."""
    for N in normal_subgroups(G):
        Q, table = quotient_group(G, N)
        got = quotient_invariants(G, N)
        eta_value, _, _, _, maximal_sets, _ = eta_oracle(Q)
        # the quotient element carrying the coset at point c sends 0 to c
        point = {q: q.images[0] for q in Q.element_list}
        generates_maximal = {
            q for q in Q.element_list
            if any(q in s and len(s) == perm_order(q) for s in maximal_sets)
        }
        assert got.eta == eta_value
        assert got.g_minus == {point[q] for q in Q.element_list if q not in generates_maximal}
        assert got.orders == tuple(
            perm_order(q) for q in sorted(Q.element_list, key=point.__getitem__)
        )
        assert len(got.orders) == table.index


@given(small_groups())
@group_settings
def test_quotient_invariants_match_the_regular_realization(G):
    assume(G.order <= 120)
    assert_quotients_match_the_regular_realization(G)


@pytest.mark.parametrize("text", ["D(30)", "Dic12", "Q(16)", "S(4)", "Heis(3)", "SG72_50",
                                  "EA(2,3) x C(4)", "M16", "AGL1(7,6)"])
def test_named_quotient_invariants_match_the_regular_realization(text):
    assert_quotients_match_the_regular_realization(realize_text(text))


@given(small_groups())
@group_settings
def test_normal_subgroups_match_oracle(G):
    assume(G.order <= 120)
    normals = normal_subgroups(G)
    assert {N.elements for N in normals} == normal_subgroup_element_sets(G)
    assert len({N.elements for N in normals}) == len(normals)
    for N in normals:
        assert list(N.generators) == greedy_generators(G.degree, N.elements)


@given(small_groups(), st.data())
@group_settings
def test_closures_match_oracles(G, data):
    assume(G.order <= 120)
    elements = st.sampled_from(sorted(G.element_list))
    seed = data.draw(st.lists(elements, max_size=3))
    H = subgroup_generated(G, seed)
    assert H.elements == subgroup_closure(G, seed)
    kept = []
    for x in sorted(set(seed)):
        if x not in subgroup_closure(G, kept):
            kept.append(x)
    assert list(H.generators) == kept
    containing = [N for N in normal_subgroup_element_sets(G) if set(seed) <= N]
    assert normal_closure(G, seed).elements == min(containing, key=len)


def assert_eta_matches_oracle(G):
    """eta, its classes in order, l and |G^-|, the maximal cyclic subgroups
    and the classes of all cyclic subgroups, against the oracle."""
    eta_value, class_reps, l_value, gminus_size, maximal_sets, all_classes = eta_oracle(G)
    rep = eta(G)
    assert (rep.eta, rep.class_reps, rep.l_value, rep.gminus_size) == (
        eta_value, class_reps, l_value, gminus_size
    )
    assert {s.elements for s in maximal_cyclic_subgroups(G)} == maximal_sets
    assert {frozenset(s.elements for s in c) for c in cyclic_classes(G).values()} == all_classes


@given(small_groups())
@group_settings
def test_eta_matches_oracle(G):
    assert_eta_matches_oracle(G)


@pytest.mark.parametrize("text", NAMED_GROUPS)
def test_named_eta_matches_the_oracle(text):
    assert_eta_matches_oracle(realize_text(text))


def assert_eta_preserving_normals_match_the_oracle(G):
    """The proper normals N with eta(G/N) = eta(G), against the oracle's
    eta of the regular realization of every proper quotient."""
    target = eta(G).eta
    want = [
        N for N in normal_subgroups(G)
        if N.order < G.order and eta_oracle(quotient_group(G, N)[0])[0] == target
    ]
    assert list(eta_preserving_normals(G)) == want


@given(small_groups())
@group_settings
def test_eta_preserving_normals_match_the_oracle(G):
    assume(G.order <= 120)
    assert_eta_preserving_normals_match_the_oracle(G)


# C(2) x C(4) has a normal inside G^- whose quotient loses a class: <b^2>,
# with eta(G) = 4 and eta(G/<b^2>) = 3
@pytest.mark.parametrize("text", ["C(2) x C(4)", "D(30)", "Dic12", "Q(16)", "S(4)", "Heis(3)",
                                  "SG72_50", "EA(2,3) x C(4)", "M16", "AGL1(7,6)", "D(8)"])
def test_named_eta_preserving_normals_match_the_oracle(text):
    assert_eta_preserving_normals_match_the_oracle(realize_text(text))


def assert_conjugation_orbits_match_oracles(G):
    """eta*(N) for every normal N against the brute-force oracle; the centre
    against the elements commuting with every element; and, for a
    noncyclic p-group, the normal maximal cyclic subgroups that
    check_eitheror tests against the oracle's maximal sets fixed by every
    conjugation, for each nontrivial eta-preserving N."""
    for N in normal_subgroups(G):
        assert eta_star(G, N) == eta_star_oracle(G, N)[0]
    elems = G.element_list
    assert center(G).elements == {x for x in elems if all(x * y == y * x for y in elems)}
    if not is_p_group(G) or is_cyclic(G):
        return
    fixed = [s for orbit in eta_star_oracle(G, G)[1] if len(orbit) == 1 for s in orbit]
    fixed.sort(key=lambda s: (len(s), sorted(x.images for x in s)))
    for N in eta_preserving_normals(G):
        if N.order == 1:
            continue
        checks = check_eitheror(G, N, N)
        assert [(c.name, c.passed) for c in checks if c.name.startswith("normal_maximal")] == [
            (f"normal_maximal_cyclic_order_{len(s)}_contains_N", N.elements <= s) for s in fixed
        ]


@given(small_groups())
@group_settings
def test_conjugation_orbits_match_oracles(G):
    assume(G.order <= 120)
    assert_conjugation_orbits_match_oracles(G)


@pytest.mark.parametrize("text", ["SG72_50", "AGL1(7,3)", "D(16)", "Q(16)", "M16", "Heis(3)",
                                  "EA(2,2) x C(4)"])
def test_named_conjugation_orbits_match_oracles(text):
    assert_conjugation_orbits_match_oracles(realize_text(text))


CORPUS_SPECS = [entry.spec_text for entry in parse_corpus(default_corpus_text())]

# The factors H and K of every corpus entry written H x K, whose
# nilpotence decides the dirproduct suite's law iv.
CORPUS_FACTORS = sorted({
    render(factor)
    for spec in map(parse_spec, CORPUS_SPECS) if isinstance(spec, DirectProductSpec)
    for factor in (spec.left, spec.right)
})


@given(small_groups())
@group_settings
def test_nilpotence_matches_the_oracle(G):
    assert is_nilpotent(G) == is_nilpotent_oracle(G)


@pytest.mark.parametrize("text", CORPUS_FACTORS)
def test_corpus_factor_nilpotence_matches_the_oracle(text):
    G = realize_text(text)
    assert is_nilpotent(G) == is_nilpotent_oracle(G)


def assert_quot_conditions_match_the_oracle(G):
    """Conditions (a), (b), (c), the strong condition and their witnesses,
    for every proper normal N, against their definitions."""
    for N in normal_subgroups(G):
        if N.order == G.order:
            continue
        rep = check_quot_conditions(G, N)
        got = (rep.cond_a, rep.cond_b, rep.cond_c, rep.strong_generator_condition, rep.witnesses)
        assert got == quot_conditions_oracle(G, N)


@given(small_groups())
@group_settings
def test_quot_conditions_match_the_oracle(G):
    assert_quot_conditions_match_the_oracle(G)


@pytest.mark.parametrize("text", CORPUS_SPECS)
def test_corpus_quot_conditions_match_the_oracle(text):
    assert_quot_conditions_match_the_oracle(realize_text(text))


def assert_subgroup_invariants_match_standalone(G):
    """eta, l, |N^-| and the maximal cyclic subgroups of every normal N,
    read off G's index, against N realized as a group of its own; eta*(N)
    against the oracle; and N = G against eta(G)."""
    for N in normal_subgroups(G):
        own = enumerate_elements(G.degree, N.generators)
        got = subgroup_invariants(G, N)
        rep = eta(own)
        assert (got.eta, got.l_value, got.gminus_size) == (rep.eta, rep.l_value, rep.gminus_size)
        assert {s.elements for s in got.maximal} == {
            s.elements for s in maximal_cyclic_subgroups(own)
        }
        assert eta_star(G, N) == eta_star_oracle(G, N)[0]
    top, rep = subgroup_invariants(G, G), eta(G)
    assert (top.eta, top.l_value, top.gminus_size) == (rep.eta, rep.l_value, rep.gminus_size)


@given(small_groups())
@group_settings
def test_subgroup_invariants_match_standalone(G):
    assert_subgroup_invariants_match_standalone(G)


@pytest.mark.parametrize("text", CORPUS_SPECS)
def test_corpus_subgroup_invariants_match_standalone(text):
    assert_subgroup_invariants_match_standalone(realize_text(text))


def assert_labels_name_the_classes(G):
    """Each subgroup of the cyclic index is labelled with the least class
    of conjugacy_classes that holds one of its generators, and two share a
    label exactly when the oracle's classes make them conjugate."""
    classes = conjugacy_classes(G)
    subs, _ = _cyclic_index(G)
    for s in subs:
        gens = {x for x in s.elements if perm_order(x) == s.order}
        assert s.label == next(i for i, c in enumerate(classes) if not gens.isdisjoint(c))
    labels = {s.label for s in subs}
    by_label = {frozenset(s.elements for s in subs if s.label == label) for label in labels}
    assert by_label == eta_oracle(G)[5]


@given(small_groups())
@group_settings
def test_labels_name_the_classes_of_cyclic_subgroups(G):
    assert_labels_name_the_classes(G)


@pytest.mark.parametrize("text", CORPUS_SPECS)
def test_corpus_labels_name_the_classes_of_cyclic_subgroups(text):
    assert_labels_name_the_classes(realize_text(text))


@given(small_groups())
@group_settings
def test_subgroup_classes_partition_input(G):
    subs = maximal_cyclic_subgroups(G)
    seen = [s for cls in maximal_cyclic_classes(G) for s in cls]
    assert sorted(s.sort_key() for s in seen) == sorted(s.sort_key() for s in subs)


# --- parser round trips --------------------------------------------------------

@st.composite
def group_specs(draw):
    from maxcyc.constructors import (
        Alternating,
        Cyclic,
        Dicyclic12,
        Dihedral,
        DirectProductSpec,
        ElemAbelian,
        ExplicitPerms,
        FrobeniusAGL1,
        GeneralizedQuaternion,
        Heisenberg,
        ModularM16,
        SG7250,
        Symmetric,
        WreathCpCp,
    )

    def perms():
        degree = draw(st.integers(1, 6))
        cycle = st.lists(st.integers(0, degree - 1), unique=True, max_size=degree).map(tuple)
        gen = st.lists(cycle, min_size=1, max_size=3).map(tuple)
        return ExplicitPerms(degree, tuple(draw(st.lists(gen, min_size=1, max_size=3))))

    def atom():
        kind = draw(st.sampled_from([*"CDSAEHQWF", "Dic12", "SG72_50", "M16", "Perm"]))
        if kind == "Dic12":
            return Dicyclic12()
        if kind == "SG72_50":
            return SG7250()
        if kind == "M16":
            return ModularM16()
        if kind == "Perm":
            return perms()
        if kind == "C":
            return Cyclic(draw(st.integers(1, 60)))
        if kind == "D":
            return Dihedral(2 * draw(st.integers(1, 30)))
        if kind == "S":
            return Symmetric(draw(st.integers(1, 5)))
        if kind == "A":
            return Alternating(draw(st.integers(3, 6)))
        if kind == "E":
            return ElemAbelian(draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 3)))
        if kind == "H":
            return Heisenberg(draw(st.sampled_from([3, 5])))
        if kind == "Q":
            return GeneralizedQuaternion(2 ** draw(st.integers(3, 5)))
        if kind == "W":
            return WreathCpCp(draw(st.sampled_from([2, 3])))
        q = draw(st.sampled_from([3, 5, 7, 9, 13]))
        base = 3 if q == 9 else q
        divisors = [d for d in range(1, base) if (base - 1) % d == 0]
        return FrobeniusAGL1(q, draw(st.sampled_from(divisors)))

    node = atom()
    for _ in range(draw(st.integers(0, 2))):
        node = DirectProductSpec(node, atom())
    return node


@given(group_specs())
@settings(max_examples=150, deadline=None)
def test_parse_render_roundtrip(spec):
    assert parse_spec(render(spec)) == spec


def test_keyword_table_holds_every_family():
    from maxcyc.constructors import FAMILIES

    assert set(FAMILIES) == {
        "C", "D", "S", "A", "EA", "Heis", "Q", "W", "AGL1", "Dic12", "SG72_50", "M16", "Perm",
    }
    assert all(FAMILIES[kw].keyword == kw for kw in FAMILIES)
    # longest first: the tokenizer must read "AGL1" before "A", "SG72_50" before "S"
    lengths = [len(kw) for kw in FAMILIES]
    assert lengths == sorted(lengths, reverse=True)


@given(st.text(alphabet="CDSAQWx()0123456789, ;", max_size=20))
@settings(max_examples=200, deadline=None)
def test_parser_never_crashes_unexpectedly(text):
    from maxcyc.errors import ArityError, ParseError

    try:
        parse_spec(text)
    except (ParseError, ArityError):
        pass
