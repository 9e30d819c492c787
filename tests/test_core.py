import gc
import random
from functools import cache

import pytest
from hypothesis import assume, given, strategies as st

import maxcyc.core
from maxcyc import (
    CapExceeded,
    Group,
    InternalCheckError,
    NotNormal,
    NotSubgroup,
    Permutation,
    center,
    conjugacy_classes,
    coset_table,
    derived_subgroup,
    enumerate_elements,
    eta,
    is_normal,
    normal_closure,
    normal_subgroups,
    quotient_group,
    quotient_invariants,
    realize_text,
    subgroup_generated,
)
from maxcyc.core import (
    base_index,
    class_orders,
    exponent,
    group_from_elements,
    is_cyclic,
    is_nilpotent,
    is_p_group,
    is_solvable,
    normal_lattice,
    normal_mask,
    point_stabilizer,
)

from oracles import (
    bfs_closure,
    greedy_generators,
    is_abelian,
    is_simple_nonabelian_60,
    normal_subgroup_element_sets,
    perm_order,
    relabelled,
)
from test_properties import assert_element_classes_match_the_oracle, group_settings, small_groups


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


def test_enumerate_s3():
    G = enumerate_elements(3, [cyc(3, (0, 1)), cyc(3, (0, 1, 2))])
    assert G.order == 6


def _scattered_generators(degree: int, seed: int) -> list[Permutation]:
    """Two random permutations of 5 random points and a transposition of 2
    other points: generators of a group of order at most 240 on `degree`
    points."""
    rng = random.Random(seed)
    points = rng.sample(range(degree), 7)
    gens = []
    for _ in range(2):
        moved = points[:5]
        rng.shuffle(moved)
        gens.append(Permutation.from_cycles(degree, [points[:5], moved[:3]]))
    gens.append(Permutation.from_cycles(degree, [points[5:]]))
    return gens


# Witnesses and canonical choices are listed in element_list order, so the
# breadth-first order of every closure is pinned, on both kinds of word.
@pytest.mark.parametrize("degree", [7, 127, 257])
@pytest.mark.parametrize("seed", range(3))
def test_closures_list_elements_in_breadth_first_order(degree, seed):
    gens = _scattered_generators(degree, seed)
    G = enumerate_elements(degree, gens, degree_cap=degree)
    assert [x.images for x in G] == bfs_closure(degree, gens)
    assert list(G.generators) == gens
    rng = random.Random(seed)
    H = subgroup_generated(G, rng.sample(G.element_list, 2))
    assert [x.images for x in H] == bfs_closure(degree, H.generators)
    for members in (H.elements, G.elements):
        K = group_from_elements(degree, members)
        assert [x.images for x in K] == bfs_closure(degree, K.generators)
        assert list(K.generators) == greedy_generators(degree, members)
        assert K.elements == members and set(map(id, K)) == set(map(id, members))


def test_enumerate_dihedral_30():
    rot = cyc(15, tuple(range(15)))
    ref = Permutation(tuple((-x) % 15 for x in range(15)))
    G = enumerate_elements(15, [rot, ref])
    assert G.order == 30


def test_enumerate_trivial():
    G = enumerate_elements(4, [])
    assert G.order == 1
    assert G.identity in G


def test_enumeration_order_is_bfs():
    a = cyc(3, (0, 1, 2))
    G = enumerate_elements(3, [a])
    assert G.element_list == (G.identity, a, a * a)


def test_order_cap_is_hard():
    with pytest.raises(CapExceeded):
        enumerate_elements(5, [cyc(5, (0, 1)), cyc(5, (0, 1, 2, 3, 4))], order_cap=100)


def test_degree_cap_is_hard():
    with pytest.raises(CapExceeded):
        enumerate_elements(200, [], degree_cap=128)


def test_conjugacy_classes_s3_and_a5():
    s3 = realize_text("S(3)")
    assert sorted(len(c) for c in conjugacy_classes(s3)) == [1, 2, 3]
    a5 = realize_text("A(5)")
    assert sorted(len(c) for c in conjugacy_classes(a5)) == [1, 12, 12, 15, 20]


def test_conjugacy_classes_partition_and_divide():
    for text in ["S(4)", "D(30)", "Q(8)"]:
        G = realize_text(text)
        classes = conjugacy_classes(G)
        assert sum(len(c) for c in classes) == G.order
        assert all(G.order % len(c) == 0 for c in classes)


def test_abelian_classes_are_singletons():
    G = realize_text("C(12)")
    assert all(len(c) == 1 for c in conjugacy_classes(G))


def test_subgroup_generated():
    s3 = realize_text("S(3)")
    triv = subgroup_generated(s3, [s3.identity])
    assert triv.order == 1
    three = next(x for x in s3 if perm_order(x) == 3)
    two = next(x for x in s3 if perm_order(x) == 2)
    assert subgroup_generated(s3, [three]).order == 3
    assert subgroup_generated(s3, [three, two]).order == 6
    with pytest.raises(ValueError):
        subgroup_generated(s3, [Permutation.identity(5)])


def test_is_normal():
    d30 = realize_text("D(30)")
    c15 = subgroup_generated(d30, [next(x for x in d30 if perm_order(x) == 15)])
    assert is_normal(d30, c15)
    s3 = realize_text("S(3)")
    c2 = subgroup_generated(s3, [next(x for x in s3 if perm_order(x) == 2)])
    assert not is_normal(s3, c2)
    assert is_normal(s3, subgroup_generated(s3, [s3.identity]))
    for _ in range(2):  # memoized per pair, but a non-subgroup raises every time
        with pytest.raises(NotSubgroup):
            is_normal(s3, d30)


def test_lattice_members_are_known_normal(monkeypatch):
    # normal_subgroups builds normal subgroups only, so normal_mask, the one
    # guard, answers for its members from the lattice and conjugates
    # nothing, and still decides any other subgroup by is_normal
    G = realize_text("EA(2,3) x S(3)")
    normals = normal_subgroups(G)
    calls = []
    conjugate_by = Permutation.conjugate_by
    monkeypatch.setattr(Permutation, "conjugate_by",
                        lambda h, g: calls.append(g) or conjugate_by(h, g))
    assert [normal_mask(G, N) for N in normals] == list(normal_lattice(G).mask.values())
    assert calls == []
    swap = next(x for x in G if perm_order(x) == 2 and x.images[:6] == (0, 1, 2, 3, 4, 5))
    with pytest.raises(NotNormal):
        normal_mask(G, subgroup_generated(G, [swap]))
    assert calls
    with pytest.raises(NotSubgroup):
        normal_mask(G, realize_text("S(4)"))


def test_normal_closure():
    s3 = realize_text("S(3)")
    three = next(x for x in s3 if perm_order(x) == 3)
    assert normal_closure(s3, [three]).order == 3
    assert normal_closure(s3, [s3.identity]).order == 1
    d30 = realize_text("D(30)")
    refl = next(x for x in d30 if perm_order(x) == 2)
    assert normal_closure(d30, [refl]).order == 30
    with pytest.raises(ValueError):
        normal_closure(s3, [Permutation.identity(5)])


def test_memo_takes_no_keyword_arguments():
    # a keyword would be left out of the cache key, so the wrapper refuses it
    G = realize_text("D(30)")
    N = next(N for N in normal_subgroups(G) if N.order == 5)
    table = coset_table(G, N)
    with pytest.raises(TypeError):
        quotient_invariants(G, N, table=table)
    with pytest.raises(TypeError):
        maxcyc.core.memo(lambda G, *args, **kw: kw)(G, scale=2)
    assert not any(key[0] is quotient_invariants.__wrapped__ for key in G.derived)


def test_quotient_basics():
    d30 = realize_text("D(30)")
    N = next(N for N in normal_subgroups(d30) if N.order == 5)
    Q, table = quotient_group(d30, N)
    assert Q.order == 6
    assert table.index == 6
    cosets = [{x for x in d30 if table.point_of[x] == i} for i in range(table.index)]
    assert all(len(c) == 5 for c in cosets)
    assert sorted({table.point_of[x] for x in d30}) == list(range(6))
    # identity coset sits at point 0
    assert d30.identity in cosets[0]

    G_over_G = quotient_group(d30, d30)[0]
    assert G_over_G.order == 1

    triv = next(N for N in normal_subgroups(d30) if N.order == 1)
    full, _ = quotient_group(d30, triv)
    assert full.order == d30.order

    s3 = realize_text("S(3)")
    c2 = subgroup_generated(s3, [next(x for x in s3 if perm_order(x) == 2)])
    with pytest.raises(NotNormal):
        quotient_group(s3, c2)


@pytest.mark.parametrize("text", ["D(30)", "S(4)", "Q(16)", "EA(2,3) x C(4)"])
def test_coset_table_numbers_cosets_by_their_minima(text):
    G = realize_text(text)
    for N in normal_subgroups(G):
        table = coset_table(G, N)
        cosets = [frozenset(x for x in G if table.point_of[x] == i) for i in range(table.index)]
        expected = sorted((frozenset(x * n for n in N) for x in G), key=min)
        assert cosets == list(dict.fromkeys(expected))
        assert cosets[0] == N.elements
        assert table.representatives == tuple(min(c) for c in cosets)
        assert all(table.point_of[x] == i for i, c in enumerate(cosets) for x in c)
        own = {id(x) for x in G.element_list}
        assert all(id(x) in own for x in table.point_of)
        assert quotient_group(G, N)[1].point_of == table.point_of
    s3 = realize_text("S(3)")
    c2 = subgroup_generated(s3, [next(x for x in s3 if perm_order(x) == 2)])
    with pytest.raises(NotNormal):
        coset_table(s3, c2)


@cache
def cap_groups() -> tuple[Group, ...]:
    """AGL1(127,126) and W(5), each also on relabelled points."""
    named = [realize_text("AGL1(127,126)"), realize_text("W(5)")]
    return (*named, *(relabelled(G, 9) for G in named))


def test_element_orders_are_cycle_length_lcms():
    # each class's order, taken from its first member, is the order of
    # every member
    G = realize_text("S(4) x C(3)")
    assert sorted(set(class_orders(G))) == [1, 2, 3, 4, 6, 12]
    for H in (G, relabelled(G, 9), *cap_groups()):
        for c, n in zip(conjugacy_classes(H), class_orders(H), strict=True):
            assert all(perm_order(x) == n for x in c)


def assert_base_kernel_matches(G: Group, sample: int | None = None) -> None:
    """The base of G separates its elements, and base products, powers
    (exponents 0 up to the order + 1) and conjugates equal ``*``, ``**`` and
    ``conjugate_by``, as G's own objects: on every element, or on a seeded
    sample of that many elements."""
    base = base_index(G)
    assert len({base.read(x.images) for x in G}) == G.order
    assert [x for x in G if all(x(b) == b for b in base.points)] == [G.identity]
    own = {id(x) for x in G.element_list}
    xs = list(G) if sample is None else random.Random(3).sample(list(G), sample)
    for g in (*G.generators, *xs[:4]):
        times, conjugate = base.times(g), base.conjugator(g)
        for x in xs:
            assert times(x) == x * g and id(times(x)) in own
            assert conjugate(x) == x.conjugate_by(g) and id(conjugate(x)) in own
    for x in xs:
        for n in range(perm_order(x) + 2):
            assert base.power(x, n) == x ** n and id(base.power(x, n)) in own


@given(small_groups(), st.integers(min_value=0, max_value=2**16))
@group_settings
def test_base_kernel_matches_permutation_arithmetic(G, seed):
    for H in (G, relabelled(G, seed)):
        assert_base_kernel_matches(H)


@pytest.mark.parametrize("index", range(4), ids=["AGL1", "W(5)", "AGL1 relabelled", "W(5) relabelled"])
def test_base_kernel_at_cap_scale(index):
    assert_base_kernel_matches(cap_groups()[index], sample=150)


def test_base_sizes():
    sizes = {text: len(base_index(realize_text(text)).points)
             for text in ["AGL1(127,126)", "W(5)", "S(7)", "Heis(5) x C(5)", "C(5)", "C(1)"]}
    assert sizes == {"AGL1(127,126)": 2, "W(5)": 5, "S(7)": 6, "Heis(5) x C(5)": 3,
                     "C(5)": 1, "C(1)": 0}


# t**2 reading as t**3 or as t corrupts every power list through t**2.
# The class-ordered walk meets t first, and then t**3: reading as t**3, the
# list of t**3 runs t**3, t**6, t**9 = t**2 read as t**3, and cycles; reading
# as t, the list of t cycles at once.  Neither returns to the identity,
# which the index walk refuses.
@pytest.mark.parametrize("wrong", [3, 1])
def test_a_wrong_base_image_is_caught(wrong):
    G = realize_text("AGL1(7,6)")
    base = base_index(G)
    t = next(x for x in G if perm_order(x) == 7)
    base.element_of[base.read((t ** 2).images)] = base.power(t, wrong)
    with pytest.raises(InternalCheckError):
        eta(G)


def test_quotient_order_multiplies():
    for text in ["D(30)", "Q(16)", "S(4)"]:
        G = realize_text(text)
        for N in normal_subgroups(G):
            Q, _ = quotient_group(G, N)
            assert Q.order * N.order == G.order


def test_quotient_by_trivial_preserves_order_and_eta():
    from maxcyc import eta

    for text in ["S(4)", "D(30)", "Q(16)", "Dic12"]:
        G = realize_text(text)
        triv = subgroup_generated(G, [G.identity])
        Q, _ = quotient_group(G, triv)
        assert Q.order == G.order
        assert eta(Q).eta == eta(G).eta


def test_closures_contain_their_seeds():
    G = realize_text("S(4)")
    seeds = [list(G.element_list)[5:8], [next(x for x in G if perm_order(x) == 4)]]
    for seed in seeds:
        H = subgroup_generated(G, seed)
        assert set(seed) <= H.elements
        assert all(a * b in H.elements for a in H.elements for b in H.elements)
        K = normal_closure(G, seed)
        assert set(seed) <= K.elements
        assert is_normal(G, K)


def test_center():
    assert center(realize_text("S(3)")).order == 1
    abelian = realize_text("C(12)")
    assert center(abelian).order == 12
    assert center(realize_text("Dic12")).order == 2
    assert center(realize_text("Q(8)")).order == 2


def test_derived_subgroup():
    s3 = realize_text("S(3)")
    assert derived_subgroup(s3).order == 3
    assert derived_subgroup(realize_text("C(12)")).order == 1
    assert derived_subgroup(realize_text("A(5)")).order == 60
    assert derived_subgroup(realize_text("Dic12")).order == 3


@pytest.mark.parametrize(
    "text, orders",
    [
        ("S(3)", [1, 3, 6]),
        ("D(30)", [1, 3, 5, 15, 30]),
        ("EA(3,2)", [1, 3, 3, 3, 3, 9]),
    ],
)
def test_normal_subgroups_expected_orders(text, orders):
    G = realize_text(text)
    assert [N.order for N in normal_subgroups(G)] == orders


@pytest.mark.parametrize(
    "text, count",
    [("EA(2,4) x C(4)", 681), ("A(7)", 2), ("S(7)", 3), ("EA(3,5)", 2664)],
)
def test_normal_subgroup_counts(text, count):
    normals = normal_subgroups(realize_text(text))
    assert len(normals) == count
    # each normal subgroup is produced once
    assert len({N.elements for N in normals}) == count


# Regression pins: these orders were recorded from normal_subgroups itself.
# For AGL1(127,126) they are also 1 and 127*d for each divisor d of 126.
@pytest.mark.parametrize(
    "text, orders",
    [
        ("W(5)", [1, 5, 25, 125, 625, 3125, 3125, 3125, 3125, 3125, 3125, 15625]),
        ("AGL1(127,126)", [1, 127, 254, 381, 762, 889, 1143, 1778, 2286, 2667,
                           5334, 8001, 16002]),
    ],
)
def test_normal_subgroup_orders_near_the_cap(text, orders):
    assert [N.order for N in normal_subgroups(realize_text(text))] == orders


@pytest.mark.parametrize("text", ["S(3)", "D(30)", "EA(3,2)", "Q(8)", "S(4)", "Dic12"])
def test_normal_subgroups_match_exhaustive_oracle(text):
    G = realize_text(text)
    got = {N.elements for N in normal_subgroups(G)}
    assert got == normal_subgroup_element_sets(G)


def test_normal_subgroup_outputs_are_normal_subgroups():
    G = realize_text("S(3) x D(10)")
    for N in normal_subgroups(G):
        assert is_normal(G, N)
        assert N.elements <= G.elements


def assert_lattice_lists_breadth_first(G: Group) -> None:
    """The members of G's lattice list no elements until read; then each
    lists G's own elements in the breadth-first order of its generators."""
    normals = normal_subgroups(G)
    assert all(N._element_list is None for N in normals)
    own = {id(x) for x in G.element_list}
    for N in normals:
        assert [x.images for x in N] == bfs_closure(G.degree, N.generators)
        assert all(id(x) in own for x in N.element_list)
        assert N.element_list is N.element_list


@pytest.mark.parametrize("text", ["D(30)", "S(4)", "Q(16)", "SG72_50", "EA(2,3) x C(4)", "A(5)"])
def test_lattice_members_list_their_elements_breadth_first(text):
    G = realize_text(text)
    assert_lattice_lists_breadth_first(G)
    assert_lattice_lists_breadth_first(relabelled(G, 5))


@given(small_groups())
@group_settings
def test_lattice_member_lists_match_the_breadth_first_oracle(G):
    assert_lattice_lists_breadth_first(G)


@pytest.mark.parametrize("text, count", [("W(5)", 12), ("AGL1(127,126)", 13)])
def test_normal_subgroups_multiply_no_permutations(monkeypatch, text, count):
    # class products and the atoms' powers come from base_index, as G's
    # own elements, so the lattice makes no Permutation product
    G = realize_text(text)
    made = []
    product = Permutation.__mul__
    monkeypatch.setattr(Permutation, "__mul__", lambda a, b: made.append(b) or product(a, b))
    assert len(normal_subgroups(G)) == count
    assert made == []


@pytest.mark.parametrize("text", ["EA(2,7)", "C(12)", "EA(2,2) x C(4)"])
def test_an_abelian_class_walk_makes_no_conjugation(monkeypatch, text):
    made = []
    real = maxcyc.core.word_conjugator
    monkeypatch.setattr(maxcyc.core, "word_conjugator", lambda g: made.append(g) or real(g))
    G = realize_text(text)
    assert len(conjugacy_classes(G)) == G.order
    assert made == []


def test_the_class_walk_leaves_central_generators_out(monkeypatch):
    made = []
    real = maxcyc.core.word_conjugator
    monkeypatch.setattr(maxcyc.core, "word_conjugator", lambda g: made.append(g) or real(g))
    G = realize_text("S(3) x EA(2,2)")
    assert len(conjugacy_classes(G)) == 12
    assert made and center(G).elements.isdisjoint(made)


@given(small_groups(), st.integers(min_value=1, max_value=3))
@group_settings
def test_classes_with_central_generators_match_the_oracle(G, k):
    # G times a cyclic group of order k + 1 on new points, whose generator
    # is central, and listed first or last
    assume(G.order <= 60)
    n = G.degree
    lifted = [Permutation(g.images + tuple(range(n, n + k + 1))) for g in G.generators]
    c = Permutation(tuple(range(n)) + tuple(range(n + 1, n + k + 1)) + (n,))
    for gens in ([c, *lifted], [*lifted, c]):
        assert_element_classes_match_the_oracle(enumerate_elements(n + k + 1, gens))


def test_is_simple_nonabelian_60():
    assert is_simple_nonabelian_60(realize_text("A(5)"))
    assert not is_simple_nonabelian_60(realize_text("C(60)"))
    assert not is_simple_nonabelian_60(realize_text("S(4)"))
    assert not is_simple_nonabelian_60(realize_text("S(5)"))  # order 120


def test_point_stabilizer():
    d10 = realize_text("D(10)")
    assert point_stabilizer(d10, 0).order == 2
    agl = realize_text("AGL1(5,4)")
    assert point_stabilizer(agl, 0).order == 4


def test_structure_predicates():
    assert is_cyclic(realize_text("C(15)"))
    assert not is_cyclic(realize_text("S(3)"))  # exponent 6 but not cyclic
    assert is_abelian(realize_text("EA(3,2)"))
    assert not is_abelian(realize_text("Q(8)"))
    assert is_p_group(realize_text("Q(16)")) == 2
    assert is_p_group(realize_text("C(12)")) is None
    assert is_nilpotent(realize_text("C(12)"))
    assert is_nilpotent(realize_text("Q(8)"))
    assert not is_nilpotent(realize_text("S(3)"))
    assert is_solvable(realize_text("S(4)"))
    assert not is_solvable(realize_text("A(5)"))
    assert exponent(realize_text("Heis(3)")) == 3
    assert exponent(realize_text("S(3)")) == 6


def _derive_all(spec: str) -> frozenset:
    """Fill a fresh group's derived data; return its element set only."""
    G = realize_text(spec)
    eta(G)
    for N in normal_subgroups(G):
        quotient_group(G, N)
    return G.elements


def test_derived_data_is_freed_with_its_group():
    elements = _derive_all("Perm(9; (0 1 2 3 4 5 6 7 8))")
    gc.collect()
    assert not [
        obj for obj in gc.get_objects()
        if isinstance(obj, Group) and obj.elements == elements
    ]
