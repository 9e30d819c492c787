"""The lattice record and the laws read on class masks, against the
element-set routes of ``oracles.py``; and the coset tables a full verify
builds."""

from collections import Counter
from functools import partial

import pytest
from hypothesis import assume, given

from maxcyc import core, corpus, cyclic, theorems
from maxcyc.core import (
    CosetTable,
    Group,
    center,
    class_mask,
    class_members,
    conjugacy_classes,
    coset_table,
    derived_subgroup,
    join,
    named_normal,
    normal_lattice,
    normal_mask,
    normal_subgroups,
)
from maxcyc.constructors import realize_text
from maxcyc.cyclic import g_minus, power_classes
from maxcyc.errors import NotNormal, NotSubgroup
from maxcyc.numutil import is_prime
from maxcyc.perm import Permutation
from maxcyc.theorems import _class_powers, check_gminus_containment, classify_prime_order_group

from oracles import (
    center_oracle,
    classify_oracle,
    coset_orders_oracle,
    derived_oracle,
    g_minus_oracle,
    gminus_containment_oracle,
    joins_oracle,
    outcome,
)
from test_properties import CORPUS_SPECS, group_settings, small_groups


def assert_record_is_consistent(G: Group) -> None:
    """Each member's mask holds exactly its elements' classes, each mask
    names its member, and the labels count the members of each order."""
    lattice = normal_lattice(G)
    assert lattice.groups == normal_subgroups(G) == tuple(lattice.mask)
    assert list(lattice.named.values()) == list(lattice.groups)
    counts = Counter()
    for (order, index), N in lattice.named.items():
        assert (order, index) == (N.order, counts[N.order])
        counts[N.order] += 1
        assert named_normal(G, order, index) is N
    for N, mask in lattice.mask.items():
        assert lattice.member[mask] is N
        assert frozenset(class_members(G, mask)) == N.elements
        assert class_mask(G, N.elements) == mask == normal_mask(G, N)


def assert_masks_match_element_sets(G: Group) -> None:
    """Containment in G^-, Z(G) and G' on masks against element sets, for
    every normal N; N in M and the join of N and M for pairs of normals."""
    normals = normal_subgroups(G)
    gm, z, d = g_minus_oracle(G), center_oracle(G), derived_oracle(G)
    assert g_minus(G) == gm and center(G).elements == z and derived_subgroup(G).elements == d
    masks = {name: class_mask(G, s) for name, s in (("gm", gm), ("z", z), ("d", d))}
    for N in normals:
        n = normal_mask(G, N)
        for name, s in (("gm", gm), ("z", z), ("d", d)):
            assert (not n & ~masks[name]) == (N.elements <= s), name
    pairs = [(N, M) for N in normals[:24] for M in normals[:24]]
    for (N, M), joined in zip(pairs, joins_oracle(G, pairs)):
        assert (not normal_mask(G, N) & ~normal_mask(G, M)) == (N.elements <= M.elements)
        assert join(G, (N, M)).elements == joined
    assert join(G, ()) is normals[0]
    assert join(G, normals) is normals[-1]


def assert_class_coset_orders_match(G: Group) -> None:
    """For each normal N and class, the order of xN, by repeated products,
    is one value over the class and agrees with the coset table's: 1 inside
    N, q exactly when the class's q-th power class lies in N, and a prime
    exactly when the class is in ``prime_modulo``.  The checks of the
    gminus-containment suite equal the element-set route's."""
    classes, powers = conjugacy_classes(G), power_classes(G)
    for N in normal_subgroups(G):
        inside = normal_mask(G, N)
        prime_modulo = _class_powers(G).prime_modulo(inside)
        by_oracle = coset_orders_oracle(G, N)
        table = coset_table(G, N)
        by_table = cyclic.read_quotient(G, table).orders
        for i, c in enumerate(classes):
            (order,) = {by_oracle[x] for x in c}
            assert {by_table[table.point_of[x]] for x in c} == {order}
            assert (order == 1) == bool(inside >> i & 1)
            for q, j in powers[i].items():
                assert (order in (1, q)) == bool(inside >> j & 1)
            assert (order == 1 or is_prime(order)) == bool(prime_modulo >> i & 1)
        assert check_gminus_containment(G, N) == gminus_containment_oracle(G, N)
        if N.order < G.order:
            Q = core.quotient_group(G, N)[0]
            assert outcome(classify_prime_order_group, G, N) == outcome(classify_oracle, Q)


def assert_all(G: Group) -> None:
    assert_record_is_consistent(G)
    assert_masks_match_element_sets(G)
    assert_class_coset_orders_match(G)


@given(small_groups())
@group_settings
def test_masks_match_the_element_set_routes(G):
    assume(G.order <= 120)
    assert_all(G)


@pytest.mark.parametrize("text", CORPUS_SPECS)
def test_corpus_masks_match_the_element_set_routes(text):
    assert_all(realize_text(text))


def test_gminus_containment_builds_no_coset_table(monkeypatch):
    # EA(2,5) has 374 normals: the suite reads class masks, not cosets
    G = realize_text("EA(2,5)")
    built = []
    for module in (core, cyclic, theorems):
        monkeypatch.setattr(module, "coset_table", lambda G, N: built.append(N))
    entry = corpus.CorpusEntry(1, "EA(2,5)", "derived", {})
    checks = corpus.SUITES["gminus-containment"](corpus.Instance(entry, None, G)).checks
    assert len(normal_subgroups(G)) == 374
    assert checks and all(c.passed for c in checks)
    assert built == []


def test_verify_builds_one_coset_table_per_quotient_read(monkeypatch):
    groups = []
    tables = Counter()
    realize_entry = corpus.realize_entry

    def realized(*args):
        inst = realize_entry(*args)
        groups.append(inst.group)
        return inst

    def counted(G, N):
        tables[id(G), id(N)] += 1
        return coset_table(G, N)

    monkeypatch.setattr(corpus, "realize_entry", realized)
    for module in (core, cyclic, theorems):
        monkeypatch.setattr(module, "coset_table", counted)
    entries = corpus.parse_corpus(corpus.default_corpus_text())
    reports = corpus.run_suites(list(corpus.SUITES), entries)
    assert all(r.passed for r in reports)
    reads = sum(key[0] is cyclic.quotient_invariants.__wrapped__
                for G in groups for key in G.derived)
    assert set(tables.values()) == {1}
    assert sum(tables.values()) <= reads
    for H in groups + [N for G in groups for N in normal_subgroups(G)]:
        for value in H.derived.values():
            held = value if isinstance(value, tuple) else (value,)
            assert not any(isinstance(v, CosetTable) for v in held)


# Every function that takes a normal subgroup reads it first through
# core.normal_mask, the one guard, or, for a quotient, through
# core.coset_table, so each refuses a subgroup that is not normal.
ON_S3 = {
    "normal_mask": core.normal_mask,
    "join": lambda G, H: core.join(G, [H]),
    "in_derived": theorems.in_derived,
    "subgroup_invariants": cyclic.subgroup_invariants,
    "eta_star": cyclic.eta_star,
    "quotient_invariants": cyclic.quotient_invariants,
    "coset_table": core.coset_table,
    "check_quot_conditions": theorems.check_quot_conditions,
    "classify_prime_order_group": theorems.classify_prime_order_group,
    "check_gminus_containment": theorems.check_gminus_containment,
    "check_centre_bounds": theorems.check_centre_bounds,
    "check_derived_criterion": theorems.check_derived_criterion,
}

# The laws of a noncyclic p-group, on D(8) with a reflection subgroup R,
# which is not normal, and the centre Z, which is.
ON_D8 = {
    "check_eitheror(R, Z)": lambda G, R, Z: theorems.check_eitheror(G, R, Z),
    "check_eitheror(Z, R)": lambda G, R, Z: theorems.check_eitheror(G, Z, R),
    "check_quotient_join(Z, R)": lambda G, R, Z: theorems.check_quotient_join(G, Z, R),
}


@pytest.mark.parametrize("name", list(ON_S3) + list(ON_D8))
def test_a_subgroup_that_is_not_normal_is_refused(name):
    if name in ON_S3:
        G = realize_text("S(3)")
        call = partial(ON_S3[name], G, core.subgroup_generated(G, [Permutation((1, 0, 2))]))
    else:
        G = realize_text("D(8)")
        R = core.subgroup_generated(G, [Permutation((0, 3, 2, 1))])
        call = partial(ON_D8[name], G, R, named_normal(G, 2, 0))
    with pytest.raises(NotNormal, match=r"^subgroup of order 2 is not normal in G$"):
        call()


def test_normal_mask_refuses_a_group_outside_G():
    with pytest.raises(NotSubgroup):
        core.normal_mask(realize_text("S(3)"), realize_text("S(4)"))
