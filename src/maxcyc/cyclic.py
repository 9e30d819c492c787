"""Cyclic-subgroup structure of a finite group.

Enumeration of cyclic subgroups, maximality, conjugacy classes of
subgroups, the counting invariants eta, eta_p, eta_star and l, and the
element sets G^- (non-generators of maximal cyclic subgroups) and G^{p}
(p-th powers).

All of it reads one index per group (:func:`_cyclic_index`): every cyclic
subgroup, built once from a power list, and the map from each element to
the subgroup it generates.  The classes of cyclic subgroups come from one
orbit walk per group (:func:`cyclic_classes`), and the callers that map
elements to them number them (:func:`_cyclic_labels`).  Products, powers
and conjugates of G's elements go through :func:`maxcyc.core.base_index`,
which reads the images of a short base and looks the result up among G's
own elements.

Maximality has one route, the prime-power characterization
``G^- = {g**q : q prime, q | order(g)}``, taken once per conjugacy class
(:func:`power_classes`): an element generates a maximal cyclic subgroup
exactly when it lies outside G^-.  The paper's lemma that this is G^- by
its definition is checked by :func:`maxcyc.theorems.check_pgrp_lemma`,
against a containment scan of the index.  The invariants of a quotient
G/N (:func:`quotient_invariants`) and of a normal subgroup N
(:func:`subgroup_invariants`) come from the same index and the same
power route, through the coset map or restricted to N, and neither is
given an index of its own.  Each
reads N first through :func:`maxcyc.core.coset_table` or
:func:`maxcyc.core.normal_mask`, which refuse a subgroup that is not normal.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .core import (
    CosetTable,
    Group,
    _bits,
    base_index,
    class_index,
    class_mask,
    class_members,
    conjugacy_classes,
    coset_table,
    element_orders,
    memo,
    normal_lattice,
    normal_mask,
    orbits,
)
from .errors import InternalCheckError
from .numutil import is_prime, prime_factors
from .perm import Permutation


class CyclicSubgroup:
    """A cyclic subgroup, identified by its element set, with its
    lexicographically smallest generator as ``canonical_generator``.  The
    cyclic subgroups of a quotient, in :func:`quotient_invariants`, hold
    coset points instead, and a generating point; they are never sorted.
    """

    __slots__ = ("elements", "order", "canonical_generator", "_sort_key")

    def __init__(self, elements: frozenset[Permutation], order: int, canonical_generator: Permutation):
        self.elements = elements
        self.order = order
        self.canonical_generator = canonical_generator
        self._sort_key: tuple | None = None

    def sort_key(self) -> tuple:
        if self._sort_key is None:
            self._sort_key = (self.order, tuple(sorted(p.word for p in self.elements)))
        return self._sort_key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CyclicSubgroup) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"<cyclic order={self.order} gen={self.canonical_generator.cycle_string()}>"


@memo
def _cyclic_index(G: Group) -> tuple[
    dict[frozenset[Permutation], CyclicSubgroup],
    dict[Permutation, CyclicSubgroup],
]:
    """All cyclic subgroups of G, plus the map from element to <element>.
    Each subgroup is built from the power list, of base-index products, of
    the first element met that generates no subgroup seen so far; its
    generators are the powers g**k with gcd(k, n) = 1.  A power list
    longer than |G| raises InternalCheckError.
    """
    base = base_index(G)
    ident = base.element_of[base.read_at]  # the identity fixes the base
    limit = G.order
    subs: dict[frozenset[Permutation], CyclicSubgroup] = {}
    sub_of: dict[Permutation, CyclicSubgroup] = {}
    for g in G.element_list:
        if g in sub_of:
            continue
        times = base.times(g)
        powers = [ident]
        x = g
        while x is not ident:
            if len(powers) == limit:
                raise InternalCheckError("a power list does not return to the identity")
            powers.append(x)
            x = times(x)
        n = len(powers)
        gens = [powers[k] for k in range(n) if math.gcd(k, n) == 1]
        cs = CyclicSubgroup(frozenset(powers), n, min(gens))
        subs[cs.elements] = cs
        for x in gens:
            sub_of[x] = cs
    return subs, sub_of


def cyclic_subgroups(G: Group) -> tuple[CyclicSubgroup, ...]:
    """Every subgroup <g> for g in G, the trivial subgroup included."""
    subs, _ = _cyclic_index(G)
    return tuple(sorted(subs.values(), key=CyclicSubgroup.sort_key))


def _power_route(G: Group, table: CosetTable) -> tuple[frozenset[int], tuple[int, ...]]:
    """(G/N)^- by its prime-power characterization, as the coset points of
    `table` (that of a normal N), with the order of each coset: on one x
    per coset, o(xN) is the least divisor d of o(x) with x**d in N, and
    (xN)**q is the coset of x**q.  The cyclic index is never read.
    """
    orders = element_orders(G)
    power = base_index(G).power
    point_of = table.point_of
    minus = set()
    coset_orders = []
    for x in table.representatives:
        d = orders[x]
        for p in prime_factors(d):
            while d % p == 0 and point_of[power(x, d // p)] == 0:
                d //= p
        coset_orders.append(d)
        minus.update(point_of[power(x, q)] for q in prime_factors(d))
    return frozenset(minus), tuple(coset_orders)


@memo
def power_classes(G: Group) -> tuple[dict[int, int], ...]:
    """For each class of :func:`maxcyc.core.conjugacy_classes`, with first
    member r, the class of r**q for each prime q dividing the order of r.
    As (h r h^-1)**q = h r**q h^-1, these are the classes of the
    prime-index powers of every member of the class."""
    classes, orders = conjugacy_classes(G), element_orders(G)
    power = base_index(G).power
    powers = [{q: power(c[0], q) for q in prime_factors(orders[c[0]])} for c in classes]
    seeds = {x for p in powers for x in p.values()}
    class_of = {x: i for i, c in enumerate(classes) for x in c if x in seeds}
    return tuple({q: class_of[x] for q, x in p.items()} for p in powers)


def _powers_mask(G: Group, mask: int) -> int:
    """The non-generators of the subgroup that the classes in `mask` make
    up, as a class mask: the classes that their prime-index powers meet."""
    powers = power_classes(G)
    return sum(1 << j for j in {j for i in _bits(mask) for j in powers[i].values()})


@memo
def g_minus_via_powers(G: Group) -> frozenset[Permutation]:
    """{ g**q : g in G, q a prime dividing the order of g }, by
    :func:`_powers_mask` on all of G's conjugacy classes."""
    return frozenset(class_members(G, _powers_mask(G, (1 << len(conjugacy_classes(G))) - 1)))


@memo
def maximal_cyclic_subgroups(G: Group) -> tuple[CyclicSubgroup, ...]:
    """The inclusion-maximal cyclic subgroups of G: the members of
    :func:`maximal_cyclic_classes`, sorted by
    :meth:`CyclicSubgroup.sort_key`."""
    members = (s for c in maximal_cyclic_classes(G) for s in c)
    return tuple(sorted(members, key=CyclicSubgroup.sort_key))


def g_minus(G: Group) -> frozenset[Permutation]:
    """Elements whose generated subgroup is not maximal cyclic:
    :func:`g_minus_via_powers`, as an element generates a maximal cyclic
    subgroup exactly when it is not a proper prime-index power.  It holds
    the identity of a nontrivial group, and is empty for the trivial group.
    """
    return g_minus_via_powers(G)


def g_power_set(G: Group, p: int) -> frozenset[Permutation]:
    """{ g**p : g in G } for a prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    power = base_index(G).power
    return frozenset(power(g, p) for g in G.element_list)


@memo
def cyclic_classes(G: Group) -> tuple[list[CyclicSubgroup], ...]:
    """The conjugacy classes of the cyclic subgroups of G: the
    :func:`maxcyc.core.orbits` of the cyclic index, in its order, under
    conjugation by G's generators.  The conjugate of a subgroup is the
    subgroup that the conjugate of its canonical generator generates,
    looked up in the index."""
    subs, sub_of = _cyclic_index(G)
    maps = [
        lambda s, conjugate=base_index(G).conjugator(g): sub_of[conjugate(s.canonical_generator)]
        for g in G.generators
    ]
    return tuple(orbits(subs.values(), maps))


@memo
def _cyclic_labels(G: Group) -> dict[Permutation, int]:
    """The label of each element x of G: the number of the class of <x> in
    :func:`cyclic_classes`.  y is conjugate to a generator of <x> exactly
    when y and x have the same label."""
    number = {s: i for i, c in enumerate(cyclic_classes(G)) for s in c}
    _, sub_of = _cyclic_index(G)
    return {x: number[s] for x, s in sub_of.items()}


class EtaReport(NamedTuple):
    """Headline cyclic-structure invariants of one group."""

    eta: int
    class_reps: tuple[tuple[int, int], ...]  # (subgroup order, class size) per class
    l_value: int
    gminus_size: int


@memo
def maximal_cyclic_classes(G: Group) -> tuple[list[CyclicSubgroup], ...]:
    """The conjugacy classes of the maximal cyclic subgroups of G: the
    classes of :func:`cyclic_classes` whose first member's canonical
    generator lies outside :func:`g_minus`, as conjugates of a maximal
    subgroup are maximal, ordered by their least member."""
    minus = g_minus(G)
    found = [c for c in cyclic_classes(G) if c[0].canonical_generator not in minus]
    return tuple(sorted(found, key=lambda c: min(map(CyclicSubgroup.sort_key, c))))


@memo
def eta(G: Group) -> EtaReport:
    """Count conjugacy classes of maximal cyclic subgroups (and of all
    cyclic subgroups, as l_value)."""
    max_classes = maximal_cyclic_classes(G)
    return EtaReport(
        eta=len(max_classes),
        class_reps=tuple((c[0].order, len(c)) for c in max_classes),
        l_value=len(cyclic_classes(G)),
        gminus_size=len(g_minus(G)),
    )


class QuotientInvariants(NamedTuple):
    """eta(G/N), the non-generators (G/N)^- as coset points, and the order
    of each coset, by point, in the numbering of :func:`maxcyc.core.coset_table`."""

    eta: int
    g_minus: frozenset[int]
    orders: tuple[int, ...]


def _moving(G: Group, gens: Sequence[Permutation]) -> list[Permutation]:
    """The members of `gens` outside G's centre: a central conjugator moves nothing."""
    classes, index_of = conjugacy_classes(G), class_index(G)
    return [g for g in gens if len(classes[index_of[g]]) > 1]


@memo
def quotient_invariants(G: Group, N: Group) -> QuotientInvariants:
    """The invariants of G/N for N normal in G: :func:`read_quotient` on
    the pair's :func:`maxcyc.core.coset_table`."""
    return read_quotient(G, coset_table(G, N))


def read_quotient(G: Group, table: CosetTable) -> QuotientInvariants:
    """The invariants of G/N, for `table` the coset table of a normal N of
    G, read off G's cyclic index.  A caller that has built the table reads
    the quotient here and may hold the result with
    ``quotient_invariants.record``.

    <xN> is the image of <x>, so the cyclic subgroups of G/N are the images
    of those the coset representatives generate.  The maximal ones are the
    images of the points outside (G/N)^-, which the power route gives on
    the cosets, and their classes are the :func:`maxcyc.core.orbits` under
    the generators outside the centre.  No permutation of degree |G:N| is
    built.
    """
    point_of, reps = table.point_of, table.representatives
    _, sub_of = _cyclic_index(G)
    conjugators = [base_index(G).conjugator(g) for g in _moving(G, G.generators)]
    images: dict[CyclicSubgroup, CyclicSubgroup] = {}
    image_of: dict[int, CyclicSubgroup] = {}
    for c, r in enumerate(reps):
        s = sub_of[r]
        if s not in images:
            points = frozenset(map(point_of.__getitem__, s.elements))
            images[s] = CyclicSubgroup(points, len(points), c)
        image_of[c] = images[s]
    minus, orders = _power_route(G, table)
    maximal = [image_of[c] for c in range(len(reps)) if c not in minus]
    maps = [
        lambda s, conjugate=conjugate: image_of[point_of[conjugate(reps[s.canonical_generator])]]
        for conjugate in conjugators
    ]
    return QuotientInvariants(len(orbits(maximal, maps)), minus, orders)


def quotient_eta(G: Group, N: Group) -> int:
    """eta(G/N) for N normal in G."""
    return quotient_invariants(G, N).eta


@memo
def eta_preserving_normals(G: Group) -> tuple[Group, ...]:
    """The proper normal subgroups N of G with eta(G/N) = eta(G), in the
    order of :func:`maxcyc.core.normal_subgroups`.

    Condition (a), N inside G^-, is necessary, so a normal outside G^- is
    dropped, on class masks, before its quotient is read.  Suppose some n
    in N generates a maximal cyclic <n>.  Every maximal cyclic <xN> of G/N
    is the image of a maximal cyclic subgroup of G: <x> lies in a maximal
    cyclic <y>, and <xN> lies in <yN>.  The class of <n> maps to the
    trivial subgroup, which is not maximal in G/N when N < G, so
    eta(G/N) <= eta(G) - 1.
    """
    target = eta(G).eta
    minus = class_mask(G, g_minus(G))
    return tuple(
        N for N, mask in normal_lattice(G).mask.items()
        if N.order < G.order and not mask & ~minus and quotient_eta(G, N) == target
    )


def eta_p(K: Group, p: int) -> int:
    """Classes of maximal cyclic subgroups of K whose order p divides."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return sum(1 for c in maximal_cyclic_classes(K) if c[0].order % p == 0)


class SubgroupInvariants(NamedTuple):
    """eta, l and |N^-| of a normal subgroup N, the values N has as a
    group of its own, and the maximal cyclic subgroups of N, in the order
    of N's classes."""

    eta: int
    l_value: int
    gminus_size: int
    maximal: tuple[CyclicSubgroup, ...]


@memo
def subgroup_invariants(G: Group, N: Group) -> SubgroupInvariants:
    """The invariants of N, for N normal in G, read off G's cyclic index.

    The cyclic subgroups of N are the <x> of G's index for x in N, walked
    in the order of N's classes.  N^- is :func:`_powers_mask` on N's class
    mask, and the N-maximal ones are the <x> for x in N outside N^-.  The
    N-classes of cyclic subgroups are the :func:`maxcyc.core.orbits` under
    N's generators outside the centre of G, and those of the maximal ones
    the orbits that start at a maximal one.  N is never given a base, an
    index or classes of its own; its class mask, read first, is its guard.
    """
    mask = normal_mask(G, N)
    minus = _powers_mask(G, mask)
    _, sub_of = _cyclic_index(G)
    subs = dict.fromkeys(map(sub_of.__getitem__, class_members(G, mask)))
    maximal = tuple(dict.fromkeys(map(sub_of.__getitem__, class_members(G, mask & ~minus))))
    conjugator = base_index(G).conjugator
    maps = [
        lambda s, conjugate=conjugator(n): sub_of[conjugate(s.canonical_generator)]
        for n in _moving(G, N.generators)
    ]
    n_classes = orbits(subs, maps)
    starts = set(maximal)
    return SubgroupInvariants(
        eta=sum(orbit[0] in starts for orbit in n_classes),
        l_value=len(n_classes),
        gminus_size=sum(1 for _ in class_members(G, minus)),
        maximal=maximal,
    )


def eta_star(G: Group, N: Group) -> int:
    """G-orbits on the N-conjugacy classes of maximal cyclic subgroups of N:
    the number of G-classes of cyclic subgroups, in :func:`cyclic_classes`,
    that the maximal cyclic subgroups of N, from
    :func:`subgroup_invariants`, fall in.  As N is normal, such a class
    holds N-maximal subgroups only, so the classes met hold exactly as many
    subgroups as N has maximal ones; if they hold more, InternalCheckError
    is raised.  :func:`subgroup_invariants`, read first, guards N."""
    n_maximal = subgroup_invariants(G, N).maximal
    label = _cyclic_labels(G)
    met = {label[s.canonical_generator] for s in n_maximal}
    classes = cyclic_classes(G)
    if sum(len(classes[c]) for c in met) != len(n_maximal):
        raise InternalCheckError("a G-class of N-maximal cyclic subgroups holds another subgroup")
    return len(met)
