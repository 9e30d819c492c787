"""Cyclic-subgroup structure of a finite group.

Enumeration of cyclic subgroups, maximality, conjugacy classes of
subgroups, the counting invariants eta, eta_p, eta_star and l, and the
element sets G^- (non-generators of maximal cyclic subgroups) and G^{p}
(p-th powers).

All of it reads one index per group (:func:`_cyclic_index`): every cyclic
subgroup, held as the power list it was built from, and the map from each
element to the subgroup it generates.  The classes of cyclic subgroups
come from one orbit walk per group (:func:`cyclic_classes`), and the
callers that map elements to them number them (:func:`_cyclic_labels`).  Products, powers
and conjugates of G's elements go through :func:`maxcyc.core.base_index`,
which reads the images of a short base and looks the result up among G's
own elements.

G^- and the element orders are class functions, so each is held once per
conjugacy class: G^- as the class mask :func:`g_minus_mask`, and the orders
as :func:`maxcyc.core.class_orders`.  :func:`g_minus` and
:func:`maxcyc.core.element_orders` are their per-element views, built only
for code that reads elements.

Maximality has one route, the prime-power characterization
``G^- = {g**q : q prime, q | order(g)}``, taken once per conjugacy class
(:func:`power_classes`): an element generates a maximal cyclic subgroup
exactly when its class lies outside G^-.  The paper's lemma that this is
G^- by its definition is checked by
:func:`maxcyc.theorems.check_pgrp_lemma`, against a containment scan of
the index.  The invariants of a quotient G/N (:func:`quotient_invariants`)
are read off the power lists of the index through the coset map, and those
of a normal subgroup N (:func:`subgroup_invariants`) off the index and the
power route restricted to N; neither is given an index of its own.  Each
reads N first through :func:`maxcyc.core.coset_table` or
:func:`maxcyc.core.normal_mask`, which refuse a subgroup that is not normal.
"""

from __future__ import annotations

import math
from itertools import takewhile
from typing import NamedTuple, Sequence

from .core import (
    CosetTable,
    Group,
    _bits,
    base_index,
    class_index,
    class_members,
    class_orders,
    conjugacy_classes,
    coset_table,
    memo,
    normal_lattice,
    normal_mask,
    orbits,
)
from .errors import InternalCheckError
from .numutil import is_prime, prime_factors
from .perm import Permutation


class CyclicSubgroup:
    """A cyclic subgroup <g>, held as ``powers``, the power list g**0, ...,
    g**(n-1) of the element g it was built from, with its lexicographically
    smallest generator as ``canonical_generator``.  Each is one object of
    its group's index, so it is compared and hashed by identity, and
    ``elements`` builds its element set when read.  The cyclic subgroups of
    a quotient, in :func:`read_quotient`, hold the power list of a coset as
    points instead, and a generating point; they are never sorted.
    """

    __slots__ = ("powers", "canonical_generator", "_sort_key")

    def __init__(self, powers: tuple, canonical_generator: Permutation | int):
        self.powers = powers
        self.canonical_generator = canonical_generator
        self._sort_key: tuple | None = None

    @property
    def order(self) -> int:
        return len(self.powers)

    @property
    def elements(self) -> frozenset:
        return frozenset(self.powers)

    def sort_key(self) -> tuple:
        if self._sort_key is None:
            self._sort_key = (self.order, tuple(sorted(p.word for p in self.powers)))
        return self._sort_key

    def __repr__(self) -> str:
        return f"<cyclic order={self.order} gen={self.canonical_generator.cycle_string()}>"


@memo
def _cyclic_index(G: Group) -> tuple[list[CyclicSubgroup], dict[Permutation, CyclicSubgroup]]:
    """All cyclic subgroups of G, in the order built, plus the map from
    element to <element>.  Each subgroup holds the power list, of
    base-index products, of the first element met that generates no
    subgroup seen so far; its generators are the powers g**k with
    gcd(k, n) = 1.  A power list longer than |G| raises InternalCheckError.
    """
    base = base_index(G)
    ident = base.element_of[base.read_at]  # the identity fixes the base
    limit = G.order
    subs: list[CyclicSubgroup] = []
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
        cs = CyclicSubgroup(tuple(powers), min(gens))
        subs.append(cs)
        for x in gens:
            sub_of[x] = cs
    return subs, sub_of


def cyclic_subgroups(G: Group) -> tuple[CyclicSubgroup, ...]:
    """Every subgroup <g> for g in G, the trivial subgroup included."""
    subs, _ = _cyclic_index(G)
    return tuple(sorted(subs, key=CyclicSubgroup.sort_key))


@memo
def power_classes(G: Group) -> tuple[dict[int, int], ...]:
    """For each class of :func:`maxcyc.core.conjugacy_classes`, with first
    member r, the class of r**q for each prime q dividing the order of r.
    As (h r h^-1)**q = h r**q h^-1, these are the classes of the
    prime-index powers of every member of the class."""
    classes, orders = conjugacy_classes(G), class_orders(G)
    power = base_index(G).power
    powers = [{q: power(c[0], q) for q in prime_factors(n)} for c, n in zip(classes, orders)]
    seeds = {x for p in powers for x in p.values()}
    class_of = {x: i for i, c in enumerate(classes) for x in c if x in seeds}
    return tuple({q: class_of[x] for q, x in p.items()} for p in powers)


def _powers_mask(G: Group, mask: int) -> int:
    """The non-generators of the subgroup that the classes in `mask` make
    up, as a class mask: the classes that their prime-index powers meet."""
    powers = power_classes(G)
    return sum(1 << j for j in {j for i in _bits(mask) for j in powers[i].values()})


@memo
def g_minus_mask(G: Group) -> int:
    """G^- as a class mask: { g**q : g in G, q a prime dividing the order
    of g }, by :func:`_powers_mask` on all of G's conjugacy classes."""
    return _powers_mask(G, (1 << len(conjugacy_classes(G))) - 1)


@memo
def g_minus_via_powers(G: Group) -> frozenset[Permutation]:
    """The elements of the classes in :func:`g_minus_mask`."""
    return frozenset(class_members(G, g_minus_mask(G)))


@memo
def maximal_cyclic_subgroups(G: Group) -> tuple[CyclicSubgroup, ...]:
    """The inclusion-maximal cyclic subgroups of G: the members of
    :func:`maximal_cyclic_classes`, sorted by
    :meth:`CyclicSubgroup.sort_key`."""
    members = (s for c in maximal_cyclic_classes(G) for s in c)
    return tuple(sorted(members, key=CyclicSubgroup.sort_key))


def g_minus(G: Group) -> frozenset[Permutation]:
    """Elements whose generated subgroup is not maximal cyclic, as an
    element generates a maximal cyclic subgroup exactly when it is not a
    proper prime-index power: :func:`g_minus_via_powers`, the per-element
    view of :func:`g_minus_mask`, built only for code that reads elements.
    It holds the identity of a nontrivial group, and is empty for the
    trivial group.
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
    return tuple(orbits(subs, maps))


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
    classes of :func:`cyclic_classes` that hold <r> for the first member r
    of a conjugacy class outside :func:`g_minus_mask`, as conjugate
    elements generate conjugate subgroups and conjugates of a maximal
    subgroup are maximal, ordered by their least member."""
    _, sub_of = _cyclic_index(G)
    minus = g_minus_mask(G)
    maximal = {sub_of[c[0]] for i, c in enumerate(conjugacy_classes(G)) if not minus >> i & 1}
    found = [c for c in cyclic_classes(G) if not maximal.isdisjoint(c)]
    return tuple(sorted(found, key=lambda c: min(map(CyclicSubgroup.sort_key, c))))


@memo
def eta(G: Group) -> EtaReport:
    """Count conjugacy classes of maximal cyclic subgroups (and of all
    cyclic subgroups, as l_value)."""
    max_classes = maximal_cyclic_classes(G)
    classes = conjugacy_classes(G)
    return EtaReport(
        eta=len(max_classes),
        class_reps=tuple((c[0].order, len(c)) for c in max_classes),
        l_value=len(cyclic_classes(G)),
        gminus_size=sum(len(classes[i]) for i in _bits(g_minus_mask(G))),
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
    <gN> of the <g> in G's index that the coset representatives generate,
    and each point generates exactly one of them.  So an image is read
    once, from the first representative that generates it, off the power
    list of its <g>: its order d is the least k >= 1 with g**k in N, its
    generators are the points of the g**k with gcd(k, d) = 1, and its
    non-generators, those with gcd(k, d) > 1, make up (G/N)^- by its
    definition.  The maximal images are those generated outside (G/N)^-,
    and their classes are the :func:`maxcyc.core.orbits` under the
    generators outside the centre.  No permutation of degree |G:N| is
    built.
    """
    point_of, reps = table.point_of, table.representatives
    _, sub_of = _cyclic_index(G)
    conjugators = [base_index(G).conjugator(g) for g in _moving(G, G.generators)]
    images: list[CyclicSubgroup] = []
    image_of: dict[int, CyclicSubgroup] = {}
    orders = [0] * len(reps)
    minus: set[int] = set()
    for c, r in enumerate(reps):
        if c in image_of:
            continue
        # the points of g**0, ..., g**(d-1): g**d is the first power in N, at point 0
        points = [0, *takewhile(bool, map(point_of.__getitem__, sub_of[r].powers[1:]))]
        d = len(points)
        images.append(image := CyclicSubgroup(tuple(points), c))
        for k, point in enumerate(points):
            if math.gcd(k, d) == 1:
                image_of[point], orders[point] = image, d
            else:
                minus.add(point)
    maximal = [s for s in images if s.canonical_generator not in minus]
    maps = [
        lambda s, conjugate=conjugate: image_of[point_of[conjugate(reps[s.canonical_generator])]]
        for conjugate in conjugators
    ]
    return QuotientInvariants(len(orbits(maximal, maps)), frozenset(minus), tuple(orders))


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
    minus = g_minus_mask(G)
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
