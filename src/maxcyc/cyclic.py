"""Cyclic-subgroup structure of a finite group.

Enumeration of cyclic subgroups, maximality, conjugacy classes of
subgroups, and the counting invariants eta, eta_p, eta_star and l, plus
the element sets G^- (non-generators of maximal cyclic subgroups) and
G^{p} (p-th powers).

All of it reads one index per group (:func:`_cyclic_index`): every cyclic
subgroup, built once from a power list, and the map from each element to
the subgroup it generates.  The conjugacy-class walks look each conjugate
up in that map.

Products, powers and conjugates of G's elements go through
:func:`maxcyc.core.base_index`: each reads the images of a short base
(2 points for AGL1(127,126), against its degree 127) and looks the result
up among G's own elements.

Maximality is computed twice, by independent routes: a containment scan
that asks, for each cyclic subgroup, whether its generator lies in a
larger one, and the prime-power characterization
``G^- = {g**q : q prime, q | order(g)}``, which takes orders and powers
from the cycles of the base points and never reads the index.  The two
must agree on every call; any disagreement raises InternalCheckError
immediately, so the identity is a permanent self-test rather than an
assumption.

The invariants of a quotient G/N (:func:`quotient_invariants`) come from
the same index through the coset map, since <xN> is the image of <x>: the
same scan, class walk and power route run on coset points, and G/N is
never built as a group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Collection, Iterable, Mapping

from .core import (
    CosetTable,
    Group,
    base_index,
    coset_table,
    element_orders,
    is_normal,
    memo,
    normal_subgroups,
)
from .errors import InternalCheckError, NotNormal
from .numutil import is_prime, prime_factors
from .perm import Permutation


class CyclicSubgroup:
    """A cyclic subgroup, identified by its element set.

    ``canonical_generator`` is the lexicographically smallest generator;
    two values are equal exactly when their element sets are equal.  The
    cyclic subgroups of a quotient, in :func:`quotient_invariants`, hold
    coset points instead, with a generating point as
    ``canonical_generator``; they are never sorted.
    """

    __slots__ = ("elements", "order", "canonical_generator", "_sort_key")

    def __init__(self, elements: frozenset[Permutation], order: int, canonical_generator: Permutation):
        self.elements = elements
        self.order = order
        self.canonical_generator = canonical_generator
        self._sort_key: tuple | None = None

    def sort_key(self) -> tuple:
        if self._sort_key is None:
            self._sort_key = (self.order, tuple(sorted(p.images for p in self.elements)))
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

    Each subgroup is built from the power list of the first element met
    that generates no subgroup seen so far; its generators are the powers
    g**k with gcd(k, n) = 1.  Each power is G's own element object, the
    product x*g of :func:`maxcyc.core.base_index`.  A power list longer
    than |G| raises InternalCheckError.
    """
    base = base_index(G)
    ident = base.element_of[base.read_at]  # the identity fixes the base
    subs: dict[frozenset[Permutation], CyclicSubgroup] = {}
    sub_of: dict[Permutation, CyclicSubgroup] = {}
    for g in G.element_list:
        if g in sub_of:
            continue
        times = base.times(g)
        powers = [ident]
        x = g
        while x is not ident:
            if len(powers) == G.order:
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


def _power_route(
    G: Group, table: CosetTable | None = None
) -> tuple[frozenset, Mapping[Any, int]]:
    """G^- by its prime-power characterization, with the order of each
    element; given the coset table of a normal N, (G/N)^- as coset points,
    with the order of each coset.

    ``G^- = {g**q : q prime, q | order(g)}``.  Orders and powers come from
    the cycles of the base points of :func:`maxcyc.core.base_index`: the
    order is the lcm of their lengths, and g**q walks each base point q
    steps.  The cyclic index is never read.  The order of xN is the least
    divisor d of o(x) with x**d in N, and (xN)**q is the coset of x**q,
    taken for one x per coset.
    """
    orders = element_orders(G)
    power = base_index(G).power
    if table is None:
        return frozenset(power(g, q) for g, n in orders.items() for q in prime_factors(n)), orders
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
def g_minus_via_powers(G: Group) -> frozenset[Permutation]:
    """{ g**q : g in G, q a prime dividing the order of g }."""
    return _power_route(G)[0]


def _maximal(
    subs: Collection[CyclicSubgroup],
    sub_of: Mapping[Any, CyclicSubgroup],
    minus: Collection,
    orders: Mapping[Any, int],
) -> list[CyclicSubgroup]:
    """The maximal members of `subs`, every cyclic subgroup of a group.

    A containment scan: a cyclic s lies in t exactly when its generator
    does, so s is maximal when no subgroup containing
    ``s.canonical_generator`` is larger than s.  `sub_of` maps each element
    to the subgroup it generates.  The result is checked against the power
    route, given as its non-generators `minus` and element `orders`, keyed
    like `sub_of`: `minus` must be exactly the elements whose subgroup is
    not maximal, and each element's subgroup, as well as the canonical
    generator of each subgroup, must have its order.  Any disagreement
    raises InternalCheckError.
    """
    largest: dict[Any, int] = {}
    for t in subs:
        for x in t.elements:
            if largest.get(x, 0) < t.order:
                largest[x] = t.order
    maximal = [s for s in subs if largest[s.canonical_generator] == s.order]
    keys = {s.elements for s in maximal}
    scan_minus = {x for x, s in sub_of.items() if s.elements not in keys}
    if scan_minus != minus:
        raise InternalCheckError(
            "maximal-cyclic routes disagree: containment scan found "
            f"{len(scan_minus)} non-generators, power formula {len(minus)}"
        )
    if any(s.order != orders[x] for x, s in sub_of.items()) or any(
        s.order != orders[s.canonical_generator] for s in subs
    ):
        raise InternalCheckError("element orders disagree with the cyclic index")
    return maximal


@memo
def maximal_cyclic_subgroups(G: Group) -> tuple[CyclicSubgroup, ...]:
    """The inclusion-maximal cyclic subgroups of G, by the containment scan
    of :func:`_maximal`, cross-checked against :func:`g_minus_via_powers`
    (an element generates a maximal cyclic subgroup exactly when it is not
    a proper prime-index power)."""
    subs, sub_of = _cyclic_index(G)
    maximal = _maximal(subs.values(), sub_of, g_minus_via_powers(G), element_orders(G))
    return tuple(sorted(maximal, key=CyclicSubgroup.sort_key))


@memo
def g_minus(G: Group) -> frozenset[Permutation]:
    """Elements whose generated subgroup is not maximal cyclic.

    In a nontrivial group the identity always belongs here; in the trivial
    group the trivial subgroup counts as maximal cyclic, so the set is empty.
    """
    _, sub_of = _cyclic_index(G)
    max_keys = {s.elements for s in maximal_cyclic_subgroups(G)}
    return frozenset(g for g in G.element_list if sub_of[g].elements not in max_keys)


def g_power_set(G: Group, p: int) -> frozenset[Permutation]:
    """{ g**p : g in G } for a prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    power = base_index(G).power
    return frozenset(power(g, p) for g in G.element_list)


@dataclass(eq=False)
class SubgroupClassSet:
    """Conjugacy classes of a set of cyclic subgroups."""

    classes: tuple[tuple[CyclicSubgroup, ...], ...]
    representatives: tuple[CyclicSubgroup, ...]


def _class_walk(
    subs: Iterable[CyclicSubgroup],
    conjugates: Callable[[Any], Iterable[CyclicSubgroup]],
) -> list[set[frozenset]]:
    """The conjugacy orbits met from each of `subs` in turn, as sets of
    element-set keys; `conjugates(x)` gives the subgroups generated by the
    conjugates of a generator x by each generator of the group.  An orbit
    may pass through subgroups outside `subs`."""
    seen: set[frozenset] = set()
    orbits: list[set[frozenset]] = []
    for s in subs:
        if s.elements in seen:
            continue
        orbit = {s.elements}
        stack = [s.canonical_generator]
        while stack:
            for image in conjugates(stack.pop()):
                if image.elements not in orbit:
                    orbit.add(image.elements)
                    stack.append(image.canonical_generator)
        seen |= orbit
        orbits.append(orbit)
    return orbits


def conjugacy_classes_of_subgroups(
    G: Group, subs: Iterable[CyclicSubgroup]
) -> SubgroupClassSet:
    """Partition of `subs` by conjugacy in G.

    The orbit walk of :func:`_class_walk` runs over canonical element-set
    keys; each class is the orbit intersected with the input set.  The
    subgroup of each conjugate is looked up in the cyclic index of G.
    """
    _, sub_of = _cyclic_index(G)
    conjugators = [base_index(G).conjugator(g) for g in G.generators]
    pool = {s.elements: s for s in subs}
    for s in pool.values():
        if not s.elements <= G.elements:
            raise ValueError("subgroup is not contained in G")
    orbits = _class_walk(
        sorted(pool.values(), key=CyclicSubgroup.sort_key),
        lambda x: [sub_of[conjugate(x)] for conjugate in conjugators],
    )
    classes = [
        tuple(sorted((pool[k] for k in orbit & pool.keys()), key=CyclicSubgroup.sort_key))
        for orbit in orbits
    ]
    classes.sort(key=lambda cls: cls[0].sort_key())
    reps = tuple(cls[0] for cls in classes)
    return SubgroupClassSet(tuple(classes), reps)


@dataclass(frozen=True)
class EtaReport:
    """Headline cyclic-structure invariants of one group."""

    eta: int
    class_reps: tuple[tuple[int, int], ...]  # (subgroup order, class size) per class
    l_value: int
    gminus_size: int


@memo
def maximal_cyclic_classes(G: Group) -> SubgroupClassSet:
    """Conjugacy classes of the maximal cyclic subgroups of G."""
    return conjugacy_classes_of_subgroups(G, maximal_cyclic_subgroups(G))


@memo
def eta(G: Group) -> EtaReport:
    """Count conjugacy classes of maximal cyclic subgroups (and of all
    cyclic subgroups, as l_value)."""
    max_classes = maximal_cyclic_classes(G)
    all_classes = conjugacy_classes_of_subgroups(G, cyclic_subgroups(G))
    reps = tuple(
        (cls[0].order, len(cls)) for cls in max_classes.classes
    )
    return EtaReport(
        eta=len(max_classes.classes),
        class_reps=reps,
        l_value=len(all_classes.classes),
        gminus_size=len(g_minus(G)),
    )


@dataclass(frozen=True)
class QuotientInvariants:
    """eta(G/N), the non-generators (G/N)^- as coset points, and the order
    of each coset, by point, in the numbering of :func:`maxcyc.core.coset_table`."""

    eta: int
    g_minus: frozenset[int]
    orders: tuple[int, ...]


@memo
def quotient_invariants(G: Group, N: Group) -> QuotientInvariants:
    """The invariants of G/N for N normal in G, read off G's cyclic index.

    <xN> is the image of <x>, so the cyclic subgroups of G/N are the images
    under the coset map of the subgroups that the coset representatives
    generate, each projected once.  The maximal ones come from the
    containment scan, cross-checked against the power route on the cosets;
    classes from the orbit walk, where a generator g sends the coset xN to
    the coset of x conjugated by g.  No permutation of degree |G:N| is
    built.
    """
    table = coset_table(G, N)
    point_of, reps = table.point_of, table.representatives
    _, sub_of = _cyclic_index(G)
    conjugators = [base_index(G).conjugator(g) for g in G.generators]
    images: dict[CyclicSubgroup, CyclicSubgroup] = {}
    image_of: dict[int, CyclicSubgroup] = {}
    for c, r in enumerate(reps):
        s = sub_of[r]
        if s not in images:
            points = frozenset(map(point_of.__getitem__, s.elements))
            images[s] = CyclicSubgroup(points, len(points), c)
        image_of[c] = images[s]
    subs = {s.elements: s for s in images.values()}.values()
    minus, orders = _power_route(G, table)
    maximal = _maximal(subs, image_of, minus, orders)
    orbits = _class_walk(
        maximal,
        lambda c: [image_of[point_of[conjugate(reps[c])]] for conjugate in conjugators],
    )
    return QuotientInvariants(len(orbits), minus, orders)


def quotient_eta(G: Group, N: Group) -> int:
    """eta(G/N) for N normal in G."""
    return quotient_invariants(G, N).eta


@memo
def eta_preserving_normals(G: Group) -> tuple[Group, ...]:
    """The proper normal subgroups N of G with eta(G/N) = eta(G), in the
    order of :func:`maxcyc.core.normal_subgroups`."""
    target = eta(G).eta
    return tuple(
        N for N in normal_subgroups(G)
        if N.order < G.order and quotient_eta(G, N) == target
    )


def eta_p(K: Group, p: int) -> int:
    """Classes of maximal cyclic subgroups of K whose order p divides."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return sum(1 for rep in maximal_cyclic_classes(K).representatives if rep.order % p == 0)


def eta_star(G: Group, N: Group) -> int:
    """G-orbits on the N-conjugacy classes of maximal cyclic subgroups of N."""
    if not is_normal(G, N):
        raise NotNormal("eta_star requires N normal in G")
    n_classes = maximal_cyclic_classes(N)
    _, sub_of = _cyclic_index(N)
    conjugators = [base_index(G).conjugator(g) for g in G.generators]
    class_of: dict[frozenset[Permutation], int] = {}
    for i, cls in enumerate(n_classes.classes):
        for s in cls:
            class_of[s.elements] = i
    orbits = 0
    seen: set[int] = set()
    for i, rep in enumerate(n_classes.representatives):
        if i in seen:
            continue
        orbits += 1
        stack = [rep.canonical_generator]
        seen.add(i)
        while stack:
            gen = stack.pop()
            for conjugate in conjugators:
                image = sub_of.get(conjugate(gen))
                j = None if image is None else class_of.get(image.elements)
                if j is None:
                    raise InternalCheckError(
                        "conjugate of an N-maximal cyclic subgroup left N"
                    )
                if j not in seen:
                    seen.add(j)
                    stack.append(image.canonical_generator)
    return orbits
