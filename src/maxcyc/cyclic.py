"""Cyclic-subgroup structure of a finite group.

Enumeration of cyclic subgroups, maximality, conjugacy classes of
subgroups, and the counting invariants eta, eta_p, eta_star and l, plus
the element sets G^- (non-generators of maximal cyclic subgroups) and
G^{p} (p-th powers).

Maximality is computed twice, by independent routes: a set-containment
scan over all cyclic subgroups, and the prime-power characterization
``G^- = {g**q : q prime, q | order(g)}``.  The two must agree; any
disagreement raises InternalCheckError immediately, so the identity is a
permanent self-test rather than an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .core import Group, is_normal, memo, normal_subgroups, quotient_group
from .errors import InternalCheckError, NotNormal
from .numutil import is_prime, prime_factors
from .perm import Permutation, perm_order


class CyclicSubgroup:
    """A cyclic subgroup, identified by its element set.

    ``canonical_generator`` is the lexicographically smallest generator;
    two values are equal exactly when their element sets are equal.
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


def cyclic_subgroup(g: Permutation) -> CyclicSubgroup:
    """The subgroup generated by one permutation."""
    n = perm_order(g)
    powers = [Permutation.identity(g.degree)]
    x = g
    while not x.is_identity():
        powers.append(x)
        x = x * g
    gens = [powers[k] for k in range(n) if math.gcd(k, n) == 1] or [powers[0]]
    return CyclicSubgroup(frozenset(powers), n, min(gens))


@memo
def _cyclic_index(G: Group) -> tuple[
    dict[frozenset[Permutation], CyclicSubgroup],
    dict[Permutation, frozenset[Permutation]],
]:
    """All cyclic subgroups of G, plus the map from element to <element>."""
    subs: dict[frozenset[Permutation], CyclicSubgroup] = {}
    elem_key: dict[Permutation, frozenset[Permutation]] = {}
    for g in G.element_list:
        if g in elem_key:
            continue
        cs = cyclic_subgroup(g)
        subs.setdefault(cs.elements, cs)
        for x in cs.elements:
            if perm_order(x) == cs.order:
                elem_key[x] = cs.elements
    return subs, elem_key


def cyclic_subgroups(G: Group) -> tuple[CyclicSubgroup, ...]:
    """Every subgroup <g> for g in G, the trivial subgroup included."""
    subs, _ = _cyclic_index(G)
    return tuple(sorted(subs.values(), key=CyclicSubgroup.sort_key))


@memo
def g_minus_via_powers(G: Group) -> frozenset[Permutation]:
    """{ g**q : g in G, q a prime dividing the order of g }."""
    out = set()
    for g in G.element_list:
        for q in prime_factors(perm_order(g)):
            out.add(g ** q)
    return frozenset(out)


@memo
def maximal_cyclic_subgroups(G: Group) -> tuple[CyclicSubgroup, ...]:
    """The inclusion-maximal cyclic subgroups of G.

    Computed by a strict-containment scan with an order-divisibility
    pre-filter, then cross-checked against the complement of
    :func:`g_minus_via_powers` (an element generates a maximal cyclic
    subgroup exactly when it is not a proper prime-index power).
    """
    subs, elem_key = _cyclic_index(G)
    all_subs = list(subs.values())
    maximal = [
        s
        for s in all_subs
        if not any(
            t.order > s.order and t.order % s.order == 0 and s.elements < t.elements
            for t in all_subs
        )
    ]
    scan_keys = {s.elements for s in maximal}
    pow_keys = {
        elem_key[g] for g in G.element_list if g not in g_minus_via_powers(G)
    }
    if scan_keys != pow_keys:
        raise InternalCheckError(
            "maximal-cyclic routes disagree: containment scan found "
            f"{len(scan_keys)} subgroups, power formula {len(pow_keys)}"
        )
    return tuple(sorted(maximal, key=CyclicSubgroup.sort_key))


@memo
def g_minus(G: Group) -> frozenset[Permutation]:
    """Elements whose generated subgroup is not maximal cyclic.

    In a nontrivial group the identity always belongs here; in the trivial
    group the trivial subgroup counts as maximal cyclic, so the set is empty.
    """
    _, elem_key = _cyclic_index(G)
    max_keys = {s.elements for s in maximal_cyclic_subgroups(G)}
    return frozenset(g for g in G.element_list if elem_key[g] not in max_keys)


def g_power_set(G: Group, p: int) -> frozenset[Permutation]:
    """{ g**p : g in G } for a prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return frozenset(g ** p for g in G.element_list)


@dataclass(eq=False)
class SubgroupClassSet:
    """Conjugacy classes of a set of cyclic subgroups."""

    classes: tuple[tuple[CyclicSubgroup, ...], ...]
    representatives: tuple[CyclicSubgroup, ...]


def conjugacy_classes_of_subgroups(
    G: Group, subs: Iterable[CyclicSubgroup]
) -> SubgroupClassSet:
    """Partition of `subs` by conjugacy in G.

    The orbit walk runs over canonical element-set keys and may pass
    through subgroups outside `subs`; each class is the orbit intersected
    with the input set.
    """
    pool = {s.elements: s for s in subs}
    for s in pool.values():
        if not s.elements <= G.elements:
            raise ValueError("subgroup is not contained in G")
    seen: set[frozenset[Permutation]] = set()
    classes: list[tuple[CyclicSubgroup, ...]] = []
    for key in sorted(pool, key=lambda k: pool[k].sort_key()):
        if key in seen:
            continue
        orbit = {key}
        stack = [pool[key].canonical_generator]
        while stack:
            gen = stack.pop()
            for g in G.generators:
                image = cyclic_subgroup(gen.conjugate_by(g))
                if image.elements not in orbit:
                    orbit.add(image.elements)
                    stack.append(image.canonical_generator)
        members = tuple(
            sorted((pool[k] for k in orbit & pool.keys()), key=CyclicSubgroup.sort_key)
        )
        seen |= orbit
        classes.append(members)
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


def quotient_eta(G: Group, N: Group) -> int:
    """eta(G/N) for N normal in G."""
    return eta(quotient_group(G, N)[0]).eta


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
            for g in G.generators:
                image = cyclic_subgroup(gen.conjugate_by(g))
                j = class_of.get(image.elements)
                if j is None:
                    raise InternalCheckError(
                        "conjugate of an N-maximal cyclic subgroup left N"
                    )
                if j not in seen:
                    seen.add(j)
                    stack.append(image.canonical_generator)
    return orbits
