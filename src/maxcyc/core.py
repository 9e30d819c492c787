"""Explicitly enumerated finite permutation groups and structural operations.

Every group here carries its full element table, so each predicate used by
the verification layer (normality, conjugacy, coset structure) is decided by
direct enumeration.  Operations are pure; :func:`memo` keeps derived data
in the group it describes and never changes observable results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import wraps
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import CapExceeded, InternalCheckError, NotNormal, NotSubgroup
from .numutil import p_part, prime_factors, prime_power_base
from .perm import Permutation, perm_order

DEFAULT_ORDER_CAP = 20_000
DEFAULT_DEGREE_CAP = 128


class Group:
    """A finite permutation group with its full element table.

    Instances are immutable except for the :func:`memo` table ``derived``.
    ``element_list`` enumerates the closure breadth-first from the identity
    with generators applied in the given order, so iteration order is
    reproducible across runs.  :func:`enumerate_elements` keeps the given
    generators; every subgroup keeps the greedy generators of
    :func:`_reduced_generators`.
    """

    __slots__ = ("degree", "generators", "elements", "element_list", "derived")

    def __init__(
        self,
        degree: int,
        generators: tuple[Permutation, ...],
        elements: frozenset[Permutation],
        element_list: tuple[Permutation, ...],
    ):
        self.degree = degree
        self.generators = generators
        self.elements = elements
        self.element_list = element_list
        self.derived: dict[tuple, object] = {}

    @property
    def order(self) -> int:
        return len(self.element_list)

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __contains__(self, p: Permutation) -> bool:
        return p in self.elements

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.element_list)

    def __len__(self) -> int:
        return len(self.element_list)

    def key(self) -> tuple[tuple[int, ...], ...]:
        """Canonical key of the element set: sorted tuple of image tuples."""
        return tuple(sorted(p.images for p in self.element_list))

    def __repr__(self) -> str:
        return f"<Group degree={self.degree} order={self.order}>"


def memo(fn: Callable) -> Callable:
    """Memoize ``fn(G, *args)`` in ``G.derived``, so it lives as long as G."""

    @wraps(fn)
    def cached(G: Group, *args):
        key = (fn, *args)
        if key not in G.derived:
            G.derived[key] = fn(G, *args)
        return G.derived[key]

    return cached


def _close(
    degree: int, seed: Sequence[Permutation], order_cap: int
) -> tuple[list[Permutation], set[Permutation]]:
    """Breadth-first closure of the seed under composition.

    Returns (discovery-ordered list, element set).  Raises CapExceeded as
    soon as the closure is known to be larger than order_cap.  The closure
    runs on image tuples, x*g being ``itemgetter(*g.images)(x.images)``;
    each element becomes a Permutation once.
    """
    ident = tuple(range(degree))
    found = {ident}
    ordered = [ident]
    # a non-identity g moves two points or more, so its getter returns tuples
    movers = [itemgetter(*g.images) for g in seed if not g.is_identity()]
    for x in ordered:  # the list grows while it is read: breadth-first order
        for move in movers:
            y = move(x)
            if y not in found:
                if len(found) >= order_cap:
                    raise CapExceeded(
                        f"closure exceeds order cap {order_cap} (degree {degree})"
                    )
                found.add(y)
                ordered.append(y)
    perms = [Permutation._unchecked(y) for y in ordered]
    return perms, set(perms)


def enumerate_elements(
    degree: int,
    generators: Iterable[Permutation],
    *,
    order_cap: int = DEFAULT_ORDER_CAP,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> Group:
    """The group generated by `generators` on `degree` points."""
    gens = tuple(generators)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree > degree_cap:
        raise CapExceeded(f"degree {degree} exceeds degree cap {degree_cap}")
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    ordered, found = _close(degree, gens, order_cap)
    return Group(degree, gens, frozenset(found), tuple(ordered))


def _reduced_generators(
    degree: int, candidates: Iterable[Permutation], within: Collection | None = None
) -> list[Permutation]:
    """Greedy generators of the subgroup the candidates generate: each
    candidate, in the given order, that those kept before it do not reach.

    A new generator multiplies only the elements already reached, and only
    the elements that adds are closed under all generators.  Given the
    candidates' image tuples as `within`, raises ValueError unless the
    subgroup is exactly `within`: as soon as it leaves it, or at the end.
    """
    gens: list[Permutation] = []
    movers: list[Callable] = []
    have = {tuple(range(degree))}
    reached = list(have)
    for g in candidates:
        if (x := g.images) in have:
            continue
        gens.append(g)
        movers.append(itemgetter(*x))  # x is not the identity, which is in have
        fresh = [y for h in reached if (y := movers[-1](h)) not in have]
        have.update(fresh)
        for z in fresh:  # the list grows while it is read: breadth-first order
            if within is not None and z not in within:
                raise ValueError("element set is not closed under composition")
            for move in movers:
                if (y := move(z)) not in have:
                    have.add(y)
                    fresh.append(y)
        reached += fresh
    if within is not None and len(have) != len(within):  # the identity is missing
        raise ValueError("element set is not closed under composition")
    return gens


def closed_under_product(elements: Collection[Permutation]) -> bool:
    """Whether a set of permutations is closed under composition, that is,
    whether it is a subgroup.  The empty set counts as closed; a nonempty
    set must contain the identity."""
    if not elements:
        return True
    within = {p.images for p in elements}
    try:
        _reduced_generators(next(iter(elements)).degree, elements, within)
    except ValueError:
        return False
    return True


def group_from_elements(degree: int, elements: Iterable[Permutation]) -> Group:
    """Wrap an already-closed element set as a Group, generated by the
    greedy generators of the sorted elements.

    The Group lists the given element objects, not the copies that
    :func:`_close` makes: the normal subgroups of a large lattice hold
    millions of elements between them.
    """
    own = {p.images: p for p in elements}
    gens = _reduced_generators(degree, sorted(own.values()), own)
    ordered, _ = _close(degree, gens, len(own))
    return Group(
        degree, tuple(gens), frozenset(own.values()), tuple(own[p.images] for p in ordered)
    )


def subgroup_generated(G: Group, seed: Iterable[Permutation]) -> Group:
    """The subgroup of G generated by `seed`, on the same point set, with
    the greedy generators of the sorted seed as its generators."""
    seed_list = sorted(set(seed))
    for s in seed_list:
        if s not in G.elements:
            raise ValueError("seed element is not in the parent group")
    gens = _reduced_generators(G.degree, seed_list)
    ordered, found = _close(G.degree, gens, G.order)
    return Group(G.degree, tuple(gens), frozenset(found), tuple(ordered))


@dataclass(eq=False)
class ElementClassPartition:
    """Conjugacy classes of group elements, ordered by minimum."""

    classes: tuple[frozenset[Permutation], ...]
    index_of: dict[Permutation, int]


@memo
def conjugacy_classes(G: Group) -> ElementClassPartition:
    """Orbit partition of G under conjugation; classes ordered by minimum."""
    index_of: dict[Permutation, int] = {}
    classes: list[frozenset[Permutation]] = []
    for x in sorted(G.element_list):
        if x in index_of:
            continue
        orbit = {x}
        stack = [x]
        while stack:
            y = stack.pop()
            for g in G.generators:
                z = y.conjugate_by(g)
                if z not in orbit:
                    orbit.add(z)
                    stack.append(z)
        idx = len(classes)
        fs = frozenset(orbit)
        classes.append(fs)
        for y in fs:
            index_of[y] = idx
    return ElementClassPartition(tuple(classes), index_of)


def is_normal(G: Group, H: Group) -> bool:
    """Whether gHg^-1 = H for every generator g of G."""
    if not H.elements <= G.elements:
        raise NotSubgroup("H is not contained in G")
    return all(
        h.conjugate_by(g) in H.elements for g in G.generators for h in H.generators
    )


def normal_closure(G: Group, seed: Iterable[Permutation]) -> Group:
    """Smallest normal subgroup of G containing the seed: the subgroup
    generated by the union of the seed's conjugacy classes, with the greedy
    generators of that sorted union as its generators."""
    part = conjugacy_classes(G)
    try:
        met = {part.index_of[x] for x in seed}
    except KeyError:
        raise ValueError("seed element is not in the parent group") from None
    return subgroup_generated(G, (x for i in met for x in part.classes[i]))


@dataclass(eq=False)
class CosetTable:
    """Left cosets of a normal subgroup, in the quotient's point order.

    Cosets are numbered by their minimum elements, so point 0 is always N
    itself and ``representatives[i]`` is the minimum of ``cosets[i]``.
    ``point_of`` maps each parent element to the point its coset occupies.
    """

    cosets: tuple[frozenset[Permutation], ...]
    representatives: tuple[Permutation, ...]
    point_of: dict[Permutation, int]

    @property
    def index(self) -> int:
        return len(self.cosets)


def coset_table(G: Group, N: Group) -> CosetTable:
    """The cosets of a normal subgroup N of G, built on image tuples as
    :func:`_close` does: the coset of x is x.images moved by each element
    of N.  Raises NotNormal unless N is normal in G."""
    if not is_normal(G, N):
        raise NotNormal(f"subgroup of order {N.order} is not normal in G")
    # a non-identity n moves two points or more, so its getter returns tuples
    movers = [itemgetter(*n.images) for n in N.element_list if not n.is_identity()]
    found: dict[tuple[int, ...], int] = {}
    cosets: list[list[tuple[int, ...]]] = []
    for x in G.element_list:
        if (xi := x.images) in found:
            continue
        coset = [xi, *(move(xi) for move in movers)]
        for y in coset:
            found[y] = len(cosets)
        cosets.append(coset)
    order = sorted(range(len(cosets)), key=lambda k: min(cosets[k]))
    point = [0] * len(cosets)
    for i, k in enumerate(order):
        point[k] = i
    point_of = {x: point[found[x.images]] for x in G.element_list}
    members: list[list[Permutation]] = [[] for _ in cosets]
    for x, i in point_of.items():
        members[i].append(x)
    return CosetTable(
        tuple(frozenset(m) for m in members), tuple(min(m) for m in members), point_of
    )


@memo
def quotient_group(G: Group, N: Group) -> tuple[Group, CosetTable]:
    """G/N realized faithfully by the regular action on the cosets of N,
    for callers that need G/N as a Group.  Its degree is the index.  The
    invariants of G/N that the verifiers read (eta, G^-, element orders)
    come from :func:`maxcyc.cyclic.quotient_invariants` instead, which
    builds no permutation of that degree."""
    table = coset_table(G, N)
    index = table.index
    qgens = [
        Permutation(tuple(table.point_of[g * r] for r in table.representatives))
        for g in G.generators
    ]
    Q = enumerate_elements(index, qgens, order_cap=index + 1, degree_cap=index)
    if Q.order != index:
        raise InternalCheckError(
            f"regular action of quotient has order {Q.order}, expected {index}"
        )
    return Q, table


@memo
def center(G: Group) -> Group:
    """The subgroup of elements commuting with every generator."""
    members = [
        x for x in G.element_list if all(x * g == g * x for g in G.generators)
    ]
    return group_from_elements(G.degree, members)


@memo
def derived_subgroup(G: Group) -> Group:
    """Normal closure of the commutators of generator pairs."""
    comms = {
        a.inverse() * b.inverse() * a * b
        for a in G.generators
        for b in G.generators
    }
    return normal_closure(G, comms)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@memo
def normal_subgroups(G: Group) -> tuple[Group, ...]:
    """Every normal subgroup of G, sorted by order then canonical key.

    A normal subgroup is a union of conjugacy classes, and exactly a join of
    the class atoms <C_a> it contains.  The lattice is therefore built on
    bitmasks of class indices: closing a mask S under S <- S | S*C_a turns
    a normal N into N<C_a>, and the set of classes met by C_i*C_a is read
    off one representative times the smaller class, computed once per pair.

    The normals are the closed sets of atoms, enumerated once each by Fast
    Close-by-One (Outrata and Vychodil, 2012).  Atom j stands for its first
    class a_j, and a normal contains atom j exactly when it contains class
    a_j, so the atoms of a mask are the mask itself restricted to those
    classes.  From a normal B reached by adding atom y, each atom j > y
    outside B gives D = B<C_{a_j}>, accepted only when D has no atom below
    j that B lacks.  A rejected D is handed down as the failure at j: a
    descendant that lacks one of its atoms below j would be rejected at j
    too, so it skips j without a closure.  Each normal subgroup is
    materialized as a Group only at the end.
    """
    part = conjugacy_classes(G)
    classes, index_of = part.classes, part.index_of
    reps = [min(c) for c in classes]
    rows: dict[int, dict[int, int]] = {}

    def product(i: int, a: int) -> int:
        """Bitmask of the classes that C_i * C_a meets."""
        ci, ca = classes[i], classes[a]
        if len(ci) <= len(ca):
            met = {index_of[x * reps[a]] for x in ci}
        else:
            met = {index_of[reps[i] * y] for y in ca}
        return sum(1 << j for j in met)

    def close(mask: int, a: int, stop: int = 0) -> int:
        """Closure of the class set `mask` under right multiplication by
        C_a, cut short once it meets a class in `stop`."""
        row = rows.setdefault(a, {})
        frontier = mask
        while frontier and not mask & stop:
            met = 0
            for i in _bits(frontier):
                if i not in row:
                    row[i] = product(i, a)
                met |= row[i]
            frontier = met & ~mask
            mask |= frontier
        return mask

    # One atom per class, skipping classes of generating powers of an earlier
    # representative: they generate the same normal subgroup.  A closure that
    # reaches the first class of a known atom holding C_a has found that atom.
    atoms: dict[int, int] = {}
    covered = {0}
    orders = element_orders(G)
    for a, r in enumerate(reps):
        if a in covered:
            continue
        n = orders[r]
        x = r
        for m in range(1, n):
            if math.gcd(m, n) == 1:
                covered.add(index_of[x])
            x = x * r
        holders = sum(1 << first for amask, first in atoms.items() if amask >> a & 1)
        amask = close(1, a, holders)
        if not amask & holders:
            atoms[amask] = a

    firsts = list(atoms.values())
    firsts_mask = sum(1 << a for a in firsts)
    firsts_below = [firsts_mask & ((1 << a) - 1) for a in firsts]
    found: list[int] = []

    def generate(B: int, y: int, failed: list[int]) -> None:
        found.append(B)
        failed = failed[:]
        children = []
        for j in range(y + 1, len(firsts)):
            a = firsts[j]
            if B >> a & 1:
                continue
            below = firsts_below[j] & ~B
            if failed[j] & below:
                continue
            D = close(B, a)
            if D & below:
                failed[j] = D
            else:
                children.append((D, j))
        for D, j in children:
            generate(D, j, failed)

    generate(1, -1, [0] * len(firsts))

    groups = [
        group_from_elements(G.degree, (x for i in _bits(mask) for x in classes[i]))
        for mask in found
    ]
    groups.sort(key=lambda H: (H.order, H.key()))
    return tuple(groups)


def join(G: Group, normals: Iterable[Group]) -> Group:
    """The join of normal subgroups of G, as the member of
    :func:`normal_subgroups` with its element set, so that data memoized
    on it is shared.  It is generated by the union of their generators."""
    elements = subgroup_generated(G, (g for N in normals for g in N.generators)).elements
    for N in normal_subgroups(G):
        if N.elements == elements:
            return N
    raise InternalCheckError(f"no normal subgroup of order {len(elements)} has this element set")


def labelled_normals(G: Group) -> list[tuple[int, int, Group]]:
    """(order, index among that order, subgroup) for each normal subgroup:
    the ``[order,index]`` labels of :func:`normal_subgroups`."""
    out = []
    counts: dict[int, int] = {}
    for N in normal_subgroups(G):
        idx = counts.get(N.order, 0)
        counts[N.order] = idx + 1
        out.append((N.order, idx, N))
    return out


def is_simple_nonabelian_60(G: Group) -> bool:
    """Order 60 with no normal subgroups besides 1 and G.

    Among groups of order 60 this characterizes the alternating group on
    five points.
    """
    return G.order == 60 and len(normal_subgroups(G)) == 2


def point_stabilizer(G: Group, point: int) -> Group:
    """The subgroup fixing the given point."""
    if not 0 <= point < G.degree:
        raise ValueError(f"point {point} out of range for degree {G.degree}")
    members = [x for x in G.element_list if x.images[point] == point]
    return group_from_elements(G.degree, members)


@memo
def element_orders(G: Group) -> dict[Permutation, int]:
    """The order of each element of G, from its cycle lengths."""
    return {x: perm_order(x) for x in G.element_list}


@memo
def exponent(G: Group) -> int:
    """lcm of the element orders."""
    return math.lcm(*element_orders(G).values())


def is_cyclic(G: Group) -> bool:
    return G.order in element_orders(G).values()


def is_abelian(G: Group) -> bool:
    return all(a * b == b * a for a in G.generators for b in G.generators)


def is_p_group(G: Group) -> int | None:
    """The prime p when |G| = p**k with k >= 1, else None."""
    return prime_power_base(G.order)


def is_nilpotent(G: Group) -> bool:
    """Whether the p-elements form a subgroup of full p-part for each prime p."""
    orders = element_orders(G)
    for p in prime_factors(G.order):
        part = [x for x, n in orders.items() if p_part(n, p) == n]
        if len(part) != p_part(G.order, p) or not closed_under_product(part):
            return False
    return True


def is_solvable(G: Group) -> bool:
    """Whether the derived series reaches the trivial group."""
    current = G
    while current.order > 1:
        nxt = derived_subgroup(current)
        if nxt.order == current.order:
            return False
        current = nxt
    return True
