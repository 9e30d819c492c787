"""Explicitly enumerated finite permutation groups and structural operations.

Every group here carries its full element table, so each predicate used by
the verification layer (normality, conjugacy, coset structure) is decided by
direct enumeration.  Operations are pure; :func:`memo` keeps derived data
in the group it describes and never changes observable results.  A normal
subgroup argument is checked in one place, :func:`normal_mask`, which
builds no lattice that is not already held.
"""

from __future__ import annotations

import math
from functools import wraps
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

from .errors import CapExceeded, InternalCheckError, NoSuchNormal, NotNormal, NotSubgroup
from .numutil import p_part, prime_factors, prime_power_base
from .perm import Permutation, right_multiplier, table_of, word_conjugator

DEFAULT_ORDER_CAP = 20_000
DEFAULT_DEGREE_CAP = 128

_word = attrgetter("word")


class Group:
    """A finite permutation group with its full element table.

    Instances are immutable except for the :func:`memo` table ``derived``
    and the ``element_list`` filled on first read: the closure, breadth
    first from the identity with generators applied in the given order.
    :func:`enumerate_elements` keeps the given generators; every subgroup
    keeps the greedy generators of :func:`_reduced_generators`.
    """

    __slots__ = ("degree", "generators", "elements", "_element_list", "derived")

    def __init__(
        self,
        degree: int,
        generators: tuple[Permutation, ...],
        elements: frozenset[Permutation],
        element_list: tuple[Permutation, ...] | None = None,
    ):
        self.degree = degree
        self.generators = generators
        self.elements = elements
        self._element_list = element_list
        self.derived: dict[tuple, object] = {}

    @property
    def element_list(self) -> tuple[Permutation, ...]:
        """The elements in breadth-first order.  A group made without the
        list, by :func:`group_from_elements`, closes its generators once
        on first read and lists its own element objects."""
        if self._element_list is None:
            own = {p.word: p for p in self.elements}
            words = _close(self.degree, self.generators, len(own))
            self._element_list = tuple(map(own.__getitem__, words))
        return self._element_list

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __contains__(self, p: Permutation) -> bool:
        return p in self.elements

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.element_list)

    def __len__(self) -> int:
        return len(self.elements)

    def key(self) -> tuple:
        """Canonical key of the element set: the sorted tuple of the
        elements' words, which sort like their image tuples."""
        return tuple(sorted(map(_word, self.elements)))

    def __repr__(self) -> str:
        return f"<Group degree={self.degree} order={self.order}>"


def memo(fn: Callable) -> Callable:
    """Memoize ``fn(G, *args)`` in ``G.derived``, so it lives as long as G.

    The key is the positional arguments, and the wrapper takes no keyword
    arguments, so every argument that can change the result is part of
    the key.  ``record(G, *args, result=r)`` holds r as the result, for a
    caller that has computed or proved it, and ``held(G, *args)`` says
    whether a result is held."""

    @wraps(fn)
    def cached(G: Group, *args):
        key = (fn, *args)
        if key not in G.derived:
            G.derived[key] = fn(G, *args)
        return G.derived[key]

    cached.record = lambda G, *args, result: G.derived.__setitem__((fn, *args), result)
    cached.held = lambda G, *args: (fn, *args) in G.derived
    return cached


class BaseIndex:
    """G's elements named by their images of a base.

    The base b_1..b_k is a sequence of points whose pointwise stabilizer
    in G is trivial, so an element x of G is fixed by its base images
    (x(b_1), ..., x(b_k)).  ``element_of`` maps these, read by ``read``
    from an element's word, to G's own element object.  Products, powers
    and conjugates of G's elements read k points and look the result up.
    """

    __slots__ = ("points", "on_base", "read_at", "read", "element_of")

    def __init__(self, points: tuple[int, ...], elements: Iterable[Permutation]):
        self.points = points
        self.on_base = frozenset(points)
        # itemgetter returns a tuple only for two keys or more, so a base of
        # fewer than two points is read with its only point, or point 0, twice
        self.read_at = points if len(points) > 1 else (*points, 0)[:1] * 2
        self.read = itemgetter(*self.read_at)
        self.element_of = {self.read(x.word): x for x in elements}

    def key_times(self, g: Permutation) -> Callable:
        """x.word -> the base images of x*g, for x in G: (x*g)(b) = x(g(b))."""
        return itemgetter(*self.read(g.word))

    def times(self, g: Permutation) -> Callable[[Permutation], Permutation]:
        """x -> x*g, for x in G, by :meth:`key_times`."""
        own, move = self.element_of, self.key_times(g)
        return lambda x: own[move(x.word)]

    def conjugator(self, g: Permutation) -> Callable[[Permutation], Permutation]:
        """x -> g x g^-1, for x in G: (g x g^-1)(b) = g(x(g^-1(b))),
        with g^-1(b) computed once."""
        own, gw = self.element_of, g.word
        pre = itemgetter(*self.read(g.inverse().word))
        return lambda x: own[itemgetter(*pre(x.word))(gw)]

    def power(self, x: Permutation, n: int) -> Permutation:
        """x**n for x in G and n >= 0, walking each base point n steps."""
        xw = x.word
        key = []
        for b in self.read_at:
            for _ in range(n):
                b = xw[b]
            key.append(b)
        return self.element_of[tuple(key)]

    def order(self, x: Permutation) -> int:
        """The order of x in G: the lcm of the cycle lengths of the base
        points, since x**m = 1 exactly when x**m fixes every base point.
        A base point met on an earlier one's cycle has the same length,
        so each cycle is walked once."""
        xw, on_base = x.word, self.on_base
        m, met = 1, set()
        for b in self.points:
            if b in met:
                continue
            c, n = xw[b], 1
            while c != b:
                if c in on_base:
                    met.add(c)
                c = xw[c]
                n += 1
            m = math.lcm(m, n)
        return m


@memo
def base_index(G: Group) -> BaseIndex:
    """The base of G and its elements keyed by their base images.  The
    base walks down the pointwise stabilizers: the next point is the first
    one moved by some element of the current stabilizer, until it is
    trivial (C. C. Sims, 1970).  Raises InternalCheckError if the base
    images do not separate G's elements.
    """
    stabilizer = [x for x in G.element_list if not x.is_identity()]
    points: list[int] = []
    b = -1
    while stabilizer:
        # the stabilizer of the points so far fixes every point up to b
        b = next(p for p in range(b + 1, G.degree) if any(x.word[p] != p for x in stabilizer))
        points.append(b)
        stabilizer = [x for x in stabilizer if x.word[b] == b]
    base = BaseIndex(tuple(points), G.element_list)
    if len(base.element_of) != G.order:
        raise InternalCheckError(
            f"base {points} names {len(base.element_of)} of {G.order} elements"
        )
    return base


def _close(degree: int, seed: Sequence[Permutation], order_cap: int) -> list:
    """Breadth-first closure of the seed under composition, as the words
    of its elements in discovery order; CapExceeded as soon as it is known
    to be larger than order_cap.  Each element is made into a table once
    (:func:`maxcyc.perm.table_of`), and x*g is one C-level call of g's
    :func:`maxcyc.perm.right_multiplier` on it.
    """
    ident = Permutation.identity(degree).word
    found = {ident}
    ordered = [ident]
    table = table_of(degree)
    movers = [right_multiplier(g) for g in seed]
    for x in ordered:  # the list grows while it is read: breadth-first order
        t = table(x)
        for move in movers:
            y = move(t)
            if y not in found:
                if len(found) >= order_cap:
                    raise CapExceeded(
                        f"closure exceeds order cap {order_cap} (degree {degree})"
                    )
                found.add(y)
                ordered.append(y)
    return ordered


def _group_of_words(degree: int, generators: tuple[Permutation, ...], words: list) -> Group:
    """The Group that lists one new element per word, in the given order."""
    element_list = tuple(map(Permutation._unchecked, words))
    return Group(degree, generators, frozenset(element_list), element_list)


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
    return _group_of_words(degree, gens, _close(degree, gens, order_cap))


def _reduced_generators(
    degree: int, candidates: Iterable[Permutation], within: Collection | None = None
) -> list[Permutation]:
    """Greedy generators of the subgroup the candidates generate: each
    candidate, in the given order, that those kept before it do not reach.
    A new generator multiplies only the elements already reached, and only
    the elements that adds are closed under all generators, on words as in
    :func:`_close`.  Given the candidates' words as `within`, raises
    ValueError unless the subgroup is exactly `within`.
    """
    gens: list[Permutation] = []
    movers: list[Callable] = []
    table = table_of(degree)
    have = {Permutation.identity(degree).word}
    reached = list(have)
    for g in candidates:
        if g.word in have:
            continue
        gens.append(g)
        movers.append(move := right_multiplier(g))
        fresh = [y for h in reached if (y := move(table(h))) not in have]
        have.update(fresh)
        for z in fresh:  # the list grows while it is read: breadth-first order
            if within is not None and z not in within:
                raise ValueError("element set is not closed under composition")
            t = table(z)
            for move in movers:
                if (y := move(t)) not in have:
                    have.add(y)
                    fresh.append(y)
        reached += fresh
    if within is not None and len(have) != len(within):  # the identity is missing
        raise ValueError("element set is not closed under composition")
    return gens


def group_from_elements(degree: int, elements: Iterable[Permutation]) -> Group:
    """Wrap an already-closed element set as a Group, generated by the
    greedy generators of the sorted elements, from one run of
    :func:`_reduced_generators`, which also checks that the set is closed.
    The Group holds the given element objects, not copies: the members of
    a large lattice hold millions of elements between them.  Its
    ``element_list`` is built only when something reads it.
    """
    own = {p.word: p for p in elements}
    gens = _reduced_generators(degree, map(own.__getitem__, sorted(own)), own)
    return Group(degree, tuple(gens), frozenset(own.values()))


def subgroup_generated(G: Group, seed: Iterable[Permutation]) -> Group:
    """The subgroup of G generated by `seed`, on the same point set, with
    the greedy generators of the sorted seed as its generators."""
    seed_list = sorted(set(seed), key=_word)
    for s in seed_list:
        if s not in G.elements:
            raise ValueError("seed element is not in the parent group")
    gens = tuple(_reduced_generators(G.degree, seed_list))
    return _group_of_words(G.degree, gens, _close(G.degree, gens, G.order))


@memo
def _central(G: Group, g: Permutation) -> bool:
    """Whether g, in G, commutes with every generator of G, decided on
    words, as in :func:`_close`: once per element and group."""
    table = table_of(G.degree)
    t = table(g.word)
    return all(right_multiplier(h)(t) == right_multiplier(g)(table(h.word)) for h in G.generators)


def moving(G: Group, gens: Iterable[Permutation]) -> list[Permutation]:
    """The members of `gens` outside G's centre, for gens in G: a generator
    of G, or of a normal subgroup, is central exactly when it commutes with
    every generator of G (:func:`_central`), and a central conjugator moves
    nothing."""
    return [g for g in gens if not _central(G, g)]


def orbits(items: Iterable, maps: Sequence[Callable]) -> list[list]:
    """The orbits met from each of `items` in turn under the maps, which
    permute a finite set: each orbit lists its members in the order met,
    its first member being the item it was met from.  An orbit may pass
    through members outside `items`."""
    seen = set()
    found = []
    for x in items:
        if x in seen:
            continue
        seen.add(x)
        orbit = [x]
        for y in orbit:  # the list grows while it is read
            for f in maps:
                if (z := f(y)) not in seen:
                    seen.add(z)
                    orbit.append(z)
        found.append(orbit)
    return found


@memo
def conjugacy_classes(G: Group) -> tuple[list[Permutation], ...]:
    """The conjugacy classes of G as lists, ordered by minimum, each listed
    from its minimum in the order met under conjugation by the generators:
    the one conjugation walk per group.  It runs on words
    (:func:`maxcyc.perm.word_conjugator`), each conjugate's word popped
    from those of the elements not yet met, under the generators that
    :func:`moving` keeps.
    """
    conjugators = list(map(word_conjugator, moving(G, G.generators)))
    ordered = sorted(G.element_list, key=_word)
    unmet = {x.word: x for x in ordered}
    found = []
    for x in ordered:
        if unmet.pop(x.word, None) is None:
            continue
        orbit = [x]
        for y in orbit:  # the list grows while it is read
            for conjugate in conjugators:
                if (z := unmet.pop(conjugate(y.word), None)) is not None:
                    orbit.append(z)
        found.append(orbit)
    return tuple(found)


@memo
def is_normal(G: Group, H: Group) -> bool:
    """Whether gHg^-1 = H for every generator g of G.  Raises NotSubgroup,
    on every call, unless H lies in G."""
    if not H.elements <= G.elements:
        raise NotSubgroup("H is not contained in G")
    return all(
        h.conjugate_by(g) in H.elements for g in G.generators for h in H.generators
    )


def normal_closure(G: Group, seed: Iterable[Permutation]) -> Group:
    """Smallest normal subgroup of G containing the seed: the subgroup
    generated by the union of the seed's conjugacy classes, found by one
    scan of the classes, with the greedy generators of that sorted union as
    its generators."""
    seed = set(seed)
    if not seed <= G.elements:
        raise ValueError("seed element is not in the parent group")
    met = (c for c in conjugacy_classes(G) if not seed.isdisjoint(c))
    return subgroup_generated(G, (x for c in met for x in c))


class CosetTable:
    """Left cosets of a normal subgroup, in the quotient's point order.

    Cosets are numbered by their minimum elements, so point 0 is always N
    itself and ``representatives[i]`` is the minimum of the coset at
    point i.  ``point_of`` maps each parent element to the point its coset
    occupies; the coset at point i is {x : point_of[x] == i}.
    """

    __slots__ = ("representatives", "point_of")

    def __init__(self, representatives, point_of):
        self.representatives: tuple[Permutation, ...] = representatives
        self.point_of: dict[Permutation, int] = point_of

    @property
    def index(self) -> int:
        return len(self.representatives)


def coset_table(G: Group, N: Group) -> CosetTable:
    """The cosets of a normal subgroup N of G, built on the base images of
    :func:`base_index`: the coset of x holds x*n for each n in N, each
    named by its base images (x*n)(b) = x(n(b)) and listed as G's own
    element.  N is read first through :func:`normal_mask`, the one guard
    that N is normal in G."""
    normal_mask(G, N)
    base = base_index(G)
    read, own = base.read, base.element_of
    movers = list(map(base.key_times, N.elements))
    coset_of: dict[tuple[int, ...], int] = {}
    cosets: list[list[Permutation]] = []
    for x in G.element_list:
        if read(xw := x.word) in coset_of:
            continue
        coset = [move(xw) for move in movers]
        coset_of.update(dict.fromkeys(coset, len(cosets)))
        cosets.append([own[y] for y in coset])
    minima = [min(c, key=_word) for c in cosets]
    order = sorted(range(len(cosets)), key=lambda k: minima[k].word)
    point_of = {x: i for i, k in enumerate(order) for x in cosets[k]}
    return CosetTable(tuple(minima[k] for k in order), point_of)


@memo
def quotient_group(G: Group, N: Group) -> tuple[Group, CosetTable]:
    """G/N realized faithfully by the regular action on the cosets of N,
    of degree |G:N|, which no verifier builds: they read G/N off G's
    cosets (:func:`maxcyc.cyclic.quotient_invariants`) or classes."""
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
    """The elements that are their own conjugacy class: those commuting
    with every element of G."""
    members = [c[0] for c in conjugacy_classes(G) if len(c) == 1]
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


def class_members(G: Group, mask: int) -> Iterator[Permutation]:
    """The elements of the classes of :func:`conjugacy_classes` in `mask`."""
    classes = conjugacy_classes(G)
    return (x for i in _bits(mask) for x in classes[i])


@memo
def class_mask(G: Group, members: frozenset[Permutation]) -> int:
    """The bitmask of the classes of :func:`conjugacy_classes` whose first
    member lies in `members`: for a union of classes, such as G^-, Z(G),
    G' or a normal subgroup, the classes it is made of, held once per set."""
    return sum(1 << i for i, c in enumerate(conjugacy_classes(G)) if c[0] in members)


class NormalLattice(NamedTuple):
    """The normal subgroups of G (:func:`normal_lattice`), sorted by order,
    then canonical key: as ``mask``, with the bitmask of class indices of
    :func:`conjugacy_classes` of each, which ``member`` maps back; and as
    ``named``, by ``[order,index]`` label, the index counting the members of
    that order.  ``close(mask, a)``, the class step, closes a set of
    classes under multiplication by class a: N becomes N<C_a>."""

    named: dict[tuple[int, int], Group]
    mask: dict[Group, int]
    member: dict[int, Group]
    close: Callable[[int, int], int]


@memo
def normal_lattice(G: Group) -> NormalLattice:
    """Every normal subgroup of G, with its class mask and its label.

    A normal subgroup is a union of conjugacy classes, and exactly a join of
    the class atoms <C_a> it contains, so the lattice is built on bitmasks
    of class indices, and they stay in the record for the containments,
    joins and labels.  The classes met by C_i*C_a are read off the smaller
    class times the other's representative r, once per pair, as
    :func:`base_index` products: x*y in C_i*C_a is conjugate to x'*r and to
    r*y', which is conjugate to y'*r.

    The normals are the closed sets of atoms, enumerated once each by Fast
    Close-by-One (Outrata and Vychodil, 2012).  Atom j stands for its first
    class a_j, so the atoms of a mask are the mask restricted to those
    classes.  From a normal B reached by adding atom y, each atom j > y
    outside B gives D = B<C_{a_j}>, accepted only when D has no atom below
    j that B lacks.  A rejected D is handed down as the failure at j: a
    descendant that lacks one of its atoms below j would be rejected at j
    too, so it skips j without a closure.  The members become Groups only
    at the end, by :func:`group_from_elements`.
    """
    classes = conjugacy_classes(G)
    reps = [c[0] for c in classes]  # each class's minimum
    base = base_index(G)
    class_at = {base.read(x.word): i for i, c in enumerate(classes) for x in c}
    bit = [1 << i for i in range(len(classes))]
    rows: dict[int, dict[int, int]] = {}

    def product(i: int, a: int) -> int:
        """Bitmask of the classes that C_i * C_a meets."""
        if len(classes[a]) < len(classes[i]):
            i, a = a, i
        met = set(map(class_at.__getitem__, map(base.key_times(reps[a]), map(_word, classes[i]))))
        return sum(map(bit.__getitem__, met))

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
    orders = class_orders(G)
    for a, r in enumerate(reps):
        if a in covered:
            continue
        n = orders[a]
        x, times_r = r, base.times(r)
        for m in range(1, n):
            if math.gcd(m, n) == 1:
                covered.add(class_at[base.read(x.word)])
            x = times_r(x)
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

    member = {m: group_from_elements(G.degree, class_members(G, m)) for m in found}
    mask_of = {H: m for m, H in sorted(member.items(), key=lambda mH: (mH[1].order, mH[1].key()))}
    named = {(o, i): H for o, same in groupby(mask_of, attrgetter("order"))
             for i, H in enumerate(same)}
    return NormalLattice(named, mask_of, member, close)


def normal_subgroups(G: Group) -> tuple[Group, ...]:
    """Every normal subgroup of G, sorted by order then canonical key: the
    members of :func:`normal_lattice`."""
    return tuple(normal_lattice(G).mask)


def normal_mask(G: Group, N: Group) -> int:
    """The class mask of N, normal in G: its member's in
    :func:`normal_lattice`, or :func:`class_mask` of another Group's once
    :func:`is_normal` has accepted it.  Only the lattice makes members, so
    one that is not yet built is not built here.  Every function that takes
    a normal subgroup reads it here first, so this is the one guard: it
    raises NotSubgroup unless N lies in G, and NotNormal unless N is
    normal."""
    if normal_lattice.held(G):
        mask = normal_lattice(G).mask.get(N)
        if mask is not None:
            return mask
    if not is_normal(G, N):
        raise NotNormal(f"subgroup of order {N.order} is not normal in G")
    return class_mask(G, N.elements)


def named_normal(G: Group, order: int, index: int) -> Group:
    """The normal subgroup labelled ``[order,index]`` in :func:`normal_lattice`."""
    named = normal_lattice(G).named
    if (order, index) in named:
        return named[order, index]
    count = sum(o == order for o, _ in named)
    raise NoSuchNormal(f"no normal subgroup of order {order} with index {index} ({count} candidates)")


def join(G: Group, normals: Iterable[Group]) -> Group:
    """The join of normal subgroups of G, as the member of
    :func:`normal_lattice`, so that data memoized on it is shared: the
    trivial subgroup closed by the class step under each of their classes,
    read by :func:`normal_mask`, which guards each of them."""
    lattice = normal_lattice(G)
    joined = 1
    for N in normals:
        for a in _bits(normal_mask(G, N)):
            if not joined >> a & 1:
                joined = lattice.close(joined, a)
    if joined not in lattice.member:
        raise InternalCheckError(f"the join, of {joined.bit_count()} classes, is no lattice member")
    return lattice.member[joined]


@memo
def point_stabilizer(G: Group, point: int) -> Group:
    """The subgroup fixing the given point, held by G."""
    if not 0 <= point < G.degree:
        raise ValueError(f"point {point} out of range for degree {G.degree}")
    members = [x for x in G.element_list if x.word[point] == point]
    return group_from_elements(G.degree, members)


@memo
def class_orders(G: Group) -> tuple[int, ...]:
    """The order of the elements of each class of :func:`conjugacy_classes`,
    which conjugate elements share, taken from its first member by
    :meth:`BaseIndex.order`."""
    order = base_index(G).order
    return tuple(order(c[0]) for c in conjugacy_classes(G))


@memo
def exponent(G: Group) -> int:
    """lcm of the element orders."""
    return math.lcm(*class_orders(G))


def is_cyclic(G: Group) -> bool:
    return G.order in class_orders(G)


def is_p_group(G: Group) -> int | None:
    """The prime p when |G| = p**k with k >= 1, else None."""
    return prime_power_base(G.order)


def is_nilpotent(G: Group) -> bool:
    """Whether G has exactly |G|_p elements of p-power order for each prime
    p: the p-elements are the union of the Sylow p-subgroups, so the count
    is |G|_p exactly when the Sylow p-subgroup is unique, that is normal."""
    sized = list(zip(map(len, conjugacy_classes(G)), class_orders(G)))
    return all(sum(k for k, n in sized if p_part(n, p) == n) == p_part(G.order, p)
               for p in prime_factors(G.order))


def is_solvable(G: Group) -> bool:
    """Whether the derived series reaches the trivial group."""
    current = G
    while current.order > 1:
        nxt = derived_subgroup(current)
        if nxt.order == current.order:
            return False
        current = nxt
    return True
