"""Independent brute-force oracles used only by the tests.

The subgroup oracle enumerates *every* subgroup by repeatedly extending
known subgroups with cyclic subgroups over an integer multiplication
table; it shares no code with maxcyc.core.normal_subgroups, which builds
the normal-subgroup lattice from conjugacy-class products.  The eta
oracle likewise shares no code with maxcyc.cyclic, and the greedy
generator oracle none with maxcyc.core's incremental closure.
"""

from __future__ import annotations

from maxcyc.core import Group
from maxcyc.perm import Permutation


def greedy_generators(degree: int, elements: frozenset[Permutation]) -> list[Permutation]:
    """The greedy generating set of a subgroup: walk the elements in sorted
    order and add each one the generators so far do not reach, closing the
    generators from scratch after every addition."""

    def closure(gens: list[Permutation]) -> set[Permutation]:
        found = {Permutation.identity(degree)}
        stack = list(found)
        while stack:
            x = stack.pop()
            for g in gens:
                y = x * g
                if y not in found:
                    found.add(y)
                    stack.append(y)
        return found

    gens: list[Permutation] = []
    have = closure(gens)
    for x in sorted(elements):
        if x not in have:
            gens.append(x)
            have = closure(gens)
    assert have == set(elements)
    return gens


def all_subgroups(G: Group) -> set[frozenset]:
    """Every subgroup of G, as frozensets of element indices 0..|G|-1
    (index 0 is the identity)."""
    elems = sorted(G.element_list)
    assert elems[0].is_identity()
    index = {e: i for i, e in enumerate(elems)}
    mult = [[index[a * b] for b in elems] for a in elems]

    def close(gens: tuple[int, ...]) -> frozenset[int]:
        found = {0}
        queue = [0]
        while queue:
            x = queue.pop()
            for g in gens:
                y = mult[x][g]
                if y not in found:
                    found.add(y)
                    queue.append(y)
        return frozenset(found)

    # seed with the cyclic subgroups, remembering one generator tuple each
    gens_of: dict[frozenset[int], tuple[int, ...]] = {frozenset({0}): ()}
    for i in range(len(elems)):
        s = close((i,))
        gens_of.setdefault(s, (i,))

    cyclics = [(s, g) for s, g in gens_of.items() if len(g) == 1]
    work = list(gens_of.items())
    while work:
        H, hgens = work.pop()
        for C, cgen in cyclics:
            if C <= H:
                continue
            joined_gens = hgens + cgen
            J = close(joined_gens)
            if J not in gens_of:
                gens_of[J] = joined_gens
                work.append((J, joined_gens))
    return set(gens_of)


def normal_subgroup_element_sets(G: Group) -> set[frozenset]:
    """Every normal subgroup of G, as frozensets of Permutations."""
    elems = sorted(G.element_list)
    out = set()
    for sub in all_subgroups(G):
        members = frozenset(elems[i] for i in sub)
        if all(
            x.conjugate_by(g) in members for g in G.generators for x in members
        ):
            out.add(members)
    return out


def eta_oracle(G: Group) -> tuple[int, tuple[tuple[int, int], ...], int, int, set[frozenset]]:
    """Brute-force (eta, class_reps, l_value, gminus_size, maximal element
    sets), sharing no code with maxcyc.cyclic.

    Works on the integer multiplication table: the cyclic subgroup of every
    element is its power orbit, maximality is containment in no larger
    one, and two subgroups are conjugate when some element of G (not only
    a generator) maps one onto the other.  Classes are listed in the order
    of their smallest (order, sorted image tuples) member, as in eta.
    """
    elems = sorted(G.element_list)
    assert elems[0].is_identity()
    index = {e: i for i, e in enumerate(elems)}
    mult = [[index[a * b] for b in elems] for a in elems]
    inv = [row.index(0) for row in mult]

    def power_orbit(i: int) -> frozenset[int]:
        found = [0]
        x = i
        while x != 0:
            found.append(x)
            x = mult[x][i]
        return frozenset(found)

    cyclic_of = [power_orbit(i) for i in range(len(elems))]
    subgroups = set(cyclic_of)
    maximal = {s for s in subgroups if not any(s < t for t in subgroups)}

    def conjugate(s: frozenset[int], g: int) -> frozenset[int]:
        return frozenset(mult[mult[g][x]][inv[g]] for x in s)

    def sort_key(s: frozenset[int]) -> tuple:
        return (len(s), tuple(sorted(elems[i].images for i in s)))

    def classes(subs: set[frozenset[int]]) -> list[list[frozenset[int]]]:
        out = []
        left = set(subs)
        while left:
            s = min(left, key=sort_key)
            orbit = {conjugate(s, g) for g in range(len(elems))}
            out.append(sorted(orbit, key=sort_key))
            left -= orbit
        return out

    max_classes = classes(maximal)
    class_reps = tuple((len(cls[0]), len(cls)) for cls in max_classes)
    gminus_size = sum(1 for s in cyclic_of if s not in maximal)
    maximal_sets = {frozenset(elems[i] for i in s) for s in maximal}
    return len(max_classes), class_reps, len(classes(subgroups)), gminus_size, maximal_sets
