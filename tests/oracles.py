"""Independent brute-force oracles used only by the tests.

The subgroup oracle enumerates *every* subgroup by repeatedly extending
known subgroups with cyclic subgroups over an integer multiplication
table; it shares no code with maxcyc.core.normal_subgroups, which builds
the normal-subgroup lattice from conjugacy-class products.
"""

from __future__ import annotations

from maxcyc.core import Group


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
