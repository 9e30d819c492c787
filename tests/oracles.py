"""Independent brute-force oracles used only by the tests.

The subgroup oracle enumerates *every* subgroup by repeatedly extending
known subgroups with cyclic subgroups over an integer multiplication
table; it shares no code with maxcyc.core.normal_subgroups, which builds
the normal-subgroup lattice from conjugacy-class products.  The eta and
eta* oracles likewise share no code with maxcyc.cyclic, and the greedy
generator, closure and pairwise-product oracles none with maxcyc.core's
incremental closure.  The classification and Frobenius-conjugate oracles
work element by element on a group of their own, where maxcyc.theorems
reads G's class masks and one conjugate per coset.  :func:`relabelled`
moves a group to other points, which changes its base and its element
order but none of its invariants.  :func:`g_minus_oracle` takes G^- from
its definition, one element at a time, where maxcyc.cyclic takes one
power per conjugacy class.  :func:`quot_conditions_oracle` decides the
quotient conditions pair by pair from element classes, where
maxcyc.theorems compares the class labels of cyclic subgroups once per
coset.  :func:`coset_orders_oracle`, :func:`center_oracle`,
:func:`derived_oracle`, :func:`joins_oracle` and
:func:`gminus_containment_oracle` read element sets and the integer
multiplication table, where maxcyc reads the class masks of its normal
lattice.  :func:`perm_order`, :func:`is_abelian` and
:func:`is_simple_nonabelian_60` are reference predicates that the library
itself no longer needs; the last reads the subgroup oracle.  :func:`passed`
reads a verifier's list of checks.  :func:`is_nilpotent_oracle` asks that
any two elements of coprime order commute, where maxcyc.core counts the
elements of prime-power order.
"""

from __future__ import annotations

import math
import random
from functools import wraps
from typing import Callable, Collection, Iterable

from maxcyc.constructors import realize_text
from maxcyc.core import Group
from maxcyc.errors import ClassificationFailed, NotFrobenius
from maxcyc.numutil import is_prime, prime_factors
from maxcyc.perm import Permutation
from maxcyc.theorems import Check, PrimeOrderClass


def passed(checks: Iterable) -> bool:
    """Whether every check of a ``maxcyc.theorems`` verifier passed."""
    return all(c.passed for c in checks)


def perm_order(a: Permutation) -> int:
    """Least n >= 1 with a**n the identity; the lcm of the cycle lengths."""
    lengths = [len(c) for c in a.cycles()]
    return math.lcm(*lengths) if lengths else 1


def is_abelian(G: Group) -> bool:
    return all(a * b == b * a for a in G.generators for b in G.generators)


def relabelled(G: Group, seed: int) -> Group:
    """G with its points shuffled by a seeded random permutation, realized
    from a ``Perm(...)`` spec of the conjugated generators."""
    points = list(range(G.degree))
    random.Random(seed).shuffle(points)
    cycles = []
    for g in G.generators:
        images = [0] * G.degree
        for i, v in enumerate(g.images):
            images[points[i]] = points[v]
        cycles.append(Permutation(images).cycle_string())
    return realize_text(f"Perm({G.degree}; {', '.join(cycles or ['()'])})")


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


def bfs_closure(degree: int, generators: Iterable[Permutation]) -> list[tuple[int, ...]]:
    """The group the generators generate, as image tuples in breadth-first
    order from the identity: each element x in the order met, times each
    generator g in the given order, where x*g sends i to x[g[i]]."""
    gens = [g.images for g in generators]
    met = [tuple(range(degree))]
    seen = set(met)
    for x in met:  # the list grows while it is read
        for g in gens:
            y = tuple(x[v] for v in g)
            if y not in seen:
                seen.add(y)
                met.append(y)
    return met


def _table(G: Group) -> tuple[list[Permutation], dict[Permutation, int], list[list[int]]]:
    """The sorted elements of G (index 0 is the identity), their indices,
    and the integer multiplication table."""
    elems = sorted(G.element_list)
    assert elems[0].is_identity()
    index = {e: i for i, e in enumerate(elems)}
    mult = [[index[a * b] for b in elems] for a in elems]
    return elems, index, mult


def _close(mult: list[list[int]], gens: Iterable[int]) -> frozenset[int]:
    """Indices of the subgroup that the indexed gens generate."""
    gens = tuple(gens)
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


def subgroup_closure(G: Group, seed: Iterable[Permutation]) -> frozenset[Permutation]:
    """The subgroup of G generated by the seed, by brute-force closure on
    the integer multiplication table."""
    elems, index, mult = _table(G)
    return frozenset(elems[i] for i in _close(mult, (index[s] for s in seed)))


def closed_pairwise(members: Collection[Permutation]) -> bool:
    """Whether every product a*b of two members is a member."""
    return all(a * b in members for a in members for b in members)


def is_nilpotent_oracle(G: Group) -> bool:
    """Whether any two elements of coprime order commute, which holds
    exactly when the finite group G is nilpotent."""
    orders = {x: perm_order(x) for x in G.element_list}
    return all(x * y == y * x for x in orders for y in orders
               if math.gcd(orders[x], orders[y]) == 1)


def _per_group_key(fn: Callable) -> Callable:
    """Memoize fn(G) on G.key(), so that Hypothesis examples and shrink
    replays that rebuild one group reuse the result.  The result depends
    on the element set only."""
    results: dict[tuple, object] = {}

    @wraps(fn)
    def cached(G: Group):
        key = G.key()
        if key not in results:
            results[key] = fn(G)
        return results[key]

    return cached


@_per_group_key
def all_subgroups(G: Group) -> set[frozenset]:
    """Every subgroup of G, as frozensets of element indices 0..|G|-1
    (index 0 is the identity)."""
    elems, _, mult = _table(G)
    # seed with the cyclic subgroups, remembering one generator tuple each
    gens_of: dict[frozenset[int], tuple[int, ...]] = {frozenset({0}): ()}
    for i in range(len(elems)):
        s = _close(mult, (i,))
        gens_of.setdefault(s, (i,))

    cyclics = [(s, g) for s, g in gens_of.items() if len(g) == 1]
    work = list(gens_of.items())
    while work:
        H, hgens = work.pop()
        for C, cgen in cyclics:
            if C <= H:
                continue
            joined_gens = hgens + cgen
            J = _close(mult, joined_gens)
            if J not in gens_of:
                gens_of[J] = joined_gens
                work.append((J, joined_gens))
    return set(gens_of)


@_per_group_key
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


def is_simple_nonabelian_60(G: Group) -> bool:
    """Order 60 with no normal subgroups besides 1 and G.

    Among groups of order 60 this characterizes the alternating group on
    five points.
    """
    return G.order == 60 and len(normal_subgroup_element_sets(G)) == 2


def element_classes_oracle(G: Group) -> list[frozenset[Permutation]]:
    """The conjugacy classes of G, ordered by their least elements, from
    conjugating every element by every element on G's integer
    multiplication table."""
    elems, _, mult = _table(G)
    inv = [row.index(0) for row in mult]
    everyone = range(len(elems))
    classes = {frozenset(mult[mult[g][i]][inv[g]] for g in everyone) for i in everyone}
    return [frozenset(elems[i] for i in c) for c in sorted(classes, key=min)]


def g_minus_oracle(G: Group) -> frozenset[Permutation]:
    """G^- by its power characterization, element by element: x**q for
    every x in G and every prime q dividing :func:`perm_order` of x, with
    ``Permutation.__pow__``; no classes, base or element orders of G."""
    return frozenset(x ** q for x in G for q in prime_factors(perm_order(x)))


def _power_orbit(mult: list[list[int]], i: int) -> frozenset[int]:
    """Indices of the cyclic subgroup that element i generates."""
    found = [0]
    x = i
    while x != 0:
        found.append(x)
        x = mult[x][i]
    return frozenset(found)


def _conjugate(mult: list[list[int]], inv: list[int], s: frozenset[int], g: int) -> frozenset[int]:
    """Indices of g s g^-1."""
    return frozenset(mult[mult[g][x]][inv[g]] for x in s)


def eta_oracle(
    G: Group,
) -> tuple[int, tuple[tuple[int, int], ...], int, int, set[frozenset], set[frozenset]]:
    """Brute-force (eta, class_reps, l_value, gminus_size, maximal element
    sets, classes of all cyclic subgroups as sets of element sets), sharing
    no code with maxcyc.cyclic.

    Works on the integer multiplication table: the cyclic subgroup of every
    element is its power orbit, maximality is containment in no larger
    one, and two subgroups are conjugate when some element of G (not only
    a generator) maps one onto the other.  Classes are listed in the order
    of their smallest (order, sorted image tuples) member, as in eta.
    """
    elems, _, mult = _table(G)
    inv = [row.index(0) for row in mult]
    cyclic_of = [_power_orbit(mult, i) for i in range(len(elems))]
    subgroups = set(cyclic_of)
    maximal = {s for s in subgroups if not any(s < t for t in subgroups)}

    def sort_key(s: frozenset[int]) -> tuple:
        return (len(s), tuple(sorted(elems[i].images for i in s)))

    def classes(subs: set[frozenset[int]]) -> list[list[frozenset[int]]]:
        out = []
        left = set(subs)
        while left:
            s = min(left, key=sort_key)
            orbit = {_conjugate(mult, inv, s, g) for g in range(len(elems))}
            out.append(sorted(orbit, key=sort_key))
            left -= orbit
        return out

    def element_set(s: frozenset[int]) -> frozenset[Permutation]:
        return frozenset(elems[i] for i in s)

    max_classes = classes(maximal)
    all_classes = {frozenset(map(element_set, cls)) for cls in classes(subgroups)}
    class_reps = tuple((len(cls[0]), len(cls)) for cls in max_classes)
    gminus_size = sum(1 for s in cyclic_of if s not in maximal)
    maximal_sets = set(map(element_set, maximal))
    return len(max_classes), class_reps, len(all_classes), gminus_size, maximal_sets, all_classes


def eta_star_oracle(G: Group, N: Group) -> tuple[int, list[set[frozenset[Permutation]]]]:
    """Brute-force eta*(N) for N normal in G, with the G-orbits on the
    maximal cyclic subgroups of N as sets of element sets, sharing no code
    with maxcyc.cyclic.

    Works on G's integer multiplication table: the cyclic subgroups of N
    are the power orbits of N's elements, the N-maximal ones lie in no
    larger one, and the orbits are taken under conjugation by every
    element of G (not only a generator).
    """
    elems, index, mult = _table(G)
    inv = [row.index(0) for row in mult]
    subgroups = {_power_orbit(mult, index[x]) for x in N.element_list}
    maximal = {s for s in subgroups if not any(s < t for t in subgroups)}
    orbits = []
    left = set(maximal)
    while left:
        s = left.pop()
        orbit = {_conjugate(mult, inv, s, g) for g in range(len(elems))}
        assert orbit <= maximal, "N is not normal in G"
        orbits.append({frozenset(elems[i] for i in t) for t in orbit})
        left -= orbit
    return len(orbits), orbits


def quot_conditions_oracle(
    G: Group, N: Group
) -> tuple[bool, bool, bool, bool, dict[str, tuple[str, ...]]]:
    """(cond_a, cond_b, cond_c, strong, witnesses) for N normal and proper
    in G, from the definitions on G's integer multiplication table, sharing
    no code with maxcyc.

    (a) N lies in G^-; (b) the non-generators of G/N, found on the coset
    multiplication table, are the cosets inside G^-; (c) each y in xN
    outside G^-, for x outside G^-, lies in the conjugacy class of a
    generator of <x>; the strong condition asks this of every y in xN.
    Each witness list holds the first three failures: for (a) the least
    elements of N outside G^-, for (b) the least points on which the two
    sets differ, and for (c) and the strong condition the pairs ``x ~ y``
    with x in ``G.element_list`` order and y = x*n in ``N.element_list``
    order.  Cosets are numbered by their least elements.
    """
    elems, index, mult = _table(G)
    size = len(elems)
    inv = [row.index(0) for row in mult]
    cyclic_of = [_power_orbit(mult, i) for i in range(size)]
    subgroups = set(cyclic_of)
    maximal = {s for s in subgroups if not any(s < t for t in subgroups)}
    minus = {i for i in range(size) if cyclic_of[i] not in maximal}
    conjugates = [frozenset(mult[mult[g][i]][inv[g]] for g in range(size)) for i in range(size)]
    generators = {s: {i for i in s if cyclic_of[i] == s} for s in subgroups}
    in_n = [index[x] for x in N.element_list]
    witnesses: dict[str, tuple[str, ...]] = {}

    outside = sorted(set(in_n) - minus)
    if outside:
        witnesses["cond_a"] = tuple(elems[i].cycle_string() for i in outside[:3])

    cosets = sorted({frozenset(mult[x][n] for n in in_n) for x in range(size)}, key=min)
    point = {x: p for p, c in enumerate(cosets) for x in c}

    def times(p: int, q: int) -> int:
        return point[mult[min(cosets[p])][min(cosets[q])]]

    q_cyclic = []
    for p in range(len(cosets)):
        found, x = {0}, p
        while x != 0:
            found.add(x)
            x = times(x, p)
        q_cyclic.append(frozenset(found))
    q_maximal = {s for s in q_cyclic if not any(s < t for t in q_cyclic)}
    q_minus = {p for p, s in enumerate(q_cyclic) if s not in q_maximal}
    covered = {p for p, c in enumerate(cosets) if c <= minus}
    differ = sorted(q_minus ^ covered)
    if differ:
        witnesses["cond_b"] = tuple(str(p) for p in differ[:3])

    bad_c: list[str] = []
    bad_strong: list[str] = []
    for x in G.element_list:
        i = index[x]
        if i in minus:
            continue
        for n in in_n:
            j = mult[i][n]
            if conjugates[j].isdisjoint(generators[cyclic_of[i]]):
                pair = f"{x.cycle_string()} ~ {elems[j].cycle_string()}"
                bad_strong.append(pair)
                if j not in minus:
                    bad_c.append(pair)
    if bad_c:
        witnesses["cond_c"] = tuple(bad_c[:3])
    if bad_strong:
        witnesses["strong"] = tuple(bad_strong[:3])
    return not outside, not differ, not bad_c, not bad_strong, witnesses


def coset_orders_oracle(G: Group, N: Group) -> dict[Permutation, int]:
    """o(xN) for each x in G: the least k >= 1 with x**k in N, by repeated
    multiplication on G's integer multiplication table; no coset table,
    class or power of maxcyc."""
    elems, index, mult = _table(G)
    inside = {index[x] for x in N.element_list}
    orders = {}
    for i, x in enumerate(elems):
        k, y = 1, i
        while y not in inside:
            k, y = k + 1, mult[y][i]
        orders[x] = k
    return orders


def center_oracle(G: Group) -> frozenset[Permutation]:
    """The elements of G that commute with each of its generators."""
    return frozenset(x for x in G if all(x * g == g * x for g in G.generators))


def derived_oracle(G: Group) -> frozenset[Permutation]:
    """G', closed from every commutator a^-1 b^-1 a b of two elements."""
    return subgroup_closure(G, {a.inverse() * b.inverse() * a * b for a in G for b in G})


def joins_oracle(G: Group, pairs: Iterable[tuple[Group, Group]]) -> list[frozenset[Permutation]]:
    """The subgroup that each pair of subgroups generates, closed from all
    their elements on G's integer multiplication table, built once."""
    elems, index, mult = _table(G)
    return [frozenset(elems[i] for i in _close(mult, (index[x] for x in N.elements | M.elements)))
            for N, M in pairs]


def gminus_containment_oracle(G: Group, N: Group) -> list[Check]:
    """The checks of ``check_gminus_containment``, as that function read
    them off element sets and the quotient's coset orders, before it read
    class masks: G^- by :func:`g_minus_oracle`, element orders by
    :func:`perm_order` and coset orders by :func:`coset_orders_oracle`."""
    gm = g_minus_oracle(G)
    contained = gm <= N.elements
    orders = {x: perm_order(x) for x in G}
    outside = [n for x, n in orders.items() if x not in N.elements]
    outside_ppo = all(len(prime_factors(n)) <= 1 for n in outside)
    quotient_orders = set(coset_orders_oracle(G, N).values())
    q_prime = all(n == 1 or is_prime(n) for n in quotient_orders)
    checks = [
        Check("part1", contained == (outside_ppo and q_prime),
              "G^- in N <=> (prime-power outside, prime orders in G/N)",
              {"contained": contained, "outside_ppo": outside_ppo, "q_prime": q_prime}),
    ]
    index = G.order // N.order
    if is_prime(index):
        outside_p_power = all(prime_factors(n) in ([], [index]) for n in outside)
        checks.append(
            Check("part2", contained == outside_p_power,
                  "index p: G^- in M <=> p-power orders outside M",
                  {"contained": contained, "outside_p_power": outside_p_power})
        )
    primes = prime_factors(G.order)
    if len(primes) == 1 and math.lcm(*quotient_orders) in (1, primes[0]):
        checks.append(
            Check("part3", contained, "p-group with exponent-p quotient: G^- in N", contained)
        )
    return checks


def outcome(fn: Callable, *args):
    """fn(*args), or the type and message of the ClassificationFailed or
    NotFrobenius it raises, so that a library routine and its oracle can
    be compared on failures too."""
    try:
        return fn(*args)
    except (ClassificationFailed, NotFrobenius) as exc:
        return type(exc).__name__, str(exc)


def classify_oracle(Q: Group) -> PrimeOrderClass:
    """The structural class of Q when all its nonidentity elements have
    prime order, decided element by element on Q itself: each order by
    ``perm_order``, the Frobenius kernel by pairwise products, its
    fixed-point-freeness by conjugating every kernel element by every
    element of order q, and simplicity at order 60 from the brute-force
    normal subgroups.  Raises ClassificationFailed, with the library's
    message, when no structure matches."""
    orders = {x: perm_order(x) for x in Q.element_list}
    if any(n != 1 and not is_prime(n) for n in orders.values()):
        return PrimeOrderClass("not_all_prime_order")
    primes = prime_factors(Q.order)
    if len(primes) <= 1:
        return PrimeOrderClass("exponent_p", p=primes[0] if primes else 2)
    if Q.order == 60 and len(normal_subgroup_element_sets(Q)) == 2:
        return PrimeOrderClass("a5")
    for p, q in (primes, primes[::-1]) if len(primes) == 2 else ():
        if Q.order % (q * q) == 0:
            continue
        kernel = {x for x, n in orders.items() if n in (1, p)}
        if len(kernel) * q != Q.order or not closed_pairwise(kernel):
            continue
        if all(
            x.conjugate_by(h) != x
            for h, n in orders.items() if n == q
            for x in kernel if not x.is_identity()
        ):
            return PrimeOrderClass("frobenius_pq", p=p, q=q)
    raise ClassificationFailed(
        f"group of order {Q.order} with all prime element orders matches no "
        "expected structure"
    )


def frobenius_conjugate_oracle(G: Group, H: Group) -> str | None:
    """The message for the first g outside H, in ``element_list`` order,
    whose conjugate of H meets H nontrivially, conjugating all of H by
    every such g; None when there is none."""
    for g in G.element_list:
        if g in H.elements:
            continue
        conj = {h.conjugate_by(g) for h in H.elements}
        if len(conj & H.elements) > 1:
            return f"H meets its conjugate by {g.cycle_string()} nontrivially"
    return None
