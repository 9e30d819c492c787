"""Executable verifiers for the structural facts about eta and G^-.

Each verifier returns its list of named :class:`Check` results rather
than a bare boolean, so a failing instance carries its expected and
actual values.  Every law of a ``verify`` suite is computed here, and so
is each hypothesis on G: :func:`is_noncyclic_p_group`,
:func:`is_exponent_p_group` and :func:`is_nontrivial` are the predicates
that the suite layer asks before it runs a law and that the law's own
guard asks again, raising an error that names the law.  A normal
subgroup N is read first through :func:`maxcyc.core.normal_mask`, the one
guard that N is normal in G, and so are Z(G) and G'.  The suite layer
in :mod:`maxcyc.corpus` only selects: it names each suite and corpus
entry, prefixes the checks of each normal subgroup with its label, picks
the pairs of normals, and handles negative controls (inputs expected to
violate a hypothesis).
"""

from __future__ import annotations

import math
from heapq import nsmallest
from itertools import islice
from typing import Any, Iterator, NamedTuple

from .core import (
    Group,
    _bits,
    base_index,
    center,
    class_mask,
    conjugacy_classes,
    coset_table,
    derived_subgroup,
    element_orders,
    exponent,
    is_cyclic,
    is_nilpotent,
    is_normal,
    is_p_group,
    is_solvable,
    join,
    memo,
    normal_lattice,
    normal_mask,
    subgroup_generated,
)
from .cyclic import (
    _cyclic_labels,
    eta,
    eta_p,
    eta_preserving_normals,
    eta_star,
    g_minus,
    g_minus_via_powers,
    g_power_set,
    maximal_cyclic_classes,
    power_classes,
    quotient_eta,
    quotient_invariants,
    read_quotient,
    subgroup_invariants,
)
from .errors import (
    ClassificationFailed,
    GroupIsCyclic,
    HypothesisFailed,
    InternalCheckError,
    NotExponentP,
    NotFrobenius,
    NotPGroup,
    NotProper,
    NotSubgroup,
)
from .numutil import is_prime, p_part, prime_factors
from .perm import Permutation


def _prime_power(n: int) -> bool:
    return len(prime_factors(n)) <= 1


def all_prime_power_orders(G: Group) -> bool:
    """Whether every element order of G is a prime power (or 1)."""
    return all(map(_prime_power, element_orders(G).values()))


def is_noncyclic_p_group(G: Group) -> bool:
    """The hypothesis of X(G), the join law and the either-or law."""
    return is_p_group(G) is not None and not is_cyclic(G)


def is_exponent_p_group(G: Group) -> bool:
    """The hypothesis of the exponent bound: G is a p-group of exponent p
    and order at least p**2."""
    p = is_p_group(G)
    return p is not None and exponent(G) == p and G.order >= p * p


def is_nontrivial(G: Group) -> bool:
    """The hypothesis of the l relation."""
    return G.order > 1


def _require_noncyclic_p_group(G: Group, law: str) -> None:
    if not is_noncyclic_p_group(G):
        if is_p_group(G) is None:
            raise NotPGroup(f"{law} requires a noncyclic p-group; G is not a p-group")
        raise GroupIsCyclic(f"{law} requires a noncyclic p-group; G is cyclic")


def _inside(small: int, large: int) -> bool:
    """Whether the class set `small` lies in `large`, both class masks."""
    return not small & ~large


class _ClassPowers(NamedTuple):
    """G's classes as the laws on class masks read them: the order of each
    class, the mask of every class and of those whose order is not a prime
    power, and, for each class j, the mask of the classes with a
    prime-index power in class j (:func:`maxcyc.cyclic.power_classes`)."""

    orders: list[int]
    every: int
    composite: int
    roots: list[int]

    def prime_modulo(self, inside: int) -> int:
        """The classes whose cosets xN have order 1 or a prime, for N given
        by its class mask.  For x outside N, o(xN) divides o(x), so it is a
        prime q exactly when x**q lies in N, as it does for the whole
        class when it does for one member."""
        for j in _bits(inside):
            inside |= self.roots[j]
        return inside


@memo
def _class_powers(G: Group) -> _ClassPowers:
    orders = [element_orders(G)[c[0]] for c in conjugacy_classes(G)]
    roots = [0] * len(orders)
    for i, powers in enumerate(power_classes(G)):
        for j in powers.values():
            roots[j] |= 1 << i
    composite = sum(1 << i for i, n in enumerate(orders) if not _prime_power(n))
    return _ClassPowers(orders, (1 << len(orders)) - 1, composite, roots)


# ---------------------------------------------------------------------------
# Result types
# ---------------------------------------------------------------------------

class Check(NamedTuple):
    """One named sub-check with its expected and actual values."""

    name: str
    passed: bool
    expected: Any = True
    actual: Any = None


class PrimeOrderClass(NamedTuple):
    """Structure of a group all of whose nonidentity elements have prime order.

    kind is one of ``exponent_p``, ``frobenius_pq``, ``a5`` and
    ``not_all_prime_order``; p and q carry the primes where applicable.
    """

    kind: str
    p: int | None = None
    q: int | None = None


class GKGraph(NamedTuple):
    """Prime graph: vertices are primes dividing |G|, p-q an edge when some
    element order is divisible by p*q."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def component_count(self) -> int:
        parent = {v: v for v in self.vertices}

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in self.edges:
            parent[find(a)] = find(b)
        return len({find(v) for v in self.vertices})


class QuotCheckReport(NamedTuple):
    """All coset-condition data for one pair (G, N).

    ``equal`` must coincide with ``cond_a and cond_b and cond_c``; the
    suite layer asserts that biconditional.  The part-five fields are None
    unless eta is preserved and G^- is a union of N-cosets.
    """

    eta_g: int
    eta_q: int
    equal: bool
    cond_a: bool
    cond_b: bool
    cond_c: bool
    gminus_coset_union: bool
    strong_generator_condition: bool
    gminus_n_stable: bool | None
    quotient_gminus_matches: bool | None
    witnesses: dict[str, tuple[str, ...]]


# ---------------------------------------------------------------------------
# Quotient conditions
# ---------------------------------------------------------------------------

class _CycleStrings(dict):
    """Each element's cycle notation, formatted on its first read."""

    def __missing__(self, x: Permutation) -> str:
        self[x] = text = x.cycle_string()
        return text


@memo
def _cycle_strings(G: Group) -> dict[Permutation, str]:
    """The cycle notation of G's elements, each formatted at most once per
    group, for the witnesses of :func:`check_quot_conditions`."""
    return _CycleStrings()


@memo
def check_quot_conditions(G: Group, N: Group) -> QuotCheckReport:
    """Evaluate when eta survives the quotient by N.

    eta(G/N) = eta(G) holds exactly when (a) N lies in G^-, (b) the
    non-generators of the quotient are the cosets inside G^-, and (c) for
    every x outside G^-, each element of xN outside G^- is conjugate to a
    generator of <x>.  The strong condition asks (c) of every element of
    xN.

    Both are decided on the label of each element, the class of the
    cyclic subgroup it generates (:func:`maxcyc.cyclic._cyclic_labels`),
    since y is conjugate to a generator of <x> exactly when <y> is
    conjugate to <x>.  Maximality is a property of that class, so G^- is a
    union of labels, and one pass over the coset table collects the labels
    of each coset.  A coset lies inside G^- when its labels are labels of
    G^-, and meets G^- when some are; (c) holds when, in each coset, the
    labels outside G^- are at most one, and the strong condition when each
    coset that meets G \\ G^- has one label.  As G^- lies in G^-N, the two
    are equal when they have the same size.  The witnesses are the first
    three failing pairs ``x ~ y``, x in ``element_list`` order and y = x*n
    in ``N.element_list`` order; only the cosets that fail are walked, and
    each element is formatted once per group (:func:`_cycle_strings`).  The
    quotient's invariants are read on the same coset table.
    """
    inside = normal_mask(G, N)
    if N.order == G.order:
        raise NotProper(f"the quotient conditions require N proper in G; N is G (order {G.order})")

    gminus_set = g_minus(G)
    eta_g = eta(G).eta
    table = coset_table(G, N)
    quotient = read_quotient(G, table)
    quotient_invariants.record(G, N, result=quotient)
    eta_q = quotient.eta
    equal = eta_g == eta_q
    witnesses: dict[str, tuple[str, ...]] = {}

    text = _cycle_strings(G)
    cond_a = _inside(inside, class_mask(G, gminus_set))
    if not cond_a:
        witnesses["cond_a"] = tuple(text[x] for x in nsmallest(3, N.elements - gminus_set))

    label = _cyclic_labels(G)
    minus = {label[x] for x in gminus_set}  # the labels of G^-
    labels: list[set[int]] = [set() for _ in table.representatives]
    for x, i in table.point_of.items():
        labels[i].add(label[x])
    covered_points = {i for i, met in enumerate(labels) if met <= minus}  # inside G^-
    gminus_points = {i for i, met in enumerate(labels) if not met.isdisjoint(minus)}
    fail_c = {i for i, met in enumerate(labels) if len(met - minus) > 1}
    fail_strong = {i for i, met in enumerate(labels) if len(met) > 1 and i not in covered_points}

    quotient_gminus_points = quotient.g_minus
    cond_b = quotient_gminus_points == covered_points
    if not cond_b:
        diff = quotient_gminus_points ^ covered_points
        witnesses["cond_b"] = tuple(str(i) for i in sorted(diff)[:3])

    def mismatches(failing: set[int], outside_only: bool) -> Iterator[str]:
        """The pairs ``x ~ y``, x outside G^- in a failing coset and y = x*n
        of another label, and outside G^- too when outside_only."""
        point_of, times = table.point_of, base_index(G).times
        movers = [times(n) for n in N.element_list]  # x -> x*n
        for x in G.element_list:
            if x in gminus_set or point_of[x] not in failing:
                continue
            for move in movers:
                y = move(x)
                if label[y] != label[x] and not (outside_only and y in gminus_set):
                    yield f"{text[x]} ~ {text[y]}"

    # a failing coset has a failing pair for each of its x outside G^-
    if fail_c:
        witnesses["cond_c"] = tuple(islice(mismatches(fail_c, True), 3))
    if fail_strong:
        witnesses["strong"] = tuple(islice(mismatches(fail_strong, False), 3))

    coset_union = gminus_points <= covered_points

    gminus_n_stable: bool | None = None
    quotient_gminus_matches: bool | None = None
    if equal and coset_union:
        # G^-N, the union of the cosets that meet G^-, contains G^-
        gminus_n_stable = len(gminus_points) * N.order == len(gminus_set)
        quotient_gminus_matches = gminus_points == quotient_gminus_points

    return QuotCheckReport(
        eta_g=eta_g,
        eta_q=eta_q,
        equal=equal,
        cond_a=cond_a,
        cond_b=cond_b,
        cond_c=not fail_c,
        gminus_coset_union=coset_union,
        strong_generator_condition=not fail_strong,
        gminus_n_stable=gminus_n_stable,
        quotient_gminus_matches=quotient_gminus_matches,
        witnesses=witnesses,
    )


def quot_report_checks(G: Group, rep: QuotCheckReport) -> list[Check]:
    """Turn one QuotCheckReport into named sub-checks, including the
    biconditional, monotonicity and the p-group/coset-union refinements."""
    conds = rep.cond_a and rep.cond_b and rep.cond_c
    checks = [
        Check("monotone", rep.eta_q <= rep.eta_g, "eta(G/N) <= eta(G)", (rep.eta_q, rep.eta_g)),
        Check("biconditional", rep.equal == conds,
              "equal <=> (a and b and c)",
              {"equal": rep.equal, "a": rep.cond_a, "b": rep.cond_b,
               "c": rep.cond_c, "witnesses": rep.witnesses}),
        Check("union_biconditional",
              (rep.equal and rep.gminus_coset_union) == rep.strong_generator_condition,
              "(equal and union) <=> all of xN conjugate to generators",
              {"equal": rep.equal, "union": rep.gminus_coset_union,
               "strong": rep.strong_generator_condition}),
    ]
    if is_p_group(G):
        checks.append(Check("pgroup_union", (not rep.equal) or rep.gminus_coset_union,
                            "p-group: equal => G^- a union of N-cosets",
                            {"equal": rep.equal, "union": rep.gminus_coset_union}))
    if rep.gminus_n_stable is not None:
        checks.append(Check("gminusN", rep.gminus_n_stable, True, rep.gminus_n_stable))
        checks.append(Check("quotient_gminus", rep.quotient_gminus_matches, True,
                            rep.quotient_gminus_matches))
    return checks


# ---------------------------------------------------------------------------
# X(G)
# ---------------------------------------------------------------------------

@memo
def compute_X(G: Group) -> Group:
    """Largest normal subgroup X of a noncyclic p-group with eta(G/X) = eta(G).

    X is the :func:`maxcyc.core.join` of every normal M with eta(G/M) =
    eta(G), so its quotient is the one already built for the scan; the
    function re-checks that X qualifies and contains each qualifying M.
    """
    _require_noncyclic_p_group(G, "X(G)")
    target = eta(G).eta
    qualifying = eta_preserving_normals(G)
    X = join(G, qualifying)
    if quotient_eta(G, X) != target:
        raise InternalCheckError("join of eta-preserving normals does not preserve eta")
    x = normal_mask(G, X)
    if not all(_inside(normal_mask(G, M), x) for M in qualifying):
        raise InternalCheckError("a qualifying normal subgroup escapes the join")
    return X


def check_xsub(G: Group) -> list[Check]:
    """X(G) preserves eta, and a normal M preserves eta exactly when it lies
    in X(G); a failed cross-check of :func:`compute_X` is a failed check."""
    try:
        X = compute_X(G)
    except InternalCheckError as exc:
        return [Check("compute_X", False, "well-defined join", str(exc))]
    target = eta(G).eta
    preserving = eta_preserving_normals(G)
    x = normal_mask(G, X)
    scan_ok = all((M in preserving) == _inside(m, x) for M, m in normal_lattice(G).mask.items())
    e_x = quotient_eta(G, X)
    return [
        Check("eta_preserved", e_x == target, target, e_x),
        Check("maximality_scan", scan_ok, "M qualifies <=> M <= X", scan_ok),
    ]


def x_cyclic(G: Group) -> bool:
    """Whether X(G) is cyclic."""
    return is_cyclic(compute_X(G))


# ---------------------------------------------------------------------------
# Classification of all-prime-order groups
# ---------------------------------------------------------------------------

def classify_prime_order_group(G: Group, N: Group) -> PrimeOrderClass:
    """Structural class of G/N, for N normal in G, read off G's classes.

    Returns ``not_all_prime_order`` when some coset order is composite.
    Otherwise G/N is an exponent-p p-group, a Frobenius group with
    exponent-p kernel and complement of prime order q, or the simple group
    of order 60 (whose normals are the images of the normals of G that
    contain N), verified on class masks (:meth:`_ClassPowers.prime_modulo`):
    the cosets of order p are those of the classes with a p-th power in N.
    A kernel K/N of prime index q is Frobenius, as an element of order q
    that commuted with one of order p would make one of order pq.  The
    trivial group counts, vacuously, as a 2-group of exponent 2.
    """
    inside, powers = normal_mask(G, N), _class_powers(G)
    index = G.order // N.order
    primes = prime_factors(index)
    if powers.prime_modulo(inside) != powers.every:
        return PrimeOrderClass("not_all_prime_order")
    if len(primes) <= 1:
        return PrimeOrderClass("exponent_p", p=primes[0] if primes else 2)
    lattice = normal_lattice(G)
    if index == 60 and sum(_inside(inside, m) for m in lattice.member) == 2:
        return PrimeOrderClass("a5")
    power_of = power_classes(G)
    for kernel_p, comp_q in (primes, primes[::-1]) if len(primes) == 2 else ():
        # the kernel: N and the classes with a p-th power in N (a class whose
        # order p does not divide looks itself up), a normal subgroup, and so
        # a lattice member, exactly when it is closed
        kernel = sum(1 << i for i, row in enumerate(power_of) if inside >> row.get(kernel_p, i) & 1)
        K = lattice.member.get(inside | kernel)
        if p_part(index, comp_q) == comp_q and K is not None and K.order * comp_q == G.order:
            return PrimeOrderClass("frobenius_pq", p=kernel_p, q=comp_q)
    raise ClassificationFailed(
        f"group of order {index} with all prime element orders matches no "
        "expected structure"
    )


def check_first_main(G: Group) -> list[Check]:
    """If <G^-> is proper, the quotient by it must be an exponent-p group,
    a Frobenius group with prime-order complement, or the simple group of
    order 60.  The quotient is classified on G's classes by
    :func:`classify_prime_order_group` and never realized as a group."""
    H = subgroup_generated(G, g_minus(G))
    normal = is_normal(G, H)
    checks = [Check("gminus_closure_normal", normal, True, normal)]
    if H.order == G.order:
        checks.append(Check("vacuous (<G^-> = G)", True, "skip", "skip"))
        return checks
    try:
        cls = classify_prime_order_group(G, H)
        checks.append(Check("quotient_class", cls.kind != "not_all_prime_order",
                            "exponent_p | frobenius_pq | a5", cls.kind))
    except ClassificationFailed as exc:
        checks.append(Check("quotient_class", False, "a known class", str(exc)))
    return checks


# ---------------------------------------------------------------------------
# G^- as a set
# ---------------------------------------------------------------------------

def check_pgrp_lemma(G: Group) -> list[Check]:
    """G^- is the set of powers g**q, q a prime dividing o(g); in a p-group
    it is the set of p-th powers G^{p}.  Each actual value is the size of
    the symmetric difference."""
    gm = g_minus(G)
    gm_pow = g_minus_via_powers(G)
    checks = [Check("gminus_equals_power_set", gm == gm_pow,
                    "G^- == {g^q : q | o(g)}", len(gm ^ gm_pow))]
    p = is_p_group(G)
    if p is not None:
        pw = g_power_set(G, p)
        checks.append(Check("pgroup_gminus_is_pth_powers", gm == pw,
                            f"G^- == G^{{{p}}}", len(gm ^ pw)))
    return checks


def check_gminus_containment(G: Group, N: Group) -> list[Check]:
    """G^- lies in N exactly when everything outside N has prime power
    order and the quotient has prime element orders; plus the prime-index
    and exponent-p refinements, all read on class masks, the quotient
    orders by :meth:`_ClassPowers.prime_modulo`, with no coset table."""
    inside, powers = normal_mask(G, N), _class_powers(G)
    outside = powers.every & ~inside
    contained = _inside(class_mask(G, g_minus(G)), inside)
    outside_ppo = not outside & powers.composite
    q_prime = powers.prime_modulo(inside) == powers.every
    checks = [
        Check("part1", contained == (outside_ppo and q_prime),
              "G^- in N <=> (prime-power outside, prime orders in G/N)",
              {"contained": contained, "outside_ppo": outside_ppo, "q_prime": q_prime}),
    ]
    index = G.order // N.order
    if is_prime(index):
        outside_p_power = all(p_part(powers.orders[i], index) == powers.orders[i]
                              for i in _bits(outside))
        checks.append(Check("part2", contained == outside_p_power,
                            "index p: G^- in M <=> p-power orders outside M",
                            {"contained": contained, "outside_p_power": outside_p_power}))
    # in a p-group each coset order is a power of p, so G/N has exponent 1
    # or p exactly when each is 1 or prime
    if is_p_group(G) is not None and q_prime:
        checks.append(Check("part3", contained, "p-group with exponent-p quotient: G^- in N",
                            contained))
    return checks


def check_gminus_subgroup_lemma(G: Group) -> list[Check]:
    """When G^- is closed under the product, every element order must be a
    prime power; vacuous when G^- is not a subgroup.  G^- is a union of
    classes, so it is closed exactly when its class mask is a lattice
    member."""
    closed = class_mask(G, g_minus(G)) in normal_lattice(G).member
    checks = [Check("gminus_is_subgroup", True, None, closed)]
    if closed:
        all_ppo = all_prime_power_orders(G)
        checks.append(Check("all_prime_power_orders", all_ppo, True, all_ppo))
    else:
        checks.append(Check("vacuous (G^- not a subgroup)", True, "skip", "skip"))
    return checks


@memo
def gk_graph(G: Group) -> GKGraph:
    """Prime graph of G: p-q is an edge when some element order is
    divisible by pq.  Each distinct element order is factored once."""
    vertices = tuple(prime_factors(G.order))
    edges: set[tuple[int, int]] = set()
    for n in set(element_orders(G).values()):
        ps = prime_factors(n)
        for i, a in enumerate(ps):
            for b in ps[i + 1:]:
                edges.add((a, b))
    return GKGraph(vertices, tuple(sorted(edges)))


def check_gk_graph(G: Group) -> list[Check]:
    """The prime graph has no edge exactly when every element order is a
    prime power; then a solvable G with two primes has two components."""
    graph = gk_graph(G)
    all_ppo = all_prime_power_orders(G)
    checks = [
        Check("no_edges_iff_prime_power_orders",
              (not graph.edges) == all_ppo,
              "empty graph <=> all prime power orders",
              {"edges": graph.edges, "all_ppo": all_ppo}),
    ]
    if all_ppo and len(graph.vertices) == 2 and is_solvable(G):
        checks.append(Check("solvable_two_primes_two_components",
                            graph.component_count() == 2, 2,
                            graph.component_count()))
    return checks


def check_l_relation(G: Group) -> list[Check]:
    """eta(G) = l(G) - 1 exactly when every nonidentity element has prime
    order."""
    if not is_nontrivial(G):
        raise HypothesisFailed("the l relation requires a nontrivial group")
    rep = eta(G)
    lhs = rep.eta == rep.l_value - 1
    rhs = all(is_prime(n) for n in element_orders(G).values() if n > 1)
    return [
        Check("eta_le_l_minus_1", rep.eta <= rep.l_value - 1,
              "eta <= l - 1", (rep.eta, rep.l_value)),
        Check("biconditional", lhs == rhs,
              "eta = l - 1 <=> all prime element orders",
              {"eta": rep.eta, "l": rep.l_value, "all_prime": rhs}),
    ]


# ---------------------------------------------------------------------------
# Products and Frobenius groups
# ---------------------------------------------------------------------------

def check_dirproduct_laws(G: Group, H: Group, K: Group) -> list[Check]:
    """The five direct-product laws for G = H x K, each evaluated when
    applicable."""
    e_h, e_k, e_g = eta(H).eta, eta(K).eta, eta(G).eta
    checks = [Check("i.product_lower_bound", e_g >= e_h * e_k, f"eta >= {e_h}*{e_k}", e_g)]
    if math.gcd(H.order, K.order) == 1:
        checks.append(Check("ii.coprime_equality", e_g == e_h * e_k, e_h * e_k, e_g))
    for name, A, B, e_a, e_b in (("H", H, K, e_h, e_k), ("K", K, H, e_k, e_h)):
        p = is_p_group(A)
        if p is not None and B.order % p == 0:
            bound = e_a * e_b + eta_p(B, p)
            checks.append(Check(f"iii.pgroup_{name}", e_g >= bound and e_g > e_a * e_b,
                                f"eta >= {bound} > {e_a * e_b}", e_g))
    shared = [p for p in prime_factors(H.order) if K.order % p == 0]
    for name, A, B, e_b in (("H", H, K, e_k), ("K", K, H, e_h)):
        if A.order > 1 and shared and is_nilpotent(A):
            checks.append(Check(f"iv.nilpotent_{name}", e_g > e_b, f"eta > {e_b}", e_g))
    p_h, p_k = is_p_group(H), is_p_group(K)
    if p_h is not None and p_h == p_k:
        bound = e_h * e_k + e_h + e_k
        checks.append(Check("v.same_prime_pgroups", e_g >= bound, f"eta >= {bound}", e_g))
    return checks


def verify_frobenius(G: Group, N: Group, H: Group) -> None:
    """Raise NotFrobenius unless G = NH with N normal, trivial N∩H,
    distinct conjugates of H meeting trivially, and 1 < |H| < |G|.  For
    g = nh outside H, gHg^-1 = nHn^-1, so one conjugate per coset nH
    decides; the witness is the first g of ``G.element_list`` in a failing
    coset.  A trivial factor is rejected last, so it changes no other
    rejection."""
    try:
        normal = is_normal(G, N)
    except NotSubgroup as exc:
        raise NotFrobenius(f"kernel is not a subgroup of G: {exc}") from exc
    if not normal:
        raise NotFrobenius("kernel is not normal")
    if not H.elements <= G.elements:
        raise NotFrobenius("complement is not a subgroup of G")
    if len(N.elements & H.elements) != 1:
        raise NotFrobenius("kernel and complement intersect nontrivially")
    if N.order * H.order != G.order:
        raise NotFrobenius("|N| * |H| != |G|")
    base = base_index(G)
    failing = []
    for n in N.element_list[1:]:  # element_list starts at the identity
        conjugate = base.conjugator(n)
        if sum(conjugate(h) in H.elements for h in H.element_list) > 1:
            failing.append(n)
    if failing:
        marked = {move(n) for move in map(base.times, H.element_list) for n in failing}
        g = next(g for g in G.element_list if g in marked)
        raise NotFrobenius(f"H meets its conjugate by {g.cycle_string()} nontrivially")
    if not 1 < H.order < G.order:
        raise NotFrobenius(f"complement of order {H.order} is not a proper nontrivial subgroup")


def check_frobenius_eta(G: Group, N: Group, H: Group) -> list[Check]:
    """eta of a Frobenius group is eta*(kernel) + eta(complement)."""
    verify_frobenius(G, N, H)
    e_star, e_h, e_g = eta_star(G, N), eta(H).eta, eta(G).eta
    return [Check("frobenius_sum", e_g == e_star + e_h, f"eta(G) == {e_star} + {e_h}", e_g)]


def check_centre_bounds(G: Group, N: Group) -> list[Check]:
    """eta(G) >= eta*(N); the central and index-k refinements.  eta(N) and
    eta*(N) are read off G's own index by
    :func:`maxcyc.cyclic.subgroup_invariants`."""
    inside = normal_mask(G, N)
    e_g = eta(G).eta
    e_star = eta_star(G, N)
    checks = [Check("star_bound", e_g >= e_star, f"eta(G) >= {e_star}", e_g)]
    e_n = subgroup_invariants(G, N).eta
    if _inside(inside, normal_mask(G, center(G))):
        checks.append(Check("central_case", e_g >= e_n, f"eta(G) >= {e_n}", e_g))
    k = G.order // N.order
    checks.append(Check("index_k_case", k * e_g >= e_n, f"{k}*eta(G) >= {e_n}", k * e_g))
    return checks


# ---------------------------------------------------------------------------
# Derived subgroup, exponent bound, dichotomy, joins
# ---------------------------------------------------------------------------

def _derived_mask(G: Group) -> int:
    return normal_mask(G, derived_subgroup(G))


def noncyclic_sylows_of_abelianization(G: Group) -> bool:
    """Whether every nontrivial Sylow subgroup of G/G' is noncyclic, read on
    the quotient by G' as its lattice member, which the quot suite has read."""
    D = normal_lattice(G).member[_derived_mask(G)]
    orders = quotient_invariants(G, D).orders
    # a Sylow p-subgroup of the abelian G/G' is cyclic when some element's
    # order is its whole order
    return not any(p_part(len(orders), p) in orders for p in prime_factors(len(orders)))


def in_derived(G: Group, N: Group) -> bool:
    """Whether the normal subgroup N lies in G'."""
    return _inside(normal_mask(G, N), _derived_mask(G))


def check_derived_criterion(G: Group, N: Group) -> list[Check]:
    """When eta survives G -> G/N and no Sylow subgroup of G/G' is cyclic,
    N must lie inside the derived subgroup."""
    normal_mask(G, N)  # the guard: N is normal in G
    e_g = eta(G).eta
    e_q = quotient_eta(G, N)
    if e_q != e_g:
        return [Check("vacuous (eta not preserved)", True, "skip",
                      {"eta_g": e_g, "eta_q": e_q})]
    hyp = noncyclic_sylows_of_abelianization(G)
    inside = in_derived(G, N)
    checks = [Check("hypothesis_noncyclic_sylows", True, None, hyp)]
    if hyp:
        checks.append(Check("N_inside_derived", inside, True, inside))
    else:
        checks.append(Check("vacuous (some Sylow of G/G' cyclic)", True, "skip",
                            {"N_inside_derived": inside}))
    return checks


def check_exp_bound(G: Group) -> list[Check]:
    """eta >= n + p - 1 for an exponent-p group of order p**n, n >= 2."""
    if not is_exponent_p_group(G):
        raise NotExponentP("the exponent bound requires a p-group of exponent p and order >= p**2")
    p = exponent(G)  # the prime of the p-group
    n = round(math.log(G.order, p))
    e_g = eta(G).eta
    bound = n + p - 1
    return [Check("growth_bound", e_g >= bound, f"eta >= {bound}", e_g)]


def check_eitheror(G: Group, N: Group, M: Group) -> list[Check]:
    """For a noncyclic p-group with eta(G/N) = eta(G) and N nontrivial:
    every normal M satisfies N <= M or M <= G^-; a normal maximal cyclic
    subgroup, when present, must contain N."""
    _require_noncyclic_p_group(G, "the either-or law")
    n, m = normal_mask(G, N), normal_mask(G, M)
    if N.order == 1:
        raise HypothesisFailed("N must be nontrivial")
    if quotient_eta(G, N) != eta(G).eta:
        raise HypothesisFailed("eta(G/N) != eta(G)")
    n_in_m, m_in_gminus = _inside(n, m), _inside(m, class_mask(G, g_minus(G)))
    checks = [
        Check("dichotomy", n_in_m or m_in_gminus, "N <= M or M <= G^-",
              {"N_in_M": n_in_m, "M_in_gminus": m_in_gminus})
    ]
    # a maximal cyclic subgroup is normal exactly when it is its own class
    for cls in maximal_cyclic_classes(G):
        if len(cls) == 1:
            inside = N.elements <= cls[0].elements
            checks.append(
                Check(f"normal_maximal_cyclic_order_{cls[0].order}_contains_N", inside, True, inside)
            )
    return checks


def check_quotient_join(G: Group, N: Group, M: Group) -> list[Check]:
    """For a noncyclic p-group, two eta-preserving normal subgroups have an
    eta-preserving join.  The join is taken first: it guards N and M."""
    _require_noncyclic_p_group(G, "the join law")
    joined = join(G, (N, M))
    e_g = eta(G).eta
    if quotient_eta(G, N) != e_g or quotient_eta(G, M) != e_g:
        raise HypothesisFailed("eta(G/N) = eta(G/M) = eta(G) required")
    e_join = quotient_eta(G, joined)
    return [Check("join_preserves_eta", e_join == e_g, e_g, e_join)]
