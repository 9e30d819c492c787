"""Group families as explicit permutation groups, and the group-spec DSL.

Grammar (whitespace-insensitive, ``x`` is the left-associative direct
product operator)::

    expr  := atom ('x' atom)*
    atom  := C(n) | D(n) | S(n) | A(n) | EA(p,k) | Heis(p) | Q(n) | W(p)
           | AGL1(q,d) | Dic12 | SG72_50 | M16
           | Perm(degree; gen, gen, ...)      gen := cycle+   cycle := (p p ...)

Parse errors carry byte offsets; parameter violations raise ArityError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .core import (
    DEFAULT_DEGREE_CAP,
    DEFAULT_ORDER_CAP,
    Group,
    enumerate_elements,
    normal_subgroups,
)
from .errors import ArityError, CapExceeded, InternalCheckError, NoSuchNormal, ParseError
from .numutil import is_prime, multiplicative_order, prime_power_base
from .perm import Permutation


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cyclic:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ArityError(f"C({self.n}): order must be >= 1")

    def render(self) -> str:
        return f"C({self.n})"


@dataclass(frozen=True)
class Dihedral:
    """Dihedral group given by its total order (even).

    Orders 2 and 4 denote the degenerate dihedral groups C2 and C2 x C2.
    """

    n: int

    def __post_init__(self):
        if self.n < 2 or self.n % 2:
            raise ArityError(f"D({self.n}): total order must be even and >= 2")

    def render(self) -> str:
        return f"D({self.n})"


@dataclass(frozen=True)
class Symmetric:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ArityError(f"S({self.n}): degree must be >= 1")

    def render(self) -> str:
        return f"S({self.n})"


@dataclass(frozen=True)
class Alternating:
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ArityError(f"A({self.n}): degree must be >= 3")

    def render(self) -> str:
        return f"A({self.n})"


@dataclass(frozen=True)
class ElemAbelian:
    p: int
    k: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ArityError(f"EA({self.p},{self.k}): p must be prime")
        if self.k < 1:
            raise ArityError(f"EA({self.p},{self.k}): rank must be >= 1")

    def render(self) -> str:
        return f"EA({self.p},{self.k})"


@dataclass(frozen=True)
class Heisenberg:
    """Extraspecial group of order p**3 and exponent p, p an odd prime."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p) or self.p == 2:
            raise ArityError(f"Heis({self.p}): p must be an odd prime")

    def render(self) -> str:
        return f"Heis({self.p})"


@dataclass(frozen=True)
class GeneralizedQuaternion:
    n: int

    def __post_init__(self):
        if self.n < 8 or self.n & (self.n - 1):
            raise ArityError(f"Q({self.n}): total order must be a power of 2, >= 8")

    def render(self) -> str:
        return f"Q({self.n})"


@dataclass(frozen=True)
class WreathCpCp:
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ArityError(f"W({self.p}): p must be prime")

    def render(self) -> str:
        return f"W({self.p})"


@dataclass(frozen=True)
class FrobeniusAGL1:
    """Affine maps x -> a*x + b on Z/q, a in the order-d unit subgroup.

    q is a prime power at most 128; for q = p**k the multiplier order d
    must divide p - 1, which makes the nontrivial multipliers fixed-point
    free and the construction a Frobenius group of order q*d.  Non-prime q
    is read as the modular ring Z/q (kernel cyclic of order q).
    """

    q: int
    d: int

    def __post_init__(self):
        p = prime_power_base(self.q)
        if self.q < 2 or p is None:
            raise ArityError(f"AGL1({self.q},{self.d}): q must be a prime power >= 2")
        if self.q > 128:
            raise ArityError(f"AGL1({self.q},{self.d}): q must be <= 128")
        if self.d < 1 or (p - 1) % self.d:
            raise ArityError(
                f"AGL1({self.q},{self.d}): d must divide {p - 1} (base prime {p} minus 1)"
            )

    def render(self) -> str:
        return f"AGL1({self.q},{self.d})"


@dataclass(frozen=True)
class Dicyclic12:
    """Z3 : Z4 with Z4 inverting Z3, acting faithfully on 7 points."""

    def render(self) -> str:
        return "Dic12"


@dataclass(frozen=True)
class SG7250:
    """Translations of F3^2 extended by a dihedral-of-order-8 group of its
    linear maps; order 72, degree 9."""

    def render(self) -> str:
        return "SG72_50"


@dataclass(frozen=True)
class ModularM16:
    """Modular group of order 16: normal C8 with a square-fixing outer
    generator (x -> 5x on Z/8)."""

    def render(self) -> str:
        return "M16"


@dataclass(frozen=True)
class ExplicitPerms:
    degree: int
    gens: tuple[tuple[tuple[int, ...], ...], ...]  # generator -> cycles -> points

    def __post_init__(self):
        if self.degree < 1:
            raise ArityError(f"Perm({self.degree};...): degree must be >= 1")
        for gen in self.gens:
            for cycle in gen:
                for v in cycle:
                    if not 0 <= v < self.degree:
                        raise ArityError(
                            f"Perm: point {v} out of range for degree {self.degree}"
                        )
                if len(set(cycle)) != len(cycle):
                    raise ArityError(f"Perm: repeated point in cycle {cycle}")

    def render(self) -> str:
        def one(gen: tuple[tuple[int, ...], ...]) -> str:
            return "".join("(" + " ".join(str(v) for v in c) + ")" for c in gen) or "()"

        return f"Perm({self.degree}; " + ", ".join(one(g) for g in self.gens) + ")"


@dataclass(frozen=True)
class DirectProductSpec:
    left: "GroupSpec"
    right: "GroupSpec"

    def render(self) -> str:
        return f"{self.left.render()} x {self.right.render()}"


GroupSpec = Union[
    Cyclic,
    Dihedral,
    Symmetric,
    Alternating,
    ElemAbelian,
    Heisenberg,
    GeneralizedQuaternion,
    WreathCpCp,
    FrobeniusAGL1,
    Dicyclic12,
    SG7250,
    ModularM16,
    ExplicitPerms,
    DirectProductSpec,
]


def render(spec: GroupSpec) -> str:
    """Canonical text of a spec; parse(render(s)) == s."""
    return spec.render()


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser
# ---------------------------------------------------------------------------

_KEYWORDS = ("SG72_50", "Dic12", "AGL1", "Heis", "Perm", "M16", "EA", "C", "D", "S", "A", "Q", "W")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'name' | 'int' | '(' | ')' | ',' | ';' | 'x' | 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch in "(),;":
            toks.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch == "x":
            toks.append(_Token("x", "x", i))
            i += 1
            continue
        for kw in _KEYWORDS:
            if text.startswith(kw, i):
                toks.append(_Token("name", kw, i))
                i += len(kw)
                break
        else:
            raise ParseError(i, ("family name", "'x'", "digit", "punctuation"), ch)
    toks.append(_Token("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self, kind: str) -> _Token:
        tok = self.toks[self.i]
        if tok.kind != kind:
            raise ParseError(tok.pos, (kind,), tok.text or "end of input")
        self.i += 1
        return tok

    def expr(self) -> GroupSpec:
        node = self.atom()
        while self.peek().kind == "x":
            self.take("x")
            node = DirectProductSpec(node, self.atom())
        return node

    def atom(self) -> GroupSpec:
        tok = self.take("name") if self.peek().kind == "name" else None
        if tok is None:
            bad = self.peek()
            raise ParseError(bad.pos, ("family name",), bad.text or "end of input")
        name = tok.text
        if name == "Dic12":
            return Dicyclic12()
        if name == "SG72_50":
            return SG7250()
        if name == "M16":
            return ModularM16()
        if name == "Perm":
            return self.perm_atom()
        args = self.int_args()
        try:
            if name == "C":
                return Cyclic(self.one(args, name))
            if name == "D":
                return Dihedral(self.one(args, name))
            if name == "S":
                return Symmetric(self.one(args, name))
            if name == "A":
                return Alternating(self.one(args, name))
            if name == "Q":
                return GeneralizedQuaternion(self.one(args, name))
            if name == "W":
                return WreathCpCp(self.one(args, name))
            if name == "EA":
                return ElemAbelian(*self.two(args, name))
            if name == "Heis":
                return Heisenberg(self.one(args, name))
            if name == "AGL1":
                return FrobeniusAGL1(*self.two(args, name))
        except TypeError:
            raise ArityError(f"{name}: wrong number of parameters {args}") from None
        raise ParseError(tok.pos, ("known family",), name)

    @staticmethod
    def one(args: tuple[int, ...], name: str) -> int:
        if len(args) != 1:
            raise ArityError(f"{name} takes 1 parameter, got {len(args)}")
        return args[0]

    @staticmethod
    def two(args: tuple[int, ...], name: str) -> tuple[int, int]:
        if len(args) != 2:
            raise ArityError(f"{name} takes 2 parameters, got {len(args)}")
        return args[0], args[1]

    def int_args(self) -> tuple[int, ...]:
        self.take("(")
        out = [int(self.take("int").text)]
        while self.peek().kind == ",":
            self.take(",")
            out.append(int(self.take("int").text))
        self.take(")")
        return tuple(out)

    def perm_atom(self) -> ExplicitPerms:
        self.take("(")
        degree = int(self.take("int").text)
        self.take(";")
        gens = [self.perm_gen()]
        while self.peek().kind == ",":
            self.take(",")
            gens.append(self.perm_gen())
        self.take(")")
        return ExplicitPerms(degree, tuple(gens))

    def perm_gen(self) -> tuple[tuple[int, ...], ...]:
        cycles = [self.cycle()]
        while self.peek().kind == "(":
            cycles.append(self.cycle())
        return tuple(cycles)

    def cycle(self) -> tuple[int, ...]:
        self.take("(")
        points: list[int] = []
        while self.peek().kind == "int":
            points.append(int(self.take("int").text))
        self.take(")")
        return tuple(points)


def parse_spec(text: str) -> GroupSpec:
    """Parse group-spec text into its AST, or raise ParseError/ArityError."""
    parser = _Parser(text)
    node = parser.expr()
    end = parser.peek()
    if end.kind != "end":
        raise ParseError(end.pos, ("'x'", "end of input"), end.text)
    return node


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------

def direct_product(
    H: Group,
    K: Group,
    *,
    order_cap: int = DEFAULT_ORDER_CAP,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> Group:
    """H x K acting on the disjoint union of the two point sets."""
    if H.order * K.order > order_cap:
        raise CapExceeded(f"product order {H.order * K.order} exceeds cap {order_cap}")
    degree = H.degree + K.degree
    gens = [
        Permutation(g.images + tuple(range(H.degree, degree))) for g in H.generators
    ] + [
        Permutation(tuple(range(H.degree)) + tuple(v + H.degree for v in g.images))
        for g in K.generators
    ]
    G = enumerate_elements(degree, gens, order_cap=order_cap, degree_cap=degree_cap)
    if G.order != H.order * K.order:
        raise InternalCheckError("direct product order mismatch")
    return G


def _cycle(degree: int, points: list[int]) -> Permutation:
    return Permutation.from_cycles(degree, [points])


def _affine_group(modulus: int, mult: int, order_cap: int, degree_cap: int) -> Group:
    shift = Permutation(tuple((x + 1) % modulus for x in range(modulus)))
    scale = Permutation(tuple(x * mult % modulus for x in range(modulus)))
    return enumerate_elements(
        modulus, [shift, scale], order_cap=order_cap, degree_cap=degree_cap
    )


def _atom_degree(spec: GroupSpec) -> int:
    """The degree of the group :func:`realize` builds for an atom, read off
    the spec alone, so the degree cap holds before any generator exists."""
    if isinstance(spec, Cyclic):
        return max(spec.n, 1)
    if isinstance(spec, Dihedral):
        m = spec.n // 2
        return {1: 2, 2: 4}.get(m, m)
    if isinstance(spec, (Symmetric, Alternating, GeneralizedQuaternion)):
        return spec.n
    if isinstance(spec, ElemAbelian):
        return spec.p * spec.k
    if isinstance(spec, (Heisenberg, WreathCpCp)):
        return spec.p * spec.p
    if isinstance(spec, FrobeniusAGL1):
        return spec.q
    if isinstance(spec, ExplicitPerms):
        return spec.degree
    fixed = {Dicyclic12: 7, SG7250: 9, ModularM16: 8}
    if type(spec) not in fixed:
        raise TypeError(f"unknown spec node {spec!r}")
    return fixed[type(spec)]


def realize(
    spec: GroupSpec,
    *,
    order_cap: int = DEFAULT_ORDER_CAP,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> Group:
    """Build the faithful permutation group a spec names.  An atom whose
    degree exceeds degree_cap raises CapExceeded before it is built."""
    if not isinstance(spec, DirectProductSpec) and (degree := _atom_degree(spec)) > degree_cap:
        raise CapExceeded(f"degree {degree} exceeds degree cap {degree_cap}")

    if isinstance(spec, Cyclic):
        n = spec.n
        gens = [] if n == 1 else [_cycle(n, list(range(n)))]
        return enumerate_elements(max(n, 1), gens, order_cap=order_cap, degree_cap=degree_cap)

    if isinstance(spec, Dihedral):
        m = spec.n // 2
        if m == 1:
            gens = [_cycle(2, [0, 1])]
            return enumerate_elements(2, gens, order_cap=order_cap, degree_cap=degree_cap)
        if m == 2:
            gens = [Permutation((1, 0, 2, 3)), Permutation((0, 1, 3, 2))]
            return enumerate_elements(4, gens, order_cap=order_cap, degree_cap=degree_cap)
        rot = _cycle(m, list(range(m)))
        ref = Permutation(tuple((-x) % m for x in range(m)))
        return enumerate_elements(m, [rot, ref], order_cap=order_cap, degree_cap=degree_cap)

    if isinstance(spec, Symmetric):
        n = spec.n
        if n == 1:
            return enumerate_elements(1, [], order_cap=order_cap, degree_cap=degree_cap)
        gens = [_cycle(n, [0, 1])]
        if n > 2:
            gens.append(_cycle(n, list(range(n))))
        return enumerate_elements(n, gens, order_cap=order_cap, degree_cap=degree_cap)

    if isinstance(spec, Alternating):
        n = spec.n
        gens = [_cycle(n, [0, 1, 2])]
        if n > 3:
            if n % 2:
                gens.append(_cycle(n, list(range(n))))
            else:
                gens.append(_cycle(n, list(range(1, n))))
        return enumerate_elements(n, gens, order_cap=order_cap, degree_cap=degree_cap)

    if isinstance(spec, ElemAbelian):
        p, k = spec.p, spec.k
        degree = p * k
        gens = [_cycle(degree, list(range(i * p, (i + 1) * p))) for i in range(k)]
        return enumerate_elements(degree, gens, order_cap=order_cap, degree_cap=degree_cap)

    if isinstance(spec, Heisenberg):
        # Maps (x, y) -> (x + a*y + c, y + b) on F_p^2, point index x*p + y.
        p = spec.p
        degree = p * p

        def pt(x: int, y: int) -> int:
            return (x % p) * p + (y % p)

        shear = Permutation(tuple(pt(x + y, y) for x in range(p) for y in range(p)))
        lift = Permutation(tuple(pt(x, y + 1) for x in range(p) for y in range(p)))
        return enumerate_elements(degree, [shear, lift], order_cap=order_cap, degree_cap=degree_cap)

    if isinstance(spec, GeneralizedQuaternion):
        # Regular action on pairs (i, j): a^i b^j with a of order n/2 and
        # b a b^-1 = a^-1, b^2 = a^(n/4).
        n = spec.n
        m = n // 2

        def idx(i: int, j: int) -> int:
            return (i % m) + (j % 2) * m

        a_imgs = [0] * n
        b_imgs = [0] * n
        for i in range(m):
            for j in range(2):
                a_imgs[idx(i, j)] = idx(i + 1, j)
                if j == 0:
                    b_imgs[idx(i, j)] = idx(-i, 1)
                else:
                    b_imgs[idx(i, j)] = idx(-i + m // 2, 0)
        return enumerate_elements(
            n, [Permutation(a_imgs), Permutation(b_imgs)],
            order_cap=order_cap, degree_cap=degree_cap,
        )

    if isinstance(spec, WreathCpCp):
        # Imprimitive action on p blocks of p points; base cycle on block 0
        # plus the block shift generate the full wreath product.
        p = spec.p
        degree = p * p
        base = _cycle(degree, list(range(p)))
        shift = Permutation(tuple((x + p) % degree for x in range(degree)))
        return enumerate_elements(degree, [base, shift], order_cap=order_cap, degree_cap=degree_cap)

    if isinstance(spec, FrobeniusAGL1):
        q, d = spec.q, spec.d
        mult = 1
        for a in range(2, q):
            if math.gcd(a, q) == 1 and multiplicative_order(a, q) == d:
                mult = a
                break
        else:
            if d != 1:
                raise ArityError(f"AGL1({q},{d}): no unit of order {d} modulo {q}")
        return _affine_group(q, mult, order_cap, degree_cap)

    if isinstance(spec, Dicyclic12):
        a = _cycle(7, [0, 1, 2])
        b = Permutation.from_cycles(7, [[1, 2], [3, 4, 5, 6]])
        return enumerate_elements(7, [a, b], order_cap=order_cap, degree_cap=degree_cap)

    if isinstance(spec, SG7250):
        # Points (x, y) in F3^2, index 3x + y; translations plus the
        # dihedral group generated by the 90-degree rotation and a
        # reflection inside GL(2, 3).
        def pt(x: int, y: int) -> int:
            return (x % 3) * 3 + (y % 3)

        grid = [(x, y) for x in range(3) for y in range(3)]
        t1 = Permutation(tuple(pt(x + 1, y) for x, y in grid))
        t2 = Permutation(tuple(pt(x, y + 1) for x, y in grid))
        rot = Permutation(tuple(pt(-y, x) for x, y in grid))
        ref = Permutation(tuple(pt(x, -y) for x, y in grid))
        return enumerate_elements(9, [t1, t2, rot, ref], order_cap=order_cap, degree_cap=degree_cap)

    if isinstance(spec, ModularM16):
        a = _cycle(8, list(range(8)))
        b = Permutation(tuple(5 * x % 8 for x in range(8)))
        return enumerate_elements(8, [a, b], order_cap=order_cap, degree_cap=degree_cap)

    if isinstance(spec, ExplicitPerms):
        gens = [
            Permutation.from_cycles(spec.degree, list(gen)) for gen in spec.gens
        ]
        return enumerate_elements(spec.degree, gens, order_cap=order_cap, degree_cap=degree_cap)

    # a direct product: every atom has returned, and _atom_degree rejected
    # any other node
    H = realize(spec.left, order_cap=order_cap, degree_cap=degree_cap)
    K = realize(spec.right, order_cap=order_cap, degree_cap=degree_cap)
    return direct_product(H, K, order_cap=order_cap, degree_cap=degree_cap)


def realize_text(
    text: str,
    *,
    order_cap: int = DEFAULT_ORDER_CAP,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> Group:
    """Parse and realize in one step."""
    return realize(parse_spec(text), order_cap=order_cap, degree_cap=degree_cap)


def named_normal(G: Group, order: int, index: int) -> Group:
    """The index-th normal subgroup of the given order, in the deterministic
    ordering of normal_subgroups."""
    matching = [N for N in normal_subgroups(G) if N.order == order]
    if index < 0 or index >= len(matching):
        raise NoSuchNormal(
            f"no normal subgroup of order {order} with index {index} "
            f"({len(matching)} candidates)"
        )
    return matching[index]
