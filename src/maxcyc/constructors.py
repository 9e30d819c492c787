"""Group families as explicit permutation groups, and the group-spec DSL.

Grammar (whitespace-insensitive, ``x`` is the left-associative direct
product operator)::

    expr  := atom ('x' atom)*
    atom  := C(n) | D(n) | S(n) | A(n) | EA(p,k) | Heis(p) | Q(n) | W(p)
           | AGL1(q,d) | Dic12 | SG72_50 | M16
           | Perm(degree; gen, gen, ...)      gen := cycle+   cycle := (p p ...)

Each family is one :class:`Family` class, which holds its keyword, its
parameters, the degree of its group and that group's generators; the
parser, ``render`` and :func:`realize` read these and never name a family.
A product node gives its degree and generators from its factors' nodes, so
:func:`realize` builds every spec alike and never names the product.
Parse errors carry character indices; parameter violations raise ArityError.
"""

from __future__ import annotations

import math
from typing import ClassVar, NamedTuple, Union

from .core import DEFAULT_DEGREE_CAP, DEFAULT_ORDER_CAP, Group, enumerate_elements
from .errors import ArityError, CapExceeded, ParseError
from .numutil import is_prime, multiplicative_order, prime_power_base
from .perm import Permutation


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

def _cycle(degree: int, points: list[int]) -> Permutation:
    return Permutation.from_cycles(degree, [points])


class _Node:
    """A frozen node of the spec syntax tree.  Its fields, the names annotated
    in its class's own body, are all that ``vars`` holds, in order; it
    compares, hashes and reprs (``Name(field=value, ...)``) by them."""

    _fields: ClassVar[tuple[str, ...]]

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(self._fields)} values")
        self.__dict__.update(zip(self._fields, values))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete {name!r}: a spec is frozen")

    __delattr__ = __setattr__


class Family(_Node):
    """A group family of the spec language; each subclass is a spec node
    whose fields, annotated in its body, are the family's parameters.

    A subclass sets ``keyword``, checks its parameters in ``__post_init__``,
    and gives ``degree``, read off the parameters alone so that the degree
    cap holds before any generator exists, and ``generators()``, the
    generators of the group :func:`realize` builds on that many points.
    """

    keyword: ClassVar[str]
    degree: int

    def generators(self) -> list[Permutation]:
        raise NotImplementedError

    def render(self) -> str:
        params = ",".join(map(str, vars(self).values()))
        return f"{self.keyword}({params})" if params else self.keyword

    @classmethod
    def read(cls, parser: _Parser) -> Family:
        """The atom whose keyword the parser has just taken: its parameters
        as ``(p1,p2,...)``, or nothing when the family has none."""
        arity = len(cls._fields)
        if not arity:
            return cls()
        args = parser.int_args()
        if len(args) != arity:
            plural = "" if arity == 1 else "s"
            raise ArityError(f"{cls.keyword} takes {arity} parameter{plural}, got {len(args)}")
        return cls(*args)


class Cyclic(Family):
    keyword = "C"
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ArityError(f"C({self.n}): order must be >= 1")

    @property
    def degree(self) -> int:
        return self.n

    def generators(self) -> list[Permutation]:
        n = self.n
        return [] if n == 1 else [_cycle(n, list(range(n)))]


class Dihedral(Family):
    """Dihedral group given by its total order (even).

    Orders 2 and 4 denote the degenerate dihedral groups C2 and C2 x C2.
    """

    keyword = "D"
    n: int

    def __post_init__(self):
        if self.n < 2 or self.n % 2:
            raise ArityError(f"D({self.n}): total order must be even and >= 2")

    @property
    def degree(self) -> int:
        m = self.n // 2
        return {1: 2, 2: 4}.get(m, m)

    def generators(self) -> list[Permutation]:
        m = self.n // 2
        if m == 1:
            return [_cycle(2, [0, 1])]
        if m == 2:
            return [Permutation((1, 0, 2, 3)), Permutation((0, 1, 3, 2))]
        rot = _cycle(m, list(range(m)))
        ref = Permutation(tuple((-x) % m for x in range(m)))
        return [rot, ref]


class Symmetric(Family):
    keyword = "S"
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ArityError(f"S({self.n}): degree must be >= 1")

    @property
    def degree(self) -> int:
        return self.n

    def generators(self) -> list[Permutation]:
        n = self.n
        if n == 1:
            return []
        gens = [_cycle(n, [0, 1])]
        if n > 2:
            gens.append(_cycle(n, list(range(n))))
        return gens


class Alternating(Family):
    keyword = "A"
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ArityError(f"A({self.n}): degree must be >= 3")

    @property
    def degree(self) -> int:
        return self.n

    def generators(self) -> list[Permutation]:
        # a 3-cycle and an (odd) n-cycle, or an (n-1)-cycle fixing 0 for even n
        n = self.n
        gens = [_cycle(n, [0, 1, 2])]
        if n > 3:
            gens.append(_cycle(n, list(range(1 - n % 2, n))))
        return gens


class ElemAbelian(Family):
    keyword = "EA"
    p: int
    k: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ArityError(f"EA({self.p},{self.k}): p must be prime")
        if self.k < 1:
            raise ArityError(f"EA({self.p},{self.k}): rank must be >= 1")

    @property
    def degree(self) -> int:
        return self.p * self.k

    def generators(self) -> list[Permutation]:
        p = self.p
        return [_cycle(self.degree, list(range(i * p, (i + 1) * p))) for i in range(self.k)]


class Heisenberg(Family):
    """Extraspecial group of order p**3 and exponent p, p an odd prime."""

    keyword = "Heis"
    p: int

    def __post_init__(self):
        if not is_prime(self.p) or self.p == 2:
            raise ArityError(f"Heis({self.p}): p must be an odd prime")

    @property
    def degree(self) -> int:
        return self.p * self.p

    def generators(self) -> list[Permutation]:
        # Maps (x, y) -> (x + a*y + c, y + b) on F_p^2, point index x*p + y.
        p = self.p

        def pt(x: int, y: int) -> int:
            return (x % p) * p + (y % p)

        shear = Permutation(tuple(pt(x + y, y) for x in range(p) for y in range(p)))
        lift = Permutation(tuple(pt(x, y + 1) for x in range(p) for y in range(p)))
        return [shear, lift]


class GeneralizedQuaternion(Family):
    keyword = "Q"
    n: int

    def __post_init__(self):
        if self.n < 8 or self.n & (self.n - 1):
            raise ArityError(f"Q({self.n}): total order must be a power of 2, >= 8")

    @property
    def degree(self) -> int:
        return self.n

    def generators(self) -> list[Permutation]:
        # Regular action on pairs (i, j): a^i b^j with a of order n/2 and
        # b a b^-1 = a^-1, b^2 = a^(n/4); point (i, j) is i + j*n/2.
        m = self.n // 2

        def idx(i: int, j: int) -> int:
            return (i % m) + (j % 2) * m

        a = [idx(i + 1, j) for j in range(2) for i in range(m)]
        b = [idx(-i, 1) for i in range(m)] + [idx(-i + m // 2, 0) for i in range(m)]
        return [Permutation(a), Permutation(b)]


class WreathCpCp(Family):
    keyword = "W"
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ArityError(f"W({self.p}): p must be prime")

    @property
    def degree(self) -> int:
        return self.p * self.p

    def generators(self) -> list[Permutation]:
        # Imprimitive action on p blocks of p points; base cycle on block 0
        # plus the block shift generate the full wreath product.
        p, degree = self.p, self.degree
        base = _cycle(degree, list(range(p)))
        shift = Permutation(tuple((x + p) % degree for x in range(degree)))
        return [base, shift]


class FrobeniusAGL1(Family):
    """Affine maps x -> a*x + b on Z/q, a in the order-d unit subgroup.

    q is a prime power at most 128; for q = p**k the multiplier order d
    must divide p - 1, which makes the nontrivial multipliers fixed-point
    free and the construction a Frobenius group of order q*d.  Non-prime q
    is read as the modular ring Z/q (kernel cyclic of order q).
    """

    keyword = "AGL1"
    q: int
    d: int

    def __post_init__(self):
        # the bounds come first: factoring a huge q would take unbounded time
        if self.q > 128:
            raise ArityError(f"AGL1({self.q},{self.d}): q must be <= 128")
        p = prime_power_base(self.q) if self.q >= 2 else None
        if p is None:
            raise ArityError(f"AGL1({self.q},{self.d}): q must be a prime power >= 2")
        if self.d < 1 or (p - 1) % self.d:
            raise ArityError(
                f"AGL1({self.q},{self.d}): d must divide {p - 1} (base prime {p} minus 1)"
            )

    @property
    def degree(self) -> int:
        return self.q

    def generators(self) -> list[Permutation]:
        # (Z/q)* has a unit of every order d | p - 1: it is cyclic for odd p,
        # and d = 1 for p = 2, where the multiplier is 1 itself.
        q, d = self.q, self.d
        mult = next(
            (a for a in range(2, q) if math.gcd(a, q) == 1 and multiplicative_order(a, q) == d), 1
        )
        shift = Permutation(tuple((x + 1) % q for x in range(q)))
        scale = Permutation(tuple(x * mult % q for x in range(q)))
        return [shift, scale]


class Dicyclic12(Family):
    """Z3 : Z4 with Z4 inverting Z3, acting faithfully on 7 points."""

    keyword = "Dic12"
    degree = 7

    def generators(self) -> list[Permutation]:
        a = _cycle(7, [0, 1, 2])
        b = Permutation.from_cycles(7, [[1, 2], [3, 4, 5, 6]])
        return [a, b]


class SG7250(Family):
    """Translations of F3^2 extended by a dihedral-of-order-8 group of its
    linear maps; order 72, degree 9."""

    keyword = "SG72_50"
    degree = 9

    def generators(self) -> list[Permutation]:
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
        return [t1, t2, rot, ref]


class ModularM16(Family):
    """Modular group of order 16: normal C8 with a square-fixing outer
    generator (x -> 5x on Z/8)."""

    keyword = "M16"
    degree = 8

    def generators(self) -> list[Permutation]:
        a = _cycle(8, list(range(8)))
        b = Permutation(tuple(5 * x % 8 for x in range(8)))
        return [a, b]


class ExplicitPerms(Family):
    keyword = "Perm"
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

    def generators(self) -> list[Permutation]:
        return [Permutation.from_cycles(self.degree, list(gen)) for gen in self.gens]

    def render(self) -> str:
        def one(gen: tuple[tuple[int, ...], ...]) -> str:
            return "".join("(" + " ".join(str(v) for v in c) + ")" for c in gen) or "()"

        return f"Perm({self.degree}; " + ", ".join(one(g) for g in self.gens) + ")"

    @classmethod
    def read(cls, parser: _Parser) -> ExplicitPerms:
        parser.take("(")
        degree = int(parser.take("int").text)
        parser.take(";")
        gens = [parser.perm_gen()]
        while parser.peek().kind == ",":
            parser.take(",")
            gens.append(parser.perm_gen())
        parser.take(")")
        return cls(degree, tuple(gens))


class DirectProductSpec(_Node):
    """H x K on the disjoint union of the factors' points, H's first.  Its
    degree and generators are read off the factors' nodes, so no factor is
    realized to build it, and the parser's left-nested chain of products is
    walked in a loop (:meth:`factors`), so no depth of it recurses."""

    left: GroupSpec
    right: GroupSpec

    def factors(self) -> list[GroupSpec]:
        """The factors, left to right, down the chain of left products."""
        node, rights = self, []
        while isinstance(node, DirectProductSpec):
            rights.append(node.right)
            node = node.left
        return [node, *reversed(rights)]

    @property
    def degree(self) -> int:
        return sum(f.degree for f in self.factors())

    def generators(self) -> list[Permutation]:
        # each factor's generators move its own block of points and fix the rest
        factors = self.factors()
        degree = sum(f.degree for f in factors)
        gens, start = [], 0
        for f in factors:
            before, after = tuple(range(start)), tuple(range(start + f.degree, degree))
            gens += [Permutation(before + tuple(v + start for v in g.images) + after)
                     for g in f.generators()]
            start += f.degree
        return gens

    def render(self) -> str:
        return " x ".join(f.render() for f in self.factors())


GroupSpec = Union[Family, DirectProductSpec]

# keyword -> family, longest keyword first, so that the tokenizer reads
# "AGL1" rather than "A" and "SG72_50" rather than "S"
FAMILIES: dict[str, type[Family]] = {
    cls.keyword: cls for cls in sorted(Family.__subclasses__(), key=lambda c: -len(c.keyword))
}


def render(spec: GroupSpec) -> str:
    """Canonical text of a spec; parse(render(s)) == s."""
    return spec.render()


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser
# ---------------------------------------------------------------------------

class _Token(NamedTuple):
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
        # ASCII digits only: str.isdigit also takes '²', which int() rejects,
        # and '٣', which int() reads as 3
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch in "(),;x":
            toks.append(_Token(ch, ch, i))
            i += 1
            continue
        for kw in FAMILIES:
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

    def atom(self) -> Family:
        tok = self.peek()
        if tok.kind != "name":
            raise ParseError(tok.pos, ("family name",), tok.text or "end of input")
        self.i += 1
        return FAMILIES[tok.text].read(self)

    def int_args(self) -> tuple[int, ...]:
        self.take("(")
        out = [int(self.take("int").text)]
        while self.peek().kind == ",":
            self.take(",")
            out.append(int(self.take("int").text))
        self.take(")")
        return tuple(out)

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

def realize(
    spec: GroupSpec,
    *,
    order_cap: int = DEFAULT_ORDER_CAP,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> Group:
    """Build the faithful permutation group a spec names, from its node's
    degree and generators.  A spec whose degree exceeds degree_cap raises
    CapExceeded before any generator is built."""
    if spec.degree > degree_cap:
        raise CapExceeded(f"degree {spec.degree} exceeds degree cap {degree_cap}")
    return enumerate_elements(
        spec.degree, spec.generators(), order_cap=order_cap, degree_cap=degree_cap
    )


def realize_text(
    text: str,
    *,
    order_cap: int = DEFAULT_ORDER_CAP,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> Group:
    """Parse and realize in one step."""
    return realize(parse_spec(text), order_cap=order_cap, degree_cap=degree_cap)
