"""Permutations of {0, ..., degree-1} stored as packed immutable words.

A permutation's ``word`` holds its images.  Up to 256 points the word is
``bytes``, one byte per point, so products, inverses and conjugates are
single C-level ``bytes.translate`` and ``bytes.maketrans`` calls and an
element of degree 127 takes 160 bytes instead of about 1 KB as a tuple.
Above 256 points the word is the image tuple, multiplied by
``operator.itemgetter``.  Either word indexes to the image ints, hashes,
and, between words of one degree, orders like the image tuple, so code
outside this module reads ``word`` without asking which one it is; the
closure loops take their products from :func:`table_of` and
:func:`right_multiplier`, and the conjugacy-class walk its conjugates
from :func:`word_conjugator`.
"""

from __future__ import annotations

from operator import itemgetter, methodcaller
from typing import Callable, Iterable, Sequence

PACKED_DEGREE = 256


class _ByDegree(dict):
    """bytes(range(*span(n))) for each degree n, made on first use."""

    def __init__(self, span: Callable[[int], tuple[int, int]]):
        self.span = span

    def __missing__(self, n: int) -> bytes:
        self[n] = value = bytes(range(*self.span(n)))
        return value


# _PAD[n] completes a packed word of degree n to a 256-byte translation table
_PAD = _ByDegree(lambda n: (n, PACKED_DEGREE))
_IDENT = _ByDegree(lambda n: (0, n))


def _identity_word(degree: int) -> bytes | tuple[int, ...]:
    return _IDENT[degree] if degree <= PACKED_DEGREE else tuple(range(degree))


class Permutation:
    """A bijection of the points 0..degree-1.

    ``images[i]`` is the image of point ``i``.  Composition follows function
    notation: ``(a * b)(i) == a(b(i))``, so the right factor acts first.
    Instances are immutable and ordered lexicographically by image tuple;
    every "canonical representative" choice in this package takes the
    minimum under that order (the identity is the global minimum).
    """

    __slots__ = ("word",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        seen = [False] * len(imgs)
        for v in imgs:
            if not 0 <= v < len(imgs) or seen[v]:
                raise ValueError(f"not a permutation of 0..{len(imgs) - 1}: {imgs!r}")
            seen[v] = True
        self.word = bytes(imgs) if len(imgs) <= PACKED_DEGREE else imgs

    @classmethod
    def _unchecked(cls, word: bytes | tuple[int, ...]) -> "Permutation":
        p = object.__new__(cls)
        p.word = word
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._unchecked(_identity_word(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        """Build the product of the given cycles, applied left to right."""
        result = cls.identity(degree)
        for cycle in cycles:
            imgs = list(range(degree))
            for v in cycle:
                if not 0 <= v < degree:
                    raise ValueError(f"cycle point {v} out of range for degree {degree}")
            if len(set(cycle)) != len(cycle):
                raise ValueError(f"repeated point in cycle {tuple(cycle)}")
            for a, b in zip(cycle, tuple(cycle[1:]) + tuple(cycle[:1])):
                imgs[a] = b
            result = cls(imgs) * result
        return result

    @property
    def images(self) -> tuple[int, ...]:
        return tuple(self.word)

    @property
    def degree(self) -> int:
        return len(self.word)

    def is_identity(self) -> bool:
        return self.word == _identity_word(len(self.word))

    def __call__(self, point: int) -> int:
        return self.word[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        a, b = self.word, other.word
        if type(a) is bytes:
            return Permutation._unchecked(b.translate(a + _PAD[len(a)]))
        return Permutation._unchecked(itemgetter(*b)(a))

    def inverse(self) -> "Permutation":
        w = self.word
        if type(w) is bytes:
            return Permutation._unchecked(bytes.maketrans(w, _IDENT[len(w)])[: len(w)])
        out = [0] * len(w)
        for i, v in enumerate(w):
            out[v] = i
        return Permutation._unchecked(tuple(out))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return Permutation.identity(self.degree)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def conjugate_by(self, g: "Permutation") -> "Permutation":
        """g * self * g^-1, computed in one pass: it sends g(i) to g(self(i))."""
        gw, hw = g.word, self.word
        if type(gw) is bytes:
            n = len(gw)
            return Permutation._unchecked(bytes.maketrans(gw, hw.translate(gw + _PAD[n]))[:n])
        out = [0] * len(gw)
        for i, gv in enumerate(gw):
            out[gv] = gw[hw[i]]
        return Permutation._unchecked(tuple(out))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycle decomposition, fixed points omitted.

        Each cycle starts at its smallest point; cycles are sorted by first
        point, so the decomposition is canonical.
        """
        imgs = self.word
        seen = [False] * len(imgs)
        out = []
        for start in range(len(imgs)):
            if seen[start] or imgs[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            v = imgs[start]
            while v != start:
                cyc.append(v)
                seen[v] = True
                v = imgs[v]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        """Cycle notation with zero-based points, e.g. ``(0 1 2)(3 4)``."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self) -> int:
        return hash(self.word)  # a bytes word caches its own hash

    def __lt__(self, other: "Permutation") -> bool:
        return self.word < other.word

    def __le__(self, other: "Permutation") -> bool:
        return self.word <= other.word

    def __reduce__(self):
        return Permutation._unchecked, (self.word,)

    def __repr__(self) -> str:
        return f"<perm {self.cycle_string()}>"


def table_of(degree: int) -> Callable:
    """x.word -> the table that :func:`right_multiplier` reads, for x of
    this degree: a packed word padded to 256 bytes, or the tuple itself.
    A closure loop makes it once per element."""
    return methodcaller("__add__", _PAD[degree]) if degree <= PACKED_DEGREE else tuple


def right_multiplier(g: Permutation) -> Callable:
    """The table of x (:func:`table_of`) -> the word of x*g, one C-level
    call: (x*g)(i) = x(g(i)) looks each image of g up in x's table."""
    w = g.word
    return w.translate if type(w) is bytes else itemgetter(*w)


def word_conjugator(g: Permutation) -> Callable:
    """x.word -> the word of g x g^-1, as :meth:`Permutation.conjugate_by`
    computes it: one C-level pass on a packed word, with g's translation
    table made once."""
    gw = g.word
    if type(gw) is bytes:
        n, table, maketrans = len(gw), gw + _PAD[len(gw)], bytes.maketrans
        return lambda w: maketrans(gw, w.translate(table))[:n]
    return lambda w: Permutation._unchecked(w).conjugate_by(g).word
