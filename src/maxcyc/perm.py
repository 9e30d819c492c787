"""Permutations of {0, ..., degree-1} stored as immutable image tuples."""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable, Sequence


class Permutation:
    """A bijection of the points 0..degree-1.

    ``images[i]`` is the image of point ``i``.  Composition follows function
    notation: ``(a * b)(i) == a(b(i))``, so the right factor acts first.
    Instances are immutable and ordered lexicographically by image tuple;
    every "canonical representative" choice in this package takes the
    minimum under that order (the identity is the global minimum).
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        seen = [False] * len(imgs)
        for v in imgs:
            if not 0 <= v < len(imgs) or seen[v]:
                raise ValueError(f"not a permutation of 0..{len(imgs) - 1}: {imgs!r}")
            seen[v] = True
        self.images = imgs
        self._hash = hash(imgs)

    @classmethod
    def _unchecked(cls, imgs: tuple[int, ...]) -> "Permutation":
        p = object.__new__(cls)
        p.images = imgs
        p._hash = hash(imgs)
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._unchecked(tuple(range(degree)))

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
    def degree(self) -> int:
        return len(self.images)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        a, b = self.images, other.images
        if len(b) > 1:
            return Permutation._unchecked(itemgetter(*b)(a))
        # itemgetter with one key returns a bare item, not a tuple
        return Permutation._unchecked(tuple(a[v] for v in b))

    def inverse(self) -> "Permutation":
        imgs = self.images
        out = [0] * len(imgs)
        for i, v in enumerate(imgs):
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
        """g * self * g^-1, computed in one pass."""
        gi, hi = g.images, self.images
        out = [0] * len(gi)
        for i, gv in enumerate(gi):
            out[gv] = gi[hi[i]]
        return Permutation._unchecked(tuple(out))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycle decomposition, fixed points omitted.

        Each cycle starts at its smallest point; cycles are sorted by first
        point, so the decomposition is canonical.
        """
        imgs = self.images
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
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __le__(self, other: "Permutation") -> bool:
        return self.images <= other.images

    def __repr__(self) -> str:
        return f"<perm {self.cycle_string()}>"


def perm_order(a: Permutation) -> int:
    """Least n >= 1 with a**n the identity; the lcm of the cycle lengths."""
    lengths = [len(c) for c in a.cycles()]
    return math.lcm(*lengths) if lengths else 1
