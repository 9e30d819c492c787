"""Seeded point relabelling of group specs.

Seed 0 keeps the named spec.  Any other seed hands the CLI ``Perm(n; ...)``
with every generator of the named group conjugated by a random permutation
of the points.  The group is isomorphic to the named one, so every invariant
the benchmark checks is unchanged, but element order and tie-breaks differ,
so no change can key on a named family.

Run as a script with ``src`` on PYTHONPATH, it realizes the named specs
given as arguments and prints their degrees and generators as JSON.  The
benchmark does that in a child process, so that its own process stays small.
"""

from __future__ import annotations

import json
import random
import sys

Generators = tuple[int, list[list[int]]]  # degree, image lists


def generators(specs: list[str]) -> dict[str, Generators]:
    from maxcyc.constructors import parse_spec, realize

    out = {}
    for spec in specs:
        G = realize(parse_spec(spec))
        out[spec] = (G.degree, [list(g.images) for g in G.generators])
    return out


def relabelled_spec(spec: str, gens: Generators, seed: int, variant: int = 0) -> str:
    """The spec for `seed`; each `variant` of one seed is another relabelling."""
    if seed == 0:
        return spec
    degree, images_list = gens
    points = list(range(degree))
    random.Random(f"{seed}/{variant}/{spec}").shuffle(points)
    cycle_strings = []
    for g in images_list:
        images = [0] * degree
        for i, v in enumerate(g):
            images[points[i]] = points[v]
        cycles = _cycles(images)
        if cycles:
            cycle_strings.append("".join("(" + " ".join(map(str, c)) + ")" for c in cycles))
    return f"Perm({degree}; " + ", ".join(cycle_strings) + ")"


def _cycles(images: list[int]) -> list[tuple[int, ...]]:
    seen = [False] * len(images)
    out = []
    for start, v in enumerate(images):
        if seen[start] or v == start:
            continue
        cycle = [start]
        seen[start] = True
        while v != start:
            cycle.append(v)
            seen[v] = True
            v = images[v]
        out.append(tuple(cycle))
    return out


if __name__ == "__main__":
    print(json.dumps(generators(sys.argv[1:])))
