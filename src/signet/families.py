"""Constructors for standard signed-graph families.

Paths and cycles take a count r of negative edges, placed on the first r
edges in traversal order v0v1, v1v2, ...  Grids, cylinders and tori are
Cartesian products of two paths, a cycle and a path, and two cycles; only
the parities of the r values affect spectra and balance.
"""

from __future__ import annotations

import itertools
import operator

from .graphs import SignedGraph
from .products import cartesian

__all__ = [
    "path",
    "cycle",
    "complete",
    "grid",
    "cylinder",
    "torus",
    "random_signed_graph",
    "parse_family",
]


def _path_params(n: int, r: int) -> tuple[int, int]:
    n = operator.index(n)
    r = operator.index(r)
    if n < 1:
        raise ValueError("path needs n >= 1")
    if not 0 <= r <= max(n - 1, 0):
        raise ValueError(f"negative edge count r={r} out of range 0..{n - 1}")
    return n, r


def _cycle_params(n: int, r: int) -> tuple[int, int]:
    n = operator.index(n)
    r = operator.index(r)
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    if not 0 <= r <= n:
        raise ValueError(f"negative edge count r={r} out of range 0..{n}")
    return n, r


def _complete_params(n: int, sign: int) -> tuple[int, int]:
    n = operator.index(n)
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return n, sign


def path(n: int, r: int = 0) -> SignedGraph:
    """Path on n vertices with the first r edges negative."""
    n, r = _path_params(n, r)
    edges = tuple((i, i + 1, -1 if i < r else 1) for i in range(n - 1))
    return SignedGraph(n, edges)


def cycle(n: int, r: int = 0) -> SignedGraph:
    """Cycle on n >= 3 vertices with the first r traversal edges negative."""
    n, r = _cycle_params(n, r)
    traversal = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    edges = tuple(
        (u, v, -1 if k < r else 1) for k, (u, v) in enumerate(traversal)
    )
    return SignedGraph(n, edges)


def complete(n: int, sign: int = 1) -> SignedGraph:
    """Complete graph on n >= 1 vertices with every edge carrying sign."""
    n, sign = _complete_params(n, sign)
    edges = tuple(
        (u, v, sign) for u in range(n) for v in range(u + 1, n)
    )
    return SignedGraph(n, edges)


def grid(m: int, r1: int, n: int, r2: int) -> SignedGraph:
    """Cartesian product of path(m, r1) and path(n, r2)."""
    return cartesian([path(m, r1), path(n, r2)])


def cylinder(m: int, r1: int, n: int, r2: int) -> SignedGraph:
    """Cartesian product of cycle(m, r1) and path(n, r2)."""
    return cartesian([cycle(m, r1), path(n, r2)])


def torus(m: int, r1: int, n: int, r2: int) -> SignedGraph:
    """Cartesian product of cycle(m, r1) and cycle(n, r2)."""
    return cartesian([cycle(m, r1), cycle(n, r2)])


def random_signed_graph(rng, n: int, p: float) -> SignedGraph:
    """Seeded uniform model: each pair u < v, in lexicographic order, is an
    edge when a double falls below p, and is then positive when the next one
    falls below 0.5.  The stream is one ``rng.random()`` per decision, drawn
    in blocks: ``rng.random(k)`` with k the doubles still certain to be used
    (the pairs left, plus one when a sign is due), so no call draws past the
    last decision, whatever the bit generator.  Used by the test corpus and
    the verify suites."""
    pairs = list(itertools.combinations(range(n), 2))
    edges, i, due = [], 0, None
    while i < len(pairs) or due:
        for x in rng.random(len(pairs) - i + (due is not None)).tolist():
            if due:
                edges.append((*due, 1 if x < 0.5 else -1))
                due = None
            else:
                due = pairs[i] if x < p else None
                i += 1
    return SignedGraph(n, tuple(edges))


# ---------------------------------------------------------------------------
# family strings (CLI surface): kind:key=value,...
# ---------------------------------------------------------------------------

# Leaf kind -> (parameter check, second key and its default).
_LEAVES = {
    "path": (_path_params, "r", 0),
    "cycle": (_cycle_params, "r", 0),
    "complete": (_complete_params, "sign", 1),
}
# The Cartesian factors of the two-leaf families, as (first, second) leaf
# kinds; the first leaf takes keys m and r1, the second n and r2.
_PRODUCT_LEAVES = {"grid": ("path", "path"), "cylinder": ("cycle", "path"), "torus": ("cycle", "cycle")}


_SIGNS = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}


def parse_family(text: str) -> tuple[tuple[str, int, int], ...]:
    """The validated leaves ``(kind, n, r or sign)`` of a family string,
    whose Cartesian product is the family's graph: one leaf for path, cycle
    and complete, two for grid, cylinder and torus.  Raises ValueError for
    the string's syntax first, then for a missing key, then with the same
    messages as the constructors.  :func:`signet.structured.spectral_node`
    makes the leaves a node, whose ``graph`` builds the family with these
    constructors."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind in _PRODUCT_LEAVES:
        slots = tuple(zip(_PRODUCT_LEAVES[kind], (("m", "r1"), ("n", "r2"))))
    elif kind in _LEAVES:
        slots = ((kind, ("n", _LEAVES[kind][1])),)
    else:
        raise ValueError(f"unknown family kind {kind!r}, expected one of {sorted([*_LEAVES, *_PRODUCT_LEAVES])}")
    allowed = {key for _, keys in slots for key in keys}
    params: dict = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if not eq or not value:
                raise ValueError(f"malformed family parameter {item!r}")
            if key not in allowed:
                raise ValueError(f"family {kind!r} does not take key {key!r}")
            if key in params:
                raise ValueError(f"duplicate family key {key!r}")
            if key == "sign":
                if value not in _SIGNS:
                    raise ValueError(f"bad sign value {value!r}, expected + or -")
                params[key] = _SIGNS[value]
            else:
                try:
                    params[key] = int(value)
                except ValueError:
                    raise ValueError(f"family key {key!r} needs an integer, got {value!r}") from None
    for _, (size, _) in slots:
        if size not in params:
            raise ValueError(f"family {kind!r} is missing key {size!r}")
    return tuple(
        (leaf, *_LEAVES[leaf][0](params[size], params.get(key, _LEAVES[leaf][2]))) for leaf, (size, key) in slots
    )
