"""Signed graphs: data model, matrices, switching and balance.

A signed graph is a simple loop-free graph in which every edge carries a
sign +1 or -1.  The sign of a cycle is the product of its edge signs, and a
graph is balanced when every cycle is positive, equivalently when some
vertex switching makes all edges positive.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SignedGraph",
    "ComponentReport",
    "BalanceReport",
    "adjacency",
    "degrees",
    "degree_matrix",
    "laplacian",
    "laplacian_from_adjacency",
    "incidence",
    "negate",
    "underlying",
    "switch",
    "balance_report",
    "to_json_dict",
    "from_json_dict",
    "dumps",
    "loads",
]


class lazy_field:
    """Attribute computed by ``fn(obj)`` on first use and stored on the
    instance, where every later lookup finds it first.

    ``functools.cached_property`` does the same, but on Python < 3.12 it
    takes a lock on every first access, and it writes through ``__dict__``,
    which turns the instance's compact attribute storage into a dict that
    every later attribute read pays for.
    """

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.fn(obj)
        object.__setattr__(obj, self.name, value)  # also past a frozen dataclass's guard
        return value


_INT64_MAX = np.iinfo(np.int64).max
# An int64 edge array with fewer rows is checked edge by edge and kept as
# triples: below this size the fixed cost of a dozen numpy calls exceeds
# the per-edge loop's.
ARRAY_MIN_EDGES = 32


@dataclass(frozen=True, init=False)
class SignedGraph:
    """Simple graph on vertices 0..n-1 whose ``m`` edges are signed +1 or -1.

    Edges are canonicalised to ``(u, v, sign)`` with ``u < v`` and stored
    sorted lexicographically, so equal graphs compare equal and every
    derived matrix is reproducible.  They are given either as triples or as
    one int64 array of shape (m, 3), the form :func:`signet.products.neps`
    builds.  The graph keeps the form it was given and derives the other on
    first use: ``edges`` as a tuple of int triples, ``edge_array`` as a
    read-only int64 array.  An array shorter than ``ARRAY_MIN_EDGES`` rows
    is kept as triples; ``from_array`` tells which form was kept.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]  # a lazy_field below
    m: int = field(init=False, repr=False, compare=False)
    from_array: bool = field(init=False, repr=False, compare=False)  # kept as the array it was given

    def __init__(self, n, edges=()):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        self.__post_init__()

    def __post_init__(self):
        try:
            n = operator.index(self.n)
        except TypeError:
            raise ValueError(f"vertex count must be an integer, got {self.n!r}") from None
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        object.__setattr__(self, "n", n)
        given = self.edges
        if isinstance(given, np.ndarray) and given.dtype == np.int64 and given.ndim == 2 and given.shape[1] == 3:
            if len(given) >= ARRAY_MIN_EDGES:
                array = _canonical_array(n, given)
                object.__delattr__(self, "edges")  # derived from the array when asked for
                object.__setattr__(self, "edge_array", array)
                object.__setattr__(self, "m", len(array))
                object.__setattr__(self, "from_array", True)
                return
            given = zip(*given.T.tolist())
        edges = _canonical_tuples(n, given)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "m", len(edges))
        object.__setattr__(self, "from_array", False)

    @lazy_field
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        u, v, s = self.edge_array.T.tolist()
        return tuple(zip(u, v, s))

    @lazy_field
    def edge_array(self) -> np.ndarray:
        a = np.array(self.edges, dtype=np.int64).reshape(-1, 3)
        a.flags.writeable = False
        return a


def _canonical_tuples(n: int, edges) -> tuple[tuple[int, int, int], ...]:
    """Check and sort edge triples one by one."""
    canon = []
    for edge in edges:
        try:
            u, v, s = edge
            # An exact tuple of exact ints is already canonical; keep it.
            if type(edge) is tuple and type(u) is int and type(v) is int and type(s) is int:
                item = edge
            else:
                item = (operator.index(u), operator.index(v), operator.index(s))
                u, v, s = item
        except (TypeError, ValueError):
            raise ValueError(f"malformed edge {edge!r}") from None
        if not 0 <= u < v < n:
            raise ValueError(f"edge {edge!r} violates 0 <= u < v < {n}")
        if s not in (1, -1):
            raise ValueError(f"edge {edge!r} has sign {s}, expected +1 or -1")
        canon.append(item)
    canon.sort()  # linear on input that is already sorted
    pu = pv = -1
    for u, v, _ in canon:
        if u == pu and v == pv:
            raise ValueError(f"duplicate edge ({u}, {v})")
        pu, pv = u, v
    return tuple(canon)


def _canonical_array(n: int, a: np.ndarray) -> np.ndarray:
    """Check an int64 (m, 3) edge array as :func:`_canonical_tuples` checks
    triples, with the same messages, and return a sorted read-only copy."""
    u, v, s = a.T
    bad = (u < 0) | (u >= v) | ((s != 1) & (s != -1))
    if n <= _INT64_MAX:
        bad |= v >= n
    if bad.any():
        edge = tuple(a[bad.argmax()].tolist())
        if not 0 <= edge[0] < edge[1] < n:
            raise ValueError(f"edge {edge!r} violates 0 <= u < v < {n}")
        raise ValueError(f"edge {edge!r} has sign {edge[2]}, expected +1 or -1")
    pu, nu, pv, nv = u[:-1], u[1:], v[:-1], v[1:]
    if ((nu > pu) | ((nu == pu) & (nv > pv))).all():
        a = a.copy()
    else:
        a = a[np.lexsort((v, u))]
        u, v = a[:, 0], a[:, 1]
        repeated = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
        if repeated.any():
            i = repeated.argmax()
            raise ValueError(f"duplicate edge ({u[i]}, {v[i]})")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ComponentReport:
    """One connected component together with its balance and bipartiteness
    verdicts."""

    vertices: tuple[int, ...]
    balanced: bool
    bipartite: bool


@dataclass(frozen=True)
class BalanceReport:
    """Balance decomposition of a signed graph.

    ``b`` counts balanced components, ``c`` all components and ``c_b`` the
    components whose underlying graph is bipartite.  ``switch`` holds a
    per-vertex switching certificate assigned along a spanning tree; on a
    balanced component switching by it makes every edge positive.
    """

    components: tuple[ComponentReport, ...]
    switch: tuple[int, ...]
    b: int
    c: int
    c_b: int

    @property
    def balanced(self) -> bool:
        return self.b == self.c


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def adjacency(g: SignedGraph) -> np.ndarray:
    """Signed adjacency matrix with entries in {-1, 0, 1}, written from the
    form the graph was built from."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    if g.from_array:
        u, v, s = g.edge_array.T
        a[u, v] = s
        a[v, u] = s
        return a
    for u, v, s in g.edges:
        a[u, v] = s
        a[v, u] = s
    return a


def degrees(g: SignedGraph) -> np.ndarray:
    """Unsigned vertex degrees."""
    d = [0] * g.n
    for u, v, _ in g.edges:
        d[u] += 1
        d[v] += 1
    return np.array(d, dtype=np.int64)


def degree_matrix(g: SignedGraph) -> np.ndarray:
    return np.diag(degrees(g))


def laplacian_from_adjacency(a: np.ndarray) -> np.ndarray:
    """Signed Laplacian D - A from a signed adjacency matrix, D = diag(|A| 1)."""
    return np.diag(np.abs(a).sum(axis=1)) - a


def laplacian(g: SignedGraph) -> np.ndarray:
    """Signed Laplacian D - A.  Positive semidefinite for every signature."""
    return laplacian_from_adjacency(adjacency(g))


def incidence(g: SignedGraph) -> np.ndarray:
    """Vertex-edge incidence matrix H with H @ H.T == laplacian(g).

    The column of edge (u, v, s) holds +1 at the lower endpoint u and -s at
    the higher endpoint v, so the two nonzero entries multiply to -s.
    """
    h = np.zeros((g.n, g.m), dtype=np.int64)
    for k, (u, v, s) in enumerate(g.edges):
        h[u, k] = 1
        h[v, k] = -s
    return h


# ---------------------------------------------------------------------------
# signature operations
# ---------------------------------------------------------------------------


def negate(g: SignedGraph) -> SignedGraph:
    """Flip the sign of every edge."""
    return SignedGraph(g.n, tuple((u, v, -s) for u, v, s in g.edges))


def underlying(g: SignedGraph) -> SignedGraph:
    """The all-positive graph on the same edge set."""
    return SignedGraph(g.n, tuple((u, v, 1) for u, v, _ in g.edges))


def switch(g: SignedGraph, signs) -> SignedGraph:
    """Switch at the vertex set given by a +1/-1 vector.

    Edge (u, v, s) becomes (u, v, signs[u] * s * signs[v]); spectra and
    balance are invariant under this operation.
    """
    values = [operator.index(x) for x in signs]
    if len(values) != g.n:
        raise ValueError(f"switching vector has length {len(values)}, expected {g.n}")
    if any(x not in (1, -1) for x in values):
        raise ValueError("switching vector entries must be +1 or -1")
    return SignedGraph(
        g.n, tuple((u, v, values[u] * s * values[v]) for u, v, s in g.edges)
    )


def _adjacency_lists(g: SignedGraph) -> list[list[tuple[int, int]]]:
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for u, v, s in g.edges:
        nbrs[u].append((v, s))
        nbrs[v].append((u, s))
    return nbrs


def balance_report(g: SignedGraph) -> BalanceReport:
    """Decompose into components and decide balance of each.

    A breadth-first spanning tree fixes a tentative switching (root +1,
    child = parent * edge sign); the component is balanced exactly when all
    non-tree edges also become positive under it.  The same sweep two-colours
    the underlying graph to count bipartite components.
    """
    nbrs = _adjacency_lists(g)
    comp_id = [-1] * g.n
    sigma = [1] * g.n
    colour = [0] * g.n
    comp_vertices: list[list[int]] = []
    for root in range(g.n):
        if comp_id[root] != -1:
            continue
        cid = len(comp_vertices)
        comp_id[root] = cid
        # members is the FIFO queue too: head walks it in discovery order.
        members = [root]
        head = 0
        while head < len(members):
            u = members[head]
            head += 1
            for v, s in nbrs[u]:
                if comp_id[v] == -1:
                    comp_id[v] = cid
                    sigma[v] = sigma[u] * s
                    colour[v] = 1 - colour[u]
                    members.append(v)
        comp_vertices.append(sorted(members))

    c = len(comp_vertices)
    comp_balanced = [True] * c
    comp_bipartite = [True] * c
    for u, v, s in g.edges:
        cid = comp_id[u]
        if sigma[u] * s * sigma[v] != 1:
            comp_balanced[cid] = False
        if colour[u] == colour[v]:
            comp_bipartite[cid] = False

    components = tuple(
        ComponentReport(tuple(vs), comp_balanced[i], comp_bipartite[i])
        for i, vs in enumerate(comp_vertices)
    )
    return BalanceReport(
        components=components,
        switch=tuple(sigma),
        b=sum(comp_balanced),
        c=c,
        c_b=sum(comp_bipartite),
    )


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def to_json_dict(g: SignedGraph) -> dict:
    return {"n": g.n, "edges": g.edge_array.tolist()}


def from_json_dict(obj) -> SignedGraph:
    """Build a graph from {"n": int, "edges": [[u, v, sign], ...]}.

    Rejects loops, duplicate edges, out-of-range endpoints, bad signs and
    unknown keys.
    """
    if not isinstance(obj, dict):
        raise ValueError("graph document must be a JSON object")
    extra = set(obj) - {"n", "edges"}
    if extra:
        raise ValueError(f"unknown graph keys: {sorted(extra)}")
    if "n" not in obj:
        raise ValueError('graph document missing "n"')
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError('"n" must be an integer')
    edges = obj.get("edges", [])
    if not isinstance(edges, list):
        raise ValueError('"edges" must be a list')
    parsed = []
    for item in edges:
        if not isinstance(item, list) or len(item) != 3:
            raise ValueError(f"edge entries must be [u, v, sign] triples, got {item!r}")
        u, v, s = item
        if not (type(u) is int and type(v) is int and type(s) is int) and any(
            isinstance(x, bool) or not isinstance(x, int) for x in item
        ):
            raise ValueError(f"edge entries must be integers, got {item!r}")
        parsed.append((u, v, s))
    return SignedGraph(n, tuple(parsed))


def dumps(g: SignedGraph) -> str:
    """Canonical single-line JSON text, equal to ``json.dumps(to_json_dict(g))``.

    The edge list is written from the edge array in one pass: one row of
    bytes per edge, ``[u, v, s], `` with u and v as fixed-width digit
    columns whose leading zeros are NUL bytes, and the sign as an optional
    ``-`` before ``1``.  Dropping every NUL leaves the JSON text.
    """
    a = g.edge_array
    if not len(a):
        return f'{{"n": {g.n}, "edges": []}}'
    width = len(str(int(a[:, 1].max())))  # v > u, so the largest endpoint is a v
    rows = np.zeros((len(a), 2 * width + 10), dtype=np.uint8)
    rows[:, 0] = ord("[")
    rows[:, width + 1 : width + 3] = rows[:, 2 * width + 3 : 2 * width + 5] = np.frombuffer(b", ", np.uint8)
    for column, end in ((0, width + 1), (1, 2 * width + 3)):
        q = a[:, column].copy()
        for k in range(width):  # digit k, counted from the right
            digit = (q % 10 + ord("0")).astype(np.uint8)
            if k:
                digit[q == 0] = 0
            rows[:, end - 1 - k] = digit
            q //= 10
    rows[a[:, 2] < 0, 2 * width + 5] = ord("-")
    rows[:, 2 * width + 6 :] = np.frombuffer(b"1], ", np.uint8)
    text = rows[rows != 0].tobytes().decode("ascii")
    return f'{{"n": {g.n}, "edges": [{text[:-2]}]}}'


def loads(text: str) -> SignedGraph:
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("graph document is nested too deeply") from None
    return from_json_dict(obj)
