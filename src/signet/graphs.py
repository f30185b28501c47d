"""Signed graphs: data model, matrices, switching and balance.

A signed graph is a simple loop-free graph in which every edge carries a
sign +1 or -1.  The sign of a cycle is the product of its edge signs, and a
graph is balanced when every cycle is positive, equivalently when some
vertex switching makes all edges positive.  A graph is stored as one int64
edge array, and every matrix, signature operation and balance sweep works on
it in whole-array steps.
"""

from __future__ import annotations

import json
import operator
import re
import warnings
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "SignedGraph",
    "BalanceReport",
    "adjacency",
    "degrees",
    "laplacian",
    "laplacian_from_adjacency",
    "incidence",
    "negate",
    "underlying",
    "switch",
    "disjoint_union",
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


@dataclass(frozen=True, init=False)
class SignedGraph:
    """Simple graph on vertices 0..n-1 whose ``m`` edges are signed +1 or -1.

    The graph stores one form, ``edge_array``: a read-only int64 array of
    shape (m, 3) whose rows ``(u, v, sign)`` have ``u < v`` and are sorted
    lexicographically, so equal graphs compare equal and every derived
    matrix is reproducible.  Edges are given either as that array, the form
    :func:`signet.products.neps` builds and :func:`loads` reads, or as
    triples, which are checked one by one and converted once; a triple
    graph with an endpoint past the int64 range is refused with ValueError.
    ``edges`` is the tuple of int triples derived from the array on first
    use, and ``==`` and ``hash`` compare it.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]  # a lazy_field below
    m: int = field(init=False, repr=False, compare=False)

    def __init__(self, n, edges=()):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edge_array", edges)
        self.__post_init__()

    def __post_init__(self):
        try:
            n = operator.index(self.n)
        except TypeError:
            raise ValueError(f"vertex count must be an integer, got {self.n!r}") from None
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        object.__setattr__(self, "n", n)
        given = self.edge_array
        if isinstance(given, np.ndarray) and given.dtype == np.int64 and given.ndim == 2 and given.shape[1] == 3:
            array = _canonical_array(n, given)
        else:
            array = _triples_array(n, given)
        object.__setattr__(self, "edge_array", array)
        object.__setattr__(self, "m", len(array))

    @lazy_field
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        u, v, s = self.edge_array.T.tolist()
        return tuple(zip(u, v, s))


def _checked(n: int, rows: np.ndarray) -> SignedGraph:
    """The graph of rows that already passed the constructor's checks: a
    read-only int64 (m, 3) array in canonical order with endpoints below n,
    such as a block cut from a checked graph and relabelled in order."""
    g = object.__new__(SignedGraph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "edge_array", rows)
    object.__setattr__(g, "m", len(rows))
    return g


def _triples_array(n: int, edges) -> np.ndarray:
    """Check edge triples one by one, sort them and scan for a repeated pair
    on Python ints, and convert them once into a sorted read-only int64
    (m, 3) array.  For a graph of a few edges this is about a third of the
    cost of :func:`_canonical_array`'s whole-array steps, whose fixed cost
    dominates there."""
    rows = []
    for edge in edges:
        try:
            u, v, s = map(operator.index, edge)
        except (TypeError, ValueError):
            raise ValueError(f"malformed edge {edge!r}") from None
        if not 0 <= u < v < n:
            raise ValueError(f"edge {edge!r} violates 0 <= u < v < {n}")
        if s not in (1, -1):
            raise ValueError(f"edge {edge!r} has sign {s}, expected +1 or -1")
        rows.append((u, v, s))
    rows.sort()  # linear on input that is already sorted
    pu = pv = -1
    for u, v, _ in rows:
        if u == pu and v == pv:
            raise ValueError(f"duplicate edge ({u}, {v})")
        pu, pv = u, v
    try:
        array = np.array(rows, dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        raise ValueError(f"a graph of order {n} has an endpoint past the int64 range of edge arrays") from None
    array.flags.writeable = False
    return array


def _canonical_array(n: int, a: np.ndarray) -> np.ndarray:
    """Check an int64 (m, 3) edge array as :func:`_triples_array` checks
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


@dataclass(frozen=True, eq=False)
class BalanceReport:
    """Balance decomposition of a signed graph, as read-only arrays.

    ``root[v]`` is the least vertex of v's component.  ``component_balanced``
    and ``component_bipartite`` hold one verdict per component, listed by
    increasing least vertex.  ``b`` counts balanced components, ``c`` all
    components and ``c_b`` the components whose underlying graph is
    bipartite.  ``switch`` holds a per-vertex switching certificate of +1
    and -1: on a balanced component switching by it makes every edge
    positive, and it is +1 throughout an unbalanced one.
    """

    root: np.ndarray
    component_balanced: np.ndarray
    component_bipartite: np.ndarray
    switch: np.ndarray
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
    """Signed adjacency matrix with entries in {-1, 0, 1}."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    u, v, s = g.edge_array.T
    a[u, v] = s
    a[v, u] = s
    return a


def degrees(g: SignedGraph) -> np.ndarray:
    """Unsigned vertex degrees, counted over the edge array."""
    return np.bincount(g.edge_array[:, :2].ravel(), minlength=g.n)


def laplacian_from_adjacency(a: np.ndarray) -> np.ndarray:
    """Signed Laplacian D - A from a signed adjacency matrix, D = diag(|A| 1);
    of a stack (..., n, n), one Laplacian per matrix."""
    lap = -a
    diagonal = np.einsum("...ii->...i", lap)  # a writeable view of each diagonal
    diagonal += np.abs(a).sum(axis=-1)
    return lap


def laplacian(g: SignedGraph) -> np.ndarray:
    """Signed Laplacian D - A.  Positive semidefinite for every signature."""
    return laplacian_from_adjacency(adjacency(g))


def incidence(g: SignedGraph) -> np.ndarray:
    """Vertex-edge incidence matrix H with H @ H.T == laplacian(g).

    The column of edge (u, v, s) holds +1 at the lower endpoint u and -s at
    the higher endpoint v, so the two nonzero entries multiply to -s.
    """
    h = np.zeros((g.n, g.m), dtype=np.int64)
    u, v, s = g.edge_array.T
    k = np.arange(g.m)
    h[u, k] = 1
    h[v, k] = -s
    return h


# ---------------------------------------------------------------------------
# signature operations
# ---------------------------------------------------------------------------


def negate(g: SignedGraph) -> SignedGraph:
    """Flip the sign of every edge."""
    return SignedGraph(g.n, g.edge_array * (1, 1, -1))


def underlying(g: SignedGraph) -> SignedGraph:
    """The all-positive graph on the same edge set."""
    return SignedGraph(g.n, g.edge_array * (1, 1, 0) + (0, 0, 1))


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
    sigma = np.array(values, dtype=np.int64)
    u, v, s = g.edge_array.T
    return SignedGraph(g.n, np.column_stack((u, v, sigma[u] * s * sigma[v])))


def disjoint_union(gs: Iterable[SignedGraph]) -> SignedGraph:
    """The graphs side by side, in order: each one's vertices are numbered
    after those of the graphs before it, and its edge array is shifted by
    that offset.  The union is one edge-array graph, checked by the
    constructor like any other."""
    parts, offset = [np.empty((0, 3), dtype=np.int64)], 0
    for g in gs:
        parts.append(g.edge_array + (offset, offset, 0))
        offset += g.n
    return SignedGraph(offset, np.concatenate(parts))


def _cover_components(label: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least vertex of each vertex's component in the graph on
    0..size-1 with edges (a[i], b[i]), given ``label = np.arange(size)``.

    Union-find in whole-array steps: every root is hooked to the least root
    it shares an edge with (``np.minimum.at``), then pointers jump until
    each vertex points at its root.  Each step hooks at least one root, and
    labels only decrease, so the loop ends with every edge inside a tree.
    """
    la, lb = a, b  # the labels of the edges' ends, each vertex its own root at first
    while not (la == lb).all():
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up
        la, lb = label[a], label[b]
    return label


def balance_report(g: SignedGraph) -> BalanceReport:
    """Decompose into components and decide balance and bipartiteness of
    each, from two double covers of the edge array.

    Each vertex v has lifts v+ and v-.  In the signed double cover a
    positive edge joins like lifts (u+ v+, u- v-) and a negative edge
    opposite ones (u+ v-, u- v+); the all-negative cover joins opposite
    lifts for every edge.  A component with least vertex r is balanced iff
    its lift splits in two, that is r+ and r- lie in different cover
    components (Zaslavsky, "Signed graphs", Discrete Appl. Math. 4, 1982),
    and bipartite iff the same holds in the all-negative cover.  With cover
    components labelled by least vertex, one of v+ and v- carries r, and
    ``switch[v]`` is +1 iff v+ does: the switching that makes a balanced
    component all positive, and +1 throughout an unbalanced one, where
    both lifts carry r.  ``root`` is the per-vertex minimum of the two
    lifts' labels, and components are listed by increasing root.
    """
    n = g.n
    label = np.arange(4 * n)  # first: an order too large to label fails here, before a lift overflows
    u, v, s = g.edge_array.T
    flip = np.where(s < 0, n, 0)
    # Signed cover on 0..2n-1 (v+ = v, v- = v + n), all-negative cover on 2n..4n-1.
    label = _cover_components(
        label,
        np.concatenate((u, u + n, u + 2 * n, u + 3 * n)),
        np.concatenate((v + flip, v + n - flip, v + 3 * n, v + 2 * n)),
    )
    root = np.minimum(label[:n], label[n : 2 * n])
    roots = np.flatnonzero(root == np.arange(n))
    balanced = label[roots + n] != roots
    bipartite = label[roots + 3 * n] != roots + 2 * n
    certificate = np.where(label[:n] == root, 1, -1)
    for a in (root, balanced, bipartite, certificate):
        a.flags.writeable = False
    return BalanceReport(root, balanced, bipartite, certificate, int(balanced.sum()), len(roots), int(bipartite.sum()))


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


def _edge_list(a: np.ndarray) -> str:
    """The JSON text of the rows of an int64 (m, 3) array, ``[u, v, s], ...``
    with the separators of :func:`json.dumps`, written in one pass.

    One row of bytes per edge, ``[u, v, s], `` with u and v as fixed-width
    digit columns whose leading zeros are NUL bytes, and the sign as an
    optional ``-`` before ``1``.  Dropping every NUL leaves the JSON text.
    A row with a negative endpoint, an endpoint wider than the largest v
    or a sign other than +-1 comes out as some other text, which
    :func:`loads` relies on.
    """
    if not len(a):
        return ""
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
    return rows[rows != 0].tobytes().decode("ascii")[:-2]


def dumps(g: SignedGraph) -> str:
    """Canonical single-line JSON text, equal to ``json.dumps(to_json_dict(g))``,
    with the edge list written from the edge array by :func:`_edge_list`."""
    return f'{{"n": {g.n}, "edges": [{_edge_list(g.edge_array)}]}}'


# The canonical document around its edge list, with JSON whitespace around
# it and an order of at most 18 digits; loads checks the edge list itself.
_CANONICAL_DOCUMENT = re.compile(
    r'[ \t\n\r]*\{"n": (0|[1-9][0-9]{0,17}), "edges": \[(.*)\]\}[ \t\n\r]*', re.DOTALL
)


def _json_object(pairs: list) -> dict:
    """A JSON object of a graph document, which may not name a key twice."""
    if len(obj := dict(pairs)) < len(pairs):
        raise ValueError("graph document names a key twice")
    return obj


def loads(text: str) -> SignedGraph:
    """The graph of a JSON document that names no key twice, as ``from_json_dict(json.loads(text))``.

    Canonical text, the text :func:`dumps` writes for the edges in any
    order, is read with no per-edge Python work: one pattern matches the
    document around the edge list, one numpy call converts the list into
    an int64 (m, 3) array, and the list must be exactly the text
    :func:`_edge_list` writes back from that array.  So every integer is
    an int64 without leading zeros and every sign is 1 or -1, and the array
    holds the values the JSON route would parse.  The graph then checks
    and keeps the array.  Any other text goes through :mod:`json` and
    :func:`from_json_dict`, so both routes accept the same documents with
    the same messages.  (A canonical document cannot repeat a key.)
    """
    match = _CANONICAL_DOCUMENT.fullmatch(text)
    if match:
        n, edges = match.groups()
        # Raises on most text that is not integer triples (older numpy only
        # warns, so the warning is raised too); the round trip catches the rest.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            try:
                a = np.fromstring(edges.replace("[", "").replace("]", ""), dtype=np.int64, sep=",").reshape(-1, 3)
            except (ValueError, DeprecationWarning):
                a = None
        if a is not None and _edge_list(a) == edges:
            return SignedGraph(int(n), a)
    try:
        obj = json.loads(text, object_pairs_hook=_json_object)
    except RecursionError:
        raise ValueError("graph document is nested too deeply") from None
    return from_json_dict(obj)
