"""Brute-force referees the tests pit against the production algorithms.

Everything here is deliberately independent of the main implementations:
components come from union-find or a breadth-first sweep rather than the
double-cover sweep of :func:`signet.graphs.balance_report`, balance is
decided by exhaustive cycle enumeration, exhaustive switching or a
spanning tree's switching, and eigenvalues come from a pure-Python Householder
tridiagonalisation followed by implicit-shift QL rather than the LAPACK
routine behind :func:`signet.spectra.eigenvalues`, line graphs come from
a pair loop over each vertex's incident edges rather than the whole-array
build of :func:`signet.linegraph.line_graph`, and random graphs come from
one ``rng.random()`` call per decision rather than the block draws of
:func:`signet.families.random_signed_graph`.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

import numpy as np

from signet.graphs import BalanceReport, SignedGraph
from signet.spectra import EigensolverError

_CYCLE_CAP = 10
_SWITCH_CAP = 16
_MAX_QL_ITERATIONS = 100


def _union_find_components(g: SignedGraph) -> list[list[int]]:
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values(), key=min)


def balance_by_breadth_first(g: SignedGraph) -> BalanceReport:
    """The balance report of g from one breadth-first sweep of its triples.

    A breadth-first spanning tree fixes a tentative switching (root +1,
    child = parent * edge sign); the component is balanced exactly when all
    non-tree edges also become positive under it.  The same sweep
    two-colours the underlying graph to count bipartite components.
    Each vertex's root is the least vertex of its component, the sweep's
    start there, and components are listed by increasing root.
    """
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for u, v, s in g.edges:
        nbrs[u].append((v, s))
        nbrs[v].append((u, s))
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

    return BalanceReport(
        root=np.array([comp_vertices[cid][0] for cid in comp_id], dtype=np.int64),
        component_balanced=np.array(comp_balanced, dtype=bool),
        component_bipartite=np.array(comp_bipartite, dtype=bool),
        switch=np.array(sigma, dtype=np.int64),
        b=sum(comp_balanced),
        c=c,
        c_b=sum(comp_bipartite),
    )


def balance_by_cycles(g: SignedGraph) -> list[tuple[frozenset[int], bool]]:
    """Decide balance per component by enumerating every simple cycle.

    Returns (vertex set, balanced) pairs sorted by smallest vertex.  A
    component is balanced exactly when no enumerated cycle has negative
    sign product.  Exponential; capped at n <= 10.
    """
    if g.n > _CYCLE_CAP:
        raise ValueError(f"cycle enumeration capped at n <= {_CYCLE_CAP}, got {g.n}")
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for u, v, s in g.edges:
        nbrs[u].append((v, s))
        nbrs[v].append((u, s))

    components = _union_find_components(g)
    comp_of = {}
    for i, comp in enumerate(components):
        for v in comp:
            comp_of[v] = i
    has_negative_cycle = [False] * len(components)

    def extend(start: int, here: int, sign: int, on_path: list[bool], depth: int):
        for nxt, s in nbrs[here]:
            if nxt == start and depth >= 3:
                if sign * s < 0:
                    has_negative_cycle[comp_of[start]] = True
            elif nxt > start and not on_path[nxt]:
                on_path[nxt] = True
                extend(start, nxt, sign * s, on_path, depth + 1)
                on_path[nxt] = False

    for start in range(g.n):
        on_path = [False] * g.n
        on_path[start] = True
        extend(start, start, 1, on_path, 1)

    return [
        (frozenset(comp), not has_negative_cycle[i])
        for i, comp in enumerate(components)
    ]


def balance_by_switching(g: SignedGraph) -> bool:
    """Decide balance of the whole graph by trying every switching.

    For each component the first vertex is pinned to +1 and the remaining
    2**(k-1) sign patterns are tried; the graph is balanced when every
    component admits a pattern making all its edges positive.  Capped at
    n <= 16.
    """
    if g.n > _SWITCH_CAP:
        raise ValueError(f"switching search capped at n <= {_SWITCH_CAP}, got {g.n}")
    for comp in _union_find_components(g):
        edges = [(u, v, s) for u, v, s in g.edges if u in comp and v in comp]
        if not edges:
            continue
        index = {v: i for i, v in enumerate(comp)}
        k = len(comp)
        found = False
        for pattern in itertools.product((1, -1), repeat=k - 1):
            signs = (1,) + pattern
            if all(signs[index[u]] * s * signs[index[v]] == 1 for u, v, s in edges):
                found = True
                break
        if not found:
            return False
    return True


def line_graph_by_pairs(g: SignedGraph) -> SignedGraph:
    """The signed line graph of g, one incident edge pair at a time.

    Vertices are edge indices of g in stored order.  For source edge
    (u, v, s) the incidence entry is +1 at u and -s at v; edges e < f
    meeting at w are joined with sign -eta_w(e) * eta_w(f).  Incidences are
    collected at edge endpoints only, so the work does not grow with the
    order of g.
    """
    incident: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for k, (u, v, s) in enumerate(g.edges):
        incident[u].append((k, 1))
        incident[v].append((k, -s))
    edges = []
    for here in incident.values():
        # Edge indices were appended in increasing order, so e < f.
        for a, (e, eta_e) in enumerate(here):
            for f, eta_f in here[a + 1 :]:
                edges.append((e, f, -eta_e * eta_f))
    return SignedGraph(g.m, tuple(edges))


def random_signed_graph_by_pairs(rng, n: int, p: float) -> SignedGraph:
    """The seeded uniform model one decision at a time: each pair u < v in
    lexicographic order is an edge when ``rng.random() < p``, and then
    positive when the next ``rng.random() < 0.5``."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, 1 if rng.random() < 0.5 else -1))
    return SignedGraph(n, tuple(edges))


def _householder_tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a symmetric matrix in place; return (diagonal, subdiagonal)."""
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1 :, k]
        norm_x = math.sqrt(float(x @ x))
        if norm_x == 0.0:
            continue
        alpha = -math.copysign(norm_x, x[0]) if x[0] != 0.0 else -norm_x
        v = x.copy()
        v[0] -= alpha
        vnorm = math.sqrt(float(v @ v))
        if vnorm == 0.0:
            continue
        v /= vnorm
        sub = a[k + 1 :, k + 1 :]
        w = sub @ v
        w -= (v @ w) * v
        sub -= 2.0 * np.outer(v, w)
        sub -= 2.0 * np.outer(w, v)
        a[k + 1, k] = alpha
        a[k + 2 :, k] = 0.0
    return np.diag(a).copy(), np.diag(a, -1).copy()


def _ql_eigenvalues(d: np.ndarray, e: np.ndarray, scale: float) -> np.ndarray:
    """Implicit-shift QL on a symmetric tridiagonal matrix, values only."""
    n = d.size
    e = np.concatenate([e, [0.0]])
    eps = np.finfo(float).eps
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= eps * dd or abs(e[m]) <= eps * eps * scale:
                    break
                m += 1
            if m == l:
                break
            iterations += 1
            if iterations > _MAX_QL_ITERATIONS:
                raise EigensolverError(
                    f"eigenvalue {l} did not converge within "
                    f"{_MAX_QL_ITERATIONS} QL iterations"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = 1.0
            c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    return d


def eigenvalues_ql(matrix) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, sorted ascending.

    Householder reflections reduce a float copy to tridiagonal form and
    the implicit-shift QL iteration finds its eigenvalues, accurate to
    machine precision relative to the matrix norm.  Raises
    :class:`EigensolverError` if an eigenvalue fails to converge within
    the iteration cap.
    """
    work = np.array(matrix, dtype=float, copy=True)
    n = work.shape[0]
    if n < 2:
        return np.diag(work).copy()
    scale = float(np.sqrt((work * work).sum()))
    if scale == 0.0:
        return np.zeros(n)
    d, e = _householder_tridiagonalize(work)
    vals = _ql_eigenvalues(d, e, scale)
    vals.sort()
    return vals
