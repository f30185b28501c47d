"""Spectra of family graphs and their line graphs, without building the graph.

A ``--family`` graph is a leaf (path, cycle, complete graph) or the
Cartesian product of two leaves (grid, cylinder, torus).  Its
:class:`SpectralNode` is evaluated bottom-up, each node by the cheapest
exact rule:

- **leaf**: the closed forms of :mod:`signet.formulas`; balance counts
  follow from the parameters.
- **Cartesian product**: adjacency and Laplacian eigenvalues are all sums
  of one factor eigenvalue per factor; b, c and c_b multiply across the
  factors, and maximum degrees add.
- **line graph**: adjacency eigenvalues 2 - mu over the n - b largest base
  Laplacian eigenvalues plus 2 repeated m - n + b times; Laplacian
  2(k - 1) - lambda over a k-regular base; balance from :func:`line_balance`.
- **dense leaf**: LAPACK on a built graph.  Only ``--file`` inputs and the
  Laplacian of the line graph of a non-regular base take it.

Modules are called through their attributes, so a function replaced on its
module (a test double, a tracer) is the one that runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import families, formulas, graphs, linegraph, spectra

__all__ = [
    "SpectralNode",
    "leaf_node",
    "cartesian_node",
    "line_balance",
    "line_node",
    "dense_node",
    "family_node",
    "spectral_node",
    "adjacency_values",
]


@dataclass(frozen=True, eq=False)
class SpectralNode:
    """Order, size, sorted adjacency and Laplacian eigenvalues, balance
    counts and degree data of one graph."""

    n: int
    m: int
    adjacency: np.ndarray
    laplacian: np.ndarray
    b: int
    c: int
    c_b: int
    max_degree: int
    regular: int | None  # the common degree of a regular graph with n >= 1

    @property
    def energy(self) -> float:
        return spectra.energy_from_spectrum(self.adjacency.tolist())

    @property
    def laplacian_energy(self) -> float:
        d_bar = 2.0 * self.m / self.n if self.n else 0.0
        return spectra.laplacian_energy_from_spectrum(self.laplacian.tolist(), d_bar)


def leaf_node(kind: str, n: int, x: int) -> SpectralNode:
    """Closed-form node of path(n, r=x), cycle(n, r=x) or complete(n, sign=x)."""
    if kind == "path":
        adj, lap = formulas.path_spectrum(n), formulas.path_laplacian_spectrum(n)
        m, b, c_b, max_degree = n - 1, 1, 1, min(n - 1, 2)
        regular = n - 1 if n <= 2 else None
    elif kind == "cycle":
        adj, lap = formulas.cycle_spectrum(n, x), formulas.cycle_laplacian_spectrum(n, x)
        m, b, c_b, max_degree, regular = n, 1 - formulas.parity(x), 1 - n % 2, 2, 2
    else:
        adj, lap = formulas.complete_spectrum(n, x), formulas.complete_laplacian_spectrum(n, x)
        # -K_n has a negative triangle once n >= 3; K_n is bipartite only up to n = 2.
        m, b, c_b = n * (n - 1) // 2, int(x == 1 or n <= 2), int(n <= 2)
        max_degree = regular = n - 1
    return SpectralNode(n, m, np.sort(adj), np.sort(lap), b, 1, c_b, max_degree, regular)


def cartesian_node(f: SpectralNode, h: SpectralNode) -> SpectralNode:
    """Node of the Cartesian product of two graphs from their nodes.

    A product of two components is balanced (bipartite) iff both are, so b,
    c and c_b multiply; the degree of (u, v) is d(u) + d(v).
    """
    both_regular = f.regular is not None and h.regular is not None
    return SpectralNode(
        n=f.n * h.n,
        m=f.m * h.n + f.n * h.m,
        adjacency=np.sort(formulas.cartesian_sum([f.adjacency, h.adjacency])),
        laplacian=np.sort(formulas.cartesian_sum([f.laplacian, h.laplacian])),
        b=f.b * h.b,
        c=f.c * h.c,
        c_b=f.c_b * h.c_b,
        max_degree=f.max_degree + h.max_degree,
        regular=f.regular + h.regular if both_regular else None,
    )


def line_balance(components: Iterable[tuple[int, bool, bool, int]]) -> tuple[int, int, int]:
    """(b, c, c_b) of a line graph from the components of its base graph.

    Each base component is given as (edge count, balanced, bipartite,
    maximum degree).  Every component with an edge gives one line
    component.  That component is balanced iff the base component is
    balanced with maximum degree <= 2, and bipartite iff the base component
    is bipartite with maximum degree <= 2: three edges at one vertex w span
    a line triangle of sign (-1)^3 * prod eta_w(e)^2 = -1, while a path maps
    to a path and a cycle to a cycle of the same length and sign.
    """
    b = c = c_b = 0
    for m, balanced, bipartite, max_degree in components:
        if m:
            c += 1
            b += balanced and max_degree <= 2
            c_b += bipartite and max_degree <= 2
    return b, c, c_b


def _line_adjacency(base: SpectralNode) -> np.ndarray:
    values = formulas.line_spectrum_general(base.laplacian, base.m, base.n, base.b)
    return np.asarray(values, dtype=float)


def _degree_data(degrees: np.ndarray) -> tuple[int, int | None]:
    """(maximum degree, common degree or None) of a degree vector."""
    if degrees.size == 0:
        return 0, None
    top = int(degrees.max())
    return top, top if int(degrees.min()) == top else None


def line_node(base: SpectralNode, build_line_graph: Callable[[], graphs.SignedGraph]) -> SpectralNode:
    """Node of the line graph of a connected graph from the graph's node.

    ``build_line_graph`` is called only when the base is not regular: the
    line graph's Laplacian then comes from the dense leaf.
    """
    if base.c != 1:
        raise ValueError(f"the line rule needs a connected base graph, got {base.c} components")
    adjacency = _line_adjacency(base)
    b, c, c_b = line_balance([(base.m, base.b == 1, base.c_b == 1, base.max_degree)])
    k = base.regular
    if k is not None:
        # The line graph of a k-regular graph is 2(k - 1)-regular.
        laplacian = np.sort(2.0 * (k - 1) - adjacency)
        m = base.n * k * (k - 1) // 2
        max_degree, regular = (2 * (k - 1), 2 * (k - 1)) if base.m else (0, None)
    else:
        lg = build_line_graph()
        lap_matrix = graphs.laplacian(lg)
        laplacian = np.asarray(spectra.eigenvalues(lap_matrix).values)
        m = lg.m
        max_degree, regular = _degree_data(np.diag(lap_matrix))
    return SpectralNode(base.m, m, adjacency, laplacian, b, c, c_b, max_degree, regular)


def dense_node(g: graphs.SignedGraph) -> SpectralNode:
    """Node of a built graph: one adjacency matrix, L = diag(|A| 1) - A,
    LAPACK on both and a breadth-first balance sweep."""
    a = graphs.adjacency(g)
    lap = graphs.laplacian_from_adjacency(a)
    rep = graphs.balance_report(g)
    max_degree, regular = _degree_data(np.diag(lap))
    return SpectralNode(
        g.n,
        g.m,
        np.asarray(spectra.eigenvalues(a).values),
        np.asarray(spectra.eigenvalues(lap).values),
        rep.b,
        rep.c,
        rep.c_b,
        max_degree,
        regular,
    )


def family_node(spec: families.FamilySpec) -> SpectralNode:
    """Node of a family graph from its leaves, with no graph built."""
    return functools.reduce(cartesian_node, (leaf_node(*leaf) for leaf in families.family_leaves(spec)))


def spectral_node(source: graphs.SignedGraph | families.FamilySpec, line: bool = False) -> SpectralNode:
    """Node of a built graph or a family, or of its line graph."""
    if isinstance(source, graphs.SignedGraph):
        return dense_node(linegraph.line_graph(source).graph if line else source)
    node = family_node(source)
    if line:
        node = line_node(node, lambda: linegraph.line_graph(families.build_family(source)).graph)
    return node


def adjacency_values(source: graphs.SignedGraph | families.FamilySpec, line: bool = False) -> np.ndarray:
    """Sorted adjacency eigenvalues alone, by the same routes as
    :func:`spectral_node`."""
    if isinstance(source, graphs.SignedGraph):
        g = linegraph.line_graph(source).graph if line else source
        return np.asarray(spectra.adjacency_spectrum(g).values)
    node = family_node(source)
    return _line_adjacency(node) if line else node.adjacency
