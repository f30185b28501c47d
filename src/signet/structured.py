"""Spectra of signed graphs from an expression tree, building as little as possible.

A graph is a tree of nodes: a **leaf** (path, cycle, complete graph), a
**dense** leaf (a built graph, such as a ``--file`` input), a **product**
``NEPS(basis, nodes...)`` or a **line** graph of a node.  Grids, cylinders and
tori are Cartesian products of two leaves.  Every field of a node is computed
on first use, bottom-up, by the cheapest exact rule:

- **leaf**: the closed forms of :mod:`signet.formulas`; balance counts
  follow from the parameters.
- **product**: adjacency eigenvalues are the NEPS sums over the basis of
  products of one factor eigenvalue per factor; order, size and extreme
  degrees follow from the factors'.  The Laplacian is the Cartesian sum of
  the factors' Laplacian values for the Cartesian basis, k - lambda for a
  k-regular product, and otherwise the dense leaf of the built product.  b,
  c and c_b multiply for the Cartesian basis; for any other basis they come
  from the balance sweep of the built product, which solves nothing.
- **line graph**: adjacency eigenvalues 2 - mu over the n - b positive base
  Laplacian eigenvalues plus 2 repeated m - n + b times; balance from
  :func:`line_balance` over the base's components.  The Laplacian is
  2(k - 1) - lambda over a k-regular base, the path closed form over a path,
  and otherwise the dense leaf of the built line graph.
- **dense leaf**: LAPACK on a built graph, and its breadth-first balance
  sweep.  Only dense leaves solve, and :func:`dense_node` is the one route
  from a built graph to its spectra and energies.

Modules are called through their attributes, so a function replaced on its
module (a test double, a tracer) is the one that runs.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from . import families, formulas, graphs, linegraph, products, spectra

__all__ = [
    "SpectralNode",
    "leaf_node",
    "dense_node",
    "product_node",
    "line_balance",
    "line_node",
    "family_node",
    "spectral_node",
]


class SpectralNode:
    """One graph of the tree.

    Fields, each computed once on first use: ``n``, ``m``, ``max_degree``,
    ``min_degree``, the sorted ``adjacency`` and ``laplacian`` eigenvalues,
    ``balance`` = (b, c, c_b), ``components`` = one (edge count, balanced,
    bipartite, maximum degree) tuple per connected component, and ``graph``,
    the built graph.
    """

    n: int
    m: int
    max_degree: int
    min_degree: int
    adjacency: np.ndarray
    laplacian: np.ndarray
    balance: tuple[int, int, int]
    graph: graphs.SignedGraph

    @property
    def regular(self) -> int | None:
        """The common degree of a regular graph with n >= 1, else None."""
        return self.max_degree if self.n and self.max_degree == self.min_degree else None

    @property
    def b(self) -> int:
        return self.balance[0]

    @property
    def c(self) -> int:
        return self.balance[1]

    @property
    def c_b(self) -> int:
        return self.balance[2]

    @graphs.lazy_field
    def components(self) -> tuple[tuple[int, bool, bool, int], ...]:
        b, c, c_b = self.balance
        if c <= 1:
            return ((self.m, b == 1, c_b == 1, self.max_degree),) * c
        return self._built.components

    @graphs.lazy_field
    def _built(self) -> SpectralNode:
        """The dense leaf of the built graph, for the fields no rule gives."""
        return dense_node(self.graph)

    @property
    def energy(self) -> float:
        return spectra.energy_from_spectrum(self.adjacency.tolist())

    @property
    def laplacian_energy(self) -> float:
        return spectra.laplacian_energy_from_spectrum(self.laplacian.tolist(), self.m)


class _Leaf(SpectralNode):
    def __init__(self, kind: str, n: int, x: int):
        self.kind, self.n, self.x = kind, n, x
        if kind == "path":
            self.m, b, c_b = n - 1, 1, 1
            self.max_degree, self.min_degree = min(n - 1, 2), min(n - 1, 1)
        elif kind == "cycle":
            self.m, b, c_b = n, 1 - formulas.parity(x), 1 - n % 2
            self.max_degree = self.min_degree = 2
        else:
            # -K_n has a negative triangle once n >= 3; K_n is bipartite only up to n = 2.
            self.m, b, c_b = n * (n - 1) // 2, int(x == 1 or n <= 2), int(n <= 2)
            self.max_degree = self.min_degree = n - 1
        self.balance = (b, 1, c_b)

    @graphs.lazy_field
    def adjacency(self) -> np.ndarray:
        if self.kind == "path":
            values = formulas.path_spectrum(self.n)
        elif self.kind == "cycle":
            values = formulas.cycle_spectrum(self.n, self.x)
        else:
            values = formulas.complete_spectrum(self.n, self.x)
        return np.sort(values)

    @graphs.lazy_field
    def laplacian(self) -> np.ndarray:
        if self.kind == "path":
            values = formulas.path_laplacian_spectrum(self.n)
        elif self.kind == "cycle":
            values = formulas.cycle_laplacian_spectrum(self.n, self.x)
        else:
            values = formulas.complete_laplacian_spectrum(self.n, self.x)
        return np.sort(values)

    @graphs.lazy_field
    def graph(self) -> graphs.SignedGraph:
        return getattr(families, self.kind)(self.n, self.x)  # families.path, .cycle, .complete


class _Dense(SpectralNode):
    def __init__(self, g: graphs.SignedGraph):
        self.graph, self.n, self.m = g, g.n, g.m

    @graphs.lazy_field
    def _matrix(self) -> np.ndarray:
        return graphs.adjacency(self.graph)

    @graphs.lazy_field
    def adjacency(self) -> np.ndarray:
        return spectra.eigenvalues(self._matrix)

    @graphs.lazy_field
    def laplacian(self) -> np.ndarray:
        return spectra.eigenvalues(graphs.laplacian_from_adjacency(self._matrix))

    @graphs.lazy_field
    def _degrees(self) -> list[int]:
        return graphs.degrees(self.graph).tolist()

    @graphs.lazy_field
    def max_degree(self) -> int:
        return max(self._degrees, default=0)

    @graphs.lazy_field
    def min_degree(self) -> int:
        return min(self._degrees, default=0)

    @graphs.lazy_field
    def _report(self) -> graphs.BalanceReport:
        return graphs.balance_report(self.graph)

    @graphs.lazy_field
    def balance(self) -> tuple[int, int, int]:
        rep = self._report
        return rep.b, rep.c, rep.c_b

    @graphs.lazy_field
    def components(self) -> tuple[tuple[int, bool, bool, int], ...]:
        deg = self._degrees
        return tuple(
            (sum(deg[v] for v in comp.vertices) // 2, comp.balanced, comp.bipartite, max(deg[v] for v in comp.vertices))
            for comp in self._report.components
        )


class _Product(SpectralNode):
    def __init__(self, basis: products.Basis, factors: Sequence[SpectralNode]):
        if basis.nu != len(factors):
            raise ValueError(f"basis arity {basis.nu} does not match {len(factors)} factors")
        self.basis, self.factors = basis, tuple(factors)
        # A basis has distinct patterns covering every coordinate, so weight-1
        # patterns alone are the unit vectors.
        self.cartesian = all(sum(vec) == 1 for vec in basis.vectors)

    def _basis_sum(self, values: Sequence) -> int:
        """Sum over the basis of the product of the support's values."""
        return sum(math.prod(x for x, bit in zip(values, vec) if bit) for vec in self.basis.vectors)

    @graphs.lazy_field
    def n(self) -> int:
        return math.prod(f.n for f in self.factors)

    @graphs.lazy_field
    def m(self) -> int:
        # Pattern beta joins prod_{beta_i} 2 m_i * prod_{not beta_i} n_i ordered vertex pairs.
        return sum(
            math.prod(2 * f.m if bit else f.n for f, bit in zip(self.factors, vec)) for vec in self.basis.vectors
        ) // 2

    # The degree of (v_1, .., v_nu) is sum_beta prod_{beta_i} d_i(v_i), which
    # grows with every d_i: the extremes are taken at the factors' extremes.
    @graphs.lazy_field
    def max_degree(self) -> int:
        return self._basis_sum([f.max_degree for f in self.factors]) if self.n else 0

    @graphs.lazy_field
    def min_degree(self) -> int:
        return self._basis_sum([f.min_degree for f in self.factors]) if self.n else 0

    @graphs.lazy_field
    def adjacency(self) -> np.ndarray:
        return np.sort(formulas.neps_sum([f.adjacency for f in self.factors], self.basis.vectors))

    @graphs.lazy_field
    def laplacian(self) -> np.ndarray:
        if self.cartesian:
            return np.sort(formulas.neps_sum([f.laplacian for f in self.factors], self.basis.vectors))
        k = self.regular
        if k is not None:
            return np.sort(float(k) - self.adjacency)
        return self._built.laplacian

    @graphs.lazy_field
    def balance(self) -> tuple[int, int, int]:
        if self.cartesian:
            # A Cartesian product of components is balanced (bipartite) iff each is.
            return tuple(math.prod(f.balance[i] for f in self.factors) for i in range(3))
        return self._built.balance

    @graphs.lazy_field
    def graph(self) -> graphs.SignedGraph:
        return products.neps([f.graph for f in self.factors], self.basis)


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


class _Line(SpectralNode):
    def __init__(self, base: SpectralNode):
        self.base = base

    @graphs.lazy_field
    def laplacian_rule(self) -> str:
        """``regular``, ``path`` or ``dense``: what gives the Laplacian, size and degrees."""
        base = self.base
        if base.regular is not None:
            return "regular"
        # A connected non-regular graph of maximum degree <= 2 is a path.
        return "path" if base.max_degree <= 2 and base.c == 1 else "dense"

    @graphs.lazy_field
    def _source(self) -> SpectralNode:
        """The node holding the Laplacian, size and degrees over a non-regular base."""
        return leaf_node("path", self.base.m, 0) if self.laplacian_rule == "path" else self._built

    @graphs.lazy_field
    def n(self) -> int:
        return self.base.m

    @graphs.lazy_field
    def m(self) -> int:
        k = self.base.regular
        return self.base.n * k * (k - 1) // 2 if k is not None else self._source.m

    @graphs.lazy_field
    def max_degree(self) -> int:
        k = self.base.regular
        if k is None:
            return self._source.max_degree
        return 2 * (k - 1) if self.base.m else 0  # the line graph of a k-regular graph is 2(k - 1)-regular

    @graphs.lazy_field
    def min_degree(self) -> int:
        return self.max_degree if self.base.regular is not None else self._source.min_degree

    @graphs.lazy_field
    def adjacency(self) -> np.ndarray:
        base = self.base
        return np.asarray(formulas.line_spectrum_general(base.laplacian, base.m, base.n, base.b), dtype=float)

    @graphs.lazy_field
    def laplacian(self) -> np.ndarray:
        k = self.base.regular
        return np.sort(2.0 * (k - 1) - self.adjacency) if k is not None else self._source.laplacian

    @graphs.lazy_field
    def balance(self) -> tuple[int, int, int]:
        return line_balance(self.base.components)

    @graphs.lazy_field
    def graph(self) -> graphs.SignedGraph:
        return linegraph.line_graph(self.base.graph).graph


def leaf_node(kind: str, n: int, x: int) -> SpectralNode:
    """Closed-form node of path(n, r=x), cycle(n, r=x) or complete(n, sign=x)."""
    return _Leaf(kind, n, x)


def dense_node(g: graphs.SignedGraph) -> SpectralNode:
    """Node of a built graph: one adjacency matrix, L = diag(|A| 1) - A,
    LAPACK on each when asked for, and a breadth-first balance sweep."""
    return _Dense(g)


def product_node(basis: products.Basis, factors: Sequence[SpectralNode]) -> SpectralNode:
    """Node of the NEPS of the factors' graphs under ``basis``."""
    return _Product(basis, factors)


def line_node(base: SpectralNode) -> SpectralNode:
    """Node of the line graph of a graph from the graph's node."""
    return _Line(base)


_FAMILY_BASIS = products.cartesian_basis(2)  # grids, cylinders and tori


def family_node(spec: families.FamilySpec) -> SpectralNode:
    """Node of a family graph from its leaves, with no graph built."""
    leaves = [leaf_node(*leaf) for leaf in families.family_leaves(spec)]
    return leaves[0] if len(leaves) == 1 else product_node(_FAMILY_BASIS, leaves)


def spectral_node(source: graphs.SignedGraph | families.FamilySpec, line: bool = False) -> SpectralNode:
    """Node of a built graph or a family, or of its line graph."""
    node = dense_node(source) if isinstance(source, graphs.SignedGraph) else family_node(source)
    return line_node(node) if line else node
