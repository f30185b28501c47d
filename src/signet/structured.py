"""Spectra of signed graphs from an expression tree, building as little as possible.

A graph is a tree of nodes: a **leaf** (path, cycle, complete graph), a
**dense** leaf (a built graph, such as a ``--file`` input), a **product**
``NEPS(basis, nodes...)`` or a **line** graph of a node.  Grids, cylinders and
tori are Cartesian products of two leaves.  Every field of a node is computed
on first use, bottom-up, by the cheapest exact rule:

- **leaf**: the adjacency closed forms of :mod:`signet.formulas` and the
  path Laplacian; balance counts follow from the parameters.
- **product**: adjacency eigenvalues are the NEPS sums over the basis of
  products of one factor eigenvalue per factor; order, size and extreme
  degrees follow from the factors'.  For the Cartesian basis the Laplacian
  is the Cartesian sum of the factors' Laplacian values, and b, c and c_b
  multiply; for any other basis balance comes from the balance sweep of
  the built product, which solves nothing.
- **line graph**: adjacency eigenvalues 2 - mu over the n - b positive base
  Laplacian eigenvalues plus 2 repeated m - n + b times; balance from
  :func:`line_balance` over the base's components.  A dense base is read
  without its isolated vertices, so its size, not its order, sets the cost.
  Over a non-regular base the Laplacian, size and degrees come from the path
  leaf when the base is a path, and otherwise from the dense leaf of the
  built line graph.
- **dense leaf**: LAPACK on a built graph, and the balance sweep of
  :func:`signet.graphs.balance_report`.  Only dense leaves solve, and
  :class:`DenseNode` is the one route from a built graph to its spectra and
  energies; :meth:`DenseNode.solve_all` solves many dense leaves in stacks,
  one LAPACK call per order and kind, and :meth:`DenseNode.blocks` cuts the
  dense leaves of a disjoint union's parts out of the built union.

A Laplacian that no rule above gives is k - lambda over a k-regular graph
(L = kI - A: cycles, complete graphs, regular products, line graphs of
regular graphs), and otherwise the dense leaf's.  ``graph`` builds the graph
with the constructors of :mod:`signet.families`, ``products`` and ``linegraph``.

Modules are called through their attributes, so a function replaced on its
module (a test double, a tracer) is the one that runs.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from . import families, formulas, graphs, linegraph, products, spectra

__all__ = [
    "SpectralNode",
    "LeafNode",
    "DenseNode",
    "ProductNode",
    "LineNode",
    "line_balance",
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
        """The common degree of a regular graph, else None; a graph with no
        vertex is regular of degree 0."""
        return self.max_degree if self.max_degree == self.min_degree else None

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
        return DenseNode(self.graph)

    def _own_laplacian(self) -> np.ndarray | None:
        """The node's own Laplacian rule, tried before the regular law; None where it has none."""
        return None

    @graphs.lazy_field
    def laplacian(self) -> np.ndarray:
        """The node's own rule, else k - lambda over a k-regular graph (L = kI - A), else the dense leaf's."""
        values = self._own_laplacian()
        if values is not None:
            return values
        k = self.regular
        return np.sort(float(k) - self.adjacency) if k is not None else self._built.laplacian

    @property
    def energy(self) -> float:
        return spectra.energy_from_spectrum(self.adjacency.tolist())

    @property
    def laplacian_energy(self) -> float:
        return spectra.laplacian_energy_from_spectrum(self.laplacian.tolist(), self.m)


class LeafNode(SpectralNode):
    """Closed-form node of path(n, r=x), cycle(n, r=x) or complete(n, sign=x)."""

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

    def _own_laplacian(self) -> np.ndarray | None:
        return np.sort(formulas.path_laplacian_spectrum(self.n)) if self.kind == "path" else None

    @graphs.lazy_field
    def graph(self) -> graphs.SignedGraph:
        return getattr(families, self.kind)(self.n, self.x)  # families.path, .cycle, .complete


class DenseNode(SpectralNode):
    """Node of a built graph: one adjacency matrix, L = diag(|A| 1) - A,
    LAPACK on each when asked for, and the graph's balance sweep."""

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

    @staticmethod
    def solve_all(adjacency: Iterable[DenseNode] = (), laplacian: Iterable[DenseNode] = ()) -> None:
        """Fill the ``adjacency`` fields of the first nodes and the
        ``laplacian`` fields of the second with one stacked LAPACK call per
        order and kind.  A field already known is not solved again, and no
        other field is solved."""
        for kind, nodes in (("adjacency", adjacency), ("laplacian", laplacian)):
            by_order: dict[int, dict[int, DenseNode]] = {}
            for node in nodes:
                if kind not in vars(node):
                    by_order.setdefault(node.n, {})[id(node)] = node
            for group in by_order.values():
                matrices = [node._matrix for node in group.values()]
                # A lone matrix is solved as a view: no copy of the largest orders.
                stack = matrices[0][None] if len(matrices) == 1 else np.stack(matrices)
                if kind == "laplacian":
                    stack = graphs.laplacian_from_adjacency(stack)
                for node, values in zip(group.values(), spectra.eigenvalues(stack)):
                    setattr(node, kind, values)

    @staticmethod
    def blocks(g: graphs.SignedGraph, block, count: int) -> Callable[[int], DenseNode]:
        """The dense leaves of the blocks of g, where vertex v lies in block
        ``block[v]``, one of 0..count-1, and is labelled by its rank there:
        ``leaf(b)`` makes the leaf of block b, with its own order, edges and
        signs, when called.  An edge between two blocks is refused with
        ValueError.

        g's edges are sorted, one stable sort by block keeps that order
        within each block, and the relabelling is increasing within a block,
        so each block's rows come out in canonical order.  A block leaf
        scatters its matrix from its rows, and makes its graph of them, with
        no second check, only when a field other than the spectra asks."""
        block = np.asarray(block, dtype=np.int64)
        edges = g.edge_array
        home = block[edges[:, 0]]
        across = home != block[edges[:, 1]]
        if across.any():
            u, v, _ = edges[across.argmax()].tolist()
            raise ValueError(f"edge ({u}, {v}) joins block {block[u]} to block {block[v]}")
        sizes = np.bincount(block, minlength=count)
        rank = np.empty(g.n, dtype=np.int64)
        rank[block.argsort(kind="stable")] = np.arange(g.n) - np.repeat(sizes.cumsum() - sizes, sizes)
        order = home.argsort(kind="stable")
        rows = edges[order]
        rows[:, :2] = rank[rows[:, :2]]
        rows.flags.writeable = False
        bounds = home[order].searchsorted(np.arange(count + 1)).tolist()
        sizes = sizes.tolist()
        return lambda b: _BlockLeaf(sizes[b], rows[bounds[b] : bounds[b + 1]])

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


class _BlockLeaf(DenseNode):
    """Dense leaf of one block of a built graph, cut by :meth:`DenseNode.blocks`."""

    def __init__(self, n: int, rows: np.ndarray):
        self.n, self.m, self._rows = n, len(rows), rows

    @graphs.lazy_field
    def _matrix(self) -> np.ndarray:
        return graphs._adjacency_of_rows(self.n, self._rows)

    @graphs.lazy_field
    def graph(self) -> graphs.SignedGraph:
        return graphs._checked(self.n, self._rows)


class ProductNode(SpectralNode):
    """Node of the NEPS of the factors' graphs under ``basis``."""

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

    def _own_laplacian(self) -> np.ndarray | None:
        if not self.cartesian:
            return None
        return np.sort(formulas.neps_sum([f.laplacian for f in self.factors], self.basis.vectors))

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


def _without_isolated(g: graphs.SignedGraph) -> graphs.SignedGraph:
    """g with its isolated vertices dropped and the others relabelled in
    order on the edge array, which keeps the edge order; g itself when it
    has none."""
    edges = g.edge_array
    ends = np.unique(edges[:, :2])
    if len(ends) == g.n:
        return g
    return graphs.SignedGraph(len(ends), np.column_stack((np.searchsorted(ends, edges[:, :2]), edges[:, 2])))


class LineNode(SpectralNode):
    """Node of the line graph of a graph, from the graph's node."""

    def __init__(self, base: SpectralNode):
        if isinstance(base, DenseNode):
            # An isolated vertex adds only a zero Laplacian eigenvalue and a
            # balanced component: m - n + b, the positive mu, the components
            # with an edge and the line graph itself stay the same without it.
            g = _without_isolated(base.graph)
            if g is not base.graph:
                base = DenseNode(g)
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
        return LeafNode("path", self.base.m, 0) if self.laplacian_rule == "path" else self._built

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
        return np.asarray(formulas.line_spectrum_general(base.laplacian, base.m, base.b), dtype=float)

    def _own_laplacian(self) -> np.ndarray | None:
        return None if self.laplacian_rule == "regular" else self._source.laplacian

    @graphs.lazy_field
    def balance(self) -> tuple[int, int, int]:
        return line_balance(self.base.components)

    @graphs.lazy_field
    def graph(self) -> graphs.SignedGraph:
        return linegraph.line_graph(self.base.graph).graph


_FAMILY_BASIS = products.cartesian_basis(2)  # grids, cylinders and tori


def spectral_node(source: graphs.SignedGraph | Sequence[tuple[str, int, int]]) -> SpectralNode:
    """Node of a built graph (its dense leaf), or of a family's leaves from
    :func:`signet.families.parse_family` (closed-form leaves, with no graph
    built).  ``LineNode(spectral_node(source))`` is its line graph's."""
    if isinstance(source, graphs.SignedGraph):
        return DenseNode(source)
    leaves = [LeafNode(*leaf) for leaf in source]
    return leaves[0] if len(leaves) == 1 else ProductNode(_FAMILY_BASIS, leaves)
