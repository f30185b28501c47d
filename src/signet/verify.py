"""Randomised and exhaustive property suites behind ``signet verify``.

Each suite, ``SUITES[name](max_n=..., seed=...)``, runs a batch of
independent checks and reports how many ran and which failed.  All its
randomness is drawn from the seed, so a call is exactly reproducible.
Every spectrum and energy a suite checks against comes from
:func:`signet.structured.spectral_node` of the built graph, its dense leaf.

The suites that solve build their cases in order, with the same draws as one
case at a time, and check them in batches whose dense fields
:meth:`DenseNode.solve_all` first fills, one LAPACK call per order and kind.
A budget of matrix entries, not of cases, bounds a batch at any ``--max``.
``kirchhoff``, ``rank``, ``acharya`` and ``line-theorems`` draw each batch of
random graphs as one disjoint union, cut each case's dense leaf out of it,
and read each case's balance from one balance sweep of the union.
``closed-forms`` builds each run of its cases as one graph, a disjoint union
or a Cartesian product of two, and its line graph, and cuts each case's dense
leaves out of them as blocks (:meth:`DenseNode.blocks`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import formulas
from .families import _random_edges, cycle, parse_family, random_signed_graph
from .graphs import (
    SignedGraph,
    adjacency,
    balance_report,
    degrees,
    disjoint_union,
    incidence,
    laplacian,
    underlying,
)
from .linegraph import line_graph
from .oracle import rank_exact
from .products import Basis, cartesian, kron_sum_over_basis, neps, tensor_basis
from .structured import DenseNode, LeafNode, LineNode, spectral_node

__all__ = ["SuiteResult", "SUITES", "multiset_gap"]

DEFAULT_SEED = 0x9E3779B97F4A7C15

_BATCH_ENTRIES = 2**15  # matrix entries a batch of cases gathers before its stacked solve


@dataclass
class SuiteResult:
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, passed: bool, message: str):
        self.checks += 1
        if not passed:
            self.failures.append(message)


def multiset_gap(a, b) -> float:
    """The largest gap between two real multisets matched in sorted order:
    inf when their sizes differ, NaN when a value is NaN, 0 when both are
    empty.  Every comparison of two spectra is ``multiset_gap(a, b) <= tol``."""
    a, b = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        return math.inf
    return float(np.abs(a - b).max(initial=0.0))


def _solved_in_batches(cases):
    """The payloads of ``(adjacency nodes, Laplacian nodes, payload)`` cases,
    in order, each yielded once its batch's dense fields are solved; a batch
    closes once those fields hold ``_BATCH_ENTRIES`` matrix entries."""
    batch, adjacency, laplacian, entries = [], [], [], 0
    for adj, lap, payload in cases:
        batch.append(payload)
        adjacency += adj
        laplacian += lap
        entries += sum(node.n**2 for node in (*adj, *lap))
        if entries >= _BATCH_ENTRIES:
            DenseNode.solve_all(adjacency, laplacian)
            yield from batch
            batch, adjacency, laplacian, entries = [], [], [], 0
    DenseNode.solve_all(adjacency, laplacian)
    yield from batch


def _random_batches(rng, max_n: int, count: int):
    """The suite's ``count`` random graphs as batches ``(first, union, block,
    size)``: cases first..first+size-1, each drawn as one
    :func:`random_signed_graph` call would draw it (n from 1..max_n, p from
    0.2, 0.5, 0.8), joined in one disjoint union whose vertex v belongs to
    case ``first + block[v]``.  A batch closes once its cases hold
    ``_BATCH_ENTRIES`` matrix entries, n^2 + m^2 each.  Each case's rows are
    canonical and shifted past the cases before it, so the union's are too."""
    first = 0
    while first < count:
        drawn, orders, entries = [], [], 0
        while first + len(orders) < count and entries < _BATCH_ENTRIES:
            n = int(rng.integers(1, max_n + 1))
            drawn.append(_random_edges(rng, n, (0.2, 0.5, 0.8)[rng.integers(0, 3)]))
            orders.append(n)
            entries += n * n + len(drawn[-1]) ** 2
        rows = np.array([edge for edges in drawn for edge in edges], dtype=np.int64).reshape(-1, 3)
        offsets = np.cumsum(orders) - orders
        rows[:, :2] += np.repeat(offsets, [len(edges) for edges in drawn])[:, None]
        yield first, SignedGraph(sum(orders), rows), np.repeat(np.arange(len(orders)), orders), len(orders)
        first += len(orders)


def _block_balance(g: SignedGraph, block, count: int) -> list[list[int]]:
    """(b, c, c_b) of each block of g, from one balance sweep of g: its
    components are listed by least vertex, so each one's block is
    ``block[root]``."""
    components = balance_report(g).components
    counts = np.zeros((count, 3), dtype=np.int64)
    verdicts = [(comp.balanced, 1, comp.bipartite) for comp in components]
    np.add.at(counts, block[[comp.vertices[0] for comp in components]], verdicts)
    return counts.tolist()


def kirchhoff_suite(max_n: int = 8, seed: int = DEFAULT_SEED) -> SuiteResult:
    """incidence @ incidence.T equals the Laplacian, exactly, in integers."""
    rng = np.random.default_rng(seed)
    result = SuiteResult()
    for first, union, block, size in _random_batches(rng, max_n, 200):
        leaf = DenseNode.blocks(union, block, size)
        for k in range(size):
            g = leaf(k).graph
            h = incidence(g)
            ok = np.array_equal(h @ h.T, laplacian(g))
            result.record(ok, f"graph {first + k} (n={g.n}, m={g.m}): H H^T != L")
    return result


def rank_suite(max_n: int = 8, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Exact rational rank of the Laplacian is n minus balanced components."""
    rng = np.random.default_rng(seed)
    result = SuiteResult()
    for first, union, block, size in _random_batches(rng, max_n, 200):
        leaf = DenseNode.blocks(union, block, size)
        for k, (b, _, _) in enumerate(_block_balance(union, block, size)):
            g = leaf(k).graph
            got = rank_exact(laplacian(g))
            result.record(got == g.n - b, f"graph {first + k}: rank {got} != n - b = {g.n - b}")
    return result


def acharya_suite(max_n: int = 8, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Balanced iff cospectral with the all-positive underlying graph."""
    rng = np.random.default_rng(seed)
    result = SuiteResult()
    for first, union, block, size in _random_batches(rng, max_n, 200):
        signed, plain = (DenseNode.blocks(g, block, size) for g in (union, underlying(union)))
        cases = [(signed(k), plain(k)) for k in range(size)]
        DenseNode.solve_all([node for case in cases for node in case])
        for k, ((signed, plain), (b, c, _)) in enumerate(zip(cases, _block_balance(union, block, size))):
            same = multiset_gap(signed.adjacency, plain.adjacency) <= 1e-8
            balanced = b == c
            result.record(same == balanced, f"graph {first + k}: cospectral={same} but balanced={balanced}")
    return result


def _random_factors(rng, max_n: int) -> list[SignedGraph]:
    """One to three random factors of orders 1..min(4, max_n)."""
    nu = int(rng.integers(1, 4))
    orders = [int(rng.integers(1, min(4, max_n) + 1)) for _ in range(nu)]
    return [random_signed_graph(rng, n, (0.3, 0.6, 0.9)[rng.integers(0, 3)]) for n in orders]


def _random_basis(rng, nu: int) -> Basis:
    patterns = [vec for vec in itertools.product((0, 1), repeat=nu) if any(vec)]
    while True:
        mask = rng.random(len(patterns)) < 0.5
        chosen = [p for p, keep in zip(patterns, mask) if keep]
        if chosen and all(any(p[i] for p in chosen) for i in range(nu)):
            return Basis(nu, tuple(chosen))


def neps_matrix_suite(max_n: int = 8, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Product adjacency equals the Kronecker sum over the basis, exactly."""
    rng = np.random.default_rng(seed)
    result = SuiteResult()
    for i in range(100):
        factors = _random_factors(rng, max_n)
        basis = _random_basis(rng, len(factors))
        built = adjacency(neps(factors, basis))
        summed = kron_sum_over_basis([adjacency(f) for f in factors], basis)
        result.record(
            np.array_equal(built, summed),
            f"case {i}: adjacency(neps) != kron sum (orders {[f.n for f in factors]})",
        )
    return result


def _factors_with_edges(rng, max_n: int) -> list[SignedGraph]:
    # Every factor needs an edge, so factors of order 2 must be allowed.
    while True:
        factors = _random_factors(rng, max(max_n, 2))
        if all(f.m > 0 for f in factors):
            return factors


def energy_bounds_suite(max_n: int = 8, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Per-vertex energy of a product is bounded by the basis sum of factor
    energies; equality for the tensor basis, strict otherwise."""
    rng = np.random.default_rng(seed)
    result = SuiteResult()

    def cases():
        for i in range(60):
            factors = _factors_with_edges(rng, max_n)
            basis = _random_basis(rng, len(factors))
            product, nodes = spectral_node(neps(factors, basis)), [spectral_node(f) for f in factors]
            cart = spectral_node(cartesian(factors)) if len(factors) >= 2 else None
            yield (product, *nodes), (cart, *nodes) if cart is not None else (), (i, basis, product, nodes, cart)

    for i, basis, product, factors, cart in _solved_in_batches(cases()):
        nu = len(factors)
        lhs = product.energy / product.n
        factor_rates = [f.energy / f.n for f in factors]
        rhs = sum(
            math.prod(r for r, bit in zip(factor_rates, vec) if bit)
            for vec in basis.vectors
        )
        result.record(lhs <= rhs + 1e-9, f"case {i}: bound violated ({lhs} > {rhs})")
        if basis == tensor_basis(nu):
            result.record(abs(lhs - rhs) <= 1e-8, f"case {i}: tensor equality broken")
        elif len(basis.vectors) > 1:
            result.record(rhs - lhs > 1e-9, f"case {i}: strictness broken ({lhs} vs {rhs})")
        if cart is not None:
            l_lhs = cart.laplacian_energy / cart.n
            l_rhs = sum(f.laplacian_energy / f.n for f in factors)
            result.record(
                l_lhs <= l_rhs + 1e-9, f"case {i}: Laplacian bound violated"
            )
            if sum(1 for f in factors if f.m) >= 2:
                result.record(
                    l_rhs - l_lhs > 1e-9, f"case {i}: Laplacian strictness broken"
                )
    return result


_SIGN_PAIRS = ((0, 0), (1, 0), (0, 1), (1, 1))


def _closed_form_runs(max_n: int):
    """The closed-forms cases in order, as (family string, check the graph,
    check its line graph, check the line graph's Laplacian where a rule gives
    it), in runs of consecutive cases whose graphs are built together: the
    plain paths, the cycles, the grids, cylinders and tori of each m, the
    complete graphs and the line-only paths.  A run of two-leaf families
    pairs every first leaf with every second."""
    top = range(1, max_n + 1)
    yield [(f"path:n={n},r={r}", True, False, False) for n in top for r in range(n)]
    yield [(f"cycle:n={n},r={r}", True, True, False) for n in range(3, max_n + 1) for r in range(n + 1)]
    for m in top:
        yield [
            (f"grid:m={m},r1={r1},n={n},r2={r2}", True, r1 == r2 == 0, True)
            for n in top
            for r1, r2 in _SIGN_PAIRS
            if r1 < m and r2 < n
        ]
    for m in range(3, max_n + 1):
        yield [(f"cylinder:m={m},r1={r1},n={n}", True, True, True) for n in top for r1 in (0, 1)]
    for m in range(3, max_n + 1):
        yield [
            (f"torus:m={m},r1={r1},n={n},r2={r2}", True, True, True)
            for n in range(3, max_n + 1)
            for r1, r2 in _SIGN_PAIRS
        ]
    yield [(f"complete:n={n},sign={sign}", False, True, True) for n in top for sign in "+-"]
    yield [(f"path:n={n},r={r}", False, True, True) for n in top for r in range(n)]


def _run_blocks(leaves, lined: bool):
    """The dense leaves of a run of family graphs, given by their
    :func:`parse_family` leaves, cut as blocks from one build:
    ``(cut, leaf, line)``, where ``leaf(cut[k])`` makes the dense leaf of
    the k-th family's graph and, when ``lined``, ``line(cut[k])`` that of
    its line graph (else ``line`` is None).

    The distinct first leaves are built once each and joined in one
    disjoint union, and so are the second leaves.  The run's graph is the
    first union, or the Cartesian product of the two unions: that is the
    disjoint union of the products of one first and one second leaf, and
    product vertex (j1, j2) lies in block b1[j1] * B2 + b2[j2] (B2 second
    leaves) at its rank there, its row-major index in that one product.
    The line graph is built once, and each of its vertices, an edge of the
    run's graph, lies in the block of the edge's endpoints."""
    cut, count = [0] * len(leaves), 1
    for i, column in enumerate(zip(*leaves)):
        index = {leaf: j for j, leaf in enumerate(dict.fromkeys(column))}
        gs = [LeafNode(*leaf).graph for leaf in index]
        union, own = disjoint_union(gs), np.repeat(np.arange(len(gs)), [g.n for g in gs])
        if i:
            graph, block = cartesian([graph, union]), np.add.outer(block * len(gs), own).ravel()
        else:
            graph, block = union, own
        cut = [b * len(gs) + index[lv[i]] for b, lv in zip(cut, leaves)]
        count *= len(gs)
    line = DenseNode.blocks(line_graph(graph).graph, block[graph.edge_array[:, 0]], count) if lined else None
    return cut, DenseNode.blocks(graph, block, count), line


def closed_forms_suite(max_n: int = 6, seed: int = DEFAULT_SEED) -> SuiteResult:
    """The structured family nodes that ``spectrum --family`` answers with,
    and their line-graph rules, match the dense solver within 1e-8.

    It checks every family up to ``max_n`` and draws nothing, so ``seed``
    is not used: every seed gives the same cases and the same output."""
    result = SuiteResult()

    def check(label, node_values, solved):
        result.record(multiset_gap(node_values, solved) <= 1e-8, f"{label}: node != solver")

    def cases():
        for run in _closed_form_runs(max_n):
            if not run:
                continue
            leaves = [parse_family(text) for text, *_ in run]
            cut, leaf, line_leaf = _run_blocks(leaves, any(line for _, _, line, _ in run))
            for (text, plain, line, line_laplacian), family, b in zip(run, leaves, cut):
                node = spectral_node(family)
                dense = leaf(b) if plain else None
                lined = LineNode(node) if line else None
                dense_line = line_leaf(b) if line else None
                # A line Laplacian from the dense leaf would be compared with itself.
                line_laplacian = line_laplacian and line and lined.laplacian_rule != "dense"
                adjacency = [x for x in (dense, dense_line) if x is not None]
                laplacian = [dense] * plain + [dense_line] * line_laplacian
                yield adjacency, laplacian, (text, node, dense, lined, dense_line, line_laplacian)

    for text, node, dense, lined, dense_line, line_laplacian in _solved_in_batches(cases()):
        if dense is not None:
            check(f"{text} adjacency", node.adjacency, dense.adjacency)
            check(f"{text} laplacian", node.laplacian, dense.laplacian)
        if lined is not None:
            try:
                check(f"line({text}) adjacency", lined.adjacency, dense_line.adjacency)
                if line_laplacian:
                    check(f"line({text}) laplacian", lined.laplacian, dense_line.laplacian)
            except ValueError as exc:
                result.record(False, f"line({text}): the line rule refuses the node: {exc}")
    return result


def line_theorems_suite(max_n: int = 8, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Line-graph matrix identity and spectrum reconstruction on random graphs."""
    rng = np.random.default_rng(seed)
    result = SuiteResult()
    for first, union, block, size in _random_batches(rng, max_n, 150):
        # The line graph of a union is the union of the line graphs, each
        # vertex, an edge of the union, in the block of its endpoints.
        base = DenseNode.blocks(union, block, size)
        lined = DenseNode.blocks(line_graph(union).graph, block[union.edge_array[:, 0]], size)
        cases = [(base(k), lined(k)) for k in range(size)]
        DenseNode.solve_all([lined for _, lined in cases], [base for base, _ in cases])
        for k, ((base, lined), (b, _, _)) in enumerate(zip(cases, _block_balance(union, block, size))):
            i, g, lg = first + k, base.graph, lined.graph
            h = incidence(g)
            identity_ok = np.array_equal(
                adjacency(lg), 2 * np.eye(g.m, dtype=np.int64) - h.T @ h
            )
            result.record(identity_ok, f"graph {i}: A(line) != 2I - H^T H")
            got = lined.adjacency
            try:
                expected = formulas.line_spectrum_general(base.laplacian, base.m, b)
                matched = multiset_gap(expected, got) <= 1e-8
                problem = "" if matched else "line spectrum does not match the Laplacian construction"
            except ValueError as exc:
                problem = f"the line rule refuses the graph: {exc}"
            result.record(not problem, f"graph {i}: {problem}")
            result.record(
                all(v <= 2.0 + 1e-8 for v in got), f"graph {i}: eigenvalue above 2"
            )
    for n in range(3, 9):
        for r in range(n + 1):
            lg = line_graph(cycle(n, r)).graph
            cyc_ok = lg.n == n and lg.m == n and (degrees(lg) == 2).all()
            result.record(
                cyc_ok and lg.edge_array[:, 2].prod() == (-1) ** r,
                f"line(cycle({n},{r})): not a cycle with sign (-1)^{r}",
            )
    return result


SUITES = {
    "kirchhoff": kirchhoff_suite,
    "rank": rank_suite,
    "acharya": acharya_suite,
    "neps-matrix": neps_matrix_suite,
    "energy-bounds": energy_bounds_suite,
    "closed-forms": closed_forms_suite,
    "line-theorems": line_theorems_suite,
}
