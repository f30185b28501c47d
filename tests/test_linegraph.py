"""Signed line graphs: matrix identity, signs and spectrum law."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TEST_SEED, assert_multiset_close, small_signed_graphs
from referees import line_graph_by_pairs

from signet.families import complete, cycle, path, random_signed_graph
from signet.graphs import (
    SignedGraph,
    adjacency,
    balance_report,
    degrees,
    disjoint_union,
    dumps,
    incidence,
    negate,
)
from signet.linegraph import line_graph
from signet.structured import DenseNode, spectral_node


def _incidence_line_adjacency(g: SignedGraph) -> np.ndarray:
    """2I - H.T @ H, with H over the endpoints of g only: a vertex with no
    edge gives a zero row of H, which adds nothing to H.T @ H."""
    row = {x: i for i, x in enumerate(sorted({x for u, v, _ in g.edges for x in (u, v)}))}
    h = np.zeros((len(row), g.m), dtype=np.int64)
    for k, (u, v, s) in enumerate(g.edges):
        h[row[u], k] = 1
        h[row[v], k] = -s
    return 2 * np.eye(g.m, dtype=np.int64) - h.T @ h


def _assert_refereed(g: SignedGraph):
    """The line graph of g is one edge array equal to the pair loop's graph,
    with the same JSON text, and its adjacency is 2I - H^T H."""
    lg = line_graph(g).graph
    want = line_graph_by_pairs(g)
    assert "edges" not in vars(lg) and lg.n == g.m
    assert lg == want and dumps(lg) == dumps(want)
    assert np.array_equal(adjacency(lg), _incidence_line_adjacency(g))


def _both_forms(g: SignedGraph) -> tuple[SignedGraph, SignedGraph]:
    """g given at the door as triples and as an int64 array."""
    return SignedGraph(g.n, g.edges), SignedGraph(g.n, g.edge_array.copy())


def test_line_of_path_three_is_one_edge():
    for r in range(3):
        res = line_graph(path(3, r))
        assert res.graph.n == 2 and res.graph.m == 1


def test_line_edge_sign_follows_incidence_convention():
    # For P_3 the two incidence entries at the centre are -s1 and +1, so
    # the line edge sign is -(-s1) = s1.
    for s1 in (1, -1):
        g = SignedGraph(3, ((0, 1, s1), (1, 2, 1)))
        (u, v, sign), = line_graph(g).graph.edges
        assert (u, v, sign) == (0, 1, s1)


def test_star_becomes_negative_triangle():
    star = SignedGraph(4, ((0, 1, 1), (0, 2, 1), (0, 3, 1)))
    lg = line_graph(star).graph
    assert lg.n == 3 and lg.m == 3
    assert all(s == -1 for _, _, s in lg.edges)
    assert not balance_report(lg).balanced


def test_matrix_identity_on_random_graphs():
    rng = np.random.default_rng(TEST_SEED)
    for _ in range(80):
        g = random_signed_graph(rng, int(rng.integers(1, 9)), 0.5)
        if g.m > 30:
            continue
        h = incidence(g)
        lg = line_graph(g).graph
        assert np.array_equal(
            adjacency(lg), 2 * np.eye(g.m, dtype=np.int64) - h.T @ h
        )
    for _ in range(60):  # denser graphs, in both forms, against the pair loop too
        g = random_signed_graph(rng, int(rng.integers(1, 16)), float(rng.random()))
        for form in _both_forms(g):
            _assert_refereed(form)


def test_all_negative_signature_negates_the_classical_line_graph():
    # With every edge negative the incidence matrix is the unsigned 0/1
    # one, so the line graph comes out all-negative on the classical
    # line-graph structure; its spectrum is the reflected spectrum of the
    # all-positive classical line graph.
    from signet.graphs import underlying

    rng = np.random.default_rng(TEST_SEED + 2)
    for _ in range(20):
        g = underlying(random_signed_graph(rng, int(rng.integers(2, 8)), 0.6))
        pos_line = line_graph(g).graph
        neg_line = line_graph(negate(g)).graph
        assert underlying(neg_line) == underlying(pos_line)
        assert all(s == -1 for _, _, s in neg_line.edges)
        classical = underlying(pos_line)
        assert_multiset_close(
            spectral_node(neg_line).adjacency,
            [-v for v in spectral_node(classical).adjacency],
            tol=1e-8,
        )


def test_cycles_stay_cycles_with_preserved_sign():
    for n in range(3, 9):
        for r in range(n + 1):
            lg = line_graph(cycle(n, r)).graph
            assert lg.n == n and lg.m == n
            degs = [0] * n
            prod = 1
            for u, v, s in lg.edges:
                degs[u] += 1
                degs[v] += 1
                prod *= s
            assert degs == [2] * n
            assert prod == (-1) ** r


def test_eigenvalue_window():
    rng = np.random.default_rng(TEST_SEED + 3)
    for _ in range(30):
        g = random_signed_graph(rng, int(rng.integers(2, 9)), 0.6)
        if g.m == 0:
            continue
        vals = spectral_node(line_graph(g).graph).adjacency
        maxdeg = int(degrees(g).max())
        assert vals[-1] <= 2.0 + 1e-8
        assert vals[0] >= -2.0 * (maxdeg - 1) - 1e-8


def test_spectrum_law_from_laplacian():
    rng = np.random.default_rng(TEST_SEED + 4)
    for _ in range(60):
        g = random_signed_graph(rng, int(rng.integers(1, 9)), 0.5)
        rep = balance_report(g)
        lap = sorted(spectral_node(g).laplacian)
        expected = [2.0 - v for v in lap[rep.b :]] + [2.0] * (g.m - g.n + rep.b)
        got = spectral_node(line_graph(g).graph).adjacency
        assert_multiset_close(got, expected, tol=1e-7)


def test_line_of_complete_graphs():
    # +K_4: line graph is 2(k-1) = 4-regular on 6 vertices with spectrum
    # {-2 x 3, 2 x 3}; -K_3 is a negative triangle whose line graph is
    # again a negative triangle.
    lg = line_graph(complete(4, 1)).graph
    assert_multiset_close(
        spectral_node(lg).adjacency, [-2.0, -2.0, -2.0, 2.0, 2.0, 2.0]
    )
    lg3 = line_graph(complete(3, -1)).graph
    assert_multiset_close(spectral_node(lg3).adjacency, [-2.0, 1.0, 1.0])


@st.composite
def _sparse_signed_graphs(draw):
    """A graph on up to 12 used vertices of an order up to 10**18, so most
    vertices are isolated, given at the door as triples or as an edge array."""
    n = draw(st.one_of(st.integers(0, 14), st.integers(14, 10**18)))
    used = sorted(draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=min(n, 12))))
    pairs = draw(st.sets(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40))
    edges = tuple(
        (used[a], used[b], draw(st.sampled_from((1, -1))))
        for a, b in sorted(pairs)
        if a < b < len(used)
    )
    g = SignedGraph(n, edges)
    return SignedGraph(n, g.edge_array.copy()) if draw(st.booleans()) else g


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_sparse_signed_graphs())
def test_line_graph_matches_the_pair_loop_and_the_incidence_identity(g):
    _assert_refereed(g)


@pytest.mark.parametrize("d", range(41))
def test_line_graph_of_a_star_is_a_signed_complete_graph(d):
    """K_{1,d} with its centre in the middle of the labels: every pair of
    edges meets there, so the line graph is K_d with C(d, 2) edges."""
    rng = np.random.default_rng(TEST_SEED + d)
    centre = d // 2
    leaves = [x for x in range(d + 1) if x != centre]
    star = SignedGraph(d + 1, tuple((min(x, centre), max(x, centre), int(s)) for x, s in zip(leaves, rng.choice((1, -1), d))))
    for g in _both_forms(star):
        _assert_refereed(g)
        assert line_graph(g).graph.m == d * (d - 1) // 2


def test_line_graph_with_no_edge_or_one_edge():
    for g in (SignedGraph(0), SignedGraph(7), SignedGraph(2, ((0, 1, -1),)), SignedGraph(9, ((3, 8, 1),))):
        for form in _both_forms(g):
            _assert_refereed(form)
            assert line_graph(form).graph.m == 0


def test_line_graph_of_an_array_base_of_order_ten_to_the_eighteen():
    """The work does not grow with the order: three edges on 10**18 vertices."""
    big = 10**18
    g = SignedGraph(big, np.array([[0, big - 1, -1], [5, 10**17, -1], [5, big - 1, 1]], dtype=np.int64))
    _assert_refereed(g)
    # Edges 0 and 2 meet at big - 1 (entries +1 and -1), edges 1 and 2 at 5 (+1 and +1).
    assert dumps(line_graph(g).graph) == '{"n": 3, "edges": [[0, 2, 1], [1, 2, -1]]}'


def test_line_graph_refuses_a_triple_base_with_an_endpoint_past_int64():
    """An edge array cannot hold such a base, so the constructor refuses
    it, and no line graph is built of it."""
    with pytest.raises(ValueError, match="past the int64 range of edge arrays"):
        line_graph(SignedGraph(2**63 + 1, ((0, 2**63, 1), (1, 2**63, -1))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(small_signed_graphs(), min_size=1, max_size=4))
def test_line_graph_of_a_union_is_the_union_of_the_line_graphs(gs):
    """Two edges of different graphs of a union share no endpoint, so the
    line graph of the union is the union of the line graphs, each edge of
    G_b a vertex of block b, in edge order."""
    union = disjoint_union(gs)
    block = np.repeat(np.arange(len(gs)), [g.n for g in gs])[union.edge_array[:, 0]]
    leaf = DenseNode.blocks(line_graph(union).graph, block, len(gs))
    assert [leaf(b).graph for b in range(len(gs))] == [line_graph(g).graph for g in gs]
