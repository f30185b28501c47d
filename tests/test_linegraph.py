"""Signed line graphs: matrix identity, signs and spectrum law."""

from __future__ import annotations

import numpy as np

from conftest import TEST_SEED, assert_multiset_close

from signet.families import complete, cycle, path, random_signed_graph
from signet.graphs import (
    SignedGraph,
    adjacency,
    balance_report,
    degrees,
    incidence,
    negate,
)
from signet.linegraph import line_graph
from signet.structured import dense_node


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
            dense_node(neg_line).adjacency,
            [-v for v in dense_node(classical).adjacency],
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
        vals = dense_node(line_graph(g).graph).adjacency
        maxdeg = int(degrees(g).max())
        assert vals[-1] <= 2.0 + 1e-8
        assert vals[0] >= -2.0 * (maxdeg - 1) - 1e-8


def test_spectrum_law_from_laplacian():
    rng = np.random.default_rng(TEST_SEED + 4)
    for _ in range(60):
        g = random_signed_graph(rng, int(rng.integers(1, 9)), 0.5)
        rep = balance_report(g)
        lap = sorted(dense_node(g).laplacian)
        expected = [2.0 - v for v in lap[rep.b :]] + [2.0] * (g.m - g.n + rep.b)
        got = dense_node(line_graph(g).graph).adjacency
        assert_multiset_close(got, expected, tol=1e-7)


def test_line_of_complete_graphs():
    # +K_4: line graph is 2(k-1) = 4-regular on 6 vertices with spectrum
    # {-2 x 3, 2 x 3}; -K_3 is a negative triangle whose line graph is
    # again a negative triangle.
    lg = line_graph(complete(4, 1)).graph
    assert_multiset_close(
        dense_node(lg).adjacency, [-2.0, -2.0, -2.0, 2.0, 2.0, 2.0]
    )
    lg3 = line_graph(complete(3, -1)).graph
    assert_multiset_close(dense_node(lg3).adjacency, [-2.0, 1.0, 1.0])
