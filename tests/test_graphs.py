"""Data model, matrices, switching, balance and JSON round-trips."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from conftest import TEST_SEED, assert_multiset_close

import signet.graphs as graph_module
from signet.families import complete, cycle, path, random_signed_graph
from signet.graphs import (
    SignedGraph,
    adjacency,
    balance_report,
    degree_matrix,
    degrees,
    dumps,
    from_json_dict,
    incidence,
    laplacian,
    loads,
    negate,
    switch,
    to_json_dict,
    underlying,
)
from signet.structured import dense_node

_INT64_MAX = int(np.iinfo(np.int64).max)


# --- construction -----------------------------------------------------------


def test_edges_are_canonicalised_sorted():
    g = SignedGraph(4, ((2, 3, 1), (0, 1, -1)))
    assert g.edges == ((0, 1, -1), (2, 3, 1))
    assert g.m == 2


@pytest.fixture(params=["triples", "array", "short-array"])
def in_form(request, monkeypatch):
    """Edge triples as given, or as the int64 (m, 3) array that neps hands
    over: checked in numpy whatever its length ("array"), or with the
    default cut-off, below which a short array is checked edge by edge."""
    if request.param == "array":
        monkeypatch.setattr(graph_module, "ARRAY_MIN_EDGES", 0)

    def convert(edges):
        if request.param == "triples":
            return edges  # as given, so a one-shot iterator reaches the constructor
        return np.array(tuple(edges), dtype=np.int64).reshape(-1, 3)

    return convert


def test_rejects_bad_edges(in_form):
    for edges, message in (
        (((0, 0, 1),), "edge (0, 0, 1) violates 0 <= u < v < 3"),  # loop
        (((1, 0, 1),), "edge (1, 0, 1) violates 0 <= u < v < 3"),  # endpoints out of order
        (((0, 3, 1),), "edge (0, 3, 1) violates 0 <= u < v < 3"),  # endpoint out of range
        (((-1, 1, 1),), "edge (-1, 1, 1) violates 0 <= u < v < 3"),  # negative endpoint
        (((0, 1, 2),), "edge (0, 1, 2) has sign 2, expected +1 or -1"),  # bad sign
        (((0, 1, _INT64_MAX),), f"edge (0, 1, {_INT64_MAX}) has sign {_INT64_MAX}, expected +1 or -1"),  # squares to 1 mod 2^64
        (((0, 2, 1), (0, 1, 0), (2, 1, 1)), "edge (0, 1, 0) has sign 0, expected +1 or -1"),  # first bad edge
        (((0, 1, 1), (0, 1, -1)), "duplicate edge (0, 1)"),  # duplicate pair
    ):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            SignedGraph(3, in_form(edges))
    with pytest.raises(ValueError):
        SignedGraph(-1)


def test_constructor_sorts_any_input_order(in_form):
    rng = np.random.default_rng(TEST_SEED + 30)
    for n in (0, 1, 5, 12, 30):
        g = random_signed_graph(rng, n, 0.4)
        assert SignedGraph(n, in_form(reversed(g.edges))) == g
        shuffled = list(g.edges)
        rng.shuffle(shuffled)
        assert SignedGraph(n, in_form(shuffled)).edges == g.edges


def test_duplicate_pair_is_named(in_form):
    for edges, pair in (
        (((0, 1, 1), (0, 1, -1)), r"\(0, 1\)"),
        (((2, 3, 1), (0, 1, 1), (1, 2, -1), (0, 1, 1)), r"\(0, 1\)"),
        (((1, 3, -1), (0, 2, 1), (1, 3, 1)), r"\(1, 3\)"),
    ):
        with pytest.raises(ValueError, match="^duplicate edge " + pair + "$"):
            SignedGraph(4, in_form(edges))


def test_malformed_edge_is_named():
    for edge in ((0.5, 1, 1), (0, "1", 1), (0, 1, 1.0), (0, 1), (0, 1, 1, 1), None, (0, None, 1)):
        with pytest.raises(ValueError, match="malformed edge"):
            SignedGraph(3, ((1, 2, 1), edge))


def test_constructor_keeps_canonical_tuples_and_converts_the_rest():
    kept = (0, 1, -1)
    g = SignedGraph(4, (kept, [1, 2, 1], (np.int64(2), 3, True)))
    assert g.edges == ((0, 1, -1), (1, 2, 1), (2, 3, 1))
    assert g.edges[0] is kept
    assert all(type(e) is tuple and all(type(x) is int for x in e) for e in g.edges)


def test_array_graph_keeps_a_read_only_copy_and_derives_int_triples(monkeypatch):
    monkeypatch.setattr(graph_module, "ARRAY_MIN_EDGES", 0)
    given = np.array([[1, 2, 1], [0, 1, -1]], dtype=np.int64)
    g = SignedGraph(3, given)
    given[0, 2] = -1  # the caller's array is not the graph's
    assert g.m == 2
    assert not g.edge_array.flags.writeable
    assert g.edges == ((0, 1, -1), (1, 2, 1))
    assert all(type(e) is tuple and all(type(x) is int for x in e) for e in g.edges)


def test_short_array_is_kept_as_triples():
    cut = graph_module.ARRAY_MIN_EDGES
    path_edges = np.array([[u, u + 1, 1] for u in range(cut)], dtype=np.int64)
    short, full = SignedGraph(cut + 1, path_edges[:-1]), SignedGraph(cut + 1, path_edges)
    assert "edges" in vars(short) and not short.from_array
    assert "edges" not in vars(full) and full.from_array


def test_adjacency_of_a_triple_graph_makes_no_array():
    n = 2 * graph_module.ARRAY_MIN_EDGES
    g = SignedGraph(n, tuple((u, u + 1, (-1) ** u) for u in range(n - 1)))
    a = adjacency(g)
    assert "edge_array" not in vars(g)
    assert np.array_equal(a, adjacency(SignedGraph(n, np.array(g.edges, dtype=np.int64))))


def test_array_and_triple_forms_agree_on_equality_and_hash(monkeypatch):
    monkeypatch.setattr(graph_module, "ARRAY_MIN_EDGES", 0)
    rng = np.random.default_rng(TEST_SEED + 32)
    for n in (0, 1, 6, 25):
        g = random_signed_graph(rng, n, 0.5)
        h = SignedGraph(n, np.array(g.edges, dtype=np.int64).reshape(-1, 3))
        assert "edges" not in vars(h)
        assert h == g and g == h
        assert hash(h) == hash(g)
        assert h.m == g.m
        assert dumps(h) == dumps(g)
        assert to_json_dict(h) == to_json_dict(g)
        expected = np.zeros((n, n), dtype=np.int64)
        for u, v, s in g.edges:
            expected[u, v] = expected[v, u] = s
        assert np.array_equal(adjacency(h), expected)
        assert np.array_equal(degrees(h), degrees(g))
    assert SignedGraph(3, np.array([[0, 1, 1]], dtype=np.int64)) != SignedGraph(3, ((0, 1, -1),))


def test_empty_graph_is_allowed():
    g = SignedGraph(0)
    assert g.m == 0
    assert adjacency(g).shape == (0, 0)
    assert incidence(g).shape == (0, 0)
    rep = balance_report(g)
    assert (rep.b, rep.c, rep.c_b) == (0, 0, 0)


# --- matrices ---------------------------------------------------------------


def test_adjacency_single_positive_edge():
    g = SignedGraph(2, ((0, 1, 1),))
    assert adjacency(g).tolist() == [[0, 1], [1, 0]]


def test_adjacency_negative_triangle():
    a = adjacency(complete(3, -1))
    assert np.array_equal(np.diag(a), np.zeros(3, dtype=np.int64))
    off = a[~np.eye(3, dtype=bool)]
    assert set(off.tolist()) == {-1}


def test_adjacency_spectrum_of_signed_five_cycle():
    vals = dense_node(cycle(5, 1)).adjacency
    expected = [2 * math.cos((2 * j - 1) * math.pi / 5) for j in range(1, 6)]
    assert_multiset_close(vals, expected)


def test_degree_matrix_examples():
    assert np.array_equal(degree_matrix(SignedGraph(3)), np.zeros((3, 3), dtype=np.int64))
    assert np.array_equal(degree_matrix(path(3, 1)), np.diag([1, 2, 1]))
    for r in range(5):
        assert np.array_equal(degree_matrix(cycle(4, r)), 2 * np.eye(4, dtype=np.int64))


def test_laplacian_single_negative_edge():
    g = SignedGraph(2, ((0, 1, -1),))
    assert laplacian(g).tolist() == [[1, 1], [1, 1]]


def test_laplacian_of_signed_path_matrix_form():
    for n in (2, 3, 5):
        for r in range(n):
            g = path(n, r)
            corner = np.zeros((n, n), dtype=np.int64)
            corner[0, 0] = 1
            corner[n - 1, n - 1] = 1
            expected = 2 * np.eye(n, dtype=np.int64) - corner - adjacency(g)
            assert np.array_equal(laplacian(g), expected)


def test_incidence_column_convention():
    pos = incidence(SignedGraph(2, ((0, 1, 1),)))
    assert pos[:, 0].tolist() == [1, -1]
    neg = incidence(SignedGraph(2, ((0, 1, -1),)))
    assert neg[:, 0].tolist() == [1, 1]


def test_incidence_kirchhoff_small_sweep():
    rng = np.random.default_rng(TEST_SEED)
    for _ in range(100):
        g = random_signed_graph(rng, int(rng.integers(1, 7)), 0.5)
        h = incidence(g)
        assert np.array_equal(h @ h.T, laplacian(g))


# --- negate / switch --------------------------------------------------------


def test_negate_complete_and_involution():
    assert negate(complete(3, 1)) == complete(3, -1)
    rng = np.random.default_rng(TEST_SEED + 1)
    g = random_signed_graph(rng, 7, 0.5)
    assert negate(negate(g)) == g
    assert np.array_equal(adjacency(negate(g)), -adjacency(g))


def test_negate_reflects_spectrum():
    rng = np.random.default_rng(TEST_SEED + 2)
    g = random_signed_graph(rng, 8, 0.5)
    vals = dense_node(g).adjacency
    neg_vals = dense_node(negate(g)).adjacency
    assert_multiset_close(neg_vals, [-v for v in vals], tol=1e-8)


def test_switch_identity_and_length_check():
    g = cycle(5, 2)
    assert switch(g, [1] * 5) == g
    with pytest.raises(ValueError):
        switch(g, [1, -1])
    with pytest.raises(ValueError):
        switch(g, [1, 1, 1, 0, 1])


def test_switch_preserves_unbalance_of_triangle():
    tri = cycle(3, 1)
    for bits in range(8):
        s = [1 if bits & (1 << i) else -1 for i in range(3)]
        assert not balance_report(switch(tri, s)).balanced


def test_switch_certificate_makes_balanced_graph_positive():
    rng = np.random.default_rng(TEST_SEED + 3)
    found = 0
    while found < 20:
        base = random_signed_graph(rng, int(rng.integers(2, 8)), 0.5)
        s = [int(x) for x in rng.choice([1, -1], size=base.n)]
        g = switch(underlying(base), s)  # balanced by construction
        rep = balance_report(g)
        assert rep.balanced
        switched = switch(g, rep.switch)
        assert all(sign == 1 for _, _, sign in switched.edges)
        found += 1


def test_switching_invariance_of_spectrum():
    rng = np.random.default_rng(TEST_SEED + 4)
    for _ in range(20):
        g = random_signed_graph(rng, int(rng.integers(1, 8)), 0.5)
        s = [int(x) for x in rng.choice([1, -1], size=g.n)]
        assert_multiset_close(
            dense_node(switch(g, s)).adjacency,
            dense_node(g).adjacency,
            tol=1e-8,
        )


# --- balance ----------------------------------------------------------------


def test_any_signed_tree_is_balanced():
    for n in (1, 2, 5, 8):
        for r in range(n):
            rep = balance_report(path(n, r))
            assert rep.balanced and rep.b == rep.c == 1


def test_four_cycle_with_one_negative_edge_is_unbalanced():
    rep = balance_report(cycle(4, 1))
    assert not rep.balanced
    assert (rep.b, rep.c, rep.c_b) == (0, 1, 1)


def test_balance_certificate_validates_on_balanced_components():
    rng = np.random.default_rng(TEST_SEED + 5)
    for _ in range(50):
        g = random_signed_graph(rng, int(rng.integers(1, 9)), 0.5)
        rep = balance_report(g)
        for comp in rep.components:
            if not comp.balanced:
                continue
            inside = set(comp.vertices)
            for u, v, s in g.edges:
                if u in inside:
                    assert rep.switch[u] * s * rep.switch[v] == 1
        assert rep.b <= rep.c and rep.c_b <= rep.c


def test_homogeneous_specialisations():
    rng = np.random.default_rng(TEST_SEED + 6)
    for _ in range(50):
        g = random_signed_graph(rng, int(rng.integers(1, 9)), 0.5)
        pos = balance_report(underlying(g))
        assert pos.b == pos.c
        neg = balance_report(negate(underlying(g)))
        assert neg.b == neg.c_b


def test_balanced_component_budget_without_isolated_vertices():
    # b(g) + b(-g) <= n when no component is an isolated vertex
    rng = np.random.default_rng(TEST_SEED + 7)
    tested = 0
    while tested < 50:
        g = random_signed_graph(rng, int(rng.integers(2, 9)), 0.8)
        if degrees(g).size == 0 or degrees(g).min() == 0:
            continue
        assert balance_report(g).b + balance_report(negate(g)).b <= g.n
        tested += 1


def test_doubly_balanced_means_bipartite():
    rng = np.random.default_rng(TEST_SEED + 8)
    for _ in range(200):
        g = random_signed_graph(rng, int(rng.integers(1, 8)), 0.4)
        rep = balance_report(g)
        neg = balance_report(negate(g))
        if rep.balanced and neg.balanced:
            under = balance_report(negate(underlying(g)))
            assert under.c_b == under.c  # every component bipartite


# --- JSON -------------------------------------------------------------------


def test_json_round_trip_is_byte_identical():
    g = cycle(6, 2)
    text = dumps(g)
    assert loads(text) == g
    assert dumps(loads(text)) == text


def test_dumps_equals_encoding_of_the_json_dict():
    rng = np.random.default_rng(TEST_SEED + 31)
    graphs = [SignedGraph(0), SignedGraph(3)]
    graphs += [random_signed_graph(rng, int(rng.integers(1, 40)), 0.3) for _ in range(20)]
    for g in graphs:
        assert dumps(g) == json.dumps(to_json_dict(g))


@pytest.mark.parametrize("n", [0, 1, 2, 9, 10, 11, 99, 100, 101, 2**40])
def test_dumps_writes_every_digit_width(n, in_form):
    """The byte writer against the encoder: empty, all-negative and random
    edge sets, endpoints from 0 to n - 1."""
    rng = np.random.default_rng([TEST_SEED % 2**32, n])
    pairs = {(0, n - 1)} if n >= 2 else set()
    for _ in range(60 if n >= 2 else 0):
        u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
        if u < v:
            pairs.add((u, v))
    pairs = sorted(pairs)
    for edges in ((), [(u, v, -1) for u, v in pairs], [(u, v, int(rng.choice((-1, 1)))) for u, v in pairs]):
        g = SignedGraph(n, in_form(edges))
        text = dumps(g)
        assert text == json.dumps(to_json_dict(g))
        assert loads(text) == g


def test_json_dict_shape():
    g = SignedGraph(3, ((0, 2, -1),))
    assert to_json_dict(g) == {"n": 3, "edges": [[0, 2, -1]]}
    assert from_json_dict({"n": 3, "edges": [[0, 2, -1]]}) == g


def test_json_reader_rejects_bad_documents():
    for doc in (
        [],  # not an object
        {"edges": []},  # missing n
        {"n": 2, "edges": [[0, 0, 1]]},  # loop
        {"n": 2, "edges": [[0, 1, 1], [0, 1, 1]]},  # duplicate
        {"n": 2, "edges": [[0, 5, 1]]},  # out of range
        {"n": 2, "edges": [[0, 1, 3]]},  # bad sign
        {"n": 2, "edges": [], "extra": 1},  # unknown key
        {"n": 2.5, "edges": []},  # non-integer order
        {"n": True, "edges": []},  # bool masquerading as int
    ):
        with pytest.raises(ValueError):
            from_json_dict(doc)


@pytest.mark.parametrize(
    "entry",
    [
        [0, 1, True],  # bool sign
        [False, 1, 1],  # bool endpoint
        [0, 1.0, 1],  # float
        [0, "1", 1],  # string
        [0, [1], 1],  # nested list
        [[0, 1, 1], 1, 1],
    ],
)
def test_json_reader_rejects_non_integer_edge_entries(entry):
    with pytest.raises(ValueError, match=r"^edge entries must be integers, got " + re.escape(repr(entry)) + "$"):
        from_json_dict({"n": 3, "edges": [[0, 2, 1], entry]})
