"""Data model, matrices, switching, balance and JSON round-trips."""

from __future__ import annotations

import itertools
import json
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TEST_SEED, assert_multiset_close
from referees import balance_by_breadth_first

import signet.graphs as graph_module
from signet.families import complete, cycle, path, random_signed_graph
from signet.graphs import (
    SignedGraph,
    adjacency,
    balance_report,
    degrees,
    disjoint_union,
    dumps,
    from_json_dict,
    incidence,
    laplacian,
    laplacian_from_adjacency,
    loads,
    negate,
    switch,
    to_json_dict,
    underlying,
)
from signet.structured import DenseNode, spectral_node
from signet.verify import multiset_gap

_INT64_MAX = int(np.iinfo(np.int64).max)


# --- construction -----------------------------------------------------------


def test_edges_are_canonicalised_sorted():
    g = SignedGraph(4, ((2, 3, 1), (0, 1, -1)))
    assert g.edges == ((0, 1, -1), (2, 3, 1))
    assert g.m == 2


@pytest.fixture(params=["triples", "array", "short-array"])
def in_form(request):
    """Edge triples as given, or one int64 (m, 3) array, checked in numpy
    whatever its length: row-major as loads reads it ("array"), or the
    column-major view that neps hands over ("short-array"; the id dates from
    a cut-off below which short arrays were kept as triples)."""

    def convert(edges):
        if request.param == "triples":
            return edges  # as given, so a one-shot iterator reaches the constructor
        rows = np.array(tuple(edges), dtype=np.int64).reshape(-1, 3)
        return rows if request.param == "array" else np.ascontiguousarray(rows.T).T

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
    with pytest.raises(ValueError, match="^vertex count must be an integer, got 'x'$"):
        SignedGraph("x")


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


def test_constructor_converts_integer_triples_to_one_edge_array():
    g = SignedGraph(4, ((2, 3, True), [1, 2, 1], (np.int64(0), 1, -1)))
    assert "edges" not in vars(g)  # no triples are stored until they are read
    assert g.edge_array.dtype == np.int64 and not g.edge_array.flags.writeable
    assert g.edge_array.tolist() == [[0, 1, -1], [1, 2, 1], [2, 3, 1]]
    assert g.edges == ((0, 1, -1), (1, 2, 1), (2, 3, 1))
    assert all(type(e) is tuple and all(type(x) is int for x in e) for e in g.edges)


def test_array_graph_keeps_a_read_only_copy_and_derives_int_triples():
    given = np.array([[1, 2, 1], [0, 1, -1]], dtype=np.int64)
    g = SignedGraph(3, given)
    given[0, 2] = -1  # the caller's array is not the graph's
    assert g.m == 2
    assert not g.edge_array.flags.writeable
    assert g.edges == ((0, 1, -1), (1, 2, 1))
    assert all(type(e) is tuple and all(type(x) is int for x in e) for e in g.edges)


def test_edge_array_refuses_an_endpoint_past_int64():
    """Triples whose endpoint fits the order but not an edge array are
    refused at the door; an endpoint past the order is out of range first."""
    big = 2**63
    message = f"a graph of order {big + 1} has an endpoint past the int64 range of edge arrays"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        SignedGraph(big + 1, ((0, 1, -1), (0, big, 1)))
    with pytest.raises(ValueError, match="^" + re.escape(f"edge (0, {big}, 1) violates 0 <= u < v < 5") + "$"):
        SignedGraph(5, ((0, big, 1),))


def test_array_and_triple_forms_agree_on_equality_and_hash():
    """Both spellings at the door, triples and an int64 array, give equal
    graphs with equal hashes, and neither stores triples until asked."""
    rng = np.random.default_rng(TEST_SEED + 32)
    for n in (0, 1, 6, 25):
        triples = random_signed_graph(rng, n, 0.5).edges
        g, h = SignedGraph(n, triples), SignedGraph(n, np.array(triples, dtype=np.int64).reshape(-1, 3))
        assert "edges" not in vars(g) and "edges" not in vars(h)
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
    vals = spectral_node(cycle(5, 1)).adjacency
    expected = [2 * math.cos((2 * j - 1) * math.pi / 5) for j in range(1, 6)]
    assert_multiset_close(vals, expected)


def test_degree_matrix_examples():
    assert np.array_equal(np.diag(degrees(SignedGraph(3))), np.zeros((3, 3), dtype=np.int64))
    assert np.array_equal(np.diag(degrees(path(3, 1))), np.diag([1, 2, 1]))
    for r in range(5):
        assert np.array_equal(np.diag(degrees(cycle(4, r))), 2 * np.eye(4, dtype=np.int64))


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


def test_laplacian_of_a_stack_is_each_matrix_laplacian():
    rng = np.random.default_rng(TEST_SEED + 9)
    for n in (0, 1, 6):
        graphs = [random_signed_graph(rng, n, 0.5) for _ in range(4)]
        stack = np.stack([adjacency(g) for g in graphs])
        want = np.stack([laplacian(g) for g in graphs])
        for mats in (stack, np.swapaxes(stack, -1, -2), np.asfortranarray(stack)):
            got = laplacian_from_adjacency(mats)
            assert got.dtype == np.int64 and np.array_equal(got, want)
            assert np.array_equal(laplacian_from_adjacency(mats[1]), want[1])


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
    vals = spectral_node(g).adjacency
    neg_vals = spectral_node(negate(g)).adjacency
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
            spectral_node(switch(g, s)).adjacency,
            spectral_node(g).adjacency,
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
        component = np.unique(rep.root, return_inverse=True)[1]
        for u, v, s in g.edges:
            if rep.component_balanced[component[u]]:
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


def _balance_cases(rng):
    """n = 0, edgeless graphs, isolated vertices, many components, trees,
    balanced graphs with nontrivial switchings and all-negative graphs."""
    yield SignedGraph(0)
    yield SignedGraph(1)
    yield SignedGraph(7)
    yield SignedGraph(40, tuple((2 * k, 2 * k + 1, (-1) ** k) for k in range(20)))  # 20 components
    for _ in range(150):
        n = int(rng.integers(1, 60))
        g = random_signed_graph(rng, n, float(rng.choice([0.01, 0.03, 0.06, 0.15, 0.5])))
        yield g
        yield switch(underlying(g), [int(x) for x in rng.choice((1, -1), size=n)])
        yield negate(underlying(g))


def test_array_balance_sweep_equals_the_breadth_first_sweep():
    """The double-cover sweep of the edge array against the breadth-first
    sweep of the graph's triples, a referee."""
    for g in _balance_cases(np.random.default_rng(TEST_SEED + 9)):
        h = SignedGraph(g.n, g.edge_array)
        want, got = balance_by_breadth_first(g), balance_report(h)
        assert "edges" not in vars(h)
        assert (got.b, got.c, got.c_b) == (want.b, want.c, want.c_b), g
        assert np.array_equal(got.root, want.root), g  # the components' vertices
        assert np.array_equal(got.component_balanced, want.component_balanced), g
        assert np.array_equal(got.component_bipartite, want.component_bipartite), g
        assert len(got.switch) == g.n
        # The certificate with +1 at the least vertex is unique on a balanced component.
        on = want.component_balanced[np.unique(want.root, return_inverse=True)[1]]
        assert np.array_equal(got.switch[on], want.switch[on]), g


def test_component_roots_cut_every_component():
    """Each component, cut out as a block by its rank among the roots, has
    the report's verdicts as its own balance, and the blocks hold every
    vertex and every edge."""
    for g in _balance_cases(np.random.default_rng(TEST_SEED + 10)):
        rep = balance_report(g)
        leaf = DenseNode.blocks(g, np.unique(rep.root, return_inverse=True)[1], rep.c)
        leaves = [leaf(k) for k in range(rep.c)]
        for k, node in enumerate(leaves):
            assert node.balance == (int(rep.component_balanced[k]), 1, int(rep.component_bipartite[k])), g
        assert sum(node.n for node in leaves) == g.n and sum(node.m for node in leaves) == g.m, g


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


def _assert_loads_rejects_as_the_dict_reader(doc):
    """``loads`` of the document's text fails with the message that
    :func:`from_json_dict` gives for the document."""
    with pytest.raises(ValueError) as caught:
        from_json_dict(doc)
    with pytest.raises(ValueError, match=f"^{re.escape(str(caught.value))}$"):
        loads(json.dumps(doc))


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
        {"n": 2, "edges": {}},  # edges not a list
        {"n": 2, "edges": [[0, 1]]},  # a pair, not a triple
        {"n": 2, "edges": [0]},  # an entry that is not a list
    ):
        _assert_loads_rejects_as_the_dict_reader(doc)
    with pytest.raises(ValueError, match='^"edges" must be a list$'):
        from_json_dict({"n": 2, "edges": {}})
    with pytest.raises(ValueError, match=r"^edge entries must be \[u, v, sign\] triples, got \[0, 1\]$"):
        from_json_dict({"n": 2, "edges": [[0, 1]]})


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 5, "edges": [[0, 1, 1]], "n": 6}',
        '{"n": 2, "edges": [], "edges": [[0, 1, 1]]}',
        '{"n": 2, "edges": [], "x": {"a": 1, "a": 1}}',
    ],
)
def test_json_route_refuses_a_repeated_key(text):
    """json keeps the last of two equal keys; loads refuses the document."""
    with pytest.raises(ValueError, match="^graph document names a key twice$"):
        loads(text)


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
    _assert_loads_rejects_as_the_dict_reader({"n": 3, "edges": [[0, 2, 1], entry]})


def _read_both_ways(text):
    """What ``loads`` and ``from_json_dict`` of the :mod:`json` route make of
    text: the graph, or the error's type and message."""

    def outcome(read):
        try:
            return read(text)
        except ValueError as exc:
            return type(exc).__name__, str(exc)

    return outcome(loads), outcome(lambda t: from_json_dict(json.loads(t, object_pairs_hook=graph_module._json_object)))


# A sorted 40-edge list, long enough to be kept as an array.
_EDGES = [[u, u + 1 + k, (-1) ** (u + k)] for u in range(20) for k in range(2)]
_TEXT = json.dumps({"n": 25, "edges": _EDGES})


def _with(changes, n=25, extra=()):
    """The document with the edges at the given indices replaced, and
    ``extra`` edges appended."""
    edges = [changes.get(i, edge) for i, edge in enumerate(_EDGES)] + list(extra)
    return json.dumps({"n": n, "edges": edges})


@pytest.mark.parametrize(
    "text, canonical",
    [
        pytest.param(_TEXT, True, id="canonical"),
        pytest.param(json.dumps({"n": 25, "edges": _EDGES[::-1]}), True, id="unsorted"),
        pytest.param(" \t\r\n" + _TEXT + "\n ", True, id="json-whitespace-around"),
        pytest.param('{"n": 0, "edges": []}', True, id="empty"),
        pytest.param('{"n": 5, "edges": []}', True, id="edgeless"),
        pytest.param(_with({7: [7, 9, True]}), False, id="bool-entry"),
        pytest.param(_with({7: [7, 9.0, 1]}), False, id="float-entry"),
        pytest.param(_with({7: [7, "9", 1]}), False, id="string-entry"),
        pytest.param(_with({7: [7, 2**63, 1]}), False, id="endpoint-2**63"),
        pytest.param(_with({7: [7, 2**63, 1]}, n=2**63 + 1), False, id="endpoint-and-n-past-int64"),
        pytest.param(_with({7: [7, 10**18 - 2, 1]}, n=10**18 - 1), True, id="18-digits"),
        pytest.param(_with({7: [7, 10**18, 1]}, n=10**18 + 1), False, id="19-digits"),
        pytest.param(_with({7: [7, 2**63 - 1, 1]}), True, id="endpoint-int64-max"),
        pytest.param(_TEXT.replace("[0, 1, 1]", "[0,1, 1]"), False, id="edge-spacing"),
        pytest.param(_TEXT.replace("[0, 1, 1]", "[0, 1, +1]"), False, id="plus-sign"),
        pytest.param(_TEXT.replace("[0, 1, 1]", "[0, 1, 1.0]"), False, id="float-sign"),
        pytest.param(_TEXT.replace("[0, 1, 1]", "[00, 1, 1]"), False, id="leading-zero-endpoint"),
        pytest.param(_TEXT.replace('"n": 25', '"n": 025'), False, id="leading-zero-order"),
        pytest.param(_TEXT.replace("[0, 1, 1]", "[0, 1, 01]"), False, id="leading-zero-sign"),
        pytest.param("\x0b" + _TEXT, False, id="vertical-tab-before"),
        pytest.param(_TEXT + "\x0b", False, id="vertical-tab-after"),
        pytest.param("\u00a0" + _TEXT, False, id="no-break-space-before"),
        pytest.param(_TEXT.replace("[3, 4,", "[3, \u0664,"), False, id="non-ascii-digit"),
        pytest.param(json.dumps({"edges": _EDGES, "n": 25}), False, id="reordered-keys"),
        pytest.param('{"n": 3, ' + _TEXT[1:], False, id="duplicate-order-key"),
        pytest.param(_TEXT[:-1] + ', "edges": []}', False, id="duplicate-edges-key"),
        pytest.param(_TEXT + "x", False, id="trailing-text"),
        pytest.param(_TEXT + " {}", False, id="trailing-document"),
        pytest.param(json.dumps({"n": 25, "edges": _EDGES}, separators=(",", ":")), False, id="compact-separators"),
        pytest.param(_with({7: [5, 5, 1]}), True, id="loop"),
        pytest.param(_with({7: [6, 5, 1]}), True, id="u-above-v"),
        pytest.param(_with({7: [3, 25, 1]}), True, id="v-equal-n"),
        pytest.param(_with({7: [3, 26, -1]}), True, id="v-above-n"),
        pytest.param(_with({1: [0, 30, 1], 3: [2, 2, 1]}), True, id="first-bad-edge-named"),
        pytest.param(_with({7: [3, 4, 0]}), False, id="sign-0"),
        pytest.param(_with({7: [3, 4, 2]}), False, id="sign-2"),
        pytest.param(_with({7: [3, 4, -2]}), False, id="sign-minus-2"),
        pytest.param(_with({}, extra=[[4, 5, 1]]), True, id="duplicate-edge"),
        pytest.param(_with({}, extra=[[4, 5, -1], [0, 1, -1]]), True, id="duplicate-pairs-opposite-signs"),
        pytest.param('{"n": -1, "edges": []}', False, id="negative-order"),
        pytest.param('{"n": 3}', False, id="no-edges-key"),
        pytest.param(_with({}, n=10**30), False, id="order-past-int64"),
    ],
)
def test_fast_reader_agrees_with_the_json_route(text, canonical, monkeypatch):
    """Canonical text is read without :mod:`json`; every text gives the same
    graph or the same error either way."""
    parsed = []
    monkeypatch.setattr(graph_module, "json", SimpleNamespace(loads=lambda t, **kw: parsed.append(t) or json.loads(t, **kw)))
    fast, slow = _read_both_ways(text)
    assert not isinstance(fast, SignedGraph) or "edges" not in vars(fast)  # read with no triples
    assert fast == slow
    assert (not parsed) == canonical


def test_fast_reader_treats_a_partial_parse_warning_as_unparsed(monkeypatch):
    """numpy releases before the deprecation expired warn and return the
    entries before the unparsed text; loads must still take the json route,
    even when warnings are errors."""
    fromstring = np.fromstring

    def warn_and_stop(text, **kw):
        head, sep, _ = text.partition("1.5")
        if sep:
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return fromstring(head.rstrip(", "), **kw)

    monkeypatch.setattr(graph_module.np, "fromstring", warn_and_stop)
    text = _TEXT.replace("[0, 1, 1]", "[0, 1.5, 1]", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast, slow = _read_both_ways(text)
        assert fast == slow and fast[0] == "ValueError"
        assert loads(_TEXT) == loads(_TEXT.replace("[0, 1, 1]", "[0,1,1]", 1))


@st.composite
def _signed_graphs(draw):
    n = draw(st.one_of(st.integers(0, 40), st.integers(0, 10**18), st.integers(10**18, 2**63)))
    pairs = {}
    for _ in range(draw(st.integers(0, 45)) if n >= 2 else 0):
        u = draw(st.integers(0, n - 2))
        pairs[u, draw(st.integers(u + 1, n - 1))] = draw(st.sampled_from((1, -1)))
    return SignedGraph(n, tuple((u, v, s) for (u, v), s in pairs.items()))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_signed_graphs())
def test_loads_inverts_dumps(g):
    text = dumps(g)
    assert loads(text) == g
    assert dumps(loads(text)) == text


_ENTRIES = st.one_of(
    st.integers(-3, 40),
    st.sampled_from((10**17, 10**18 - 1, 10**18, 2**63 - 1, 2**63, 2**64)),
    st.booleans(),
    st.sampled_from((1.0, "1", None, [1])),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_signed_graphs(), st.data())
def test_loads_agrees_with_the_json_route_near_canonical_text(g, data):
    """A canonical document with one entry changed, whitespace around it,
    or both: the fast reader and the json route agree."""
    doc = {"n": g.n, "edges": [list(edge) for edge in g.edges]}
    if doc["edges"] and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(doc["edges"]) - 1))
        doc["edges"][i][data.draw(st.integers(0, 2))] = data.draw(_ENTRIES)
    if data.draw(st.booleans()):
        doc["edges"] = data.draw(st.permutations(doc["edges"]))
    space = st.text(" \t\n\r\x0b\x0c", max_size=2)
    text = data.draw(space) + json.dumps(doc) + data.draw(space)
    fast, slow = _read_both_ways(text)
    assert fast == slow


@st.composite
def _graphs_and_switchings(draw):
    """A signed graph on at most 12 vertices and a +1/-1 vector on its vertices."""
    n = draw(st.integers(0, 12))
    signs = (draw(st.sampled_from((0, 1, -1))) for _ in range(n * (n - 1) // 2))
    edges = tuple((u, v, s) for (u, v), s in zip(itertools.combinations(range(n), 2), signs) if s)
    return SignedGraph(n, edges), draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_graphs_and_switchings())
def test_switching_keeps_spectra_and_balance(case):
    g, signs = case
    before, after = spectral_node(g), spectral_node(switch(g, signs))
    assert multiset_gap(before.adjacency, after.adjacency) <= 1e-9
    assert multiset_gap(before.laplacian, after.laplacian) <= 1e-9
    assert before.balance == after.balance  # (b, c, c_b)


def test_disjoint_union_shifts_each_graph_past_the_ones_before():
    parts = [SignedGraph(2, ((0, 1, -1),)), SignedGraph(0), SignedGraph(1), SignedGraph(3, ((0, 2, 1), (1, 2, -1)))]
    union = disjoint_union(parts)
    assert "edges" not in vars(union)
    assert union == SignedGraph(6, ((0, 1, -1), (3, 5, 1), (4, 5, -1)))
    assert disjoint_union([]) == SignedGraph(0)
    assert disjoint_union([parts[0]]) == parts[0]
