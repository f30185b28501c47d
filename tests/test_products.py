"""Kronecker sums over a basis and NEPS, Cartesian, tensor and p-sum products."""

from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TEST_SEED, assert_multiset_close, small_signed_graphs

from signet.families import complete, cycle, path, random_signed_graph
import signet.products as products
from signet.graphs import (
    SignedGraph,
    adjacency,
    balance_report,
    degrees,
    disjoint_union,
    dumps,
    loads,
    to_json_dict,
)
from signet.products import (
    Basis,
    cartesian,
    cartesian_basis,
    kron_sum_over_basis,
    neps,
    p_sum_basis,
    tensor_basis,
)
from signet.spectra import eigenvalues
from signet.structured import DenseNode, LeafNode, ProductNode, spectral_node


@pytest.fixture(autouse=True)
def _every_product_writes_its_json_encoding(monkeypatch):
    """Every graph neps builds in this module, dumped by the byte writer and by
    the JSON encoder: the same text, and it reads back as the same graph."""
    built = []

    def recording(n, edges=()):
        built.append(SignedGraph(n, edges))
        return built[-1]

    monkeypatch.setattr(products, "SignedGraph", recording)
    yield
    for g in built:
        text = dumps(g)
        assert text == json.dumps(to_json_dict(g))
        assert loads(text) == g


# --- bases ------------------------------------------------------------------


def test_basis_validation():
    with pytest.raises(ValueError):
        Basis(2, ((0, 0),))  # zero vector
    with pytest.raises(ValueError):
        Basis(2, ((1, 0), (1, 0)))  # duplicate
    with pytest.raises(ValueError):
        Basis(2, ((1, 0),))  # support misses coordinate 2
    with pytest.raises(ValueError):
        Basis(2, ((1, 0, 1), (0, 1, 0)))  # wrong arity
    with pytest.raises(ValueError):
        Basis(2, ((1, 2), (1, 1)))  # non-binary entry
    with pytest.raises(ValueError, match="^basis arity must be at least 1$"):
        Basis(0, ())
    with pytest.raises(ValueError, match="^basis must contain at least one pattern$"):
        Basis(2, ())


def test_standard_bases():
    assert cartesian_basis(2).vectors == ((0, 1), (1, 0))
    assert tensor_basis(3).vectors == ((1, 1, 1),)
    assert p_sum_basis(3, 2).vectors == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert p_sum_basis(2, 1) == cartesian_basis(2)
    with pytest.raises(ValueError):
        p_sum_basis(2, 3)
    with pytest.raises(ValueError):
        p_sum_basis(2, 0)


# --- Kronecker algebra ------------------------------------------------------


def test_kron_eigenvalues_are_pairwise_products():
    rng = np.random.default_rng(TEST_SEED)
    a = adjacency(random_signed_graph(rng, 4, 0.6)).astype(float)
    b = adjacency(random_signed_graph(rng, 3, 0.6)).astype(float)
    lam = eigenvalues(a)
    mu = eigenvalues(b)
    expected = [x * y for x in lam for y in mu]
    assert_multiset_close(eigenvalues(np.kron(a, b)), expected, tol=1e-7)


def test_kron_sum_single_factor_identity():
    a = adjacency(cycle(4, 1))
    assert np.array_equal(kron_sum_over_basis([a], Basis(1, ((1,),))), a)


def test_kron_sum_cartesian_two_factors():
    a1 = adjacency(path(3, 1))
    a2 = adjacency(cycle(4, 0))
    got = kron_sum_over_basis([a1, a2], cartesian_basis(2))
    expected = np.kron(a1, np.eye(4, dtype=np.int64)) + np.kron(
        np.eye(3, dtype=np.int64), a2
    )
    assert np.array_equal(got, expected)


def test_kron_sum_strong_basis_is_plain_kron():
    a1 = adjacency(path(2, 0)).astype(float)
    a2 = adjacency(path(3, 1)).astype(float)
    got = kron_sum_over_basis([a1, a2], tensor_basis(2))
    assert np.array_equal(got, np.kron(a1, a2))


@pytest.mark.parametrize("dtype", [np.int64, float])
@pytest.mark.parametrize("order", [0, 1, 4])
def test_kron_sum_equals_the_np_kron_reduction(order, dtype):
    rng = np.random.default_rng(TEST_SEED + order)
    for nu in (1, 2, 3):
        mats = [adjacency(random_signed_graph(rng, order if i == nu // 2 else 3, 0.6)).astype(dtype) for i in range(nu)]
        for basis in (cartesian_basis(nu), tensor_basis(nu), p_sum_basis(nu, (nu + 1) // 2)):
            want = sum(
                functools.reduce(np.kron, [a if bit else np.eye(len(a), dtype=dtype) for a, bit in zip(mats, vec)])
                for vec in basis.vectors
            )
            got = kron_sum_over_basis(mats, basis)
            assert got.dtype == want.dtype and np.array_equal(got, want), (order, nu, basis)


# --- NEPS -------------------------------------------------------------------


def test_identity_product():
    rng = np.random.default_rng(TEST_SEED + 1)
    g = random_signed_graph(rng, 6, 0.5)
    assert neps([g], Basis(1, ((1,),))) == g


def test_neps_matches_kronecker_formula():
    rng = np.random.default_rng(TEST_SEED + 2)
    for _ in range(60):
        nu = int(rng.integers(1, 4))
        orders = [int(rng.integers(1, 5)) for _ in range(nu)]
        if math.prod(orders) > 64:
            continue
        factors = [random_signed_graph(rng, n, 0.6) for n in orders]
        patterns = [
            vec for vec in itertools.product((0, 1), repeat=nu) if any(vec)
        ]
        keep = [p for p in patterns if rng.random() < 0.6]
        if not keep or not all(any(p[i] for p in keep) for i in range(nu)):
            continue
        basis = Basis(nu, tuple(keep))
        got = adjacency(neps(factors, basis))
        want = kron_sum_over_basis([adjacency(f) for f in factors], basis)
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "orders, basis, p",
    [
        ((8, 8, 8), tensor_basis(3), 1.0),  # signed K_8 strong cube, order 512
        ((6, 6, 5), p_sum_basis(3, 2), 0.6),
        ((5, 5, 5), p_sum_basis(3, 2), 0.6),
        ((12, 9), Basis(2, ((1, 0), (0, 1), (1, 1))), 0.6),
        ((5, 5, 5), Basis(3, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0))), 0.6),
        ((12, 10), Basis(2, ((0, 1), (1, 1))), 0.6),
        ((10, 10), cartesian_basis(2), 0.6),
    ],
)
def test_neps_matches_kronecker_formula_at_larger_orders(orders, basis, p):
    rng = np.random.default_rng(TEST_SEED + 20 + math.prod(orders))
    factors = [random_signed_graph(rng, n, p) for n in orders]
    got = adjacency(neps(factors, basis))
    want = kron_sum_over_basis([adjacency(f) for f in factors], basis)
    assert 100 <= got.shape[0] <= 512
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "factors",
    [
        [SignedGraph(3), cycle(4, 1)],  # edgeless factor
        [SignedGraph(1), path(5, 2)],  # single-vertex factor
        [cycle(3, 1), SignedGraph(1), complete(4, -1)],
        [SignedGraph(1), SignedGraph(1)],
        [SignedGraph(2), SignedGraph(4)],
        [SignedGraph(0), path(3, 1)],  # empty factor, empty product
    ],
)
def test_neps_with_edgeless_and_single_vertex_factors(factors):
    nu = len(factors)
    bases = [cartesian_basis(nu), tensor_basis(nu)]
    bases.append(Basis(nu, tuple(v for v in itertools.product((0, 1), repeat=nu) if any(v))))
    for basis in bases:
        g = neps(factors, basis)
        assert g.n == math.prod(f.n for f in factors)
        want = kron_sum_over_basis([adjacency(f) for f in factors], basis)
        assert np.array_equal(adjacency(g), want)


def test_neps_order_limits():
    # Edgeless support factors yield no edges without building per-vertex arrays.
    assert neps([SignedGraph(2)] * 40, cartesian_basis(40)) == SignedGraph(2**40)
    # Flat indices are int64, so a larger product order is refused rather than wrapped.
    big = SignedGraph(2**22, ((0, 1, -1),))
    with pytest.raises(ValueError, match="exceeds the int64 range"):
        neps([big, big, big], tensor_basis(3))
    assert neps([big, big], tensor_basis(2)).edges == ((0, 2**22 + 1, 1), (1, 2**22, 1))


def test_neps_hands_the_constructor_sorted_edges(monkeypatch):
    received = []

    def recording(n, edges):
        received.append(edges)
        return SignedGraph(n, edges)

    monkeypatch.setattr(products, "SignedGraph", recording)
    rng = np.random.default_rng(TEST_SEED + 21)
    factors = [random_signed_graph(rng, n, 0.6) for n in (6, 7, 5)]
    for basis in (p_sum_basis(3, 2), p_sum_basis(3, 1), Basis(3, ((1, 1, 1), (1, 0, 0), (0, 1, 1)))):
        g = neps(factors, basis)
        edges = received.pop()
        assert isinstance(edges, np.ndarray) and edges.dtype == np.int64 and edges.shape == (g.m, 3)
        assert edges.T.flags.c_contiguous  # each column contiguous for the constructor's checks and sort
        pairs = [tuple(e) for e in edges[:, :2].tolist()]
        assert pairs == sorted(set(pairs))  # lexsorted and distinct
        assert tuple(map(tuple, edges.tolist())) == g.edges
        assert all(type(x) is int for e in g.edges for x in e)


def test_all_positive_factors_give_all_positive_product():
    rng = np.random.default_rng(TEST_SEED + 3)
    factors = [random_signed_graph(rng, 3, 0.8), random_signed_graph(rng, 4, 0.8)]
    from signet.graphs import underlying

    prod = neps([underlying(f) for f in factors], p_sum_basis(2, 2))
    assert all(s == 1 for _, _, s in prod.edges)


def test_edge_disjointness_across_basis_vectors():
    rng = np.random.default_rng(TEST_SEED + 4)
    factors = [random_signed_graph(rng, 3, 0.7), random_signed_graph(rng, 3, 0.7)]
    mats = [adjacency(f) for f in factors]
    full = Basis(2, ((0, 1), (1, 0), (1, 1)))
    total = neps(factors, full).m
    parts = sum(
        int(np.count_nonzero(np.kron(*(a if bit else np.eye(len(a), dtype=a.dtype) for a, bit in zip(mats, vec))))) // 2
        for vec in full.vectors
    )
    assert total == parts


def test_neps_spectrum_composition():
    rng = np.random.default_rng(TEST_SEED + 5)
    factors = [random_signed_graph(rng, 3, 0.7), random_signed_graph(rng, 4, 0.7)]
    basis = Basis(2, ((1, 0), (1, 1)))
    spectra = [spectral_node(f).adjacency for f in factors]
    expected = []
    for lam in spectra[0]:
        for mu in spectra[1]:
            expected.append(sum(
                math.prod(v for v, bit in zip((lam, mu), vec) if bit)
                for vec in basis.vectors
            ))
    got = spectral_node(neps(factors, basis)).adjacency
    assert_multiset_close(got, expected, tol=1e-7)


# --- named products ---------------------------------------------------------


def test_cartesian_of_two_edges_is_positive_square():
    # a 4-cycle up to the row-major vertex numbering: 0-1-3-2-0
    got = cartesian([path(2, 0), path(2, 0)])
    assert got.n == 4 and got.m == 4
    assert all(s == 1 for _, _, s in got.edges)
    assert_multiset_close(
        spectral_node(got).adjacency, [-2.0, 0.0, 0.0, 2.0], tol=1e-8
    )


def test_cartesian_eigenvalues_are_sums():
    f1, f2 = cycle(4, 1), path(3, 0)
    got = spectral_node(cartesian([f1, f2])).adjacency
    expected = [
        a + b
        for a in spectral_node(f1).adjacency
        for b in spectral_node(f2).adjacency
    ]
    assert_multiset_close(got, expected, tol=1e-7)


def test_tensor_product_of_two_single_edges():
    # K_2 x K_2 under the all-ones basis is a perfect matching on 4
    # vertices (two parallel diagonals), not a single edge.
    got = neps([path(2, 0), path(2, 0)], tensor_basis(2))
    assert got == SignedGraph(4, ((0, 3, 1), (1, 2, 1)))


def test_symmetric_p_one_is_cartesian():
    rng = np.random.default_rng(TEST_SEED + 6)
    factors = [random_signed_graph(rng, 3, 0.6) for _ in range(3)]
    assert neps(factors, p_sum_basis(3, 1)) == cartesian(factors)
    with pytest.raises(ValueError):
        p_sum_basis(3, 4)


def test_negation_law_for_p_sums():
    from signet.graphs import negate

    rng = np.random.default_rng(TEST_SEED + 7)
    factors = [random_signed_graph(rng, 3, 0.8) for _ in range(3)]
    for p in (1, 2, 3):
        flipped = neps([negate(f) for f in factors], p_sum_basis(3, p))
        base = neps(factors, p_sum_basis(3, p))
        sign = (-1) ** p
        assert np.array_equal(adjacency(flipped), sign * adjacency(base))


# --- degrees ----------------------------------------------------------------


def test_cartesian_degree_matrix_of_regular_factors():
    f1, f2 = cycle(4, 1), complete(4, -1)  # 2-regular and 3-regular
    d = kron_sum_over_basis([np.diag(degrees(f1)), np.diag(degrees(f2))], cartesian_basis(2))
    assert np.array_equal(d, 5 * np.eye(16, dtype=np.int64))


def test_grid_average_degree():
    for m, n in ((2, 2), (3, 5), (6, 4)):
        node = ProductNode(cartesian_basis(2), [LeafNode("path", m, 0), LeafNode("path", n, 0)])
        got = 2 * node.m / node.n
        assert got == pytest.approx(4.0 - 2.0 / m - 2.0 / n)


def test_degree_formula_matches_direct_construction():
    rng = np.random.default_rng(TEST_SEED + 8)
    for _ in range(20):
        factors = [
            random_signed_graph(rng, int(rng.integers(1, 5)), 0.6) for _ in range(2)
        ]
        basis = Basis(2, ((0, 1), (1, 0), (1, 1)))
        formula = kron_sum_over_basis([np.diag(degrees(f)) for f in factors], basis)
        direct = np.diag(degrees(neps(factors, basis)))
        assert np.array_equal(formula, direct)


# --- balance and energy -----------------------------------------------------


def test_all_balanced_factors_give_balanced_neps():
    rng = np.random.default_rng(TEST_SEED + 9)
    from signet.graphs import switch, underlying

    for _ in range(20):
        factors = []
        for _ in range(2):
            base = random_signed_graph(rng, int(rng.integers(1, 5)), 0.7)
            s = [int(x) for x in rng.choice([1, -1], size=base.n)]
            factors.append(switch(underlying(base), s))
        basis = _random_full_basis(rng, 2)
        assert balance_report(neps(factors, basis)).balanced


def _random_full_basis(rng, nu):
    patterns = [vec for vec in itertools.product((0, 1), repeat=nu) if any(vec)]
    while True:
        keep = tuple(p for p in patterns if rng.random() < 0.6)
        if keep and all(any(p[i] for p in keep) for i in range(nu)):
            return Basis(nu, keep)


def test_unbalanced_factor_on_unit_vector_breaks_balance():
    tri = cycle(3, 1)  # unbalanced
    other = path(3, 0)
    basis = Basis(2, ((1, 0), (1, 1)))  # contains e_1
    assert not balance_report(neps([tri, other], basis)).balanced


def test_cartesian_balance_is_multiplicative():
    rng = np.random.default_rng(TEST_SEED + 10)
    for _ in range(40):
        factors = [
            random_signed_graph(rng, int(rng.integers(1, 5)), 0.6) for _ in range(2)
        ]
        got = balance_report(cartesian(factors)).b
        want = math.prod(balance_report(f).b for f in factors)
        assert got == want


def test_strong_product_balance_counterexample():
    # The tensor product of an unbalanced all-negative odd cycle with a
    # positive edge is balanced even though one factor is not.
    g = neps([complete(3, -1), path(2, 0)], tensor_basis(2))
    assert balance_report(g).balanced
    assert not balance_report(complete(3, -1)).balanced


def test_energy_bound_with_equality_and_strictness():
    rng = np.random.default_rng(TEST_SEED + 11)
    checked_strict = 0
    for _ in range(40):
        factors = []
        for _ in range(2):
            g = random_signed_graph(rng, int(rng.integers(2, 5)), 0.8)
            while g.m == 0:
                g = random_signed_graph(rng, int(rng.integers(2, 5)), 0.8)
            factors.append(g)
        rates = [spectral_node(f).energy / f.n for f in factors]
        tensor = neps(factors, tensor_basis(2))
        assert spectral_node(tensor).energy / tensor.n == pytest.approx(rates[0] * rates[1], abs=1e-8)
        basis = Basis(2, ((0, 1), (1, 0), (1, 1)))
        g = neps(factors, basis)
        lhs = spectral_node(g).energy / g.n
        rhs = rates[0] + rates[1] + rates[0] * rates[1]
        assert lhs <= rhs + 1e-9
        if rhs - lhs > 1e-9:
            checked_strict += 1
        cart = cartesian(factors)
        l_lhs = spectral_node(cart).laplacian_energy / cart.n
        l_rhs = sum(spectral_node(f).laplacian_energy / f.n for f in factors)
        assert l_lhs < l_rhs + 1e-9
    assert checked_strict == 40  # strict whenever |B| > 1 and no factor edgeless


def test_errors():
    with pytest.raises(ValueError):
        neps([], Basis(1, ((1,),)))
    with pytest.raises(ValueError):
        neps([path(2, 0)], cartesian_basis(2))
    with pytest.raises(ValueError, match="^basis arity 2 does not match 1 matrices$"):
        kron_sum_over_basis([adjacency(path(2, 0))], cartesian_basis(2))
    with pytest.raises(ValueError, match="^all matrices must be square$"):
        kron_sum_over_basis([np.ones((2, 3))], Basis(1, ((1,),)))


# --- disjoint unions ------------------------------------------------------------


def _bases(nu: int):
    """Every basis of arity nu, drawn as a set of patterns covering each coordinate."""
    patterns = [vec for vec in itertools.product((0, 1), repeat=nu) if any(vec)]
    return (
        st.sets(st.sampled_from(patterns), min_size=1)
        .filter(lambda chosen: all(any(vec[i] for vec in chosen) for i in range(nu)))
        .map(lambda chosen: Basis(nu, tuple(chosen)))
    )


def _block_of(gs) -> np.ndarray:
    """The block of each vertex of ``disjoint_union(gs)``: the index of its graph."""
    return np.repeat(np.arange(len(gs)), [g.n for g in gs])


_GRAPH_LISTS = st.lists(small_signed_graphs(), min_size=1, max_size=3)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_GRAPH_LISTS, small_signed_graphs(), _bases(2))
def test_neps_of_a_union_and_a_graph_is_the_union_of_the_products(gs, h, basis):
    """Every pattern keeps the first coordinate or moves it along an edge,
    which stays in one graph of the union: NEPS([G_1 + .. + G_k, H]) is
    NEPS([G_1, H]) + .. + NEPS([G_k, H]), each in its own rows."""
    product = neps([disjoint_union(gs), h], basis)
    leaf = DenseNode.blocks(product, np.repeat(_block_of(gs), h.n), len(gs))
    assert [leaf(b).graph for b in range(len(gs))] == [neps([g, h], basis) for g in gs]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_GRAPH_LISTS, _GRAPH_LISTS, _bases(2))
def test_neps_of_two_unions_is_the_union_of_the_pairwise_products(gs, hs, basis):
    """Vertex (j1, j2) of the product of two unions lies in the product of
    the j1-th vertex's graph G_a and the j2-th's H_b, at its row-major index
    there; block a * len(hs) + b is NEPS([G_a, H_b])."""
    product = neps([disjoint_union(gs), disjoint_union(hs)], basis)
    block = np.add.outer(_block_of(gs) * len(hs), _block_of(hs)).ravel()
    leaf = DenseNode.blocks(product, block, len(gs) * len(hs))
    assert [leaf(b).graph for b in range(len(gs) * len(hs))] == [neps([g, h], basis) for g in gs for h in hs]
