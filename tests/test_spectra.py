"""Eigensolver accuracy, energies and multiplicity helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import TEST_SEED, assert_multiset_close

from signet.families import complete, cycle, path, random_signed_graph, torus
from signet.graphs import (
    SignedGraph,
    adjacency,
    balance_report,
    degrees,
    laplacian,
    negate,
)
from signet.linegraph import line_graph
from signet.spectra import eigenvalues, multiplicity_of
from signet.structured import dense_node


# --- solver behaviour -------------------------------------------------------


def test_zero_matrix():
    assert eigenvalues(np.zeros((3, 3))).tolist() == [0.0, 0.0, 0.0]


def test_degenerate_orders():
    assert eigenvalues(np.zeros((0, 0))).tolist() == []
    assert eigenvalues(np.array([[7.5]])).tolist() == [7.5]


def test_input_validation():
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_complete_graph_spectrum():
    for n in range(2, 9):
        vals = dense_node(complete(n, 1)).adjacency
        assert_multiset_close(vals, [-1.0] * (n - 1) + [n - 1.0])


def test_signed_four_cycle_spectrum():
    vals = dense_node(cycle(4, 1)).adjacency
    root2 = math.sqrt(2.0)
    assert_multiset_close(vals, [-root2, -root2, root2, root2])


def test_trace_and_frobenius_identities():
    rng = np.random.default_rng(TEST_SEED + 1)
    for _ in range(30):
        g = random_signed_graph(rng, int(rng.integers(1, 9)), 0.5)
        for mat in (adjacency(g), laplacian(g)):
            vals = eigenvalues(mat.astype(float))
            fro = float(np.linalg.norm(mat))
            assert abs(vals.sum() - np.trace(mat)) <= 1e-8 * max(1.0, fro)
            assert abs((vals**2).sum() - fro**2) <= 1e-8 * max(1.0, fro**2)


def test_laplacian_psd_and_kernel_counts_balanced_components():
    rng = np.random.default_rng(TEST_SEED + 2)
    for _ in range(60):
        g = random_signed_graph(rng, int(rng.integers(1, 9)), 0.5)
        lap = dense_node(g).laplacian
        assert lap[0] >= -1e-8 if len(lap) else True
        assert multiplicity_of(lap, 0.0, 1e-6) == balance_report(g).b


# --- energies ---------------------------------------------------------------


def test_energies_of_edgeless_graph_vanish():
    g = SignedGraph(4)
    assert dense_node(g).energy == 0.0
    assert dense_node(g).laplacian_energy == 0.0
    assert dense_node(SignedGraph(0)).laplacian_energy == 0.0


def test_line_graph_of_complete_five_energy():
    # Sum of |2 - mu| over the positive Laplacian spectrum {5 x 4} of K_5
    # plus 2 per extra eigenvalue 2 gives 4*3 + 2*(10 - 5 + 1) = 24.
    lg = line_graph(complete(5, 1)).graph
    assert dense_node(lg).energy == pytest.approx(24.0, abs=1e-7)


def test_two_by_two_grid_energy_is_four():
    from signet.products import cartesian

    for r1 in (0, 1):
        for r2 in (0, 1):
            g = cartesian([path(2, r1), path(2, r2)])
            assert dense_node(g).energy == pytest.approx(4.0, abs=1e-7)
            assert_multiset_close(
                dense_node(g).adjacency, [-2.0, 0.0, 0.0, 2.0]
            )


def test_regular_graphs_have_equal_energies():
    cases = [cycle(6, 1), cycle(5, 0), complete(5, -1), torus(3, 1, 3, 0)]
    for g in cases:
        assert dense_node(g).laplacian_energy == pytest.approx(dense_node(g).energy, abs=1e-7)


def test_toroidal_energy_matches_cosine_double_sum():
    g = torus(3, 1, 3, 0)
    total = 0.0
    for i in range(1, 4):
        for j in range(1, 4):
            total += abs(
                2 * math.cos((2 * i - 1) * math.pi / 3) + 2 * math.cos(2 * j * math.pi / 3)
            )
    assert dense_node(g).energy == pytest.approx(total, abs=1e-7)
    assert dense_node(g).laplacian_energy == pytest.approx(total, abs=1e-7)


def test_regular_spectrum_ladder():
    # k-regular: multiplicity of k is b(g), of -k is b(-g), and the
    # Laplacian spectrum is k minus the adjacency spectrum.
    cases = [cycle(n, r) for n in range(3, 8) for r in range(n + 1)]
    cases += [complete(n, s) for n in range(2, 7) for s in (1, -1)]
    cases += [torus(3, r1, 4, r2) for r1 in (0, 1) for r2 in (0, 1)]
    for g in cases:
        k = int(degrees(g)[0])
        spec = dense_node(g).adjacency
        assert multiplicity_of(spec, float(k), 1e-6) == balance_report(g).b
        assert multiplicity_of(spec, float(-k), 1e-6) == balance_report(negate(g)).b
        lap = dense_node(g).laplacian
        assert_multiset_close(lap, [k - v for v in spec])


# --- multiplicities ---------------------------------------------------------


def test_multiplicity_counting():
    assert multiplicity_of(np.zeros(3), 0.0, 1e-6) == 3
    assert multiplicity_of([1.0, 1.0000004, 2.0], 1.0, 1e-6) == 2
    with pytest.raises(ValueError):
        multiplicity_of([1.0], 1.0, 0.0)


def test_multiplicity_of_two_in_line_of_complete_four():
    spec = dense_node(line_graph(complete(4, 1)).graph).adjacency
    assert multiplicity_of(spec, 2.0, 1e-6) == 3  # C(3, 2)


def test_odd_signature_six_cycle_laplacian_has_no_zero():
    spec = dense_node(cycle(6, 1)).laplacian
    assert multiplicity_of(spec, 0.0, 1e-6) == 0
