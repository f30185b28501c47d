"""The exact rank, the brute-force referees of ``referees`` and their
agreement with the production code."""

from __future__ import annotations

import numpy as np
import pytest

import referees
from conftest import TEST_SEED, assert_multiset_close
from referees import balance_by_cycles, balance_by_switching, eigenvalues_ql

from signet.families import complete, cycle, path, random_signed_graph
from signet.graphs import SignedGraph, adjacency, balance_report, laplacian, underlying
from signet.oracle import rank_exact
from signet.products import cartesian
from signet.spectra import EigensolverError, eigenvalues


def test_trees_have_no_cycles_and_are_balanced():
    for n in (1, 2, 6):
        for r in range(n):
            comps = balance_by_cycles(path(n, r))
            assert all(balanced for _, balanced in comps)


def test_odd_negative_cycle_is_unbalanced():
    comps = balance_by_cycles(cycle(7, 3))
    assert comps == [(frozenset(range(7)), False)]


def test_switching_oracle_basics():
    assert balance_by_switching(underlying(complete(4, -1)))
    assert not balance_by_switching(cycle(3, 1))


def test_size_caps():
    big = SignedGraph(11)
    with pytest.raises(ValueError):
        balance_by_cycles(big)
    with pytest.raises(ValueError):
        balance_by_switching(SignedGraph(17))


def test_rank_exact_examples():
    assert rank_exact(np.eye(4, dtype=np.int64)) == 4
    assert rank_exact(laplacian(cycle(4, 0))) == 3
    assert rank_exact(laplacian(cycle(4, 1))) == 4
    assert rank_exact(np.zeros((3, 3), dtype=np.int64)) == 0
    with pytest.raises(ValueError):
        rank_exact(np.array([[0.5]]))
    with pytest.raises(ValueError, match="2-d"):
        rank_exact(np.zeros(3, dtype=np.int64))
    assert rank_exact(laplacian(cycle(4, 0)).astype(float)) == 3  # integer-valued floats are rounded


def test_triple_agreement_on_corpus(corpus):
    for g in corpus:
        production = balance_report(g)
        by_cycles = balance_by_cycles(g)
        assert len(by_cycles) == production.c
        flags = {vs: balanced for vs, balanced in by_cycles}
        for root, balanced in zip(np.unique(production.root).tolist(), production.component_balanced.tolist()):
            assert flags[frozenset(np.flatnonzero(production.root == root).tolist())] == balanced
        assert balance_by_switching(g) == production.balanced


def _assert_ql_agrees_with_solver(matrix):
    scale = max(1.0, float(np.linalg.norm(matrix)))
    assert_multiset_close(eigenvalues_ql(matrix), eigenvalues(matrix), tol=1e-9 * scale)


def test_ql_oracle_agrees_with_solver_on_random_symmetric_matrices():
    rng = np.random.default_rng(TEST_SEED)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        a = rng.normal(size=(n, n))
        _assert_ql_agrees_with_solver((a + a.T) / 2.0)


@pytest.mark.parametrize("m, k", [(5, 10), (10, 10), (10, 20)])
def test_ql_oracle_agrees_with_solver_on_signed_graphs(m, k):
    rng = np.random.default_rng(TEST_SEED + m * k)
    for g in (random_signed_graph(rng, m * k, 0.3), cartesian([cycle(m, 1), cycle(k, 0)])):
        _assert_ql_agrees_with_solver(adjacency(g))
        _assert_ql_agrees_with_solver(laplacian(g))


def test_ql_oracle_degenerate_orders():
    assert eigenvalues_ql(np.zeros((0, 0))).size == 0
    assert list(eigenvalues_ql(np.array([[7.5]]))) == [7.5]
    assert list(eigenvalues_ql(np.zeros((3, 3)))) == [0.0, 0.0, 0.0]


def test_ql_oracle_raises_when_iteration_cap_is_hit(monkeypatch):
    monkeypatch.setattr(referees, "_MAX_QL_ITERATIONS", 0)
    with pytest.raises(EigensolverError):
        eigenvalues_ql(adjacency(cycle(5, 1)))
