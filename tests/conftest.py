"""Shared fixtures: the seeded random-graph corpus and multiset helpers."""

from __future__ import annotations

import itertools
import os

import numpy as np
import pytest
from hypothesis import strategies as st

from signet.families import random_signed_graph
from signet.graphs import SignedGraph
from signet.verify import DEFAULT_SEED, multiset_gap

# The suites' fixed 64-bit seed for every randomised sweep; override with SIGNET_SEED.
TEST_SEED = int(os.environ.get("SIGNET_SEED", str(DEFAULT_SEED)))
CORPUS_SIZE = 500
CORPUS_MAX_N = 8


def make_corpus(seed: int = TEST_SEED, size: int = CORPUS_SIZE, max_n: int = CORPUS_MAX_N):
    """Deterministic list of random signed graphs with n <= max_n and edge
    probability drawn from {0.2, 0.5, 0.8}."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(size):
        n = int(rng.integers(1, max_n + 1))
        p = float(rng.choice([0.2, 0.5, 0.8]))
        graphs.append(random_signed_graph(rng, n, p))
    return graphs


@pytest.fixture(scope="session")
def corpus():
    return make_corpus()


def assert_multiset_close(actual, expected, tol: float = 1e-8):
    """``verify.multiset_gap(actual, expected) <= tol``, with both sorted
    multisets in the failure message."""
    worst = multiset_gap(actual, expected)
    assert worst <= tol, (
        f"multisets differ, worst gap {worst:.3e} > {tol:.1e}\n"
        f"  got:      {sorted(actual)}\n  expected: {sorted(expected)}"
    )


def multiplicity_of(values, x: float, tol: float) -> int:
    """Count eigenvalues within tol of x."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return sum(1 for v in values if abs(v - x) <= tol)


@st.composite
def small_signed_graphs(draw, max_n: int = 6):
    """A signed graph of order 0..max_n: each vertex pair a positive edge, a
    negative edge or no edge."""
    n = draw(st.integers(0, max_n))
    signs = (draw(st.sampled_from((0, 1, -1))) for _ in range(n * (n - 1) // 2))
    return SignedGraph(n, tuple((u, v, s) for (u, v), s in zip(itertools.combinations(range(n), 2), signs) if s))
