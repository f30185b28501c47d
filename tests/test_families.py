"""Parametric generators and the family string grammar."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import TEST_SEED, assert_multiset_close
from referees import random_signed_graph_by_pairs

from signet import verify
from signet.families import (
    complete,
    cycle,
    cylinder,
    grid,
    parse_family,
    path,
    random_signed_graph,
    torus,
)
from signet.graphs import SignedGraph, balance_report
from signet.products import Basis
from signet.structured import spectral_node


def test_path_examples():
    assert path(2, 0) == SignedGraph(2, ((0, 1, 1),))
    assert path(1, 0) == SignedGraph(1)
    g = path(4, 2)
    assert [s for _, _, s in g.edges].count(-1) == 2
    with pytest.raises(ValueError):
        path(3, 3)
    with pytest.raises(ValueError):
        path(0, 0)


def test_cycle_examples():
    assert cycle(3, 3) == complete(3, -1)
    assert cycle(4, 0).m == 4
    with pytest.raises(ValueError):
        cycle(2, 0)
    with pytest.raises(ValueError):
        cycle(4, 5)
    with pytest.raises(ValueError, match=r"^sign must be \+1 or -1$"):
        complete(4, 0)


def test_path_spectrum_is_signature_independent():
    base = spectral_node(path(5, 0)).adjacency
    for r in range(1, 5):
        assert_multiset_close(spectral_node(path(5, r)).adjacency, base, tol=1e-8)


def test_grid_is_positive_square():
    g = grid(2, 0, 2, 0)
    assert g.n == 4 and g.m == 4
    assert all(s == 1 for _, _, s in g.edges)
    degs = [0] * 4
    for u, v, _ in g.edges:
        degs[u] += 1
        degs[v] += 1
    assert degs == [2, 2, 2, 2]
    assert_multiset_close(
        spectral_node(g).adjacency, [-2.0, 0.0, 0.0, 2.0], tol=1e-8
    )


def test_grid_negative_edge_count():
    for m, r1, n, r2 in ((3, 1, 4, 2), (2, 0, 5, 3), (4, 3, 3, 0)):
        g = grid(m, r1, n, r2)
        negatives = sum(1 for _, _, s in g.edges if s == -1)
        assert negatives == n * r1 + m * r2


def test_cylinder_balance_follows_circle_parity():
    for m in (3, 4, 5):
        for r1 in range(m + 1):
            for r2 in (0, 1):
                g = cylinder(m, r1, 3, r2)
                assert balance_report(g).balanced == (r1 % 2 == 0)


def test_torus_balance_needs_both_parities_even():
    for r1 in (0, 1, 2):
        for r2 in (0, 1, 2):
            g = torus(3, r1, 4, r2)
            assert balance_report(g).balanced == (r1 % 2 == 0 and r2 % 2 == 0)
    assert not balance_report(torus(3, 1, 3, 0)).balanced


def test_balance_parity_rules_full_sweep():
    for m in range(1, 7):
        for n in range(1, 7):
            for r1 in range(m):
                for r2 in range(n):
                    assert balance_report(grid(m, r1, n, r2)).balanced
    for m in range(3, 7):
        for n in range(1, 7):
            for r1 in range(m + 1):
                assert balance_report(cylinder(m, r1, n, 0)).balanced == (r1 % 2 == 0)


def test_random_generator_is_deterministic():
    a = random_signed_graph(np.random.default_rng(7), 8, 0.5)
    b = random_signed_graph(np.random.default_rng(7), 8, 0.5)
    assert a == b
    assert random_signed_graph(np.random.default_rng(7), 0, 0.5) == SignedGraph(0)


@pytest.mark.parametrize("p", [0, 0.2, 0.5, 0.8, 1])
@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox])
def test_block_draws_match_one_draw_per_decision(bit_generator, p):
    """The same graph as the per-pair loop, and the generator left where that
    loop leaves it, whatever the bit generator."""
    for seed in range(4):
        for n in range(13):
            blocks = np.random.Generator(bit_generator(TEST_SEED + seed))
            pairs = np.random.Generator(bit_generator(TEST_SEED + seed))
            assert random_signed_graph(blocks, n, p) == random_signed_graph_by_pairs(pairs, n, p), (seed, n)
            assert blocks.random() == pairs.random(), (seed, n)


# The verify draws as written with ``rng.choice`` and ``np.ndindex``, on the
# per-pair loop: the suites must draw exactly these.


def _random_graph_by_choice(rng, max_n):
    n = int(rng.integers(1, max_n + 1))
    return random_signed_graph_by_pairs(rng, n, float(rng.choice([0.2, 0.5, 0.8])))


def _random_factors_by_choice(rng, max_n):
    nu = int(rng.integers(1, 4))
    orders = [int(rng.integers(1, min(4, max_n) + 1)) for _ in range(nu)]
    return [random_signed_graph_by_pairs(rng, n, float(rng.choice([0.3, 0.6, 0.9]))) for n in orders]


def _random_basis_by_ndindex(rng, nu):
    patterns = [tuple(int(x) for x in vec) for vec in np.ndindex(*([2] * nu)) if any(vec)]
    while True:
        mask = rng.random(len(patterns)) < 0.5
        chosen = [p for p, keep in zip(patterns, mask) if keep]
        if chosen and all(any(p[i] for p in chosen) for i in range(nu)):
            return Basis(nu, tuple(chosen))


def _factors_with_edges_by_choice(rng, max_n):
    while True:
        factors = _random_factors_by_choice(rng, max(max_n, 2))
        if all(f.m > 0 for f in factors):
            return factors


def test_verify_draws_match_their_choice_and_ndindex_forms():
    for seed in range(300):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for round_ in range(5):
            max_n = 1 + (seed + round_) % 8
            assert verify._random_graph(new, max_n) == _random_graph_by_choice(old, max_n)
            assert verify._random_factors(new, max_n) == _random_factors_by_choice(old, max_n)
            nu = 1 + round_ % 3
            assert verify._random_basis(new, nu) == _random_basis_by_ndindex(old, nu)
            assert verify._factors_with_edges(new, max_n) == _factors_with_edges_by_choice(old, max_n)
        assert new.random() == old.random(), seed


# --- family strings ---------------------------------------------------------


def test_parse_family_strings():
    assert parse_family("path:n=5,r=2") == (("path", 5, 2),)
    assert parse_family("complete:n=4,sign=-") == (("complete", 4, -1),)
    assert spectral_node(parse_family("torus:m=4,r1=1,n=5,r2=0")).graph == torus(4, 1, 5, 0)
    assert spectral_node(parse_family("cycle:n=6")).graph == cycle(6, 0)
    assert spectral_node(parse_family("complete:n=3,sign=+1")).graph == complete(3, 1)
    assert spectral_node(parse_family("cylinder:m=3,r1=1,n=4,r2=2")).graph == cylinder(3, 1, 4, 2)


def test_parse_family_rejects_bad_strings():
    for text in (
        "blob:n=3",  # unknown kind
        "path",  # missing parameters
        "path:n=3,q=1",  # unknown key
        "path:n=3,n=4",  # duplicate key
        "path:r=1",  # missing required n
        "path:n=x",  # malformed integer
        "complete:n=3,sign=0",  # bad sign token
        "grid:m=2,n=2,r1=0,r2=0,extra=1",
    ):
        with pytest.raises(ValueError):
            spectral_node(parse_family(text)).graph


def test_family_defaults():
    assert spectral_node(parse_family("path:n=4")).graph == path(4, 0)
    assert spectral_node(parse_family("grid:m=2,n=3")).graph == grid(2, 0, 3, 0)
    assert spectral_node(parse_family("complete:n=5")).graph == complete(5, 1)
