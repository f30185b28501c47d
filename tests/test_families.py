"""Parametric generators and the family string grammar."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import assert_multiset_close

from signet.families import (
    FamilySpec,
    build_family,
    complete,
    cycle,
    cylinder,
    from_family_string,
    grid,
    parse_family,
    path,
    random_signed_graph,
    torus,
)
from signet.graphs import SignedGraph, balance_report
from signet.structured import dense_node


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


def test_path_spectrum_is_signature_independent():
    base = dense_node(path(5, 0)).adjacency
    for r in range(1, 5):
        assert_multiset_close(dense_node(path(5, r)).adjacency, base, tol=1e-8)


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
        dense_node(g).adjacency, [-2.0, 0.0, 0.0, 2.0], tol=1e-8
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


# --- family strings ---------------------------------------------------------


def test_parse_family_strings():
    assert parse_family("path:n=5,r=2") == FamilySpec("path", {"n": 5, "r": 2})
    assert parse_family("complete:n=4,sign=-") == FamilySpec(
        "complete", {"n": 4, "sign": -1}
    )
    assert build_family(parse_family("torus:m=4,r1=1,n=5,r2=0")) == torus(4, 1, 5, 0)
    assert from_family_string("cycle:n=6") == cycle(6, 0)
    assert from_family_string("complete:n=3,sign=+1") == complete(3, 1)


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
            from_family_string(text)


def test_family_defaults():
    assert from_family_string("path:n=4") == path(4, 0)
    assert from_family_string("grid:m=2,n=3") == grid(2, 0, 3, 0)
    assert from_family_string("complete:n=5") == complete(5, 1)
