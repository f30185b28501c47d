"""Acceptance gate: ten library-level criteria, one printed verdict each.

Every test prints a single ``ACCEPTANCE <k> PASS|FAIL`` line (visible with
``pytest -s``) and then asserts, so the suite doubles as a human-readable
scorecard.  Criterion 6 checks two quoted closed-form energy values that
the solver, the exact matrices and the zero-trace identity all contradict;
it is expected to fail and the failure message documents the verified
values.  See the README for the full analysis.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from conftest import TEST_SEED, multiplicity_of

from signet.families import (
    complete,
    cycle,
    parse_family,
    random_signed_graph,
)
from signet.graphs import (
    adjacency,
    balance_report,
    degrees,
    incidence,
    laplacian,
    underlying,
)
from signet.linegraph import line_graph
from signet.oracle import rank_exact
from signet.products import Basis, cartesian, kron_sum_over_basis, neps, tensor_basis
from signet.structured import LineNode, spectral_node
from signet.verify import multiset_gap


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} {name}"
    if detail and not ok:
        line += f" [{detail}]"
    print(line)
    return ok


# --- 1 -----------------------------------------------------------------------


def test_criterion_01_kirchhoff_identity(corpus):
    start = time.perf_counter()
    bad = sum(
        1
        for g in corpus
        if not np.array_equal(incidence(g) @ incidence(g).T, laplacian(g))
    )
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 5.0
    assert _verdict(
        1,
        "integer identity H H^T == L on the 500-graph corpus",
        ok,
        f"{bad} mismatches in {elapsed:.2f}s",
    )


# --- 2 -----------------------------------------------------------------------


def test_criterion_02_rank_law(corpus):
    bad = sum(
        1 for g in corpus if rank_exact(laplacian(g)) != g.n - balance_report(g).b
    )
    assert _verdict(2, "exact rank(L) == n - b on the corpus", bad == 0, f"{bad} bad")


# --- 3 -----------------------------------------------------------------------


def test_criterion_03_balance_iff_cospectral(corpus):
    bad = 0
    for g in corpus:
        cospectral = multiset_gap(spectral_node(g).adjacency, spectral_node(underlying(g)).adjacency) <= 1e-8
        if cospectral != balance_report(g).balanced:
            bad += 1
    assert _verdict(
        3, "balanced <=> cospectral with the underlying graph", bad == 0, f"{bad} bad"
    )


# --- 4 -----------------------------------------------------------------------


def _factor_basis_cases(seed: int, count: int):
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < count:
        nu = int(rng.integers(1, 4))
        orders = [int(rng.integers(1, 5)) for _ in range(nu)]
        if math.prod(orders) > 64:
            continue
        factors = [
            random_signed_graph(rng, n, float(rng.choice([0.3, 0.6, 0.9])))
            for n in orders
        ]
        patterns = [v for v in itertools.product((0, 1), repeat=nu) if any(v)]
        mask = rng.random(len(patterns)) < 0.5
        chosen = tuple(p for p, keep in zip(patterns, mask) if keep)
        if not chosen or not all(any(p[i] for p in chosen) for i in range(nu)):
            continue
        produced += 1
        yield factors, Basis(nu, chosen)


def test_criterion_04_product_adjacency_formula():
    bad = 0
    for factors, basis in _factor_basis_cases(TEST_SEED + 40, 200):
        direct = adjacency(neps(factors, basis))
        summed = kron_sum_over_basis([adjacency(f) for f in factors], basis)
        if not np.array_equal(direct, summed):
            bad += 1
    assert _verdict(
        4,
        "product adjacency equals its Kronecker-sum formula (200 cases)",
        bad == 0,
        f"{bad} bad",
    )


# --- 5 -----------------------------------------------------------------------


def test_criterion_05_closed_form_sweep():
    start = time.perf_counter()
    failures: list[str] = []
    tol = 1e-8

    def check(label, node_vals, spectrum_vals):
        if not multiset_gap(node_vals, spectrum_vals) <= tol:
            failures.append(label)

    def sweep(text, plain=True, line=False, line_laplacian=False):
        # The structured nodes `spectrum --family` answers with, against
        # the dense solve of the built graph and of its line graph.
        spec = parse_family(text)
        g = spectral_node(spec).graph
        if plain:
            node = spectral_node(spec)
            check(text, node.adjacency, spectral_node(g).adjacency)
            check(f"{text} laplacian", node.laplacian, spectral_node(g).laplacian)
        if line:
            node, lg = LineNode(spectral_node(spec)), line_graph(g).graph
            check(f"line({text})", node.adjacency, spectral_node(lg).adjacency)
            if line_laplacian:
                check(f"line({text}) laplacian", node.laplacian, spectral_node(lg).laplacian)

    for n in range(1, 9):
        for r in range(n):
            sweep(f"path:n={n},r={r}")
    for n in range(3, 9):
        for r in range(n + 1):
            sweep(f"cycle:n={n},r={r}")
    for m in range(1, 7):
        for n in range(1, 7):
            for r1, r2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
                if r1 > m - 1 or r2 > n - 1:
                    continue
                sweep(f"grid:m={m},r1={r1},n={n},r2={r2}", line=r1 == r2 == 0)
    for m in range(3, 7):
        for n in range(1, 7):
            for r1 in (0, 1):
                sweep(f"cylinder:m={m},r1={r1},n={n}", line=True)
    for m in range(3, 7):
        for n in range(3, 7):
            for r1 in (0, 1):
                for r2 in (0, 1):
                    sweep(f"torus:m={m},r1={r1},n={n},r2={r2}", line=True, line_laplacian=True)
    for n in range(1, 9):
        for sign in "+-":
            sweep(f"complete:n={n},sign={sign}", plain=False, line=True)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    assert _verdict(
        5,
        "all closed-form spectra match the solver (1e-8 multisets)",
        ok,
        f"{len(failures)} mismatches in {elapsed:.1f}s: {failures[:4]}",
    )


# --- 6 -----------------------------------------------------------------------


def test_criterion_06_quoted_complete_line_energies():
    failures = []
    for n in range(3, 9):
        plus = line_graph(complete(n, 1)).graph
        e_plus = spectral_node(plus).energy
        quoted_plus = float((n - 1) * (2 * n - 5))
        if abs(e_plus - quoted_plus) > 1e-7:
            failures.append(f"+K_{n}: quoted {quoted_plus:g}, solver {e_plus:.10g}")
        minus = line_graph(complete(n, -1)).graph
        e_minus = spectral_node(minus).energy
        quoted_minus = float((n - 1) * (2 * n - 5) + 2 * (n - 3))
        if abs(e_minus - quoted_minus) > 1e-7:
            failures.append(f"-K_{n}: quoted {quoted_minus:g}, solver {e_minus:.10g}")
        mult = multiplicity_of(spectral_node(plus).adjacency, 2.0, 1e-6)
        if mult != (n - 1) * (n - 2) // 2:
            failures.append(f"+K_{n}: multiplicity of 2 is {mult}")
    ok = not failures
    _verdict(
        6,
        "quoted energies (n-1)(2n-5) and (n-1)(2n-5)+2(n-3) for complete-graph line graphs",
        ok,
        "; ".join(failures[:3]) + (" ..." if len(failures) > 3 else ""),
    )
    assert ok, (
        "The quoted closed-form energies are inconsistent with the exact "
        "matrices: they imply a complete-graph adjacency spectrum of "
        "{0 x (n-1), n-1}, which has nonzero trace.  The solver-verified "
        "energies, consistent with the zero-trace spectrum {-1 x (n-1), n-1}, "
        "are E = 2(n-1)(n-2) for the all-positive case and "
        "E = 2(n-2) + (n-1)|n-4| + n(n-3) for the all-negative case "
        "(see README, 'Verification findings').  Failures: " + "; ".join(failures)
    )


# --- 7 -----------------------------------------------------------------------


def test_criterion_07_energy_bounds():
    rng = np.random.default_rng(TEST_SEED + 70)
    failures = []
    cases = 0
    while cases < 100:
        nu = int(rng.integers(2, 4))
        orders = [int(rng.integers(2, 5)) for _ in range(nu)]
        if math.prod(orders) > 64:
            continue
        factors = [random_signed_graph(rng, n, 0.8) for n in orders]
        if any(f.m == 0 for f in factors):
            continue
        patterns = [v for v in itertools.product((0, 1), repeat=nu) if any(v)]
        mask = rng.random(len(patterns)) < 0.5
        chosen = tuple(p for p, keep in zip(patterns, mask) if keep)
        if not chosen or not all(any(p[i] for p in chosen) for i in range(nu)):
            continue
        cases += 1
        basis = Basis(nu, chosen)
        g = neps(factors, basis)
        rates = [spectral_node(f).energy / f.n for f in factors]
        rhs = sum(
            math.prod(r for r, bit in zip(rates, vec) if bit) for vec in basis.vectors
        )
        lhs = spectral_node(g).energy / g.n
        if lhs > rhs + 1e-9:
            failures.append(f"case {cases}: bound violated")
        if basis == tensor_basis(nu) and abs(lhs - rhs) > 1e-8:
            failures.append(f"case {cases}: tensor equality violated")
        if len(basis.vectors) > 1 and rhs - lhs <= 1e-9:
            failures.append(f"case {cases}: strictness violated ({lhs} vs {rhs})")
        cart = cartesian(factors)
        l_lhs = spectral_node(cart).laplacian_energy / cart.n
        l_rhs = sum(spectral_node(f).laplacian_energy / f.n for f in factors)
        if l_lhs > l_rhs + 1e-9:
            failures.append(f"case {cases}: sum-product Laplacian bound violated")
        if l_rhs - l_lhs <= 1e-9:
            failures.append(f"case {cases}: Laplacian strictness violated")
    assert _verdict(
        7,
        "per-vertex energy bounds with tensor equality and strictness",
        not failures,
        "; ".join(failures[:3]),
    )


# --- 8 -----------------------------------------------------------------------


def test_criterion_08_balance_multiplicativity():
    rng = np.random.default_rng(TEST_SEED + 80)
    bad = 0
    for _ in range(100):
        nu = int(rng.integers(2, 4))
        factors = [
            random_signed_graph(rng, int(rng.integers(1, 5)), 0.6) for _ in range(nu)
        ]
        got = balance_report(cartesian(factors)).b
        want = math.prod(balance_report(f).b for f in factors)
        if got != want:
            bad += 1
    assert _verdict(
        8, "b of a sum-product equals the product of factor b values", bad == 0, f"{bad} bad"
    )


# --- 9 -----------------------------------------------------------------------


def test_criterion_09_regular_energy_ladder():
    instances = [cycle(n, r) for n in range(3, 9) for r in range(n + 1)]
    instances += [
        cartesian([cycle(m, r1), cycle(n, r2)])
        for m in (3, 4, 5, 6)
        for n in (3, 4, 5, 6)
        for r1 in (0, 1)
        for r2 in (0, 1)
    ]
    instances += [complete(n, s) for n in range(1, 9) for s in (1, -1)]
    failures = []
    for g in instances:
        degs = degrees(g)
        k = int(degs[0]) if g.n else 0
        e = spectral_node(g).energy
        el = spectral_node(g).laplacian_energy
        if abs(e - el) > 1e-7:
            failures.append(f"n={g.n} m={g.m}: E={e:.9g} E_L={el:.9g}")
        lap_sorted = sorted(spectral_node(g).laplacian)
        ladder = sorted(k - v for v in spectral_node(g).adjacency)
        if not multiset_gap(lap_sorted, ladder) <= 1e-8:
            failures.append(f"n={g.n} m={g.m}: Laplacian is not k - adjacency")
    assert _verdict(
        9,
        "regular families: E_L == E and Laplacian spectrum k - adjacency",
        not failures,
        "; ".join(failures[:3]),
    )


# --- 10 ----------------------------------------------------------------------


def test_criterion_10_line_graph_spectrum_law(corpus):
    bad = 0
    for g in corpus:
        rep = balance_report(g)
        lap = sorted(spectral_node(g).laplacian)
        expected = [2.0 - v for v in lap[rep.b :]] + [2.0] * (g.m - g.n + rep.b)
        got = spectral_node(line_graph(g).graph).adjacency
        if not multiset_gap(got, expected) <= 1e-7:
            bad += 1
    assert _verdict(
        10,
        "line-graph spectra reconstructed from Laplacian spectra (trees included)",
        bad == 0,
        f"{bad} bad",
    )
