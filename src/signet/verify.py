"""Randomised and exhaustive property suites behind ``signet verify``.

Each suite runs a batch of independent checks and reports how many ran and
which failed.  All randomness is driven by a caller-supplied seed, so a
given invocation is exactly reproducible.  A suite run solves each distinct
matrix once (:class:`_Solves`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import formulas
from .families import build_family, cycle, parse_family, random_signed_graph
from .graphs import (
    SignedGraph,
    adjacency,
    balance_report,
    incidence,
    laplacian,
    underlying,
)
from .linegraph import line_graph
from .oracle import rank_exact
from .products import Basis, cartesian, kron_sum_over_basis, neps, strong_basis
from .spectra import eigenvalues, energy_from_spectrum, laplacian_energy_from_spectrum
from .structured import family_node, line_node

__all__ = ["SuiteResult", "SUITES", "run_suite"]

DEFAULT_SEED = 0x9E3779B97F4A7C15


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, passed: bool, message: str):
        self.checks += 1
        if not passed:
            self.failures.append(message)


def _random_graph(rng, max_n: int) -> SignedGraph:
    n = int(rng.integers(1, max_n + 1))
    p = float(rng.choice([0.2, 0.5, 0.8]))
    return random_signed_graph(rng, n, p)


class _Solves:
    """Spectra of the graph matrices one suite run solves, each distinct
    matrix solved once."""

    def __init__(self):
        self._seen: dict[tuple, np.ndarray] = {}

    def _spectrum(self, matrix: np.ndarray) -> np.ndarray:
        # Entries of a graph matrix lie in [-(n - 1), n - 1], so up to order
        # 128 its int8 bytes are an exact key an eighth the size: a
        # closed-forms run would otherwise keep 4 MB of keys.
        data = matrix.astype(np.int8) if len(matrix) <= 128 else matrix
        key = (matrix.shape, data.tobytes())
        values = self._seen.get(key)
        if values is None:
            values = self._seen[key] = eigenvalues(matrix)
        return values

    def adjacency(self, g: SignedGraph) -> np.ndarray:
        return self._spectrum(adjacency(g))

    def laplacian(self, g: SignedGraph) -> np.ndarray:
        return self._spectrum(laplacian(g))

    def energy(self, g: SignedGraph) -> float:
        return energy_from_spectrum(self.adjacency(g))

    def laplacian_energy(self, g: SignedGraph) -> float:
        return laplacian_energy_from_spectrum(self.laplacian(g), g.m)


def _multiset_close(a, b, tol: float = 1e-8) -> bool:
    a = sorted(float(x) for x in a)
    b = sorted(float(x) for x in b)
    if len(a) != len(b):
        return False
    return all(abs(x - y) <= tol for x, y in zip(a, b))


def kirchhoff_suite(max_n: int = 8, seed: int = DEFAULT_SEED, count: int = 200) -> SuiteResult:
    """incidence @ incidence.T equals the Laplacian, exactly, in integers."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("kirchhoff")
    for i in range(count):
        g = _random_graph(rng, max_n)
        h = incidence(g)
        ok = np.array_equal(h @ h.T, laplacian(g))
        result.record(ok, f"graph {i} (n={g.n}, m={g.m}): H H^T != L")
    return result


def rank_suite(max_n: int = 8, seed: int = DEFAULT_SEED, count: int = 200) -> SuiteResult:
    """Exact rational rank of the Laplacian is n minus balanced components."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("rank")
    for i in range(count):
        g = _random_graph(rng, max_n)
        rep = balance_report(g)
        got = rank_exact(laplacian(g))
        result.record(
            got == g.n - rep.b,
            f"graph {i}: rank {got} != n - b = {g.n - rep.b}",
        )
    return result


def acharya_suite(max_n: int = 8, seed: int = DEFAULT_SEED, count: int = 200) -> SuiteResult:
    """Balanced iff cospectral with the all-positive underlying graph."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("acharya")
    solve = _Solves()
    for i in range(count):
        g = _random_graph(rng, max_n)
        same = _multiset_close(solve.adjacency(g), solve.adjacency(underlying(g)))
        balanced = balance_report(g).balanced
        result.record(
            same == balanced,
            f"graph {i}: cospectral={same} but balanced={balanced}",
        )
    return result


def _random_factors(rng, max_order: int = 64) -> list[SignedGraph]:
    while True:
        nu = int(rng.integers(1, 4))
        orders = [int(rng.integers(1, 5)) for _ in range(nu)]
        if math.prod(orders) <= max_order:
            break
    return [random_signed_graph(rng, n, float(rng.choice([0.3, 0.6, 0.9]))) for n in orders]


def _random_basis(rng, nu: int) -> Basis:
    patterns = [
        tuple(int(x) for x in vec)
        for vec in np.ndindex(*([2] * nu))
        if any(vec)
    ]
    while True:
        mask = rng.random(len(patterns)) < 0.5
        chosen = [p for p, keep in zip(patterns, mask) if keep]
        if chosen and all(any(p[i] for p in chosen) for i in range(nu)):
            return Basis(nu, tuple(chosen))


def neps_matrix_suite(max_n: int = 8, seed: int = DEFAULT_SEED, count: int = 100) -> SuiteResult:
    """Product adjacency equals the Kronecker sum over the basis, exactly."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("neps-matrix")
    for i in range(count):
        factors = _random_factors(rng)
        basis = _random_basis(rng, len(factors))
        built = adjacency(neps(factors, basis))
        summed = kron_sum_over_basis([adjacency(f) for f in factors], basis)
        result.record(
            np.array_equal(built, summed),
            f"case {i}: adjacency(neps) != kron sum (orders {[f.n for f in factors]})",
        )
    return result


def _factors_with_edges(rng, max_order: int = 64) -> list[SignedGraph]:
    while True:
        factors = _random_factors(rng, max_order)
        if all(f.m > 0 for f in factors):
            return factors


def energy_bounds_suite(max_n: int = 8, seed: int = DEFAULT_SEED, count: int = 60) -> SuiteResult:
    """Per-vertex energy of a product is bounded by the basis sum of factor
    energies; equality for the tensor basis, strict otherwise."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("energy-bounds")
    solve = _Solves()
    for i in range(count):
        factors = _factors_with_edges(rng)
        nu = len(factors)
        basis = _random_basis(rng, nu)
        g = neps(factors, basis)
        lhs = solve.energy(g) / g.n
        factor_rates = [solve.energy(f) / f.n for f in factors]
        rhs = sum(
            math.prod(r for r, bit in zip(factor_rates, vec) if bit)
            for vec in basis.vectors
        )
        result.record(lhs <= rhs + 1e-9, f"case {i}: bound violated ({lhs} > {rhs})")
        if basis == strong_basis(nu):
            result.record(abs(lhs - rhs) <= 1e-8, f"case {i}: tensor equality broken")
        elif len(basis.vectors) > 1:
            result.record(rhs - lhs > 1e-9, f"case {i}: strictness broken ({lhs} vs {rhs})")
        if nu >= 2:
            cart = cartesian(factors)
            l_lhs = solve.laplacian_energy(cart) / cart.n
            l_rhs = sum(solve.laplacian_energy(f) / f.n for f in factors)
            result.record(
                l_lhs <= l_rhs + 1e-9, f"case {i}: Laplacian bound violated"
            )
            if sum(1 for f in factors if f.m) >= 2:
                result.record(
                    l_rhs - l_lhs > 1e-9, f"case {i}: Laplacian strictness broken"
                )
    return result


def _closed_form_cases(max_n: int):
    """The closed-forms cases as (family string, check the graph, check its
    line graph, check the line graph's Laplacian where a rule gives it)."""
    for n in range(1, max_n + 1):
        for r in range(n):
            yield f"path:n={n},r={r}", True, False, False
    for n in range(3, max_n + 1):
        for r in range(n + 1):
            yield f"cycle:n={n},r={r}", True, True, False
    for m in range(1, max_n + 1):
        for n in range(1, max_n + 1):
            for r1, r2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
                if r1 < m and r2 < n:
                    yield f"grid:m={m},r1={r1},n={n},r2={r2}", True, r1 == r2 == 0, True
    for m in range(3, max_n + 1):
        for n in range(1, max_n + 1):
            for r1 in (0, 1):
                yield f"cylinder:m={m},r1={r1},n={n}", True, True, True
    for m in range(3, max_n + 1):
        for n in range(3, max_n + 1):
            for r1, r2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
                yield f"torus:m={m},r1={r1},n={n},r2={r2}", True, True, True
    for n in range(1, max_n + 1):
        for sign in "+-":
            yield f"complete:n={n},sign={sign}", False, True, True
    for n in range(1, max_n + 1):
        for r in range(n):
            yield f"path:n={n},r={r}", False, True, True


def closed_forms_suite(max_n: int = 6, seed: int = DEFAULT_SEED, count: int = 0) -> SuiteResult:
    """The structured family nodes that ``spectrum --family`` answers with,
    and their line-graph rules, match the dense solver within 1e-8."""
    result = SuiteResult("closed-forms")
    solve = _Solves()

    def check(label, node_values, solved):
        result.record(_multiset_close(node_values, solved), f"{label}: node != solver")

    for text, plain, line, line_laplacian in _closed_form_cases(max_n):
        spec = parse_family(text)
        node = family_node(spec)
        g = build_family(spec)
        if plain:
            check(f"{text} adjacency", node.adjacency, solve.adjacency(g))
            check(f"{text} laplacian", node.laplacian, solve.laplacian(g))
        if line:
            lg = line_graph(g).graph
            lined = line_node(node)
            try:
                check(f"line({text}) adjacency", lined.adjacency, solve.adjacency(lg))
                # A line Laplacian from the dense leaf would be compared with itself.
                if line_laplacian and lined.laplacian_rule != "dense":
                    check(f"line({text}) laplacian", lined.laplacian, solve.laplacian(lg))
            except ValueError as exc:
                result.record(False, f"line({text}): the line rule refuses the node: {exc}")
    return result


def line_theorems_suite(max_n: int = 8, seed: int = DEFAULT_SEED, count: int = 150) -> SuiteResult:
    """Line-graph matrix identity and spectrum reconstruction on random graphs."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("line-theorems")
    solve = _Solves()
    for i in range(count):
        g = _random_graph(rng, max_n)
        lg = line_graph(g).graph
        h = incidence(g)
        identity_ok = np.array_equal(
            adjacency(lg), 2 * np.eye(g.m, dtype=np.int64) - h.T @ h
        )
        result.record(identity_ok, f"graph {i}: A(line) != 2I - H^T H")
        rep = balance_report(g)
        got = solve.adjacency(lg)
        try:
            expected = formulas.line_spectrum_general(solve.laplacian(g), g.m, g.n, rep.b)
            matched = _multiset_close(expected, got)
            problem = "" if matched else "line spectrum does not match the Laplacian construction"
        except ValueError as exc:
            problem = f"the line rule refuses the graph: {exc}"
        result.record(not problem, f"graph {i}: {problem}")
        result.record(
            all(v <= 2.0 + 1e-8 for v in got), f"graph {i}: eigenvalue above 2"
        )
    for n in range(3, 9):
        for r in range(n + 1):
            lg = line_graph(cycle(n, r)).graph
            degs = [0] * lg.n
            signprod = 1
            for u, v, s in lg.edges:
                degs[u] += 1
                degs[v] += 1
                signprod *= s
            cyc_ok = lg.n == n and lg.m == n and all(d == 2 for d in degs)
            result.record(
                cyc_ok and signprod == (-1) ** r,
                f"line(cycle({n},{r})): not a cycle with sign (-1)^{r}",
            )
    return result


SUITES = {
    "kirchhoff": kirchhoff_suite,
    "rank": rank_suite,
    "acharya": acharya_suite,
    "neps-matrix": neps_matrix_suite,
    "energy-bounds": energy_bounds_suite,
    "closed-forms": closed_forms_suite,
    "line-theorems": line_theorems_suite,
}


def run_suite(name: str, max_n: int | None = None, seed: int | None = None) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}, expected one of {sorted(SUITES)}")
    kwargs = {}
    if max_n is not None:
        kwargs["max_n"] = max_n
    if seed is not None:
        kwargs["seed"] = seed
    return SUITES[name](**kwargs)
