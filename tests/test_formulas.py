"""Closed forms, the line-graph rule and the structured family nodes built
from them, against the dense solver and against each other."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import TEST_SEED, assert_multiset_close

from signet import formulas
from signet.families import (
    FamilySpec,
    build_family,
    complete,
    cycle,
    cylinder,
    grid,
    parse_family,
    path,
    random_signed_graph,
    torus,
)
from signet.graphs import SignedGraph, balance_report, negate
from signet.linegraph import line_graph
from signet.spectra import energy_from_spectrum
from signet.structured import dense_node, spectral_node


def test_parity_bracket():
    assert [formulas.parity(r) for r in range(5)] == [0, 1, 0, 1, 0]


# --- paths and cycles -------------------------------------------------------


def test_path_spectrum_small_values():
    assert_multiset_close(formulas.path_spectrum(2), [1.0, -1.0])
    lap = formulas.path_laplacian_spectrum(6)
    assert min(abs(v) for v in lap) == pytest.approx(0.0, abs=1e-12)
    assert sum(1 for v in lap if v > 1e-9) == 5


def test_path_formulas_match_solver_all_signatures():
    for n in range(1, 13):
        expected = formulas.path_spectrum(n)
        expected_lap = formulas.path_laplacian_spectrum(n)
        for r in range(n):
            g = path(n, r)
            assert_multiset_close(dense_node(g).adjacency, expected)
            assert_multiset_close(dense_node(g).laplacian, expected_lap)


def test_cycle_spectrum_small_values():
    assert_multiset_close(formulas.cycle_spectrum(3, 1), [1.0, -2.0, 1.0])
    assert_multiset_close(formulas.cycle_spectrum(4, 0), [2.0, 0.0, -2.0, 0.0])


def test_cycle_spectrum_depends_only_on_parity():
    for n in (3, 5, 8):
        for r in range(n - 1):
            assert_multiset_close(
                formulas.cycle_spectrum(n, r), formulas.cycle_spectrum(n, r + 2)
            )


def test_cycle_laplacian_zero_iff_even_signature():
    for n in (3, 4, 7):
        for r in range(n + 1):
            lap = formulas.cycle_laplacian_spectrum(n, r)
            has_zero = any(abs(v) <= 1e-9 for v in lap)
            assert has_zero == (r % 2 == 0)
            g = cycle(n, r)
            assert_multiset_close(dense_node(g).laplacian, lap)
            assert_multiset_close(dense_node(g).adjacency, formulas.cycle_spectrum(n, r))


# --- two-dimensional grids (structured nodes) --------------------------------


def _node(text: str, line: bool = False):
    """The structured node `spectrum --family text [--line]` answers with."""
    return spectral_node(parse_family(text), line)


def test_grid_formula_values_and_energies():
    node = _node("grid:m=2,n=2")
    assert_multiset_close(node.adjacency, [2.0, 0.0, 0.0, -2.0])
    assert 2.0 * node.m / node.n == pytest.approx(2.0)
    for m, n in ((1, 1), (2, 3), (4, 4), (5, 2)):
        node = _node(f"grid:m={m},n={n}")
        for r1 in range(m):
            for r2 in range(n):
                g = grid(m, r1, n, r2)
                assert_multiset_close(dense_node(g).adjacency, node.adjacency)
                assert_multiset_close(dense_node(g).laplacian, node.laplacian)
                assert dense_node(g).energy == pytest.approx(node.energy, abs=1e-7)
                assert dense_node(g).laplacian_energy == pytest.approx(
                    node.laplacian_energy, abs=1e-7
                )
        assert 2.0 * node.m / node.n == pytest.approx(4.0 - 2.0 / m - 2.0 / n)


def test_cylinder_formula_matches_solver():
    for m in range(3, 7):
        for n in range(1, 6):
            for r1 in (0, 1):
                node = _node(f"cylinder:m={m},r1={r1},n={n}")
                for r2 in (0, 1):
                    if r2 > n - 1:
                        continue
                    g = cylinder(m, r1, n, r2)
                    assert_multiset_close(dense_node(g).adjacency, node.adjacency)
                    assert_multiset_close(dense_node(g).laplacian, node.laplacian)
                    assert dense_node(g).energy == pytest.approx(node.energy, abs=1e-7)
                    assert dense_node(g).laplacian_energy == pytest.approx(
                        node.laplacian_energy, abs=1e-7
                    )


def test_torus_formula_and_regular_energy_identity():
    for m in (3, 4):
        for n in (3, 5):
            for r1 in (0, 1):
                for r2 in (0, 1):
                    node = _node(f"torus:m={m},r1={r1},n={n},r2={r2}")
                    g = torus(m, r1, n, r2)
                    assert_multiset_close(dense_node(g).adjacency, node.adjacency)
                    assert_multiset_close(dense_node(g).laplacian, node.laplacian)
                    assert node.energy == pytest.approx(node.laplacian_energy, abs=1e-10)
                    assert dense_node(g).energy == pytest.approx(node.energy, abs=1e-7)
                    zero = any(abs(v) <= 1e-9 for v in node.laplacian)
                    assert zero == (r1 % 2 == 0 and r2 % 2 == 0)


# --- general line-graph transform -------------------------------------------


def test_line_spectrum_general_tree_case():
    star = SignedGraph(4, ((0, 1, 1), (0, 2, -1), (0, 3, 1)))
    lap = sorted(dense_node(star).laplacian)
    got = formulas.line_spectrum_general(lap, star.m, star.n, 1)
    # m - n + b = 0: no extra eigenvalue 2 appears
    assert len(got) == star.m
    assert_multiset_close(
        got, dense_node(line_graph(star).graph).adjacency, tol=1e-7
    )


def test_line_spectrum_general_random_graphs():
    rng = np.random.default_rng(TEST_SEED)
    for _ in range(50):
        g = random_signed_graph(rng, int(rng.integers(1, 8)), 0.5)
        rep = balance_report(g)
        lap = sorted(dense_node(g).laplacian)
        got = formulas.line_spectrum_general(lap, g.m, g.n, rep.b)
        want = dense_node(line_graph(g).graph).adjacency
        assert_multiset_close(got, want, tol=1e-7)
        assert energy_from_spectrum(got) == pytest.approx(
            dense_node(line_graph(g).graph).energy, abs=1e-7
        )


def test_line_spectrum_general_validates_kernel_count():
    lap = [0.0, 2.0, 4.0]
    with pytest.raises(ValueError):
        formulas.line_spectrum_general(lap, 3, 3, 2)  # second value is not 0
    with pytest.raises(ValueError):
        formulas.line_spectrum_general(lap, 3, 4, 1)  # wrong length


def test_line_of_positive_complete_via_general_transform():
    # K_n Laplacian is {0, n x (n-1)}; the transform gives 2 - n with
    # multiplicity n - 1 plus 2 with multiplicity C(n-1, 2).
    for n in range(3, 8):
        lap = [0.0] + [float(n)] * (n - 1)
        m = n * (n - 1) // 2
        got = formulas.line_spectrum_general(lap, m, n, 1)
        expected = [2.0 - n] * (n - 1) + [2.0] * ((n - 1) * (n - 2) // 2)
        assert_multiset_close(got, expected)
        solver = dense_node(line_graph(complete(n, 1)).graph).adjacency
        assert_multiset_close(got, solver, tol=1e-7)


# --- line graph over a regular base (structured nodes) ----------------------


def test_regular_transform_on_complete_graphs():
    for n in range(3, 8):
        plus = _node(f"complete:n={n},sign=+", True)
        assert_multiset_close(
            plus.adjacency,
            [2.0 - n] * (n - 1) + [2.0] * ((n - 1) * (n - 2) // 2),
        )
        # Laplacian: 3k - 4 - lambda over the unbalanced part plus 2k - 4
        # repeats; for +K_n that is 3n - 6 (n-1 times) and 2n - 6.
        assert_multiset_close(
            plus.laplacian,
            [3.0 * n - 6.0] * (n - 1) + [2.0 * n - 6.0] * ((n - 1) * (n - 2) // 2),
        )
        lg = line_graph(complete(n, 1)).graph
        assert_multiset_close(plus.laplacian, dense_node(lg).laplacian, tol=1e-7)
        assert plus.energy == pytest.approx(dense_node(lg).energy, abs=1e-7)

        # -K_n itself is unbalanced for n >= 3 but its negation +K_n is
        # balanced, so -k appears once in the spectrum
        minus = _node(f"complete:n={n},sign=-", True)
        expected = (
            [-2.0 * (n - 2)] + [4.0 - n] * (n - 1) + [2.0] * (n * (n - 3) // 2)
        )
        assert_multiset_close(minus.adjacency, expected)
        lgm = line_graph(complete(n, -1)).graph
        assert_multiset_close(minus.adjacency, dense_node(lgm).adjacency, tol=1e-7)
        assert minus.energy == pytest.approx(dense_node(lgm).energy, abs=1e-7)


def test_regular_transform_energy_equals_laplacian_energy():
    # 2-regular instance: the line graph of a signed cycle is a signed
    # cycle, where E = E_L holds on both sides.
    for n in (4, 5, 6, 7):
        for r in range(3):
            res = _node(f"cycle:n={n},r={r}", True)
            lg = line_graph(cycle(n, r)).graph
            assert res.energy == pytest.approx(dense_node(lg).energy, abs=1e-7)
            assert res.energy == pytest.approx(dense_node(lg).laplacian_energy, abs=1e-7)
            assert res.laplacian_energy == pytest.approx(dense_node(lg).laplacian_energy, abs=1e-7)


# --- line graphs of Cartesian products (structured nodes) -------------------


def test_cartesian_line_transform_on_grids():
    for m, n in ((2, 2), (3, 4), (5, 5), (1, 5), (6, 2)):
        res = _node(f"grid:m={m},n={n}", True)
        lg = line_graph(grid(m, 0, n, 0)).graph
        assert_multiset_close(res.adjacency, dense_node(lg).adjacency, tol=1e-7)
        assert res.energy == pytest.approx(dense_node(lg).energy, abs=1e-7)
    # the 2 x 2 case closes the loop: the grid is C_4, its line graph is
    # C_4 again, so the energy must come back to 4
    assert _node("grid:m=2,n=2", True).energy == pytest.approx(4.0, abs=1e-9)


def test_cartesian_line_transform_on_cylinders():
    for m in (3, 4, 5):
        for n in (1, 2, 4):
            for r1 in (0, 1):
                res = _node(f"cylinder:m={m},r1={r1},n={n}", True)
                lg = line_graph(cylinder(m, r1, n, 0)).graph
                assert_multiset_close(
                    res.adjacency, dense_node(lg).adjacency, tol=1e-7
                )
                assert res.energy == pytest.approx(dense_node(lg).energy, abs=1e-7)


def test_torus_line_spectra():
    for m, r1, n, r2 in ((3, 0, 3, 0), (3, 1, 3, 0), (4, 1, 3, 1), (4, 0, 5, 1)):
        res = _node(f"torus:m={m},r1={r1},n={n},r2={r2}", True)
        lg = line_graph(torus(m, r1, n, r2)).graph
        assert lg.n == 2 * m * n
        assert_multiset_close(res.adjacency, dense_node(lg).adjacency, tol=1e-7)
        assert_multiset_close(res.laplacian, dense_node(lg).laplacian, tol=1e-7)
        assert res.energy == pytest.approx(dense_node(lg).energy, abs=1e-7)
        assert res.energy == pytest.approx(dense_node(lg).laplacian_energy, abs=1e-7)
        # the mn extra adjacency values sit at 2, the Laplacian ones at 4
        assert sum(1 for v in res.adjacency if abs(v - 2.0) <= 1e-9) >= m * n
        assert sum(1 for v in res.laplacian if abs(v - 4.0) <= 1e-9) >= m * n


# --- homogeneous signatures (structured nodes) ------------------------------


def test_homogeneous_line_spectra_on_complete_graphs():
    for n in range(3, 8):
        m = n * (n - 1) // 2
        k = 2 * (n - 2)  # the common degree of line(K_n)
        plus = _node(f"complete:n={n},sign=+", True)
        assert plus.energy == pytest.approx(2.0 * (n - 1) * (n - 2), abs=1e-9)
        lg = line_graph(complete(n, 1)).graph
        assert_multiset_close(plus.adjacency, dense_node(lg).adjacency, tol=1e-7)
        assert_multiset_close(plus.laplacian, dense_node(lg).laplacian, tol=1e-7)

        minus = _node(f"complete:n={n},sign=-", True)
        expected_energy = 2.0 * (n - 2) + (n - 1) * abs(n - 4) + n * (n - 3)
        assert minus.energy == pytest.approx(expected_energy, abs=1e-9)
        lgm = line_graph(complete(n, -1)).graph
        assert_multiset_close(minus.adjacency, dense_node(lgm).adjacency, tol=1e-7)

        # unsigned line graph of K_n, the negation of line(-K_n): spectrum
        # 2(n-2) once, n-4 with multiplicity n-1, -2 with multiplicity m-n;
        # its Laplacian k + lambda puts 0 once, n with multiplicity n-1 and
        # 2n-2 with multiplicity m-n.
        unsigned = negate(lgm)
        unsigned_values = -minus.adjacency
        unsigned_laplacian = k + minus.adjacency
        assert_multiset_close(
            unsigned_values, dense_node(unsigned).adjacency, tol=1e-7
        )
        expected_unsigned = (
            [2.0 * (n - 2)] + [float(n - 4)] * (n - 1) + [-2.0] * (m - n)
        )
        assert_multiset_close(unsigned_values, expected_unsigned)
        assert_multiset_close(
            unsigned_laplacian,
            [0.0] + [float(n)] * (n - 1) + [2.0 * n - 2.0] * (m - n),
        )
        assert_multiset_close(
            unsigned_laplacian,
            dense_node(unsigned).laplacian,
            tol=1e-7,
        )


def test_homogeneous_line_spectra_on_a_cycle():
    g = cycle(5, 0)
    res = _node("cycle:n=5,r=0", True)
    lg = line_graph(g).graph
    assert_multiset_close(res.adjacency, dense_node(lg).adjacency, tol=1e-7)
    assert res.energy == pytest.approx(dense_node(lg).energy, abs=1e-7)
    assert_multiset_close(res.laplacian, dense_node(lg).laplacian, tol=1e-7)

    neg = _node("cycle:n=5,r=5", True)  # negate(cycle(5, 0))
    lgn = line_graph(negate(g)).graph
    assert_multiset_close(neg.adjacency, dense_node(lgn).adjacency, tol=1e-7)
    assert_multiset_close(
        -neg.adjacency, dense_node(negate(lgn)).adjacency, tol=1e-7
    )


def test_complete_line_spectra_input_validation():
    with pytest.raises(ValueError):
        spectral_node(parse_family("complete:n=0,sign=+"), line=True)
    with pytest.raises(ValueError):
        spectral_node(FamilySpec("complete", {"n": 4, "sign": 0}), line=True)


# --- the paper's displays, as corrected (README, "Verification findings") ---


def _cosines(count: int, step: float) -> np.ndarray:
    """cos(i * step) for i = 1..count."""
    return np.cos(np.arange(1, count + 1) * step)


def _cycle_cosines(m: int, r: int) -> np.ndarray:
    """cos((2i - [r]) pi / m) for i = 1..m, the signed cycle C(m, r)."""
    return np.cos((2 * np.arange(1, m + 1) - r % 2) * np.pi / m)


def _cylinder_display(m, r1, n):
    # The path factor's cosine index is j, not 2j.
    cyc = _cycle_cosines(m, r1)[:, None]
    return {
        "adjacency": 2 * (cyc + _cosines(n, np.pi / (n + 1))[None, :]),
        "laplacian": 2 * (2 - cyc + _cosines(n, np.pi / n)[None, :]),
    }


def _grid_laplacian_energy_display(m, n):
    # The offset to the average degree is +1/m + 1/n, not -1/m - 1/n.
    total = _cosines(m, np.pi / m)[:, None] + _cosines(n, np.pi / n)[None, :]
    return {"laplacian_energy": 2 * np.abs(total + 1 / m + 1 / n).sum()}


def _grid_line_display(m, n):
    # The constant is -2, not +2; the (m-1)(n-1) - 1 extra 2s complete the
    # 2mn - m - n edges.
    total = _cosines(m, np.pi / m)[:, None] + _cosines(n, np.pi / n)[None, :]
    values = (-2 - 2 * total).ravel().tolist() + [2.0] * ((m - 1) * (n - 1) - 1)
    return {"adjacency": values}


def _torus_line_display(m, r1, n, r2):
    # The mn extra eigenvalues 2 add 2mn to the energy, not 4mn.
    a, b = _cycle_cosines(m, r1)[:, None], _cycle_cosines(n, r2)[None, :]
    values = (2 * (a + b - 1)).ravel().tolist() + [2.0] * (m * n)
    return {"adjacency": values, "energy": 2 * np.abs(a + b - 1).sum() + 2 * m * n}


def _complete_line_display(n, sign):
    # From the zero-trace K_n spectrum {-1 x (n-1), n-1}; criterion 6 keeps
    # the quoted values, which rest on {0 x (n-1), n-1}.
    if sign == 1:
        values = [2.0 - n] * (n - 1) + [2.0] * ((n - 1) * (n - 2) // 2)
        en = 2 * (n - 1) * (n - 2)
    else:
        values = [4.0 - 2 * n] + [4.0 - n] * (n - 1) + [2.0] * (n * (n - 3) // 2)
        en = 2 * (n - 2) + (n - 1) * abs(n - 4) + n * (n - 3)
    return {"adjacency": values, "energy": en}


PAPER_DISPLAYS = [
    ("cylinder-path-index", f"cylinder:m={m},r1={r1},n={n}", False, _cylinder_display, (m, r1, n))
    for m, r1, n in ((3, 1, 4), (4, 0, 3), (5, 1, 2), (6, 0, 1))
] + [
    ("grid-laplacian-energy-offset", f"grid:m={m},n={n}", False, _grid_laplacian_energy_display, (m, n))
    for m, n in ((1, 4), (2, 3), (4, 4), (5, 2))
] + [
    ("grid-line-values", f"grid:m={m},n={n}", True, _grid_line_display, (m, n))
    for m, n in ((2, 2), (3, 4), (5, 3))
] + [
    ("torus-line-energy", f"torus:m={m},r1={r1},n={n},r2={r2}", True, _torus_line_display, (m, r1, n, r2))
    for m, r1, n, r2 in ((3, 0, 3, 0), (4, 1, 3, 1), (4, 0, 5, 1), (5, 1, 4, 0))
] + [
    ("complete-line-spectra", f"complete:n={n},sign={'+' if s > 0 else '-'}", True, _complete_line_display, (n, s))
    for n in (3, 4, 5, 8)
    for s in (1, -1)
]


@pytest.mark.parametrize(
    "display, text, line, formula, args",
    PAPER_DISPLAYS,
    ids=[f"{display}-{text}{'-line' if line else ''}" for display, text, line, _, _ in PAPER_DISPLAYS],
)
def test_paper_display(display, text, line, formula, args):
    spec = parse_family(text)
    node = spectral_node(spec, line)
    g = build_family(spec)
    dense = dense_node(line_graph(g).graph if line else g)
    for field, want in formula(*args).items():
        for route, got in (("structured", getattr(node, field)), ("dense", getattr(dense, field))):
            label = f"{display}, {field} of the {route} node"
            if np.ndim(want):
                got, want_sorted = np.sort(got), np.sort(np.ravel(want))
                assert got.shape == want_sorted.shape, label
                assert np.max(np.abs(got - want_sorted), initial=0.0) <= 1e-8, label
            else:
                assert abs(got - want) <= 1e-8, label
