"""Structured spectra (closed-form leaves, NEPS sums, line-graph rules)
against the dense route on the built graph."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import TEST_SEED

from signet.cli import _report, main
from signet.families import cycle, parse_family, path, random_signed_graph
from signet.graphs import SignedGraph, adjacency, balance_report, degrees, disjoint_union, dumps, loads
from signet.linegraph import line_graph
from signet.products import cartesian, cartesian_basis, neps
from signet.structured import DenseNode, LineNode, ProductNode, line_balance, spectral_node
from signet.verify import _random_basis, _random_factors

MAX_ORDER = 8  # leaves and product factors of orders 1..8 (cycles 3..8)
ALL_R_FACTOR = 5  # product factors up to this order take every r; larger ones r = 0, 1


def _family_strings():
    out = [f"path:n={n},r={r}" for n in range(1, MAX_ORDER + 1) for r in range(n)]
    out += [f"cycle:n={n},r={r}" for n in range(3, MAX_ORDER + 1) for r in range(n + 1)]
    out += [f"complete:n={n},sign={s}" for n in range(1, MAX_ORDER + 1) for s in "+-"]

    def rs(n, top):  # negative edge counts of an order-n factor, at most top
        return range(top + 1) if n <= ALL_R_FACTOR else range(min(top, 1) + 1)

    paths = [(n, r) for n in range(1, MAX_ORDER + 1) for r in rs(n, n - 1)]
    cycles = [(n, r) for n in range(3, MAX_ORDER + 1) for r in rs(n, n)]
    for kind, first, second in (("grid", paths, paths), ("cylinder", cycles, paths), ("torus", cycles, cycles)):
        out += [f"{kind}:m={m},r1={r1},n={n},r2={r2}" for m, r1 in first for n, r2 in second]
    return out


FAMILIES = _family_strings()


def _assert_reports_agree(got: dict, want: dict, n: int, label: str):
    assert got["balance"] == want["balance"], label
    for key in ("spectrum", "laplacian_spectrum"):
        a, b = np.asarray(got[key]), np.asarray(want[key])
        assert a.shape == b.shape, label
        assert np.all(np.diff(a) >= 0), f"{label}: {key} not ascending"
        scale = max(1.0, float(np.abs(b).max(initial=0.0)))
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-9 * scale, f"{label}: {key}"
    for key in ("energy", "laplacian_energy"):
        assert abs(got[key] - want[key]) <= 1e-9 * max(n, 1), f"{label}: {key}"


def _assert_nodes_agree(node, fresh, built, label: str):
    """``node`` and ``fresh`` (an unevaluated twin, read as ``--csv`` reads
    it) against the dense node of ``built``."""
    ref = spectral_node(built)
    assert (node.n, node.m, node.max_degree, node.min_degree, node.regular) == (
        ref.n, ref.m, ref.max_degree, ref.min_degree, ref.regular,
    ), label
    _assert_reports_agree(_report(node), _report(ref), built.n, label)
    csv = fresh.adjacency
    assert np.max(np.abs(csv - ref.adjacency), initial=0.0) <= 1e-9 * max(
        1.0, float(np.abs(ref.adjacency).max(initial=0.0))
    ), label


def test_structured_reports_equal_dense_reports_of_built_graphs():
    for text in FAMILIES:
        leaves = parse_family(text)
        g = spectral_node(leaves).graph
        _assert_nodes_agree(spectral_node(leaves), spectral_node(leaves), g, f"{text} line=False")
        lg = line_graph(g).graph
        _assert_nodes_agree(LineNode(spectral_node(leaves)), LineNode(spectral_node(leaves)), lg, f"{text} line=True")


LINE_CASE_MAX_EDGES = 400  # the dense reference solves the line graph, one order per product edge


def test_product_tree_equals_dense_route_on_random_factor_sets():
    # Factors of orders 1..4 (several components, isolated vertices, no
    # edges), nu <= 3, product orders <= 64, random bases.
    rng = np.random.default_rng(TEST_SEED + 70)
    lined = 0
    for i in range(200):
        factors = _random_factors(rng, 4)
        basis = _random_basis(rng, len(factors))
        g = neps(factors, basis)
        label = f"case {i}: {basis.vectors} over {factors}"

        def tree(line):
            node = ProductNode(basis, [spectral_node(f) for f in factors])
            return LineNode(node) if line else node

        _assert_nodes_agree(tree(False), tree(False), g, label)
        if g.m <= LINE_CASE_MAX_EDGES:
            _assert_nodes_agree(tree(True), tree(True), line_graph(g).graph, f"line of {label}")
            lined += 1
    assert lined >= 150


def _sparse_files():
    """Edge-array graphs as loads reads them, with isolated vertices and
    several components."""
    rng = np.random.default_rng(TEST_SEED + 71)
    return [loads(dumps(random_signed_graph(rng, n, 2.5 / n))) for n in (30, 45, 60) for _ in range(3)]


def test_line_of_file_equals_dense_route_on_corpus(corpus):
    # Bases with several components, which the line rule used to refuse.
    for i, g in enumerate([*corpus, *_sparse_files()]):
        _assert_nodes_agree(LineNode(spectral_node(g)), LineNode(spectral_node(g)), line_graph(g).graph, f"graph {i}")
        assert spectral_node(g).components == tuple(_component_data(g)), f"graph {i}"


@pytest.mark.parametrize("n", [4, 40])
def test_line_of_a_file_keeps_every_graph_an_edge_array(n):
    """A base read as an edge array, with or without isolated vertices, is
    relabelled and lined without deriving the edge triples of any graph."""
    text = dumps(SignedGraph(n, ((0, 1, 1), (1, 2, -1), (2, 3, 1), (0, 3, -1), (1, 3, 1))))
    g = loads(text)
    node = LineNode(spectral_node(g))
    lg = node.graph
    assert (node.base.graph is g) == (n == 4)
    for graph in (g, node.base.graph, lg):
        assert "edges" not in vars(graph)
    assert lg == line_graph(SignedGraph(4, g.edges)).graph


def test_solve_all_fills_only_the_fields_asked_for(monkeypatch):
    from signet import spectra
    from signet.structured import DenseNode

    rng = np.random.default_rng(TEST_SEED + 72)
    graphs = [random_signed_graph(rng, n, 0.5) for n in (0, 1, 3, 3, 5, 3, 5)]
    alone = [(spectral_node(g).adjacency, spectral_node(g).laplacian) for g in graphs]
    nodes = [DenseNode(g) for g in graphs]
    known = nodes[2].adjacency
    shapes = []
    solve = spectra.eigenvalues

    def recording(matrix):
        shapes.append(np.shape(matrix))
        return solve(matrix)

    monkeypatch.setattr(spectra, "eigenvalues", recording)
    DenseNode.solve_all(adjacency=nodes + nodes[:3], laplacian=nodes[4:])
    # One call per (order, kind); node 2's adjacency is known, and a node listed twice is solved once.
    assert sorted(shapes) == [(1, 0, 0), (1, 1, 1), (1, 3, 3), (2, 3, 3), (2, 5, 5), (2, 5, 5)]
    assert nodes[2].adjacency is known
    for node, (adjacency, _) in zip(nodes, alone):
        assert np.array_equal(node.adjacency, adjacency)
    assert all("laplacian" not in vars(node) for node in nodes[:4])
    for node, (_, laplacian) in zip(nodes[4:], alone[4:]):
        assert np.array_equal(node.laplacian, laplacian)


def test_block_leaves_are_dense_nodes_of_their_rows():
    parts = [cycle(3, 1), SignedGraph(1), path(4, 2)]
    g = disjoint_union(parts)
    leaf = DenseNode.blocks(g, np.repeat([0, 1, 2], [3, 1, 4]), 3)
    leaves = [leaf(b) for b in range(3)]
    DenseNode.solve_all(adjacency=leaves, laplacian=leaves)
    for node, part in zip(leaves, parts):
        assert (node.n, node.m) == (part.n, part.m)
        assert np.array_equal(node._matrix, adjacency(part))
        assert np.array_equal(node.adjacency, spectral_node(part).adjacency)
        assert np.array_equal(node.laplacian, spectral_node(part).laplacian)
        assert node.balance == spectral_node(part).balance and node.graph == part


def test_blocks_refuse_an_edge_between_two_blocks():
    g = disjoint_union([cycle(3, 1), path(4, 2)])
    block = np.repeat([0, 1], [3, 4])
    joined = SignedGraph(7, g.edges + ((2, 3, 1),))
    with pytest.raises(ValueError, match=r"^edge \(2, 3\) joins block 0 to block 1$"):
        DenseNode.blocks(joined, block, 2)
    # A block map shifted by one vertex puts an end of some edge in the other block.
    for shift, message in ((1, r"^edge \(0, 1\) joins block 1 to block 0$"), (-1, r"^edge \(0, 2\) joins block 0 to block 1$")):
        with pytest.raises(ValueError, match=message):
            DenseNode.blocks(g, np.roll(block, shift), 2)


def test_line_of_path_is_the_path_leaf():
    for n in range(1, 65):
        for r in range(n):
            text = f"path:n={n},r={r}"
            node = LineNode(spectral_node(parse_family(text)))
            assert node.laplacian_rule == ("path" if n >= 3 else "regular"), text
            _assert_nodes_agree(node, LineNode(spectral_node(parse_family(text))), line_graph(path(n, r)).graph, text)


def test_product_spectrum_command_equals_the_built_product(tmp_path, capsys):
    # Family and file factors mixed, through the CLI, against the dense route
    # on the graph `product` writes.
    doc = tmp_path / "factor.json"
    doc.write_text(dumps(random_signed_graph(np.random.default_rng(TEST_SEED + 71), 5, 0.6)))
    inputs = ["--family", "cycle:n=4,r=1", "--file", str(doc), "--family", "path:n=3"]
    for basis in ("cartesian", "strong", "p=2", "100,011,111"):
        assert main(["product", *inputs, "--basis", basis]) == 0
        g = SignedGraph(**{k: [tuple(e) for e in v] if k == "edges" else v
                           for k, v in json.loads(capsys.readouterr().out).items()})
        for line in (False, True):
            built = line_graph(g).graph if line else g
            ref = spectral_node(built)
            flags = ["--line"] if line else []
            assert main(["spectrum", *inputs, "--basis", basis, *flags]) == 0
            _assert_reports_agree(json.loads(capsys.readouterr().out), _report(ref), built.n, f"{basis} {flags}")
            assert main(["spectrum", *inputs, "--basis", basis, "--csv", *flags]) == 0
            csv = np.array([float(x) for x in capsys.readouterr().out.split()])
            assert np.max(np.abs(csv - ref.adjacency), initial=0.0) <= 1e-9 * max(1.0, np.abs(ref.adjacency).max())


def test_spectrum_basis_needs_matching_inputs(capsys):
    for argv in (
        ["--family", "path:n=3", "--basis", "10,01"],
        ["--family", "path:n=3", "--family", "path:n=2", "--basis", "100"],
        ["--family", "path:n=3", "--family", "path:n=2", "--basis", "p=3"],
        [],
    ):
        code = main(["spectrum", *argv])
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == "" and captured.err.startswith("signet: "), argv
    # The CLI takes the basis arity from its inputs; a library caller can pass a mismatch.
    with pytest.raises(ValueError, match="^basis arity 2 does not match 1 factors$"):
        ProductNode(cartesian_basis(2), [spectral_node(path(3, 0))])


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "path:n=3000", "--line"],
        ["--family", "path:n=3000,r=7", "--line", "--csv"],
        ["--family", "path:n=5", "--family", "complete:n=4,sign=-", "--family", "cycle:n=6,r=1", "--basis", "p=2", "--csv"],
        ["--family", "grid:m=3,n=4", "--family", "path:n=7", "--csv", "--line"],
        ["--family", "cycle:n=5,r=1", "--family", "complete:n=4,sign=-", "--family", "cycle:n=4"],
        ["--family", "torus:m=4,n=5", "--family", "complete:n=3", "--line"],
    ],
)
def test_rules_answer_without_a_solve(monkeypatch, capsys, argv):
    def fail(matrix):
        raise AssertionError("a dense solve ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    code = main(["spectrum", *argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out


@pytest.mark.parametrize("text", ["complete:n=1", "path:n=1", "grid:m=1,n=1"])
def test_line_of_an_edgeless_family_answers_without_a_build(monkeypatch, capsys, text):
    """The line graph of a graph with no edge has no vertex, so it is regular
    of degree 0 and its Laplacian comes from that rule: nothing is built."""
    from signet import linegraph, products

    def fail(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(products, "neps", fail)
    monkeypatch.setattr(linegraph, "line_graph", fail)
    assert main(["spectrum", "--family", text, "--line"]) == 0
    empty = {"spectrum": [], "laplacian_spectrum": [], "energy": 0.0, "laplacian_energy": 0.0}
    balance = {"b": 0, "c": 0, "c_b": 0, "balanced": True}
    assert capsys.readouterr().out == json.dumps({**empty, "balance": balance}) + "\n"


def test_family_csv_prints_the_structured_spectrum(capsys):
    for text, line in (("grid:m=3,r1=1,n=4,r2=2", False), ("cylinder:m=4,r1=1,n=3,r2=0", True)):
        code = main(["spectrum", "--family", text, "--csv"] + (["--line"] if line else []))
        out = capsys.readouterr().out
        assert code == 0
        node = spectral_node(parse_family(text))
        want = (LineNode(node) if line else node).adjacency
        assert out.splitlines() == ["%.12g" % v for v in want]


def _component_data(g: SignedGraph):
    """(edge count, balanced, bipartite, maximum degree) per component."""
    deg = degrees(g)
    out = []
    rep = balance_report(g)
    for root, balanced in zip(np.unique(rep.root).tolist(), rep.component_balanced.tolist()):
        vertices = np.flatnonzero(rep.root == root).tolist()
        index = {v: i for i, v in enumerate(vertices)}
        edges = tuple((index[u], index[v], s) for u, v, s in g.edges if u in index)
        sub = SignedGraph(len(index), edges)
        out.append((sub.m, balanced, balance_report(sub).c_b == 1, int(deg[vertices].max())))
    return out


def test_line_balance_law_on_corpus(corpus):
    for i, g in enumerate(corpus):
        rep = balance_report(line_graph(g).graph)
        assert line_balance(_component_data(g)) == (rep.b, rep.c, rep.c_b), f"graph {i}: {g}"


def test_cartesian_rule_on_random_factor_pairs():
    # Factors with several components, isolated vertices and no edges at all.
    rng = np.random.default_rng(TEST_SEED + 50)
    for _ in range(60):
        f = random_signed_graph(rng, int(rng.integers(1, 6)), float(rng.choice([0.2, 0.5, 0.8])))
        h = random_signed_graph(rng, int(rng.integers(1, 6)), float(rng.choice([0.2, 0.5, 0.8])))
        got = ProductNode(cartesian_basis(2), [spectral_node(f), spectral_node(h)])
        want = spectral_node(cartesian([f, h]))
        label = f"{f} x {h}"
        assert (got.n, got.m, got.b, got.c, got.c_b, got.max_degree, got.regular) == (
            want.n, want.m, want.b, want.c, want.c_b, want.max_degree, want.regular,
        ), label
        assert np.allclose(got.adjacency, want.adjacency, rtol=0, atol=1e-9), label
        assert np.allclose(got.laplacian, want.laplacian, rtol=0, atol=1e-9), label


def test_large_torus_answers_without_building(capsys):
    code = main(["spectrum", "--family", "torus:m=300,r1=1,n=300,r2=0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    adj, lap = np.asarray(report["spectrum"]), np.asarray(report["laplacian_spectrum"])
    n, m = 90_000, 180_000
    assert adj.size == lap.size == n
    assert abs(adj.sum()) <= 1e-9 * n  # tr A = 0
    assert abs((adj**2).sum() - 2 * m) <= 1e-9 * n  # ||A||_F^2 = 2m
    assert abs(lap.sum() - 2 * m) <= 1e-9 * n  # tr L = 2m
    assert report["balance"] == {"b": 0, "c": 1, "c_b": 1, "balanced": False}


@pytest.mark.parametrize(
    "text, message",
    [
        ("path:n=0", "path needs n >= 1"),
        ("cycle:n=2", "cycle needs n >= 3"),
        ("cycle:n=5,r=6", "negative edge count r=6 out of range 0..5"),
        ("complete:n=0", "complete graph needs n >= 1"),
        ("path:n=3,x=1", "family 'path' does not take key 'x'"),
        ("grid:m=2,n=0", "path needs n >= 1"),
        ("grid:n=3", "family 'grid' is missing key 'm'"),
        ("torus:m=3,r1=4,n=2", "negative edge count r=4 out of range 0..3"),
        ("path:n=1_0", "family key 'n' needs an integer, got '1_0'"),
        ("path:n=+3", "family key 'n' needs an integer, got '+3'"),
        ("path:n=\u0663", "family key 'n' needs an integer, got '\u0663'"),
        ("path:n=\uff13", "family key 'n' needs an integer, got '\uff13'"),
    ],
)
def test_invalid_family_strings_exit_two(capsys, text, message):
    # The built route (`line`) and the structured route give the same message.
    for argv in (["spectrum"], ["spectrum", "--line"], ["spectrum", "--csv"], ["line"]):
        code = main(argv + ["--family", text])
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err == f"signet: {message}\n", argv
