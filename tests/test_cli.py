"""End-to-end command tests, run in process through cli.main."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TEST_SEED, assert_multiset_close
from referees import line_graph_by_pairs

import signet
from signet import formulas
from signet.cli import _report, main
from signet.families import complete, cycle, parse_family, path, random_signed_graph
from signet.graphs import adjacency, degrees, dumps, laplacian, loads, to_json_dict
from signet.linegraph import line_graph
from signet.products import Basis, cartesian, cartesian_basis, neps, p_sum_basis, tensor_basis
from signet.structured import spectral_node


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_of_signed_triangle(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "cycle:n=3,r=1")
    assert code == 0
    report = json.loads(out)
    assert_multiset_close(report["spectrum"], [-2.0, 1.0, 1.0], tol=1e-8)
    assert report["balance"] == {"b": 0, "c": 1, "c_b": 0, "balanced": False}
    assert report["energy"] == pytest.approx(4.0, abs=1e-8)


def test_spectrum_report_fields(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "path:n=3,r=1")
    report = json.loads(out)
    assert code == 0
    assert set(report) == {
        "spectrum",
        "laplacian_spectrum",
        "energy",
        "laplacian_energy",
        "balance",
    }
    assert len(report["spectrum"]) == len(report["laplacian_spectrum"]) == 3


def test_line_flag_on_complete_four(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "complete:n=4,sign=+", "--line")
    assert code == 0
    report = json.loads(out)
    # line graph of +K_4 on 6 vertices with spectrum {-2 x 3, 2 x 3}
    assert_multiset_close(report["spectrum"], [-2.0] * 3 + [2.0] * 3, tol=1e-8)
    assert report["energy"] == pytest.approx(12.0, abs=1e-7)


def test_empty_graph_report(tmp_path, capsys):
    doc = tmp_path / "empty.json"
    doc.write_text('{"n": 0, "edges": []}')
    code, out, _ = run(capsys, "spectrum", "--file", str(doc))
    assert code == 0
    report = json.loads(out)
    assert report["spectrum"] == []
    assert report["laplacian_spectrum"] == []
    assert report["energy"] == 0.0
    assert report["laplacian_energy"] == 0.0
    assert report["balance"]["b"] == report["balance"]["c"] == 0


def test_large_cycle_spectrum_matches_closed_form(capsys):
    n = 1000
    code, out, _ = run(capsys, "spectrum", "--family", f"cycle:n={n},r=1")
    assert code == 0
    report = json.loads(out)
    assert_multiset_close(report["spectrum"], formulas.cycle_spectrum(n, 1), tol=1e-9 * n)


def test_solver_failure_exits_three(tmp_path, monkeypatch, capsys):
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    doc = tmp_path / "cycle.json"
    doc.write_text(dumps(cycle(5, 0)))
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    # A file is solved densely; the line graph of a non-regular grid and a
    # non-Cartesian product of non-regular factors solve their Laplacians.
    for argv in (
        ["--file", str(doc)],
        ["--family", "grid:m=2,n=3", "--line"],
        ["--family", "path:n=3", "--family", "path:n=4", "--basis", "strong"],
    ):
        code, out, err = run(capsys, "spectrum", *argv)
        assert code == 3, argv
        assert out == ""
        assert err.startswith("signet: numerical failure: ")
        assert "Traceback" not in err


def test_spectrum_of_a_file_never_makes_edge_triples(tmp_path, monkeypatch, capsys):
    """From the file text to the balance verdict, a graph read from a file
    stays one edge array, and the report is the one the same graph built
    in process gives."""
    g = random_signed_graph(np.random.default_rng(TEST_SEED + 90), 40, 0.3)
    doc = tmp_path / "g.json"
    doc.write_text(json.dumps(to_json_dict(g)))
    read = []
    monkeypatch.setattr("signet.cli.loads", lambda text: read.append(loads(text)) or read[-1])
    code, out, _ = run(capsys, "spectrum", "--file", str(doc))
    code_csv, out_csv, _ = run(capsys, "spectrum", "--file", str(doc), "--csv")
    assert len(read) == 2 and all("edges" not in vars(h) for h in read)
    assert (code, code_csv) == (0, 0)
    want = spectral_node(g)
    assert out == json.dumps(_report(want)) + "\n"
    assert out_csv == "\n".join("%.12g" % v for v in want.adjacency) + "\n"


@pytest.mark.parametrize("command, family", [("line", "torus:m=6,r1=1,n=5,r2=2"), ("spectrum", "grid:m=5,r1=2,n=4")])
def test_line_graph_of_a_family_never_makes_edge_triples(monkeypatch, capsys, command, family):
    """From the product's edge array to the line graph's JSON text or
    spectrum report, neither the base nor its line graph gets triples."""
    built = []

    def record(g):
        built.append((g, line_graph(g)))
        return built[-1][1]

    monkeypatch.setattr("signet.linegraph.line_graph", record)
    code, out, _ = run(capsys, command, "--family", family, *(["--line"] if command == "spectrum" else []))
    assert code == 0 and len(built) == 1
    base, result = built[0]
    assert "edges" not in vars(base) and "edges" not in vars(result.graph)
    want = line_graph_by_pairs(spectral_node(parse_family(family)).graph)
    if command == "line":
        assert out == dumps(want) + "\n"
        return
    got, dense = json.loads(out), _report(spectral_node(want))
    assert got["balance"] == dense["balance"]
    for key in ("spectrum", "laplacian_spectrum"):
        assert_multiset_close(got[key], dense[key], tol=1e-9)


@pytest.mark.parametrize("argv", [["line"], ["spectrum", "--line"]], ids=["line", "spectrum-line"])
def test_line_graph_of_a_file_with_an_endpoint_past_int64(tmp_path, capsys, argv):
    """An edge array cannot hold such a graph, so reading it is bad input,
    as it is for ``product``."""
    doc = tmp_path / "big.json"
    doc.write_text('{"n": 9223372036854775809, "edges": [[0, 9223372036854775808, 1], [1, 9223372036854775808, -1]]}')
    message = "signet: a graph of order 9223372036854775809 has an endpoint past the int64 range of edge arrays\n"
    assert run(capsys, argv[0], "--file", str(doc), *argv[1:]) == (2, "", message)


def test_out_of_memory_exits_two(monkeypatch, capsys):
    def fail(factors, basis):
        raise MemoryError("Unable to allocate 5.86 GiB for an array")

    monkeypatch.setattr("signet.products.neps", fail)
    code, out, err = run(capsys, "product", "--family", "path:n=2", "--family", "path:n=2")
    assert code == 2
    assert out == ""
    assert err == "signet: out of memory: Unable to allocate 5.86 GiB for an array\n"


def test_out_of_memory_without_a_message(monkeypatch, capsys):
    def fail(factors, basis):
        raise MemoryError()

    monkeypatch.setattr("signet.products.neps", fail)
    code, out, err = run(capsys, "product", "--family", "path:n=2", "--family", "path:n=2")
    assert (code, out, err) == (2, "", "signet: out of memory\n")


def _signet_command(*argv, prelude=""):
    """A fresh interpreter running ``prelude`` and then ``signet *argv``, and
    its environment."""
    src = os.path.dirname(os.path.dirname(signet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = prelude + "import sys; from signet.cli import main; sys.exit(main())"
    return [sys.executable, "-c", script, *argv], env


def test_reader_closing_the_pipe_early_exits_zero_quietly():
    """`signet spectrum ... --csv | head -c 10`: the reader leaves after 10
    bytes of a ~300 kB answer, which is no input error."""
    command, env = _signet_command("spectrum", "--family", "cycle:n=20000", "--csv")
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert len(head) == 10
    assert err == b""
    assert code == 0


def test_reader_gone_before_the_flush_exits_zero_in_process(capsys):
    """The same `BrokenPipeError` branch of `main`, in this interpreter: the
    answer's flush meets a pipe with no reader, and stdout's descriptor is
    then pointed at devnull so that closing the stream stays quiet."""
    read, write = os.pipe()
    os.close(read)
    stream, saved = open(write, "w", encoding="utf-8"), sys.stdout
    sys.stdout = stream
    try:
        code = main(["spectrum", "--family", "cycle:n=5", "--csv"])
        assert os.path.samestat(os.fstat(write), os.stat(os.devnull))
    finally:
        sys.stdout = saved
        stream.close()
    assert (code, capsys.readouterr().err) == (0, "")


def test_csv_output(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "cycle:n=5", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    # one eigenvalue per line, printed to 12 significant digits
    assert lines == ["%.12g" % v for v in spectral_node(cycle(5, 0)).adjacency]
    golden = [2.0 * math.cos(2.0 * j * math.pi / 5) for j in range(1, 6)]
    assert_multiset_close([float(x) for x in lines], golden, tol=1e-8)


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "spectrum", "--family", "path:n=2", "--out", str(target)
    )
    assert code == 0 and out == ""
    report = json.loads(target.read_text())
    assert_multiset_close(report["spectrum"], [-1.0, 1.0], tol=1e-8)


def test_product_of_two_paths_is_grid(capsys):
    code, out, _ = run(
        capsys,
        "product",
        "--family",
        "path:n=3,r=1",
        "--family",
        "path:n=4,r=2",
    )
    assert code == 0
    got = loads(out.strip())
    assert got == cartesian([path(3, 1), path(4, 2)])
    negatives = sum(1 for _, _, s in got.edges if s == -1)
    assert negatives == 4 * 1 + 3 * 2


def test_product_custom_basis_equals_strong(capsys):
    code_a, out_a, _ = run(
        capsys,
        "product",
        "--family", "path:n=2", "--family", "path:n=3,r=1",
        "--basis", "11",
    )
    code_b, out_b, _ = run(
        capsys,
        "product",
        "--family", "path:n=2", "--family", "path:n=3,r=1",
        "--basis", "strong",
    )
    assert code_a == code_b == 0
    assert out_a == out_b


def test_product_tensor_basis_equals_11_and_strong(capsys):
    args = ["product", "--family", "cycle:n=4,r=1", "--family", "path:n=3,r=1", "--matrix", "--basis"]
    outputs = {basis: run(capsys, *args, basis) for basis in ("tensor", "11", "strong")}
    assert outputs["tensor"][0] == 0
    assert outputs["tensor"] == outputs["11"] == outputs["strong"]


def test_product_p1_equals_cartesian_byte_identical(capsys):
    args = ["product", "--family", "cycle:n=4,r=1", "--family", "path:n=3"]
    code_a, out_a, _ = run(capsys, *args, "--basis", "p=1")
    code_b, out_b, _ = run(capsys, *args, "--basis", "cartesian")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_product_matrix_flag(capsys):
    code, out, _ = run(
        capsys,
        "product",
        "--family", "path:n=2", "--family", "path:n=2",
        "--matrix",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"graph", "adjacency", "degree", "laplacian"}
    a = doc["adjacency"]
    assert len(a) == 4
    lap = doc["laplacian"]
    deg = doc["degree"]
    for i in range(4):
        for j in range(4):
            assert lap[i][j] == deg[i][j] - a[i][j]


def test_product_matrix_output_is_the_graph_law_encoding(capsys):
    code, out, _ = run(
        capsys,
        "product",
        "--family", "complete:n=5,sign=-", "--family", "cycle:n=4,r=1",
        "--basis", "01,11",
        "--matrix",
    )
    assert code == 0
    g = neps([complete(5, -1), cycle(4, 1)], Basis(2, ((0, 1), (1, 1))))
    want = {
        "graph": to_json_dict(g),
        "adjacency": adjacency(g).tolist(),
        "degree": np.diag(degrees(g)).tolist(),
        "laplacian": laplacian(g).tolist(),
    }
    assert out == json.dumps(want) + "\n"


FILE = "--file"  # a factor read from a JSON document


def _inputs(factors, tmp_path):
    """The argv and the graphs of ``factors``, built from their family nodes or read."""
    doc = tmp_path / "factor.json"
    doc.write_text(dumps(random_signed_graph(np.random.default_rng(TEST_SEED + 72), 4, 0.7)))
    argv, graphs = [], []
    for factor in factors:
        if factor == FILE:
            argv += ["--file", str(doc)]
            graphs.append(loads(doc.read_text()))
        else:
            argv += ["--family", factor]
            graphs.append(spectral_node(parse_family(factor)).graph)
    return argv, graphs


@pytest.mark.parametrize(
    "factors, basis, want",
    [
        (["grid:m=2,r1=1,n=3", "torus:m=3,n=3,r2=1"], "cartesian", cartesian_basis(2)),
        (["cylinder:m=3,r1=1,n=2,r2=1", FILE], "strong", tensor_basis(2)),
        (["grid:m=2,n=2,r2=1", FILE, "cylinder:m=3,n=2"], "p=2", p_sum_basis(3, 2)),
        ([FILE, "torus:m=3,r1=1,n=4", "complete:n=3,sign=-"], "011,100", Basis(3, ((0, 1, 1), (1, 0, 0)))),
    ],
)
def test_product_prints_the_graph_neps_builds(tmp_path, capsys, factors, basis, want):
    argv, graphs = _inputs(factors, tmp_path)
    g = neps(graphs, want)
    code, out, _ = run(capsys, "product", *argv, "--basis", basis)
    assert (code, out) == (0, dumps(g) + "\n")
    code, out, _ = run(capsys, "product", *argv, "--basis", basis, "--matrix")
    matrices = {
        "graph": to_json_dict(g),
        "adjacency": adjacency(g).tolist(),
        "degree": np.diag(degrees(g)).tolist(),
        "laplacian": laplacian(g).tolist(),
    }
    assert (code, out) == (0, json.dumps(matrices) + "\n")


@pytest.mark.parametrize(
    "factor",
    ["grid:m=3,r1=1,n=4,r2=2", "cylinder:m=4,r1=1,n=3", "torus:m=3,n=4,r2=1", "complete:n=5,sign=-", "path:n=1", FILE],
)
def test_line_prints_the_graph_line_graph_builds(tmp_path, capsys, factor):
    argv, (g,) = _inputs([factor], tmp_path)
    code, out, _ = run(capsys, "line", *argv)
    assert (code, out) == (0, dumps(line_graph(g).graph) + "\n")


def test_product_needs_two_inputs(capsys):
    code, _, err = run(capsys, "product", "--family", "path:n=2")
    assert code == 2
    assert "two" in err


def test_line_command(capsys):
    code, out, _ = run(capsys, "line", "--family", "path:n=3,r=1")
    assert code == 0
    got = loads(out.strip())
    assert got.n == 2 and got.m == 1
    assert got == line_graph(path(3, 1)).graph


def test_file_round_trip_is_byte_identical(tmp_path, capsys):
    g = cycle(5, 2)
    text = dumps(g)
    doc = tmp_path / "graph.json"
    doc.write_text(text)
    assert dumps(loads(doc.read_text())) == text
    code, out, _ = run(capsys, "line", "--file", str(doc))
    assert code == 0
    assert loads(out.strip()) == line_graph(g).graph


def test_bad_inputs_exit_two(tmp_path, capsys):
    twice = tmp_path / "twice.json"
    twice.write_text('{"n": 5, "edges": [[0, 1, 1]], "n": 6}')  # json alone would keep n = 6
    cases = [
        ("spectrum",),  # no input at all
        ("spectrum", "--family", "blob:n=3"),
        ("spectrum", "--family", "cycle:n=3,r=9"),
        ("spectrum", "--file", str(tmp_path / "missing.json")),
        ("product", "--family", "path:n=2", "--family", "path:n=2", "--basis", "10"),
        ("product", "--family", "path:n=2", "--family", "path:n=2", "--basis", "p=5"),
        ("verify", "nonsense"),
        ("product", "--family", "path:n=2", "--family", "path:n=2", "--basis", "p=\u0662"),
        ("product", "--family", "path:n=2", "--family", "path:n=2", "--basis", "p=+2"),
        ("verify", "kirchhoff", "--max", "\u0662", "--seed", "1"),
        ("verify", "kirchhoff", "--max", "1_0", "--seed", "5"),
        ("verify", "kirchhoff", "--max", "3", "--seed", "\u0661"),
        ("verify", "kirchhoff", "--max", "3", "--seed", "+5"),
        ("line", "--family", "path:n=2", "--family", "path:n=3"),
        ("spectrum", "--file", str(twice)),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err


def test_malformed_json_exits_two(tmp_path, capsys):
    doc = tmp_path / "broken.json"
    doc.write_text('{"n": 2, "edges": [[0, 1, 1]')
    code, _, err = run(capsys, "spectrum", "--file", str(doc))
    assert code == 2
    assert err


@pytest.mark.parametrize("command", ["spectrum", "line"])
def test_deeply_nested_json_exits_two(tmp_path, capsys, command):
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 200000)
    code, out, err = run(capsys, command, "--file", str(doc))
    assert code == 2
    assert out == ""
    assert err == "signet: graph document is nested too deeply\n"


# The child caps its own address space at 512 MiB, so work that should not
# happen fails with an out-of-memory exit instead of filling the machine.
ADDRESS_CAP = "import resource; resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29)); "


def test_line_of_a_huge_edgeless_graph_is_immediate(tmp_path):
    """The line graph's work grows with the edges, not with n."""
    doc = tmp_path / "huge.json"
    doc.write_text('{"n": 100000000000000000000000000000, "edges": []}')
    command, env = _signet_command("line", "--file", str(doc), prelude=ADDRESS_CAP)
    proc = subprocess.run(command, capture_output=True, env=dict(env, OPENBLAS_NUM_THREADS="1"), timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b'{"n": 0, "edges": []}\n', b"")


@pytest.mark.parametrize(
    "flags, want",
    [
        (["--line", "--csv"], "0\n"),
        (["--line"], '{"spectrum": [0.0], "laplacian_spectrum": [0.0], "energy": 0.0, "laplacian_energy": 0.0, '
         '"balance": {"b": 1, "c": 1, "c_b": 1, "balanced": true}}\n'),
    ],
    ids=["csv", "report"],
)
def test_line_spectrum_of_a_huge_graph_with_one_edge(tmp_path, flags, want):
    """The line graph is one vertex; the base is read without its 3e9 isolated vertices."""
    doc = tmp_path / "huge.json"
    doc.write_text('{"n": 3000000000, "edges": [[0, 1, 1]]}')
    command, env = _signet_command("spectrum", "--file", str(doc), *flags, prelude=ADDRESS_CAP)
    proc = subprocess.run(command, capture_output=True, env=dict(env, OPENBLAS_NUM_THREADS="1"), timeout=10)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (0, want, b"")


def test_product_refuses_a_bad_basis_before_building_any_factor():
    """K_100000 has 5e9 edges; a basis of the wrong arity is refused first."""
    argv = ["product", "--family", "complete:n=100000", "--family", "path:n=2", "--basis", "111"]
    command, env = _signet_command(*argv, prelude=ADDRESS_CAP)
    proc = subprocess.run(command, capture_output=True, env=dict(env, OPENBLAS_NUM_THREADS="1"), timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"signet: pattern (1, 1, 1) has length 3, expected 2\n")


@pytest.mark.parametrize("basis", ["cartesian", "strong"])
def test_product_with_an_endpoint_past_int64_exits_two(tmp_path, capsys, basis):
    """A factor whose endpoints do not fit an edge array is bad input, not a traceback."""
    big, empty = tmp_path / "big.json", tmp_path / "empty.json"
    big.write_text('{"n": 9223372036854775809, "edges": [[0, 9223372036854775808, 1]]}')
    empty.write_text('{"n": 0, "edges": []}')
    code, out, err = run(capsys, "product", "--file", str(big), "--file", str(empty), "--basis", basis)
    assert (code, out) == (2, "")
    assert err == "signet: a graph of order 9223372036854775809 has an endpoint past the int64 range of edge arrays\n"


def test_verify_command_runs_suites(capsys):
    code, out, _ = run(capsys, "verify", "closed-forms", "--max", "4")
    assert code == 0
    assert "closed-forms:" in out
    assert "0 failures" in out
    # At --max 1 and 2 the cycle, cylinder and torus runs are empty.
    for cap, checks in (("1", 12), ("2", 46)):
        expected = (0, f"closed-forms: {checks} checks, 0 failures\n", "")
        assert run(capsys, "verify", "closed-forms", "--max", cap) == expected


def test_suites_solve_through_the_dense_leaf(monkeypatch, capsys):
    from signet import spectra

    callers = []
    solve = spectra.eigenvalues

    def recording(matrix):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return solve(matrix)

    monkeypatch.setattr(spectra, "eigenvalues", recording)
    for suite in ("acharya", "closed-forms", "energy-bounds", "line-theorems"):
        callers.clear()
        code, out, _ = run(capsys, "verify", suite, "--max", "5", "--seed", "9")
        assert code == 0, out
        assert callers and set(callers) == {"signet.structured"}, suite


@pytest.mark.parametrize(
    "suite, seed, checks, matrices",
    [
        ("closed-forms", None, 880, 880),
        ("acharya", 9, 200, 400),
        ("line-theorems", 9, 489, 300),
        ("energy-bounds", 9, 182, 258),
    ],
)
def test_suites_solve_each_matrix_once_in_stacks(monkeypatch, suite, seed, checks, matrices):
    """The suites draw the same cases and solve the same matrices as one
    solve per matrix did, in far fewer LAPACK calls."""
    from signet import spectra, verify

    calls, rows = [], []
    solve = spectra.eigenvalues

    def recording(matrix):
        calls.append(1)
        rows.append(math.prod(np.shape(matrix)[:-2]))
        return solve(matrix)

    monkeypatch.setattr(spectra, "eigenvalues", recording)
    result = verify.SUITES[suite](seed=verify.DEFAULT_SEED if seed is None else seed)
    assert (result.checks, result.failures) == (checks, [])
    assert sum(rows) == matrices
    assert 4 * len(calls) <= matrices


def test_closed_forms_blocks_are_the_cases_own_graphs():
    """Each case's dense leaves, cut from its run's union, hold the case's
    own graph and line graph, with the same vertex labels and edge order."""
    from signet import verify

    cases = 0
    for run in verify._closed_form_runs(8):
        specs = [parse_family(text) for text, *_ in run]
        cut, leaf, line = verify._run_blocks(specs, True) if run else ((), None, None)
        for spec, b in zip(specs, cut):
            g = spectral_node(spec).graph
            lg = line_graph(g).graph
            assert leaf(b).graph == g and np.array_equal(leaf(b)._matrix, adjacency(g))
            assert line(b).graph == lg and np.array_equal(line(b)._matrix, adjacency(lg))
            cases += 1
    assert cases == 592


def test_closed_forms_builds_one_product_and_one_line_graph_per_run(monkeypatch):
    """At the default --max, verify builds 14 products (the runs of 6 grid,
    4 cylinder and 4 torus values of m) and 17 line graphs (those runs, the
    cycles, the complete graphs and the line-only paths), where one build
    per case took 233 and 207.  The nodes build nothing: the line graph of a
    graph with no edge has order 0, is regular of degree 0, and takes its
    empty Laplacian from that rule (complete:n=1 of both signs, path:n=1,
    grid:m=1,n=1)."""
    from collections import Counter

    from signet import linegraph, products, verify

    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def counting(*args, **kwargs):
            frame = sys._getframe(1)
            while frame.f_globals["__name__"] not in ("signet.verify", "signet.structured"):
                frame = frame.f_back
            calls[name, frame.f_globals["__name__"]] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module, name in ((products, "neps"), (verify, "neps"), (linegraph, "line_graph"), (verify, "line_graph")):
        counted(module, name)
    result = verify.closed_forms_suite()
    assert (result.checks, result.failures) == (880, [])
    assert calls == {
        ("neps", "signet.verify"): 14,
        ("line_graph", "signet.verify"): 17,
    }


@pytest.mark.parametrize("max_n, batches", [(8, (1, 1)), (20, (13, 10))])
def test_random_suites_sweep_balance_once_per_batch(monkeypatch, max_n, batches):
    """rank, acharya and line-theorems sweep balance once per batch union,
    not once per case, and line-theorems builds one line graph per batch
    plus the 39 of its cycle checks.  At --max 8 the 200 or 150 cases are
    one batch; at --max 20 the entry budget splits them."""
    from collections import Counter

    from signet import verify

    calls, sizes = Counter(), []
    draw = verify._random_batches

    def counting_batches(*args):
        for batch in draw(*args):
            sizes.append(batch[3])
            yield batch

    def counted(name):
        fn = getattr(verify, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(verify, name, counting)

    monkeypatch.setattr(verify, "_random_batches", counting_batches)
    counted("balance_report")
    counted("line_graph")
    for suite, cases, want in (("rank", 200, batches[0]), ("acharya", 200, batches[0]), ("line-theorems", 150, batches[1])):
        calls.clear()
        sizes.clear()
        assert not verify.SUITES[suite](max_n=max_n).failures
        assert sum(sizes) == cases and len(sizes) == want, suite
        assert calls["balance_report"] == want, suite
        assert calls["line_graph"] == (want + 39 if suite == "line-theorems" else 0), suite


def _neighbour_block(right):
    def wrong(g, block, count):
        counts = right(g, block, count)
        return counts[1:] + counts[:1]  # block b reads block b + 1's balance

    return wrong


def _offset_off_by_one(right):
    def wrong(g, block, count):
        return right(g, np.concatenate(([0], block[:-1])), count)  # vertex v looked up as v - 1

    return wrong


@pytest.mark.parametrize("mutant", [_neighbour_block, _offset_off_by_one])
@pytest.mark.parametrize("suite", ["rank", "acharya", "line-theorems"])
def test_random_suites_fail_on_a_misread_block_balance(monkeypatch, suite, mutant):
    """A block's balance read from its neighbour's block, or through a union
    offset off by one, makes the suite report failures."""
    from signet import verify

    monkeypatch.setattr(verify, "_block_balance", mutant(verify._block_balance))
    assert verify.SUITES[suite]().failures


def test_closed_forms_suite_keeps_no_spectra_across_checks():
    """Each check's matrices and spectra are dropped with its nodes, so the
    peak is one check's, not the run's."""
    import tracemalloc

    from signet import verify

    tracemalloc.start()
    try:
        assert not verify.closed_forms_suite(max_n=8).failures
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("suite, cap, orders", [("neps-matrix", 1, 1), ("neps-matrix", 3, 3), ("energy-bounds", 1, 2)])
def test_product_suites_draw_factor_orders_within_max(monkeypatch, capsys, suite, cap, orders):
    # energy-bounds needs an edge in every factor, so it draws orders up to 2 at --max 1.
    from signet import verify

    drawn = []

    def recording(rng, n, p):
        drawn.append(n)
        return random_signed_graph(rng, n, p)

    monkeypatch.setattr(verify, "random_signed_graph", recording)
    code, out, _ = run(capsys, "verify", suite, "--max", str(cap), "--seed", "4")
    assert code == 0, out
    assert drawn and max(drawn) == orders


def test_closed_forms_suite_fails_on_a_wrong_cycle_form(monkeypatch, capsys):
    right = formulas.cycle_spectrum

    def shifted(n, r):
        values = right(n, r)
        values[0] += 1e-3
        return values

    monkeypatch.setattr(formulas, "cycle_spectrum", shifted)
    code, out, _ = run(capsys, "verify", "closed-forms", "--max", "4")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("  FAIL ")]
    assert fails and fails[0].startswith("  FAIL cycle:n=3,r=0 adjacency")


@pytest.mark.parametrize(
    "suite, fail",
    [
        ("line-theorems", "  FAIL graph 0: the line rule refuses the graph: "),
        ("closed-forms", "  FAIL line(cycle:n=3,r=0): the line rule refuses the node: "),
    ],
)
def test_suites_record_what_the_line_rule_refuses(monkeypatch, capsys, suite, fail):
    # Both suites check formulas.line_spectrum_general, the rule behind
    # `spectrum --line`; a refusal is a failed check, not bad input.
    def refuse(lap_values, m, b):
        raise ValueError("Laplacian zero multiplicity does not match b")

    monkeypatch.setattr(formulas, "line_spectrum_general", refuse)
    code, out, err = run(capsys, "verify", suite, "--max", "4")
    assert code == 1
    assert err == ""
    assert fail + "Laplacian zero multiplicity does not match b" in out.splitlines()


@pytest.mark.parametrize("seed", ["1", "9"])
def test_line_rule_zero_check_accepts_solved_bases_up_to_order_24(capsys, seed):
    """The zero check scales with the order and the norm, so LAPACK's zeros
    of random bases of up to 24 vertices still count as zeros."""
    assert run(capsys, "verify", "line-theorems", "--max", "24", "--seed", seed) == (
        0, "line-theorems: 489 checks, 0 failures\n", "",
    )


@pytest.mark.parametrize("suite", ["all", "closed-forms"])
def test_verify_rejects_max_below_one(capsys, suite):
    code, out, err = run(capsys, "verify", suite, "--max", "0")
    assert code == 2
    assert out == ""
    assert "--max" in err


def test_verify_honours_seed_flag(capsys):
    code_a, out_a, _ = run(capsys, "verify", "kirchhoff", "--max", "5", "--seed", "11")
    code_b, out_b, _ = run(capsys, "verify", "kirchhoff", "--max", "5", "--seed", "11")
    assert code_a == code_b == 0
    assert out_a == out_b


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["--seed", "-1"], None, "--seed must be a nonnegative integer, got '-1'"),
        ([], "-5", "SIGNET_SEED must be a nonnegative integer, got '-5'"),
        ([], "abc", "SIGNET_SEED must be a nonnegative integer, got 'abc'"),
        ([], "\u0661", "SIGNET_SEED must be a nonnegative integer, got '\u0661'"),
        ([], "1_0", "SIGNET_SEED must be a nonnegative integer, got '1_0'"),
        ([], "+5", "SIGNET_SEED must be a nonnegative integer, got '+5'"),
        (["--seed", " 5"], None, "--seed must be a nonnegative integer, got ' 5'"),
        (["--max", " 3"], None, "--max must be a positive integer, got ' 3'"),
    ],
)
def test_verify_names_the_source_of_a_bad_seed(monkeypatch, capsys, argv, env, message):
    if env is None:
        monkeypatch.delenv("SIGNET_SEED", raising=False)
    else:
        monkeypatch.setenv("SIGNET_SEED", env)
    assert run(capsys, "verify", "kirchhoff", "--max", "3", *argv) == (2, "", f"signet: {message}\n")


def test_verify_reads_seed_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("SIGNET_SEED", "123")
    code, out, _ = run(capsys, "verify", "rank", "--max", "4")
    assert code == 0
    assert "rank:" in out and "0 failures" in out


# --- the front door under arbitrary strings ---------------------------------

# Values stop at 40, and raw text at runs of two ASCII digits (the only
# digits an integer may have), because orders past that meet the input
# boundary that has no cost model yet: `path:n=99999999999999` still hangs.
_RAW_TEXT = st.text(max_size=24).filter(lambda text: not re.search(r"[0-9]{3}", text))
_JUNK = st.sampled_from(("", " ", "x", "1.5", "--", "3a", "0x4", "+", "-", "+1", "-1"))
_ORDERS = st.integers(-3, 40).map(str)
_COUNTS = st.one_of(st.integers(0, 3), st.integers(-3, 40)).map(str)
_VALUES = {"n": _ORDERS, "m": _ORDERS, "r": _COUNTS, "r1": _COUNTS, "r2": _COUNTS, "sign": st.sampled_from(("+", "-", "+1", "-1", "1", "0"))}
_KEYS = {
    "path": ("n", "r"),
    "cycle": ("n", "r"),
    "complete": ("n", "sign"),
    "grid": ("m", "r1", "n", "r2"),
    "cylinder": ("m", "r1", "n", "r2"),
    "torus": ("m", "r1", "n", "r2"),
}
_FOREIGN_ITEMS = st.builds(
    str.format,
    st.sampled_from(("{0}={1}", "{0}", "{0}=", "={1}", "{0}={1}={1}")),
    st.sampled_from(("n", "r", "m", "r1", "r2", "sign", "x", "", " n ")),
    st.one_of(_ORDERS, _JUNK),
)


@st.composite
def _family_texts(draw):
    """A raw string one time in four.  Otherwise a kind (unknown ones too)
    and its own keys in any order, each left out one time in eight, with
    values that are junk one time in ten, a colon that is missing or doubled
    one time in three, and, one time in four, a foreign, duplicate or broken
    item put anywhere among them."""
    if draw(st.integers(0, 3)) == 0:
        return draw(_RAW_TEXT)
    kind = draw(st.sampled_from((*_KEYS, "blob", "")))
    items = []
    for key in draw(st.permutations(_KEYS.get(kind, ("n",)))):
        if draw(st.integers(0, 7)):
            items.append(f"{key}={draw(_JUNK if draw(st.integers(0, 9)) == 0 else _VALUES[key])}")
    if draw(st.integers(0, 3)) == 0:
        items.insert(draw(st.integers(0, len(items))), draw(_FOREIGN_ITEMS))
    colon = draw(st.sampled_from((":", ":", ":", ":", "", "::")))
    return kind + colon + ",".join(items)


_BASIS_TEXT = st.one_of(
    st.sampled_from(("cartesian", "tensor", "strong", "Cartesian", "", "p=", "p=x")),
    st.one_of(st.integers(0, 3), st.integers(-3, 40)).map(lambda p: f"p={p}"),
    st.lists(st.sampled_from(("10", "01", "11", " 11 ", "00", "1", "101", "", "x")), min_size=1, max_size=3).map(",".join),
    _RAW_TEXT,
)


def _assert_clean_exit(argv, codes=(0, 2)):
    """``main(argv)`` answers or refuses the input, never with a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in codes, (argv, code, err.getvalue())
    assert (code == 0) == (err.getvalue() == ""), (argv, err.getvalue())
    assert code == 0 or err.getvalue().startswith("signet: "), (argv, err.getvalue())


# `--line` is drawn with `--csv`: a lined grid's or cylinder's full report
# solves the built line graph, of order about 2mn, which takes seconds at 40.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(_family_texts(), st.sampled_from(((), ("--csv",), ("--line", "--csv"))))
def test_arbitrary_family_strings_exit_zero_or_two(text, flags):
    _assert_clean_exit(["spectrum", f"--family={text}", *flags])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_BASIS_TEXT, st.sampled_from(((), ("--csv",), ("--line",))))
def test_arbitrary_basis_strings_exit_zero_or_two(text, flags):
    _assert_clean_exit(["spectrum", "--family", "path:n=3", "--family", "cycle:n=4,r=1", f"--basis={text}", *flags])


# Orders stop at 40, or start at 2**40, where numpy refuses the n x n shape
# at once.  Orders in between meet the input boundary that has no cost model
# yet (ROADMAP item 4): a dense solve of order 10**4 takes minutes.
_DOC_INTS = st.one_of(st.integers(-2, 40), st.integers(2**40, 2**70))
_DOC_SCALARS = st.one_of(_DOC_INTS, st.booleans(), st.floats(), st.text(max_size=3))
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), _DOC_SCALARS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.sampled_from(("n", "edges")), st.text(max_size=3)), inner, max_size=3),
    ),
    max_leaves=12,
)
_EDGES = st.lists(
    st.tuples(st.integers(0, 8), st.integers(1, 9), st.sampled_from((1, -1))).map(lambda e: [e[0], e[0] + e[1], e[2]]),
    max_size=8,
    unique_by=lambda e: (e[0], e[1]),
)
_ENTRIES = st.lists(_DOC_SCALARS, min_size=2, max_size=4)


@st.composite
def _graph_documents(draw):
    """Raw text one time in eight, any JSON value one time in eight, and
    otherwise a near-valid document: "n" (an order up to 40 three times in
    four) and "edges" (distinct pairs u < v < 18, with an entry of 2-4
    scalars put among them one time in eight) in either order, each left out
    one time in eight, with an extra or a repeated key one time in four,
    written with the separators of the canonical text."""
    pick = draw(st.integers(0, 7))
    if pick == 0:
        return draw(_RAW_TEXT)
    if pick == 1:
        return json.dumps(draw(_JSON_VALUES))
    edges = draw(_EDGES)
    if draw(st.integers(0, 7)) == 0:
        edges.insert(draw(st.integers(0, len(edges))), draw(_ENTRIES))
    pairs = [("n", draw(_DOC_SCALARS if draw(st.integers(0, 3)) == 0 else st.integers(0, 40))), ("edges", edges)]
    pairs = [pair for pair in draw(st.permutations(pairs)) if draw(st.integers(0, 7))]
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(("n", "edges", "x")))
        pairs.insert(draw(st.integers(0, len(pairs))), (key, draw(_JSON_VALUES)))
    return "{" + ", ".join(f"{json.dumps(key)}: {json.dumps(value)}" for key, value in pairs) + "}"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_graph_documents(), st.sampled_from(((), ("--csv",), ("--line", "--csv"))))
def test_arbitrary_graph_documents_exit_zero_two_or_three(tmp_path_factory, text, flags):
    doc = tmp_path_factory.getbasetemp() / "document.json"
    doc.write_text(text, encoding="utf-8")
    _assert_clean_exit(["spectrum", "--file", str(doc), *flags], codes=(0, 2, 3))
