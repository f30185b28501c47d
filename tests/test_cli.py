"""End-to-end command tests, run in process through cli.main."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import assert_multiset_close

import signet
from signet import formulas
from signet.cli import main
from signet.families import complete, cycle, grid, path
from signet.graphs import adjacency, degree_matrix, dumps, laplacian, loads, to_json_dict
from signet.linegraph import line_graph
from signet.products import Basis, neps


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


def test_out_of_memory_exits_two(monkeypatch, capsys):
    def fail(factors, basis):
        raise MemoryError("Unable to allocate 5.86 GiB for an array")

    monkeypatch.setattr("signet.cli.neps", fail)
    code, out, err = run(capsys, "product", "--family", "path:n=2", "--family", "path:n=2")
    assert code == 2
    assert out == ""
    assert err == "signet: out of memory: Unable to allocate 5.86 GiB for an array\n"


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


def test_csv_output(capsys):
    from signet.structured import dense_node

    code, out, _ = run(capsys, "spectrum", "--family", "cycle:n=5", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    # one eigenvalue per line, printed to 12 significant digits
    assert lines == ["%.12g" % v for v in dense_node(cycle(5, 0)).adjacency]
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
    assert got == grid(3, 1, 4, 2)
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
        "degree": degree_matrix(g).tolist(),
        "laplacian": laplacian(g).tolist(),
    }
    assert out == json.dumps(want) + "\n"


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
    cases = [
        ("spectrum",),  # no input at all
        ("spectrum", "--family", "blob:n=3"),
        ("spectrum", "--family", "cycle:n=3,r=9"),
        ("spectrum", "--file", str(tmp_path / "missing.json")),
        ("product", "--family", "path:n=2", "--family", "path:n=2", "--basis", "10"),
        ("product", "--family", "path:n=2", "--family", "path:n=2", "--basis", "p=5"),
        ("verify", "nonsense"),
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


def test_line_of_a_huge_edgeless_graph_is_immediate(tmp_path):
    """The line graph's work grows with the edges, not with n.  The child
    caps its own address space at 512 MiB, so work that grows with n fails
    with an out-of-memory exit instead of filling the machine."""
    doc = tmp_path / "huge.json"
    doc.write_text('{"n": 100000000000000000000000000000, "edges": []}')
    cap = "import resource; resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29)); "
    command, env = _signet_command("line", "--file", str(doc), prelude=cap)
    proc = subprocess.run(command, capture_output=True, env=dict(env, OPENBLAS_NUM_THREADS="1"), timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b'{"n": 0, "edges": []}\n', b"")


def test_verify_command_runs_suites(capsys):
    code, out, _ = run(capsys, "verify", "closed-forms", "--max", "4")
    assert code == 0
    assert "closed-forms:" in out
    assert "0 failures" in out


def test_suites_solve_each_distinct_matrix_once(monkeypatch, capsys):
    from signet import spectra, verify

    solved = []

    def counting(matrix):
        solved.append((matrix.shape, matrix.tobytes()))
        return spectra.eigenvalues(matrix)

    monkeypatch.setattr(verify, "eigenvalues", counting)
    for suite in ("acharya", "closed-forms", "energy-bounds", "line-theorems"):
        solved.clear()
        code, out, _ = run(capsys, "verify", suite, "--max", "5", "--seed", "9")
        assert code == 0, out
        assert solved and len(solved) == len(set(solved)), suite


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
    def refuse(lap_values, m, n, b):
        raise ValueError("Laplacian zero multiplicity does not match b")

    monkeypatch.setattr(formulas, "line_spectrum_general", refuse)
    code, out, err = run(capsys, "verify", suite, "--max", "4")
    assert code == 1
    assert err == ""
    assert fail + "Laplacian zero multiplicity does not match b" in out.splitlines()


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


def test_verify_reads_seed_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("SIGNET_SEED", "123")
    code, out, _ = run(capsys, "verify", "rank", "--max", "4")
    assert code == 0
    assert "rank:" in out and "0 failures" in out
