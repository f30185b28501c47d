"""The benchmark's tracer (`perfbench/tracer.py`) still fits the package.

The tracer wraps ``SignedGraph.__post_init__`` and the public functions of
the layer modules from outside; a refactor of the graph layer that moved
canonicalisation or JSON writing out of those hooks would leave ``--trace 1``
runs recording nothing for them.  The tracer also reads two shapes: the
``graph`` field of what ``line_graph`` returns, and the matrix that
``spectra.eigenvalues`` takes as its first argument.
"""

from __future__ import annotations

import importlib.util
import json
import os
from time import perf_counter

import pytest

import signet
from signet import cli, families, graphs, products

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(tracer, requests):
    """Run each argv through ``cli.main`` as one traced request; their latencies."""
    tracer.install()
    latencies = []
    try:
        for request, argv in enumerate(requests):
            tracer.begin(request)
            start = perf_counter()
            assert cli.main(argv) == 0
            stop = perf_counter()
            tracer.end(start, stop)
            latencies.append(stop - start)
    finally:
        tracer.uninstall()
    return latencies


def test_traced_requests_record_canonicalisation_and_json_writing(tracer_module, capsys):
    originals = {
        "__post_init__": graphs.SignedGraph.__dict__["__post_init__"],
        "graphs.dumps": graphs.dumps,
        "cli.dumps": cli.dumps,
        "products.neps": products.neps,
    }
    tracer = tracer_module.Tracer()
    latencies = _traced(
        tracer,
        (
            ["product", "--family", "complete:n=4", "--family", "cycle:n=5,r=1", "--basis", "strong"],
            ["spectrum", "--family", "grid:m=3,r1=1,n=4,r2=0"],
        ),
    )

    product = json.loads(capsys.readouterr().out.splitlines()[0])
    names = {request: {span[3] for span in tracer.spans if span[2] == request} for request in (0, 1)}
    assert {"graphs.SignedGraph", "graphs.dumps", "products.neps"} <= names[0]
    assert "formulas.neps_sum" in names[1]
    assert tracer.counts[0]["graphs.canon_edges"] >= len(product["edges"]) == 2 * 6 * 5  # tensor product of K_4 and C_5
    assert tracer.counts[0]["products.edges_out"] == len(product["edges"])
    summary = tracer.summary(latencies)
    assert summary["consistent"]
    assert summary["metrics"]["graphs.canon_ms"] > 0
    assert summary["metrics"]["graphs.json_write_ms"] > 0
    assert summary["metrics"]["spectra.solve_calls"] == 0

    assert graphs.SignedGraph.__dict__["__post_init__"] is originals["__post_init__"]
    assert (graphs.dumps, cli.dumps, products.neps) == (
        originals["graphs.dumps"],
        originals["cli.dumps"],
        originals["products.neps"],
    )


def test_traced_line_and_file_requests_count_edges_and_solves(tracer_module, tmp_path, capsys):
    doc = tmp_path / "c5.json"
    doc.write_text(graphs.dumps(families.cycle(5, 0)))
    tracer = tracer_module.Tracer()
    latencies = _traced(
        tracer,
        (
            ["line", "--family", "complete:n=5,sign=-"],
            ["spectrum", "--file", str(doc)],
        ),
    )
    capsys.readouterr()
    names = {request: {span[3] for span in tracer.spans if span[2] == request} for request in (0, 1)}
    assert "linegraph.line_graph" in names[0]
    assert {"graphs.loads", "spectra.eigenvalues"} <= names[1]
    assert tracer.counts[0]["linegraph.edges_out"] == 30  # 5 vertices of K_5, C(4, 2) edge pairs at each
    assert tracer.counts[1]["spectra.solve_calls"] == 2  # the adjacency and the Laplacian of C_5
    assert tracer.summary(latencies)["consistent"]


def test_traced_line_of_a_grid_records_the_product_and_the_line_graph(tracer_module, capsys):
    tracer = tracer_module.Tracer()
    latencies = _traced(tracer, (["line", "--family", "grid:m=3,n=4"],))
    capsys.readouterr()
    assert {"products.neps", "linegraph.line_graph"} <= {span[3] for span in tracer.spans}
    assert tracer.summary(latencies)["consistent"]


def test_traced_rank_suite_records_the_exact_rank(tracer_module, capsys):
    """``oracle.rank_exact`` is what the ``oracle.rank_ms`` layer metric measures."""
    tracer = tracer_module.Tracer()
    latencies = _traced(tracer, (["verify", "rank", "--max", "4"],))
    assert capsys.readouterr().out.startswith("rank: 200 checks, 0 failures")
    assert "oracle.rank_exact" in {span[3] for span in tracer.spans}
    summary = tracer.summary(latencies)
    assert summary["consistent"]
    assert summary["metrics"]["oracle.rank_ms"] > 0


def test_public_names_resolve(tracer_module):
    """The tracer looks up every exported name; a stale export would crash
    ``--trace 1``."""
    layers = [importlib.import_module(f"signet.{m}") for m in tracer_module.LAYER_MODULES]
    for module in (signet, importlib.import_module("signet.structured"), *layers):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    removed = {
        "signet": {"Spectrum", "adjacency_spectrum", "laplacian_spectrum", "energy", "laplacian_energy", "kron"},
        "signet.spectra": {
            "Spectrum",
            "DEFAULT_MULTIPLICITY_TOL",
            "adjacency_spectrum",
            "laplacian_spectrum",
            "energy",
            "laplacian_energy",
        },
        "signet.products": {
            "ProductVertexMap",
            "kron",
            "neps_degree_matrix",
            "average_degree",
            "strong_basis",
            "strong",
            "symmetric_p",
            "_coordinate_moves",
        },
        "signet.structured": {
            "leaf_node",
            "dense_node",
            "product_node",
            "line_node",
            "family_node",
            "_Leaf",
            "_Dense",
            "_Product",
            "_Line",
            "_BlockLeaf",
        },
        # cartesian: families builds leaves only and no longer imports products.
        "signet.families": {"build_family", "FamilySpec", "family_leaves", "grid", "cylinder", "torus", "cartesian"},
        "signet.graphs": {"ARRAY_MIN_EDGES", "degree_matrix", "ComponentReport", "_adjacency_of_rows"},
        "signet.oracle": {
            "eigenvalues_ql",
            "_householder_tridiagonalize",
            "_ql_eigenvalues",
            "_MAX_QL_ITERATIONS",
            "balance_by_cycles",
            "balance_by_switching",
            "_union_find_components",
            "_CYCLE_CAP",
            "_SWITCH_CAP",
        },
        "signet.verify": {"_multiset_close", "run_suite"},
    }
    for module_name, names in removed.items():
        module = importlib.import_module(module_name)
        assert not names & set(dir(module)), module_name
