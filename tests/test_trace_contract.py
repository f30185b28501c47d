"""The benchmark's tracer (`perfbench/tracer.py`) still fits the package.

The tracer wraps ``SignedGraph.__post_init__`` and the public functions of
the layer modules from outside; a refactor of the graph layer that moved
canonicalisation or JSON writing out of those hooks would leave ``--trace 1``
runs recording nothing for them.
"""

from __future__ import annotations

import importlib.util
import json
import os
from time import perf_counter

import pytest

import signet
from signet import cli, graphs

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_requests_record_canonicalisation_and_json_writing(tracer_module, capsys):
    originals = {
        "__post_init__": graphs.SignedGraph.__dict__["__post_init__"],
        "graphs.dumps": graphs.dumps,
        "cli.dumps": cli.dumps,
        "cli.neps": cli.neps,
    }
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        requests = (
            ["product", "--family", "complete:n=4", "--family", "cycle:n=5,r=1", "--basis", "strong"],
            ["spectrum", "--family", "grid:m=3,r1=1,n=4,r2=0"],
        )
        latencies = []
        for request, argv in enumerate(requests):
            tracer.begin(request)
            start = perf_counter()
            assert cli.main(argv) == 0
            stop = perf_counter()
            tracer.end(start, stop)
            latencies.append(stop - start)
    finally:
        tracer.uninstall()

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
    assert (graphs.dumps, cli.dumps, cli.neps) == (originals["graphs.dumps"], originals["cli.dumps"], originals["cli.neps"])
    assert signet.dumps is graphs.dumps
