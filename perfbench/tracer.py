"""Spans around signet's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of the layer modules by a
wrapper, in every ``signet`` namespace that holds it (``signet.cli`` binds
``adjacency_spectrum``, ``neps``, ``loads`` and others at import, and
``verify.SUITES`` holds the suite functions), and wraps
``SignedGraph.__post_init__``, where edge lists are canonicalised.  A span is
``(id, parent, request, name, start, end)``; the request's root span is the
``cli.main`` call the benchmark times.  Self time is a span's duration minus
its children's, so the self times of one request add up to its latency.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYER_MODULES = ("graphs", "products", "linegraph", "spectra", "families", "formulas", "oracle", "verify")

# Public function -> per-layer metric that gets its self time.
_GRAPHS = {
    "dumps": "graphs.json_write_ms",
    "to_json_dict": "graphs.json_write_ms",
    "loads": "graphs.json_read_ms",
    "from_json_dict": "graphs.json_read_ms",
    "balance_report": "graphs.balance_ms",
    "negate": "graphs.switch_ms",
    "underlying": "graphs.switch_ms",
    "switch": "graphs.switch_ms",
}
_PRODUCTS_KRON = {"kron", "kron_sum_over_basis", "neps_degree_matrix"}
_MODULE_METRIC = {
    "linegraph": "linegraph.build_ms",
    "spectra": "spectra.solve_ms",
    "families": "families.build_ms",
    "formulas": "formulas.ms",
    "oracle": "oracle.rank_ms",
    "verify": "verify.suite_ms",
}
CANON = "graphs.SignedGraph"
ROOT = "cli.main"
TIME_METRICS = (
    "cli.self_ms",
    "graphs.canon_ms",
    "graphs.matrix_ms",
    "graphs.balance_ms",
    "graphs.switch_ms",
    "graphs.json_read_ms",
    "graphs.json_write_ms",
    "products.neps_ms",
    "products.kron_ms",
    "linegraph.build_ms",
    "spectra.solve_ms",
    "families.build_ms",
    "formulas.ms",
    "oracle.rank_ms",
    "verify.suite_ms",
)


def metric_of(span_name: str) -> str:
    if span_name == ROOT:
        return "cli.self_ms"
    if span_name == CANON:
        return "graphs.canon_ms"
    module, _, name = span_name.partition(".")
    if module == "graphs":
        return _GRAPHS.get(name, "graphs.matrix_ms")
    if module == "products":
        return "products.kron_ms" if name in _PRODUCTS_KRON else "products.neps_ms"
    return _MODULE_METRIC[module]


class Tracer:
    """In-memory spans and per-request counters for one worker process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, dict] = defaultdict(lambda: defaultdict(float))
        self.distinct: dict[int, set] = defaultdict(set)
        self.request = None
        self._stack: list[int] = []
        self._next = 0
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def begin(self, request: int):
        self.request = request
        self._stack = [self._new_id()]

    def end(self, start: float, stop: float):
        """Close the request's root span with the benchmark's own timestamps."""
        self.spans.append((self._stack[0], None, self.request, ROOT, start, stop))
        self.request = None

    def _new_id(self) -> int:
        self._next += 1
        return self._next

    def _wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            sid = self._new_id()
            parent = self._stack[-1]
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, self.request, name, start, stop))
            if count is not None:
                count(self.counts[self.request], self.distinct[self.request], args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap signet's public functions; undo with `uninstall`."""
        import signet

        modules = {m: importlib.import_module(f"signet.{m}") for m in LAYER_MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{short}.{name}", fn, _COUNTERS.get(f"{short}.{name}"))
        namespaces = [signet, importlib.import_module("signet.cli"), *modules.values()]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(ns, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._patch_item(value, key, wrappers[item])
        cls = modules["graphs"].SignedGraph
        self._patch(cls, "__post_init__", self._wrap(CANON, cls.__post_init__, _count_canon))

    def _patch(self, owner, attr, value):
        self._restore.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_item(self, mapping, key, value):
        self._restore.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        for setter, owner, key, original in reversed(self._restore):
            setter(owner, key, original)
        self._restore.clear()

    # -- summary -----------------------------------------------------------

    def summary(self, latencies: list[float]) -> dict:
        """Per-request layer metrics and the consistency check of self times.

        `latencies` are the benchmark's own timings of the traced requests,
        in seconds; the root spans carry the same timestamps.
        """
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, start, stop in self.spans:
            if parent is not None:
                child_time[parent] += stop - start
        self_ms: dict[str, float] = defaultdict(float)
        solver_s = 0.0
        worst_negative = 0.0
        for sid, _, _, name, start, stop in self.spans:
            own = (stop - start) - child_time[sid]
            worst_negative = min(worst_negative, own)
            self_ms[metric_of(name)] += own * 1e3
            if name == "spectra.eigenvalues":
                solver_s += own
        requests = max(len(latencies), 1)
        total_self = sum(self_ms.values())
        total_latency = sum(latencies) * 1e3
        counts = defaultdict(float)
        for per_request in self.counts.values():
            for key, value in per_request.items():
                counts[key] += value
        ratios = sorted(
            len(self.distinct[r]) / c["spectra.solve_calls"]
            for r, c in self.counts.items()
            if c.get("spectra.solve_calls")
        )
        metrics = {name: self_ms.get(name, 0.0) / requests for name in TIME_METRICS}
        metrics.update(
            {
                "spectra.solve_calls": counts["spectra.solve_calls"] / requests,
                "spectra.flops_computed": counts["spectra.flops_computed"] / requests,
                "spectra.gflops": counts["spectra.flops_computed"] / solver_s / 1e9 if solver_s else 0.0,
                "spectra.useful_solve_ratio": ratios[len(ratios) // 2] if ratios else 0.0,
                "graphs.canon_edges": counts["graphs.canon_edges"] / requests,
                "graphs.json_bytes_out": counts["graphs.json_bytes_out"] / requests,
                "products.edges_out": counts["products.edges_out"] / requests,
                "linegraph.edges_out": counts["linegraph.edges_out"] / requests,
            }
        )
        # Self times partition each request's latency; anything else is a bug
        # in the span tree (a lost parent, an overlapping child).
        consistent = worst_negative > -1e-6 and abs(total_self - total_latency) <= 1e-6 * max(total_latency, 1.0)
        return {
            "metrics": metrics,
            "consistent": consistent,
            "self_sum_ms": total_self,
            "latency_sum_ms": total_latency,
            "spans": len(self.spans),
        }

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,request,name,start_s,end_s\n")
            for sid, parent, request, name, start, stop in self.spans:
                fh.write(f"{sid},{'' if parent is None else parent},{request},{name},{start:.9f},{stop:.9f}\n")


# ---------------------------------------------------------------------------
# counters, recorded at the same boundaries as the spans
# ---------------------------------------------------------------------------


def _count_solve(counts, distinct, args, result):
    matrix = np.ascontiguousarray(args[0])
    n = matrix.shape[0]
    counts["spectra.solve_calls"] += 1
    counts["spectra.flops_computed"] += 4.0 / 3.0 * n**3
    distinct.add((matrix.shape, matrix.dtype.str, hashlib.blake2b(matrix.tobytes(), digest_size=16).digest()))


def _count_canon(counts, distinct, args, result):
    counts["graphs.canon_edges"] += len(args[0].edges)


def _count_dumps(counts, distinct, args, result):
    counts["graphs.json_bytes_out"] += len(result.encode("utf-8"))


def _count_neps(counts, distinct, args, result):
    counts["products.edges_out"] += result.m


def _count_line(counts, distinct, args, result):
    counts["linegraph.edges_out"] += result.graph.m


_COUNTERS = {
    "spectra.eigenvalues": _count_solve,
    "graphs.dumps": _count_dumps,
    "products.neps": _count_neps,
    "linegraph.line_graph": _count_line,
}
