"""Seeded request lists and reference checks for the signet benchmark.

Nothing here imports ``signet``: every reference is rebuilt from the
request's own description with numpy (LAPACK ``eigvalsh``, ``np.kron``,
closed-form cosines), so a defect in the package cannot hide in its check.

A request is a dict ``{"kind", "argv", "spec"}``.  ``argv`` is what the CLI
sees; ``spec`` is what the checker needs to rebuild the answer on its own.
Orders and shapes follow a fixed schedule per round, and the seed draws
edge sets, signs and the order of requests inside a round, so runs with
different seeds do the same amount of work.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np

WORKLOADS = ("spectrum-file", "family-spectrum", "build-emit")

SUITES = (
    "acharya",
    "closed-forms",
    "energy-bounds",
    "kirchhoff",
    "line-theorems",
    "neps-matrix",
    "rank",
)

# Each round is a fixed mix of slots, an odd number of them, so the median
# request (and the p75 one) falls inside a slot's own spread of latencies
# rather than on the step between two slots.

# spectrum-file: thirteen orders; every third slot sparse / p~0.1 / p~0.3.
SPECTRUM_ORDERS = tuple(int(round(x)) for x in np.linspace(40, 250, 13))
CSV_SLOTS = frozenset({2, 6, 10})

# family-spectrum: (family, line graph?, target order of the solved graph),
# and then one `verify <suite>` request per suite, 12 + 7 = 19 slots.
FAMILY_SLOTS = (
    ("path", False, 250),
    ("path", True, 80),
    ("cycle", False, 200),
    ("cycle", True, 130),
    ("complete", False, 150),
    ("complete", True, 230),
    ("grid", False, 100),
    ("grid", True, 210),
    ("cylinder", False, 180),
    ("cylinder", True, 120),
    ("torus", False, 240),
    ("torus", True, 60),
)


class CheckFailed(Exception):
    """An answer that disagrees with its reference."""


# ---------------------------------------------------------------------------
# request generation
# ---------------------------------------------------------------------------


def generate(workload: str, seed: int, workdir: str, rounds: int) -> tuple[list, list]:
    """Return (warm-up requests, timed requests); graph files go to workdir."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(workdir, exist_ok=True)
    if workload == "spectrum-file":
        warm = [_spectrum_file_request(rng, workdir, "warm0", 20, 0.2, False),
                _spectrum_file_request(rng, workdir, "warm1", 20, 0.2, True)]
        timed = []
        for r in range(rounds):
            for slot in rng.permutation(len(SPECTRUM_ORDERS)):
                n = SPECTRUM_ORDERS[slot]
                p = (rng.uniform(1.5, 3.0) / n, rng.uniform(0.08, 0.12), rng.uniform(0.25, 0.35))[slot % 3]
                timed.append(_spectrum_file_request(rng, workdir, f"r{r}s{slot}", n, p, slot in CSV_SLOTS))
        return warm, timed
    if workload == "family-spectrum":
        warm = [_family_request("cycle:n=12,r=1", False), _family_request("grid:m=3,r1=1,n=4,r2=0", True),
                _verify_request("kirchhoff", 1, 4), _verify_request("closed-forms", None, 3)]
        slots = [*FAMILY_SLOTS, *SUITES]
        timed = []
        for _ in range(rounds):
            for i in rng.permutation(len(slots)):
                if isinstance(slots[i], str):
                    timed.append(_verify_request(slots[i], int(rng.integers(0, 2**31)), None))
                    continue
                kind, line, order = slots[i]
                timed.append(_family_request(_family_of_order(rng, kind, line, order), line))
        return warm, timed
    if workload == "build-emit":
        warm = [_product_request(["path:n=3", "cycle:n=4,r=1"], "cartesian", True),
                _product_request(["complete:n=3", "path:n=2", "path:n=2"], "p=2", False),
                _line_request("complete:n=5,sign=-")]
        timed = []
        for _ in range(rounds):
            batch = _build_emit_round(rng)
            timed.extend(batch[i] for i in rng.permutation(len(batch)))
        return warm, timed
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def _random_edges(rng, n: int, p: float) -> list[list[int]]:
    iu, iv = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < p
    signs = rng.choice((-1, 1), size=int(keep.sum()))
    return [[int(u), int(v), int(s)] for u, v, s in zip(iu[keep], iv[keep], signs)]


def _spectrum_file_request(rng, workdir, name, n, p, csv) -> dict:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": n, "edges": _random_edges(rng, n, p)}, fh)
    argv = ["spectrum", "--file", path] + (["--csv"] if csv else [])
    return {"kind": "spectrum-csv" if csv else "spectrum-json", "argv": argv, "spec": {"file": path}}


def _family_request(family: str, line: bool) -> dict:
    argv = ["spectrum", "--family", family] + (["--line"] if line else [])
    return {"kind": "spectrum-json", "argv": argv, "spec": {"family": family, "line": line}}


def _split(target: int, lo: int) -> tuple[int, int]:
    """Two factors m, n >= lo with m * n close to target and m <= n."""
    m = max(lo, int(target**0.5))
    return m, max(lo, int(round(target / m)))


def _family_of_order(rng, kind: str, line: bool, order: int) -> str:
    """A family string whose graph (or line graph) has about `order` vertices."""
    if kind == "path":
        n = order + 1 if line else order
        return f"path:n={n},r={rng.integers(0, n)}"
    if kind == "cycle":
        return f"cycle:n={order},r={rng.integers(0, order + 1)}"
    if kind == "complete":
        sign = "+" if rng.random() < 0.5 else "-"
        # the line graph of K_k has k(k-1)/2 vertices
        n = int(round((1 + (1 + 8 * order) ** 0.5) / 2)) if line else order
        return f"complete:n={n},sign={sign}"
    # line graph orders: grid 2mn - m - n, cylinder 2mn - m, torus 2mn
    target = order
    if line:
        target = (order + 2 * order**0.5) / 2 if kind == "grid" else order / 2
    lo = 2 if kind == "grid" else 3
    m, n = _split(max(int(round(target)), lo * lo), lo)
    r1 = int(rng.integers(0, (m - 1 if kind == "grid" else m) + 1))
    r2 = int(rng.integers(0, (n if kind == "torus" else n - 1) + 1))
    return f"{kind}:m={m},r1={r1},n={n},r2={r2}"


def _product_request(factors: list[str], basis: str, matrix: bool) -> dict:
    argv = ["product"]
    for family in factors:
        argv += ["--family", family]
    argv += ["--basis", basis] + (["--matrix"] if matrix else [])
    return {
        "kind": "product-matrix" if matrix else "product",
        "argv": argv,
        "spec": {"factors": factors, "basis": basis},
    }


def _line_request(family: str) -> dict:
    return {"kind": "line", "argv": ["line", "--family", family], "spec": {"family": family}}


def _sized(rng, kind: str, n: int) -> str:
    """A path, cycle or complete family string of order n with seeded signs."""
    if kind == "complete":
        return f"complete:n={n},sign={'+' if rng.random() < 0.5 else '-'}"
    return f"{kind}:n={n},r={rng.integers(0, n)}"


def _build_emit_round(rng) -> list[dict]:
    """Thirteen requests: seven products, two with matrices, four line graphs."""
    m, n = _split(300, 8)
    return [
        _product_request([_sized(rng, "cycle", m), _sized(rng, "path", n)], "cartesian", False),
        _product_request([_sized(rng, "path", 7), _sized(rng, "cycle", 7), _sized(rng, "complete", 7)], "cartesian", False),
        _product_request([_sized(rng, "complete", 11), _sized(rng, "cycle", 12)], "strong", False),
        _product_request([_sized(rng, "complete", 8) for _ in range(3)], "strong", False),
        _product_request([_sized(rng, "cycle", 6), _sized(rng, "path", 6), _sized(rng, "complete", 6)], "p=2", False),
        _product_request([_sized(rng, "path", 5), _sized(rng, "cycle", 5), _sized(rng, "complete", 5)], "001,011,101,110", False),
        _product_request([_sized(rng, "cycle", 12), _sized(rng, "complete", 9)], "10,01,11", False),
        _product_request([_sized(rng, "path", 10), _sized(rng, "cycle", 10)], "cartesian", True),
        _product_request([_sized(rng, "complete", 8), _sized(rng, "path", 8)], "01,11", True),
        _line_request(_family_of_order(rng, "torus", False, 360)),
        _line_request(_sized(rng, "complete", 20)),
        _line_request(_family_of_order(rng, "grid", False, 300)),
        _line_request(_family_of_order(rng, "cylinder", False, 300)),
    ]


def _verify_request(suite: str, seed, max_n) -> dict:
    argv = ["verify", suite]
    if max_n is not None:
        argv += ["--max", str(max_n)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return {"kind": "verify", "argv": argv, "spec": {"suite": suite}}


# ---------------------------------------------------------------------------
# reference graphs
# ---------------------------------------------------------------------------


def _parse_family(text: str) -> tuple[str, dict]:
    kind, _, rest = text.partition(":")
    params = {}
    for item in rest.split(","):
        key, _, value = item.partition("=")
        params[key] = {"+": 1, "-": -1}.get(value) or int(value)
    return kind, params


def _path(n: int, r: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = -1 if i < r else 1
    return a


def _cycle(n: int, r: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int64)
    for k, (u, v) in enumerate([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]):
        a[u, v] = a[v, u] = -1 if k < r else 1
    return a


def _family_factors(text: str) -> list[tuple[str, int, int]]:
    """Leaf factors (kind, n, r or sign) whose Cartesian product is the family."""
    kind, p = _parse_family(text)
    if kind == "path" or kind == "cycle":
        return [(kind, p["n"], p.get("r", 0))]
    if kind == "complete":
        return [(kind, p["n"], p.get("sign", 1))]
    first = "path" if kind == "grid" else "cycle"
    second = "cycle" if kind == "torus" else "path"
    return [(first, p["m"], p.get("r1", 0)), (second, p["n"], p.get("r2", 0))]


def family_adjacency(text: str) -> np.ndarray:
    leaves = []
    for kind, n, x in _family_factors(text):
        if kind == "complete":
            leaves.append(x * (np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)))
        else:
            leaves.append((_path if kind == "path" else _cycle)(n, x))
    return product_adjacency(leaves, parse_basis("cartesian", len(leaves)))


def family_closed_forms(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency and Laplacian eigenvalues from cosines, sums over factors."""
    adj, lap = np.zeros(1), np.zeros(1)
    for kind, n, x in _family_factors(text):
        j = np.arange(n)
        if kind == "path":
            a, l = 2 * np.cos(np.pi * (j + 1) / (n + 1)), 2 - 2 * np.cos(np.pi * j / n)
        elif kind == "cycle":
            a = 2 * np.cos((2 * j + x % 2) * np.pi / n)
            l = 2 - a
        else:
            a = np.where(j == 0, x * (n - 1), -x).astype(float)
            l = (n - 1) - a
        adj = (adj[:, None] + a[None, :]).ravel()
        lap = (lap[:, None] + l[None, :]).ravel()
    return np.sort(adj), np.sort(lap)


def product_adjacency(mats: list[np.ndarray], patterns) -> np.ndarray:
    """Sum over 0/1 patterns of Kronecker chains with A^0 = I, A^1 = A."""
    total = 0
    for vec in patterns:
        term = np.ones((1, 1), dtype=np.int64)
        for a, bit in zip(mats, vec):
            term = np.kron(term, a if bit else np.eye(a.shape[0], dtype=np.int64))
        total = total + term
    return total


def parse_basis(text: str, nu: int) -> list[tuple[int, ...]]:
    if text == "cartesian":
        return [tuple(int(i == j) for j in range(nu)) for i in range(nu)]
    if text == "strong":
        return [(1,) * nu]
    if text.startswith("p="):
        p = int(text[2:])
        return [tuple(int(c) for c in format(k, f"0{nu}b")) for k in range(1, 2**nu) if bin(k).count("1") == p]
    return [tuple(int(c) for c in token) for token in text.split(",")]


def incidence_line_adjacency(a: np.ndarray) -> np.ndarray:
    """2I - H^T H for H with +1 at u and -s at v per edge (u < v) in sorted order."""
    us, vs = np.nonzero(np.triu(a))
    h = np.zeros((a.shape[0], us.size))  # float, so the product goes to BLAS; entries stay exact
    k = np.arange(us.size)
    h[us, k] = 1
    h[vs, k] = -a[us, vs]
    return 2 * np.eye(us.size, dtype=np.int64) - (h.T @ h).astype(np.int64)


def load_graph_file(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return _graph_matrix(doc)


def _graph_matrix(doc) -> np.ndarray:
    """Adjacency of a {"n", "edges"} document, which must be canonical."""
    n, edges = doc["n"], doc["edges"]
    a = np.zeros((n, n), dtype=np.int64)
    if edges:
        e = np.asarray(edges, dtype=np.int64)
        if e.ndim != 2 or e.shape[1] != 3:
            raise CheckFailed("edges are not [u, v, sign] triples")
        if not (np.all(e[:, 0] >= 0) and np.all(e[:, 0] < e[:, 1]) and np.all(e[:, 1] < n)):
            raise CheckFailed("edge endpoints out of order or range")
        if not np.all(np.abs(e[:, 2]) == 1):
            raise CheckFailed("edge sign not +1 or -1")
        keys = e[:, 0] * n + e[:, 1]
        if not np.all(np.diff(keys) > 0):
            raise CheckFailed("edges are not sorted and distinct")
        a[e[:, 0], e[:, 1]] = e[:, 2]
        a[e[:, 1], e[:, 0]] = e[:, 2]
    return a


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _components(a: np.ndarray) -> tuple[int, int]:
    """(components, bipartite components) by breadth-first two-colouring."""
    n = a.shape[0]
    nbrs = [np.flatnonzero(row) for row in a]
    colour = [-1] * n
    c = c_b = 0
    for root in range(n):
        if colour[root] != -1:
            continue
        c += 1
        colour[root] = 0
        queue, bipartite = [root], True
        while queue:
            u = queue.pop()
            for v in nbrs[u]:
                if colour[v] == -1:
                    colour[v] = 1 - colour[u]
                    queue.append(v)
                elif colour[v] == colour[u]:
                    bipartite = False
        c_b += bipartite
    return c, c_b


def _close(label: str, got, want, tol: float):
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{label}: {got.size} values, expected {want.size}")
    if not np.all(np.diff(got) >= 0):
        raise CheckFailed(f"{label}: values not ascending")
    worst = float(np.max(np.abs(got - want))) if want.size else 0.0
    if worst > tol:
        raise CheckFailed(f"{label}: off by {worst:.3g} (tolerance {tol:.1g})")


def _check_report(out: str, a: np.ndarray, forms=None):
    """JSON report of `spectrum` against LAPACK, the rank law and BFS."""
    doc = json.loads(out)
    n = a.shape[0]
    lap = np.diag(np.abs(a).sum(axis=1)) - a
    adj_ref, lap_ref = np.linalg.eigvalsh(a), np.linalg.eigvalsh(lap)
    tol = 1e-8 * max(1.0, float(np.abs(lap_ref).max(initial=0.0)))
    _close("spectrum", doc["spectrum"], adj_ref, tol)
    _close("laplacian_spectrum", doc["laplacian_spectrum"], lap_ref, tol)
    if forms is not None:
        _close("spectrum vs closed form", doc["spectrum"], forms[0], tol)
        if forms[1] is not None:
            _close("laplacian_spectrum vs closed form", doc["laplacian_spectrum"], forms[1], tol)
    if abs(doc["energy"] - np.abs(adj_ref).sum()) > tol * max(n, 1):
        raise CheckFailed(f"energy {doc['energy']} != {np.abs(adj_ref).sum()}")
    d_bar = np.abs(a).sum() / n if n else 0.0
    if abs(doc["laplacian_energy"] - np.abs(lap_ref - d_bar).sum()) > tol * max(n, 1):
        raise CheckFailed(f"laplacian_energy {doc['laplacian_energy']} is off")
    b = n - int(np.sum(lap_ref > tol))  # rank law: rank L = n - b
    c, c_b = _components(a)
    want = {"b": b, "c": c, "c_b": c_b, "balanced": b == c}
    if doc["balance"] != want:
        raise CheckFailed(f"balance {doc['balance']} != {want}")


def _check_csv(out: str, a: np.ndarray):
    values = [float(x) for x in out.split()]
    ref = np.linalg.eigvalsh(a)
    _close("csv spectrum", values, ref, 1e-9 * max(1.0, float(np.abs(ref).max(initial=0.0))))


def _line_forms(text: str) -> np.ndarray:
    """Line-graph spectrum {2 - mu : mu > 0} plus 2 repeated m - n + b times."""
    _, lap = family_closed_forms(text)
    a = family_adjacency(text)
    n, m = a.shape[0], int(np.count_nonzero(np.triu(a)))
    b = int(np.sum(lap < 1e-9 * max(1.0, lap.max())))
    return np.sort(np.concatenate([2 - lap[b:], np.full(m - n + b, 2.0)]))


def check(request: dict, rc, out: str):
    """Raise CheckFailed unless the answer to `request` is correct."""
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    kind, spec = request["kind"], request["spec"]
    if kind == "verify":
        lines = out.splitlines()
        pattern = re.compile(re.escape(spec["suite"]) + r": [1-9]\d* checks, 0 failures")
        if len(lines) != 1 or not pattern.fullmatch(lines[0]):
            raise CheckFailed(f"verify output {out[:200]!r}")
    elif kind in ("spectrum-json", "spectrum-csv"):
        if "file" in spec:
            a, forms = load_graph_file(spec["file"]), None
        elif spec["line"]:
            a = incidence_line_adjacency(family_adjacency(spec["family"]))
            forms = (_line_forms(spec["family"]), None)
        else:
            a, forms = family_adjacency(spec["family"]), family_closed_forms(spec["family"])
        if kind == "spectrum-csv":
            _check_csv(out, a)
        else:
            _check_report(out, a, forms)
    elif kind == "line":
        want = incidence_line_adjacency(family_adjacency(spec["family"]))
        if not np.array_equal(_graph_matrix(json.loads(out)), want):
            raise CheckFailed("line graph != 2I - H^T H")
    else:
        mats = [family_adjacency(f) for f in spec["factors"]]
        want = product_adjacency(mats, parse_basis(spec["basis"], len(mats)))
        doc = json.loads(out)
        if kind == "product-matrix":
            deg = np.diag(np.abs(want).sum(axis=1))
            for key, ref in (("adjacency", want), ("degree", deg), ("laplacian", deg - want)):
                if not np.array_equal(np.asarray(doc[key], dtype=np.int64), ref):
                    raise CheckFailed(f"product {key} matrix != Kronecker sum")
            doc = doc["graph"]
        if not np.array_equal(_graph_matrix(doc), want):
            raise CheckFailed("product adjacency != Kronecker sum over the basis")


def corrupt(request: dict, out: str) -> str:
    """A deliberately wrong version of a correct answer, for the checker self-test."""
    kind = request["kind"]
    if kind == "verify":
        return out.replace(" 0 failures", " 1 failures")
    if kind == "spectrum-csv":
        lines = out.splitlines()
        lines[len(lines) // 2] = "%.12g" % (float(lines[len(lines) // 2]) + 1e-3)
        return "\n".join(lines)
    doc = json.loads(out)
    if kind == "spectrum-json":
        doc["spectrum"][len(doc["spectrum"]) // 2] += 1e-3  # a perturbed eigenvalue
    elif kind == "line":
        del doc["edges"][len(doc["edges"]) // 2]  # a dropped line-graph edge
    elif kind == "product-matrix":
        row = doc["adjacency"][0]
        j = next(k for k, x in enumerate(row) if x)
        row[j] = -row[j]  # a flipped sign in the emitted matrix
    else:
        doc["edges"][len(doc["edges"]) // 2][2] *= -1  # a flipped edge sign
    return json.dumps(doc)
