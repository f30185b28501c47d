"""One fresh interpreter of the benchmark: import signet, warm up, time requests.

Started by ``run.py`` with ``PYTHONPATH=src`` from the root of a checkout:

    python3 perfbench/worker.py MANIFEST RESULT SPAWN_MONOTONIC

The manifest names the warm-up and timed requests, the seconds of timed
work and the mode: ``setup`` (stop after warm-up), ``plain`` or ``trace``.
The result file gets setup time, latencies, the answer key of every
request, peak memory, the environment, in ``plain`` mode the host-speed
probes and the latencies scaled by them (``hostspeed.py``), and in
``trace`` mode the layer metrics.  Each request is ``signet.cli.main(argv)`` with stdout and stderr
captured; only that call is timed.  Answers go to the manifest's answer log
after the clock stops, and ``run.py`` checks them once this interpreter has
exited.
"""

import gc
import hashlib
import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import hostspeed
from signet.cli import main

SETUP_PROBES = 3  # probes after set-up, to scale setup_s


def call(argv, tracer=None, request_id=0):
    """Run one CLI request; return (exit code, stdout, stderr, seconds).

    The heap is collected first, outside the clock: a CLI request normally
    starts in a fresh process, and the collector's work inside a request
    should not depend on the garbage its predecessors (in a seeded order)
    left behind.
    """
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.begin(request_id)
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback is a failed request, not a benchmark crash
            rc = f"{type(exc).__name__}: {exc}"
        stop = time.perf_counter()
    if tracer is not None:
        tracer.end(start, stop)
    return rc, out.getvalue(), err.getvalue(), stop - start


class Answers:
    """Append-only log of the distinct answers this interpreter saw.

    ``run.py`` checks the log after the interpreter has exited, so neither
    the references' time nor their memory is part of what this process
    measures.  An answer is logged once per (request, exit code, stdout);
    a repeat of the same bytes gets the same verdict.
    """

    def __init__(self, path):
        self.fh = open(path, "w", encoding="utf-8")
        self.seen = set()

    def add(self, request, rc, out, err):
        rc = rc if isinstance(rc, int) else str(rc)
        key = hashlib.blake2b(f"{request}\0{rc}\0{out}".encode(), digest_size=12).hexdigest()
        if key not in self.seen:
            self.seen.add(key)
            self.fh.write(json.dumps({"key": key, "request": request, "rc": rc, "out": out, "err": err[-200:]}) + "\n")
        return key


class Phase:
    """Closed loop: one request at a time, in whole rounds of the workload's
    request mix, until at least `seconds` of timed work.  With `probe`, the
    host-speed probe runs before the first request, after every
    `PROBE_EVERY_S` of timed work and after the last request."""

    def __init__(self, answers, probe=False):
        self.answers = answers
        self.latencies = []
        self.keys = []  # answer key of each timed request, in order
        self.probes = [] if probe else None  # (request index, seconds)

    def run(self, requests, start, round_size, seconds, tracer=None, deadline=None):
        busy, i, since_probe = 0.0, 0, hostspeed.PROBE_EVERY_S
        # finish the round in progress; start another while time is wanted
        while i % round_size or i == 0 or busy < seconds and (deadline is None or time.monotonic() < deadline):
            if self.probes is not None and since_probe >= hostspeed.PROBE_EVERY_S:
                self.probes.append((len(self.latencies), hostspeed.probe()))
                since_probe = 0.0
            index = (start + i) % len(requests)
            rc, out, err, elapsed = call(requests[index]["argv"], tracer, len(self.latencies))
            i += 1
            busy += elapsed
            since_probe += elapsed
            self.latencies.append(elapsed)
            self.keys.append(self.answers.add(index, rc, out, err))
        if self.probes is not None:
            self.probes.append((len(self.latencies), hostspeed.probe()))
        return self


def traced_run(requests, round_size, seconds, deadline, answers):
    """Every round twice, untraced and traced, alternating which goes first,
    until the traced half has `seconds / 2` of timed work; the ratio of the
    two throughputs is then the cost of tracing."""
    from tracer import Tracer

    plain, traced, tracer = Phase(answers), Phase(answers), Tracer()
    start = 0
    while sum(traced.latencies) < seconds / 2 and time.monotonic() < deadline:
        order = [False, True] if start // round_size % 2 == 0 else [True, False]
        for with_trace in order:
            if not with_trace:
                plain.run(requests, start, round_size, 0)
                continue
            tracer.install()
            try:
                traced.run(requests, start, round_size, 0, tracer)
            finally:
                tracer.uninstall()
        start += round_size
    return plain, traced, tracer


def peak_rss_mb():
    """Peak resident memory of this interpreter's address space (VmHWM).

    Not ``ru_maxrss``: Linux carries that across ``exec`` from the process
    that spawned this one, so it would report run.py's memory (its reference
    checks) whenever that was larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024.0


def environment():
    import numpy as np

    from signet import __file__ as signet_file

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "loadavg": os.getloadavg(),
        "signet": os.path.relpath(os.path.dirname(signet_file)),
    }
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        env["blas"] = "unknown"
    env["blas_threads"] = _blas_threads()
    with open("/proc/self/status", encoding="ascii") as fh:
        env["threads"] = next((int(line.split()[1]) for line in fh if line.startswith("Threads:")), None)
    env.update({k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ})
    return env


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, read from this process."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main_worker(manifest_path, result_path, spawned):
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    answers = Answers(manifest["answers"])
    warmup_keys = []
    for i, request in enumerate(manifest["warmup"]):
        rc, out, err, _ = call(request["argv"])
        warmup_keys.append(answers.add(f"w{i}", rc, out, err))
    setup_s = time.monotonic() - spawned
    probe_s = sorted(hostspeed.probe() for _ in range(SETUP_PROBES))[SETUP_PROBES // 2]  # the median
    result = {
        "setup_s": setup_s,
        "scaled_setup_s": setup_s * hostspeed.REFERENCE_S / probe_s,
        "warmup_keys": warmup_keys,
    }
    mode, seconds = manifest["mode"], manifest["seconds"]
    if mode != "setup":
        requests, round_size = manifest["requests"], manifest["round_size"]
        deadline = time.monotonic() + 3 * seconds + 30
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if mode == "plain":
            phase = Phase(answers, probe=True).run(requests, 0, round_size, seconds, deadline=deadline)
            result["probes"] = phase.probes
            result["scaled_latencies"] = hostspeed.scale(phase.latencies, phase.probes)
        else:
            plain, phase, tracer = traced_run(requests, round_size, seconds, deadline, answers)
            result["untraced_latencies"] = plain.latencies
            result["untraced_keys"] = plain.keys
            result["trace"] = tracer.summary(phase.latencies)
            tracer.write_spans(manifest["spans"])
        result["latencies"] = phase.latencies
        result["keys"] = phase.keys
        result["peak_rss_mb"] = peak_rss_mb()
        # above 1 when threads beside the client (such as BLAS workers) run
        result["env"] = dict(environment(), cpu_over_wall=(time.process_time() - cpu0) / (time.perf_counter() - wall0))
    answers.fh.close()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main_worker(sys.argv[1], sys.argv[2], float(sys.argv[3]))
