"""signet benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectrum-file --seed 1 --seconds 20 --trace 0

Inputs are generated from the seed into ``.perfbench/`` (the program sees
only those files and argv).  Fresh interpreters (``worker.py``) import
``signet`` from ``src/`` and drive ``signet.cli.main`` in process, one
request at a time.  Their answers are checked here, against the references
in ``workloads.py``, once each interpreter has exited.  With ``--trace 0``
the last line of stdout is the JSON result with the end-to-end metrics,
timings scaled to a reference host speed (``hostspeed.py``); with
``--trace 1`` it carries the per-layer metrics of a traced run.  See
``NOTES.md`` for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed
import workloads

WORK_DIR = ".perfbench"
SPEC = "BENCHMARK.json"  # the metrics and their units
# One closed-loop client is one thread of work.  Left alone, OpenBLAS adds a
# second thread that keeps the worker at ~145% CPU on a 2-CPU machine, which
# ties every timing to whatever else runs on the other CPU.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_SAMPLES = 7  # fresh interpreters per plain run; setup_s is their median
# Lower bounds on one round's seconds at this commit, to size the inputs.
ROUND_SECONDS = {"spectrum-file": 2.0, "family-spectrum": 3.0, "build-emit": 0.5}
# Tail percentile per workload: the highest of 50/75/90/95/99 that has at
# least ten requests beyond it in a run of this commit (NOTES.md).  It is
# fixed so that a parent and a change are compared at the same percentile.
TAIL_PERCENTILE = {"spectrum-file": 75, "family-spectrum": 75, "build-emit": 95}


def git_commit(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="ascii") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def spawn(manifest: dict, work: str, name: str, timeout: float) -> tuple[dict, Verdicts]:
    """Run one worker in a fresh interpreter; return its result and the
    verdicts on the answers it logged."""
    paths = {part: os.path.join(work, f"{name}.{part}") for part in ("manifest.json", "result.json", "answers.jsonl")}
    with open(paths["manifest.json"], "w", encoding="utf-8") as fh:
        json.dump(dict(manifest, answers=paths["answers.jsonl"]), fh)
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    command = [sys.executable, os.path.join("perfbench", "worker.py"), paths["manifest.json"], paths["result.json"]]
    subprocess.run(command + [repr(time.monotonic())], env=env, check=True, timeout=timeout)
    with open(paths["result.json"], encoding="utf-8") as fh:
        result = json.load(fh)
    return result, check_answers(paths["answers.jsonl"], manifest["warmup"], manifest["requests"])


class Verdicts(dict):
    """Answer key -> failure message, or None for a correct answer; with one
    correct answer per request kind kept for the checker self-test."""

    def __init__(self):
        super().__init__()
        self.samples = {}  # kind -> (request, stdout)

    def failed(self, keys: list[str]) -> int:
        return sum(self[key] is not None for key in keys)

    def messages(self) -> list[str]:
        return [message for message in self.values() if message is not None]


def check_answers(path: str, warm: list, timed: list) -> Verdicts:
    """Check every answer in a worker's log against its reference."""
    verdicts = Verdicts()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            answer = json.loads(line)
            index = answer["request"]
            request = warm[int(index[1:])] if isinstance(index, str) else timed[index]
            verdicts[answer["key"]] = score(request, answer["rc"], answer["out"], answer["err"])
            if verdicts[answer["key"]] is None:
                verdicts.samples.setdefault(request["kind"], (request, answer["out"]))
    return verdicts


def score(request: dict, rc, out: str, err: str) -> str | None:
    """None if the answer is correct, else why it is not."""
    try:
        workloads.check(request, rc, out)
    except (workloads.CheckFailed, ValueError, KeyError, TypeError) as exc:
        return f"{' '.join(request['argv'])}: {exc} {err.strip()}"
    return None


def self_test(samples: dict) -> dict:
    """Score a corrupted copy of one correct answer per request kind the same
    way as timed answers; every one must count as failed."""
    failed = sum(score(request, 0, workloads.corrupt(request, out), "") is not None for request, out in samples.values())
    return {"attempted": len(samples), "failed": failed}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate the inputs, time the workload and return the worker's result.

    Inputs live in a per-run directory removed afterwards, since the seed
    regenerates them; the spans of the latest traced run of each workload
    are kept in .perfbench/spans/.
    """
    work = os.path.join(WORK_DIR, f"run-{workload}-{seed}-{int(trace)}-{os.getpid()}")
    try:
        return _measure(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    os.makedirs(os.path.join(WORK_DIR, "spans"), exist_ok=True)
    # Inputs for a little more than one run at this commit; a faster program
    # goes round them again (signet caches nothing between requests).
    rounds = math.ceil(seconds / ROUND_SECONDS[workload]) + 1
    warm, timed = workloads.generate(workload, seed, os.path.join(work, "inputs"), rounds)
    manifest = {
        "warmup": warm,
        "requests": timed,
        "round_size": len(timed) // rounds,
        "seconds": seconds,
        "spans": os.path.join(WORK_DIR, "spans", f"{workload}.csv"),
    }
    timeout = 3 * seconds + 60
    setups, warmup_failed, messages = [], 0, []
    for i in range(0 if trace else SETUP_SAMPLES - 1):
        setup, verdicts = spawn(dict(manifest, mode="setup"), work, f"setup-{i}", timeout)
        setups.append((setup["scaled_setup_s"], setup["setup_s"]))
        warmup_failed += verdicts.failed(setup["warmup_keys"])
        messages += verdicts.messages()
    mode = "trace" if trace else "plain"
    result, verdicts = spawn(dict(manifest, mode=mode), work, mode, timeout)
    setups.append((result["scaled_setup_s"], result["setup_s"]))
    result["setup_samples"] = setups
    result["round_size"] = manifest["round_size"]
    result["warmup_failed"] = warmup_failed + verdicts.failed(result["warmup_keys"])
    result["failed"] = verdicts.failed(result["keys"] + result.get("untraced_keys", []))
    result["messages"] = (messages + verdicts.messages())[:5]
    result["self_test"] = self_test(verdicts.samples)
    return result


def report(workload: str, seed: int, seconds: float, trace: bool, result: dict) -> dict:
    lat = result["latencies"]
    attempted = len(lat) + len(result.get("untraced_latencies", []))
    q = TAIL_PERCENTILE[workload]
    failed = result["failed"]
    probe = result["self_test"]
    checks_bite = probe["attempted"] > 0 and probe["failed"] == probe["attempted"]
    correct = failed == 0 and result["warmup_failed"] == 0 and checks_bite
    env = dict(result["env"], seed=seed, commit=git_commit(os.getcwd()))
    print(f"signet benchmark  workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"requests {attempted} attempted, {failed} failed: error_rate {failed / attempted:.6g}")
    for message in result["messages"]:
        print(f"  FAIL {message}")
    print(
        f"checker self-test: {probe['attempted']} corrupted answers, {probe['failed']} counted as failed"
        f" (error_rate {probe['failed'] / max(probe['attempted'], 1):.6g})"
    )
    rounds = f"{len(lat)} requests in {len(lat) // result['round_size']} rounds"
    if trace:
        summary = result["trace"]
        correct = correct and summary["consistent"]
        print(
            f"trace: {summary['spans']} spans over {len(lat)} requests; self times sum to"
            f" {summary['self_sum_ms']:.3f} ms against {summary['latency_sum_ms']:.3f} ms of latency"
            f" ({'consistent' if summary['consistent'] else 'INCONSISTENT'})"
        )
        untraced = result["untraced_latencies"]
        summary["metrics"]["trace.overhead_ratio"] = (len(lat) / sum(lat)) / (len(untraced) / sum(untraced))
        values, notes, extra = summary["metrics"], {}, {}
    else:
        scaled = result["scaled_latencies"]
        values, raw = timings(scaled, q), timings(lat, q)
        values.update(
            ok_ratio=1.0 - failed / attempted,
            setup_s=statistics.median(scaled_s for scaled_s, _ in result["setup_samples"]),
            peak_rss_mb=result["peak_rss_mb"],
        )
        raw["setup_s"] = statistics.median(raw_s for _, raw_s in result["setup_samples"])
        probes = [probe_s for _, probe_s in result["probes"]]
        print(
            f"host-speed probe: {len(probes)} probes, median {statistics.median(probes) * 1e3:.2f} ms,"
            f" range {min(probes) * 1e3:.2f}-{max(probes) * 1e3:.2f} ms; timings are scaled to a probe of"
            f" {hostspeed.REFERENCE_S * 1e3:.2f} ms.  Unscaled: "
            + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
        )
        extra = {"unscaled": raw, "probes_ms": [probe_s * 1e3 for probe_s in probes]}
        beyond = sum(x > values["latency_tail_ms"] / 1e3 for x in scaled)
        notes = {
            "throughput_rps": rounds,
            "latency_p50_ms": rounds,
            "latency_tail_ms": f"p{q} of {len(lat)} requests, {beyond} beyond it",
            "setup_s": f"median of {len(result['setup_samples'])} fresh interpreters",
            "ok_ratio": f"1 - error_rate; error_rate = {failed}/{attempted}",
        }
    units = declared_units(trace)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not both measured and declared in {SPEC}")
    metrics = {name: (value, units[name]) for name, value in sorted(values.items())}
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    line = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    record = dict(line, workload=workload, seed=seed, seconds=seconds, trace=int(trace), env=env, **extra)
    with open(os.path.join(WORK_DIR, "results", f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return line


def timings(latencies: list[float], q: int) -> dict[str, float]:
    """Throughput, median and p`q` tail of one run's request latencies (seconds)."""
    return {
        "throughput_rps": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3,
    }


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="seconds of timed requests per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "signet", "cli.py")):
        print("perfbench: run from the root of a signet checkout (src/signet not found)", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    line = report(args.workload, args.seed, args.seconds, bool(args.trace), result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
