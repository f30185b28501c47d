"""Run one workload on several seeds and print each metric's quartile spread.

    python3 perfbench/steadiness.py --workload build-emit --seeds 1-10 --seconds 20

Runs are plain (``--trace 0``), so the metrics are the end-to-end ones.
Spread is (Q3 - Q1) / median over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``; BENCHMARK.json bounds each
end-to-end metric's spread.  Every run's JSON result line is printed too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", default="20")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    values: dict[str, list[float]] = {}
    for seed in range(int(first), int(last or first) + 1):
        command = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", "0"]
        line = subprocess.run(command, capture_output=True, text=True, check=True).stdout.splitlines()[-1]
        print(json.dumps({"seed": seed, "result": json.loads(line)}), flush=True)
        for name, metric in json.loads(line)["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, xs in values.items():
        q1, _, q3 = statistics.quantiles(xs, n=4)
        median = statistics.median(xs)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:28s} median {median:12.6g}  Q1 {q1:12.6g}  Q3 {q3:12.6g}  spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
