"""Steadiness command: run one workload N times and summarise the spread.

Usage (from the repository root)::

    python3 servebench/steady.py --workload irr-nra --runs 10 --seconds 16

Runs ``run.py`` once per seed (``--first-seed`` upward), one after the
other, and prints for every end-to-end metric its median, quartiles,
min/max and the quartile spread as a share of the median -- the figure
the bounds in ``BENCHMARK.json`` rest on.  ``--json`` also writes every
run's result to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args(argv)

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        record = json.loads(next(ln for ln in lines if ln.startswith("run "))[4:])
        result["seed"], result["wall_s"] = seed, wall
        result["steal_s"] = record.get("steal_s")
        results.append(result)
        print(f"seed {seed}: {wall:.1f} s, correct={result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed, "
              f"steal {result['steal_s']} s", flush=True)

    print(f"\n{args.workload}: {len(results)} runs of {args.seconds:g} s")
    print(f"{'metric':<34}{'median':>11}{'q1':>11}{'q3':>11}{'min':>11}"
          f"{'max':>11}{'iqr/med':>9}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<34}{med:>11.4g}{q1:>11.4g}{q3:>11.4g}{min(values):>11.4g}"
              f"{max(values):>11.4g}{spread:>9.1%}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}; "
          f"all correct: {all(r['correct'] for r in results)}; "
          f"mean wall {statistics.mean(r['wall_s'] for r in results):.1f} s")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
