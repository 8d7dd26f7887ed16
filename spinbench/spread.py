"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 spinbench/spread.py --workload audit-mix --seeds 1-10

Runs the command from BENCHMARK.json once per seed, in sequence, from the
repository root, with --trace 0.  Every result line, with the run's unscaled
times and CPU speed factor, goes to spinbench/results/<workload>-<time>.jsonl.
Prints per metric the median, the quartiles (statistics.quantiles, n=4) and
the interquartile distance as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-{int(time.time())}.jsonl"
    runs = []
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["unscaled"] = json.loads(lines[-2].removeprefix("unscaled: "))
        result["seed"] = seed
        result["run_s"] = time.monotonic() - start
        runs.append(result)
        with out.open("a") as fh:
            fh.write(json.dumps(result) + "\n")
        print(f"seed {seed}: {result['attempted']} attempted, {result['failed']} failed, "
              f"{result['run_s']:.1f} s", flush=True)
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median
        print(f"{name:16s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}  bound {metric['bound']}")
    print(f"results in {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
