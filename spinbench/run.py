"""Run one spinstar benchmark workload and print its metrics.

    python3 spinbench/run.py --workload trajectory-scan --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload runs in a fresh process
(`worker.py`), a single client in a closed loop calling
``spinstar.cli.main`` in-process; its outputs are checked against an
independent reference.  Further processes repeat only the set-up, and
``setup_s`` is the median over all of them.  With ``--trace 1`` the layer
functions are wrapped and the per-layer metrics are printed instead.  The
line before the last gives the unscaled times and the CPU speed factor; the
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

#: processes that set up per run; setup_s is their median
SETUP_SAMPLES = 5

#: beyond --seconds of timed rounds, the run's processes get this many seconds
#: for set-up, warm-up, the overrun of the last round and the checks
ALLOWANCE_S = 140.0


def spawn(args: argparse.Namespace, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("error: workload process ran past the deadline")
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"error: workload process exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "spinstar" / "cli.py").is_file():
        print(f"error: no spinstar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + args.seconds + ALLOWANCE_S

    result = spawn(args, deadline, setup_only=False)
    metrics = result["metrics"]
    unscaled = {name: result[f"raw_{name}"] for name in ("setup_s", "wall_s", "request_p50_ms")}
    unscaled["cpu_speed"] = result["cpu_speed"]
    if not args.trace:
        setups = [result] + [spawn(args, deadline, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
        metrics["setup_s"]["value"] = statistics.median(s["setup_s"] for s in setups)
        unscaled["setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)

    print(f"workload {args.workload} seed {args.seed}: {result['rounds']} rounds of "
          f"{result['requests_per_round']} requests, {result['points_per_round']} points each")
    print(f"requests attempted {result['attempted']}, failed {result['failed']}"
          f"{'; a failed request voids the times' if result['failed'] else ''}")
    if args.trace:
        # tracing overhead: this against wall_s of an untraced run
        print(f"median round {result['scaled_wall_s']:.6g} s, traced")
    if result["first_problem"]:
        print(f"first failure: {result['first_problem']}")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print("unscaled: " + json.dumps(unscaled))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
