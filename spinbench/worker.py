"""One workload in one process: set up, run timed rounds, check every output.

Run by `run.py`; prints one JSON object as its last line.  Each request is a
call to ``spinstar.cli.main(argv)`` in this process, whose output goes to a
file that is checked against `reference` after the round.  A round's time
is the sum of its requests' latencies; checks and calibrations run outside
them.  Rounds repeat until their summed time reaches --seconds.

Reported times are scaled to a reference CPU speed.  The CPU of a shared
machine runs at a speed that changes by tens of percent for minutes at a
time, so the process also times a fixed calibration kernel that does not
touch spinstar, before and after every block of requests that lasts at
least CAL_EVERY_S, and multiplies each request's latency by CAL_REF_S over
the median kernel time around its block.  The kernel is work like the
workload's own (ROUND_KERNEL).  A slower spinstar still reads slower; a
slower CPU does not.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC_DIR))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402
import spinstar.cli  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

if Path(spinstar.cli.__file__).resolve().parent != SRC_DIR / "spinstar":
    raise SystemExit(f"spinstar was imported from {spinstar.cli.__file__}, not from {SRC_DIR}")

#: calibration kernel time at the reference CPU speed
CAL_REF_S = 0.005

#: a block of requests between two calibrations lasts at least this many seconds
CAL_EVERY_S = 1.0

#: kernel runs per calibration
CAL_REPEATS = 5

_CAL_MATRIX = np.eye(4) + 0.1
# symmetric with a spread-out spectrum, and needs no numpy.random, whose
# import would add 6 MB to every workload's peak RSS
_CAL_DENSE = np.sin(np.outer(np.arange(1.0, 201.0), np.arange(1.0, 201.0)))


def interpreter_kernel_s() -> float:
    """Time of a fixed mix of interpreter work and small numpy calls."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    for _ in range(120):
        np.linalg.eigvalsh(_CAL_MATRIX)
    return time.perf_counter() - start


def dense_kernel_s() -> float:
    """Time of one dense 200 x 200 eigensolve, threaded as BLAS is set up."""
    start = time.perf_counter()
    np.linalg.eigh(_CAL_DENSE)
    return time.perf_counter() - start


#: kernel that each workload's requests are scaled by.  The oracle's time is
#: dense threaded eigensolves, which slow by about half as much as the
#: interpreter when the CPU slows; the other two are interpreter work and
#: 4 x 4 numpy calls.  Set-up, mostly imports, always uses the interpreter one.
ROUND_KERNEL = {
    "trajectory-scan": interpreter_kernel_s,
    "oracle-crosscheck": dense_kernel_s,
    "audit-mix": interpreter_kernel_s,
}


def calibrate(kernel) -> list[float]:
    return [kernel() for _ in range(CAL_REPEATS)]


def speed_of(kernel_times: list[float]) -> float:
    """CPU speed as a share of the reference speed."""
    return CAL_REF_S / statistics.median(kernel_times)


#: end-to-end metrics and their units
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "points/s",
    "request_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def call(request: workloads.Request, path: Path) -> tuple[object, str]:
    """Run one request; its CSV or report goes to path.  Returns (exit code, stderr)."""
    argv = list(request.argv)
    err = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stderr(err))
        if request.kind in ("sweep", "hidden"):
            argv += ["--output", str(path)]
        else:
            fh = stack.enter_context(open(path, "w", encoding="utf-8"))
            stack.enter_context(contextlib.redirect_stdout(fh))
        try:
            code = spinstar.cli.main(argv)
        except Exception as exc:  # a traceback is a failed request, not a benchmark crash
            code = f"{type(exc).__name__}: {exc}"
    return code, err.getvalue()


def problems_of(request: workloads.Request, path: Path, code: object, err: str) -> list[str]:
    if code != 0:
        return [f"exit {code!r}: {err.strip()[-300:]}"]
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [f"no output: {exc}"]
    return reference.CHECKS[request.kind](text, request.spec)


def run(workload: str, seed: int, seconds: float, traced: bool, scale: float = 1.0,
        t0: float | None = None, setup_only: bool = False, out_dir: Path | None = None) -> dict:
    """Set up, then run whole rounds for `seconds` of timed work (at least one round)."""
    rounds_spec = workloads.build_round(workload, seed, scale)
    warmup = workloads.warmup_round(workload)
    out_dir = out_dir or BENCH_DIR.parent / ".spinbench_out" / f"{workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"request-{i}.out" for i in range(len(rounds_spec))]
    tracer = spans.Tracer() if traced else None
    try:
        if tracer is not None:
            tracer.install()
        for request in warmup:
            call(request, out_dir / "warmup.out")
        setup_s = time.monotonic() - t0 if t0 is not None else float("nan")
        setup_speed = speed_of(calibrate(interpreter_kernel_s))
        if setup_only:
            return {"setup_s": setup_s * setup_speed, "raw_setup_s": setup_s}
        kernel = ROUND_KERNEL[workload]
        before = calibrate(kernel)
        walls, latencies, layer_rounds = [], [], []
        scaled_latencies, speeds = [], []

        def scale_block(before: list[float]) -> list[float]:
            """Scale the latencies since the last calibration by the kernel around them."""
            after = calibrate(kernel)
            speeds.append(speed_of(before + after))
            scaled_latencies.extend(t * speeds[-1] for t in latencies[len(scaled_latencies):])
            return after

        attempted = failed = output_bytes = 0
        first_problem = None
        while not walls or sum(walls) < seconds:
            for path in paths:
                path.unlink(missing_ok=True)
            results = []
            for i, (request, path) in enumerate(zip(rounds_spec, paths)):
                if tracer is not None:
                    tracer.request = i
                    tracer.active = True
                start = time.perf_counter()
                results.append(call(request, path))
                latencies.append(time.perf_counter() - start)
                if tracer is not None:
                    tracer.active = False
                if sum(latencies[len(scaled_latencies):]) >= CAL_EVERY_S:
                    before = scale_block(before)
            walls.append(sum(latencies[-len(rounds_spec):]))
            for request, path, (code, err) in zip(rounds_spec, paths, results):
                attempted += 1
                problems = problems_of(request, path, code, err)
                if problems:
                    failed += 1
                    first_problem = first_problem or f"{' '.join(request.argv)}: {problems[0]}"
                if path.exists():
                    output_bytes += path.stat().st_size
            if tracer is not None:
                layer_rounds.append(tracer.take_round())
        if len(scaled_latencies) < len(latencies):
            scale_block(before)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)

    n = len(rounds_spec)
    scaled_walls = [sum(scaled_latencies[k:k + n]) for k in range(0, len(scaled_latencies), n)]
    points = sum(r.points for r in rounds_spec)
    if tracer is None:
        values = {
            "setup_s": setup_s * setup_speed,
            "wall_s": statistics.median(scaled_walls),
            "points_per_s": points * len(walls) / sum(scaled_walls),
            "request_p50_ms": 1e3 * statistics.median(scaled_latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        # counts repeat exactly from round to round; times are medians over rounds
        values = {"cli.output_bytes": output_bytes // len(walls)}
        for name in layer_rounds[0]:
            per_round = [r[name] for r in layer_rounds]
            values[name] = statistics.median(per_round) if name.endswith("_ms") else max(per_round)
        units = dict(spans.metric_names())
    # no request of any workload is expected to fail, and a request that fails
    # early would shorten the round, so a failure voids the run's times
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "rounds": len(walls),
        "requests_per_round": len(rounds_spec),
        "points_per_round": points,
        "first_problem": first_problem,
        "setup_s": setup_s * setup_speed,
        "raw_setup_s": setup_s,
        "scaled_wall_s": statistics.median(scaled_walls),
        "raw_wall_s": statistics.median(walls),
        "raw_request_p50_ms": 1e3 * statistics.median(latencies),
        "cpu_speed": statistics.median(speeds),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 t0=args.t0, setup_only=args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
