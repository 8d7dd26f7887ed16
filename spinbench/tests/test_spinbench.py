"""Tests of the benchmark itself: whole rounds, failing checks, exact span counts.

    python3 -m pytest spinbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402  (puts the program's sources on the path)
import workloads  # noqa: E402

import spinstar.cli  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_one_whole_round_at_tiny_size(workload, tmp_path):
    result = worker.run(workload, seed=5, seconds=0.0, traced=False, scale=0.02, out_dir=tmp_path)
    assert result["first_problem"] is None
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["rounds"] == 1
    assert result["attempted"] == result["requests_per_round"] == len(workloads.build_round(workload, 5))
    assert set(result["metrics"]) == set(worker.END_TO_END)
    for name in ("wall_s", "points_per_s", "request_p50_ms", "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0.0


def test_a_failed_request_voids_the_run(monkeypatch, tmp_path):
    good = _first("audit-mix", "sweep")
    bad = workloads.Request("sweep", ("sweep", "--steps", "1"), {}, 1)
    monkeypatch.setattr(workloads, "build_round", lambda *args: [good, bad])
    monkeypatch.setattr(workloads, "warmup_round", lambda workload: [])
    result = worker.run("audit-mix", seed=1, seconds=0.0, traced=False, out_dir=tmp_path)
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["correct"] is False


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert declared == worker.END_TO_END
    assert list(declared) == list(worker.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.metric_names()


def test_rounds_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.build_round(workload, 7) == workloads.build_round(workload, 7)
        assert workloads.build_round(workload, 7) != workloads.build_round(workload, 8)
        slots = sorted((r.kind, r.points) for r in workloads.build_round(workload, 7))
        assert slots == sorted((r.kind, r.points) for r in workloads.build_round(workload, 8))


def _output(request, tmp_path):
    path = tmp_path / "out.txt"
    code, err = worker.call(request, path)
    assert code == 0, err
    assert worker.problems_of(request, path, code, err) == []
    return path


def _first(workload, kind, seed=2):
    return next(r for r in workloads.build_round(workload, seed, scale=0.02) if r.kind == kind)


def _change_digit(line: str, column: int, offset: int) -> str:
    """Replace the digit `offset` places after the decimal point of one column
    (the leading digit of an integer)."""
    fields = line.split(",")
    text = fields[column]
    at = text.index(".") + offset if "." in text else 0
    fields[column] = text[:at] + ("1" if text[at] != "1" else "2") + text[at + 1:]
    return ",".join(fields)


SWEEP = workloads.Request(
    "sweep",
    ("sweep", "--p", "0.3", "--alpha", "0.4", "--beta", "1.1", "--env-spins", "7",
     "--t-max", "10", "--steps", "60", "--log-base", "e"),
    {"p": 0.3, "alpha": 0.4, "beta": 1.1, "coupling": 1.0, "env_spins": 7, "t_max": 10.0,
     "steps": 60, "log_base": "e"},
    60,
)


@pytest.mark.parametrize("column", [0, 1, 2, 3, 4, 5])
def test_one_changed_sweep_digit_fails_the_check(column, tmp_path):
    request = SWEEP
    lines = _output(request, tmp_path).read_text().splitlines()
    row = 41  # every column non-zero here, with at least five decimals
    lines[row] = _change_digit(lines[row], column, 4)
    assert reference.check_sweep("\n".join(lines) + "\n", request.spec) != []


@pytest.mark.parametrize("column", [0, 1, 2, 3])
def test_one_changed_hidden_digit_fails_the_check(column, tmp_path):
    request = _first("trajectory-scan", "hidden")
    lines = _output(request, tmp_path).read_text().splitlines()
    lines[-1] = _change_digit(lines[-1], column, 4)
    assert reference.check_hidden("\n".join(lines) + "\n", request.spec) != []


def test_wrong_markov_verdict_fails_the_check(tmp_path):
    request = workloads.Request("markov-check", ("markov-check", "--scenario", "w-state"),
                                {"scenario": "w-state"}, 1)
    text = _output(request, tmp_path).read_text()
    flipped = text.replace("verdict: non-markov", "verdict: markov")
    assert flipped != text
    assert reference.check_markov(flipped, request.spec) != []
    shifted = text.replace("-2.06011", "-2.06111")
    assert shifted != text
    assert reference.check_markov(shifted, request.spec) != []


def test_kraus_residual_beyond_its_bound_fails_the_check(tmp_path):
    request = _first("audit-mix", "kraus-check")
    lines = _output(request, tmp_path).read_text().splitlines()
    assert lines[-1] == "PASS"
    lines[1] = lines[1].split(":")[0] + ": 2.000e-09  [tol 1e-09]"
    assert reference.check_kraus("\n".join(lines), request.spec) != []


def test_non_zero_exit_is_a_failed_request(tmp_path):
    request = workloads.Request("sweep", ("sweep", "--steps", "1"), {}, 1)
    path = tmp_path / "out.csv"
    code, err = worker.call(request, path)
    assert code == 2
    assert worker.problems_of(request, path, code, err) != []


def test_traced_sweep_gives_exact_counts(tmp_path):
    request = workloads.Request(
        "sweep", ("sweep", "--large-n", "--steps", "50", "--log-base", "2"),
        {"p": 0.5, "alpha": 0.7853981633974483, "beta": 0.7853981633974483, "coupling": 1.0,
         "env_spins": workloads.LARGE_N, "t_max": 12.566370614359172, "steps": 50,
         "log_base": "2"},
        50,
    )
    original = spinstar.cli.evolve_sector
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spinstar.cli.evolve_sector is not original
        tracer.active = True
        _output(request, tmp_path)
        tracer.active = False
        counts = tracer.take_round()
    finally:
        tracer.uninstall()
    assert spinstar.cli.evolve_sector is original
    assert counts["cli.requests"] == 1
    for layer in ("model.evolve_sector", "model.sector_unitary", "model.closed_form",
                  "entanglement.concurrence_2q", "states.mutual_information"):
        assert counts[f"{layer}.calls"] == 50, layer
    assert counts["states.entropy.calls"] == 150
    assert counts["model.oracle_setup.calls"] == 0
    assert counts["linalg.herm_eig.max_dim"] == 4
    assert all(counts[name] >= 0.0 for name, unit in spans.metric_names() if unit == "ms")
    assert set(counts) == {name for name, _ in spans.metric_names()} - {"cli.output_bytes"}


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "spinbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "audit-mix", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
