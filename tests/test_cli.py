"""End-to-end tests of the command-line interface through main(argv)."""

import itertools
import math
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinstar import channels, cli, entanglement, states
from spinstar.cli import (
    EXIT_CHECK,
    EXIT_OK,
    EXIT_USAGE,
    HIDDEN_HEADER,
    MAX_STEPS,
    SWEEP_HEADER,
    main,
)
from spinstar.model import (
    ENV_LEVELS,
    MAX_BATH_SPINS,
    SpinStarParams,
    build_initial_state,
    concurrence_closed_form,
    evolve_sector,
    mi_closed_form,
)


#: ceiling on the peak resident set of `hidden --steps MAX_STEPS`, in MB: the
#: per-point route peaked at 75.0 MB and the batched one at 72.5 MB, both with
#: one BLAS thread on a 2-core x86-64 Linux VM (Python 3.11, numpy 2.4.6,
#: OpenBLAS).  Read as VmHWM, the batched one peaked at 64-69 MB with one
#: record per sample, and at 52.6-52.8 MB once the CSV is written straight
#: from the dial's columns.  About 30 MB of it is the interpreter and numpy,
#: so the margin holds for this configuration only
HIDDEN_PEAK_RSS_MB = 60

#: ceiling on the peak resident set of ORACLE_RSS_ARGV, in MB, measured as for
#: HIDDEN_PEAK_RSS_MB: 36.1-36.2 MB in batches of `states.PAIR_BATCH` points,
#: and 81.5 MB with the whole grid in one stack
ORACLE_PEAK_RSS_MB = 41

#: an oracle grid long enough that unbatched stacks would show in the peak
ORACLE_RSS_ARGV = ("sweep", "--oracle", "--env-spins", "22", "--steps", "8000")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def in_fresh_interpreter(argv, report):
    """Run main(argv) in a fresh interpreter with one BLAS thread; the last
    line of its stdout, which the statement `report` prints after the run."""
    script = "import sys\nfrom spinstar.cli import main\ncode = main(sys.argv[1:])\n" + report
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        # BLAS thread buffers grow with the core count; one thread keeps
        # the peak a property of this code rather than of the runner
        **{k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    proc = subprocess.run(
        [sys.executable, "-c", script + "sys.exit(code)\n", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    return proc.stdout.splitlines()[-1]


def peak_rss_mb(argv, target):
    """Run `argv` with --output target in a fresh interpreter; its peak RSS in MB.

    The interpreter reads its own VmHWM on Linux.  Its ru_maxrss would not
    do: exec carries over the peak of the process that spawned it, so the
    reading would include this test run.
    """
    report = (
        "with open('/proc/self/status') as fh:\n"
        "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
    )
    return int(in_fresh_interpreter((*argv, "--output", str(target)), report)) / 1024


def corrupt_rows(monkeypatch, name, rows):
    """Shift the numeric concurrence of the k-th given grid row by k * 1e-5.

    `cli.<name>` is patched whether it returns one value per call or a
    stack; the shifted values are returned by row.
    """
    original = getattr(cli, name)
    shifted = {}
    done = 0

    def corrupted(*args):
        nonlocal done
        result = original(*args)
        values = np.array(result, dtype=float, ndmin=1)
        for k, row in enumerate(rows, start=1):
            if done <= row < done + values.size:
                values[row - done] += k * 1e-5
                shifted[row] = float(values[row - done])
        done += values.size
        return values if np.ndim(result) else float(values[0])

    monkeypatch.setattr(cli, name, corrupted)
    return shifted


class TestSweep:
    def test_header_and_first_row(self, capsys):
        code, out, _ = run(capsys, "sweep", "--steps", "5", "--t-max", "3.14")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0  # closed form starts at zero
        assert float(first[2]) == 0.0  # numeric agrees
        assert float(first[4]) == 1.0  # whole-cut concurrence at the default point
        assert float(first[5]) == 1.0  # all of it initially out of reach

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "sweep", "--steps", "50")
        _, second, _ = run(capsys, "sweep", "--steps", "50")
        assert first == second

    def test_single_branch_product_state_sweeps_flat(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--p", "0", "--beta", "0", "--steps", "20", "--t-max", "6.0"
        )
        assert code == EXIT_OK
        for line in out.strip().splitlines()[1:]:
            fields = line.split(",")
            assert float(fields[1]) == 0.0
            assert float(fields[2]) == 0.0
            assert float(fields[4]) == 0.0
            assert float(fields[5]) == 0.0

    def test_oracle_mode_with_finite_bath(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--oracle",
            "--env-spins",
            "2",
            "--steps",
            "5",
            "--t-max",
            "2.0",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == SWEEP_HEADER

    def test_oracle_long_grid_within_its_phase_bound(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--env-spins", "6", "--oracle", "--steps", "50", "--t-max", "1e8"
        )
        assert code == EXIT_OK
        assert err == ""
        assert len(out.splitlines()) == 51

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--steps", "4", "--t-max", "1.0", "--output", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        text = target.read_text()
        assert text.startswith(SWEEP_HEADER + "\n")
        assert text.endswith("\n")
        assert len(text.strip().splitlines()) == 5

    def test_svg_plot(self, capsys, tmp_path):
        target = tmp_path / "sweep.svg"
        code, _, _ = run(
            capsys,
            "sweep",
            "--steps",
            "16",
            "--t-max",
            "6.0",
            "--output",
            str(tmp_path / "sweep.csv"),
            "--svg",
            str(target),
        )
        assert code == EXIT_OK
        text = target.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 3

    def test_only_the_initial_state_is_larger_than_the_pair(self, capsys, monkeypatch):
        """The (A, B, E) initial state, then the pair and its two marginals per point."""
        dims = []
        original = states.DensityMatrix.__init__

        def counted(self, *args, **kwargs):
            original(self, *args, **kwargs)
            dims.append(self.dim)

        monkeypatch.setattr(states.DensityMatrix, "__init__", counted)
        code, _, _ = run(capsys, "sweep", "--steps", "10")
        assert code == EXIT_OK
        assert len(dims) == 1 + 3 * 10
        assert [d for d in dims if d > 4] == [16]

    @pytest.mark.xfail(
        strict=True,
        reason="the pair's smallest eigenvalue sits just under RANK_TOL, which "
        "entanglement._spin_flip_stack drops although its amplitude moves the concurrence",
    )
    def test_tiny_p_passes_the_consistency_check(self, capsys):
        """Fails at omega*t = 1.08125: closed form 0.470225712007 vs numeric
        0.47022687488, the defect `test_concurrence_near_rank_tol_matches_closed_form`
        pins at one row."""
        code, _, err = run(capsys, "sweep", "--p", "1e-9")
        assert code == EXIT_OK, err

    @pytest.mark.xfail(
        strict=True,
        reason="the oracle pair's smallest eigenvalue sits just under RANK_TOL, which "
        "entanglement._spin_flip_stack drops although its amplitude moves the concurrence",
    )
    def test_tiny_p_oracle_passes_the_consistency_check(self, capsys):
        """Fails at omega*t = 1.18812 on c_numeric: 0.373408183146 against the
        closed form 0.373407099608; the mi column stays within its bound."""
        code, _, err = run(capsys, "sweep", "--p", "1e-9", "--oracle", "--env-spins", "6")
        assert code == EXIT_OK, err

    @pytest.mark.parametrize(
        "name, flags", [("concurrence_2q", ()), ("concurrence_2q_eig", ("--oracle",))]
    )
    def test_first_inconsistent_row_exits_3(self, capsys, monkeypatch, name, flags):
        """Rows past the oracle's first batch are shifted off the closed form,
        the later one further; the first one is reported, and nothing is written."""
        first = states.PAIR_BATCH + 3
        shifted = corrupt_rows(monkeypatch, name, [first, first + 2])
        steps, t_max = states.PAIR_BATCH + 10, 7.0
        code, out, err = run(
            capsys, "sweep", "--env-spins", "2", "--steps", str(steps), "--t-max", str(t_max),
            *flags,
        )
        assert code == EXIT_CHECK
        assert out == ""
        params = SpinStarParams(env_spins=2)
        omega_t = np.linspace(0.0, t_max, steps)[first]
        closed = concurrence_closed_form(params, omega_t / params.omega)
        assert err == (
            f"consistency failure at omega*t={omega_t:.6g}: c_numeric {shifted[first]:.17g} "
            f"vs closed form {closed:.17g}, gap {abs(shifted[first] - closed):.1e} exceeds 1e-06\n"
        )

    def test_mi_off_its_closed_form_exits_3(self, capsys, monkeypatch):
        """A sector mi scaled by 1 + 1e-9 is caught at its first row, and nothing is written."""
        original = cli.mutual_information
        monkeypatch.setattr(
            cli, "mutual_information", lambda *args: original(*args) * (1.0 + 1e-9)
        )
        code, out, err = run(capsys, "sweep", "--steps", "50", "--log-base", "2")
        assert code == EXIT_CHECK
        assert out == ""
        params = SpinStarParams()
        closed = mi_closed_form(params, [0.0], 2)[0]
        pair = evolve_sector(build_initial_state(params), 0.0, params)
        scaled = original(pair, (("A",), ("B",)), 2) * (1.0 + 1e-9)
        assert err == (
            f"consistency failure at omega*t=0: mi {scaled:.17g} vs closed form {closed:.17g}, "
            f"gap {abs(scaled - closed):.1e} exceeds 1e-12\n"
        )

    def test_nan_concurrence_fails_the_check(self, capsys, monkeypatch):
        """A NaN c_numeric is a gap past its bound, reported at its row before
        any output is made from it."""
        row = 700
        original = cli.concurrence_2q
        calls = itertools.count()
        monkeypatch.setattr(
            cli, "concurrence_2q", lambda rho: math.nan if next(calls) == row else original(rho)
        )
        code, out, err = run(capsys, "sweep")
        assert code == EXIT_CHECK
        assert out == ""
        params = SpinStarParams()
        omega_t = np.linspace(0.0, 4.0 * math.pi, 2000)[row]
        closed = concurrence_closed_form(params, omega_t / params.omega)
        assert err == (
            f"consistency failure at omega*t={omega_t:.6g}: c_numeric nan vs closed form "
            f"{closed:.17g}, gap nan exceeds 1e-06\n"
        )

    def test_oracle_mi_off_its_closed_form_exits_3(self, capsys, monkeypatch):
        """An oracle mi scaled by 1 + 1e-9 is caught at its first row.  Its bound
        is 1e-12 plus 16 eps times the run's largest rotation angle, 17.8."""
        original = cli.mutual_information_stack
        scaled = []

        def corrupted(*args):
            scaled.append(original(*args) * (1.0 + 1e-9))
            return scaled[-1]

        monkeypatch.setattr(cli, "mutual_information_stack", corrupted)
        code, out, err = run(capsys, "sweep", "--oracle", "--env-spins", "6", "--steps", "50")
        assert code == EXIT_CHECK
        assert out == ""
        first = scaled[0][0]
        closed = mi_closed_form(SpinStarParams(env_spins=6), [0.0], 10)[0]
        assert err == (
            f"consistency failure at omega*t=0: mi {first:.17g} vs closed form {closed:.17g}, "
            f"gap {abs(first - closed):.1e} exceeds 1.06e-12\n"
        )

    @pytest.mark.parametrize("t_max", [repr(4.0 * math.pi), "1e6"])
    @pytest.mark.parametrize("p", ["0", "0.5", "1"])
    @pytest.mark.parametrize("env_spins", ["2", "10"])
    def test_oracle_edge_grid_passes_both_checks(self, capsys, env_spins, p, t_max):
        """Single branches and product-state angles, where the pair spectrum
        has zeros and the entropies are steepest, and long times, where the
        oracle's phase error is largest, stay within both bounds."""
        angles = ("0", repr(math.pi / 4.0), repr(math.pi / 2.0))
        for alpha, beta in itertools.product(angles, repeat=2):
            code, _, err = run(
                capsys, "sweep", "--oracle", "--env-spins", env_spins, "--p", p,
                "--alpha", alpha, "--beta", beta, "--t-max", t_max, "--steps", "300",
            )
            assert (code, err) == (EXIT_OK, ""), (alpha, beta)

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_largest_oracle_bath_on_a_long_grid(self, p):
        """At the oracle cap, 2000 points up to omega*t = 1e3: c_numeric stays
        within 1e-12 of the closed form, and mi within the oracle's bound."""
        params = SpinStarParams(env_spins=MAX_BATH_SPINS, p=p)
        grid = np.linspace(0.0, 1e3, 2000)
        times = grid / params.omega
        c_numeric, mi = cli._oracle_columns(cli.BruteForceEvolver(params), times, 10.0)
        closed = [concurrence_closed_form(params, t) for t in times.tolist()]
        assert np.max(np.abs(c_numeric - closed)) <= 1e-12
        angle = cli._check_angles(params, grid[-1], ENV_LEVELS - 2)
        mi_tol = cli.SWEEP_MI_TOL + 16 * sys.float_info.epsilon * angle
        assert np.max(np.abs(mi - mi_closed_form(params, times, 10.0))) <= mi_tol

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads VmHWM, which only Linux reports"
    )
    def test_long_oracle_grid_stays_under_its_memory_ceiling(self, tmp_path):
        target = tmp_path / "oracle.csv"
        peak_mb = peak_rss_mb(ORACLE_RSS_ARGV, target)
        assert len(target.read_text().splitlines()) == int(ORACLE_RSS_ARGV[-1]) + 1
        assert peak_mb < ORACLE_PEAK_RSS_MB

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--steps", "1"),
            ("sweep", "--t-max", "-1.0"),
            ("sweep", "--large-n", "--env-spins", "2"),
            ("sweep", "--oracle"),
            ("sweep", "--p", "1.5"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert "error" in err


#: numpy subpackages that no subcommand computes with; importing them raised
#: a run's peak RSS by 5.3-6.1 MB (numpy.random) and 1.3 MB (numpy.ma)
UNUSED_NUMPY = ("numpy.random", "numpy.ma")


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep",),
        ("sweep", "--oracle", "--env-spins", "6"),
        ("hidden",),
        ("kraus-check",),
        ("kraus-check", "--t", "1.3"),
        *(
            ("markov-check", "--scenario", s)
            for s in ("eq-mixture", "w-state", "factorized", "custom-markov")
        ),
    ],
    ids=" ".join,
)
def test_subcommand_loads_only_the_numpy_it_computes_with(argv):
    report = f"print(*[m for m in {UNUSED_NUMPY!r} if m in sys.modules])\n"
    assert in_fresh_interpreter(argv, report) == ""


def eigensolves(monkeypatch, capsys, *argv) -> list[tuple[str, tuple[int, ...]]]:
    """(solver, input shape) of each `numpy.linalg` eigensolver call of a successful run."""
    solves = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):

        def counted(mat, *args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            solves.append((_name, np.shape(mat)))
            return _solver(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    code, _, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    return solves


def test_oracle_sweep_solves_each_pair_stack_once(monkeypatch, capsys):
    """One eigh per batch of pair states validates them and gives both their
    concurrences and their joint entropies; only the 2x2 marginals are solved apart."""
    argv = ("sweep", "--env-spins", "10", "--oracle", "--steps", "600")
    solves = eigensolves(monkeypatch, capsys, *argv)
    sizes = (256, 256, 88)
    assert [shape for name, shape in solves if name == "eigh"] == [(n, 4, 4) for n in sizes]
    assert [shape for name, shape in solves if name != "eigh"] == [(n, 2, 2, 2) for n in sizes]


def test_hidden_solves_each_member_and_mixture_stack_once(monkeypatch, capsys):
    """The initial state is solved by its construction and by its concurrence;
    each batch's members, then its mixtures, by the one eigh that validates them."""
    solves = eigensolves(monkeypatch, capsys, "hidden", "--steps", "600")
    stacks = [(n, 2, 4, 4) if k == 0 else (n, 4, 4) for n in (256, 256, 88) for k in (0, 1)]
    assert solves == [("eigvalsh", (4, 4)), ("eigh", (4, 4))] + [("eigh", s) for s in stacks]


class TestKrausCheck:
    def test_default_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "kraus-check")
        assert code == EXIT_OK
        assert "completeness residual (max)" in out
        assert "choi min eigenvalue (min)" in out
        assert "channel vs traced evolution (max dev)" in out
        assert out.strip().endswith("PASS")

    @pytest.mark.parametrize("seed", [None, 0, 7, 2**64])
    def test_seed_draws_ten_sorted_times(self, capsys, seed):
        """The check times are ten sorted uniform draws in [0, 4 pi] from
        random.Random(seed), and the seed defaults to 0."""
        code, out, _ = run(capsys, "kraus-check", *(() if seed is None else ("--seed", str(seed))))
        assert code == EXIT_OK
        label, line = out.splitlines()[0].split(": ")
        times = [float(v) for v in line.split()]
        assert label == "times (omega*t)"
        assert len(times) == 10 and times == sorted(times)
        assert all(0.0 <= v <= 4.0 * math.pi for v in times)
        rng = random.Random(0 if seed is None else seed)
        expected = sorted(rng.uniform(0.0, 4.0 * math.pi) for _ in range(10))
        assert line == " ".join(f"{v:.12g}" for v in expected)

    def test_seed_fixes_the_report(self, capsys):
        default = run(capsys, "kraus-check")
        assert run(capsys, "kraus-check", "--seed", "0") == default
        seven = run(capsys, "kraus-check", "--seed", "7")
        assert run(capsys, "kraus-check", "--seed", "7") == seven
        assert seven[1] != default[1]

    def test_time_zero(self, capsys):
        code, out, _ = run(capsys, "kraus-check", "--t", "0")
        assert code == EXIT_OK
        assert out.strip().endswith("PASS")

    def test_finite_bath_off_symmetric_point(self, capsys):
        code, out, _ = run(
            capsys, "kraus-check", "--t", "2.2", "--alpha", "0.9", "--env-spins", "4"
        )
        assert code == EXIT_OK
        assert out.strip().endswith("PASS")

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "kraus-check", "--large-n", "--env-spins", "3")
        assert code == EXIT_USAGE
        assert "error" in err


class TestMarkovCheck:
    @pytest.mark.parametrize(
        "scenario,verdict",
        [
            ("eq-mixture", "non-markov"),
            ("w-state", "non-markov"),
            ("factorized", "markov"),
            ("custom-markov", "markov"),
        ],
    )
    def test_scenarios(self, capsys, scenario, verdict):
        code, out, _ = run(capsys, "markov-check", "--scenario", scenario)
        assert code == EXIT_OK
        assert f"verdict: {verdict}" in out
        assert f"expected: {verdict}" in out
        assert out.strip().endswith("PASS")

    @pytest.mark.parametrize(
        "flags",
        [
            ("--p", "0"),
            ("--p", "1"),
            ("--alpha", "0", "--beta", "0"),
            ("--alpha", "1.5707963267948966", "--beta", "1.5707963267948966"),
            ("--p", "1e-9"),
        ],
    )
    def test_eq_mixture_expects_markov_where_it_is(self, capsys, flags):
        """A single branch, two product-state branches, or a tiny p leave
        I(A:E|B) at or under CMI_TOL, so the expected verdict is markov."""
        code, out, _ = run(capsys, "markov-check", "--scenario", "eq-mixture", *flags)
        assert code == EXIT_OK
        assert "verdict: markov\n" in out
        assert "expected: markov\n" in out
        assert out.strip().endswith("PASS")

    def test_w_state_witness_line(self, capsys):
        _, out, _ = run(capsys, "markov-check", "--scenario", "w-state")
        assert "certifies non-markov" in out

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys, "markov-check", "--scenario", "bogus")
        assert code == EXIT_USAGE


class TestHidden:
    def test_phase_dial_profile(self, capsys):
        code, out, _ = run(capsys, "hidden", "--steps", "9", "--t-max", str(math.pi))
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == HIDDEN_HEADER
        assert len(lines) == 10
        quarter = lines[5].split(",")  # omega*t = pi/2
        assert float(quarter[1]) == pytest.approx(0.0, abs=1e-12)
        assert float(quarter[2]) == pytest.approx(1.0, abs=1e-12)
        assert float(quarter[3]) == pytest.approx(1.0, abs=1e-12)
        last = lines[-1].split(",")  # omega*t = pi: full revival
        assert float(last[1]) == pytest.approx(1.0, abs=1e-12)
        assert float(last[3]) == pytest.approx(0.0, abs=1e-12)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "hidden.csv"
        code, out, _ = run(
            capsys, "hidden", "--steps", "4", "--t-max", "1.0", "--output", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith(HIDDEN_HEADER + "\n")

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "hidden", "--steps", "0")
        assert code == EXIT_USAGE

    def test_each_concurrence_is_computed_once(self, capsys, monkeypatch):
        """One for the initial state, then two branches and the mixture per point."""
        matrices = []
        original = entanglement._spin_flip_stack

        def counted(vals, vecs):
            matrices.append(vals[..., 0].size)
            return original(vals, vecs)

        # the kernel behind both concurrence_2q and concurrence_2q_eig
        monkeypatch.setattr(entanglement, "_spin_flip_stack", counted)
        code, _, _ = run(capsys, "hidden", "--steps", "10")
        assert code == EXIT_OK
        assert sum(matrices) == 1 + 3 * 10

    def run_failing(self, capsys):
        code, out, err = run(capsys, "hidden", "--steps", "3", "--t-max", str(math.pi))
        assert code == EXIT_CHECK
        assert out == ""
        return err

    def test_ensemble_drift_exits_3(self, capsys, monkeypatch):
        # the initial state reads 0.5 while both branches stay at 1
        monkeypatch.setattr(channels, "concurrence_2q", lambda rho: 0.5)
        assert self.run_failing(capsys) == (
            "consistency failure: ensemble concurrence drifted to 1 from 0.5 at t=0.0\n"
        )

    def test_convexity_violation_exits_3(self, capsys, monkeypatch):
        # a stand-in measure that reads 1 on the pure branches and grows with
        # mixedness: at omega*t = pi/2 the mixture has purity 1/2 and reads 2
        def rises_when_mixed(vals, vecs):
            purity = (vals**2).sum(axis=-1)
            return 1.0 + 2.0 * (1.0 - purity)

        monkeypatch.setattr(entanglement, "concurrence_2q_eig", rises_when_mixed)
        err = self.run_failing(capsys)
        assert err.startswith("consistency failure: hidden entanglement -1.000e+00 below -1e-9")
        assert "convexity violated" in err

    def test_mixture_above_its_start_exits_3(self, capsys, monkeypatch):
        columns = tuple(np.array(c) for c in ([0.0, 1.0], [0.5, 0.9], [1.0, 1.0], [0.5, 0.1]))
        monkeypatch.setattr(cli, "ruc_columns", lambda rho0, grid: columns)
        assert self.run_failing(capsys) == (
            "consistency failure: mixture concurrence 0.9 exceeds initial 0.5\n"
        )

    def test_value_off_its_closed_form_exits_3(self, capsys, monkeypatch):
        # scale one hidden value by 1 + 1e-10, too little for the other checks
        # but a hundred times the closed-form bound
        original = cli.ruc_columns

        def corrupted(rho0, grid):
            t, mixture, ensemble, hidden = original(rho0, grid)
            hidden[1] *= 1.0 + 1e-10
            return t, mixture, ensemble, hidden

        monkeypatch.setattr(cli, "ruc_columns", corrupted)
        err = self.run_failing(capsys)
        assert err.startswith("consistency failure at omega*t=1.5708: c_hidden 1.0000000000999991 ")
        assert err.endswith(", gap 1.0e-10 exceeds 1.01e-12\n")

    @pytest.mark.parametrize("t_max", ["3.141592", "6.283185", "1e-06", repr(math.pi + 1.4e-6)])
    def test_grid_point_near_a_revival_passes_the_closed_form_check(self, capsys, t_max):
        """The last point's mixture eigenvalue (1 - |cos t|) / 2 falls under
        RANK_TOL, so c_mixture sits up to that eigenvalue off |cos t|."""
        code, out, err = run(capsys, "hidden", "--steps", "2", "--t-max", t_max)
        assert err == ""
        assert code == EXIT_OK
        assert out.startswith(HIDDEN_HEADER + "\n")

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads VmHWM, which only Linux reports"
    )
    def test_largest_grid_stays_under_its_memory_ceiling(self, tmp_path):
        """`hidden --steps MAX_STEPS` in a fresh interpreter, reading its own peak RSS."""
        target = tmp_path / "hidden.csv"
        peak_mb = peak_rss_mb(("hidden", "--steps", str(MAX_STEPS)), target)
        assert len(target.read_text().splitlines()) == MAX_STEPS + 1
        assert peak_mb < HIDDEN_PEAK_RSS_MB


@st.composite
def closed_form_checks(draw):
    """A grid of 1 to 50 points and 1 to 3 checks whose gaps lie around their
    bounds; values and closed forms may be NaN."""
    points = draw(st.integers(1, 50))
    entry = st.one_of(st.floats(-1.0, 1.0), st.just(math.nan))
    column = st.lists(entry, min_size=points, max_size=points)
    offset = st.one_of(st.sampled_from((0.0, 1.0, -1.0, math.nan)), st.floats(-2.0, 2.0))
    checks = []
    for k in range(draw(st.integers(1, 3))):
        bound = draw(st.floats(1e-15, 1.0))
        closed = np.array(draw(column))
        offsets = draw(st.lists(offset, min_size=points, max_size=points))
        checks.append((f"col{k}", closed + bound * np.array(offsets), closed, bound))
    return np.linspace(0.0, 7.0, points), checks


@settings(deadline=None)
@given(closed_form_checks())
def test_first_failure_names_the_first_failing_row_and_check(drawn):
    grid, checks = drawn
    failing = [
        (row, k)
        for row in range(len(grid))
        for k, (_, values, closed, bound) in enumerate(checks)
        if not abs(values[row] - closed[row]) <= bound
    ]
    message = cli._first_failure(grid, checks)
    if not failing:
        assert message is None
        return
    row, k = failing[0]
    column, values, closed, bound = checks[k]
    assert message == (
        f"omega*t={grid[row]:.6g}: {column} {values[row]:.17g} vs closed form "
        f"{closed[row]:.17g}, gap {abs(values[row] - closed[row]):.1e} exceeds {bound:.3g}"
    )


@st.composite
def oracle_draws(draw):
    """Oracle parameters: a bath of 2 to MAX_BATH_SPINS spins, p at an edge,
    tiny or uniform, special or uniform angles, then a grid end up to
    omega*t = 1e3 and a log base."""
    special = st.sampled_from((0.0, math.pi / 4.0, math.pi / 2.0, math.pi))
    angle = st.one_of(special, st.floats(0.0, 2.0 * math.pi))
    params = SpinStarParams(
        env_spins=draw(st.integers(2, MAX_BATH_SPINS)),
        p=draw(st.one_of(st.sampled_from((0.0, 1e-9, 1.0)), st.floats(0.0, 1.0))),
        alpha=draw(angle),
        beta=draw(angle),
    )
    return params, draw(st.floats(1.0, 1e3)), draw(st.sampled_from((2.0, math.e, 10.0)))


@settings(deadline=None, max_examples=50)
@given(oracle_draws())
def test_oracle_mi_matches_the_closed_form_and_the_sector_route(drawn):
    """The oracle's mi column stays within its bound of `mi_closed_form`, and
    within that bound plus the sector one of the sector route's column."""
    params, t_max, base = drawn
    times = np.linspace(0.0, t_max, 24) / params.omega
    _, oracle_mi = cli._oracle_columns(cli.BruteForceEvolver(params), times, base)
    _, sector_mi = cli._sector_columns(params, times, base)
    angle = cli._check_angles(params, t_max, ENV_LEVELS - 2)
    oracle_tol = cli.SWEEP_MI_TOL + 16 * sys.float_info.epsilon * angle
    assert np.max(np.abs(oracle_mi - mi_closed_form(params, times, base))) <= oracle_tol
    assert np.max(np.abs(oracle_mi - sector_mi)) <= oracle_tol + cli.SWEEP_MI_TOL


class TestParserReuse:
    """`main` builds its parser once per process, and no call leaves state in it."""

    @staticmethod
    def fresh(capsys, *argv):
        """A call whose parser is built anew, as in a fresh process."""
        cli._parser.cache_clear()
        return run(capsys, *argv)

    def test_flags_of_one_call_do_not_carry_over(self, capsys):
        expected = self.fresh(capsys, "sweep", "--steps", "5")
        assert run(capsys, "sweep", "--p", "0.3", "--steps", "5")[1] != expected[1]
        assert run(capsys, "sweep", "--steps", "5") == expected

    @pytest.mark.parametrize(
        "good", [("sweep", "--steps", "5"), ("kraus-check", "--seed", "3"), ("markov-check",)]
    )
    def test_failed_calls_leave_the_next_one_unchanged(self, capsys, good):
        expected = self.fresh(capsys, *good)
        for bad in (("bogus",), (), ("sweep", "--p", "2"), ("sweep", "--steps", "1")):
            code, out, err = run(capsys, *bad)
            assert (code, out) == (EXIT_USAGE, "") and "error" in err
            assert run(capsys, *good) == expected

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        built = []
        real = cli.build_parser

        def counting():
            built.append(True)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        for _ in range(3):
            for argv in (("sweep", "--steps", "3"), ("bogus",), ("hidden", "--steps", "2")):
                run(capsys, *argv)
        assert built == [True]

    def test_usage_wraps_to_the_columns_of_each_call(self, capsys, monkeypatch):
        """The cached parser reads COLUMNS when it prints, as a new one would."""
        argv = ["sweep", "--steps", "many"]
        monkeypatch.setenv("COLUMNS", "120")
        self.fresh(capsys, "markov-check")
        errors = []
        for columns in ("40", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            code, _, err = run(capsys, *argv)
            assert code == EXIT_USAGE
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(argv)
            assert capsys.readouterr().err == err
            errors.append(err)
        assert errors[0] != errors[1]
        assert len(errors[0].splitlines()) > len(errors[1].splitlines())


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--t-max", "inf"),
        ("hidden", "--t-max", "inf"),
        ("sweep", "--coupling", "inf"),
        ("kraus-check", "--t", "inf"),
        ("kraus-check", "--t", "nan"),
        ("kraus-check", "--t", "-0.5"),
        ("sweep", "--env-spins", str(MAX_BATH_SPINS + 1), "--oracle"),
        ("sweep", "--env-spins", str(MAX_BATH_SPINS + 2), "--oracle"),
        ("sweep", "--steps", "100000000000"),
        ("hidden", "--steps", "100001"),
        ("sweep", "--seed", "5"),
        ("sweep", "--coupling", "1e-320", "--steps", "3"),
        ("kraus-check", "--coupling", "1e-320"),
        ("sweep", "--env-spins", "4", "--coupling", "1e308", "--steps", "3"),
        ("kraus-check", "--env-spins", "4", "--coupling", "1e308"),
        ("sweep", "--t-max", "1.7e308", "--steps", "3"),
        ("kraus-check", "--t", "1.7e308"),
        ("kraus-check", "--t", "1e300", "--coupling", "1e-10"),
        ("sweep", "--env-spins", "6", "--oracle", "--steps", "50", "--t-max", "1e10"),
        ("sweep", "--env-spins", "1" + "0" * 400, "--steps", "3"),
        ("kraus-check", "--seed", "-1"),
        ("markov-check", "--env-spins", "7"),
        ("markov-check", "--large-n"),
        ("markov-check", "--coupling", "5"),
        ("kraus-check", "--t", "1e308"),
        ("sweep", "--t-max", "1.5e308"),
    ],
)
def test_bad_input_exits_2_with_a_message(capsys, argv):
    """Non-finite numbers, negative check times and seeds, oracle baths past
    the cap, grids past the step ceiling, the removed `sweep --seed` and
    `markov-check` bath flags, times or frequencies that overflow, baths too
    large for a float, and oracle grids past the reach of its phases are
    refused before any work."""
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("argv", [("sweep", "--output"), ("hidden", "--output"), ("sweep", "--svg")])
def test_unwritable_output_exits_2_with_a_message(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out"
    code, out, err = run(capsys, *argv, str(target), "--steps", "2")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and str(target) in err


def run_with_unwritable_svg(capsys, target):
    svg = target.parent / "missing" / "plot.svg"
    code, out, err = run(capsys, "sweep", "--steps", "2", "--output", str(target), "--svg", str(svg))
    assert (code, out) == (EXIT_USAGE, "")
    assert str(svg) in err


def test_unwritable_svg_leaves_the_csv_file_unwritten(capsys, tmp_path):
    """Both targets are opened before either is truncated, so an existing
    CSV keeps its bytes."""
    target = tmp_path / "out.csv"
    target.write_bytes(b"old,csv\n")
    run_with_unwritable_svg(capsys, target)
    assert target.read_bytes() == b"old,csv\n"


def test_unwritable_svg_creates_no_csv_file(capsys, tmp_path):
    """A CSV file created for the run is removed when the SVG cannot be opened."""
    target = tmp_path / "out.csv"
    run_with_unwritable_svg(capsys, target)
    assert not target.exists()


def test_output_file_is_rewritten_whole(capsys, tmp_path):
    """A longer existing file is truncated before the CSV is written."""
    target = tmp_path / "out.csv"
    target.write_text("x" * 10_000)
    code, out, _ = run(capsys, "sweep", "--steps", "3", "--output", str(target))
    assert (code, out) == (EXIT_OK, "")
    assert target.read_text() == run(capsys, "sweep", "--steps", "3")[1]


@pytest.mark.parametrize("existing", [False, True, "hard link"])
def test_one_file_for_both_outputs_is_refused(capsys, tmp_path, monkeypatch, existing):
    """--output and --svg naming one file, here once by a relative path and
    once by a hard link, exit 2 before either is opened: a new file is not
    created, an old one keeps its bytes."""
    target = svg = tmp_path / "both"
    if existing:
        target.write_bytes(b"old bytes\n")
    if existing == "hard link":
        svg = tmp_path / "link"
        os.link(target, svg)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "sweep", "--steps", "3", "--output", "both", "--svg", str(svg))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error:") and err.count("\n") == 1
    if existing:
        assert target.read_bytes() == b"old bytes\n"
    else:
        assert not target.exists()


def test_output_to_the_null_device(capsys):
    code, out, err = run(capsys, "sweep", "--steps", "3", "--output", os.devnull)
    assert (code, out, err) == (EXIT_OK, "", "")


@pytest.mark.parametrize("argv", [("kraus-check", "--t", "1e308"), ("sweep", "--t-max", "1.5e308")])
def test_overflowing_rotation_angle_is_named(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: rotation angle overflows: omega*t up to ")


class TestTopLevel:
    def test_missing_subcommand(self, capsys):
        assert run(capsys, *())[0] == EXIT_USAGE

    def test_help_exits_cleanly(self, capsys):
        assert run(capsys, "--help")[0] == EXIT_OK

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_USAGE, EXIT_CHECK}) == 3
