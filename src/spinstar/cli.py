"""Command-line interface: trajectory sweeps, channel checks, structure reports.

Exit codes: 0 on success, 2 on usage errors, 3 when an internal consistency
check fails.  CSV output is deterministic for a given flag set.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import random
import sys
from collections.abc import Sequence

import numpy as np

from .channels import COMPLETENESS_TOL, kraus_audit, ruc_columns
from .entanglement import RANK_TOL, concurrence_2q, concurrence_2q_eig, inaccessible_concurrence
from .markov import (
    CMI_TOL,
    EXCESS_TOL,
    MarkovBlock,
    MarkovBlockSpec,
    is_markov,
    make_markov_state,
    markov_necessary_witnesses,
)
from .model import (
    ENV_LEVELS,
    LARGE_N,
    BruteForceEvolver,
    SpinStarParams,
    build_initial_state,
    build_w_state,
    cmi_closed_form,
    concurrence_a_be,
    concurrence_closed_form,
    concurrence_closed_form_stack,
    evolve_sector,
    mi_closed_form,
    zero_discord_family,
)
from .states import (
    PAIR_BATCH,
    PAIR_DIMS,
    DensityMatrix,
    _LOG_BASES,
    density_eig,
    mutual_information,
    mutual_information_stack,
    partial_trace,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK = 3

#: closed-form and numeric trajectories must agree this tightly in sweeps
SWEEP_CONSISTENCY_TOL = 1e-6

#: largest gap of a sector sweep's mi column from `mi_closed_form`.  The gap
#: is rounding, mostly the entropy -x log x of an eigenvalue that rounds to
#: about 1e-16 instead of 0: at most 8.4e-15 over 260 000 points (1300 random
#: sets of `LARGE_N` or N = 2 to 5000, p in {0, 1}, tiny or random, special
#: or random angles, omega*t up to 1e4, every log base).  An --oracle sweep
#: adds the phase error of ORACLE_MAX_ANGLE, 16 eps per radian of its largest
#: angle: its gap stayed under 15% of that sum on 600 random grids of 200
#: points (N = 2 to 62, omega*t up to 1e6, p in {0, 1e-9, random, 1})
SWEEP_MI_TOL = 1e-12

#: largest rotation angle of an --oracle sweep.  The oracle's phases sigma * t
#: carry each singular value's rounding error times t, and its gap to the
#: closed form stayed below 2.9 eps sigma_max t on 400 000 random points
#: (baths of 2 to 62 spins, omega*t from 1e6 to 1e11).  sigma_max is the
#: rung-1 frequency, at most the rung-2 one whose angle `_check_angles` bounds
ORACLE_MAX_ANGLE = SWEEP_CONSISTENCY_TOL / (16 * sys.float_info.epsilon)

#: largest accepted --steps; `hidden` keeps 32 B of grid and columns, then 0.1 kB of CSV
#: text, per point; `test_largest_grid_stays_under_its_memory_ceiling` checks its peak RSS
MAX_STEPS = 100_000

#: largest gap of a `hidden` value from the phase dial's closed forms.  The
#: dial's mixture is diagonal in the Bell basis, as the spin flip is, so
#: dropping its eigenvalue (1 - |cos omega t|) / 2 at or below RANK_TOL near a
#: revival lowers c_mixture by exactly that eigenvalue; the rest is rounding,
#: 1.1e-15 at worst over 200 random grids of up to 3000 points
HIDDEN_CLOSED_FORM_TOL = RANK_TOL + 1e-14

#: kraus-check's floor on Choi eigenvalues and bound on the channel's deviation
KRAUS_CHOI_FLOOR, KRAUS_DEV_TOL = -1e-8, 1e-9

SWEEP_HEADER = "omega_t,c_closed,c_numeric,mi,c_abe,c_inaccessible"
HIDDEN_HEADER = "omega_t,c_mixture,c_ensemble_avg,c_hidden"


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _add_state_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=finite_float, default=0.5, help="mixing probability of branch one")
    parser.add_argument("--alpha", type=finite_float, default=math.pi / 4, help="branch-one angle")
    parser.add_argument("--beta", type=finite_float, default=math.pi / 4, help="branch-two angle")


def _add_bath_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--env-spins", type=int, default=None, metavar="N", help="finite bath size")
    parser.add_argument("--large-n", action="store_true", help="infinite-bath frequency ladder")
    parser.add_argument("--coupling", type=finite_float, default=1.0, help="per-spin coupling g")


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--t-max", type=finite_float, default=4.0 * math.pi, help="last grid point in omega*t"
    )
    parser.add_argument("--steps", type=int, default=2000, help="number of grid points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinstar",
        description="Entanglement dynamics of a qubit pair coupled to a spin bath",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="trajectory CSV over an omega*t grid")
    _add_state_flags(sweep)
    _add_bath_flags(sweep)
    _add_grid_flags(sweep)
    sweep.add_argument("--log-base", choices=sorted(_LOG_BASES), default="10")
    sweep.add_argument(
        "--oracle",
        action="store_true",
        help="take the numeric column from full-space evolution (finite bath only)",
    )
    sweep.add_argument("--output", metavar="PATH", default=None)
    sweep.add_argument("--svg", metavar="PATH", default=None, help="write a static plot")

    kraus = sub.add_parser("kraus-check", help="operator-sum extraction consistency report")
    _add_state_flags(kraus)
    _add_bath_flags(kraus)
    kraus.add_argument("--t", type=finite_float, default=None, help="single check time in omega*t")
    kraus.add_argument("--seed", type=int, default=0)

    markov = sub.add_parser("markov-check", help="Markov structure report for a scenario")
    _add_state_flags(markov)
    markov.add_argument(
        "--scenario",
        choices=("eq-mixture", "w-state", "factorized", "custom-markov"),
        default="eq-mixture",
    )

    hidden = sub.add_parser("hidden", help="hidden entanglement CSV for the phase dial")
    _add_grid_flags(hidden)
    hidden.add_argument("--output", metavar="PATH", default=None)

    return parser


def _params_from(args: argparse.Namespace) -> SpinStarParams:
    if args.large_n and args.env_spins is not None:
        raise ValueError("--large-n and --env-spins are mutually exclusive")
    env = LARGE_N if args.env_spins is None else args.env_spins
    return SpinStarParams(
        env_spins=env, coupling=args.coupling, p=args.p, alpha=args.alpha, beta=args.beta
    )


def _grid_from(args: argparse.Namespace) -> np.ndarray:
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    if args.steps > MAX_STEPS:
        raise ValueError(f"--steps must be at most {MAX_STEPS}, got {args.steps}")
    if not args.t_max > 0.0:
        raise ValueError(f"--t-max must be positive, got {args.t_max}")
    return np.linspace(0.0, args.t_max, args.steps)


def _check_angles(
    params: SpinStarParams, omega_t_max: float, top_rung: int, limit: float = math.inf
) -> float:
    """The largest rotation angle Omega_n t of a run; refuse it unless below limit.

    The run rotates ladder rungs 0..top_rung up to omega*t = omega_t_max; on a
    finite bath the rung frequency peaks at rung (N - 1) // 2.
    """
    if not params.is_large_n:
        top_rung = min(top_rung, (int(params.env_spins) - 1) // 2)
    angle = params.mode_frequency(top_rung) * (omega_t_max / params.omega)
    if math.isinf(angle):
        raise ValueError(
            f"rotation angle overflows: omega*t up to {omega_t_max!r}, "
            f"--coupling {params.coupling!r}"
        )
    if not angle < limit:
        raise ValueError(
            f"rotation angle {angle:.3g} is not below {limit:.3g}: omega*t up to "
            f"{omega_t_max!r}, --coupling {params.coupling!r}"
        )
    return angle


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: by device and inode once both exist, so
    hard links count, and by resolved path while one is still to be created."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _fail(code: int, message: str) -> int:
    """Write a failed run's one line to stderr and return its exit code."""
    print(message, file=sys.stderr)
    return code


def _open_for_emit(path: str, created: list[str]):
    """Open path to write text, untruncated; a file it creates joins created."""
    try:
        fh = open(path, "x", encoding="utf-8", newline="")
    except FileExistsError:
        return open(path, "a", encoding="utf-8", newline="")
    created.append(path)
    return fh


def _emit(outputs: Sequence[tuple[str | None, str]]) -> int:
    """Write each (path, text), a None path to stdout, and return the exit code.

    Every file is opened before an existing one is truncated, so a path that
    cannot be opened exits 2 and leaves the others as they were: an existing
    file keeps its bytes, and a file this call created is removed.  Files are
    written in place, not renamed over, so a device such as /dev/null works.
    """
    created: list[str] = []
    try:
        with contextlib.ExitStack() as stack:
            targets = [
                sys.stdout if path is None else stack.enter_context(_open_for_emit(path, created))
                for path, _ in outputs
            ]
            for fh, (path, text) in zip(targets, outputs):
                if path is not None and path not in created and os.path.isfile(path):
                    fh.truncate(0)
                fh.write(text)
    except OSError as exc:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        return _fail(EXIT_USAGE, f"error: {exc}")
    return EXIT_OK


def _svg_text(grid: np.ndarray, series: list[tuple[str, str, np.ndarray]]) -> str:
    """Static line plot: (label, dash pattern, values) per series."""
    width, height = 720.0, 420.0
    left, right, top, bottom = 60.0, 20.0, 20.0, 50.0
    x_span = float(grid[-1]) or 1.0
    y_max = max(1.0, max(float(np.max(v)) for _, _, v in series)) * 1.05

    def sx(x: float) -> float:
        return left + (width - left - right) * x / x_span

    def sy(y: float) -> float:
        return height - bottom - (height - top - bottom) * y / y_max

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<rect x="{left:g}" y="{top:g}" width="{width - left - right:g}" '
        f'height="{height - top - bottom:g}" fill="none" stroke="black"/>',
    ]
    for k in range(5):
        x_val = x_span * k / 4.0
        y_val = y_max * k / 4.0
        parts.append(
            f'<text x="{sx(x_val):.2f}" y="{height - bottom + 18.0:.2f}" font-size="11" '
            f'text-anchor="middle">{x_val:.3g}</text>'
        )
        parts.append(
            f'<text x="{left - 8.0:.2f}" y="{sy(y_val) + 4.0:.2f}" font-size="11" '
            f'text-anchor="end">{y_val:.3g}</text>'
        )
    parts.append(
        f'<text x="{(left + width - right) / 2.0:.2f}" y="{height - 12.0:.2f}" font-size="12" '
        'text-anchor="middle">omega*t</text>'
    )
    colors = ("black", "#c02020", "#2040c0")
    for (label, dash, values), color in zip(series, colors):
        points = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(grid, values))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash_attr} '
            f'points="{points}"/>'
        )
    for i, ((label, dash, _), color) in enumerate(zip(series, colors)):
        y = top + 16.0 + 16.0 * i
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{left + 10.0:g}" y1="{y:.2f}" x2="{left + 40.0:g}" y2="{y:.2f}" '
            f'stroke="{color}" stroke-width="1.5"{dash_attr}/>'
        )
        parts.append(f'<text x="{left + 46.0:g}" y="{y + 4.0:.2f}" font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _sector_columns(
    params: SpinStarParams, times: np.ndarray, base: float
) -> tuple[np.ndarray, np.ndarray]:
    """c_numeric and mi at each time from the Dicke-ladder sector propagator."""
    rho0 = build_initial_state(params)
    c_numeric, mi = [], []
    # one call each per point: spinbench's test_traced_sweep_gives_exact_counts counts them
    for t in times.tolist():
        rho_pair = evolve_sector(rho0, t, params)
        c_numeric.append(concurrence_2q(rho_pair))
        mi.append(mutual_information(rho_pair, (("A",), ("B",)), base))
    return np.array(c_numeric), np.array(mi)


def _oracle_columns(
    evolver: BruteForceEvolver, times: np.ndarray, base: float
) -> tuple[np.ndarray, np.ndarray]:
    """c_numeric and mi at each time from full-space evolution, in stacked batches.

    Each batch of pair states is solved once, by the eigh that validates it.
    """
    c_numeric, mi = [], []
    for start in range(0, len(times), PAIR_BATCH):
        pairs = evolver.reduced_states(times[start : start + PAIR_BATCH])
        vals, vecs = density_eig(pairs, PAIR_DIMS)
        c_numeric.append(concurrence_2q_eig(vals, vecs))
        mi.append(mutual_information_stack(pairs, vals, base))
    return np.concatenate(c_numeric), np.concatenate(mi)


def _first_failure(
    grid: np.ndarray, checks: Sequence[tuple[str, np.ndarray, np.ndarray, float]]
) -> str | None:
    """The first grid point where a column is off its closed form, or None.

    Each check is (column, values, closed form, bound).  A gap that is not at
    most its bound fails, NaN included; at the first failing point the first
    failing check in the given order is named.
    """
    bad = np.array([~(np.abs(values - closed) <= bound) for _, values, closed, bound in checks])
    if not bad.any():
        return None
    row = int(np.argmax(bad.any(axis=0)))
    column, values, closed, bound = checks[int(np.argmax(bad[:, row]))]
    value, expected = values[row], closed[row]
    return (
        f"omega*t={grid[row]:.6g}: {column} {value:.17g} vs closed form {expected:.17g}, "
        f"gap {abs(value - expected):.1e} exceeds {bound:.3g}"
    )


def _csv_text(header: str, template: str, columns: Sequence[np.ndarray]) -> str:
    """The header line, then `template % row` for each row of the columns, read
    one row at a time: whole-column lists of floats would outlive the rows."""
    return "\n".join([header, *(template % row for row in zip(*columns))]) + "\n"


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        params = _params_from(args)
        grid = _grid_from(args)
        if args.oracle and params.is_large_n:
            raise ValueError("--oracle needs a finite bath; pass --env-spins N")
        angle = _check_angles(
            params, args.t_max, ENV_LEVELS - 2, ORACLE_MAX_ANGLE if args.oracle else math.inf
        )
        if args.output and args.svg and _same_file(args.output, args.svg):
            raise ValueError(f"--output and --svg name one file: {args.svg!r}")
        evolver = BruteForceEvolver(params) if args.oracle else None
    except ValueError as exc:
        return _fail(EXIT_USAGE, f"error: {exc}")
    base = _LOG_BASES[args.log_base]
    times = grid / params.omega
    if evolver is None:
        # one call per point: spinbench's test_traced_sweep_gives_exact_counts counts them
        c_closed = np.array([concurrence_closed_form(params, t) for t in times.tolist()])
        c_numeric, mi = _sector_columns(params, times, base)
        mi_tol = SWEEP_MI_TOL
    else:
        c_closed = concurrence_closed_form_stack(params, times)
        c_numeric, mi = _oracle_columns(evolver, times, base)
        mi_tol = SWEEP_MI_TOL + 16 * sys.float_info.epsilon * angle
    failure = _first_failure(
        grid,
        [
            ("c_numeric", c_numeric, c_closed, SWEEP_CONSISTENCY_TOL),
            ("mi", mi, mi_closed_form(params, times, base), mi_tol),
        ],
    )
    if failure is not None:
        return _fail(EXIT_CHECK, f"consistency failure at {failure}")
    c_abe = concurrence_a_be(params)
    columns = (grid, c_closed, c_numeric, mi, inaccessible_concurrence(c_abe, c_numeric))
    # the constant c_abe is formatted once, into the row template
    template = f"%.12g,%.12g,%.12g,%.12g,{c_abe:.12g},%.12g"
    outputs = [(args.output, _csv_text(SWEEP_HEADER, template, columns))]
    if args.svg is not None:
        series = [
            ("pair concurrence", "", c_numeric),
            ("mutual information", "8 4", mi),
            ("whole-cut concurrence", "2 3", np.full(len(grid), c_abe)),
        ]
        outputs.append((args.svg, _svg_text(grid, series)))
    return _emit(outputs)


def _cmd_kraus_check(args: argparse.Namespace) -> int:
    try:
        params = _params_from(args)
        if args.t is not None and args.t < 0.0:
            raise ValueError(f"--t must be non-negative, got {args.t}")
        if args.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        # the Kraus propagator has one bath level beyond the flags
        _check_angles(params, 4.0 * math.pi if args.t is None else args.t, ENV_LEVELS - 1)
    except ValueError as exc:
        return _fail(EXIT_USAGE, f"error: {exc}")
    family = zero_discord_family(params)
    if args.t is not None:
        omega_times = [args.t]
    else:
        # the standard library's generator: numpy.random costs about 5 MB of
        # peak memory and 14 ms of import for ten floats
        rng = random.Random(args.seed)
        omega_times = sorted(rng.uniform(0.0, 4.0 * math.pi) for _ in range(10))
    residuals, choi_min, deviations = kraus_audit(
        family, params, [omega_t / params.omega for omega_t in omega_times]
    )
    residual = max(0.0, float(residuals.max()))
    choi = min(0.0, float(choi_min.min()))
    dev = max(0.0, float(deviations.max()))
    print("times (omega*t): " + " ".join(f"{v:.12g}" for v in omega_times))
    print(f"completeness residual (max): {residual:.3e}  [tol {COMPLETENESS_TOL:g}]")
    print(f"choi min eigenvalue (min): {choi:.3e}  [floor {KRAUS_CHOI_FLOOR:g}]")
    print(f"channel vs traced evolution (max dev): {dev:.3e}  [tol {KRAUS_DEV_TOL:g}]")
    ok = residual <= COMPLETENESS_TOL and choi >= KRAUS_CHOI_FLOOR and dev <= KRAUS_DEV_TOL
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_CHECK


def _markov_scenario(name: str, params: SpinStarParams) -> tuple[DensityMatrix, bool]:
    if name == "eq-mixture":
        return build_initial_state(params), cmi_closed_form(params) <= CMI_TOL
    if name == "w-state":
        amp = 1.0 / math.sqrt(3.0)
        return build_w_state(amp, amp, amp).to_density(), False
    if name == "factorized":
        rho0 = build_initial_state(params)
        pair = partial_trace(rho0, rho0.dims.labels[:2])
        env = np.zeros((4, 4), dtype=complex)
        env[0, 0] = 1.0
        return DensityMatrix(np.kron(pair.mat, env), rho0.dims), True
    if name == "custom-markov":
        plus = np.full((2, 2), 0.5, dtype=complex)
        blocks = (
            MarkovBlock(0.6, np.diag([1.0, 0.0]).astype(complex), np.diag([0.7, 0.3]).astype(complex)),
            MarkovBlock(0.4, plus, np.diag([0.2, 0.8]).astype(complex)),
        )
        return make_markov_state(MarkovBlockSpec(2, 2, blocks)), True
    raise ValueError(f"unknown scenario {name!r}")


def _cmd_markov_check(args: argparse.Namespace) -> int:
    try:
        params = SpinStarParams(p=args.p, alpha=args.alpha, beta=args.beta)
        rho, expect_markov = _markov_scenario(args.scenario, params)
    except ValueError as exc:
        return _fail(EXIT_USAGE, f"error: {exc}")
    decision = is_markov(rho)
    witness = markov_necessary_witnesses(rho)
    print(f"scenario: {args.scenario}")
    print(f"conditional mutual information: {decision.cmi:.6e}  [tol {decision.tol:.1e}]")
    verdict = "NPT (certifies non-markov)" if witness.npt else "PPT (inconclusive)"
    print(f"witness {witness.cut}: min eigenvalue {witness.min_eigenvalue:.6e}  {verdict}")
    print(f"verdict: {'markov' if decision.markov else 'non-markov'}")
    print(f"expected: {'markov' if expect_markov else 'non-markov'}")
    ok = decision.markov == expect_markov
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_CHECK


def _cmd_hidden(args: argparse.Namespace) -> int:
    try:
        grid = _grid_from(args)
    except ValueError as exc:
        return _fail(EXIT_USAGE, f"error: {exc}")
    bell = np.zeros(4, dtype=complex)
    bell[1] = bell[2] = 1.0 / math.sqrt(2.0)
    rho0 = DensityMatrix(np.outer(bell, bell.conj()), PAIR_DIMS)
    try:
        _, *columns = ruc_columns(rho0, grid)
    except ArithmeticError as exc:
        return _fail(EXIT_CHECK, f"consistency failure: {exc}")
    c0, worst = columns[0][0], columns[0].max()
    if worst > c0 + EXCESS_TOL:
        message = f"mixture concurrence {worst:.12g} exceeds initial {c0:.12g}"
        return _fail(EXIT_CHECK, f"consistency failure: {message}")
    # for the Bell input the mixture keeps |cos omega t|, each branch keeps 1,
    # and the difference is hidden
    cos_t = np.abs(np.cos(grid))
    closed_forms = (cos_t, np.ones_like(cos_t), 1.0 - cos_t)
    checks = zip(HIDDEN_HEADER.split(",")[1:], columns, closed_forms)
    failure = _first_failure(grid, [(*check, HIDDEN_CLOSED_FORM_TOL) for check in checks])
    if failure is not None:
        return _fail(EXIT_CHECK, f"consistency failure at {failure}")
    text = _csv_text(HIDDEN_HEADER, "%.12g,%.12g,%.12g,%.12g", (grid, *columns))
    return _emit([(args.output, text)])


_DISPATCH = {
    "sweep": _cmd_sweep,
    "kraus-check": _cmd_kraus_check,
    "markov-check": _cmd_markov_check,
    "hidden": _cmd_hidden,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing keeps no state in it between calls, and
    usage text wraps to each call's COLUMNS."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return EXIT_OK
        return EXIT_USAGE
    return _DISPATCH[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
