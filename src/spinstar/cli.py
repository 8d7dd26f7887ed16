"""Command-line interface: trajectory sweeps, channel checks, structure reports.

Exit codes: 0 on success, 2 on usage errors, 3 when an internal consistency
check fails.  CSV output is deterministic for a given flag set.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .channels import apply_channel, choi_matrix, extract_kraus, ruc_trajectory
from .entanglement import concurrence_2q, inaccessible_concurrence
from .markov import (
    CMI_TOL,
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
    evolve_sector,
    zero_discord_family,
)
from .states import DensityMatrix, DimsSpec, mutual_information, partial_trace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK = 3

#: closed-form and numeric trajectories must agree this tightly in sweeps
SWEEP_CONSISTENCY_TOL = 1e-6

#: largest rotation angle of an --oracle sweep.  The oracle's eigenphases
#: lambda * t carry each eigenvalue's rounding error times t, and its gap to
#: the closed form stayed below 5.2 eps |lambda|max t on 200 000 random points
#: (baths of 2 to 62 spins, omega*t from 1e6 to 1e11).  |lambda|max is the
#: rung-1 frequency, at most the rung-2 one whose angle `_check_angles` bounds
ORACLE_MAX_ANGLE = SWEEP_CONSISTENCY_TOL / (16 * sys.float_info.epsilon)

#: largest accepted --steps; `hidden` keeps about 0.2 kB of samples per grid
#: point and peaks near 75 MB resident at this ceiling
MAX_STEPS = 100_000

SWEEP_HEADER = "omega_t,c_closed,c_numeric,mi,c_abe,c_inaccessible"
HIDDEN_HEADER = "omega_t,c_mixture,c_ensemble_avg,c_hidden"

_LOG_BASES = {"2": 2.0, "e": math.e, "10": 10.0}


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
) -> None:
    """Refuse a run whose largest rotation angle Omega_n t is not below limit.

    The run rotates ladder rungs 0..top_rung up to omega*t = omega_t_max; on a
    finite bath the rung frequency peaks at rung (N - 1) // 2.
    """
    if not params.is_large_n:
        top_rung = min(top_rung, (int(params.env_spins) - 1) // 2)
    angle = params.mode_frequency(top_rung) * (omega_t_max / params.omega)
    if not angle < limit:
        raise ValueError(
            f"rotation angle {angle:.3g} is not below {limit:.3g}: omega*t up to "
            f"{omega_t_max!r}, --coupling {params.coupling!r}"
        )


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _emit(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_svg(path: str, grid: np.ndarray, series: list[tuple[str, str, np.ndarray]]) -> None:
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        params = _params_from(args)
        grid = _grid_from(args)
        if args.oracle and params.is_large_n:
            raise ValueError("--oracle needs a finite bath; pass --env-spins N")
        _check_angles(
            params, args.t_max, ENV_LEVELS - 2, ORACLE_MAX_ANGLE if args.oracle else math.inf
        )
        evolver = BruteForceEvolver(params) if args.oracle else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    base = _LOG_BASES[args.log_base]
    rho0 = build_initial_state(params)
    c_abe = concurrence_a_be(params)
    rows = [SWEEP_HEADER]
    c_numeric_series, mi_series = [], []
    for omega_t in grid:
        t = omega_t / params.omega
        c_closed = concurrence_closed_form(params, t)
        rho_pair = evolver.reduced_state(t) if evolver is not None else evolve_sector(rho0, t, params)
        c_numeric = concurrence_2q(rho_pair)
        if abs(c_closed - c_numeric) > SWEEP_CONSISTENCY_TOL:
            print(
                f"consistency failure at omega*t={omega_t:.6g}: closed form {c_closed:.12g} "
                f"vs numeric {c_numeric:.12g}",
                file=sys.stderr,
            )
            return EXIT_CHECK
        mi = mutual_information(rho_pair, (("A",), ("B",)), base)
        c_inaccessible = inaccessible_concurrence(c_abe, c_numeric)
        c_numeric_series.append(c_numeric)
        mi_series.append(mi)
        rows.append(
            ",".join(
                _fmt(v) for v in (omega_t, c_closed, c_numeric, mi, c_abe, c_inaccessible)
            )
        )
    try:
        _emit(rows, args.output)
        if args.svg is not None:
            _write_svg(
                args.svg,
                grid,
                [
                    ("pair concurrence", "", np.array(c_numeric_series)),
                    ("mutual information", "8 4", np.array(mi_series)),
                    ("whole-cut concurrence", "2 3", np.full(len(grid), c_abe)),
                ],
            )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    family = zero_discord_family(params)
    if args.t is not None:
        omega_times = [args.t]
    else:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
        omega_times = sorted(rng.uniform(0.0, 4.0 * math.pi, size=10).tolist())
    mixture = family.mixture(levels=family.flag_dim + 1)
    rho0 = partial_trace(mixture, mixture.dims.labels[:2])
    worst_residual = 0.0
    worst_choi = 0.0
    worst_dev = 0.0
    for omega_t in omega_times:
        t = omega_t / params.omega
        channel = extract_kraus(family, params, t)
        worst_residual = max(worst_residual, channel.residual)
        choi_min = float(np.linalg.eigvalsh(choi_matrix(channel))[0])
        worst_choi = min(worst_choi, choi_min)
        via_channel = apply_channel(channel, rho0)
        via_evolution = evolve_sector(mixture, t, params)
        worst_dev = max(worst_dev, float(np.max(np.abs(via_channel.mat - via_evolution.mat))))
    print("times (omega*t): " + " ".join(_fmt(v) for v in omega_times))
    print(f"completeness residual (max): {worst_residual:.3e}  [tol 1e-09]")
    print(f"choi min eigenvalue (min): {worst_choi:.3e}  [floor -1e-08]")
    print(f"channel vs traced evolution (max dev): {worst_dev:.3e}  [tol 1e-09]")
    ok = worst_residual <= 1e-9 and worst_choi >= -1e-8 and worst_dev <= 1e-9
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
        mat = np.kron(pair.mat, env)
        return DensityMatrix(mat, DimsSpec(("A", 2), ("B", 2), ("E", 4))), True
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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    bell = np.zeros(4, dtype=complex)
    bell[1] = bell[2] = 1.0 / math.sqrt(2.0)
    rho0 = DensityMatrix(np.outer(bell, bell.conj()), DimsSpec(("A", 2), ("B", 2)))
    try:
        samples = ruc_trajectory(rho0, grid.tolist())
    except ArithmeticError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_CHECK
    c0 = samples[0].mixture_concurrence
    worst = max(s.mixture_concurrence for s in samples)
    if worst > c0 + 1e-9:
        print(
            f"consistency failure: mixture concurrence {worst:.12g} exceeds initial {c0:.12g}",
            file=sys.stderr,
        )
        return EXIT_CHECK
    rows = [HIDDEN_HEADER]
    for omega_t, s in zip(grid, samples):
        rows.append(
            ",".join(
                _fmt(v)
                for v in (omega_t, s.mixture_concurrence, s.ensemble_concurrence, s.hidden)
            )
        )
    try:
        _emit(rows, args.output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


_DISPATCH = {
    "sweep": _cmd_sweep,
    "kraus-check": _cmd_kraus_check,
    "markov-check": _cmd_markov_check,
    "hidden": _cmd_hidden,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return EXIT_OK
        return EXIT_USAGE
    return _DISPATCH[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
