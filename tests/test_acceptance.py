"""Acceptance gate: nine end-to-end checks of the package's headline behavior.

Each check prints one scorecard line (criterion N: PASS/FAIL) directly to the
terminal, bypassing capture, so a full run always shows all nine verdicts.
"""

import math

import numpy as np

from helpers import random_density
from spinstar import (
    BruteForceEvolver,
    DensityMatrix,
    DimsSpec,
    EnsembleMember,
    PureState,
    RandomUnitaryChannel,
    SpinStarParams,
    apply_channel,
    apply_random_unitary,
    branch_vectors,
    build_initial_state,
    build_w_state,
    choi_matrix,
    concurrence_2q,
    concurrence_a_be,
    concurrence_closed_form,
    discord_zero_check,
    ensemble_concurrence,
    evolve_sector,
    extract_kraus,
    inaccessible_concurrence,
    is_markov,
    markov_necessary_witnesses,
    mutual_information,
    partial_trace,
    ruc_trajectory,
    verify_localized_reduction,
    von_neumann_entropy,
    zero_discord_family,
)
from spinstar.linalg import dagger, haar_unitary, identity
from test_markov import two_flag_spec

GRID = np.linspace(0.0, 4.0 * math.pi, 2000)

#: criterion-7 window, from the dead-window exit to the second concurrence peak
WINDOW_7 = GRID[(GRID > 2.603) & (GRID <= 3.333)]

PAIR_CUT = (("A",), ("B",))


def _report(capfd, num: int, ok: bool, detail: str) -> None:
    with capfd.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_closed_form_tracks_dense_evolution(capfd):
    """Closed-form pair concurrence agrees with full-Hilbert-space evolution
    for small baths across a period of the collective frequency."""
    worst = 0.0
    for n_spins in (2, 4, 6, 8):
        params = SpinStarParams(env_spins=n_spins)
        evolver = BruteForceEvolver(params)
        for omega_t in np.linspace(0.0, 2.0 * math.pi, 50):
            t = float(omega_t) / params.omega
            closed = concurrence_closed_form(params, t)
            dense = concurrence_2q(evolver.reduced_state(t))
            worst = max(worst, abs(closed - dense))
    ok = worst <= 1e-9
    _report(capfd, 1, ok, f"max closed-vs-dense deviation {worst:.3e} over baths 2/4/6/8")
    assert ok


def test_trajectory_landmarks(capfd):
    """The large-bath trajectory starts at exactly zero, peaks twice at the
    expected times and heights, and leaves its dead window where expected."""
    params = SpinStarParams()
    c0 = concurrence_closed_form(params, 0.0)
    fine = np.linspace(0.0, 4.0, 8001)
    cs = np.array([concurrence_closed_form(params, float(t)) for t in fine])
    peak_idx = np.flatnonzero((cs[1:-1] > cs[:-2]) & (cs[1:-1] > cs[2:])) + 1
    rise_idx = np.flatnonzero((cs[:-1] == 0.0) & (cs[1:] > 0.0))
    rise_idx = rise_idx[fine[rise_idx] > 1.0]
    ok = c0 == 0.0 and peak_idx.size == 2 and rise_idx.size == 1
    detail = [f"C(0)={c0:g}"]
    if peak_idx.size == 2:
        t1, v1 = float(fine[peak_idx[0]]), float(cs[peak_idx[0]])
        t2, v2 = float(fine[peak_idx[1]]), float(cs[peak_idx[1]])
        ok = ok and abs(t1 - 1.1107) <= 2e-3 and abs(v1 - 0.2220) <= 1e-3
        ok = ok and abs(t2 - 3.3322) <= 2e-3 and abs(v2 - 0.4909) <= 1e-3
        detail.append(f"peaks {v1:.4f}@{t1:.4f} and {v2:.4f}@{t2:.4f}")
    if rise_idx.size == 1:
        t_rise = float(fine[rise_idx[0]])
        ok = ok and abs(t_rise - 2.603) <= 5e-3
        detail.append(f"upward crossing @{t_rise:.4f}")
    _report(capfd, 2, ok, ", ".join(detail))
    assert ok


def test_exceedance_with_classical_correlation_only(capfd):
    """Entanglement climbs far above its initial zero although the starting
    system-bath correlations are classical and the bath is one party."""
    params = SpinStarParams()
    rho0 = build_initial_state(params)
    discord = discord_zero_check(rho0, identity(4))
    env_factor_count = len(rho0.dims) - 2
    c0 = concurrence_closed_form(params, 0.0)
    cs = np.array([concurrence_closed_form(params, float(t)) for t in GRID])
    best = int(np.argmax(cs))
    pair = evolve_sector(rho0, float(GRID[best]), params)
    c_numeric = concurrence_2q(pair)
    ok = (
        discord <= 1e-10
        and env_factor_count == 1
        and c0 == 0.0
        and float(cs[best]) >= 0.2
        and c_numeric >= 0.2
    )
    _report(
        capfd,
        3,
        ok,
        f"discord residual {discord:.1e}, single bath factor, "
        f"peak concurrence {c_numeric:.4f} from an exact initial zero",
    )
    assert ok


def test_extracted_channel_is_completely_positive_and_exact(capfd):
    """Operator-sum extraction stays trace preserving and completely positive
    at random times, and reproduces the traced joint evolution."""
    rng = np.random.default_rng(2026)
    params = SpinStarParams()
    family = zero_discord_family(params)
    worst_residual = 0.0
    worst_choi = 0.0
    for t in rng.uniform(0.0, 4.0 * math.pi, size=10):
        channel = extract_kraus(family, params, float(t))
        worst_residual = max(worst_residual, channel.residual)
        choi_min = float(np.linalg.eigvalsh(choi_matrix(channel))[0])
        worst_choi = min(worst_choi, choi_min)
    worst_dev = 0.0
    for _ in range(20):
        draw = SpinStarParams(
            alpha=float(rng.uniform(0.0, 2.0 * math.pi)),
            beta=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        fam = zero_discord_family(draw, probabilities=tuple(rng.dirichlet(np.ones(4))))
        t = float(rng.uniform(0.0, 2.0 * math.pi))
        channel = extract_kraus(fam, draw, t)
        pair0 = partial_trace(fam.mixture(), ("A", "B"))
        via_channel = apply_channel(channel, pair0)
        via_trace = evolve_sector(fam.mixture(levels=5), t, draw)
        worst_dev = max(worst_dev, float(np.max(np.abs(via_channel.mat - via_trace.mat))))
    ok = worst_residual <= 1e-9 and worst_choi >= -1e-8 and worst_dev <= 1e-9
    _report(
        capfd,
        4,
        ok,
        f"completeness {worst_residual:.1e}, choi floor {worst_choi:.1e}, "
        f"channel-vs-trace {worst_dev:.1e}",
    )
    assert ok


def test_markov_verdict_suite(capfd):
    """The conditional-information decision and the transpose witnesses sort
    the three benchmark states plus the paired-environment fixture correctly."""
    params = SpinStarParams()
    flagged = build_initial_state(params)
    amp = 1.0 / math.sqrt(3.0)
    shared = build_w_state(amp, amp, amp).to_density()
    pair = partial_trace(flagged, ("A", "B"))
    env = np.zeros((4, 4), dtype=complex)
    env[0, 0] = 1.0
    factorized = DensityMatrix(np.kron(pair.mat, env), flagged.dims)

    flagged_decision = is_markov(flagged)
    shared_decision = is_markov(shared)
    factorized_decision = is_markov(factorized)

    shared_witness = markov_necessary_witnesses(shared)
    dims = DimsSpec(("A", 2), ("EA", 2), ("B", 2), ("EB", 2))
    bell = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    vec = np.zeros(16, dtype=complex)
    for ea in range(2):
        for eb in range(2):
            vec[ea * 4 + eb] = bell[ea * 2 + eb]
    paired_env = DensityMatrix(np.outer(vec, vec.conj()), dims)
    paired_witness = markov_necessary_witnesses(paired_env)

    ok = (
        not flagged_decision.markov
        and not shared_decision.markov
        and factorized_decision.markov
        and factorized_decision.cmi <= 1e-7
        and shared_witness.npt
        and paired_witness.npt
    )
    _report(
        capfd,
        5,
        ok,
        f"flag/shared/factorized CMI {flagged_decision.cmi:.3f}/{shared_decision.cmi:.3f}/"
        f"{factorized_decision.cmi:.1e}, witness eigenvalues "
        f"{shared_witness.min_eigenvalue:.3f} and "
        f"{paired_witness.min_eigenvalue:.3f}",
    )
    assert ok


def test_inaccessible_entanglement_accounting(capfd):
    """The whole-cut supply funds the pair exactly, and the classical phase
    dial revives entanglement without ever exceeding its initial value."""
    params = SpinStarParams()
    c_abe = concurrence_a_be(params)
    ci0 = inaccessible_concurrence(c_abe, concurrence_closed_form(params, 0.0))
    worst_gap = 0.0
    min_ci = math.inf
    for t in GRID:
        c = concurrence_closed_form(params, float(t))
        ci = inaccessible_concurrence(c_abe, c)
        worst_gap = max(worst_gap, abs(ci - (1.0 - c)))
        min_ci = min(min_ci, ci)

    bell = np.zeros(4, dtype=complex)
    bell[1] = bell[2] = 1.0 / math.sqrt(2.0)
    rho_bell = DensityMatrix(np.outer(bell, bell.conj()), DimsSpec(("A", 2), ("B", 2)))
    samples = ruc_trajectory(rho_bell, np.linspace(0.0, math.pi, 101).tolist())
    hidden0 = samples[0].hidden
    c_mix0 = samples[0].mixture_concurrence
    max_gain = max(s.mixture_concurrence for s in samples) - c_mix0
    revival = samples[-1].mixture_concurrence

    ok = (
        ci0 == 1.0
        and worst_gap <= 1e-12
        and min_ci >= 0.0
        and hidden0 == 0.0
        and max_gain <= 1e-9
        and abs(revival - 1.0) <= 1e-9
    )
    _report(
        capfd,
        6,
        ok,
        f"initial reserve {ci0:g}, complement gap {worst_gap:.1e}, dial gain {max_gain:.1e}, "
        f"revival {revival:.12g}",
    )
    assert ok


def test_monotone_window_counterexample(capfd):
    """Entanglement climbs while total correlation falls.

    Between the dead-window exit and the second peak, pair concurrence rises
    from its exact initial zero and never drops on a grid step.  Pair mutual
    information (base 10) stays below its t = 0 value log10 2 throughout and
    has a single maximum strictly inside the window: it rises on every step
    up to that maximum and falls on every step from there to the second peak.
    The falling stretch, where concurrence keeps gaining, is the
    counterexample to entanglement growing only alongside total correlation.
    """
    params = SpinStarParams()
    rho0 = build_initial_state(params)
    spacing = float(GRID[1] - GRID[0])
    pair0 = evolve_sector(rho0, float(GRID[0]), params)
    c0 = concurrence_2q(pair0)
    mi0 = mutual_information(pair0, PAIR_CUT, 10)
    cs, mis = [], []
    for t in WINDOW_7:
        pair = evolve_sector(rho0, float(t), params)
        cs.append(concurrence_2q(pair))
        mis.append(mutual_information(pair, PAIR_CUT, 10))
    cs = np.array(cs)
    mis = np.array(mis)
    dc = np.diff(cs)
    dmi = np.diff(mis)
    turn = int(np.argmax(mis))
    c_ok = bool(np.all(dc >= 0.0))
    mi_ok = (
        0 < turn < WINDOW_7.size - 1
        and bool(np.all(dmi[:turn] > 0.0))
        and bool(np.all(dmi[turn:] < 0.0))
    )
    gain = float(cs[-1] - cs[turn])
    below_ok = c0 == 0.0 and float(mis.max()) < mi0
    ok = spacing <= 0.01 and c_ok and mi_ok and below_ok and gain > 0.0
    _report(
        capfd,
        7,
        ok,
        f"{WINDOW_7.size} points at spacing {spacing:.5f}: concurrence min step {dc.min():+.2e} "
        f"({'monotone' if c_ok else 'not monotone'}); mutual information "
        f"{int(np.sum(dmi > 0.0))} rising / {int(np.sum(dmi < 0.0))} falling steps, "
        f"turning at Omega t={WINDOW_7[turn]:.4f} value {mis[turn]:.4f} "
        f"({'single interior peak' if mi_ok else 'not unimodal'}); window max {mis.max():.4f} "
        f"vs MI(0) {mi0:.4f}; concurrence {gain:+.4f} while MI falls",
    )
    assert ok


def test_measurement_ensemble_equality(capfd):
    """Reading the bath flag leaves an ensemble whose average concurrence
    across the whole cut equals the closed-form constant."""
    rng = np.random.default_rng(88)
    dims = DimsSpec(("A", 2), ("B", 2), ("E", 4))
    cut = (("A",), ("B", "E"))
    flag1 = np.zeros(4, dtype=complex)
    flag1[1] = 1.0
    flag0 = np.zeros(4, dtype=complex)
    flag0[0] = 1.0
    worst = 0.0
    for _ in range(20):
        p = float(rng.uniform(0.0, 1.0))
        alpha = float(rng.uniform(0.0, 2.0 * math.pi))
        beta = float(rng.uniform(0.0, 2.0 * math.pi))
        psi1, psi2 = branch_vectors(alpha, beta)
        members = [
            EnsembleMember(p, PureState(np.kron(psi1, flag1), dims)),
            EnsembleMember(1.0 - p, PureState(np.kron(psi2, flag0), dims)),
        ]
        closed = concurrence_a_be(SpinStarParams(p=p, alpha=alpha, beta=beta))
        worst = max(worst, abs(ensemble_concurrence(members, cut) - closed))
    ok = worst <= 1e-12
    _report(capfd, 8, ok, f"max ensemble-vs-closed deviation {worst:.1e} over 20 draws")
    assert ok


def test_property_suites(capfd):
    """Invariance and monotonicity properties hold with zero violations."""
    rng = np.random.default_rng(99)
    checks = []

    worst = 0.0
    for _ in range(20):
        rho = random_density(rng, DimsSpec(("A", 2), ("B", 2)))
        u = haar_unitary(4, rng)
        rotated = DensityMatrix(u @ rho.mat @ dagger(u), rho.dims)
        worst = max(worst, abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)))
    checks.append(("entropy unitary invariance", worst, 1e-10))

    worst = 0.0
    for _ in range(20):
        rho = random_density(rng, DimsSpec(("A", 2), ("B", 2), ("E", 3)))
        direct = partial_trace(rho, ("A",))
        staged = partial_trace(partial_trace(rho, ("A", "B")), ("A",))
        worst = max(worst, float(np.max(np.abs(direct.mat - staged.mat))))
    checks.append(("partial trace composition", worst, 1e-12))

    worst = 0.0
    for _ in range(20):
        rho = random_density(rng, DimsSpec(("A", 2), ("B", 2)))
        u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        rotated = DensityMatrix(u @ rho.mat @ dagger(u), rho.dims)
        worst = max(worst, abs(concurrence_2q(rotated) - concurrence_2q(rho)))
    checks.append(("concurrence local-unitary invariance", worst, 1e-9))

    params = SpinStarParams()
    env0 = np.zeros((4, 4), dtype=complex)
    env0[0, 0] = 1.0
    worst = -math.inf
    for _ in range(10):
        rho = random_density(rng, DimsSpec(("A", 2), ("B", 2)))
        mi_before = mutual_information(rho, PAIR_CUT)
        n_branches = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(n_branches))
        channel = RandomUnitaryChannel(
            [(float(p), haar_unitary(2, rng)) for p in probs]
        )
        mixed = apply_random_unitary(channel, rho)
        worst = max(worst, mutual_information(mixed, PAIR_CUT) - mi_before)
        joint = DensityMatrix(
            np.kron(rho.mat, env0), DimsSpec(("A", 2), ("B", 2), ("E", 4))
        )
        t = float(rng.uniform(0.0, 2.0 * math.pi))
        dilated = evolve_sector(joint, t, params)
        worst = max(worst, mutual_information(dilated, PAIR_CUT) - mi_before)
    checks.append(("mutual information data processing", worst, 1e-9))

    report = verify_localized_reduction(two_flag_spec(rng), trials=100, seed=11)
    checks.append(("localized reduction excess", report.max_excess, report.tol))

    ok = report.violations == 0 and all(value <= tol for _, value, tol in checks)
    summary = ", ".join(f"{name} {value:.1e}" for name, value, _ in checks)
    _report(capfd, 9, ok, f"{summary}, {report.violations} reduction violations")
    assert ok
