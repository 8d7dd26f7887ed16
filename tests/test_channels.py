"""Tests for operator-sum extraction, discord checks, and unitary-dial models."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import TWO_QUBITS, bell_pair, density_from_vec, random_density
from spinstar import (
    DensityMatrix,
    DimsSpec,
    EnsembleMember,
    KrausChannel,
    RandomUnitaryChannel,
    SpinStarParams,
    ZeroDiscordFamily,
    apply_channel,
    apply_random_unitary,
    build_initial_state,
    build_w_state,
    choi_matrix,
    concurrence_2q,
    discord_zero_check,
    evolve_sector,
    extract_kraus,
    hidden_entanglement,
    partial_trace,
    ruc_trajectory,
    zero_discord_family,
)
from spinstar import cli, model
from spinstar.channels import (
    COMPLETENESS_TOL,
    PHASE_DIAL_WEIGHTS,
    RucSample,
    _phase_dial,
    kraus_audit,
    kraus_operators,
    ruc_columns,
)
from spinstar.linalg import dagger, haar_unitary, identity, max_abs, ordered_sum
from spinstar.model import ENV_LEVELS, LARGE_N, sector_unitaries, sector_unitary
from spinstar.states import PAIR_BATCH, local_pairs

#: special values of each branch angle in the random draws
SPECIAL_ANGLES = (0.0, math.pi / 4, math.pi / 2, math.pi)


def default_family(**overrides):
    params = SpinStarParams(**overrides)
    return zero_discord_family(params), params


def loop_mixture(family, levels):
    """The family's mixture matrix as a loop of np.kron terms builds it, member by member."""
    mat = None
    for weight, psi, flag in zip(family.probabilities, family.system_states, family.env_flags):
        padded = np.zeros(levels, dtype=complex)
        padded[: flag.size] = flag
        term = weight * np.kron(np.outer(psi, psi.conj()), np.outer(padded, padded.conj()))
        mat = term if mat is None else mat + term
    return mat


def loop_extract_kraus(family, params, t):
    """The Kraus operators at time t and their completeness residual, one np.kron each."""
    levels = family.flag_dim + 1
    blocks = sector_unitary(params, t, levels=levels).reshape(2, levels, 2, levels)
    operators = []
    for psi, flag in zip(family.system_states, family.env_flags):
        padded = np.zeros(levels, dtype=complex)
        padded[: flag.size] = flag
        projector = np.outer(psi, psi.conj())
        for k in range(levels):
            b_map = np.tensordot(blocks[:, k, :, :], padded, axes=([2], [0]))
            operators.append(np.kron(identity(2), b_map) @ projector)
    residual = max_abs(sum(dagger(k) @ k for k in operators) - identity(4))
    return np.array(operators), residual


def loop_kraus_audit(family, params, times):
    """Residual, Choi minimum and channel-vs-evolution gap at each time, one time at a time."""
    levels = family.flag_dim + 1
    dims = DimsSpec(("A", 2), ("B", 2), ("E", levels))
    mixture = DensityMatrix(loop_mixture(family, levels), dims)
    rho0 = partial_trace(mixture, ("A", "B")).mat
    rows = []
    for t in times:
        operators, residual = loop_extract_kraus(family, params, t)
        choi = np.zeros((16, 16), dtype=complex)
        via_channel = np.zeros_like(rho0)
        for k in operators:
            v = k.T.reshape(-1)
            choi += np.outer(v, v.conj())
            via_channel = via_channel + k @ rho0 @ dagger(k)
        full = np.kron(identity(2), sector_unitary(params, t, levels))
        joint = full @ mixture.mat @ dagger(full)
        via_evolution = np.einsum(joint.reshape(4, levels, 4, levels), [0, 2, 1, 2], [0, 1])
        gap = float(np.max(np.abs(via_channel - via_evolution)))
        rows.append((residual, float(np.linalg.eigvalsh(choi)[0]), gap))
    return tuple(np.array(column) for column in zip(*rows))


def model_draw(rng):
    """Model parameters over LARGE_N and baths of 2 to 5000 spins, p in {0, 1, random},
    and branch angles at special values or random."""

    def angle():
        if rng.random() < 0.6:
            return SPECIAL_ANGLES[rng.integers(len(SPECIAL_ANGLES))]
        return float(rng.uniform(0.0, 2.0 * math.pi))

    env = LARGE_N
    if rng.random() < 0.7:
        env = int(round(math.exp(rng.uniform(math.log(2.0), math.log(5000.0)))))
    p = (0.0, 1.0, float(rng.random()))[rng.integers(3)]
    coupling = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
    return SpinStarParams(env_spins=env, coupling=coupling, p=p, alpha=angle(), beta=angle())


def draw_times(rng, params, size):
    """Check times: t = 0, the kraus-check range of omega*t, and long times up to omega*t = 1e7."""
    short = rng.uniform(0.0, 4.0 * math.pi, size - 3)
    long = np.exp(rng.uniform(0.0, math.log(1e7), 2))
    omega_t = np.concatenate([[0.0], short, long])
    return [float(x) / params.omega for x in omega_t]


def haar_family(rng):
    """Random orthonormal pair states and bath flags with random weights."""
    return ZeroDiscordFamily(
        tuple(rng.dirichlet(np.ones(4))), tuple(haar_unitary(4, rng)), tuple(haar_unitary(4, rng))
    )


class TestZeroDiscordFamily:
    def test_states_and_flags_are_orthonormal(self):
        family, _ = default_family(alpha=0.7, beta=2.1)
        stack = np.array(family.system_states)
        np.testing.assert_allclose(stack @ dagger(stack), identity(4), atol=1e-15)
        flags = np.array(family.env_flags)
        np.testing.assert_allclose(flags @ dagger(flags), identity(4), atol=1e-15)

    def test_symmetric_point_yields_maximally_entangled_members(self):
        family, _ = default_family()
        r = 1.0 / math.sqrt(2.0)
        expected = [
            [0.0, r, r, 0.0],
            [r, 0.0, 0.0, r],
            [0.0, -r, r, 0.0],
            [-r, 0.0, 0.0, r],
        ]
        np.testing.assert_allclose(np.array(family.system_states), expected, atol=1e-15)

    def test_default_mixture_reproduces_initial_state(self):
        family, params = default_family(p=0.3, alpha=0.5, beta=1.1)
        assert np.array_equal(family.mixture().mat, build_initial_state(params).mat)

    def test_mixture_padding(self):
        family, _ = default_family()
        wide = family.mixture(levels=5)
        assert wide.dims.dims == (2, 2, 5)
        assert np.trace(wide.mat).real == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="truncate"):
            family.mixture(levels=3)

    def test_validation(self):
        e = identity(2)
        with pytest.raises(ValueError, match="equal length"):
            ZeroDiscordFamily((1.0,), (e[0], e[1]), (e[0], e[1]))
        with pytest.raises(ValueError, match="non-negative"):
            ZeroDiscordFamily((1.2, -0.2), (e[0], e[1]), (e[0], e[1]))
        with pytest.raises(ValueError, match="sum"):
            ZeroDiscordFamily((0.5, 0.4), (e[0], e[1]), (e[0], e[1]))
        with pytest.raises(ValueError, match="orthonormal"):
            ZeroDiscordFamily((0.5, 0.5), (e[0], e[0]), (e[0], e[1]))
        with pytest.raises(ValueError, match="orthonormal"):
            ZeroDiscordFamily((0.5, 0.5), (e[0], e[1]), (e[0], 0.5 * e[1]))

    @pytest.mark.parametrize("levels", [4, 5])
    def test_mixture_has_the_bits_of_the_kron_loop(self, levels):
        """The stacked mixture equals the member-by-member np.kron sum byte for
        byte, for the model's families and for random ones whose members overlap."""
        rng = np.random.default_rng(40 + levels)
        for i in range(150):
            if i % 2:
                family = haar_family(rng)
            else:
                params = model_draw(rng)
                probabilities = None if rng.random() < 0.5 else tuple(rng.dirichlet(np.ones(4)))
                family = zero_discord_family(params, probabilities)
            expected = loop_mixture(family, levels)
            assert family.mixture(levels).mat.tobytes() == expected.tobytes()

    def test_custom_probabilities(self):
        params = SpinStarParams()
        family = zero_discord_family(params, probabilities=(0.1, 0.2, 0.3, 0.4))
        assert family.probabilities == (0.1, 0.2, 0.3, 0.4)
        assert len(family) == 4


class TestExtractKraus:
    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_refuses_a_bad_time_as_the_closed_forms_do(self, bad):
        """A bad time is refused before any propagator is built, so none warns."""
        family, params = default_family()
        message = f"^time must be finite and non-negative, got {bad!r}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                extract_kraus(family, params, bad)
            with pytest.raises(ValueError, match=message):
                kraus_audit(family, params, [0.5, bad])

    def test_member_count(self):
        family, params = default_family()
        channel = extract_kraus(family, params, 0.9)
        assert len(channel) == 20
        assert channel.dim == 4

    def test_time_zero_fixes_the_branch_mixture(self):
        family, params = default_family(p=0.3, alpha=0.5, beta=1.1)
        pair0 = partial_trace(family.mixture(), ("A", "B"))
        out = apply_channel(extract_kraus(family, params, 0.0), pair0)
        assert np.max(np.abs(out.mat - pair0.mat)) <= 1e-12

    def test_completeness_across_times(self):
        rng = np.random.default_rng(21)
        family, params = default_family()
        for t in rng.uniform(0.0, 4.0 * math.pi, size=8):
            channel = extract_kraus(family, params, float(t))
            assert channel.residual <= 1e-9

    def test_matches_traced_unitary_evolution(self):
        """Operator-sum output equals joint evolution followed by the bath
        trace, including members three and four when they carry weight."""
        rng = np.random.default_rng(22)
        for _ in range(10):
            params = SpinStarParams(
                alpha=float(rng.uniform(0.0, 2.0 * math.pi)),
                beta=float(rng.uniform(0.0, 2.0 * math.pi)),
            )
            probs = tuple(rng.dirichlet(np.ones(4)))
            family = zero_discord_family(params, probabilities=probs)
            t = float(rng.uniform(0.0, 2.0 * math.pi))
            channel = extract_kraus(family, params, t)
            pair0 = partial_trace(family.mixture(), ("A", "B"))
            via_channel = apply_channel(channel, pair0)
            via_trace = evolve_sector(family.mixture(levels=5), t, params)
            assert np.max(np.abs(via_channel.mat - via_trace.mat)) <= 1e-9

    def test_incomplete_family_is_rejected(self):
        e = identity(2)
        psi1 = np.array([0.0, 1.0, 0.0, 0.0])
        psi2 = np.array([1.0, 0.0, 0.0, 0.0])
        family = ZeroDiscordFamily((0.5, 0.5), (psi1, psi2), (e[1], e[0]))
        with pytest.raises(ValueError, match="bath truncation too small"):
            extract_kraus(family, SpinStarParams(), 0.7)

    def test_rejects_non_pair_system_states(self):
        e = identity(2)
        family = ZeroDiscordFamily((0.5, 0.5), (e[0], e[1]), (e[0], e[1]))
        with pytest.raises(ValueError, match="two-qubit"):
            extract_kraus(family, SpinStarParams(), 0.1)


class TestStackedKraus:
    """The stacked operators and audit against the one-time loops they replace."""

    def test_operators_and_residuals_have_the_bits_of_the_loop(self):
        rng = np.random.default_rng(31)
        for i in range(120):
            params = model_draw(rng)
            probabilities = None if i % 3 else tuple(rng.dirichlet(np.ones(4)))
            family = zero_discord_family(params, probabilities)
            times = draw_times(rng, params, 5)
            operators, residuals = kraus_operators(family, sector_unitaries(params, times, 5))
            for t, ops, residual in zip(times, operators, residuals):
                expected_ops, expected_residual = loop_extract_kraus(family, params, t)
                assert ops.tobytes() == expected_ops.tobytes()
                assert residual == expected_residual
                channel = extract_kraus(family, params, t)
                assert channel.operators.tobytes() == expected_ops.tobytes()
                assert channel.residual == expected_residual

    def test_random_families_have_the_bits_of_the_loop(self):
        rng = np.random.default_rng(32)
        params = SpinStarParams(env_spins=7)
        for _ in range(40):
            family = haar_family(rng)
            t = float(rng.uniform(0.0, 10.0))
            expected_ops, expected_residual = loop_extract_kraus(family, params, t)
            channel = extract_kraus(family, params, t)
            assert channel.operators.tobytes() == expected_ops.tobytes()
            assert channel.residual == expected_residual

    def test_audit_has_the_bits_of_the_one_time_route(self):
        """kraus-check's stacked times give each time's residual, Choi minimum
        and deviation exactly as the time-by-time loop does."""
        rng = np.random.default_rng(33)
        for i in range(60):
            params = model_draw(rng)
            probabilities = None if i % 3 else tuple(rng.dirichlet(np.ones(4)))
            family = zero_discord_family(params, probabilities)
            times = draw_times(rng, params, 10)
            got = kraus_audit(family, params, times)
            expected = loop_kraus_audit(family, params, times)
            for column, reference in zip(got, expected):
                assert column.tobytes() == reference.tobytes()

    def test_each_time_has_its_own_scalar_propagator(self, monkeypatch):
        """The stack is built from one `sector_unitary` call per time, so its bits
        are the scalar route's whatever a vectorised cos would round to."""
        calls = []

        def counted(params, t, levels=model.ENV_LEVELS):
            calls.append((t, levels))
            return sector_unitary(params, t, levels)

        monkeypatch.setattr(model, "sector_unitary", counted)
        family, params = default_family(p=0.3)
        times = [0.0, 0.4, 1e6]
        kraus_audit(family, params, times)
        assert calls == [(t, 5) for t in times]

    def test_audit_rejects_an_incomplete_family(self):
        e = identity(2)
        psi1 = np.array([0.0, 1.0, 0.0, 0.0])
        psi2 = np.array([1.0, 0.0, 0.0, 0.0])
        family = ZeroDiscordFamily((0.5, 0.5), (psi1, psi2), (e[1], e[0]))
        with pytest.raises(ValueError, match="bath truncation too small"):
            kraus_audit(family, SpinStarParams(), [0.2, 0.7])

    def test_propagators_must_match_the_flags(self):
        family, params = default_family()
        with pytest.raises(ValueError, match="10x10 propagators"):
            kraus_operators(family, sector_unitaries(params, [0.3], 4))


@st.composite
def kraus_check_draws(draw):
    """Model parameters over p in [0, 1], branch angles in [0, 2 pi], baths of
    2 to 5000 spins or LARGE_N and couplings in [0.25, 4], with ten check
    times omega*t in [0, 1e3] that kraus-check admits."""
    p = draw(st.one_of(st.sampled_from((0.0, 1e-9, 1.0)), st.floats(0.0, 1.0)))
    angle = st.one_of(st.sampled_from(SPECIAL_ANGLES), st.floats(0.0, 2.0 * math.pi))
    params = SpinStarParams(
        env_spins=draw(st.one_of(st.integers(2, 5000), st.just(LARGE_N))),
        coupling=draw(st.floats(0.25, 4.0)),
        p=p,
        alpha=draw(angle),
        beta=draw(angle),
    )
    omega_times = draw(st.lists(st.floats(0.0, 1e3), min_size=10, max_size=10))
    # raises where kraus-check would exit 2
    cli._check_angles(params, max(omega_times), ENV_LEVELS - 1)
    return params, [omega_t / params.omega for omega_t in omega_times]


@settings(deadline=None, max_examples=300)
@given(kraus_check_draws())
def test_kraus_completeness_and_positivity_hold_on_random_draws(drawn):
    """Each of kraus-check's three bounds holds at every drawn time."""
    params, times = drawn
    residuals, choi_min, deviations = kraus_audit(zero_discord_family(params), params, times)
    assert residuals.max() <= COMPLETENESS_TOL
    assert choi_min.min() >= cli.KRAUS_CHOI_FLOOR
    assert deviations.max() <= cli.KRAUS_DEV_TOL


class TestKrausChannel:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            KrausChannel([])
        with pytest.raises(ValueError, match="must all be"):
            KrausChannel([identity(4), identity(2)])
        with pytest.raises(ValueError, match="completeness residual"):
            KrausChannel([identity(4) / 2.0])

    def test_identity_channel(self):
        rng = np.random.default_rng(23)
        channel = KrausChannel([identity(4)])
        assert channel.residual == 0.0
        rho = random_density(rng, TWO_QUBITS)
        out = apply_channel(channel, rho)
        np.testing.assert_allclose(out.mat, rho.mat, atol=1e-15)

    def test_apply_preserves_trace(self):
        rng = np.random.default_rng(24)
        family, params = default_family()
        channel = extract_kraus(family, params, 1.3)
        pair0 = partial_trace(family.mixture(), ("A", "B"))
        out = apply_channel(channel, pair0)
        assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-12)

    def test_apply_rejects_dimension_mismatch(self):
        channel = KrausChannel([identity(4)])
        rho = DensityMatrix(np.eye(2) / 2.0, DimsSpec(("B", 2)))
        with pytest.raises(ValueError, match="does not match"):
            apply_channel(channel, rho)

    def test_choi_matrix_of_identity_channel(self):
        choi = choi_matrix(KrausChannel([identity(4)]))
        assert np.trace(choi).real == pytest.approx(4.0)
        vals = np.linalg.eigvalsh(choi)
        assert vals[-1] == pytest.approx(4.0, abs=1e-12)
        assert np.all(vals[:-1] <= 1e-12)

    def test_choi_matrix_is_positive_for_extracted_channels(self):
        family, params = default_family()
        for t in (0.4, 1.7, 3.0):
            choi = choi_matrix(extract_kraus(family, params, t))
            assert np.linalg.eigvalsh(choi)[0] >= -1e-8


def loop_discord_zero_check(rho, flags):
    """`discord_zero_check` as a loop of full-size np.kron projectors, one per flag."""
    sys_dim = rho.dim // rho.dims.dims[-1]
    dephased = np.zeros_like(rho.mat)
    for f in flags:
        pinned = np.kron(identity(sys_dim), np.outer(f, f.conj()))
        dephased += pinned @ rho.mat @ pinned
    return max_abs(rho.mat - dephased)


def loop_random_unitary(channel, rho):
    """`apply_random_unitary` as a mixture of validated per-branch `local_pairs` states."""
    branches = zip(channel.probabilities, channel.unitaries)
    return ordered_sum((p * DensityMatrix(*local_pairs(rho, u)).mat for p, u in branches), start=0)


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 16), st.booleans())
def test_discord_check_matches_the_kron_loop(seed, env_dim, rank, haar):
    """Random (A, B, E_d) states of any rank, dephased in the identity or a
    Haar flag basis; the blocks are summed in another order than the loop's."""
    rng = np.random.default_rng(seed)
    rho = random_density(rng, (("A", 2), ("B", 2), ("E", env_dim)), min(rank, 4 * env_dim))
    flags = haar_unitary(env_dim, rng) if haar else identity(env_dim)
    assert abs(discord_zero_check(rho, flags) - loop_discord_zero_check(rho, flags)) <= 1e-15


@settings(deadline=None, max_examples=200)
@given(
    st.one_of(st.sampled_from((0.0, 1e-9, 1.0)), st.floats(0.0, 1.0)),
    st.one_of(st.sampled_from(SPECIAL_ANGLES), st.floats(0.0, 2.0 * math.pi)),
    st.one_of(st.sampled_from(SPECIAL_ANGLES), st.floats(0.0, 2.0 * math.pi)),
)
def test_initial_state_has_exactly_no_discord_on_random_draws(p, alpha, beta):
    rho = build_initial_state(SpinStarParams(p=p, alpha=alpha, beta=beta))
    assert discord_zero_check(rho, identity(4)) == 0.0


class TestDiscordZeroCheck:
    def test_initial_state_has_no_discord_in_the_flag_basis(self):
        rho = build_initial_state(SpinStarParams())
        assert discord_zero_check(rho, identity(4)) == 0.0

    def test_shared_excitation_state_resists_dephasing(self):
        w = build_w_state(1 / math.sqrt(3), 1 / math.sqrt(3), 1 / math.sqrt(3))
        val = discord_zero_check(w.to_density(), identity(4))
        assert val == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_rotated_flag_basis(self):
        # the flag mixture is diagonal in the computational bath basis, so a
        # rotated basis mixes the branches and the check reports the damage
        rho = build_initial_state(SpinStarParams())
        r = 1.0 / math.sqrt(2.0)
        rotated = np.array(
            [[r, r, 0, 0], [r, -r, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
        )
        assert discord_zero_check(rho, rotated) > 0.1

    def test_validation(self):
        rho = build_initial_state(SpinStarParams())
        with pytest.raises(ValueError, match="flag vectors"):
            discord_zero_check(rho, identity(4)[:3])
        bad = [v for v in identity(4)]
        bad[3] = bad[2]
        with pytest.raises(ValueError, match="orthonormal"):
            discord_zero_check(rho, bad)
        single = DensityMatrix(np.eye(2) / 2.0, DimsSpec(("B", 2)))
        with pytest.raises(ValueError, match="system factor"):
            discord_zero_check(single, identity(2))


class TestRandomUnitaryChannel:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            RandomUnitaryChannel([])
        with pytest.raises(ValueError, match="non-negative"):
            RandomUnitaryChannel([(1.5, identity(2)), (-0.5, identity(2))])
        with pytest.raises(ValueError, match="sum"):
            RandomUnitaryChannel([(0.6, identity(2))])
        with pytest.raises(ValueError, match="2x2"):
            RandomUnitaryChannel([(1.0, identity(4))])
        with pytest.raises(ValueError, match="not unitary"):
            RandomUnitaryChannel([(1.0, np.array([[1.0, 0.0], [0.0, 2.0]]))])

    def test_full_dephasing_kills_bell_concurrence(self):
        channel = RandomUnitaryChannel([(0.5, identity(2)), (0.5, np.diag([1.0, -1.0]))])
        rho = density_from_vec(bell_pair(), TWO_QUBITS)
        out = apply_random_unitary(channel, rho)
        assert concurrence_2q(out) == pytest.approx(0.0, abs=1e-12)

    @settings(deadline=None, max_examples=300)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4))
    def test_apply_matches_the_branch_loop_bit_for_bit(self, seed, rank, branches):
        """Rank 1-4 pair states under 1-4 Haar branches with random weights."""
        rng = np.random.default_rng(seed)
        rho = random_density(rng, TWO_QUBITS, rank)
        weights = rng.dirichlet(np.ones(branches))
        channel = RandomUnitaryChannel([(w, haar_unitary(2, rng)) for w in weights])
        out = apply_random_unitary(channel, rho)
        assert out.mat.tobytes() == loop_random_unitary(channel, rho).tobytes()
        assert out.dims == rho.dims

    def test_apply_rejects_wrong_dims(self):
        channel = RandomUnitaryChannel([(1.0, identity(2))])
        rho = DensityMatrix(np.eye(2) / 2.0, DimsSpec(("B", 2)))
        with pytest.raises(ValueError, match="two-qubit"):
            apply_random_unitary(channel, rho)


class TestRucTrajectory:
    def test_phase_dial_concurrence_profile(self):
        rho = density_from_vec(bell_pair(), TWO_QUBITS)
        grid = [0.0, math.pi / 4, math.pi / 2, math.pi]
        samples = ruc_trajectory(rho, grid)
        assert len(samples) == 4
        for sample in samples:
            assert sample.mixture_concurrence == pytest.approx(
                abs(math.cos(sample.t)), abs=1e-12
            )
            assert sample.ensemble_concurrence == pytest.approx(1.0, abs=1e-12)
            assert sample.hidden == pytest.approx(
                1.0 - abs(math.cos(sample.t)), abs=1e-12
            )

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_refuses_a_non_finite_angle(self, bad):
        """A non-finite angle is refused before any dial is built, so none warns;
        a negative angle is a phase and runs."""
        rho = density_from_vec(bell_pair(), TWO_QUBITS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^dial angle must be finite, got {bad!r}$"):
                ruc_columns(rho, [0.0, -1.0, bad, 1.0])
            assert ruc_columns(rho, [-1.0])[1][0] == pytest.approx(math.cos(1.0), abs=1e-12)

    def test_starts_with_nothing_hidden_and_revives_fully(self):
        rho = density_from_vec(bell_pair(), TWO_QUBITS)
        samples = ruc_trajectory(rho, [0.0, math.pi])
        assert samples[0].hidden == 0.0
        assert samples[1].mixture_concurrence == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("state", ["bell", "rank-2"])
    def test_batches_match_the_single_point_route(self, state):
        """Across a batch boundary, each sample equals `hidden_entanglement` of
        the validated `local_pairs` branches at its own dial angle, bit for bit."""
        if state == "bell":
            rho = density_from_vec(bell_pair(), TWO_QUBITS)
        else:
            rho = random_density(np.random.default_rng(11), TWO_QUBITS, rank=2)
        grid = np.concatenate(
            [np.linspace(0.0, 4.0 * math.pi, PAIR_BATCH + 5), [math.pi + 1e-7, 1e5 + 0.3]]
        )
        samples = ruc_trajectory(rho, grid)
        assert len(samples) == len(grid)
        for t, sample in zip(grid, samples):
            members = [
                EnsembleMember(p, DensityMatrix(*local_pairs(rho, u)))
                for p, u in zip(PHASE_DIAL_WEIGHTS, _phase_dial(np.float64(t)))
            ]
            assert sample.t == t
            assert (
                sample.ensemble_concurrence, sample.mixture_concurrence, sample.hidden
            ) == hidden_entanglement(members)

    @pytest.mark.parametrize("state", ["bell", "mixed"])
    def test_samples_are_the_columns_field_by_field(self, state):
        """`ruc_trajectory` is the record view of `ruc_columns`: on a grid that
        crosses PAIR_BATCH boundaries, each field has the bits of its column."""
        if state == "bell":
            rho = density_from_vec(bell_pair(), TWO_QUBITS)
        else:
            rho = random_density(np.random.default_rng(5), TWO_QUBITS)
        grid = np.linspace(0.0, 4.0 * math.pi, 600)
        samples, columns = ruc_trajectory(rho, grid), ruc_columns(rho, grid)
        fields = dataclasses.fields(RucSample)
        assert len(samples) == len(grid) and len(columns) == len(fields)
        for field, column in zip(fields, columns):
            values = np.array([getattr(sample, field.name) for sample in samples])
            assert values.tobytes() == column.tobytes()

    def test_rejects_wrong_input_dims(self):
        rho = build_initial_state(SpinStarParams())
        with pytest.raises(ValueError, match="two-qubit initial state"):
            ruc_trajectory(rho, [0.0])


def test_random_phase_channel_branches():
    t = 0.9
    unitaries = _phase_dial(np.float64(2.0 * t))
    half = 0.5 * 2.0 * t
    forward = np.diag([np.exp(-1j * half), np.exp(1j * half)])
    np.testing.assert_allclose(unitaries[0], forward, atol=1e-15)
    np.testing.assert_allclose(unitaries[1], forward.conj(), atol=1e-15)
    assert PHASE_DIAL_WEIGHTS == (0.5, 0.5)
