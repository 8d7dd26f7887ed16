"""Tests for operator-sum extraction, discord checks, and unitary-dial models."""

import math

import numpy as np
import pytest

from helpers import TWO_QUBITS, bell_pair, density_from_vec, random_density
from spinstar import (
    DensityMatrix,
    DimsSpec,
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
    partial_trace,
    random_phase_channel,
    ruc_trajectory,
    zero_discord_family,
)
from spinstar.linalg import SIGMA_Z, dagger, identity


def default_family(**overrides):
    params = SpinStarParams(**overrides)
    return zero_discord_family(params), params


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

    def test_custom_probabilities(self):
        params = SpinStarParams()
        family = zero_discord_family(params, probabilities=(0.1, 0.2, 0.3, 0.4))
        assert family.probabilities == (0.1, 0.2, 0.3, 0.4)
        assert len(family) == 4


class TestExtractKraus:
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
        channel = RandomUnitaryChannel([(0.5, identity(2)), (0.5, SIGMA_Z)])
        rho = density_from_vec(bell_pair(), TWO_QUBITS)
        out = apply_random_unitary(channel, rho)
        assert concurrence_2q(out) == pytest.approx(0.0, abs=1e-12)

    def test_apply_rejects_wrong_dims(self):
        channel = RandomUnitaryChannel([(1.0, identity(2))])
        rho = DensityMatrix(np.eye(2) / 2.0, DimsSpec(("B", 2)))
        with pytest.raises(ValueError, match="two-qubit"):
            apply_random_unitary(channel, rho)


class TestRucTrajectory:
    def test_phase_dial_concurrence_profile(self):
        rho = density_from_vec(bell_pair(), TWO_QUBITS)
        grid = [0.0, math.pi / 4, math.pi / 2, math.pi]
        samples = ruc_trajectory(random_phase_channel(1.0), rho, grid)
        assert len(samples) == 4
        for sample in samples:
            assert sample.mixture_concurrence == pytest.approx(
                abs(math.cos(sample.t)), abs=1e-12
            )
            assert sample.ensemble_concurrence == pytest.approx(1.0, abs=1e-12)
            assert sample.hidden == pytest.approx(
                1.0 - abs(math.cos(sample.t)), abs=1e-12
            )

    def test_starts_with_nothing_hidden_and_revives_fully(self):
        rho = density_from_vec(bell_pair(), TWO_QUBITS)
        samples = ruc_trajectory(random_phase_channel(1.0), rho, [0.0, math.pi])
        assert samples[0].hidden == 0.0
        assert samples[1].mixture_concurrence == pytest.approx(1.0, abs=1e-12)

    def test_rejects_wrong_input_dims(self):
        rho = build_initial_state(SpinStarParams())
        with pytest.raises(ValueError, match="two-qubit initial state"):
            ruc_trajectory(random_phase_channel(1.0), rho, [0.0])


def test_random_phase_channel_branches():
    t = 0.9
    channel = random_phase_channel(2.0)(t)
    half = 0.5 * 2.0 * t
    forward = np.diag([np.exp(-1j * half), np.exp(1j * half)])
    np.testing.assert_allclose(channel.unitaries[0], forward, atol=1e-15)
    np.testing.assert_allclose(channel.unitaries[1], forward.conj(), atol=1e-15)
    assert channel.probabilities == (0.5, 0.5)
