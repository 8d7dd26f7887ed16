"""Tests for the spin-star model: parameters, closed form, and propagators."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinstar import (
    LARGE_N,
    BruteForceEvolver,
    DensityMatrix,
    DimsSpec,
    SpinStarParams,
    branch_vectors,
    build_initial_state,
    build_w_state,
    closed_form_terms,
    cmi_closed_form,
    concurrence_2q,
    concurrence_closed_form,
    concurrence_pure,
    conditional_mutual_information,
    evolve_sector,
    mutual_information,
    partial_trace,
    sector_unitary,
)
from spinstar.linalg import dagger, identity
from spinstar.cli import SWEEP_MI_TOL
from spinstar.states import PAIR_BATCH
from spinstar.model import (
    ENV_LEVELS,
    MAX_BATH_SPINS,
    PAIR_DIMS,
    PAIR_ENV_DIMS,
    ZeroDiscordFamily,
    _x_state,
    concurrence_closed_form_stack,
    mi_closed_form,
)
from test_acceptance import GRID, PAIR_CUT, WINDOW_7

# frozen against scipy.optimize.minimize_scalar on the closed form at the
# default parameters in the large-bath limit (coupling 1, so t is Omega t)
FIRST_PEAK_T = 1.1107207345395915
FIRST_PEAK_C = 0.22200792016310664
SECOND_PEAK_T = 3.332162203618774
SECOND_PEAK_C = 0.49094825562958166
# exact root 2 pi / (1 + sqrt(2)) of cos(t) = -cos(sqrt(2) t) entering the rise
ZERO_CROSSING_T = 2.602580569137146
# grid point of the large-bath pair mutual-information maximum inside the
# criterion-7 window, measured with the sector propagator
MI_TURN_T = 2.9357153961509423
# branch angles where a branch is a product state (0, pi/2) or maximally
# entangled (pi/4)
EDGE_ANGLES = (0.0, math.pi / 4, math.pi / 2)


def default_params(**overrides):
    return SpinStarParams(**overrides)


def drawn_params(data, env_spins):
    """Parameters over a bath drawn from env_spins, p at an edge, tiny or
    uniform, and special or uniform angles."""
    special = st.sampled_from((0.0, math.pi / 4.0, math.pi / 2.0, math.pi, 2.0 * math.pi))
    angle = st.one_of(special, st.floats(0.0, 2.0 * math.pi))
    return default_params(
        env_spins=data.draw(env_spins),
        coupling=data.draw(st.floats(0.1, 3.0)),
        p=data.draw(st.one_of(st.sampled_from((0.0, 1e-9, 1.0)), st.floats(0.0, 1.0))),
        alpha=data.draw(angle),
        beta=data.draw(angle),
    )


class TestSpinStarParams:
    def test_defaults(self):
        params = default_params()
        assert params.is_large_n
        assert params.coupling == 1.0
        assert params.p == 0.5
        assert params.alpha == pytest.approx(math.pi / 4)

    def test_rejects_bad_bath_size(self):
        with pytest.raises(ValueError, match="env_spins"):
            default_params(env_spins=1)
        with pytest.raises(ValueError, match="env_spins"):
            default_params(env_spins=2.5)

    def test_rejects_bad_coupling_and_probability(self):
        with pytest.raises(ValueError, match="coupling"):
            default_params(coupling=0.0)
        with pytest.raises(ValueError, match="p must lie"):
            default_params(p=-0.1)
        with pytest.raises(ValueError, match="p must lie"):
            default_params(p=1.2)

    def test_rejects_overflowing_frequencies(self):
        with pytest.raises(ValueError, match="overflows"):
            default_params(coupling=math.inf)
        with pytest.raises(ValueError, match="overflows"):
            default_params(env_spins=4, coupling=1e308)

    def test_rejects_out_of_range_angles(self):
        with pytest.raises(ValueError, match="alpha"):
            default_params(alpha=7.0)
        with pytest.raises(ValueError, match="beta"):
            default_params(beta=-0.5)

    def test_frozen(self):
        params = default_params()
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.p = 0.3


class TestFrequencies:
    def test_small_baths(self):
        two = default_params(env_spins=2, coupling=1.5)
        assert two.omega == pytest.approx(1.5 * math.sqrt(2.0))
        assert two.omega1 == pytest.approx(1.5 * math.sqrt(2.0))
        four = default_params(env_spins=4)
        assert four.omega == pytest.approx(2.0)
        assert four.omega1 == pytest.approx(math.sqrt(6.0))

    def test_large_bath_limit(self):
        params = default_params(coupling=0.7)
        assert params.omega == pytest.approx(0.7)
        assert params.omega1 == pytest.approx(0.7 * math.sqrt(2.0))
        assert params.mode_frequency(3) == pytest.approx(0.7 * 2.0)

    def test_mode_frequency_general(self):
        params = default_params(env_spins=4, coupling=1.0)
        # sqrt((n+1)(N-n)) ladder
        assert params.mode_frequency(0) == pytest.approx(2.0)
        assert params.mode_frequency(1) == pytest.approx(math.sqrt(6.0))
        assert params.mode_frequency(3) == pytest.approx(2.0)

    def test_mode_frequency_clamps_past_bath_size(self):
        params = default_params(env_spins=2)
        assert params.mode_frequency(5) == 0.0

    def test_mode_frequency_rejects_negative_index(self):
        with pytest.raises(ValueError, match="non-negative"):
            default_params().mode_frequency(-1)


class TestClosedFormAgainstSector:
    """The closed form is the X-state concurrence of the evolved pair at every
    mixing edge and branch angle, including product and absent branches, on
    the sector route and on the full-space oracle."""

    @pytest.mark.parametrize(
        "n_spins, oracle",
        [(7, False), (LARGE_N, False), (2, True), (7, True)],
        ids=["7", "inf", "oracle-2", "oracle-7"],
    )
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_matches_sector_evolution(self, n_spins, oracle, p):
        worst = 0.0
        for alpha in EDGE_ANGLES:
            for beta in EDGE_ANGLES:
                params = default_params(env_spins=n_spins, p=p, alpha=alpha, beta=beta)
                times = np.linspace(0.0, 4.0 * math.pi, 400) / params.omega
                if oracle:
                    mats = BruteForceEvolver(params).reduced_states(times)
                    pairs = [DensityMatrix(m, PAIR_DIMS) for m in mats]
                else:
                    rho0 = build_initial_state(params)
                    pairs = [evolve_sector(rho0, float(t), params) for t in times]
                for t, pair in zip(times, pairs):
                    closed = concurrence_closed_form(params, float(t))
                    worst = max(worst, abs(closed - concurrence_2q(pair)))
        assert worst <= 1e-12

    def test_product_branches_give_exactly_zero(self):
        """Only product branches carry weight, so no term ever turns positive;
        the angle of an absent branch does not matter."""
        for p, alpha, beta in [
            (0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (1.0, 0.0, 0.0),
            (1.0, 0.0, math.pi / 4), (0.0, math.pi / 4, 0.0),
        ]:
            params = default_params(p=p, alpha=alpha, beta=beta)
            for t in np.linspace(0.0, 4.0 * math.pi, 400):
                assert concurrence_closed_form(params, float(t)) == 0.0


class TestCmiClosedForm:
    @pytest.mark.parametrize("p", [0.0, 1.0, 1e-9, 1.0 - 1e-9])
    def test_matches_entropies_at_the_edges(self, p):
        for alpha in (0.0, math.pi / 2, math.pi, 1.5 * math.pi, 2.0 * math.pi):
            for beta in (0.0, math.pi / 2, math.pi, 1.5 * math.pi, 2.0 * math.pi):
                params = default_params(p=p, alpha=alpha, beta=beta)
                numeric = conditional_mutual_information(build_initial_state(params))
                assert abs(cmi_closed_form(params) - numeric) <= 1e-12

    def test_matches_entropies_on_random_draws(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            p = float(rng.uniform(0.0, 1.0))
            alpha, beta = rng.uniform(0.0, 2.0 * math.pi, size=2)
            params = default_params(p=p, alpha=float(alpha), beta=float(beta))
            numeric = conditional_mutual_information(build_initial_state(params))
            assert abs(cmi_closed_form(params) - numeric) <= 1e-12


class TestMiClosedForm:
    """The X-state mutual information against the sector route's entropies."""

    def sector_mi(self, params, times, base):
        rho0 = build_initial_state(params)
        return np.array(
            [mutual_information(evolve_sector(rho0, t, params), PAIR_CUT, base) for t in times]
        )

    @pytest.mark.parametrize("n_spins", [2, 7, LARGE_N])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_matches_sector_evolution_at_the_edges(self, n_spins, p):
        for alpha in EDGE_ANGLES + (math.pi,):
            for beta in EDGE_ANGLES + (math.pi,):
                params = default_params(env_spins=n_spins, p=p, alpha=alpha, beta=beta)
                times = np.linspace(0.0, 4.0 * math.pi, 101) / params.omega
                for base in (2, math.e, 10):
                    closed = mi_closed_form(params, times, base)
                    assert np.abs(closed - self.sector_mi(params, times, base)).max() <= SWEEP_MI_TOL

    def test_matches_sector_evolution_on_random_draws_and_long_times(self):
        rng = np.random.default_rng(33)
        for k in range(30):
            n_spins = LARGE_N if k % 3 == 0 else int(np.exp(rng.uniform(np.log(2), np.log(5000))))
            params = default_params(
                env_spins=n_spins,
                coupling=float(np.exp(rng.uniform(np.log(0.25), np.log(4.0)))),
                p=float(rng.choice([0.0, 1.0, 1e-9, rng.random()])),
                alpha=float(rng.uniform(0.0, 2.0 * math.pi)),
                beta=float(rng.uniform(0.0, 2.0 * math.pi)),
            )
            times = rng.uniform(0.0, 10 ** rng.uniform(1, 4), 40) / params.omega
            gap = np.abs(mi_closed_form(params, times, 2) - self.sector_mi(params, times, 2))
            assert gap.max() <= SWEEP_MI_TOL

    def test_initial_value_is_the_branch_mixture_information(self):
        """At t = 0 with p = 1 and alpha = pi/4 the pair is a Bell state: 2 bits."""
        params = default_params(p=1.0, alpha=math.pi / 4)
        assert mi_closed_form(params, [0.0], 2)[0] == pytest.approx(2.0, abs=1e-15)
        assert mi_closed_form(params, np.zeros((2, 3)), 2).shape == (2, 3)

    @pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
    def test_refuses_a_bad_time(self, t):
        with pytest.raises(ValueError, match="finite and non-negative"):
            mi_closed_form(default_params(), [0.0, t], 2)

    def test_refuses_a_bad_base(self):
        with pytest.raises(ValueError, match="log base"):
            mi_closed_form(default_params(), [0.0], 3)


class TestBranchVectors:
    def test_layout(self):
        psi1, psi2 = branch_vectors(0.3, 1.1)
        np.testing.assert_allclose(
            psi1, [0.0, math.sin(0.3), math.cos(0.3), 0.0], atol=1e-15
        )
        np.testing.assert_allclose(
            psi2, [math.sin(1.1), 0.0, 0.0, math.cos(1.1)], atol=1e-15
        )

    def test_orthonormal(self):
        psi1, psi2 = branch_vectors(0.9, 2.4)
        assert np.linalg.norm(psi1) == pytest.approx(1.0)
        assert np.linalg.norm(psi2) == pytest.approx(1.0)
        assert abs(np.vdot(psi1, psi2)) <= 1e-15


class TestClosedForm:
    def test_starts_at_zero(self):
        params = default_params()
        assert concurrence_closed_form(params, 0.0) == 0.0

    def test_first_peak(self):
        params = default_params()
        assert concurrence_closed_form(params, FIRST_PEAK_T) == pytest.approx(
            FIRST_PEAK_C, abs=1e-12
        )

    def test_second_peak(self):
        params = default_params()
        assert concurrence_closed_form(params, SECOND_PEAK_T) == pytest.approx(
            SECOND_PEAK_C, abs=1e-12
        )

    def test_zero_crossing(self):
        params = default_params()
        eps = 1e-6
        assert concurrence_closed_form(params, ZERO_CROSSING_T - eps) == 0.0
        assert concurrence_closed_form(params, ZERO_CROSSING_T + eps) > 0.0

    def test_rejects_negative_time(self):
        params = default_params()
        with pytest.raises(ValueError, match="non-negative"):
            closed_form_terms(params, -0.1)

    def test_rejects_infinite_time(self):
        with pytest.raises(ValueError, match="finite"):
            concurrence_closed_form(default_params(), math.inf)

    @pytest.mark.parametrize("seed", range(4))
    def test_terms_match_the_per_point_formula_bit_for_bit(self, seed):
        """The time-independent weights are computed once per parameter set
        with the expressions the per-point formula used."""
        rng = np.random.default_rng(seed)
        p = float(rng.choice([0.0, 1.0, rng.random()]))
        alpha, beta = rng.uniform(0.0, 2.0 * math.pi, size=2)
        params = default_params(
            env_spins=int(rng.integers(2, 5000)), coupling=1.3, p=p, alpha=alpha, beta=beta
        )
        for t in rng.uniform(0.0, 60.0, size=50):
            assert closed_form_terms(params, float(t)) == per_point_terms(params, float(t))

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_stacked_closed_form_matches_the_scalar(self, data):
        """Over p at an edge, tiny or uniform, special or uniform angles, a
        finite or LARGE_N bath and grids from t = 0 to omega*t up to 1e6, the
        stack view stays within 4 eps of the scalar one, zeros included as +0.0."""
        params = drawn_params(data, st.one_of(st.just(LARGE_N), st.integers(2, 5000)))
        last = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 1e6)))
        times = np.linspace(0.0, last, data.draw(st.integers(1, 60))) / params.omega
        scalar = np.array([concurrence_closed_form(params, t) for t in times.tolist()])
        stacked = concurrence_closed_form_stack(params, times)
        assert np.all(np.abs(stacked - scalar) <= 4.0 * sys.float_info.epsilon)
        assert not np.signbit(stacked).any()

    @pytest.mark.parametrize("bad", [-0.1, math.inf, math.nan])
    def test_stacked_closed_form_refuses_a_bad_time_as_the_scalar_does(self, bad):
        params = default_params()
        with pytest.raises(ValueError) as scalar:
            concurrence_closed_form(params, bad)
        with pytest.raises(ValueError) as stacked:
            concurrence_closed_form_stack(params, [0.0, 1.0, bad, -5.0])
        assert str(stacked.value) == str(scalar.value)

    def test_first_term_never_wins_at_default_point(self):
        """With all populations equal the geometric-mean penalty dominates the
        first term, so every revival comes from the second one."""
        params = default_params()
        for t in np.linspace(0.0, 4.0 * math.pi, 500):
            term1, _ = closed_form_terms(params, float(t))
            assert term1 <= 1e-15


class TestXState:
    #: the (row, column) entries of p00, p01, p10, p11, z(00,11) and z(01,10)
    ENTRIES = ([0, 1, 2, 3, 0, 1], [0, 1, 2, 3, 3, 2])

    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_matches_the_sector_and_oracle_pairs(self, data):
        """Both views of the six values equal their entries of the sector
        route's pair and, for N <= 62, of the full-space oracle's, on a finite
        bath up to N = 5000 or LARGE_N, up to omega*t = 100."""
        bath = st.one_of(st.just(LARGE_N), st.integers(2, MAX_BATH_SPINS), st.integers(2, 5000))
        params = drawn_params(data, bath)
        omega_ts = data.draw(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8))
        times = np.array(omega_ts) / params.omega
        rho0 = build_initial_state(params)
        pairs = [evolve_sector(rho0, t, params).mat for t in times.tolist()]
        if params.env_spins <= MAX_BATH_SPINS:
            pairs += list(BruteForceEvolver(params).reduced_states(times))
        stacked = np.array(_x_state(params, times, np)).T
        scalar = np.array([_x_state(params, t, math) for t in times.tolist()])
        for view in (stacked, scalar):
            for k, pair in enumerate(pairs):
                gap = np.abs(pair[self.ENTRIES] - view[k % times.size])
                assert gap.max() <= 1e-12


class TestFiniteBathRate:
    @pytest.mark.parametrize("n_spins", [32, 62, 128, 1000])
    def test_gap_to_the_large_bath_limit_falls_as_one_over_n(self, n_spins):
        """N max |c_N - c_LARGE_N| over 4001 points of omega*t in [0, 4 pi]
        measured 4.366, 4.358, 4.343 and 4.329 at these N."""
        omega_ts = np.linspace(0.0, 4.0 * math.pi, 4001)
        finite, limit = default_params(env_spins=n_spins), default_params()
        gap = np.abs(
            concurrence_closed_form_stack(finite, omega_ts / finite.omega)
            - concurrence_closed_form_stack(limit, omega_ts / limit.omega)
        )
        assert 4.30 <= n_spins * gap.max() <= 4.40


class TestInitialState:
    def test_pure_branch_is_rank_one(self):
        rho = build_initial_state(default_params(p=1.0))
        vals = np.linalg.eigvalsh(rho.mat)
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(vals[:-1] <= 1e-12)

    def test_reduced_pair_is_branch_mixture(self):
        params = default_params(p=0.3, alpha=0.5, beta=1.1)
        rho = build_initial_state(params)
        pair = partial_trace(rho, ("A", "B"))
        psi1, psi2 = branch_vectors(0.5, 1.1)
        expected = 0.3 * np.outer(psi1, psi1.conj()) + 0.7 * np.outer(psi2, psi2.conj())
        np.testing.assert_allclose(pair.mat, expected, atol=1e-15)

    def test_flag_populations(self):
        rho = build_initial_state(default_params(p=0.3))
        env = partial_trace(rho, ("E",))
        np.testing.assert_allclose(np.diag(env.mat).real, [0.7, 0.3, 0.0, 0.0], atol=1e-15)

    def test_flagged_mixture_requires_members(self):
        with pytest.raises(ValueError, match="member"):
            ZeroDiscordFamily([], [], [])


class TestWState:
    def test_amplitude_layout(self):
        w = build_w_state(0.6, 0.48, 0.64)
        assert w.vec[1] == pytest.approx(0.6)
        assert w.vec[4] == pytest.approx(0.48)
        assert w.vec[8] == pytest.approx(0.64)
        assert np.count_nonzero(w.vec) == 3

    def test_rejects_zero_amplitude(self):
        with pytest.raises(ValueError, match="non-zero"):
            build_w_state(0.0, 1.0 / math.sqrt(2), 1.0 / math.sqrt(2))

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError, match="norm"):
            build_w_state(0.5, 0.5, 0.5)
        # a squared norm 1e-9 off is refused by PureState's one norm check
        x = math.sqrt((1.0 + 1e-9) / 3.0)
        with pytest.raises(ValueError, match=r"^state vector norm .* is not 1 within 1\.0e-12$"):
            build_w_state(x, x, x)

    def test_isolated_qubit_decouples_as_its_amplitude_vanishes(self):
        eps = 1e-3
        w = build_w_state(eps, math.sqrt(1.0 - 2.0 * eps * eps), eps)
        c = concurrence_pure(w, (("A",), ("B", "E")))
        assert c == pytest.approx(2.0 * eps, rel=1e-4)


class TestSectorUnitary:
    def test_time_zero_is_identity(self):
        u = sector_unitary(default_params(), 0.0)
        np.testing.assert_array_equal(u, identity(2 * ENV_LEVELS))

    def test_unitarity(self):
        for t in (0.3, 1.7, 5.2):
            u = sector_unitary(default_params(env_spins=4), t, levels=5)
            np.testing.assert_allclose(u @ dagger(u), identity(10), atol=1e-12)

    def test_quarter_period_swap(self):
        # large-bath ground mode has frequency g, so theta = pi/2 at t = pi/2
        u = sector_unitary(default_params(), math.pi / 2)
        start = np.zeros(2 * ENV_LEVELS)
        start[ENV_LEVELS + 0] = 1.0  # |1_B, 0>
        target = np.zeros(2 * ENV_LEVELS, dtype=complex)
        target[1] = -1j  # -i |0_B, 1>
        np.testing.assert_allclose(u @ start, target, atol=1e-15)

    def test_ground_state_is_stationary(self):
        u = sector_unitary(default_params(env_spins=6), 2.1)
        start = np.zeros(2 * ENV_LEVELS)
        start[0] = 1.0
        np.testing.assert_allclose(u @ start, start, atol=1e-15)

    def test_rejects_single_level(self):
        with pytest.raises(ValueError, match="two bath levels"):
            sector_unitary(default_params(), 1.0, levels=1)

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_refuses_a_bad_time_as_the_closed_forms_do(self, bad):
        """A bad time is refused before any cos is taken, so none warns."""
        params = default_params(env_spins=4)
        with pytest.raises(ValueError) as closed:
            concurrence_closed_form(params, bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as propagator:
                sector_unitary(params, bad)
            with pytest.raises(ValueError) as evolved:
                evolve_sector(build_initial_state(params), bad, params)
        assert str(propagator.value) == str(evolved.value) == str(closed.value)


class TestEvolveSector:
    def test_time_zero_is_identity(self):
        rho = build_initial_state(default_params())
        out = evolve_sector(rho, 0.0, default_params())
        assert out.dims == DimsSpec(("A", 2), ("B", 2))
        np.testing.assert_array_equal(out.mat, partial_trace(rho, ("A", "B")).mat)

    def test_rejects_top_rung_population(self):
        mat = np.zeros((16, 16), dtype=complex)
        mat[7, 7] = 1.0  # |0_A 1_B, 3>
        rho = DensityMatrix(mat, PAIR_ENV_DIMS)
        with pytest.raises(ValueError, match="top bath rung"):
            evolve_sector(rho, 0.5, default_params())

    def test_rejects_wrong_factors(self):
        rho = DensityMatrix(np.eye(4) / 4.0, DimsSpec(("A", 2), ("B", 2)))
        with pytest.raises(ValueError, match="bath ladder"):
            evolve_sector(rho, 0.5, default_params())

    def test_isolated_qubit_state_is_constant(self):
        params = default_params(p=0.35, alpha=0.4, beta=2.0)
        rho = build_initial_state(params)
        before = partial_trace(rho, ("A",)).mat
        for t in (0.4, 1.9, 3.3):
            after = partial_trace(evolve_sector(rho, t, params), ("A",)).mat
            assert np.max(np.abs(after - before)) <= 1e-12


def _bit_index(evolver, *set_bits):
    """Position in the oracle's basis of the (B, bath) string with these bits."""
    return int(np.searchsorted(evolver.basis, sum(1 << b for b in set_bits)))


def _dense_reduced_pair(params, t):
    """Reference: the pair state from the dense 2^(N+1) flip-flop generator."""
    n = params.env_spins
    sigma_plus = np.array([[0, 0], [1, 0]], dtype=complex)  # raises |0> to |1>
    raise_all = sum(
        np.kron(np.kron(identity(2**i), sigma_plus), identity(2 ** (n - 1 - i))) for i in range(n)
    )
    h = params.coupling * (
        np.kron(sigma_plus, dagger(raise_all)) + np.kron(dagger(sigma_plus), raise_all)
    )
    vals, vecs = np.linalg.eigh(h)
    u = vecs @ np.diag(np.exp(-1j * vals * t)) @ dagger(vecs)
    one_excitation = np.zeros(2**n)
    one_excitation[[1 << i for i in range(n)]] = 1.0 / math.sqrt(n)
    vacuum = np.zeros(2**n)
    vacuum[0] = 1.0
    psi1, psi2 = branch_vectors(params.alpha, params.beta)
    rho = np.zeros((4, 4), dtype=complex)
    branches = ((params.p, np.kron(psi1, one_excitation)), (1.0 - params.p, np.kron(psi2, vacuum)))
    for weight, psi in branches:
        m = (np.kron(identity(2), u) @ psi).reshape(4, 2**n)
        rho += weight * (m @ dagger(m))
    return rho


def _up_row(evolver, *set_bits):
    """Row of the oracle's flip block K of the B-up string with these bits."""
    return _bit_index(evolver, *set_bits) - (evolver.basis.size - evolver.flip_block.shape[0])


class TestFullHamiltonian:
    """The oracle's flip-flop generator [[0, K], [K^T, 0]] on the (B, bath)
    bit strings with at most two excitations; qubit B is bit N, above the N
    bath-spin bits, and K runs from the strings with B up to those with B down."""

    def test_single_spin_matrix_element(self):
        evolver = BruteForceEvolver(default_params(env_spins=2, coupling=1.4))
        k = evolver.flip_block
        # <1_B, 00 | H | 0_B, 10> couples two single-excitation states
        assert k[_up_row(evolver, 2), _bit_index(evolver, 1)] == pytest.approx(1.4)
        assert set(np.unique(k)) == {0.0, 1.4}

    def test_two_spin_spectrum_contains_collective_frequency(self):
        """The generator's spectrum is +-S and zeros, with +-g sqrt(2) in it."""
        evolver = BruteForceEvolver(default_params(env_spins=2, coupling=1.3))
        k, sigma = evolver.flip_block, evolver.frequencies
        h = np.block([[np.zeros((k.shape[0],) * 2), k], [k.T, np.zeros((k.shape[1],) * 2)]])
        expected = np.concatenate([sigma, -sigma, np.zeros(k.shape[1] - k.shape[0])])
        np.testing.assert_allclose(np.linalg.eigvalsh(h), np.sort(expected), atol=1e-12)
        assert np.min(np.abs(sigma - 1.3 * math.sqrt(2.0))) <= 1e-12

    def test_collective_matrix_element_grows_as_sqrt_n(self):
        g = 0.9
        evolver = BruteForceEvolver(default_params(env_spins=4, coupling=g))
        bra = np.zeros(evolver.flip_block.shape[0])
        bra[_up_row(evolver, 4)] = 1.0  # |1_B, 0000>
        ket = np.zeros(evolver.flip_block.shape[1])
        ket[[_bit_index(evolver, i) for i in range(4)]] = 0.5  # |0_B, Dicke 1>
        assert bra @ evolver.flip_block @ ket == pytest.approx(g * 2.0, abs=1e-12)

    def test_conserves_total_excitation(self):
        evolver = BruteForceEvolver(default_params(env_spins=5, coupling=1.1))
        rows, cols = np.nonzero(evolver.flip_block)
        up = evolver.basis[evolver.basis.size - evolver.flip_block.shape[0] :][rows]
        down = evolver.basis[cols]
        assert np.all(up >> 5 == 1) and np.all(down >> 5 == 0)
        np.testing.assert_array_equal(
            [int(s).bit_count() for s in up], [int(s).bit_count() for s in down]
        )
        # every coupling moves one excitation between B and one bath spin
        assert all(int(s).bit_count() == 2 for s in up ^ down)

    def test_basis_holds_the_strings_with_at_most_two_excitations(self):
        for n_spins in (2, 10, 20):
            evolver = BruteForceEvolver(default_params(env_spins=n_spins))
            assert evolver.basis.size == 1 + (n_spins + 1) + math.comb(n_spins + 1, 2)
            assert np.all(np.diff(evolver.basis) > 0)
            assert all(int(s).bit_count() <= 2 for s in evolver.basis)
            assert evolver.basis[-1] < 2 ** (n_spins + 1)

    def test_rejects_out_of_range_sizes(self):
        for n_spins in (1, 10**400):
            with pytest.raises(ValueError, match="env_spins"):
                default_params(env_spins=n_spins)
        for n_spins in (MAX_BATH_SPINS + 1, MAX_BATH_SPINS + 2):
            with pytest.raises(ValueError, match="cap"):
                BruteForceEvolver(default_params(env_spins=n_spins))


def per_point_terms(params, t):
    """`closed_form_terms` with every weight recomputed at each point."""
    p = params.p
    sin_a, cos_a = math.sin(params.alpha), math.cos(params.alpha)
    sin_b, cos_b = math.sin(params.beta), math.cos(params.beta)
    a = (1.0 - p) * sin_b**2
    b = (1.0 - p) * cos_b**2
    c = 0.5 * (1.0 - p) * math.sin(2.0 * params.beta)
    d = p * sin_a**2
    e = 0.5 * p * math.sin(2.0 * params.alpha)
    f = p * cos_a**2
    omega = params.coupling * math.sqrt(params.env_spins)
    omega1 = params.coupling * math.sqrt(2.0 * (params.env_spins - 1.0))
    angle, angle1 = omega * t, omega1 * t
    cos_w, sin_w = math.cos(angle), math.sin(angle)
    cos_w1, sin_w1 = math.cos(angle1), math.sin(angle1)
    term1 = abs(e * cos_w1 * cos_w) - math.sqrt(
        (b * cos_w**2 + f * sin_w**2) * (a + d * sin_w1**2)
    )
    term2 = abs(c * cos_w) - math.sqrt((b * sin_w**2 + f * cos_w**2) * (d * cos_w1**2))
    return term1, term2


def loop_reduced_state(evolver, t):
    """The oracle's pair state at one time from its SVD factors, in complex arithmetic."""
    x, y = evolver._factors[:2]  # (A, branch, singular vector)
    cos, sin = np.cos(evolver.frequencies * t), np.sin(evolver.frequencies * t)
    c = cos * x - 1j * sin * y
    e = cos * y - 1j * sin * x
    f = (e @ evolver._g.T + evolver._h).reshape(2, -1)
    c, e = c.reshape(2, -1), e.reshape(2, -1)
    rho = np.zeros((2, 2, 2, 2), dtype=complex)  # (A, B, A', B')
    rho[:, 1, :, 1] = c @ dagger(c)
    rho[:, 0, :, 0] = e @ dagger(e) + evolver._rest
    rho[:, 1, :, 0] = c @ dagger(f)
    rho[:, 0, :, 1] = f @ dagger(c)
    return rho.reshape(4, 4)


class TestBruteForceEvolver:
    @pytest.mark.parametrize("n_spins", [2, 7, 62])
    def test_stacked_states_match_each_point_bit_for_bit(self, n_spins):
        """Every stack gives each point the bits of its own call, and the
        complex-arithmetic reading of the SVD factors up to rounding."""
        params = default_params(env_spins=n_spins, coupling=0.8, p=0.3, alpha=0.7, beta=1.2)
        evolver = BruteForceEvolver(params)
        times = np.linspace(0.0, 40.0, PAIR_BATCH + 3) / params.omega
        stacked = evolver.reduced_states(times)
        assert stacked.shape == (times.size, 4, 4)
        assert np.array_equal(evolver.reduced_states(times[5:40]), stacked[5:40])
        for t, rho in zip(times, stacked):
            assert np.array_equal(evolver.reduced_state(t).mat, rho)
            assert np.max(np.abs(loop_reduced_state(evolver, t) - rho)) <= 1e-15

    def test_stacked_states_refuse_a_negative_time(self):
        evolver = BruteForceEvolver(default_params(env_spins=2))
        with pytest.raises(ValueError, match=r"^time must be finite and non-negative, got -2\.0$"):
            evolver.reduced_states([0.0, 1.0, -2.0, -3.0])

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_refuses_a_bad_time_as_the_closed_forms_do(self, bad):
        """A bad time is refused before any cos is taken, so none warns."""
        evolver = BruteForceEvolver(default_params(env_spins=2))
        with pytest.raises(ValueError) as closed:
            concurrence_closed_form(evolver.params, bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as stacked:
                evolver.reduced_states([0.0, bad, 1.0])
            with pytest.raises(ValueError) as single:
                evolver.reduced_state(bad)
        assert str(stacked.value) == str(single.value) == str(closed.value)

    def test_time_zero_matches_branch_mixture(self):
        params = default_params(env_spins=4, p=0.3, alpha=0.5, beta=1.1)
        pair = BruteForceEvolver(params).reduced_state(0.0)
        psi1, psi2 = branch_vectors(0.5, 1.1)
        expected = 0.3 * np.outer(psi1, psi1.conj()) + 0.7 * np.outer(psi2, psi2.conj())
        np.testing.assert_allclose(pair.mat, expected, atol=1e-12)

    def test_rejects_large_bath_and_negative_time(self):
        with pytest.raises(ValueError, match="finite"):
            BruteForceEvolver(default_params())
        evolver = BruteForceEvolver(default_params(env_spins=2))
        with pytest.raises(ValueError, match="non-negative"):
            evolver.reduced_state(-1.0)

    def test_isolated_qubit_state_is_constant(self):
        params = default_params(env_spins=4, p=0.35, alpha=0.4, beta=2.0)
        evolver = BruteForceEvolver(params)
        before = partial_trace(evolver.reduced_state(0.0), ("A",)).mat
        for t in (0.7, 2.3):
            after = partial_trace(evolver.reduced_state(t), ("A",)).mat
            assert np.max(np.abs(after - before)) <= 1e-12

    @pytest.mark.parametrize("n_spins", [2, 4])
    def test_sector_propagator_matches_full_space(self, n_spins):
        """The truncated ladder propagator reproduces the dense evolution of
        the reduced pair entrywise."""
        params = default_params(env_spins=n_spins, p=0.4, alpha=0.6, beta=1.3)
        evolver = BruteForceEvolver(params)
        rho0 = build_initial_state(params)
        for t in np.linspace(0.0, 2.0 * math.pi / params.omega, 10):
            dense = evolver.reduced_state(float(t)).mat
            laddered = evolve_sector(rho0, float(t), params).mat
            assert np.max(np.abs(dense - laddered)) <= 1e-9

    @pytest.mark.parametrize("n_spins", [2, 3, 5])
    def test_matches_dense_full_space_evolution(self, n_spins):
        """Dropping the strings with three or more excitations loses nothing."""
        params = default_params(env_spins=n_spins, p=0.3, alpha=2.2, beta=0.4, coupling=0.8)
        evolver = BruteForceEvolver(params)
        for t in np.linspace(0.0, 9.0, 7):
            dense = _dense_reduced_pair(params, float(t))
            assert np.max(np.abs(evolver.reduced_state(float(t)).mat - dense)) <= 1e-13

    @pytest.mark.parametrize("n_spins", [12, MAX_BATH_SPINS])
    def test_closed_form_agreement_on_large_baths(self, n_spins):
        params = default_params(env_spins=n_spins, p=0.4, alpha=0.6, beta=1.3)
        evolver = BruteForceEvolver(params)
        for omega_t in np.linspace(0.0, 30.0, 60):
            t = float(omega_t) / params.omega
            numeric = concurrence_2q(evolver.reduced_state(t))
            assert abs(concurrence_closed_form(params, t) - numeric) <= 1e-12

    def test_concurrence_tracks_closed_form(self):
        params = default_params(env_spins=6)
        evolver = BruteForceEvolver(params)
        for t in np.linspace(0.1, 3.0, 7):
            closed = concurrence_closed_form(params, float(t))
            numeric = concurrence_2q(evolver.reduced_state(float(t)))
            assert abs(closed - numeric) <= 1e-9


def _shannon10(probs):
    probs = np.asarray(probs, dtype=float)
    probs = probs[probs > 0.0]
    return float(-np.sum(probs * np.log10(probs)))


class TestWindowMutualInformation:
    """Pair mutual information between the dead-window exit and the second
    concurrence peak rises to one interior maximum and then falls, whichever
    route produces the pair state."""

    @pytest.mark.parametrize("n_spins", [6, 8])
    def test_dense_oracle_has_single_interior_maximum(self, n_spins):
        """Full-space evolution, independent of the ladder reduction, shows
        the same mutual-information shape on its own window."""
        params = default_params(env_spins=n_spins)
        evolver = BruteForceEvolver(params)
        omega_ts = GRID[GRID <= 4.0]
        pairs = [evolver.reduced_state(float(wt) / params.omega) for wt in omega_ts]
        cs = np.array([concurrence_2q(pair) for pair in pairs])
        mis = np.array([mutual_information(pair, PAIR_CUT, 10) for pair in pairs])
        peaks = np.flatnonzero((cs[1:-1] > cs[:-2]) & (cs[1:-1] > cs[2:])) + 1
        assert peaks.size == 2
        exits = np.flatnonzero((cs[:-1] == 0.0) & (cs[1:] > 0.0)) + 1
        exits = exits[exits > peaks[0]]
        assert exits.size == 1 and exits[0] < peaks[1]
        window = slice(exits[0], peaks[1] + 1)
        window_c = cs[window]
        window_mi = mis[window]
        turn = int(np.argmax(window_mi))
        assert np.all(np.diff(window_c) >= 0.0)
        assert 0 < turn < window_mi.size - 1
        assert np.all(np.diff(window_mi[: turn + 1]) > 0.0)
        assert np.all(np.diff(window_mi[turn:]) < 0.0)
        assert window_mi.max() < mis[0]
        assert abs(omega_ts[exits[0] + turn] - MI_TURN_T) <= 0.02

    def test_closed_form_has_single_interior_maximum(self):
        """Criterion 7's shape on the closed form, at 20 001 points of the
        window: one interior maximum, strict rises before it and strict falls
        after it, every value below the initial log10 2."""
        params = default_params()
        omega_ts = np.linspace(2.603, 3.333, 20001)
        mis = mi_closed_form(params, omega_ts / params.omega, 10)
        turn = int(np.argmax(mis))
        assert 0 < turn < mis.size - 1
        assert np.all(np.diff(mis[: turn + 1]) > 0.0)
        assert np.all(np.diff(mis[turn:]) < 0.0)
        assert mis.max() < math.log10(2.0)
        assert abs(omega_ts[turn] - MI_TURN_T) <= 0.002

    def test_window_entropy_matches_x_state_spectrum(self):
        """mutual_information on the criterion-7 window states equals the
        Shannon form built from the X-state populations and coherences."""
        params = default_params()
        rho0 = build_initial_state(params)
        off_x = np.ones((4, 4), dtype=bool)
        off_x[np.arange(4), np.arange(4)] = False
        off_x[[0, 3, 1, 2], [3, 0, 2, 1]] = False
        for t in WINDOW_7:
            pair = evolve_sector(rho0, float(t), params)
            r = pair.mat
            assert np.max(np.abs(r[off_x])) <= 1e-15
            pops = r.diagonal().real
            spectrum = []
            for i, j in ((0, 3), (1, 2)):
                mean = 0.5 * (pops[i] + pops[j])
                radius = math.hypot(0.5 * (pops[i] - pops[j]), abs(r[i, j]))
                spectrum += [mean + radius, mean - radius]
            expected = (
                _shannon10([pops[0] + pops[1], pops[2] + pops[3]])
                + _shannon10([pops[0] + pops[2], pops[1] + pops[3]])
                - _shannon10(spectrum)
            )
            assert abs(mutual_information(pair, PAIR_CUT, 10) - expected) <= 1e-12
