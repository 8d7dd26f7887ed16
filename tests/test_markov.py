"""Tests for block-structured states, the Markov decision, and its witnesses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_density
from spinstar import (
    DensityMatrix,
    DimsSpec,
    MarkovBlock,
    MarkovBlockSpec,
    SpinStarParams,
    build_initial_state,
    build_w_state,
    concurrence_2q,
    conditional_mutual_information,
    is_markov,
    make_markov_state,
    markov_necessary_witnesses,
    partial_trace,
    sector_unitary,
    verify_localized_reduction,
)
from spinstar.linalg import haar_unitary, identity
from spinstar.markov import CMI_TOL, EXCESS_TOL, ReductionReport
from spinstar.states import PAIR_BATCH, local_pairs

# conditioning on the bath of the single-excitation state leaves
# log2(3) - 2/3 of correlation between the qubits, so it is not Markov
W_STATE_CMI = math.log2(3.0) - 2.0 / 3.0

W_AMPLITUDE = 1.0 / math.sqrt(3.0)


def symmetric_w_state():
    return build_w_state(W_AMPLITUDE, W_AMPLITUDE, W_AMPLITUDE)


def two_flag_spec(rng):
    """Classical flag structure: qubit B records which product branch holds."""
    blocks = (
        MarkovBlock(
            0.5,
            random_density(rng, DimsSpec(("A", 2))).mat,
            random_density(rng, DimsSpec(("E", 2))).mat,
        ),
        MarkovBlock(
            0.5,
            random_density(rng, DimsSpec(("A", 2))).mat,
            random_density(rng, DimsSpec(("E", 2))).mat,
        ),
    )
    return MarkovBlockSpec(2, 2, blocks)


def loop_localized_reduction(spec, trials, seed):
    """`verify_localized_reduction` as a loop of one validated pair state per trial."""
    state = make_markov_state(spec)
    c0 = concurrence_2q(partial_trace(state, state.dims.labels[:2]))
    max_c = c0
    max_excess = float("-inf")
    violations = 0
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.Generator(np.random.Philox(child))
        u = haar_unitary(2 * spec.dim_e, rng)
        c = concurrence_2q(DensityMatrix(*local_pairs(state, u)))
        excess = c - c0
        max_c = max(max_c, c)
        max_excess = max(max_excess, excess)
        if excess > EXCESS_TOL:
            violations += 1
    return ReductionReport(trials, seed, c0, max_c, max_excess, violations)


@st.composite
def reduction_specs(draw):
    """One- and two-block specs with qubits A and B, baths of 1 to 3 levels and
    left block states of rank 1 to 4 (at most their dimension)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim_e = draw(st.integers(1, 3))
    splits = draw(st.sampled_from(([(2, 1)], [(1, 2)], [(1, 1), (1, 1)])))
    rank = draw(st.integers(1, 4))
    w = draw(st.floats(0.0, 1.0))
    weights = [1.0] if len(splits) == 1 else [w, 1.0 - w]
    blocks = [
        MarkovBlock(
            weight,
            random_density(rng, DimsSpec(("A", 2), ("L", dl)), rank=min(rank, 2 * dl)).mat,
            random_density(rng, DimsSpec(("R", dr), ("E", dim_e))).mat,
        )
        for weight, (dl, dr) in zip(weights, splits)
    ]
    return MarkovBlockSpec(2, dim_e, blocks)


class TestMarkovBlockSpec:
    def test_validation(self):
        ok = MarkovBlock(1.0, np.eye(2) / 2.0, np.eye(2) / 2.0)
        with pytest.raises(ValueError, match="dim_a"):
            MarkovBlockSpec(1, 2, (ok,))
        with pytest.raises(ValueError, match="at least one block"):
            MarkovBlockSpec(2, 2, ())
        with pytest.raises(ValueError, match="non-negative"):
            MarkovBlockSpec(2, 2, (MarkovBlock(-1.0, np.eye(2) / 2, np.eye(2) / 2),))
        with pytest.raises(ValueError, match="sum"):
            MarkovBlockSpec(2, 2, (MarkovBlock(0.5, np.eye(2) / 2, np.eye(2) / 2),))
        # block factor sizes are read off the block states and must fit dim_a, dim_e
        for left in (np.eye(3) / 3, np.zeros((0, 0))):
            with pytest.raises(ValueError, match="positive multiple of 2"):
                MarkovBlockSpec(2, 2, (MarkovBlock(1.0, left, np.eye(2) / 2),))

    def test_rejects_non_state_blocks(self):
        bad_shape = MarkovBlock(1.0, np.ones((2, 3)) / 3.0, np.eye(2) / 2.0)
        with pytest.raises(ValueError, match="must be 2x2"):
            MarkovBlockSpec(2, 2, (bad_shape,))
        negative = MarkovBlock(1.0, np.diag([1.5, -0.5]), np.eye(2) / 2.0)
        with pytest.raises(ValueError, match="semidefinite"):
            MarkovBlockSpec(2, 2, (negative,))

    def test_middle_dimension_sums_block_spans(self):
        rng = np.random.default_rng(31)
        spec = two_flag_spec(rng)
        assert spec.dim_b == 2


class TestMakeMarkovState:
    def test_single_block_is_a_plain_product(self):
        rng = np.random.default_rng(32)
        left = random_density(rng, DimsSpec(("A", 2), ("L", 2))).mat
        right = random_density(rng, DimsSpec(("E", 3))).mat
        spec = MarkovBlockSpec(2, 3, (MarkovBlock(1.0, left, right),))
        state = make_markov_state(spec)
        assert state.dims.labels == ("A", "B", "E")
        assert state.dims.dims == (2, 2, 3)
        np.testing.assert_array_equal(state.mat, np.kron(left, right))

    def test_trivial_left_factor_decouples_the_first_qubit(self):
        rng = np.random.default_rng(33)
        rho_a = random_density(rng, DimsSpec(("A", 2))).mat
        rho_be = random_density(rng, DimsSpec(("R", 2), ("E", 2))).mat
        spec = MarkovBlockSpec(2, 2, (MarkovBlock(1.0, rho_a, rho_be),))
        state = make_markov_state(spec)
        np.testing.assert_array_equal(state.mat, np.kron(rho_a, rho_be))
        assert conditional_mutual_information(state) <= 1e-8

    def test_two_flag_blocks_are_markov(self):
        rng = np.random.default_rng(34)
        state = make_markov_state(two_flag_spec(rng))
        assert conditional_mutual_information(state) <= 1e-8
        assert is_markov(state).markov

    def test_mixed_span_blocks_are_markov(self):
        """Blocks of unequal left/right splits still condition to zero."""
        rng = np.random.default_rng(35)
        blocks = (
            MarkovBlock(
                0.4,
                random_density(rng, DimsSpec(("A", 2), ("L", 2))).mat,
                random_density(rng, DimsSpec(("E", 2))).mat,
            ),
            MarkovBlock(
                0.6,
                random_density(rng, DimsSpec(("A", 2))).mat,
                random_density(rng, DimsSpec(("R", 2), ("E", 2))).mat,
            ),
        )
        spec = MarkovBlockSpec(2, 2, blocks)
        assert spec.dim_b == 4
        state = make_markov_state(spec)
        assert state.dims.dims == (2, 4, 2)
        assert conditional_mutual_information(state) <= 1e-8
        assert is_markov(state).markov


@st.composite
def markov_specs(draw):
    """A block-structured spec: 1-3 blocks, dim_a 2-3, dim_e 1-3, block factors
    of 1-2 levels, Dirichlet weights and block states of any rank."""
    dim_a, dim_e, count = draw(st.integers(2, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for weight in rng.dirichlet(np.ones(count)).tolist():
        states = []
        for fixed in (dim_a, dim_e):
            size = fixed * draw(st.integers(1, 2))
            rank = draw(st.integers(1, size))
            states.append(random_density(rng, DimsSpec(("block", size)), rank=rank).mat)
        blocks.append(MarkovBlock(weight, *states))
    return MarkovBlockSpec(dim_a, dim_e, blocks)


@settings(deadline=None, max_examples=300)
@given(markov_specs())
def test_block_states_are_markov_on_random_draws(spec):
    """The conditional mutual information of every block-structured state
    vanishes (Hayden, Jozsa, Petz and Winter, CMP 246, 359 (2004)), and the
    partial-transpose witness certifies none of them as non-Markov."""
    state = make_markov_state(spec)
    decision = is_markov(state)
    assert decision.markov
    assert decision.cmi <= CMI_TOL
    assert not markov_necessary_witnesses(state).npt


class TestIsMarkov:
    def test_flagged_mixture_is_not_markov(self):
        decision = is_markov(build_initial_state(SpinStarParams()))
        assert not decision.markov
        assert decision.cmi == pytest.approx(1.0, abs=1e-9)
        assert decision.tol == CMI_TOL

    def test_shared_excitation_state_is_not_markov(self):
        decision = is_markov(symmetric_w_state().to_density())
        assert not decision.markov
        assert decision.cmi == pytest.approx(W_STATE_CMI, abs=1e-9)

    def test_cmi_invariant_under_middle_unitary(self):
        rng = np.random.default_rng(36)
        rho = build_initial_state(SpinStarParams())
        base = conditional_mutual_information(rho)
        for _ in range(10):
            u = np.kron(np.kron(identity(2), haar_unitary(2, rng)), identity(4))
            rotated = DensityMatrix(u @ rho.mat @ u.conj().T, rho.dims)
            assert abs(conditional_mutual_information(rotated) - base) <= 1e-8


class TestWitnesses:
    def test_shared_excitation_state_is_certified(self):
        result = markov_necessary_witnesses(symmetric_w_state().to_density())
        assert result.npt
        assert result.min_eigenvalue == pytest.approx(
            -(math.sqrt(5.0) - 1.0) / 6.0, abs=1e-9
        )
        assert result.cut == "A;E after tracing B"

    def test_entangled_environments_are_certified(self):
        """Four factors: a Bell pair between the two environments survives
        tracing both carriers and shows up in the partial transpose."""
        dims = DimsSpec(("A", 2), ("EA", 2), ("B", 2), ("EB", 2))
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        vec = np.zeros(16, dtype=complex)
        for ea in range(2):
            for eb in range(2):
                vec[ea * 4 + eb] = bell[ea * 2 + eb]
        rho = DensityMatrix(np.outer(vec, vec.conj()), dims)
        result = markov_necessary_witnesses(rho)
        assert result.npt
        assert result.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
        assert result.cut == "EA;EB after tracing A, B"

    def test_product_state_passes(self):
        rng = np.random.default_rng(37)
        mats = [random_density(rng, DimsSpec((lab, 2))).mat for lab in "ABE"]
        rho = DensityMatrix(
            np.kron(np.kron(mats[0], mats[1]), mats[2]),
            DimsSpec(("A", 2), ("B", 2), ("E", 2)),
        )
        result = markov_necessary_witnesses(rho)
        assert not result.npt
        assert result.min_eigenvalue >= -1e-12

    def test_rejects_wrong_factor_count(self):
        rng = np.random.default_rng(38)
        rho = random_density(rng, DimsSpec(("A", 2), ("B", 2)))
        with pytest.raises(ValueError, match="three or four"):
            markov_necessary_witnesses(rho)

    def test_certification_implies_nonzero_cmi(self):
        """The witness is only a necessary condition, so whenever it fires the
        conditional mutual information must be above tolerance too."""
        for rho in (
            symmetric_w_state().to_density(),
            build_initial_state(SpinStarParams()),
        ):
            if markov_necessary_witnesses(rho).npt:
                assert conditional_mutual_information(rho) > CMI_TOL


def env_pair(rho, u):
    """The validated (A, B) pair after the unitary u on (B, E)."""
    return DensityMatrix(*local_pairs(rho, u))


class TestEnvUnitaryConcurrence:
    def test_identity_leaves_the_pair_alone(self):
        rho = build_initial_state(SpinStarParams())
        baseline = concurrence_2q(partial_trace(rho, ("A", "B")))
        assert concurrence_2q(env_pair(rho, identity(8))) == pytest.approx(baseline, abs=1e-12)

    def test_flagged_mixture_entanglement_can_be_pumped(self):
        """The flagged mixture is not Markov: the physical propagator on the
        coupled side raises the pair concurrence well above its initial zero."""
        params = SpinStarParams()
        rho = build_initial_state(params)
        u = sector_unitary(params, 3.332162203618774)
        assert concurrence_2q(env_pair(rho, u)) > 0.2

    def test_validation(self):
        rho = build_initial_state(SpinStarParams())
        with pytest.raises(ValueError, match="unitary must be"):
            concurrence_2q(env_pair(rho, identity(4)))
        rng = np.random.default_rng(39)
        bad = random_density(rng, DimsSpec(("A", 2), ("B", 3), ("E", 2)))
        with pytest.raises(ValueError, match="qubit"):
            concurrence_2q(env_pair(bad, identity(6)))


class TestLocalizedReduction:
    def test_markov_state_never_violates(self):
        rng = np.random.default_rng(40)
        report = verify_localized_reduction(two_flag_spec(rng), trials=100, seed=42)
        assert report.violations == 0
        assert report.trials == 100
        assert report.seed == 42
        assert report.max_excess <= report.tol
        assert report.max_concurrence >= report.initial_concurrence

    def test_deterministic_in_the_seed(self):
        rng = np.random.default_rng(41)
        spec = two_flag_spec(rng)
        first = verify_localized_reduction(spec, trials=20, seed=7)
        second = verify_localized_reduction(spec, trials=20, seed=7)
        assert first == second

    @settings(deadline=None, max_examples=60)
    @given(
        reduction_specs(),
        st.sampled_from((1, PAIR_BATCH - 1, PAIR_BATCH, PAIR_BATCH + 1, 2 * PAIR_BATCH + 3)),
        st.integers(0, 2**64 - 1),
    )
    def test_stacks_report_what_the_trial_loop_reports(self, spec, trials, seed):
        """The stacked check equals the per-trial loop, across batch seams."""
        assert verify_localized_reduction(spec, trials, seed) == loop_localized_reduction(
            spec, trials, seed
        )

    def test_validation(self):
        rng = np.random.default_rng(42)
        spec = two_flag_spec(rng)
        with pytest.raises(ValueError, match="at least one trial"):
            verify_localized_reduction(spec, trials=0)
        for bad in ({"trials": 2.5}, {"trials": True}, {"seed": 2.5}, {"seed": None}):
            with pytest.raises(TypeError, match="^trials and seed must be integers, got "):
                verify_localized_reduction(spec, **bad)
        report = verify_localized_reduction(spec, trials=np.int64(3), seed=np.uint8(7))
        assert (type(report.trials), type(report.seed)) == (int, int)
        wide = MarkovBlockSpec(
            2,
            2,
            (
                MarkovBlock(
                    1.0,
                    random_density(np.random.default_rng(43), DimsSpec(("A", 2), ("L", 2))).mat,
                    random_density(np.random.default_rng(44), DimsSpec(("R", 2), ("E", 2))).mat,
                ),
            ),
        )
        with pytest.raises(ValueError, match="qubit"):
            verify_localized_reduction(wide)
