"""Tests for concurrence measures, witnesses, and entanglement bookkeeping."""

import math

import numpy as np
import pytest

from helpers import TWO_QUBITS, bell_pair, density_from_vec, random_density
from spinstar import (
    DensityMatrix,
    DimsSpec,
    EnsembleMember,
    PureState,
    SpinStarParams,
    concurrence_2q,
    concurrence_a_be,
    concurrence_pure,
    ensemble_concurrence,
    hidden_entanglement,
    inaccessible_concurrence,
    ppt_min_eigenvalue,
)
from spinstar.entanglement import RANK_TOL, SPIN_FLIP, _spin_flip_stack, concurrence_2q_eig
from spinstar.linalg import SIGMA_Y, haar_unitary, herm_eig
from spinstar.model import (
    branch_vectors,
    build_initial_state,
    build_w_state,
    concurrence_closed_form,
    evolve_sector,
)
from spinstar.states import density_eig, partial_trace

AB_CUT = (("A",), ("B",))

# 2 |z| sqrt(x^2 + y^2) with x = y = z = 1/sqrt(3): the isolated qubit's
# reduced state is diag(2/3, 1/3), so sqrt(2 (1 - 5/9)) = 2 sqrt(2) / 3
W_STATE_C_ABE = 2.0 * math.sqrt(2.0) / 3.0

# partial transpose of Tr_B |w><w| couples (|0 1>, |1 0>) populations of 1/3
# to a transferred 1/3 coherence in the (|0 0>, |1 1>) block, whose smaller
# eigenvalue is (1 - sqrt(5)) / 6
W_STATE_PPT_MIN = -(math.sqrt(5.0) - 1.0) / 6.0


def test_concurrence_pure_product_state():
    psi = PureState(np.array([1, 0, 0, 0], dtype=complex), TWO_QUBITS)
    assert concurrence_pure(psi, AB_CUT) == pytest.approx(0.0, abs=1e-10)


def test_concurrence_pure_bell_state():
    psi = PureState(bell_pair(), TWO_QUBITS)
    assert concurrence_pure(psi, AB_CUT) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_pure_w_state_whole_cut():
    w = build_w_state(1 / math.sqrt(3), 1 / math.sqrt(3), 1 / math.sqrt(3))
    c = concurrence_pure(w, (("A",), ("B", "E")))
    assert c == pytest.approx(W_STATE_C_ABE, abs=1e-12)


def test_concurrence_pure_rejects_bad_cut():
    psi = PureState(bell_pair(), TWO_QUBITS)
    with pytest.raises(ValueError):
        concurrence_pure(psi, (("A",), ("A",)))
    with pytest.raises(ValueError):
        concurrence_pure(psi, (("A", "B"), ()))


def test_concurrence_pure_agrees_with_mixed_formula():
    """On pure two-qubit states the spin-flip value matches sqrt(2(1 - purity))."""
    rng = np.random.default_rng(10)
    for _ in range(25):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec = vec / np.linalg.norm(vec)
        psi = PureState(vec, TWO_QUBITS)
        c_pure = concurrence_pure(psi, AB_CUT)
        c_mixed = concurrence_2q(psi.to_density())
        assert abs(c_pure - c_mixed) <= 1e-9


def test_spin_flip_coefficients_match_r_spectrum():
    """The amplitude-level coefficients square to the eigenvalues of
    rho (Y x Y) rho* (Y x Y), evaluated here by a general eigensolver."""
    rng = np.random.default_rng(11)
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    for _ in range(50):
        rho = random_density(rng, TWO_QUBITS)
        lams = _spin_flip_stack(*herm_eig(rho.mat))
        r = rho.mat @ yy @ rho.mat.conj() @ yy
        oracle = np.sort(np.sqrt(np.abs(np.linalg.eigvals(r))))[::-1]
        assert np.max(np.abs(lams - oracle)) <= 1e-9
        assert np.all(np.diff(lams) <= 1e-12)


def test_concurrence_2q_bell_projector():
    rho = density_from_vec(bell_pair(), TWO_QUBITS)
    assert concurrence_2q(rho) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_2q_initial_pair_state_is_zero():
    from spinstar import build_initial_state, partial_trace

    rho = build_initial_state(SpinStarParams())
    pair = partial_trace(rho, ("A", "B"))
    assert concurrence_2q(pair) == 0.0


def test_concurrence_2q_werner_family():
    """Werner mixtures have spin-flip coefficients {(1+3w)/4, (1-w)/4 x3},
    hence concurrence max{0, (3w-1)/2}."""
    psi_minus = bell_pair("psi-")
    proj = np.outer(psi_minus, psi_minus.conj())
    for w in (0.0, 1.0 / 3.0, 0.5, 0.8, 1.0):
        rho = DensityMatrix(w * proj + (1 - w) * np.eye(4) / 4.0, TWO_QUBITS)
        lams = _spin_flip_stack(*herm_eig(rho.mat))
        expected_lams = sorted([(1 + 3 * w) / 4] + [(1 - w) / 4] * 3, reverse=True)
        assert np.max(np.abs(lams - expected_lams)) <= 1e-12
        assert concurrence_2q(rho) == pytest.approx(max(0.0, (3 * w - 1) / 2), abs=1e-12)


def test_concurrence_2q_is_the_x_state_formula_on_random_x_states():
    """2 max(0, |z(01,10)| - sqrt(p00 p11), |z(00,11)| - sqrt(p01 p10)) on X
    states with complex coherences, some at their bound and some with a
    population at zero (Wootters, PRL 80, 2245 (1998))."""
    rng = np.random.default_rng(23)
    for k in range(500):
        pops = rng.dirichlet(np.ones(4))
        if k % 5 == 0:
            pops[rng.integers(4)] = 0.0
            pops /= pops.sum()
        mat = np.diag(pops).astype(complex)
        for i, j in ((0, 3), (1, 2)):
            reach = 1.0 if rng.random() < 0.2 else rng.random()
            z = reach * math.sqrt(pops[i] * pops[j]) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            mat[i, j], mat[j, i] = z, np.conj(z)
        expected = 2.0 * max(
            0.0,
            abs(mat[1, 2]) - math.sqrt(pops[0] * pops[3]),
            abs(mat[0, 3]) - math.sqrt(pops[1] * pops[2]),
        )
        assert abs(concurrence_2q(DensityMatrix(mat, TWO_QUBITS)) - expected) <= 1e-12


def rank_deficient_states(rng):
    """Two-qubit states of rank 1 to 4, and states whose smallest eigenvalue
    sits just below, at or just above RANK_TOL."""
    mats = [
        random_density(rng, TWO_QUBITS, rank=rank).mat for rank in (1, 2, 3, 4) for _ in range(6)
    ]
    for rank in (1, 2, 3):
        for eps in (0.5 * RANK_TOL, RANK_TOL, 2.0 * RANK_TOL, 1e-11):
            base = random_density(rng, TWO_QUBITS, rank=rank).mat
            null = np.linalg.eigh(base)[1][:, 0]
            mats.append((1.0 - eps) * base + eps * np.outer(null, null.conj()))
    rng.shuffle(mats)
    return np.array(mats)


def loop_concurrence(rho):
    """The one-matrix spin-flip route the stacked kernel replaced, kept as its reference."""
    vals, vecs = np.linalg.eigh((rho.mat + rho.mat.conj().T) / 2.0)
    keep = vals > RANK_TOL
    w = vecs[:, keep] * np.sqrt(vals[keep])
    tau = w.T @ SPIN_FLIP @ w
    lams = np.zeros(4)
    if tau.size:
        sv = np.linalg.svd(tau, compute_uv=False)
        lams[: sv.size] = sv
    return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))


def test_stacked_concurrence_matches_each_state_bit_for_bit():
    mats = rank_deficient_states(np.random.default_rng(21))
    states = [DensityMatrix(m, TWO_QUBITS) for m in mats]
    smallest = np.array([rho.eigenvalues[0] for rho in states])
    # both sides of the cutoff are present
    assert np.any((0.0 < smallest) & (smallest <= RANK_TOL))
    assert np.any((RANK_TOL < smallest) & (smallest < 1e-10))
    single = np.array([concurrence_2q(rho) for rho in states])
    assert np.array_equal(single, [loop_concurrence(rho) for rho in states])
    assert np.array_equal(concurrence_2q_eig(*density_eig(mats, TWO_QUBITS)), single)
    by_rows = density_eig(mats.reshape(4, -1, 4, 4), TWO_QUBITS)
    assert np.array_equal(concurrence_2q_eig(*by_rows), single.reshape(4, -1))


def test_concurrence_2q_rejects_wrong_shape():
    rng = np.random.default_rng(12)
    rho = random_density(rng, DimsSpec(("A", 2), ("B", 3)))
    with pytest.raises(ValueError, match="qubit"):
        concurrence_2q(rho)


def test_concurrence_2q_local_unitary_invariance():
    rng = np.random.default_rng(13)
    for _ in range(30):
        rho = random_density(rng, TWO_QUBITS)
        u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T, TWO_QUBITS)
        assert abs(concurrence_2q(rotated) - concurrence_2q(rho)) <= 1e-9


def test_ppt_product_state_stays_positive():
    rng = np.random.default_rng(14)
    rho_a = random_density(rng, DimsSpec(("A", 2)))
    rho_b = random_density(rng, DimsSpec(("B", 2)))
    joint = DensityMatrix(np.kron(rho_a.mat, rho_b.mat), TWO_QUBITS)
    assert ppt_min_eigenvalue(joint, AB_CUT) >= -1e-12


def test_ppt_bell_state():
    # the partially transposed Bell projector has spectrum {1/2, 1/2, 1/2, -1/2}
    rho = density_from_vec(bell_pair(), TWO_QUBITS)
    assert ppt_min_eigenvalue(rho, AB_CUT) == pytest.approx(-0.5, abs=1e-12)


def test_ppt_w_state_reduction_is_entangled():
    from spinstar import partial_trace

    w = build_w_state(1 / math.sqrt(3), 1 / math.sqrt(3), 1 / math.sqrt(3))
    rho_ae = partial_trace(w.to_density(), ("A", "E"))
    val = ppt_min_eigenvalue(rho_ae, (("A",), ("E",)))
    assert val == pytest.approx(W_STATE_PPT_MIN, abs=1e-9)
    assert val < -1e-3


def test_ensemble_concurrence_single_member():
    psi = PureState(bell_pair(), TWO_QUBITS)
    assert ensemble_concurrence([EnsembleMember(1.0, psi)], AB_CUT) == pytest.approx(1.0)


def test_ensemble_concurrence_weighted_sum():
    product = PureState(np.array([1, 0, 0, 0], dtype=complex), TWO_QUBITS)
    bell = PureState(bell_pair(), TWO_QUBITS)
    members = [EnsembleMember(0.5, product), EnsembleMember(0.5, bell)]
    assert ensemble_concurrence(members, AB_CUT) == pytest.approx(0.5, abs=1e-12)


def test_ensemble_concurrence_flagged_branches():
    """The flagged branch ensemble across the whole cut averages the branch
    concurrences, which both equal 1 at the default angles."""
    dims = DimsSpec(("A", 2), ("B", 2), ("E", 4))
    psi1, psi2 = branch_vectors(math.pi / 4, math.pi / 4)
    flag1 = np.zeros(4)
    flag1[1] = 1.0
    flag0 = np.zeros(4)
    flag0[0] = 1.0
    members = [
        EnsembleMember(0.5, PureState(np.kron(psi1, flag1), dims)),
        EnsembleMember(0.5, PureState(np.kron(psi2, flag0), dims)),
    ]
    cut = (("A",), ("B", "E"))
    assert ensemble_concurrence(members, cut) == pytest.approx(1.0, abs=1e-12)


def test_ensemble_concurrence_validates_weights():
    psi = PureState(bell_pair(), TWO_QUBITS)
    with pytest.raises(ValueError, match="sum"):
        ensemble_concurrence([EnsembleMember(0.7, psi)], AB_CUT)
    with pytest.raises(ValueError):
        ensemble_concurrence([], AB_CUT)


def test_concurrence_a_be_values():
    assert concurrence_a_be(SpinStarParams()) == pytest.approx(1.0, abs=1e-15)
    assert concurrence_a_be(SpinStarParams(alpha=0.0, beta=0.0)) == 0.0
    assert concurrence_a_be(SpinStarParams(p=1.0, alpha=math.pi / 8)) == pytest.approx(
        math.sin(math.pi / 4), abs=1e-15
    )


def test_concurrence_a_be_matches_branch_ensemble():
    rng = np.random.default_rng(15)
    dims = DimsSpec(("A", 2), ("B", 2), ("E", 4))
    cut = (("A",), ("B", "E"))
    flag1 = np.zeros(4)
    flag1[1] = 1.0
    flag0 = np.zeros(4)
    flag0[0] = 1.0
    for _ in range(20):
        p = float(rng.uniform(0.05, 0.95))
        alpha = float(rng.uniform(0.0, 2.0 * math.pi))
        beta = float(rng.uniform(0.0, 2.0 * math.pi))
        psi1, psi2 = branch_vectors(alpha, beta)
        members = [
            EnsembleMember(p, PureState(np.kron(psi1, flag1), dims)),
            EnsembleMember(1.0 - p, PureState(np.kron(psi2, flag0), dims)),
        ]
        closed = concurrence_a_be(SpinStarParams(p=p, alpha=alpha, beta=beta))
        assert abs(ensemble_concurrence(members, cut) - closed) <= 1e-12


def test_inaccessible_concurrence():
    assert inaccessible_concurrence(1.0, 0.0) == 1.0
    assert inaccessible_concurrence(0.7, 0.7) == 0.0
    assert inaccessible_concurrence(0.5, 0.5 + 5e-10) == 0.0
    with pytest.raises(ValueError, match="below"):
        inaccessible_concurrence(0.2, 0.5)


def test_inaccessible_concurrence_of_a_column_has_the_bits_of_each_value():
    rng = np.random.default_rng(17)
    c_sys = np.concatenate([0.7 * rng.random(200), [0.0, 0.7, 0.7 + 5e-10, -0.0]])
    c_whole = 0.7
    column = inaccessible_concurrence(c_whole, c_sys)
    assert column.shape == c_sys.shape
    for value, c in zip(column.tolist(), c_sys.tolist()):
        assert value.hex() == inaccessible_concurrence(c_whole, c).hex()


@pytest.mark.parametrize(
    "c_sys, message",
    [
        ([0.1, 0.5, 0.6], "whole-cut concurrence 0.2 below system concurrence 0.5"),
        ([0.1, math.nan, 0.6], "whole-cut concurrence 0.2 below system concurrence nan"),
    ],
)
def test_inaccessible_concurrence_of_a_column_names_the_first_deficit(c_sys, message):
    with pytest.raises(ValueError) as caught:
        inaccessible_concurrence(0.2, np.array(c_sys))
    assert str(caught.value) == message


def test_hidden_entanglement_single_member():
    rho = density_from_vec(bell_pair(), TWO_QUBITS)
    c_ens, c_mix, hidden = hidden_entanglement([EnsembleMember(1.0, rho)])
    assert c_ens == pytest.approx(1.0, abs=1e-12)
    assert c_mix == pytest.approx(1.0, abs=1e-12)
    assert hidden == pytest.approx(0.0, abs=1e-12)


def test_hidden_entanglement_dephased_bell():
    """Fully dephasing one side hides all of a Bell pair's entanglement."""
    rho = density_from_vec(bell_pair(), TWO_QUBITS)
    zz = np.kron(np.eye(2), np.diag([1.0, -1.0]))
    flipped = DensityMatrix(zz @ rho.mat @ zz.conj().T, TWO_QUBITS)
    members = [EnsembleMember(0.5, rho), EnsembleMember(0.5, flipped)]
    mixture = DensityMatrix(0.5 * rho.mat + 0.5 * flipped.mat, TWO_QUBITS)
    assert concurrence_2q(mixture) == 0.0
    assert hidden_entanglement(members) == pytest.approx((1.0, 0.0, 1.0), abs=1e-12)


def test_hidden_entanglement_phase_dial_quarter_turn():
    # equal-weight opposite phase rotations at omega t = pi/4 leave the
    # mixture with concurrence cos(pi/4) while both branches stay at 1
    from spinstar import ruc_trajectory

    rho = density_from_vec(bell_pair(), TWO_QUBITS)
    (sample,) = ruc_trajectory(rho, [math.pi / 4])
    assert sample.hidden == pytest.approx(1.0 - math.cos(math.pi / 4), abs=1e-12)


def test_hidden_entanglement_needs_a_member():
    with pytest.raises(ValueError, match="at least one ensemble member"):
        hidden_entanglement([])


def test_hidden_entanglement_refuses_pure_members():
    psi = PureState(bell_pair(), TWO_QUBITS)
    with pytest.raises(ValueError, match="density matrices, got PureState"):
        hidden_entanglement([EnsembleMember(1.0, psi)])


def test_ensemble_concurrence_refuses_mixed_members():
    rho = density_from_vec(bell_pair(), TWO_QUBITS)
    with pytest.raises(ValueError, match="pure states, got DensityMatrix"):
        ensemble_concurrence([EnsembleMember(1.0, rho)], AB_CUT)


@pytest.mark.xfail(
    strict=True,
    reason="entanglement._spin_flip_stack drops an eigenvalue of 4e-13 below RANK_TOL "
    "whose amplitude still moves the concurrence by 6.9e-7",
)
def test_concurrence_near_rank_tol_matches_closed_form():
    """Row 1449 of `sweep --env-spins 22 --coupling 0.26545131498013425
    --p 0.06133020252109078 --alpha 3.946241240839475 --beta 0.7853981633974483
    --t-max 69.3891894634337 --steps 1500`, computed the way the sweep does."""
    params = SpinStarParams(
        env_spins=22,
        coupling=0.26545131498013425,
        p=0.06133020252109078,
        alpha=3.946241240839475,
        beta=0.7853981633974483,
    )
    omega_t = float(np.linspace(0.0, 69.3891894634337, 1500)[1449])
    t = omega_t / params.omega
    pair = evolve_sector(build_initial_state(params), t, params)
    assert omega_t == pytest.approx(67.0747, abs=1e-4)
    assert 0.0 < pair.eigenvalues[0] <= 1e-12
    c_closed = concurrence_closed_form(params, t)
    assert abs(concurrence_2q(pair) - c_closed) <= 1e-12
