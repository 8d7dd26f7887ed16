"""Tests for labeled states, partial traces, and entropy functionals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import TWO_QUBITS, bell_pair, density_from_vec, random_density
from spinstar import (
    DensityMatrix,
    DimsSpec,
    PureState,
    SpinStarParams,
    build_initial_state,
    conditional_mutual_information,
    haar_unitary,
    identity,
    mutual_information,
    partial_trace,
    von_neumann_entropy,
)
from spinstar.model import BruteForceEvolver, branch_vectors, evolve_sector
from spinstar.states import (
    DENSITY_EIG_FLOOR,
    _spectrum_entropy,
    density_spectra,
    local_pairs,
    mutual_information_stack,
)


def test_dims_spec_accessors():
    dims = DimsSpec(("A", 2), ("B", 2), ("E", 4))
    assert dims.labels == ("A", "B", "E")
    assert dims.dims == (2, 2, 4)
    assert dims.total_dim == 16
    assert dims.position("B") == 1
    assert len(dims) == 3


def test_dims_spec_is_immutable():
    dims = DimsSpec(("A", 2), ("B", 2))
    for name, value in (("labels", ("X", "Y")), ("dims", (3, 3)), ("total_dim", 9)):
        with pytest.raises(AttributeError):
            setattr(dims, name, value)
    assert (dims.labels, dims.dims, dims.total_dim) == (("A", "B"), (2, 2), 4)


def test_dims_spec_equality_and_hash():
    a = DimsSpec(("A", 2), ("B", 3))
    b = DimsSpec(("A", 2), ("B", 3))
    c = DimsSpec(("B", 3), ("A", 2))
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_dims_spec_rejects_duplicates_and_bad_dims():
    with pytest.raises(ValueError, match="duplicate"):
        DimsSpec(("A", 2), ("A", 3))
    with pytest.raises(ValueError):
        DimsSpec(("A", 0))
    with pytest.raises(ValueError):
        DimsSpec()
    with pytest.raises(ValueError, match="unknown"):
        DimsSpec(("A", 2)).position("Z")


def test_dims_spec_takes_integer_dimensions_only():
    """A float dimension is refused rather than truncated; a numpy integer is
    stored as a Python int, so equal specs stay equal."""
    for bad in (2.5, 2.0, np.float64(2.0)):
        with pytest.raises(TypeError):
            DimsSpec(("A", 2), ("B", bad))
    dims = DimsSpec(("A", np.int64(2)), ("B", np.intp(3)))
    assert dims == DimsSpec(("A", 2), ("B", 3))
    assert all(type(d) is int for d in dims.dims)
    assert type(dims.total_dim) is int


def test_density_matrix_accepts_bell_projector():
    rho = density_from_vec(bell_pair(), TWO_QUBITS)
    assert rho.dim == 4
    assert abs(np.trace(rho.mat) - 1.0) <= 1e-15


def test_density_matrix_is_readonly():
    rho = density_from_vec(bell_pair(), TWO_QUBITS)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 1.0


def test_density_matrix_keeps_its_spectrum():
    rho = random_density(np.random.default_rng(4), TWO_QUBITS)
    expected = np.linalg.eigvalsh((rho.mat + rho.mat.conj().T) / 2.0)
    assert np.array_equal(rho.eigenvalues, expected)
    with pytest.raises(ValueError):
        rho.eigenvalues[0] = 1.0


def test_density_matrix_rejects_eigenvalues_below_floor():
    # every state meets the one floor at construction, so no entropy sees a spectrum below it
    mat = np.diag([0.5 + 5e-9, 0.5, 0.0, -5e-9]).astype(complex)
    message = "^density matrix is not positive semidefinite: min eigenvalue -5.000e-09$"
    with pytest.raises(ValueError, match=message):
        DensityMatrix(mat, TWO_QUBITS)


def test_density_matrix_rejects_bad_inputs():
    dims = DimsSpec(("A", 2))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]), dims)
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.diag([0.9, 0.9]), dims)
    with pytest.raises(ValueError, match="semidefinite"):
        DensityMatrix(np.diag([1.5, -0.5]), dims)
    with pytest.raises(ValueError, match="square"):
        DensityMatrix(np.ones((2, 3)), dims)
    with pytest.raises(ValueError, match="dimension"):
        DensityMatrix(np.eye(4) / 4.0, dims)
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(np.diag([np.nan, 1.0]), dims)


def _bad_two_qubit_matrices():
    good = random_density(np.random.default_rng(8), TWO_QUBITS).mat
    skew = good.copy()
    skew[0, 1] += 1e-6
    return {
        "non-hermitian": skew,
        "wrong-trace": 1.1 * good,
        "negative": np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex),
    }


@pytest.mark.parametrize("kind", ["non-hermitian", "wrong-trace", "negative"])
def test_density_spectra_of_a_stack_gives_the_density_matrix_message(kind):
    bad = _bad_two_qubit_matrices()[kind]
    good = [random_density(np.random.default_rng(seed), TWO_QUBITS).mat for seed in (1, 2, 3)]
    stack = np.array([good[0], good[1], bad, good[2]]).reshape(2, 2, 4, 4)
    with pytest.raises(ValueError) as single:
        DensityMatrix(bad, TWO_QUBITS)
    with pytest.raises(ValueError) as stacked:
        density_spectra(stack, TWO_QUBITS)
    assert str(stacked.value) == str(single.value)


def test_density_spectra_reports_the_first_bad_state_of_a_stack():
    good = random_density(np.random.default_rng(1), TWO_QUBITS).mat
    first, worse = (np.diag([0.5 + x, 0.5, 0.0, -x]).astype(complex) for x in (0.1, 0.2))
    with pytest.raises(ValueError) as single:
        DensityMatrix(first, TWO_QUBITS)
    with pytest.raises(ValueError) as stacked:
        density_spectra(np.array([good, first, worse]), TWO_QUBITS)
    assert str(stacked.value) == str(single.value)


def test_density_spectra_of_a_stack_matches_each_state():
    states = [random_density(np.random.default_rng(seed), TWO_QUBITS) for seed in range(5)]
    spectra = density_spectra(np.array([rho.mat for rho in states]), TWO_QUBITS)
    for rho, vals in zip(states, spectra):
        assert np.array_equal(vals, rho.eigenvalues)


def test_density_matrix_refuses_a_stack():
    rho = random_density(np.random.default_rng(9), TWO_QUBITS)
    with pytest.raises(ValueError, match="square matrix"):
        DensityMatrix(np.array([rho.mat, rho.mat]), TWO_QUBITS)


def test_pure_state_validation():
    dims = DimsSpec(("A", 2), ("B", 2))
    psi = PureState(bell_pair(), dims)
    assert psi.vec.size == 4
    with pytest.raises(ValueError, match="norm"):
        PureState(np.array([1.0, 1.0, 0.0, 0.0]), dims)
    with pytest.raises(ValueError, match="length"):
        PureState(np.array([1.0, 0.0]), dims)


def test_to_density_matches_outer_product():
    psi = PureState(bell_pair(), TWO_QUBITS)
    rho = psi.to_density()
    assert np.allclose(rho.mat, np.outer(psi.vec, psi.vec.conj()), atol=1e-15)
    assert rho.dims == psi.dims


def test_partial_trace_bell_gives_maximally_mixed():
    rho = density_from_vec(bell_pair(), TWO_QUBITS)
    reduced = partial_trace(rho, ("A",))
    assert np.allclose(reduced.mat, np.eye(2) / 2.0, atol=1e-15)


def test_partial_trace_of_flagged_mixture_deletes_blocks():
    """Orthonormal bath flags force the reduced pair state into a branch mixture."""
    params = SpinStarParams(p=0.3, alpha=0.5, beta=1.1)
    rho = build_initial_state(params)
    reduced = partial_trace(rho, ("A", "B"))
    psi1, psi2 = branch_vectors(params.alpha, params.beta)
    expected = 0.3 * np.outer(psi1, psi1.conj()) + 0.7 * np.outer(psi2, psi2.conj())
    assert np.max(np.abs(reduced.mat - expected)) <= 1e-15
    assert abs(np.trace(reduced.mat) - 1.0) <= 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(0)
    rho_a = random_density(rng, DimsSpec(("A", 2)))
    rho_b = random_density(rng, DimsSpec(("B", 3)))
    joint = DensityMatrix(np.kron(rho_a.mat, rho_b.mat), DimsSpec(("A", 2), ("B", 3)))
    reduced = partial_trace(joint, ("B",))
    assert np.max(np.abs(reduced.mat - rho_b.mat)) <= 1e-12


def test_partial_trace_keeps_input_order():
    # two non-adjacent factors of four, given in reverse order, against an
    # explicit reshape that traces B and then E
    rng = np.random.default_rng(1)
    rho = random_density(rng, DimsSpec(("A", 2), ("B", 3), ("C", 2), ("E", 3)))
    kept = partial_trace(rho, ("C", "A"))
    assert kept.dims == DimsSpec(("A", 2), ("C", 2))
    tensor_form = rho.mat.reshape(2, 3, 2, 3, 2, 3, 2, 3)
    reference = np.trace(np.trace(tensor_form, axis1=1, axis2=5), axis1=2, axis2=5)
    assert np.max(np.abs(kept.mat - reference.reshape(4, 4))) <= 1e-15


def test_partial_trace_composition():
    # tracing one factor at a time agrees with tracing both at once
    rng = np.random.default_rng(2)
    rho = random_density(rng, DimsSpec(("A", 2), ("B", 2), ("E", 4)))
    two_step = partial_trace(partial_trace(rho, ("A", "B")), ("A",))
    one_step = partial_trace(rho, ("A",))
    assert np.max(np.abs(two_step.mat - one_step.mat)) <= 1e-12


def test_partial_trace_rejects_unknown_label():
    rho = density_from_vec(bell_pair(), TWO_QUBITS)
    with pytest.raises(ValueError, match="unknown"):
        partial_trace(rho, ("Z",))
    with pytest.raises(ValueError):
        partial_trace(rho, ())


@pytest.mark.parametrize("factors", [(("A", 2), ("B", 2), ("E", 3)), (("X", 2), ("Y", 2))])
def test_conjugate_local_matches_kron_and_partial_trace(factors):
    """`local_pairs` of one unitary is the traced np.kron conjugation, and each
    row of a (K, h, h) stack has the bits of its own one-unitary call."""
    rng = np.random.default_rng(12)
    rho = random_density(rng, DimsSpec(*factors))
    u = haar_unitary(rho.dim // 2, rng)
    full = np.kron(identity(2), u)
    evolved = DensityMatrix(full @ rho.mat @ full.conj().T, rho.dims)
    reference = partial_trace(evolved, rho.dims.labels[:2])
    pair = DensityMatrix(*local_pairs(rho, u))
    assert pair.dims == reference.dims
    assert np.max(np.abs(pair.mat - reference.mat)) <= 1e-15
    stack = np.stack([u] + [haar_unitary(rho.dim // 2, rng) for _ in range(4)])
    mats, dims = local_pairs(rho, stack)
    assert mats.shape == (5, 4, 4) and dims == reference.dims
    for row, one in zip(mats, stack):
        assert row.tobytes() == local_pairs(rho, one)[0].tobytes()


def test_conjugate_local_refuses_bad_inputs():
    rng = np.random.default_rng(14)
    rho = random_density(rng, DimsSpec(("A", 2), ("B", 2), ("E", 3)))
    for bad in (identity(4), np.ones(6), np.ones((3, 4, 4)), np.ones((6, 6, 5))):
        with pytest.raises(ValueError, match="unitary must be 6x6"):
            local_pairs(rho, bad)
    for dims in ((("A", 3), ("B", 2)), (("A", 2), ("B", 3), ("E", 2)), (("A", 2),)):
        with pytest.raises(ValueError, match="qubit"):
            local_pairs(random_density(rng, DimsSpec(*dims)), identity(3))


def test_entropy_pure_state_is_zero():
    rho = density_from_vec(bell_pair(), TWO_QUBITS)
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)


def test_entropy_maximally_mixed_qubit():
    rho = DensityMatrix(np.eye(2) / 2.0, DimsSpec(("A", 2)))
    assert von_neumann_entropy(rho, base=2) == pytest.approx(1.0, abs=1e-14)


def test_entropy_classical_coin():
    rho = DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), DimsSpec(("E", 4)))
    assert von_neumann_entropy(rho, base=2) == pytest.approx(1.0, abs=1e-14)


def test_entropy_base_handling():
    rho = DensityMatrix(np.eye(2) / 2.0, DimsSpec(("A", 2)))
    assert von_neumann_entropy(rho, base=math.e) == pytest.approx(math.log(2.0), abs=1e-14)
    assert von_neumann_entropy(rho, base=10) == pytest.approx(math.log10(2.0), abs=1e-14)
    with pytest.raises(ValueError, match="base"):
        von_neumann_entropy(rho, base=3)


def test_mutual_information_product_state():
    rng = np.random.default_rng(3)
    rho_a = random_density(rng, DimsSpec(("A", 2)))
    rho_b = random_density(rng, DimsSpec(("B", 2)))
    joint = DensityMatrix(np.kron(rho_a.mat, rho_b.mat), TWO_QUBITS)
    mi = mutual_information(joint, (("A",), ("B",)), base=2)
    assert mi == pytest.approx(0.0, abs=1e-10)


def test_mutual_information_bell_state():
    rho = density_from_vec(bell_pair(), TWO_QUBITS)
    assert mutual_information(rho, (("A",), ("B",)), base=2) == pytest.approx(2.0, abs=1e-12)


def test_mutual_information_equal_bell_mixture():
    """The default initial pair state is an even mix of two orthogonal Bell
    states, so S(A) = S(B) = S(AB) = 1 bit and the mutual information is 1."""
    rho = build_initial_state(SpinStarParams())
    pair = partial_trace(rho, ("A", "B"))
    assert mutual_information(pair, (("A",), ("B",)), base=2) == pytest.approx(1.0, abs=1e-12)


def test_mutual_information_solves_only_the_reduced_spectra(monkeypatch):
    """The pair's own spectrum is the one its construction already solved."""
    rho = random_density(np.random.default_rng(9), TWO_QUBITS)
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        solves.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    mutual_information(rho, (("A",), ("B",)))
    assert len(solves) == 2


def _edge_pairs() -> list[np.ndarray]:
    """Two-qubit states of rank 1 to 4, among them the model's p = 0 and p = 1 pairs."""
    rng = np.random.default_rng(21)
    pairs = [density_from_vec(bell_pair(kind), TWO_QUBITS).mat for kind in ("phi+", "psi-")]
    pairs.append(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    pairs += [random_density(rng, TWO_QUBITS, rank).mat for rank in (1, 2, 3, 4)]
    for p in (0.0, 1.0):
        params = SpinStarParams(env_spins=5, p=p, alpha=0.7, beta=1.2)
        pairs += list(BruteForceEvolver(params).reduced_states([0.0, 0.9, 2.5]))
        pairs.append(evolve_sector(build_initial_state(params), 1.7, params).mat)
    return pairs


@pytest.mark.parametrize("base", [2, math.e, 10])
def test_stacked_mutual_information_matches_each_state_bit_for_bit(base):
    mats = np.array(_edge_pairs())
    stacked = mutual_information_stack(mats, density_spectra(mats, TWO_QUBITS), base)
    for mat, value in zip(mats, stacked.tolist()):
        single = mutual_information(DensityMatrix(mat, TWO_QUBITS), (("A",), ("B",)), base)
        assert value == single


def test_stacked_mutual_information_reports_the_first_negative_value():
    # a product state given the spectrum of a mixed one: S(AB) exceeds S(A) + S(B);
    # the stack puts a good state first, and reports the first of two bad ones
    bad = [DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), TWO_QUBITS) for _ in "ab"]
    bad[0].eigenvalues = np.full(4, 0.25)
    bad[1].eigenvalues = np.array([0.0, 0.0, 0.5, 0.5])
    states = [random_density(np.random.default_rng(3), TWO_QUBITS), *bad]
    message = "^mutual information -2.000e\\+00 below -1e-9; numeric corruption$"
    with pytest.raises(ArithmeticError, match=message):
        mutual_information(bad[0], (("A",), ("B",)))
    with pytest.raises(ArithmeticError, match=message):
        mutual_information_stack(
            np.array([rho.mat for rho in states]), np.array([rho.eigenvalues for rho in states])
        )


@st.composite
def spectrum_stacks(draw):
    """1 to 6 states of one dimension, 2 or 4, each diagonal with a pure, a
    maximally mixed or a drawn spectrum; drawn spectra mix exact zeros,
    eigenvalues in [-DENSITY_EIG_FLOOR, 0) and positive ones scaled to unit trace."""
    n = draw(st.sampled_from((2, 4)))
    entry = st.one_of(
        st.just(0.0),
        st.floats(-DENSITY_EIG_FLOOR, 0.0, exclude_max=True),
        st.floats(1e-300, 1.0),
    )
    dims = DimsSpec(("X", n))
    states = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("pure", "maximally mixed", "drawn")))
        if kind == "pure":
            vals = np.eye(n)[draw(st.integers(0, n - 1))]
        elif kind == "maximally mixed":
            vals = np.full(n, 1.0 / n)
        else:
            vals = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
            if not (vals > 0.0).any():
                vals[draw(st.integers(0, n - 1))] = 1.0
            positive = vals > 0.0
            vals[positive] *= (1.0 - vals[~positive].sum()) / vals[positive].sum()
        states.append(DensityMatrix(np.diag(vals).astype(complex), dims))
    return states


@settings(deadline=None)
@given(spectrum_stacks(), st.sampled_from((2, math.e, 10)))
def test_stacked_entropy_has_the_bits_of_von_neumann_entropy(states, base):
    stacked = _spectrum_entropy(np.array([rho.eigenvalues for rho in states]), float(base))
    assert stacked.shape == (len(states),)
    for rho, value in zip(states, stacked.tolist()):
        assert value.hex() == von_neumann_entropy(rho, base).hex()


def test_mutual_information_rejects_bad_cuts():
    rho = density_from_vec(bell_pair(), TWO_QUBITS)
    with pytest.raises(ValueError, match="overlap"):
        mutual_information(rho, (("A", "B"), ("B",)))
    env = np.zeros((3, 3), dtype=complex)
    env[0, 0] = 1.0
    joint = DensityMatrix(np.kron(rho.mat, env), DimsSpec(("A", 2), ("B", 2), ("E", 3)))
    with pytest.raises(ValueError, match="partition"):
        mutual_information(joint, (("A",), ("B",)))


def test_cmi_decoupled_environment():
    rng = np.random.default_rng(4)
    pair = random_density(rng, TWO_QUBITS)
    env = random_density(rng, DimsSpec(("E", 3)))
    joint = DensityMatrix(np.kron(pair.mat, env.mat), DimsSpec(("A", 2), ("B", 2), ("E", 3)))
    assert conditional_mutual_information(joint) <= 1e-9


def test_cmi_flagged_mixture_is_one_bit():
    # equal-weight branches with orthogonal flags leave one bit of A:E
    # correlation that conditioning on B cannot remove
    rho = build_initial_state(SpinStarParams())
    assert conditional_mutual_information(rho) == pytest.approx(1.0, abs=1e-9)


def test_cmi_requires_three_factors():
    rho = density_from_vec(bell_pair(), TWO_QUBITS)
    with pytest.raises(ValueError, match="three"):
        conditional_mutual_information(rho)


def test_entropy_unitary_invariance():
    from spinstar.linalg import haar_unitary

    rng = np.random.default_rng(5)
    for _ in range(20):
        rho = random_density(rng, DimsSpec(("X", 4)))
        u = haar_unitary(4, rng)
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T, rho.dims)
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) <= 1e-10
