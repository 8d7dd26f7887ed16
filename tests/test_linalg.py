"""Tests for the dense linear algebra layer."""

import numpy as np
import pytest

from spinstar.entanglement import SPIN_FLIP
from spinstar.linalg import (
    ORTHONORMALITY_TOL,
    SIGMA_Y,
    check_orthonormal,
    dagger,
    haar_unitary,
    herm_eig,
    hermitian_part,
    identity,
    max_abs,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
#: raises the lower level |0> to |1>; not Hermitian
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def test_pauli_constants():
    assert np.array_equal(SIGMA_Y @ SIGMA_Y, np.eye(2))
    assert np.array_equal(SIGMA_Y, dagger(SIGMA_Y))
    assert np.array_equal(SIGMA_Y, np.array([[0, -1j], [1j, 0]]))


def test_constants_are_readonly():
    with pytest.raises(ValueError):
        SIGMA_Y[0, 0] = 5.0
    with pytest.raises(ValueError):
        SPIN_FLIP[0, 0] = 5.0


def test_identity_basic():
    assert np.array_equal(identity(3), np.eye(3))
    assert identity(1).dtype == complex
    with pytest.raises(ValueError):
        identity(0)


def test_dagger():
    m = np.array([[1, 2j], [3, 4]], dtype=complex)
    assert np.array_equal(dagger(m), np.array([[1, 3], [-2j, 4]], dtype=complex))


def test_tensor_sigma_y_pair():
    """sigma_y x sigma_y is the real antidiagonal (-1, 1, 1, -1), and so is the spin flip."""
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = -1
    expected[1, 2] = 1
    expected[2, 1] = 1
    expected[3, 0] = -1
    assert np.array_equal(yy, expected)
    assert SPIN_FLIP.dtype == np.float64
    assert np.array_equal(SPIN_FLIP, expected.real)


def test_max_abs():
    assert max_abs(np.array([[1, -3j], [2, 0]])) == 3.0


def test_herm_eig_identity():
    vals, _ = herm_eig(identity(3))
    assert np.allclose(vals, [1, 1, 1], atol=1e-14)


def test_herm_eig_sigma_x():
    """sigma_x has spectrum -1, +1 with (1, -/+ 1)/sqrt(2) eigenvectors up to phase."""
    vals, vecs = herm_eig(SIGMA_X)
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-14)
    for k, target in enumerate([np.array([1, -1]) / np.sqrt(2), np.array([1, 1]) / np.sqrt(2)]):
        overlap = abs(np.vdot(target, vecs[:, k]))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_herm_eig_reconstruction():
    rng = np.random.default_rng(3)
    m = random_hermitian(rng, 8)
    vals, vecs = herm_eig(m)
    assert max_abs(vecs @ np.diag(vals) @ dagger(vecs) - m) <= 1e-10
    assert max_abs(dagger(vecs) @ vecs - identity(8)) <= 1e-10
    assert vals[0] <= vals[-1]


def test_herm_eig_trace_and_determinant():
    # eigenvalue sum tracks the trace, product tracks the determinant
    rng = np.random.default_rng(4)
    for dim in (2, 4, 8):
        m = random_hermitian(rng, dim)
        vals, _ = herm_eig(m)
        assert abs(np.sum(vals) - np.trace(m).real) <= 1e-10
        assert abs(np.prod(vals) - np.linalg.det(m).real) <= 1e-8


def test_herm_eig_keeps_a_real_symmetric_input_real():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6))
    m = m + m.T
    vals, vecs = herm_eig(m)
    assert vecs.dtype == np.float64
    assert max_abs(vecs @ np.diag(vals) @ vecs.T - m) <= 1e-12
    assert max_abs(vecs.T @ vecs - np.eye(6)) <= 1e-12


def test_herm_eig_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        herm_eig(np.ones((2, 3)))


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        herm_eig(SIGMA_PLUS)


def test_herm_eig_rejects_non_finite():
    m = np.array([[np.inf, 0], [0, 1]], dtype=complex)
    with pytest.raises(ValueError):
        herm_eig(m)


def test_herm_eig_of_a_stack_matches_each_matrix():
    rng = np.random.default_rng(6)
    stack = np.array([random_hermitian(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
    vals, vecs = herm_eig(stack)
    for idx in np.ndindex(2, 3):
        single_vals, single_vecs = herm_eig(stack[idx])
        assert np.array_equal(vals[idx], single_vals)
        assert np.array_equal(vecs[idx], single_vecs)


@pytest.mark.parametrize(
    "bad", [2.0 * SIGMA_PLUS, np.array([[np.nan, 0.0], [0.0, 1.0]])], ids=["non-hermitian", "nan"]
)
def test_hermitian_part_of_a_stack_gives_the_single_matrix_message(bad):
    stack = np.array([identity(2), SIGMA_X, bad, 3.0 * SIGMA_PLUS])
    with pytest.raises(ValueError) as single:
        hermitian_part(bad, "input")
    with pytest.raises(ValueError) as stacked:
        hermitian_part(stack, "input")
    assert str(stacked.value) == str(single.value)


def test_hermitian_part_rejects_a_stack_of_non_square_matrices():
    with pytest.raises(ValueError, match="square"):
        hermitian_part(np.ones((3, 2, 3)), "input")


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(8)
    for dim in (2, 5, 8):
        u = haar_unitary(dim, rng)
        assert max_abs(dagger(u) @ u - identity(dim)) <= 1e-12
        check_orthonormal(u, "rows")


def test_check_orthonormal_takes_a_family_or_a_stack():
    """Rows of one (n, d) array, or of each matrix in a stack, at ORTHONORMALITY_TOL."""
    check_orthonormal(identity(4)[:2], "vectors")
    rng = np.random.default_rng(9)
    stack = np.stack([[haar_unitary(3, rng) for _ in range(4)] for _ in range(2)])
    check_orthonormal(stack, "rows")
    message = f"^rows are not orthonormal within {ORTHONORMALITY_TOL:.1e}$"
    for scale in (1.0 + 10.0 * ORTHONORMALITY_TOL, np.nan):
        bad = stack.copy()
        bad[1, 2, 0] *= scale
        with pytest.raises(ValueError, match=message):
            check_orthonormal(bad, "rows")
    with pytest.raises(ValueError, match="^vectors are not orthonormal"):
        check_orthonormal(identity(4)[[0, 1, 1]], "vectors")


def test_haar_unitary_deterministic_per_seed():
    u1 = haar_unitary(4, np.random.default_rng(123))
    u2 = haar_unitary(4, np.random.default_rng(123))
    assert np.array_equal(u1, u2)
