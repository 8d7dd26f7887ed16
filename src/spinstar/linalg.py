"""Dense complex linear algebra primitives shared by the state and channel layers.

Everything operates on plain ``numpy.ndarray`` values with complex entries.
Inputs are treated as immutable and results are always fresh arrays.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "HERM_TOL",
    "identity",
    "dagger",
    "tensor",
    "max_abs",
    "ordered_sum",
    "projectors",
    "check_orthonormal",
    "hermitian_part",
    "herm_eig",
    "haar_unitary",
]

#: tolerance of every Hermiticity check
HERM_TOL = 1e-10

#: largest tolerated entry of the Gram matrix minus the identity
ORTHONORMALITY_TOL = 1e-12


def _readonly(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


# Pauli matrices in the basis (|0>, |1>) with |0> the lower level.
SIGMA_X = _readonly(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _readonly(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _readonly(np.array([[1, 0], [0, -1]], dtype=complex))
# Raising |0> -> |1> and lowering |1> -> |0| ladder operators.
SIGMA_PLUS = _readonly(np.array([[0, 0], [1, 0]], dtype=complex))
SIGMA_MINUS = _readonly(np.array([[0, 1], [0, 0]], dtype=complex))


def identity(dim: int) -> np.ndarray:
    """Complex identity matrix of the given dimension."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return np.eye(dim, dtype=complex)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, first factor slowest."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude (max-entry norm)."""
    return float(np.max(np.abs(m)))


def ordered_sum(terms: Iterable[np.ndarray], start: complex | None = None) -> np.ndarray:
    """Sum of arrays added one by one in the order given, such as the slices of a stack.

    The result has the bits of a loop that adds each term in turn to
    `start`, or to a copy of the first term when start is None.  A numpy
    reduction does not promise an order, and floating-point addition rounds
    differently in another one.
    """
    terms = iter(terms)
    first = next(terms)
    total = first.copy() if start is None else first + start
    for term in terms:
        total += term
    return total


def projectors(vectors: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """(M, d, d) stack of |v><v| for each of M vectors of length d, each as np.outer makes it."""
    v = np.asarray(vectors)
    return v[:, :, None] * v.conj()[:, None, :]


def check_orthonormal(vectors: Sequence[np.ndarray], what: str) -> None:
    """Reject a family of vectors whose Gram matrix is not the identity."""
    stack = np.array(vectors)
    gram = stack @ dagger(stack)
    if not max_abs(gram - identity(len(vectors))) <= ORTHONORMALITY_TOL:
        raise ValueError(f"{what} are not orthonormal within {ORTHONORMALITY_TOL:.1e}")


def hermitian_part(m: np.ndarray, what: str) -> np.ndarray:
    """(m + m^dagger) / 2 of a finite square matrix that is Hermitian within HERM_TOL.

    m may also be a (..., n, n) stack, and every matrix in it is checked; a
    failure reports the first offending matrix in row-major order.  A real
    input gives a real result, so its eigenbasis stays real.
    """
    m = np.asarray(m)
    if m.dtype != complex:  # complex128 is its own result type
        m = m.astype(np.result_type(m, float), copy=False)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{what} must be a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    m_dag = dagger(m)
    dev = np.abs(m - m_dag)
    if dev.max() > HERM_TOL:
        per_matrix = dev.max(axis=(-2, -1))
        first = np.ravel(per_matrix)[np.argmax(per_matrix > HERM_TOL)]
        raise ValueError(
            f"{what} is not Hermitian: max |m - m^dagger| = {first:.3e} exceeds {HERM_TOL:.1e}"
        )
    # symmetrize so roundoff in the input cannot leak into complex eigenvalues
    return (m + m_dag) / 2.0


def herm_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a Hermitian matrix, or of each in a (..., n, n) stack.

    Returns ``(vals, vecs)`` with eigenvalues ascending and eigenvectors as
    the columns of a unitary matrix, so ``vecs @ diag(vals) @ vecs.conj().T``
    reconstructs the input; a real symmetric input gets a real orthogonal
    matrix. Non-square or non-Hermitian input is rejected.
    """
    return np.linalg.eigh(hermitian_part(m, "herm_eig input"))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
