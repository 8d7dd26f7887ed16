"""Quantum states over labeled tensor factorizations, and entropy functionals.

`DimsSpec` names the tensor factors of a Hilbert space.  `DensityMatrix` and
`PureState` validate the usual state invariants once at construction so that
downstream code can assume them.  Partial traces keep factors in their
original order; there is no implicit reordering.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import dagger, hermitian_part

__all__ = [
    "DimsSpec",
    "DensityMatrix",
    "density_spectra",
    "PureState",
    "check_probabilities",
    "check_two_qubit",
    "split_cut",
    "conjugate_local",
    "local_lift",
    "local_conjugates",
    "pair_marginals",
    "partial_trace",
    "von_neumann_entropy",
    "mutual_information",
    "mutual_information_stack",
    "conditional_mutual_information",
]

#: eigenvalues of a state in [ENTROPY_EIG_FLOOR, 0) are treated as exact zeros
ENTROPY_EIG_FLOOR = -1e-9

#: probability vectors must sum to one within this tolerance
PROB_TOL = 1e-12

#: state vectors must have unit norm within this tolerance
NORM_TOL = 1e-12

#: (factors, labels) entries kept by the cut and partial-trace caches; a run
#: uses a handful, so this only bounds a caller that makes many factorizations
_PLAN_CACHE_SIZE = 64

Cut = tuple[Iterable[str], Iterable[str]]


def check_probabilities(weights: Iterable[float], what: str) -> tuple[float, ...]:
    """The weights of a distribution over `what`s, checked and as floats.

    There must be at least one weight, each must lie in [0, 1], and their
    exact (fsum) total must be one within PROB_TOL.
    """
    probs = tuple(float(w) for w in weights)
    if not probs:
        raise ValueError(f"at least one {what} is required")
    if not all(0.0 <= p <= 1.0 for p in probs):
        raise ValueError(f"{what} weights must be non-negative and at most 1, got {probs}")
    total = math.fsum(probs)
    if abs(total - 1.0) > PROB_TOL:
        raise ValueError(f"{what} weights sum to {total:.12g}, not 1")
    return probs


@dataclass(frozen=True, slots=True, init=False)
class DimsSpec:
    """Ordered (label, dimension) factors of a tensor-product space."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]
    total_dim: int

    def __init__(self, *factors: tuple[str, int]):
        if not factors:
            raise ValueError("at least one tensor factor is required")
        labels, dims = zip(*((str(lab), int(dim)) for lab, dim in factors))
        for lab, dim in zip(labels, dims):
            if dim < 1:
                raise ValueError(f"factor {lab!r} has non-positive dimension {dim}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in {list(labels)}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "total_dim", math.prod(dims))

    def position(self, label: str) -> int:
        if label not in self.labels:
            raise ValueError(f"unknown factor label {label!r}; have {list(self.labels)}")
        return self.labels.index(label)

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        inner = ", ".join(f"{lab}:{dim}" for lab, dim in zip(self.labels, self.dims))
        return f"DimsSpec({inner})"


#: one qubit, the factor of each marginal of a two-qubit state
_QUBIT = DimsSpec(("qubit", 2))


def check_two_qubit(rho: DensityMatrix, what: str) -> None:
    """Refuse a `what` whose factors are not exactly two qubits."""
    if rho.dims.dims != (2, 2):
        raise ValueError(f"need a two-qubit {what}, got {rho.dims!r}")


def density_spectra(
    mats: np.ndarray, dims: DimsSpec, *, trace_tol: float = 1e-10, eig_floor: float = 1e-9
) -> np.ndarray:
    """Ascending spectra of a density matrix over `dims`, or of each in a (..., d, d) stack.

    Every matrix must be Hermitian, of unit trace within trace_tol and have
    no eigenvalue below -eig_floor; a failure reports the first offending
    matrix in row-major order.  The spectra are those of the symmetrized
    matrices.
    """
    mats = np.asarray(mats)
    sym = hermitian_part(mats, "density matrix")
    if sym.shape[-1] != dims.total_dim:
        raise ValueError(
            f"matrix dimension {sym.shape[-1]} does not match factors {dims!r}"
            f" with total dimension {dims.total_dim}"
        )
    # one value per matrix, checked as a list: a numpy reduction costs more
    # than the whole check on a single matrix
    for tr in np.asarray(mats.trace(axis1=-2, axis2=-1)).ravel().tolist():
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"density matrix trace {tr:.12g} is not 1 within {trace_tol:.1e}")
    vals = np.linalg.eigvalsh(sym)
    for low in vals[..., :1].ravel().tolist():
        if low < -eig_floor:
            raise ValueError(
                f"density matrix is not positive semidefinite: min eigenvalue {low:.3e}"
            )
    return vals


class DensityMatrix:
    """Validated density operator over a labeled factorization.

    Construction rejects matrices that `density_spectra` rejects: not
    Hermitian, not unit trace, or not positive semidefinite within the given
    tolerances.  `eigenvalues` is the read-only ascending spectrum of the
    symmetrized matrix that the positivity check solved for.
    """

    __slots__ = ("mat", "dims", "eigenvalues")

    def __init__(
        self,
        mat: np.ndarray,
        dims: DimsSpec,
        *,
        trace_tol: float = 1e-10,
        eig_floor: float = 1e-9,
    ):
        arr = np.array(mat, dtype=complex)
        if arr.ndim != 2:
            raise ValueError(f"density matrix must be a square matrix, got shape {arr.shape}")
        vals = density_spectra(arr, dims, trace_tol=trace_tol, eig_floor=eig_floor)
        arr.setflags(write=False)
        vals.setflags(write=False)
        self.mat = arr
        self.dims = dims
        self.eigenvalues = vals

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim}, dims={self.dims!r})"


class PureState:
    """Validated unit vector over a labeled factorization."""

    __slots__ = ("vec", "dims")

    def __init__(self, vec: np.ndarray, dims: DimsSpec):
        arr = np.array(vec, dtype=complex).reshape(-1)
        if arr.size != dims.total_dim:
            raise ValueError(
                f"vector length {arr.size} does not match factors {dims!r}"
                f" with total dimension {dims.total_dim}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("state vector has non-finite entries")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector norm {norm:.12g} is not 1 within {NORM_TOL:.1e}")
        arr.setflags(write=False)
        self.vec = arr
        self.dims = dims

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.vec, self.vec.conj()), self.dims)

    def __repr__(self) -> str:
        return f"PureState(dim={self.vec.size}, dims={self.dims!r})"


def _label_group(dims: DimsSpec, labels: Iterable[str]) -> tuple[str, ...]:
    group = tuple(labels)
    if not group:
        raise ValueError("label group must be non-empty")
    if len(set(group)) != len(group):
        raise ValueError(f"repeated labels in group {group}")
    for lab in group:
        dims.position(lab)  # raises on unknown label
    return group


def split_cut(dims: DimsSpec, cut: Cut) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The two label groups of a bipartition (X, Y) of all factors in `dims`."""
    return _split_cut(dims, tuple(cut[0]), tuple(cut[1]))


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _split_cut(
    dims: DimsSpec, x: tuple[str, ...], y: tuple[str, ...]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    x_group, y_group = _label_group(dims, x), _label_group(dims, y)
    if set(x_group) & set(y_group):
        raise ValueError(f"cut groups overlap: {x_group} vs {y_group}")
    if len(x_group) + len(y_group) != len(dims):
        raise ValueError(
            f"cut {x_group} vs {y_group} does not partition factors {list(dims.labels)}"
        )
    return x_group, y_group


def local_lift(u: np.ndarray) -> np.ndarray:
    """I_A x u for a matrix u or for each u in a (..., h, h) stack, without a kron."""
    half = u.shape[-1]
    full = np.zeros(u.shape[:-2] + (2 * half, 2 * half), dtype=complex)
    full[..., :half, :half] = full[..., half:, half:] = u
    return full


def local_conjugates(mat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(I_A x u) mat (I_A x u)^dagger, for a matrix u or for each u in a (..., h, h) stack.

    mat is (2h, 2h) with qubit A as its first factor; nothing is validated.
    """
    full = local_lift(u)
    return full @ mat @ dagger(full)


def pair_marginals(mats: np.ndarray) -> np.ndarray:
    """The (A, B) pair of a (4h, 4h) matrix, or of each in a (..., 4h, 4h) stack.

    Qubits A and B are the first two factors and the rest are traced out;
    nothing is validated.
    """
    rest = mats.shape[-1] // 4
    blocks = mats.reshape(mats.shape[:-2] + (4, rest, 4, rest))
    return np.einsum(blocks, [..., 0, 2, 1, 2], [..., 0, 1])


def conjugate_local(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    """The (A, B) pair of (I_A x u) rho (I_A x u)^dagger.

    rho starts with qubits A and B; u acts on B and all later factors, which are traced out.
    """
    if rho.dims.dims[:2] != (2, 2):
        raise ValueError(f"need qubit A and qubit B as the first two factors, got {rho.dims!r}")
    half = rho.dim // 2
    if np.shape(u) != (half, half):
        raise ValueError(f"unitary must be {half}x{half}, got {np.shape(u)}")
    mat = local_conjugates(rho.mat, np.asarray(u))
    if len(rho.dims) == 2:
        return DensityMatrix(mat, rho.dims)
    _, _, pair_dims = _trace_plan(rho.dims, rho.dims.labels[:2])
    return DensityMatrix(pair_marginals(mat), pair_dims)


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Trace out every factor not listed in `keep`.

    Kept factors preserve their original order regardless of the order given.
    """
    operand, out, sub = _trace_plan(rho.dims, tuple(keep))
    reduced = np.einsum(rho.mat.reshape(rho.dims.dims * 2), operand, out)
    return DensityMatrix(reduced.reshape(sub.total_dim, sub.total_dim), sub)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _trace_plan(
    dims: DimsSpec, keep: tuple[str, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], DimsSpec]:
    """The einsum axes that trace `dims` down to the `keep` factors, and the kept factors."""
    keep_set = set(_label_group(dims, keep))
    kept = [i for i, lab in enumerate(dims.labels) if lab in keep_set]
    n = len(dims)
    # bra axis i pairs with ket axis n + i; a traced factor reuses i for both
    ket = [n + i if i in kept else i for i in range(n)]
    out = kept + [n + i for i in kept]
    sub = DimsSpec(*((dims.labels[i], dims.dims[i]) for i in kept))
    return (*range(n), *ket), tuple(out), sub


def _check_base(base: float) -> float:
    if base not in (2, 10, math.e):
        raise ValueError(f"log base must be 2, e, or 10, got {base!r}")
    return float(base)


def _spectrum_entropy(vals: np.ndarray, base: float) -> float:
    """-sum(p log p) of one ascending spectrum in a checked base, 0 log 0 = 0.

    The one entropy kernel: a vectorised sum over a stack of spectra rounds
    differently, so stacks call this once per spectrum.
    """
    low = float(vals[0])
    if low < ENTROPY_EIG_FLOOR:
        raise ValueError(f"state eigenvalue {low:.3e} below floor {ENTROPY_EIG_FLOOR:.1e}")
    # a spectrum with no zero needs no mask: the same values give the same sum
    probs = vals if low > 0.0 else vals[vals > 0.0]
    return float(-(probs @ np.log(probs)) / math.log(base))


def _checked_mutual_information(s_x: float, s_y: float, s_xy: float) -> float:
    value = s_x + s_y - s_xy
    if value < -1e-9:
        raise ArithmeticError(f"mutual information {value:.3e} below -1e-9; numeric corruption")
    return value


def von_neumann_entropy(rho: DensityMatrix, base: float = 2) -> float:
    """Spectral entropy -sum(p log p) of a density matrix, 0 log 0 = 0."""
    return _spectrum_entropy(rho.eigenvalues, _check_base(base))


def mutual_information(rho: DensityMatrix, cut: Cut, base: float = 2) -> float:
    """S(X) + S(Y) - S(XY) for a bipartition (X, Y) of all factors."""
    base = _check_base(base)
    x_group, y_group = split_cut(rho.dims, cut)
    return _checked_mutual_information(
        von_neumann_entropy(partial_trace(rho, x_group), base),
        von_neumann_entropy(partial_trace(rho, y_group), base),
        von_neumann_entropy(rho, base),
    )


def mutual_information_stack(mats: np.ndarray, spectra: np.ndarray, base: float = 2) -> np.ndarray:
    """I(A:B) of each two-qubit density matrix in a (T, 4, 4) stack.

    The matrices must already be validated, and spectra is their (T, 4)
    ascending spectra, as `density_spectra` returns both.  Each value has
    the bits `mutual_information` gives for the A|B cut of that matrix, and
    a failure gives its message for the first offending matrix.
    """
    base = _check_base(base)
    pairs = mats.reshape(-1, 2, 2, 2, 2)
    # the A and B marginals of each pair, traced as `partial_trace` traces
    keep_a = np.einsum(pairs, [4, 0, 1, 2, 1], [4, 0, 2])
    keep_b = np.einsum(pairs, [4, 0, 1, 0, 2], [4, 1, 2])
    marginal_spectra = density_spectra(np.stack([keep_a, keep_b], axis=1), _QUBIT)
    return np.array(
        [
            _checked_mutual_information(
                _spectrum_entropy(s_a, base),
                _spectrum_entropy(s_b, base),
                _spectrum_entropy(s_ab, base),
            )
            for (s_a, s_b), s_ab in zip(marginal_spectra, spectra)
        ]
    )


def conditional_mutual_information(rho: DensityMatrix, base: float = 2) -> float:
    """I(X:Z|Y) = S(XY) + S(YZ) - S(Y) - S(XYZ) for a three-factor state.

    The middle factor in the stored order is the conditioning system.  Strong
    subadditivity makes the result non-negative up to rounding.
    """
    base = _check_base(base)
    if len(rho.dims) != 3:
        raise ValueError(f"need exactly three factors, got {list(rho.dims.labels)}")
    first, mid, last = rho.dims.labels
    value = (
        von_neumann_entropy(partial_trace(rho, (first, mid)), base)
        + von_neumann_entropy(partial_trace(rho, (mid, last)), base)
        - von_neumann_entropy(partial_trace(rho, (mid,)), base)
        - von_neumann_entropy(rho, base)
    )
    if value < -1e-8:
        raise ArithmeticError(
            f"conditional mutual information {value:.3e} violates strong subadditivity"
        )
    return value
