"""Quantum states over labeled tensor factorizations, and entropy functionals.

`DimsSpec` names the tensor factors of a Hilbert space.  `DensityMatrix` and
`PureState` validate the usual state invariants once at construction so that
downstream code can assume them.  Partial traces keep factors in their
original order; there is no implicit reordering.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import dagger, hermitian_part

__all__ = [
    "DimsSpec",
    "DensityMatrix",
    "PureState",
    "partial_trace",
    "von_neumann_entropy",
    "mutual_information",
    "conditional_mutual_information",
]

#: density matrices must have unit trace within this tolerance
DENSITY_TRACE_TOL = 1e-10

#: a density matrix with an eigenvalue below -DENSITY_EIG_FLOOR is not positive
#: semidefinite; the entropies treat eigenvalues in [-DENSITY_EIG_FLOOR, 0] as zeros
DENSITY_EIG_FLOOR = 1e-9

#: a mutual information below -MI_SIGN_TOL is numerical corruption
MI_SIGN_TOL = 1e-9

#: a conditional mutual information below -SSA_TOL violates strong subadditivity
SSA_TOL = 1e-8

#: probability vectors must sum to one within this tolerance
PROB_TOL = 1e-12

#: state vectors must have unit norm within this tolerance
NORM_TOL = 1e-12

#: (factors, labels) entries kept by the cut and partial-trace caches; a run
#: uses a handful, so this only bounds a caller that makes many factorizations
_PLAN_CACHE_SIZE = 64

#: grid points or trials per stacked batch of pair states, in `channels.ruc_columns`,
#: `sweep --oracle` and `markov.verify_localized_reduction`: a batch's pair stacks and
#: checks stay near 1 MB whatever the length.  256 to 2048 points per batch ran equally
#: fast, and larger batches only raised the peak resident set
PAIR_BATCH = 256

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
        labels, dims = zip(*((str(lab), operator.index(dim)) for lab, dim in factors))
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


#: the factors of a two-qubit (A, B) pair
PAIR_DIMS = DimsSpec(("A", 2), ("B", 2))


def check_two_qubit(rho: DensityMatrix, what: str) -> None:
    """Refuse a `what` whose factors are not exactly two qubits."""
    if rho.dims.dims != (2, 2):
        raise ValueError(f"need a two-qubit {what}, got {rho.dims!r}")


def _density_hermitian_part(mats: np.ndarray, dims: DimsSpec, trace_tol: float) -> np.ndarray:
    """The symmetrized matrices of a density matrix over `dims` or of a stack,
    once each is Hermitian and of unit trace within trace_tol."""
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
    return sym


def _check_positive(vals: np.ndarray) -> None:
    """Refuse ascending spectra where one has an eigenvalue below -DENSITY_EIG_FLOOR."""
    for low in vals[..., :1].ravel().tolist():
        if low < -DENSITY_EIG_FLOOR:
            raise ValueError(
                f"density matrix is not positive semidefinite: min eigenvalue {low:.3e}"
            )


def density_spectra(
    mats: np.ndarray,
    dims: DimsSpec,
    *,
    trace_tol: float = DENSITY_TRACE_TOL,
) -> np.ndarray:
    """Ascending spectra of a density matrix over `dims`, or of each in a (..., d, d) stack.

    Every matrix must be Hermitian, of unit trace within trace_tol and have
    no eigenvalue below -DENSITY_EIG_FLOOR; a failure reports the first
    offending matrix in row-major order.  The spectra are those of the
    symmetrized matrices.
    """
    vals = np.linalg.eigvalsh(_density_hermitian_part(mats, dims, trace_tol))
    _check_positive(vals)
    return vals


def density_eig(mats: np.ndarray, dims: DimsSpec) -> tuple[np.ndarray, np.ndarray]:
    """`density_spectra`'s checks at its default tolerances, returning each
    matrix's eigendecomposition.

    One eigh of the symmetrized stack gives (vals, vecs): eigenvalues
    ascending and eigenvectors as columns, as `linalg.herm_eig` returns them
    for the same matrices.  Its eigenvalues can differ from eigvalsh's in the
    last bit.
    """
    vals, vecs = np.linalg.eigh(_density_hermitian_part(mats, dims, DENSITY_TRACE_TOL))
    _check_positive(vals)
    return vals, vecs


class DensityMatrix:
    """Validated density operator over a labeled factorization.

    Construction rejects matrices that `density_spectra` rejects: not
    Hermitian, not of unit trace within trace_tol, or with an eigenvalue
    below -DENSITY_EIG_FLOOR.  Only a channel output widens trace_tol, by its
    completeness residual; every state meets the one floor.  `eigenvalues`
    is the read-only ascending spectrum of the symmetrized matrix that the
    positivity check solved for.
    """

    __slots__ = ("mat", "dims", "eigenvalues")

    def __init__(
        self,
        mat: np.ndarray,
        dims: DimsSpec,
        *,
        trace_tol: float = DENSITY_TRACE_TOL,
    ):
        arr = np.array(mat, dtype=complex)
        if arr.ndim != 2:
            raise ValueError(f"density matrix must be a square matrix, got shape {arr.shape}")
        vals = density_spectra(arr, dims, trace_tol=trace_tol)
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


def local_pairs(rho: DensityMatrix, u: np.ndarray) -> tuple[np.ndarray, DimsSpec]:
    """The (A, B) pair of (I_A x u) rho (I_A x u)^dagger, for one h x h u or a (..., h, h) stack.

    rho starts with qubits A and B; u acts on B and all later factors, which are traced out.
    Returns the unvalidated pair matrices and their factors, as `partial_trace_stack` does.
    """
    if rho.dims.dims[:2] != (2, 2):
        raise ValueError(f"need qubit A and qubit B as the first two factors, got {rho.dims!r}")
    half = rho.dim // 2
    u = np.asarray(u)
    if u.shape[-2:] != (half, half):
        raise ValueError(f"unitary must be {half}x{half}, got {u.shape}")
    return partial_trace_stack(local_conjugates(rho.mat, u), rho.dims, rho.dims.labels[:2])


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Trace out every factor not listed in `keep`.

    Kept factors preserve their original order regardless of the order given.
    """
    return DensityMatrix(*partial_trace_stack(rho.mat, rho.dims, keep))


def partial_trace_stack(
    mats: np.ndarray, dims: DimsSpec, keep: Iterable[str]
) -> tuple[np.ndarray, DimsSpec]:
    """`partial_trace` of a (d, d) matrix over dims, or of each in a (..., d, d) stack.

    Returns the reduced matrices and their factors; nothing is validated.
    """
    operand, out, sub = _trace_plan(dims, tuple(keep))
    reduced = np.einsum(mats.reshape(mats.shape[:-2] + dims.dims * 2), operand, out)
    return reduced.reshape(mats.shape[:-2] + (sub.total_dim, sub.total_dim)), sub


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _trace_plan(
    dims: DimsSpec, keep: tuple[str, ...]
) -> tuple[tuple, tuple, DimsSpec]:
    """The einsum axes that trace a stack over `dims` down to the `keep` factors, and those factors.

    The axes lead with an Ellipsis, which stands for the stack axes and for none on one matrix.
    """
    keep_set = set(_label_group(dims, keep))
    kept = [i for i, lab in enumerate(dims.labels) if lab in keep_set]
    n = len(dims)
    # bra axis i pairs with ket axis n + i; a traced factor reuses i for both
    ket = [n + i if i in kept else i for i in range(n)]
    out = kept + [n + i for i in kept]
    sub = DimsSpec(*((dims.labels[i], dims.dims[i]) for i in kept))
    return (..., *range(n), *ket), (..., *out), sub


#: the accepted logarithm bases of the entropy functionals, by their CLI names
_LOG_BASES = {"2": 2.0, "e": math.e, "10": 10.0}


def _check_base(base: float) -> float:
    if base not in _LOG_BASES.values():
        raise ValueError(f"log base must be 2, e, or 10, got {base!r}")
    return float(base)


def _bound_text(bound: float) -> str:
    """A one-digit bound as its constant is written, without `:.0e`'s two-digit exponent."""
    mantissa, exponent = f"{bound:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def _negative_mi_failure(value: float) -> ArithmeticError:
    return ArithmeticError(
        f"mutual information {value:.3e} below {_bound_text(-MI_SIGN_TOL)}; numeric corruption"
    )


def _spectrum_entropy(vals: np.ndarray, base: float) -> float | np.ndarray:
    """-sum(p log p) of an ascending spectrum, or of each in a (..., n) stack, 0 log 0 = 0.

    The one entropy kernel, in a checked base.  Entries at or below zero drop
    out, and no floor is checked here: `density_spectra` has already refused
    a state's spectrum with an entry below -DENSITY_EIG_FLOOR.  A stack sums
    each spectrum with one stacked product: that keeps the bits of the 1-D
    dot product, where a .sum() or einsum rounds differently.
    """
    if vals.ndim > 1:
        kept = np.where(vals > 0.0, vals, 1.0)  # log 1 = 0
        return -(kept[..., None, :] @ np.log(kept)[..., :, None])[..., 0, 0] / math.log(base)
    # a spectrum with no zero needs no mask: the same values give the same sum
    probs = vals if vals.item(0) > 0.0 else vals[vals > 0.0]
    return -float(probs @ np.log(probs)) / math.log(base)


def von_neumann_entropy(rho: DensityMatrix, base: float = 2) -> float:
    """Spectral entropy -sum(p log p) of a density matrix, 0 log 0 = 0."""
    return _spectrum_entropy(rho.eigenvalues, _check_base(base))


def mutual_information(rho: DensityMatrix, cut: Cut, base: float = 2) -> float:
    """S(X) + S(Y) - S(XY) for a bipartition (X, Y) of all factors."""
    base = _check_base(base)
    x_group, y_group = split_cut(rho.dims, cut)
    value = (
        von_neumann_entropy(partial_trace(rho, x_group), base)
        + von_neumann_entropy(partial_trace(rho, y_group), base)
        - von_neumann_entropy(rho, base)
    )
    if value < -MI_SIGN_TOL:
        raise _negative_mi_failure(value)
    return value


def mutual_information_stack(mats: np.ndarray, spectra: np.ndarray, base: float = 2) -> np.ndarray:
    """I(A:B) of each two-qubit density matrix in a (T, 4, 4) stack.

    The matrices must already be validated, and spectra is their (T, 4)
    ascending spectra: `sweep --oracle` passes the eigenvalues of the
    `density_eig` that validated them, so S(AB) costs no second solve.  The
    marginals' spectra are solved here.  Given `density_spectra`'s spectra,
    each value has the bits `mutual_information` gives for the A|B cut of
    that matrix, and a value below -MI_SIGN_TOL raises its message for the
    first such matrix.
    """
    base = _check_base(base)
    keep_a, qubit = partial_trace_stack(mats, PAIR_DIMS, ("A",))
    keep_b, _ = partial_trace_stack(mats, PAIR_DIMS, ("B",))
    marginal_spectra = density_spectra(np.stack([keep_a, keep_b], axis=1), qubit)
    marginal_entropies = _spectrum_entropy(marginal_spectra, base)
    values = marginal_entropies[:, 0] + marginal_entropies[:, 1] - _spectrum_entropy(spectra, base)
    bad = values < -MI_SIGN_TOL
    if bad.any():
        raise _negative_mi_failure(float(values[np.argmax(bad)]))
    return values


def conditional_mutual_information(rho: DensityMatrix) -> float:
    """I(X:Z|Y) = S(XY) + S(YZ) - S(Y) - S(XYZ) in bits for a three-factor state.

    The middle factor in the stored order is the conditioning system.  Strong
    subadditivity makes the result non-negative up to rounding.
    """
    if len(rho.dims) != 3:
        raise ValueError(f"need exactly three factors, got {list(rho.dims.labels)}")
    first, mid, last = rho.dims.labels
    value = (
        von_neumann_entropy(partial_trace(rho, (first, mid)))
        + von_neumann_entropy(partial_trace(rho, (mid, last)))
        - von_neumann_entropy(partial_trace(rho, (mid,)))
        - von_neumann_entropy(rho)
    )
    if value < -SSA_TOL:
        raise ArithmeticError(
            f"conditional mutual information {value:.3e} violates strong subadditivity"
        )
    return value
