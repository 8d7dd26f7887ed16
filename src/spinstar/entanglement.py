"""Entanglement monotones and witnesses.

Pure-state concurrence works across any bipartition.  Mixed two-qubit states
use the spin-flip construction, evaluated at the amplitude level so that the
coefficients of rank-deficient states stay accurate to rounding rather than
its square root.  The partial transpose witness certifies entanglement
through a negative eigenvalue.  Nothing here imports `spinstar.model`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import SIGMA_Y, dagger, herm_eig, hermitian_part, ordered_sum
from .states import (
    Cut,
    PAIR_DIMS,
    DensityMatrix,
    PureState,
    _bound_text,
    check_probabilities,
    check_two_qubit,
    density_eig,
    split_cut,
)

__all__ = [
    "EnsembleMember",
    "concurrence_pure",
    "concurrence_2q",
    "ppt_min_eigenvalue",
    "ensemble_concurrence",
    "inaccessible_concurrence",
    "hidden_entanglement",
]

#: density-matrix eigenvalues at or below this are treated as unpopulated
RANK_TOL = 1e-12

#: hidden entanglement below -CONVEXITY_TOL violates convexity of the concurrence
CONVEXITY_TOL = 1e-9

#: a whole-cut concurrence more than DOMINANCE_TOL below the system's one is an upstream bug
DOMINANCE_TOL = 1e-9

#: the two-qubit spin flip Y x Y, which is real
SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y).real
SPIN_FLIP.setflags(write=False)


@dataclass(frozen=True)
class EnsembleMember:
    """One branch of a state ensemble: a probability and the branch state."""

    weight: float
    state: PureState | DensityMatrix


def concurrence_pure(psi: PureState, cut: Cut) -> float:
    """Concurrence sqrt(2 (1 - Tr r^2)) of a pure state across a bipartition.

    r is the reduced state of the first cut group.  Product states give 0 and
    maximally entangled states give sqrt(2 (1 - 1/d)) for the smaller side d.
    """
    x_group, _ = split_cut(psi.dims, cut)
    positions = [psi.dims.position(lab) for lab in x_group]
    rest = [i for i in range(len(psi.dims)) if i not in positions]
    tensor_form = psi.vec.reshape(psi.dims.dims)
    m = np.transpose(tensor_form, positions + rest)
    d_x = math.prod(psi.dims.dims[i] for i in positions)
    m = m.reshape(d_x, -1)
    reduced = m @ dagger(m)
    purity = float(np.real(np.trace(reduced @ reduced)))
    return math.sqrt(max(0.0, 2.0 * (1.0 - purity)))


def _spin_flip_stack(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Descending spin-flip coefficients of a two-qubit density matrix, or of each in a stack.

    vals and vecs are the (..., 4) ascending eigenvalues and (..., 4, 4)
    eigenvector columns of the matrices, as `herm_eig` and `density_eig` give
    them.  Writes rho = W W^dagger through that decomposition and returns the
    singular values of the complex symmetric matrix W^T (Y x Y) W, zero padded
    to length four.  Their squares are the eigenvalues of rho Y rho* Y, but
    taking singular values at the amplitude level keeps coefficients that are
    exactly zero at the rounding scale instead of its square root, and the
    concurrence subtracts three of them so that accuracy is load bearing.
    Eigenvalues of rho at or below RANK_TOL carry no usable amplitude and are
    dropped.
    """
    lams = np.zeros(vals.shape)
    # eigenvalues ascend, so the kept ones are the last r of each matrix:
    # grouping by r hands each svd the same r x r tau as a single matrix gets
    ranks = (vals > RANK_TOL).sum(axis=-1)
    if ranks.ndim == 0:
        # a single matrix, as concurrence_2q passes: masking it with a 0-d
        # rank costs about 8 us more per call, a fifth of the whole call
        groups = [(int(ranks), ...)]
    else:
        # a set rather than np.unique, whose first call imports numpy.ma
        groups = [(r, ranks == r) for r in set(ranks.ravel().tolist())]
    for r, at in groups:
        if r == 0:
            continue
        w = vecs[at, :, 4 - r :] * np.sqrt(vals[at, None, 4 - r :])
        tau = w.swapaxes(-1, -2) @ SPIN_FLIP @ w
        lams[at, :r] = np.linalg.svd(tau, compute_uv=False)
    return lams


def concurrence_2q_eig(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Concurrence of each validated two-qubit density matrix in a stack, from its eigh.

    (vals, vecs) is the (..., 4) and (..., 4, 4) eigendecomposition that
    `density_eig` returns with its checks; the coefficients are those of
    `_spin_flip_stack`.
    """
    lams = _spin_flip_stack(vals, vecs)
    c = lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3]
    return np.where(c > 0.0, c, 0.0)


def concurrence_2q(rho: DensityMatrix) -> float:
    """Concurrence of a two-qubit density matrix.

    The state must consist of exactly two dimension-2 factors; anything else
    must be traced out first.
    """
    check_two_qubit(rho, "state")
    lams = _spin_flip_stack(*herm_eig(rho.mat))
    return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))


def ppt_min_eigenvalue(rho: DensityMatrix, cut: Cut) -> float:
    """Smallest eigenvalue after partially transposing the second cut group.

    A value below -`markov.NPT_TOL` witnesses entanglement across the cut;
    separable states stay positive semidefinite up to rounding.
    """
    _, y_group = split_cut(rho.dims, cut)
    n = len(rho.dims)
    tensor_form = rho.mat.reshape(rho.dims.dims + rho.dims.dims)
    axes = list(range(2 * n))
    for lab in y_group:
        i = rho.dims.position(lab)
        axes[i], axes[n + i] = axes[n + i], axes[i]
    pt = np.transpose(tensor_form, axes).reshape(rho.dim, rho.dim)
    vals = np.linalg.eigvalsh(hermitian_part(pt, "partial transpose"))
    return float(vals[0])


def ensemble_concurrence(members: Sequence[EnsembleMember], cut: Cut) -> float:
    """Probability-weighted average concurrence of pure-state members across a cut."""
    check_probabilities((m.weight for m in members), "ensemble member")
    for m in members:
        if not isinstance(m.state, PureState):
            raise ValueError(f"ensemble members must be pure states, got {type(m.state).__name__}")
    return math.fsum(m.weight * concurrence_pure(m.state, cut) for m in members)


def inaccessible_concurrence(
    c_whole: float | np.ndarray, c_sys: float | np.ndarray
) -> float | np.ndarray:
    """Entanglement bound in the environment cut: max(0, c_whole - c_sys).

    Either argument may be an array, and the bound is taken elementwise; two
    scalars give a float.  c_whole must dominate c_sys up to DOMINANCE_TOL; a larger
    deficit, or a NaN, signals an upstream computation bug and is rejected
    for the first offending pair in row-major order.
    """
    c_whole, c_sys = np.broadcast_arrays(np.asarray(c_whole, float), np.asarray(c_sys, float))
    bad = ~(c_whole >= c_sys - DOMINANCE_TOL)
    if bad.any():
        first = np.argmax(bad)
        raise ValueError(
            f"whole-cut concurrence {c_whole.flat[first]:.12g} "
            f"below system concurrence {c_sys.flat[first]:.12g}"
        )
    gap = c_whole - c_sys
    # max(0.0, gap) as a float would give it: +0.0 for every gap not above zero
    bound = np.where(gap > 0.0, gap, 0.0)
    return bound if bound.ndim else float(bound)


def convexity_failure(hidden: float) -> ArithmeticError:
    """The error for a hidden entanglement below -CONVEXITY_TOL."""
    return ArithmeticError(
        f"hidden entanglement {hidden:.3e} below {_bound_text(-CONVEXITY_TOL)}; convexity violated"
    )


def hidden_entanglement_stack(
    weights: Sequence[float], mats: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ensemble-averaged concurrence, mixture concurrence and their gap at each point.

    mats is a (T, K, 4, 4) stack of two-qubit density matrices, K ensemble
    members at each of T points, mixed with the same K checked weights
    everywhere.  Every member, then every mixture, is validated by
    `density_eig`, with a failure reported for the first offending matrix,
    and its concurrence comes from the eigendecomposition that validated it.
    The ensemble average is the correctly rounded weighted sum, and each
    mixture is summed in member order.  The caller checks convexity, so that
    it can order that check among its own.
    """
    terms = concurrence_2q_eig(*density_eig(mats, PAIR_DIMS)) * np.asarray(weights)
    c_ens = np.array([math.fsum(row) for row in terms.tolist()])
    mixture = ordered_sum((w * mats[:, k] for k, w in enumerate(weights)), start=0)
    c_mix = concurrence_2q_eig(*density_eig(mixture, PAIR_DIMS))
    return c_ens, c_mix, c_ens - c_mix


def hidden_entanglement(members: Sequence[EnsembleMember]) -> tuple[float, float, float]:
    """Ensemble-averaged concurrence, mixture concurrence, and their gap.

    The members are two-qubit density matrices, checked again at the default
    tolerances by `hidden_entanglement_stack`.  Returns (ensemble average,
    concurrence of their weighted mixture, hidden entanglement), the last
    being the first minus the second.  Convexity of the concurrence keeps the
    gap non-negative up to rounding.
    """
    weights = check_probabilities((m.weight for m in members), "ensemble member")
    for m in members:
        if not isinstance(m.state, DensityMatrix):
            raise ValueError(
                f"ensemble members must be density matrices, got {type(m.state).__name__}"
            )
        check_two_qubit(m.state, "state")
    mats = np.stack([m.state.mat for m in members])[None]
    c_ens, c_mix, hidden = (float(v[0]) for v in hidden_entanglement_stack(weights, mats))
    if not hidden >= -CONVEXITY_TOL:
        raise convexity_failure(hidden)
    return c_ens, c_mix, hidden
