"""Entanglement monotones and witnesses.

Pure-state concurrence works across any bipartition.  Mixed two-qubit states
use the spin-flip construction, evaluated at the amplitude level so that the
coefficients of rank-deficient states stay accurate to rounding rather than
its square root.  The partial transpose witness certifies entanglement
through a negative eigenvalue.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import SIGMA_Y, dagger, herm_eig, tensor
from .states import Cut, DensityMatrix, PureState, check_probabilities, check_two_qubit, split_cut

if TYPE_CHECKING:
    from .model import SpinStarParams

__all__ = [
    "EnsembleMember",
    "concurrence_pure",
    "spin_flip_coefficients",
    "concurrence_2q",
    "ppt_min_eigenvalue",
    "ensemble_concurrence",
    "concurrence_a_be",
    "inaccessible_concurrence",
    "hidden_entanglement",
]

#: density-matrix eigenvalues at or below this are treated as unpopulated
RANK_TOL = 1e-12

#: the two-qubit spin flip Y x Y, which is real
SPIN_FLIP = tensor(SIGMA_Y, SIGMA_Y).real
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


def spin_flip_coefficients(rho: DensityMatrix) -> np.ndarray:
    """Descending spin-flip coefficients of a two-qubit density matrix.

    Writes rho = W W^dagger through its spectral decomposition and returns the
    singular values of the complex symmetric matrix W^T (Y x Y) W, zero padded
    to length four.  Their squares are the eigenvalues of rho Y rho* Y, but
    taking singular values at the amplitude level keeps coefficients that are
    exactly zero at the rounding scale instead of its square root, and the
    concurrence subtracts three of them so that accuracy is load bearing.
    Eigenvalues of rho at or below RANK_TOL carry no usable amplitude and are
    dropped.
    """
    vals, vecs = herm_eig(rho.mat)
    keep = vals > RANK_TOL
    w = vecs[:, keep] * np.sqrt(vals[keep])
    tau = w.T @ SPIN_FLIP @ w
    lams = np.zeros(4)
    if tau.size:
        sv = np.linalg.svd(tau, compute_uv=False)
        lams[: sv.size] = sv
    return lams


def concurrence_2q(rho: DensityMatrix) -> float:
    """Concurrence of a two-qubit density matrix.

    The state must consist of exactly two dimension-2 factors; anything else
    must be traced out first.
    """
    check_two_qubit(rho, "state")
    lams = spin_flip_coefficients(rho)
    return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))


def ppt_min_eigenvalue(rho: DensityMatrix, cut: Cut) -> float:
    """Smallest eigenvalue after partially transposing the second cut group.

    A value below -1e-9 witnesses entanglement across the cut; separable
    states stay positive semidefinite up to rounding.
    """
    _, y_group = split_cut(rho.dims, cut)
    n = len(rho.dims)
    tensor_form = rho.mat.reshape(rho.dims.dims + rho.dims.dims)
    axes = list(range(2 * n))
    for lab in y_group:
        i = rho.dims.position(lab)
        axes[i], axes[n + i] = axes[n + i], axes[i]
    pt = np.transpose(tensor_form, axes).reshape(rho.dim, rho.dim)
    vals = np.linalg.eigvalsh((pt + dagger(pt)) / 2.0)
    return float(vals[0])


def ensemble_concurrence(members: Sequence[EnsembleMember], cut: Cut) -> float:
    """Probability-weighted average concurrence of pure-state members across a cut."""
    check_probabilities((m.weight for m in members), "ensemble member")
    for m in members:
        if not isinstance(m.state, PureState):
            raise ValueError(f"ensemble members must be pure states, got {type(m.state).__name__}")
    return math.fsum(m.weight * concurrence_pure(m.state, cut) for m in members)


def concurrence_a_be(params: "SpinStarParams") -> float:
    """Concurrence between the isolated qubit and everything it is cut from.

    For the flagged pair mixture this cut inherits the branch structure, so
    the value is the weighted branch concurrence p |sin 2a| + (1-p) |sin 2b|
    and stays constant under any evolution local to the other side.
    """
    return params.p * abs(math.sin(2.0 * params.alpha)) + (1.0 - params.p) * abs(
        math.sin(2.0 * params.beta)
    )


def inaccessible_concurrence(c_whole: float, c_sys: float) -> float:
    """Entanglement bound in the environment cut: max(0, c_whole - c_sys).

    c_whole must dominate c_sys up to 1e-9; a larger deficit signals an
    upstream computation bug and is rejected.
    """
    if not c_whole >= c_sys - 1e-9:
        raise ValueError(
            f"whole-cut concurrence {c_whole:.12g} below system concurrence {c_sys:.12g}"
        )
    return max(0.0, c_whole - c_sys)


def hidden_entanglement(members: Sequence[EnsembleMember]) -> tuple[float, float, float]:
    """Ensemble-averaged concurrence, mixture concurrence, and their gap.

    The members are two-qubit density matrices.  Returns (ensemble average,
    concurrence of their weighted mixture, hidden entanglement), the last
    being the first minus the second.  Convexity of the concurrence keeps the
    gap non-negative up to rounding.
    """
    weights = check_probabilities((m.weight for m in members), "ensemble member")
    c_ens = math.fsum(w * concurrence_2q(m.state) for w, m in zip(weights, members))
    mixture = np.zeros((4, 4), dtype=complex)
    for w, m in zip(weights, members):
        mixture = mixture + w * m.state.mat
    c_mix = concurrence_2q(DensityMatrix(mixture, members[0].state.dims))
    hidden = c_ens - c_mix
    if not hidden >= -1e-9:
        raise ArithmeticError(f"hidden entanglement {hidden:.3e} below -1e-9; convexity violated")
    return c_ens, c_mix, hidden
