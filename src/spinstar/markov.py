"""Quantum Markov structure: block construction, decision, and witnesses.

A tripartite state on (A, B, E) is short-range correlated, or Markov, when
the middle factor splits into a direct sum of left-right pairs such that the
state factorizes as a weighted sum of products across each block.  On such
states the conditional mutual information I(A:E|B) vanishes, dynamics local
to (B, E) cannot raise entanglement in the reduced (A, B) pair, and all
correlations between A and E are routed through B.

The conditional mutual information is the operational decision here; the
partial-transpose witnesses on traced-out cuts give cheap necessary
conditions that can certify a state as non-Markov but never prove it Markov.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entanglement import concurrence_2q, ppt_min_eigenvalue
from .linalg import haar_unitary
from .states import (
    DensityMatrix,
    DimsSpec,
    check_probabilities,
    conditional_mutual_information,
    conjugate_local,
    partial_trace,
)

__all__ = [
    "MarkovBlock",
    "MarkovBlockSpec",
    "MarkovDecision",
    "WitnessResult",
    "ReductionReport",
    "make_markov_state",
    "is_markov",
    "markov_necessary_witnesses",
    "concurrence_after_env_unitary",
    "verify_localized_reduction",
]

#: conditional mutual information at or below this value counts as zero
CMI_TOL = 1e-7

#: partial-transpose eigenvalues below -NPT_TOL certify entanglement
NPT_TOL = 1e-9

#: concurrence excess beyond this counts as a monotonicity violation
EXCESS_TOL = 1e-9


def _check_density_block(mat: np.ndarray, dim: int, what: str) -> np.ndarray:
    arr = np.array(mat, dtype=complex)
    if arr.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got {arr.shape}")
    # reuse the standard state validation for Hermiticity, trace, and spectrum
    DensityMatrix(arr, DimsSpec(("block", dim)))
    return arr


@dataclass(frozen=True)
class MarkovBlock:
    """One direct-sum block: weight, left factor on (A, bL), right on (bR, E)."""

    weight: float
    left: np.ndarray
    right: np.ndarray
    dim_left: int
    dim_right: int


class MarkovBlockSpec:
    """Blueprint for a block-structured state on (A, B, E).

    The middle space decomposes as a direct sum over blocks of (left x right)
    factors; each block contributes weight * left_state x right_state with
    the left state living on (A, left) and the right state on (right, E).
    """

    __slots__ = ("dim_a", "dim_e", "blocks")

    def __init__(self, dim_a: int, dim_e: int, blocks: tuple[MarkovBlock, ...] | list):
        if dim_a < 2 or dim_e < 1:
            raise ValueError(f"need dim_a >= 2 and dim_e >= 1, got {dim_a}, {dim_e}")
        blocks = tuple(blocks)
        check_probabilities((b.weight for b in blocks), "block")
        for b in blocks:
            if b.dim_left < 1 or b.dim_right < 1:
                raise ValueError("block factor dimensions must be positive")
            _check_density_block(b.left, dim_a * b.dim_left, "left block state")
            _check_density_block(b.right, b.dim_right * dim_e, "right block state")
        self.dim_a = int(dim_a)
        self.dim_e = int(dim_e)
        self.blocks = blocks

    @property
    def dim_b(self) -> int:
        return sum(b.dim_left * b.dim_right for b in self.blocks)


def make_markov_state(spec: MarkovBlockSpec) -> DensityMatrix:
    """Assemble the block-structured state on labeled factors (A, B, E)."""
    da, de, db = spec.dim_a, spec.dim_e, spec.dim_b
    out = np.zeros((da, db, de, da, db, de), dtype=complex)
    offset = 0
    for block in spec.blocks:
        dl, dr = block.dim_left, block.dim_right
        span = dl * dr
        piece = block.weight * np.kron(block.left, block.right)
        piece = piece.reshape(da, span, de, da, span, de)
        out[:, offset : offset + span, :, :, offset : offset + span, :] += piece
        offset += span
    dims = DimsSpec(("A", da), ("B", db), ("E", de))
    return DensityMatrix(out.reshape(da * db * de, da * db * de), dims)


@dataclass(frozen=True)
class MarkovDecision:
    """Outcome of the conditional-mutual-information test."""

    markov: bool
    cmi: float
    tol: float


def is_markov(rho: DensityMatrix) -> MarkovDecision:
    """Decide Markov structure by conditioning on the middle factor."""
    cmi = conditional_mutual_information(rho)
    return MarkovDecision(markov=cmi <= CMI_TOL, cmi=cmi, tol=CMI_TOL)


@dataclass(frozen=True)
class WitnessResult:
    """Partial-transpose result on the cut a Markov state must keep separable."""

    cut: str
    min_eigenvalue: float
    npt: bool


def markov_necessary_witnesses(rho: DensityMatrix) -> WitnessResult:
    """Necessary separability conditions for block-structured states.

    Three factors (A, B, E): tracing B must leave (A, E) separable.  Four
    factors (A, E_A, B, E_B): tracing A and B must leave (E_A, E_B)
    separable.  A negative partial-transpose eigenvalue on either reduced
    state certifies the input as non-Markov; positivity proves nothing.
    """
    labels = rho.dims.labels
    if len(labels) == 3:
        first, mid, last = labels
        reduced = partial_trace(rho, (first, last))
        val = ppt_min_eigenvalue(reduced, ((first,), (last,)))
        cut = f"{first};{last} after tracing {mid}"
    elif len(labels) == 4:
        outer_a, env_a, outer_b, env_b = labels
        reduced = partial_trace(rho, (env_a, env_b))
        val = ppt_min_eigenvalue(reduced, ((env_a,), (env_b,)))
        cut = f"{env_a};{env_b} after tracing {outer_a}, {outer_b}"
    else:
        raise ValueError(f"need three or four factors, got {list(labels)}")
    return WitnessResult(cut, val, val < -NPT_TOL)


def concurrence_after_env_unitary(rho: DensityMatrix, u_be: np.ndarray) -> float:
    """Pair concurrence after a unitary on (B, E), qubit A untouched."""
    return concurrence_2q(conjugate_local(rho, u_be))


@dataclass(frozen=True)
class ReductionReport:
    """Concurrence monotonicity under random dynamics local to (B, E)."""

    trials: int
    seed: int
    initial_concurrence: float
    max_concurrence: float
    max_excess: float
    violations: int
    tol: float = EXCESS_TOL


def verify_localized_reduction(
    spec: MarkovBlockSpec, trials: int = 100, seed: int = 0
) -> ReductionReport:
    """Stress the reduced-pair entanglement bound on a block-structured state.

    Builds the state from the spec, applies Haar-random unitaries on (B, E)
    drawn from a counter-based generator split per trial, and counts how
    often the reduced pair concurrence exceeds its initial value.  On a true
    Markov state the count must stay at zero.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if spec.dim_a != 2 or spec.dim_b != 2:
        raise ValueError("the concurrence bound needs qubit A and qubit B")
    state = make_markov_state(spec)
    labels = state.dims.labels
    c0 = concurrence_2q(partial_trace(state, labels[:2]))
    root = np.random.SeedSequence(seed)
    max_c = c0
    max_excess = float("-inf")
    violations = 0
    for child in root.spawn(trials):
        rng = np.random.Generator(np.random.Philox(child))
        u = haar_unitary(2 * spec.dim_e, rng)
        c = concurrence_after_env_unitary(state, u)
        excess = c - c0
        max_c = max(max_c, c)
        max_excess = max(max_excess, excess)
        if excess > EXCESS_TOL:
            violations += 1
    return ReductionReport(
        trials=trials,
        seed=seed,
        initial_concurrence=c0,
        max_concurrence=max_c,
        max_excess=max_excess,
        violations=violations,
    )
