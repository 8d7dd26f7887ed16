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

import operator
from dataclasses import dataclass

import numpy as np

from .entanglement import concurrence_2q, concurrence_2q_eig, ppt_min_eigenvalue
from .linalg import haar_unitary
from .states import (
    PAIR_BATCH,
    DensityMatrix,
    DimsSpec,
    check_probabilities,
    conditional_mutual_information,
    density_eig,
    local_pairs,
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
    "verify_localized_reduction",
]

#: conditional mutual information at or below this value counts as zero
CMI_TOL = 1e-7

#: partial-transpose eigenvalues below -NPT_TOL certify entanglement
NPT_TOL = 1e-9

#: concurrence excess beyond this counts as a monotonicity violation
EXCESS_TOL = 1e-9


def _block_factor_dim(mat: np.ndarray, dim_fixed: int, what: str) -> int:
    """Dimension of the block's own factor next to a fixed factor of dim_fixed."""
    arr = np.array(mat, dtype=complex)
    size = arr.shape[0] if arr.ndim else 0
    if size == 0 or size % dim_fixed:
        raise ValueError(f"{what} size {size} is not a positive multiple of {dim_fixed}")
    if arr.shape != (size, size):
        raise ValueError(f"{what} must be {size}x{size}, got {arr.shape}")
    # reuse the standard state validation for Hermiticity, trace, and spectrum
    DensityMatrix(arr, DimsSpec(("block", size)))
    return size // dim_fixed


@dataclass(frozen=True)
class MarkovBlock:
    """One direct-sum block: weight, left factor on (A, bL), right on (bR, E)."""

    weight: float
    left: np.ndarray
    right: np.ndarray


class MarkovBlockSpec:
    """Blueprint for a block-structured state on (A, B, E).

    The middle space decomposes as a direct sum over blocks of (left x right)
    factors; each block contributes weight * left_state x right_state with
    the left state living on (A, left) and the right state on (right, E).
    `splits` holds each block's (left, right) dimensions, read off the block
    state sizes.
    """

    __slots__ = ("dim_a", "dim_e", "blocks", "splits")

    def __init__(self, dim_a: int, dim_e: int, blocks: tuple[MarkovBlock, ...] | list):
        if dim_a < 2 or dim_e < 1:
            raise ValueError(f"need dim_a >= 2 and dim_e >= 1, got {dim_a}, {dim_e}")
        blocks = tuple(blocks)
        check_probabilities((b.weight for b in blocks), "block")
        self.splits = tuple(
            (
                _block_factor_dim(b.left, dim_a, "left block state"),
                _block_factor_dim(b.right, dim_e, "right block state"),
            )
            for b in blocks
        )
        self.dim_a = int(dim_a)
        self.dim_e = int(dim_e)
        self.blocks = blocks

    @property
    def dim_b(self) -> int:
        return sum(dl * dr for dl, dr in self.splits)


def make_markov_state(spec: MarkovBlockSpec) -> DensityMatrix:
    """Assemble the block-structured state on labeled factors (A, B, E)."""
    da, de, db = spec.dim_a, spec.dim_e, spec.dim_b
    out = np.zeros((da, db, de, da, db, de), dtype=complex)
    offset = 0
    for block, (dl, dr) in zip(spec.blocks, spec.splits):
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
    in stacks of PAIR_BATCH trials, each drawn from a counter-based generator
    split per trial, and counts how often the reduced pair concurrence exceeds
    its initial value.  On a true Markov state the count must stay at zero.
    """
    if not all(hasattr(v, "__index__") and type(v) is not bool for v in (trials, seed)):
        raise TypeError(f"trials and seed must be integers, got {trials!r} and {seed!r}")
    trials, seed = operator.index(trials), operator.index(seed)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if spec.dim_a != 2 or spec.dim_b != 2:
        raise ValueError("the concurrence bound needs qubit A and qubit B")
    state = make_markov_state(spec)
    c0 = concurrence_2q(partial_trace(state, state.dims.labels[:2]))
    root = np.random.SeedSequence(seed)
    batches = []
    for start in range(0, trials, PAIR_BATCH):
        children = root.spawn(min(PAIR_BATCH, trials - start))
        rngs = [np.random.Generator(np.random.Philox(child)) for child in children]
        unitaries = np.stack([haar_unitary(2 * spec.dim_e, rng) for rng in rngs])
        batches.append(concurrence_2q_eig(*density_eig(*local_pairs(state, unitaries))))
    c = np.concatenate(batches)
    excess = c - c0
    return ReductionReport(
        trials=trials,
        seed=seed,
        initial_concurrence=c0,
        max_concurrence=max(c0, float(c.max())),
        max_excess=float(excess.max()),
        violations=int((excess > EXCESS_TOL).sum()),
    )
