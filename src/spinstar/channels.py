"""Reduced-dynamics channels for the flagged pair mixture.

The initial states of interest are classical mixtures of orthogonal pair
states tagged by orthogonal bath flags.  Such states carry no discord across
the system-bath split, so the reduced pair dynamics admit an exact operator
sum: sandwiching the propagator between bath flag vectors and the matching
branch projectors yields Kraus operators whose action reproduces the traced
unitary evolution for every member of the family.

Random-unitary channels cover the complementary dephasing scenarios: a
classical dial picks one local unitary per branch, entanglement can revive
but never exceeds its initial value, and the ensemble-averaged concurrence
stays frozen.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .entanglement import (
    CONVEXITY_TOL,
    concurrence_2q,
    convexity_failure,
    hidden_entanglement_stack,
)
from .linalg import check_orthonormal, dagger, identity, max_abs, ordered_sum, projectors
from .model import SpinStarParams, ZeroDiscordFamily, evolve_sector_stack, sector_unitaries
from .states import (
    DENSITY_TRACE_TOL,
    PAIR_BATCH,
    DensityMatrix,
    check_probabilities,
    check_two_qubit,
    density_spectra,
    local_conjugates,
    local_lift,
    partial_trace,
)

__all__ = [
    "KrausChannel",
    "extract_kraus",
    "apply_channel",
    "choi_matrix",
    "discord_zero_check",
    "RandomUnitaryChannel",
    "apply_random_unitary",
    "ruc_trajectory",
    "RucSample",
]

#: Kraus completeness must hold within this tolerance
COMPLETENESS_TOL = 1e-9

#: ensemble concurrence of a random-unitary trajectory may drift this far from its start
DRIFT_TOL = 1e-9

#: branch weights of the phase dial
PHASE_DIAL_WEIGHTS = (0.5, 0.5)


class KrausChannel:
    """Operator-sum map with a verified completeness relation.

    `operators` is the read-only (K, d, d) stack of the K operators, and
    `residual` is the max-entry deviation of sum_k K^dagger K from the identity.
    """

    __slots__ = ("operators", "residual")

    def __init__(self, operators: Sequence[np.ndarray] | np.ndarray):
        ops = tuple(np.asarray(k, dtype=complex) for k in operators)
        if not ops:
            raise ValueError("at least one Kraus operator is required")
        dim = ops[0].shape[0]
        for k in ops:
            if k.ndim != 2 or k.shape != (dim, dim):
                raise ValueError(f"Kraus operators must all be {dim}x{dim}, got {k.shape}")
        stack = np.array(ops)
        self.residual = float(_completeness_residuals(stack))
        stack.setflags(write=False)
        self.operators = stack

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]

    def __len__(self) -> int:
        return len(self.operators)


def _completeness_residuals(ops: np.ndarray) -> np.ndarray:
    """Max-entry deviation of sum_k K^dagger K from the identity for a (..., K, d, d) stack.

    The products are summed in operator order, and a residual above
    COMPLETENESS_TOL (or NaN) raises for the first offending stack.
    """
    total = ordered_sum(np.moveaxis(dagger(ops) @ ops, -3, 0), start=0)
    residuals = np.abs(total - identity(ops.shape[-1])).max(axis=(-2, -1))
    bad = ~(residuals <= COMPLETENESS_TOL)
    if bad.any():
        residual = np.ravel(residuals)[np.argmax(np.ravel(bad))]
        raise ValueError(
            f"Kraus completeness residual {residual:.3e} exceeds {COMPLETENESS_TOL:.1e}"
        )
    return residuals


def kraus_operators(
    family: ZeroDiscordFamily, unitaries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kraus operators of the reduced pair dynamics under each of T sector propagators.

    unitaries is a (T, 2L, 2L) `sector_unitaries` stack on L = flag_dim + 1
    bath levels, one beyond the flag truncation because the propagator can
    raise the bath by a single excitation.  Member i and level k give the
    operator (I_A x <k| U |mu_i>) projected onto branch i.  Returns the
    (T, members x L, 4, 4) operators, member-major, and their (T,)
    completeness residuals; completeness certifies that the truncation spans
    every reachable state, and a failing time raises.
    """
    if family.system_states[0].size != 4:
        raise ValueError("Kraus extraction expects two-qubit system states")
    levels = family.flag_dim + 1
    if unitaries.shape[1:] != (2 * levels, 2 * levels):
        raise ValueError(f"need {2 * levels}x{2 * levels} propagators, got {unitaries.shape}")
    blocks = unitaries.reshape(-1, 2, levels, 2, levels)
    # b[t, i, k] = <k| U(t) |mu_i>, a 2 x 2 map on qubit B
    b_maps = (blocks @ family.padded_flags(levels).T).transpose(0, 4, 2, 1, 3)
    ops = local_lift(b_maps) @ projectors(family.system_states)[:, None]
    ops = ops.reshape(len(unitaries), -1, 4, 4)
    try:
        return ops, _completeness_residuals(ops)
    except ValueError as exc:
        raise ValueError(f"bath truncation too small for an exact operator sum: {exc}") from exc


def extract_kraus(family: ZeroDiscordFamily, params: SpinStarParams, t: float) -> KrausChannel:
    """Kraus operators of the reduced pair dynamics at time t: `kraus_operators` at t."""
    unitaries = sector_unitaries(params, [t], family.flag_dim + 1)
    return KrausChannel(kraus_operators(family, unitaries)[0][0])


def _output_trace_tol(dim: int, residual: float) -> float:
    """Trace tolerance of a channel output on dim levels, given its completeness residual.

    With S = sum_k K^dagger K, an output's trace is off by Tr((S - I) rho),
    at most residual * dim on top of the input's own trace error.
    """
    return DENSITY_TRACE_TOL + dim * residual


def _kraus_outputs(ops: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """sum_k K mat K^dagger for each (..., K, d, d) operator stack, summed in operator order.

    The outputs are not validated; `density_spectra` checks a stack.
    """
    return ordered_sum(np.moveaxis(ops @ mat @ dagger(ops), -3, 0), start=0)


def apply_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply an operator-sum map to a state of matching dimension."""
    if rho.dim != channel.dim:
        raise ValueError(f"state dimension {rho.dim} does not match channel {channel.dim}")
    out = _kraus_outputs(channel.operators, rho.mat)
    return DensityMatrix(out, rho.dims, trace_tol=_output_trace_tol(rho.dim, channel.residual))


def _choi_matrices(ops: np.ndarray) -> np.ndarray:
    """Choi matrix of each (..., K, d, d) operator stack, as `choi_matrix` builds it.

    The K outer products are made one at a time: all at once would hold K
    times the memory of the result.
    """
    vecs = np.moveaxis(ops.swapaxes(-1, -2).reshape(ops.shape[:-2] + (-1,)), -2, 0)
    return ordered_sum((v[..., :, None] * v.conj()[..., None, :] for v in vecs), start=0)


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """Choi matrix sum_k vec(K) vec(K)^dagger with column-stacking vec.

    Positive semidefiniteness of this matrix is equivalent to complete
    positivity of the map.
    """
    return _choi_matrices(channel.operators)


def kraus_audit(
    family: ZeroDiscordFamily, params: SpinStarParams, times: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evidence that the family's reduced dynamics is a channel, at each of T times.

    Returns three (T,) arrays: the completeness residual, the smallest Choi
    eigenvalue, and the max-entry gap between the channel applied to the
    family's pair state and the traced sector evolution of its mixture.  The
    times run as one stack, and each value has the bits of the one-time
    route through `extract_kraus`, `choi_matrix`, `apply_channel` and
    `evolve_sector`.  Both output states are validated as those would be.
    """
    levels = family.flag_dim + 1
    mixture = family.mixture(levels)
    rho0 = partial_trace(mixture, mixture.dims.labels[:2])
    unitaries = sector_unitaries(params, times, levels)
    operators, residuals = kraus_operators(family, unitaries)
    choi_min = np.linalg.eigvalsh(_choi_matrices(operators))[:, 0]
    via_channel = _kraus_outputs(operators, rho0.mat)
    density_spectra(via_channel, rho0.dims, trace_tol=_output_trace_tol(rho0.dim, residuals.max()))
    via_evolution = evolve_sector_stack(mixture, unitaries)
    density_spectra(via_evolution, rho0.dims)
    return residuals, choi_min, np.abs(via_channel - via_evolution).max(axis=(-2, -1))


def discord_zero_check(rho: DensityMatrix, flags: Sequence[np.ndarray]) -> float:
    """Max-entry distance between rho and its dephasing in a bath flag basis.

    The last factor is the bath; flags must form a complete orthonormal basis
    for it.  A result of zero certifies vanishing system-bath discord with
    respect to that basis.
    """
    if len(rho.dims) < 2:
        raise ValueError("need at least a system factor and a bath factor")
    env_dim = rho.dims.dims[-1]
    flag_vecs = tuple(np.asarray(f, dtype=complex).reshape(-1) for f in flags)
    if len(flag_vecs) != env_dim or any(f.size != env_dim for f in flag_vecs):
        raise ValueError(f"need {env_dim} flag vectors of dimension {env_dim}")
    check_orthonormal(flag_vecs, "bath flags")
    sys_dim = rho.dim // env_dim
    # (s, s') blocks on the bath factor, each dephased by every flag projector
    blocks = rho.mat.reshape(sys_dim, env_dim, sys_dim, env_dim).swapaxes(1, 2)
    return max_abs(blocks - ordered_sum(pin @ blocks @ pin for pin in projectors(flag_vecs)))


class RandomUnitaryChannel:
    """Probabilistic mixture of single-qubit unitaries on the coupled qubit."""

    __slots__ = ("probabilities", "unitaries")

    def __init__(self, branches: Sequence[tuple[float, np.ndarray]]):
        probs = check_probabilities((p for p, _ in branches), "unitary branch")
        unitaries = tuple(np.array(u, dtype=complex) for _, u in branches)
        for u in unitaries:
            if u.shape != (2, 2):
                raise ValueError(f"branch unitaries must be 2x2, got {u.shape}")
        check_orthonormal(np.stack(unitaries), "rows of a branch unitary")
        for u in unitaries:
            u.setflags(write=False)
        self.probabilities = probs
        self.unitaries = unitaries

    def __len__(self) -> int:
        return len(self.probabilities)


def apply_random_unitary(channel: RandomUnitaryChannel, rho: DensityMatrix) -> DensityMatrix:
    """Mix the branch unitaries over the second factor of a two-qubit state."""
    check_two_qubit(rho, "state")
    branches = local_conjugates(rho.mat, np.stack(channel.unitaries))
    out = ordered_sum((p * m for p, m in zip(channel.probabilities, branches)), start=0)
    return DensityMatrix(out, rho.dims)


@dataclass(frozen=True, slots=True)
class RucSample:
    """Snapshot of a random-unitary trajectory at one time."""

    t: float
    mixture_concurrence: float
    ensemble_concurrence: float
    hidden: float


def ruc_columns(rho0: DensityMatrix, t_grid: Sequence[float]) -> tuple[np.ndarray, ...]:
    """Phase-dial evolution of a two-qubit state as t, mixture, ensemble and hidden columns.

    Each grid value is a dial angle of `_phase_dial`, and a non-finite one is
    refused before any is evaluated.  The grid runs in stacked batches of
    PAIR_BATCH points, each checked as a whole: unitarity of the branches,
    validity of every member and mixture state, convexity, and drift.  Each
    branch evolves by a local unitary, so an ensemble-averaged concurrence
    more than DRIFT_TOL off the initial one is numerical corruption and
    raises; the first failing grid point is reported.  Each value has the
    bits of the one-angle route, whatever the batch.
    """
    check_two_qubit(rho0, "initial state")
    c0 = concurrence_2q(rho0)
    times = np.asarray(t_grid, dtype=float)
    finite = np.isfinite(times)
    if not finite.all():
        raise ValueError(f"dial angle must be finite, got {times[np.argmin(finite)].item()!r}")
    columns = np.empty((3, len(times)))
    for start in range(0, len(times), PAIR_BATCH):
        t = times[start : start + PAIR_BATCH]
        unitaries = _phase_dial(t)
        check_orthonormal(unitaries, "rows of a branch unitary")
        members = local_conjugates(rho0.mat, unitaries)
        c_ens, c_mix, hidden = hidden_entanglement_stack(PHASE_DIAL_WEIGHTS, members)
        convex_bad = ~(hidden >= -CONVEXITY_TOL)
        bad = convex_bad | ~(np.abs(c_ens - c0) <= DRIFT_TOL)
        if bad.any():
            i = int(np.argmax(bad))
            if convex_bad[i]:
                raise convexity_failure(hidden[i])
            raise ArithmeticError(
                f"ensemble concurrence drifted to {c_ens[i]:.12g} from {c0:.12g}"
                f" at t={float(t[i])!r}"
            )
        columns[:, start : start + PAIR_BATCH] = c_mix, c_ens, hidden
    return (times, *columns)


def ruc_trajectory(rho0: DensityMatrix, t_grid: Sequence[float]) -> tuple[RucSample, ...]:
    """`ruc_columns` as one RucSample per grid point."""
    return tuple(map(RucSample, *(column.tolist() for column in ruc_columns(rho0, t_grid))))


def _phase_dial(angles: np.ndarray) -> np.ndarray:
    """(..., 2, 2, 2) stack of the two branch unitaries at each dial angle.

    The branches are exp(-i angle Z / 2) and its inverse, built from the same
    two phase arrays.  Mixed with PHASE_DIAL_WEIGHTS they make a minimal
    dephasing dial: at angle omega t the mixture's concurrence follows
    |cos(omega t)| on a maximally entangled input while each branch stays
    maximally entangled.
    """
    half = 0.5 * angles
    minus, plus = np.exp(-1j * half), np.exp(1j * half)
    unitaries = np.zeros(np.shape(angles) + (2, 2, 2), dtype=complex)
    unitaries[..., 0, 0, 0] = unitaries[..., 1, 1, 1] = minus
    unitaries[..., 0, 1, 1] = unitaries[..., 1, 0, 0] = plus
    return unitaries
