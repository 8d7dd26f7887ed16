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
from .linalg import check_orthonormal, dagger, identity, max_abs
from .model import SpinStarParams, ZeroDiscordFamily, sector_unitary
from .states import (
    DensityMatrix,
    check_probabilities,
    check_two_qubit,
    conjugate_local,
    density_spectra,
    local_conjugates,
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
    "random_phase_channel",
]

#: Kraus completeness must hold within this tolerance
COMPLETENESS_TOL = 1e-9

#: ensemble concurrence of a random-unitary trajectory may drift this far from its start
DRIFT_TOL = 1e-9

#: grid points per stacked batch of `ruc_trajectory`.  Its working arrays stay
#: near 1 MB whatever the grid length; 256 to 2048 points per batch ran equally
#: fast, and larger batches only raised the peak resident set
RUC_CHUNK = 256

#: branch weights of the phase dial
PHASE_DIAL_WEIGHTS = (0.5, 0.5)

class KrausChannel:
    """Operator-sum map with a verified completeness relation.

    `residual` is the max-entry deviation of sum_k K^dagger K from the identity.
    """

    __slots__ = ("operators", "residual")

    def __init__(self, operators: Sequence[np.ndarray]):
        ops = tuple(np.array(k, dtype=complex) for k in operators)
        if not ops:
            raise ValueError("at least one Kraus operator is required")
        dim = ops[0].shape[0]
        for k in ops:
            if k.ndim != 2 or k.shape != (dim, dim):
                raise ValueError(f"Kraus operators must all be {dim}x{dim}, got {k.shape}")
        residual = max_abs(
            sum(dagger(k) @ k for k in ops) - identity(dim)
        )
        if not residual <= COMPLETENESS_TOL:
            raise ValueError(
                f"Kraus completeness residual {residual:.3e} exceeds {COMPLETENESS_TOL:.1e}"
            )
        for k in ops:
            k.setflags(write=False)
        self.operators = ops
        self.residual = residual

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def __len__(self) -> int:
        return len(self.operators)


def extract_kraus(family: ZeroDiscordFamily, params: SpinStarParams, t: float) -> KrausChannel:
    """Kraus operators of the reduced pair dynamics at time t.

    Each operator is (I_A x <k| U |mu_i>) projected onto branch i, with k
    running over one bath level beyond the flag truncation because the
    propagator can raise the bath by a single excitation.  Completeness of
    the result certifies that the truncation spans every reachable state.
    """
    if family.system_states[0].size != 4:
        raise ValueError("Kraus extraction expects two-qubit system states")
    levels = family.flag_dim + 1
    u = sector_unitary(params, t, levels=levels)
    blocks = u.reshape(2, levels, 2, levels)
    operators = []
    for psi, flag in zip(family.system_states, family.env_flags):
        padded = np.zeros(levels, dtype=complex)
        padded[: flag.size] = flag
        projector = np.outer(psi, psi.conj())
        for k in range(levels):
            b_map = np.tensordot(blocks[:, k, :, :], padded, axes=([2], [0]))
            operators.append(np.kron(identity(2), b_map) @ projector)
    try:
        return KrausChannel(operators)
    except ValueError as exc:
        raise ValueError(f"bath truncation too small for an exact operator sum: {exc}") from exc


def apply_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply an operator-sum map to a state of matching dimension."""
    if rho.dim != channel.dim:
        raise ValueError(f"state dimension {rho.dim} does not match channel {channel.dim}")
    out = np.zeros_like(rho.mat)
    for k in channel.operators:
        out = out + k @ rho.mat @ dagger(k)
    return DensityMatrix(out, rho.dims, trace_tol=1e-9, eig_floor=1e-8)


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """Choi matrix sum_k vec(K) vec(K)^dagger with column-stacking vec.

    Positive semidefiniteness of this matrix is equivalent to complete
    positivity of the map.
    """
    dim = channel.dim
    choi = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in channel.operators:
        v = k.T.reshape(-1)
        choi += np.outer(v, v.conj())
    return choi


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
    dephased = np.zeros_like(rho.mat)
    for f in flag_vecs:
        pinned = np.kron(identity(sys_dim), np.outer(f, f.conj()))
        dephased += pinned @ rho.mat @ pinned
    return max_abs(rho.mat - dephased)


def _check_unitaries(unitaries: np.ndarray) -> None:
    """Refuse a (..., 2, 2) stack holding a matrix that is not unitary within 1e-10."""
    if not np.abs(dagger(unitaries) @ unitaries - identity(2)).max() <= 1e-10:
        raise ValueError("branch matrix is not unitary within 1e-10")


class RandomUnitaryChannel:
    """Probabilistic mixture of single-qubit unitaries on the coupled qubit."""

    __slots__ = ("probabilities", "unitaries")

    def __init__(self, branches: Sequence[tuple[float, np.ndarray]]):
        probs = check_probabilities((p for p, _ in branches), "unitary branch")
        unitaries = tuple(np.array(u, dtype=complex) for _, u in branches)
        for u in unitaries:
            if u.shape != (2, 2):
                raise ValueError(f"branch unitaries must be 2x2, got {u.shape}")
        _check_unitaries(np.stack(unitaries))
        for u in unitaries:
            u.setflags(write=False)
        self.probabilities = probs
        self.unitaries = unitaries

    def __len__(self) -> int:
        return len(self.probabilities)


def apply_random_unitary(channel: RandomUnitaryChannel, rho: DensityMatrix) -> DensityMatrix:
    """Mix the branch unitaries over the second factor of a two-qubit state."""
    check_two_qubit(rho, "state")
    out = np.zeros_like(rho.mat)
    for p, u in zip(channel.probabilities, channel.unitaries):
        out = out + p * conjugate_local(rho, u).mat
    return DensityMatrix(out, rho.dims)


@dataclass(frozen=True, slots=True)
class RucSample:
    """Snapshot of a random-unitary trajectory at one time."""

    t: float
    mixture_concurrence: float
    ensemble_concurrence: float
    hidden: float


def ruc_trajectory(rho0: DensityMatrix, t_grid: Sequence[float]) -> tuple[RucSample, ...]:
    """Branch-resolved evolution of a two-qubit state under the phase dial.

    Each grid value is the dial angle of `random_phase_channel`.  The grid
    runs in stacked batches of RUC_CHUNK points, each checked as a whole:
    unitarity of the branches, validity of every member and mixture state,
    convexity, and drift.  Because each branch evolves by a local unitary,
    the ensemble-averaged concurrence must match the initial concurrence
    within DRIFT_TOL; drift beyond that indicates numerical corruption and
    raises.  The first failing grid point is the one reported.
    """
    check_two_qubit(rho0, "initial state")
    c0 = concurrence_2q(rho0)
    weights = check_probabilities(PHASE_DIAL_WEIGHTS, "unitary branch")
    times = np.asarray(t_grid, dtype=float)
    samples: list[RucSample] = []
    for start in range(0, len(times), RUC_CHUNK):
        t = times[start : start + RUC_CHUNK]
        unitaries = _phase_dial(t)
        _check_unitaries(unitaries)
        members = local_conjugates(rho0.mat, unitaries)
        density_spectra(members, rho0.dims)
        c_ens, c_mix, hidden = hidden_entanglement_stack(weights, members, rho0.dims)
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
        samples.extend(map(RucSample, t.tolist(), c_mix.tolist(), c_ens.tolist(), hidden.tolist()))
    return tuple(samples)


def _phase_dial(angles: np.ndarray) -> np.ndarray:
    """(..., 2, 2, 2) stack of the two branch unitaries at each dial angle.

    The branches are exp(-i angle Z / 2) and its inverse, built from the same
    two phase arrays.
    """
    half = 0.5 * angles
    minus, plus = np.exp(-1j * half), np.exp(1j * half)
    unitaries = np.zeros(np.shape(angles) + (2, 2, 2), dtype=complex)
    unitaries[..., 0, 0, 0] = unitaries[..., 1, 1, 1] = minus
    unitaries[..., 0, 1, 1] = unitaries[..., 1, 0, 0] = plus
    return unitaries


def random_phase_channel(angle: float) -> RandomUnitaryChannel:
    """Equal-weight pair of opposite phase rotations through the dial angle.

    The two branches are exp(-i angle Z / 2) and its inverse, a minimal
    dephasing dial: at angle omega t the mixture's concurrence follows
    |cos(omega t)| on a maximally entangled input while each branch stays
    maximally entangled.
    """
    return RandomUnitaryChannel(list(zip(PHASE_DIAL_WEIGHTS, _phase_dial(np.float64(angle)))))
