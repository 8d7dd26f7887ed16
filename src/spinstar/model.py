"""Spin-star bath model: a qubit pair with one qubit coupled to N bath spins.

Qubit A is isolated.  Qubit B exchanges excitations with every bath spin at
equal strength g through a flip-flop coupling, so the joint dynamics preserve
excitation number and stay inside the ladder of symmetric bath states.  Within
that ladder the propagator splits into independent 2x2 rotations: the pair
(|1_B, n>, |0_B, n+1>) rotates at frequency Omega_n = g sqrt((n+1)(N-n)),
while |0_B, 0> is stationary.  The collective frequency Omega = g sqrt(N)
sets the time unit; trajectories are reported against Omega*t.

`LARGE_N` requests the infinite-bath limit where Omega is held fixed and
Omega_n -> Omega sqrt(n+1).

The mixed initial state interpolates between two flagged branches:

    p   * |psi_1><psi_1| x |1><1|    psi_1 = cos(a)|1_A 0_B> + sin(a)|0_A 1_B>
    1-p * |psi_2><psi_2| x |0><0|    psi_2 = cos(b)|1_A 1_B> + sin(b)|0_A 0_B>

where |n> are symmetric bath levels.  For this family the reduced pair state
stays in X form and its concurrence has a closed form, evaluated by
`concurrence_closed_form` and cross-checked against full-Hilbert-space
evolution by `BruteForceEvolver`.  The constant A|BE concurrence
(`concurrence_a_be`) and the conditional mutual information I(A:E|B)
(`cmi_closed_form`) have closed forms too; this module is the one place that
knows which branch carries weight p, angle alpha and flag |1>.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import check_orthonormal, identity, ordered_sum, projectors
from .states import (
    PAIR_DIMS,
    DensityMatrix,
    DimsSpec,
    PureState,
    _check_base,
    _spectrum_entropy,
    check_probabilities,
    local_pairs,
)

__all__ = [
    "LARGE_N",
    "SpinStarParams",
    "branch_vectors",
    "ZeroDiscordFamily",
    "zero_discord_family",
    "build_initial_state",
    "build_w_state",
    "closed_form_terms",
    "concurrence_closed_form",
    "concurrence_a_be",
    "cmi_closed_form",
    "sector_unitary",
    "evolve_sector",
    "BruteForceEvolver",
]

#: sentinel bath size requesting the infinite-bath frequency ladder
LARGE_N = math.inf

#: number of symmetric bath levels carried by the effective environment
ENV_LEVELS = 4

#: largest bath of the full-space oracle: its (B, bath) bit strings are int64
#: and need N + 1 <= 63 bits; `sweep --oracle --env-spins 62 --steps 3` peaks
#: at 35 MB resident
MAX_BATH_SPINS = 62

#: default dims for states on (isolated qubit, coupled qubit, effective bath)
PAIR_ENV_DIMS = DimsSpec(("A", 2), ("B", 2), ("E", ENV_LEVELS))

#: largest tolerated population outside the truncated bath ladder
TRUNCATION_TOL = 1e-12

@dataclass(frozen=True)
class SpinStarParams:
    """Model parameters: bath size, coupling, and initial-state angles.

    env_spins is an integer >= 2 or LARGE_N.  The mixing probability p weights
    the first branch; alpha and beta set the branch entanglement angles.
    """

    env_spins: float = LARGE_N
    coupling: float = 1.0
    p: float = 0.5
    alpha: float = math.pi / 4
    beta: float = math.pi / 4

    def __post_init__(self):
        n = self.env_spins
        if n != LARGE_N:
            # a bath too large for a float would overflow every frequency
            if not (isinstance(n, (int, np.integer)) and 2 <= n <= sys.float_info.max):
                raise ValueError(
                    f"env_spins must be an integer in [2, {sys.float_info.max:.3g}] or LARGE_N, "
                    f"got {n!r}"
                )
        if not self.coupling > 0.0:
            raise ValueError(f"coupling must be positive, got {self.coupling!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"mixing probability p must lie in [0, 1], got {self.p!r}")
        for name, angle in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0.0 <= angle <= 2.0 * math.pi:
                raise ValueError(f"{name} must lie in [0, 2*pi], got {angle!r}")
        # omega1 >= omega, so this bounds every frequency the closed forms read
        if not math.isfinite(self.omega1):
            raise ValueError(
                f"coupling {self.coupling!r} with env_spins {n!r} overflows the frequencies"
            )

    @property
    def is_large_n(self) -> bool:
        return self.env_spins == LARGE_N

    @cached_property
    def omega(self) -> float:
        """Collective frequency g sqrt(N); equals g in the infinite-bath limit."""
        if self.is_large_n:
            return self.coupling
        return self.coupling * math.sqrt(self.env_spins)

    @cached_property
    def omega1(self) -> float:
        """One-excitation frequency g sqrt(2N - 2); sqrt(2) Omega for LARGE_N."""
        return self.mode_frequency(1)

    @cached_property
    def _closed_form_weights(self) -> tuple[float, float, float, float, float, float]:
        """`_x_state`'s time-independent weights: a, b of the second branch's
        ground and excited pair populations, d, f of the first's, c, e of their coherences."""
        p = self.p
        sin_a, cos_a = math.sin(self.alpha), math.cos(self.alpha)
        sin_b, cos_b = math.sin(self.beta), math.cos(self.beta)
        return (
            (1.0 - p) * sin_b**2,
            (1.0 - p) * cos_b**2,
            0.5 * (1.0 - p) * math.sin(2.0 * self.beta),
            p * sin_a**2,
            0.5 * p * math.sin(2.0 * self.alpha),
            p * cos_a**2,
        )

    def mode_frequency(self, n: int) -> float:
        """Rotation frequency of the (|1_B, n>, |0_B, n+1>) pair.

        Bath levels beyond a finite ladder would need more than N excitations;
        their frequency is clamped to zero so they stay inert.
        """
        if n < 0:
            raise ValueError(f"level index must be non-negative, got {n}")
        if self.is_large_n:
            return self.coupling * math.sqrt(n + 1.0)
        return self.coupling * math.sqrt((n + 1.0) * max(self.env_spins - n, 0.0))


def branch_vectors(alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The two orthogonal pair vectors selected by the branch flags.

    Basis order is (|0_A 0_B>, |0_A 1_B>, |1_A 0_B>, |1_A 1_B>).
    """
    psi1 = np.array([0.0, math.sin(alpha), math.cos(alpha), 0.0], dtype=complex)
    psi2 = np.array([math.sin(beta), 0.0, 0.0, math.cos(beta)], dtype=complex)
    return psi1, psi2


class ZeroDiscordFamily:
    """Orthogonal pair states tagged by orthogonal bath flags, with weights.

    Any mixture sum_i p_i |psi_i><psi_i| x |mu_i><mu_i| drawn from the family
    is block diagonal in the flag basis and therefore discord-free across the
    pair-bath split, whatever the probabilities.
    """

    __slots__ = ("probabilities", "system_states", "env_flags")

    def __init__(
        self,
        probabilities: Sequence[float],
        system_states: Sequence[np.ndarray],
        env_flags: Sequence[np.ndarray],
    ):
        if not (len(probabilities) == len(system_states) == len(env_flags)):
            raise ValueError("probabilities, states, and flags must have equal length")
        probs = check_probabilities(probabilities, "member")
        states = tuple(np.array(s, dtype=complex).reshape(-1) for s in system_states)
        flags = tuple(np.array(f, dtype=complex).reshape(-1) for f in env_flags)
        if any(s.size != states[0].size for s in states):
            raise ValueError("system states must share one dimension")
        if any(f.size != flags[0].size for f in flags):
            raise ValueError("environment flags must share one dimension")
        check_orthonormal(states, "system states")
        check_orthonormal(flags, "environment flags")
        for arr in states + flags:
            arr.setflags(write=False)
        self.probabilities = probs
        self.system_states = states
        self.env_flags = flags

    def __len__(self) -> int:
        return len(self.probabilities)

    @property
    def flag_dim(self) -> int:
        return self.env_flags[0].size

    def mixture(self, levels: int | None = None) -> DensityMatrix:
        """The family's mixed state on (A, B, E), flags zero-padded to `levels`."""
        levels = self.flag_dim if levels is None else int(levels)
        if levels < self.flag_dim:
            raise ValueError(f"cannot truncate flags from {self.flag_dim} to {levels} levels")
        pair = projectors(self.system_states)
        bath = projectors(self.padded_flags(levels))
        # each member's kron(pair, bath), weighted, then summed in member order
        dim = pair.shape[-1] * levels
        kron = (pair[:, :, None, :, None] * bath[:, None, :, None, :]).reshape(-1, dim, dim)
        terms = np.array(self.probabilities)[:, None, None] * kron
        return DensityMatrix(ordered_sum(terms), DimsSpec(("A", 2), ("B", 2), ("E", levels)))

    def padded_flags(self, levels: int) -> np.ndarray:
        """(members, levels) array of the flags, zero-padded to `levels`."""
        flags = np.zeros((len(self), levels), dtype=complex)
        flags[:, : self.flag_dim] = self.env_flags
        return flags


def zero_discord_family(
    params: SpinStarParams, probabilities: Sequence[float] | None = None
) -> ZeroDiscordFamily:
    """The four-member family generated by the model's branch structure.

    Members one and two are the flagged branches themselves; members three
    and four complete the pair basis with their orthogonal partners, tagged
    by the next two bath levels.  Default weights (p, 1-p, 0, 0) reproduce
    the model's initial state exactly.
    """
    sin_a, cos_a = math.sin(params.alpha), math.cos(params.alpha)
    sin_b, cos_b = math.sin(params.beta), math.cos(params.beta)
    psi1, psi2 = branch_vectors(params.alpha, params.beta)
    psi3 = np.array([0.0, -cos_a, sin_a, 0.0], dtype=complex)
    psi4 = np.array([-cos_b, 0.0, 0.0, sin_b], dtype=complex)
    flags = identity(4)
    if probabilities is None:
        probabilities = (params.p, 1.0 - params.p, 0.0, 0.0)
    return ZeroDiscordFamily(
        probabilities,
        (psi1, psi2, psi3, psi4),
        (flags[1], flags[0], flags[2], flags[3]),
    )


def build_initial_state(params: SpinStarParams) -> DensityMatrix:
    """Flagged two-branch mixture on (A, B, E) with the effective bath ladder."""
    return zero_discord_family(params).mixture(ENV_LEVELS)


def build_w_state(x: float, y: float, z: float) -> PureState:
    """Single-excitation state x |0_A 0_B, 1> + y |0_A 1_B, 0> + z |1_A 0_B, 0>.

    The excitation is shared coherently between qubit A, qubit B, and the
    bath, so no flag basis can decohere it without disturbing the system.
    """
    amps = (x, y, z)
    if any(a == 0.0 for a in amps):
        raise ValueError("all three amplitudes must be non-zero")
    norm_sq = math.fsum(a * a for a in amps)
    if abs(norm_sq - 1.0) > 1e-12:
        raise ValueError(f"amplitudes have squared norm {norm_sq:.12g}, not 1")
    vec = np.zeros(2 * 2 * ENV_LEVELS, dtype=complex)
    vec[0 * 2 * ENV_LEVELS + 0 * ENV_LEVELS + 1] = x  # |0_A 0_B, 1>
    vec[0 * 2 * ENV_LEVELS + 1 * ENV_LEVELS + 0] = y  # |0_A 1_B, 0>
    vec[1 * 2 * ENV_LEVELS + 0 * ENV_LEVELS + 0] = z  # |1_A 0_B, 0>
    return PureState(vec, PAIR_ENV_DIMS)


def _time_failure(t: float) -> ValueError:
    return ValueError(f"time must be finite and non-negative, got {t!r}")


def _check_times(times: Sequence[float] | np.ndarray) -> np.ndarray:
    """times as a float array, once each is finite and non-negative; a failure
    reports the first bad one in row-major order."""
    times = np.asarray(times, dtype=float)
    bad = ~((times >= 0.0) & (times < math.inf))
    if bad.any():
        raise _time_failure(times.flat[int(np.argmax(bad))].item())
    return times


def _x_state(params: SpinStarParams, t, xp) -> tuple:
    """Populations p00, p01, p10, p11 and coherences z(00,11), z(01,10) of the pair's X state.

    The one copy of the formula, at a float t with xp = math or at each of an
    array with xp = numpy: both views make the same operations in the same
    order, so they differ only where numpy's cos, sin and square round
    otherwise than the math module's.
    """
    a, b, c, d, e, f = params._closed_form_weights
    angle, angle1 = params.omega * t, params.omega1 * t
    cos_w, sin_w = xp.cos(angle), xp.sin(angle)
    cos_w1, sin_w1 = xp.cos(angle1), xp.sin(angle1)
    return (
        a + d * sin_w1**2,
        d * cos_w1**2,
        b * sin_w**2 + f * cos_w**2,
        b * cos_w**2 + f * sin_w**2,
        c * cos_w,
        e * cos_w1 * cos_w,
    )


def _terms(params: SpinStarParams, t, xp) -> tuple:
    """`closed_form_terms`: |z(01,10)| - sqrt(p00 p11) and |z(00,11)| - sqrt(p01 p10)."""
    p00, p01, p10, p11, z_00_11, z_01_10 = _x_state(params, t, xp)
    return abs(z_01_10) - xp.sqrt(p11 * p00), abs(z_00_11) - xp.sqrt(p10 * p01)


def closed_form_terms(params: SpinStarParams, t: float) -> tuple[float, float]:
    """The two competing terms whose positive part sets the pair concurrence.

    Each is a coherence of the pair's X state less the geometric mean of the
    two populations it does not couple (Wootters, PRL 80, 2245 (1998)).
    """
    if not 0.0 <= t < math.inf:
        raise _time_failure(t)
    return _terms(params, t, math)


def concurrence_closed_form(params: SpinStarParams, t: float) -> float:
    """Concurrence of the reduced pair state at time t, in closed form."""
    term1, term2 = closed_form_terms(params, t)
    return 2.0 * max(0.0, term1, term2)


def concurrence_closed_form_stack(params: SpinStarParams, times: Sequence[float]) -> np.ndarray:
    """`concurrence_closed_form` at each time, evaluated as one stack.

    A time that is not finite and non-negative is refused with the scalar's
    message, for the first one in order.  A value that is not above zero is
    +0.0, as the scalar gives it.
    """
    best = np.maximum(*_terms(params, _check_times(times), np))
    return 2.0 * np.where(best > 0.0, best, 0.0)


def concurrence_a_be(params: SpinStarParams) -> float:
    """Concurrence between the isolated qubit and everything it is cut from.

    For the flagged pair mixture this cut inherits the branch structure, so
    the value is the weighted branch concurrence p |sin 2a| + (1-p) |sin 2b|
    and stays constant under any evolution local to the other side.
    """
    return params.p * abs(math.sin(2.0 * params.alpha)) + (1.0 - params.p) * abs(
        math.sin(2.0 * params.beta)
    )


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def cmi_closed_form(params: SpinStarParams) -> float:
    """I(A:E|B) of the flagged mixture in bits, from its branch structure.

    The branches are pure with orthogonal flags, so S(AB) = S(ABE) = H(p),
    S(BE) adds each branch's qubit-B entropy, and S(B) is the entropy of
    qubit B's |0> population p cos^2(alpha) + (1 - p) sin^2(beta).
    """
    p, x, y = params.p, math.cos(params.alpha) ** 2, math.sin(params.beta) ** 2
    return (
        _binary_entropy(p)
        + p * _binary_entropy(x)
        + (1.0 - p) * _binary_entropy(y)
        - _binary_entropy(p * x + (1.0 - p) * y)
    )


def _block_eigenvalues(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> list[np.ndarray]:
    """Both eigenvalues of each real symmetric 2x2 block [[x, z], [z, y]]."""
    mean, radius = (x + y) / 2.0, np.hypot((x - y) / 2.0, z)
    return [mean + radius, mean - radius]


def mi_closed_form(
    params: SpinStarParams, times: Sequence[float] | np.ndarray, base: float = 2
) -> np.ndarray:
    """Mutual information I(A:B) of the reduced pair at each time, in closed form.

    S(AB) is the entropy of the (00, 11) and (01, 10) blocks of `_x_state`,
    and both marginals are diagonal.  numpy's cos and sin may differ from the
    math module's in the last bit, so this is an independent check of
    `mutual_information` on `evolve_sector`, not a copy of its bits.
    """
    base = _check_base(base)
    p00, p01, p10, p11, z_00_11, z_01_10 = _x_state(params, _check_times(times), np)
    zero = np.zeros_like(p00)
    spectra = [  # of A, B and AB at each time; a zero drops out of the entropy
        [p00 + p01, p10 + p11, zero, zero],
        [p00 + p10, p01 + p11, zero, zero],
        _block_eigenvalues(p00, p11, z_00_11) + _block_eigenvalues(p01, p10, z_01_10),
    ]
    nats = _spectrum_entropy(np.moveaxis(np.array(spectra), (0, 1), (-2, -1)), math.e)
    return (nats[..., 0] + nats[..., 1] - nats[..., 2]) / math.log(base)


def sector_unitary(params: SpinStarParams, t: float, levels: int = ENV_LEVELS) -> np.ndarray:
    """Propagator on (qubit B) x (bath ladder with the given level count).

    Each pair (|1_B, n>, |0_B, n+1>) rotates through angle Omega_n * t with
    the usual -i sin off-diagonal phase; |0_B, 0> is stationary.  The top
    rung |1_B, levels-1> has no partner inside the truncation and is left
    inert, which is exact whenever that state is unpopulated.  A time that
    is not finite and non-negative is refused with the closed forms' message.
    """
    if levels < 2:
        raise ValueError(f"need at least two bath levels, got {levels}")
    if not 0.0 <= t < math.inf:
        raise _time_failure(t)
    dim = 2 * levels
    u = identity(dim)
    for n, frequency in enumerate(_rung_frequencies(params, levels)):
        theta = frequency * t
        hi = 1 * levels + n  # |1_B, n>
        lo = 0 * levels + (n + 1)  # |0_B, n+1>
        c, s = math.cos(theta), math.sin(theta)
        u[hi, hi] = c
        u[lo, lo] = c
        u[hi, lo] = -1j * s
        u[lo, hi] = -1j * s
    return u


@lru_cache(maxsize=64)
def _rung_frequencies(params: SpinStarParams, levels: int) -> tuple[float, ...]:
    """Omega_n of the rungs n = 0 .. levels - 2 that `sector_unitary` rotates.

    A sweep asks for the same few ladders at every point; the cache holds a
    fixed number of them.
    """
    return tuple(params.mode_frequency(n) for n in range(levels - 1))


def sector_unitaries(params: SpinStarParams, times: Sequence[float], levels: int) -> np.ndarray:
    """(T, 2 levels, 2 levels) stack of `sector_unitary` at T times.

    Each time keeps its own scalar call: numpy's vectorised cos and sin may
    round differently from the math module's.
    """
    return np.array([sector_unitary(params, t, levels) for t in times])


def _sector_levels(state: DensityMatrix) -> int:
    """The bath ladder's level count of a state that the sector propagator may evolve.

    The state must have no population on the inert top rung |1_B, top>,
    otherwise amplitude would leak past the truncation and the sector
    propagator would be wrong; such states are rejected.
    """
    if len(state.dims) != 3 or state.dims.dims[:2] != (2, 2):
        raise ValueError(f"need factors (qubit, qubit, bath ladder), got {state.dims!r}")
    levels = state.dims.dims[2]
    top = [(a * 2 + 1) * levels + (levels - 1) for a in (0, 1)]
    population = float(sum(state.mat[i, i].real for i in top))
    if population > TRUNCATION_TOL:
        raise ValueError(
            f"population {population:.3e} on the top bath rung lies outside the truncation"
        )
    return levels


def evolve_sector(state: DensityMatrix, t: float, params: SpinStarParams) -> DensityMatrix:
    """The (A, B) pair after evolving (A, B, bath ladder) for time t, A untouched.

    States with population on the inert top bath rung are rejected.
    """
    return DensityMatrix(*local_pairs(state, sector_unitary(params, t, _sector_levels(state))))


def evolve_sector_stack(state: DensityMatrix, unitaries: np.ndarray) -> np.ndarray:
    """The unvalidated (..., 4, 4) `evolve_sector` pairs under a stack of sector propagators.

    unitaries is a (..., 2 levels, 2 levels) stack on the state's bath ladder, as
    `sector_unitaries` gives.  Each pair has the bits `evolve_sector` gives at its time.
    """
    _sector_levels(state)
    return local_pairs(state, unitaries)[0]


class BruteForceEvolver:
    """Full-space evolution of the flagged pair mixture, one qubit per bath spin.

    The coupling conserves excitation number, at most two on (B, bath) in
    either branch, so the amplitudes live on the 1 + (N+1) + C(N+1, 2) bit
    strings with at most two set bits.  Every coupling flips qubit B: from the
    N + 1 strings with B up to the others the generator is [[0, K], [K^T, 0]],
    and with K = U S V^T each pair of singular vectors rotates at its singular
    value while the rest stands still.  No use is made of the symmetric
    ladder, so this checks the ladder reduction.
    """

    def __init__(self, params: SpinStarParams):
        if params.is_large_n:
            raise ValueError("the full-space oracle requires a finite bath size")
        n = int(params.env_spins)
        if n > MAX_BATH_SPINS:
            raise ValueError(f"bath size {n} exceeds the oracle cap {MAX_BATH_SPINS}")
        self.params = params
        # ascending bit strings with qubit B as bit n above the bath spins, so
        # the strings with B down come first
        powers = 1 << np.arange(n + 1, dtype=np.int64)
        pairs = np.add.outer(powers, powers)[np.triu_indices(n + 1, 1)]
        self.basis = np.sort(np.concatenate(([0], powers, pairs)))
        b_bit, spin_bits = powers[n], powers[:n]
        down_bath, up_bath = self.basis[: -(n + 1)], self.basis[-(n + 1) :] ^ b_bit
        # K: B up and a bath spin down swap them
        up, spin = np.nonzero((up_bath[:, None] & spin_bits) == 0)
        k = self.flip_block = np.zeros((up_bath.size, down_bath.size))
        k[up, np.searchsorted(down_bath, up_bath[up] | spin_bits[spin])] = params.coupling
        u, self.frequencies, vt = np.linalg.svd(k, full_matrices=False)
        # real amplitudes by (branch, qubit A, bit string), times the root of the
        # branch weight: the pair vector times the uniform superposition of the
        # one-excitation bath strings (branch one) or the empty one (branch two)
        b, bath = self.basis >> n, self.basis & (b_bit - 1)  # qubit B's bit, the bath string
        one_excitation = (bath != 0) & ((bath & (bath - 1)) == 0)
        weights = np.sqrt([params.p / n, 1.0 - params.p])
        flags = np.array([one_excitation, bath == 0]) * weights[:, None]
        pair = np.array(branch_vectors(params.alpha, params.beta)).real.reshape(2, 2, 2)
        amps = pair[:, :, b] * flags[:, None]
        a_down, a_up = amps[..., : down_bath.size], amps[..., down_bath.size :]
        # x = U^T a_up and y = V^T a_down rotate; the rest of a_down stands still
        x, y = a_up @ u, a_down @ vt.T
        rest = a_down - y @ vt
        # G = U^T V and h = U^T rest on the down strings that share an up string's bath
        shared = np.searchsorted(down_bath, up_bath)
        self._g = u.T @ vt[:, shared].T
        self._h = (rest[..., shared] @ u).swapaxes(0, 1)
        self._rest = np.tensordot(rest, rest, axes=([0, 2], [0, 2]))
        # (A, branch, singular vector) factors of the rows cx, sy, cy, sx below
        self._factors = np.array([x, y, y, x]).swapaxes(1, 2)

    def reduced_states(self, times: Sequence[float] | np.ndarray) -> np.ndarray:
        """(T, 4, 4) stack of the reduced pair states at T times, bath traced out.

        With c = cos(St) x - i sin(St) y on U's columns and e = cos(St) y -
        i sin(St) x on V's, the blocks are c c^dagger (B up), e e^dagger plus
        the rest's Gram matrix (B down) and c (e G^T + h)^dagger between them.
        The matrices are not validated, and have the same bits in any stack.
        """
        times = _check_times(times)
        size, width = times.size, self.frequencies.size
        angles = np.multiply.outer(times, self.frequencies)[:, None, None, None]
        cos, sin = np.cos(angles), np.sin(angles)
        # rows by (A, branch, singular vector) in pairs (cx, sy), (cy, sx) and
        # (fr, fi): c = cx - i sy, e = cy - i sx and e G^T + h = fr - i fi
        z = np.empty((size, 6, 2, 2, width))
        np.multiply(np.concatenate([cos, sin, cos, sin], axis=1), self._factors, out=z[:, :4])
        pairs = z.reshape(size, 3, 8, width)
        np.matmul(pairs[:, 1], self._g.T, out=pairs[:, 2])
        z[:, 4] += self._h
        z = z.reshape(size, 12, 2 * width)
        q = (z[:, :8] @ z.swapaxes(1, 2)).reshape(size, 4, 2, 6, 2)  # (row, A, row, A')
        # c c^dagger, e e^dagger and c (fr - i fi)^dagger, each of the form
        # (a - i b)(f - i g)^dagger = a f^T + b g^T + i (a g^T - b f^T)
        a, b, f, g = [0, 2, 0], [1, 3, 1], [0, 2, 4], [1, 3, 5]
        blocks = q[:, a, :, f] + q[:, b, :, g] + 1j * (q[:, a, :, g] - q[:, b, :, f])
        blocks[1] += self._rest
        rho = np.empty((size, 2, 2, 2, 2), dtype=complex)  # (A, B, A', B')
        rho[:, :, [1, 0, 1], :, [1, 0, 0]] = blocks
        rho[:, :, 0, :, 1] = blocks[2].conj().swapaxes(1, 2)
        return rho.reshape(size, 4, 4)

    def reduced_state(self, t: float) -> DensityMatrix:
        """Reduced pair state at time t, all bath spins traced out: `reduced_states` at t."""
        return DensityMatrix(self.reduced_states([t])[0], PAIR_DIMS)
