"""The scalar sector route of `sweep`, bit for bit against the uncached loops it replaced.

`sweep` makes one `evolve_sector`, `concurrence_2q` and `mutual_information`
call per grid point.  Their label work, cut checks and rung frequencies are
cached, and a single matrix skips some array bookkeeping; none of that may
move a bit.  The loops below are the uncached implementations, kept as
references: every matrix, spectrum and value is compared with `tobytes`, so
even the sign of a zero counts.
"""

import math
import warnings

import numpy as np
import pytest

from helpers import random_density
from spinstar.entanglement import concurrence_2q
from spinstar.linalg import HERM_TOL, dagger, hermitian_part
from spinstar.model import (
    LARGE_N,
    PAIR_DIMS,
    SpinStarParams,
    build_initial_state,
    evolve_sector,
    sector_unitary,
)
from spinstar.states import (
    DensityMatrix,
    DimsSpec,
    conditional_mutual_information,
    density_spectra,
    local_conjugates,
    mutual_information,
    partial_trace,
    split_cut,
)
from test_entanglement import loop_concurrence

PAIR_CUT = (("A",), ("B",))
SPECIAL_ANGLES = (0.0, math.pi / 4, math.pi / 2, math.pi)


def loop_hermitian_part(m, what):
    """The Hermitian part with the result-type cast on every input."""
    m = np.asarray(m)
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
    return (m + m_dag) / 2.0


def loop_density_spectra(mats, dims, *, trace_tol=1e-10, eig_floor=1e-9):
    """Validated spectra, each trace and lowest eigenvalue read through a raveled list."""
    sym = loop_hermitian_part(mats, "density matrix")
    if sym.shape[-1] != dims.total_dim:
        raise ValueError(
            f"matrix dimension {sym.shape[-1]} does not match factors {dims!r}"
            f" with total dimension {dims.total_dim}"
        )
    traces = np.ravel(np.trace(mats, axis1=-2, axis2=-1)).tolist()
    for tr in traces:
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"density matrix trace {tr:.12g} is not 1 within {trace_tol:.1e}")
    vals = np.linalg.eigvalsh(sym)
    for low in np.ravel(vals[..., 0]).tolist():
        if low < -eig_floor:
            raise ValueError(
                f"density matrix is not positive semidefinite: min eigenvalue {low:.3e}"
            )
    return vals


def loop_partial_trace(mat, dims, keep):
    """The reduced matrix and its factors, with the label work redone on every call."""
    keep_set = set(keep)
    kept = [i for i, lab in enumerate(dims.labels) if lab in keep_set]
    n = len(dims)
    ket = [n + i if i in kept else i for i in range(n)]
    out = kept + [n + i for i in kept]
    reduced = np.einsum(mat.reshape(dims.dims * 2), [*range(n), *ket], out)
    sub = DimsSpec(*((dims.labels[i], dims.dims[i]) for i in kept))
    return reduced.reshape(sub.total_dim, sub.total_dim), sub


def loop_sector_unitary(params, t, levels):
    """The ladder propagator with each rung frequency read from `mode_frequency`."""
    u = np.eye(2 * levels, dtype=complex)
    for n in range(levels - 1):
        theta = params.mode_frequency(n) * t
        hi, lo = levels + n, n + 1
        c, s = math.cos(theta), math.sin(theta)
        u[hi, hi] = c
        u[lo, lo] = c
        u[hi, lo] = -1j * s
        u[lo, hi] = -1j * s
    return u


def loop_entropy(vals, base):
    probs = vals[vals > 0.0]
    return float(-(probs @ np.log(probs)) / math.log(base))


def loop_point(rho0, t, params, base):
    """Pair, marginals, spectra, concurrence and I(A:B) of one sweep point."""
    u = loop_sector_unitary(params, t, rho0.dims.dims[2])
    pair, _ = loop_partial_trace(local_conjugates(rho0.mat, u), rho0.dims, ("A", "B"))
    pair = np.array(pair, dtype=complex)
    spectrum = loop_density_spectra(pair, PAIR_DIMS)
    marginals = []
    for keep in PAIR_CUT:
        reduced, sub = loop_partial_trace(pair, PAIR_DIMS, keep)
        marginals.append((reduced, loop_density_spectra(reduced, sub)))
    (_, s_a), (_, s_b) = marginals
    mi = loop_entropy(s_a, base) + loop_entropy(s_b, base) - loop_entropy(spectrum, base)
    return pair, spectrum, marginals, mi


def sweep_draws(rng, count):
    """Parameter sets over the whole range: p in {0, 1, random}, special or random angles."""
    for k in range(count):
        env = LARGE_N if k % 4 == 0 else int(np.exp(rng.uniform(np.log(2), np.log(5000))))
        angles = [
            float(rng.choice(SPECIAL_ANGLES)) if rng.random() < 0.4 else rng.uniform(0, 2 * math.pi)
            for _ in range(2)
        ]
        yield SpinStarParams(
            env_spins=env,
            coupling=float(np.exp(rng.uniform(np.log(0.25), np.log(4.0)))),
            p=(0.0, 1.0, rng.random())[k % 3],
            alpha=angles[0],
            beta=angles[1],
        )


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_sweep_points_have_the_bits_of_the_loops():
    rng = np.random.default_rng(1414)
    for params in sweep_draws(rng, 40):
        rho0 = build_initial_state(params)
        base = float(rng.choice([2.0, math.e, 10.0]))
        omega_t = np.concatenate(
            ([0.0, math.pi / 2], rng.uniform(0.0, 60.0, 8), 10 ** rng.uniform(2, 4, 4))
        )
        for t in omega_t / params.omega:
            pair = evolve_sector(rho0, t, params)
            ref_pair, ref_spectrum, ref_marginals, ref_mi = loop_point(rho0, t, params, base)
            assert same_bits(pair.mat, ref_pair)
            assert same_bits(pair.eigenvalues, ref_spectrum)
            assert pair.dims == PAIR_DIMS
            for keep, (ref_mat, ref_vals) in zip(PAIR_CUT, ref_marginals):
                marginal = partial_trace(pair, keep)
                assert same_bits(marginal.mat, ref_mat)
                assert same_bits(marginal.eigenvalues, ref_vals)
            assert same_bits(concurrence_2q(pair), loop_concurrence(pair))
            assert same_bits(mutual_information(pair, PAIR_CUT, base), ref_mi)


@pytest.mark.parametrize("levels", [2, 4, 5, 7])
def test_sector_unitary_has_the_bits_of_the_loop(levels):
    rng = np.random.default_rng(levels)
    for params in sweep_draws(rng, 12):
        for omega_t in (0.0, 1.3, 77.0, 1e4):
            t = omega_t / params.omega
            expected = loop_sector_unitary(params, t, levels)
            assert same_bits(sector_unitary(params, t, levels), expected)


def test_spectra_of_stacks_and_single_matrices_have_the_bits_of_the_loop():
    rng = np.random.default_rng(7)
    dims = DimsSpec(("A", 2), ("B", 3))
    mats = np.array([random_density(rng, dims).mat for _ in range(12)])
    for stack in (mats, mats.reshape(3, 4, 6, 6), mats[0]):
        assert same_bits(density_spectra(stack, dims), loop_density_spectra(stack, dims))
    real = mats[0].real.copy()
    real = (real + real.T) / 2.0 / np.trace(real)
    assert same_bits(density_spectra(real, dims), loop_density_spectra(real, dims))


def bad_matrices():
    """(label, matrix) pairs that each check of `density_spectra` rejects."""
    rho = np.eye(4, dtype=complex) / 4.0
    # Hermitian within HERM_TOL, but the trace is 1 + 2e-10 i: only the raw
    # matrix's trace shows it, the symmetrized one's is exactly 1
    imaginary_trace = rho + np.diag([0.5e-10j] * 4)
    nan, inf = rho.copy(), rho.copy()
    nan[1, 2] = np.nan
    inf[0, 0] = np.inf
    skew = rho.copy()
    skew[0, 1] = 1e-3
    negative = np.diag([0.5, 0.5, 0.1, -0.1]).astype(complex)
    return [
        ("imaginary trace", imaginary_trace),
        ("real trace", rho * 1.01),
        ("nan", nan),
        ("inf", inf),
        ("not hermitian", skew),
        ("negative", negative),
        ("shape", np.eye(2, dtype=complex) / 2.0),
    ]


@pytest.mark.parametrize("label, bad", bad_matrices(), ids=[b[0] for b in bad_matrices()])
def test_each_check_gives_the_message_of_the_loop_and_no_warning(label, bad):
    """The trace is read from the raw matrix, and NaN or inf raises before any arithmetic."""
    good = np.eye(4, dtype=complex) / 4.0
    with pytest.raises(ValueError) as expected:
        loop_density_spectra(bad, PAIR_DIMS)
    stacks = [np.stack([good, bad, good])] if bad.shape == good.shape else []
    for mats in [bad, *stacks]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as raised:
                density_spectra(mats, PAIR_DIMS)
            with pytest.raises(ValueError) as constructed:
                DensityMatrix(bad, PAIR_DIMS)
        assert str(raised.value) == str(expected.value)
        assert str(constructed.value) == str(expected.value)


@pytest.mark.parametrize(
    "dtype", [np.complex128, np.complex64, np.float64, np.float32, np.int64, ">c16"]
)
def test_hermitian_part_keeps_the_result_type_of_the_loop(dtype):
    rng = np.random.default_rng(3)
    m = rng.integers(-3, 4, size=(2, 3, 3)).astype(complex)
    m = m + dagger(m)
    if np.dtype(dtype).kind != "c":
        m = m.real
    m = m.astype(dtype)
    for mats in (m, m[0]):
        assert same_bits(hermitian_part(mats, "x"), loop_hermitian_part(mats, "x"))


class TestCachedPlans:
    def test_a_label_set_with_other_dimensions_gets_its_own_plan(self):
        rng = np.random.default_rng(5)
        for dims in (
            DimsSpec(("A", 2), ("B", 3)),
            DimsSpec(("A", 3), ("B", 2)),
            DimsSpec(("A", 2), ("B", 2)),
            DimsSpec(("A", 4), ("B", 1)),
        ):
            rho = random_density(rng, dims)
            for keep in (("A",), ("B",), ("A", "B")):
                traced = partial_trace(rho, keep)
                ref_mat, ref_dims = loop_partial_trace(rho.mat, dims, keep)
                assert traced.dims == ref_dims
                assert same_bits(traced.mat, ref_mat)
            assert split_cut(dims, PAIR_CUT) == PAIR_CUT

    def test_kept_factors_stay_in_stored_order(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, DimsSpec(("A", 2), ("B", 3), ("E", 2)))
        forward = partial_trace(rho, ("A", "B"))
        for keep in (("B", "A"), ["B", "A"], ("A", "B")):
            traced = partial_trace(rho, keep)
            assert traced.dims.labels == ("A", "B")
            assert same_bits(traced.mat, forward.mat)
        assert partial_trace(rho, ("E", "A")).dims.labels == ("A", "E")

    @pytest.mark.parametrize(
        "keep, message",
        [(("Z",), "unknown factor label 'Z'"), (("A", "A"), "repeated labels"), ((), "non-empty")],
    )
    def test_a_bad_keep_raises_on_every_call(self, keep, message):
        rho = random_density(np.random.default_rng(8), PAIR_DIMS)
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                partial_trace(rho, keep)
        assert partial_trace(rho, ("A",)).dims.labels == ("A",)

    @pytest.mark.parametrize(
        "cut, message",
        [
            ((("A",), ("Z",)), "unknown factor label 'Z'"),
            ((("A", "A"), ("B",)), "repeated labels"),
            ((("A",), ("A",)), "overlap"),
            ((("A",), ()), "non-empty"),
        ],
    )
    def test_a_bad_cut_raises_on_every_call(self, cut, message):
        rho = random_density(np.random.default_rng(9), PAIR_DIMS)
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                mutual_information(rho, cut)
            with pytest.raises(ValueError, match=message):
                split_cut(rho.dims, cut)

    def test_a_cut_that_misses_a_factor_raises_on_every_call(self):
        rho = random_density(np.random.default_rng(10), DimsSpec(("A", 2), ("B", 2), ("E", 2)))
        for _ in range(3):
            with pytest.raises(ValueError, match="does not partition"):
                mutual_information(rho, PAIR_CUT)

    def test_lists_and_generators_work_as_keep_and_cut(self):
        rho = random_density(np.random.default_rng(11), PAIR_DIMS)
        expected = partial_trace(rho, ("A",))
        for keep in (["A"], (lab for lab in ["A"]), "A"):
            assert same_bits(partial_trace(rho, keep).mat, expected.mat)
        value = mutual_information(rho, PAIR_CUT)
        for cut in ((["A"], ["B"]), [(lab for lab in "A"), iter(["B"])], ("A", "B")):
            assert same_bits(mutual_information(rho, cut), value)

    def test_three_factor_cmi_has_the_bits_of_the_loop(self):
        rng = np.random.default_rng(12)
        states = [random_density(rng, DimsSpec(("A", 2), ("B", 3), ("E", 2))) for _ in range(5)]
        states.append(build_initial_state(SpinStarParams(p=0.3, alpha=0.4, beta=1.2)))
        for rho in states:
            first, mid, last = rho.dims.labels

            def entropy(keep):
                reduced, sub = loop_partial_trace(rho.mat, rho.dims, keep)
                return loop_entropy(loop_density_spectra(reduced, sub), 2)

            expected = (
                entropy((first, mid))
                + entropy((mid, last))
                - entropy((mid,))
                - loop_entropy(loop_density_spectra(rho.mat, rho.dims), 2)
            )
            assert same_bits(conditional_mutual_information(rho), expected)
