"""Independent reference values and output checks for the benchmark requests.

Nothing here imports spinstar.  The pair state is rebuilt from the physics:
qubit B exchanges excitations with a symmetric bath ladder at rates
g sqrt((k+1)(N-k)) between |1_B, k> and |0_B, k+1> (g sqrt(k+1) for the
infinite bath).  The flagged branches hold at most two excitations in
(B, bath), so a three-level ladder is exact.  The generator is diagonalised
with numpy, both branches are evolved as pure states, the bath is traced out
here, Wootters concurrence comes from the eigenvalues of
rho (Y x Y) rho* (Y x Y) and the entropies from the reduced spectra.

Every check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
import re

import numpy as np

#: ladder levels needed for two excitations in (B, bath): k = 0, 1, 2
LADDER_LEVELS = 3

#: Wootters concurrence from the eigenvalue form carries square roots of
#: rounding-level eigenvalues, about 1e-8; the bound leaves a factor ten.
#: Applied to the closed-form column.
CONCURRENCE_TOL = 1e-7

#: entropies of the reference spectra agree with the program to about 5e-12
MI_TOL = 1e-9

#: the program aborts with exit 3 when closed form and numeric differ more,
#: so this is the accuracy it claims for the numeric column
SWEEP_CONSISTENCY_TOL = 1e-6

#: closed-form identities between CSV columns printed with 12 digits
COLUMN_TOL = 1e-10

#: random phase dial on a Bell pair: |cos t| and 1 are reproduced to 5e-13
HIDDEN_TOL = 1e-10

SWEEP_HEADER = "omega_t,c_closed,c_numeric,mi,c_abe,c_inaccessible"
HIDDEN_HEADER = "omega_t,c_mixture,c_ensemble_avg,c_hidden"

LOG_BASES = {"2": 2.0, "e": math.e, "10": 10.0}

_YY = np.array(
    [[0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]
)


def ladder_generator(n_spins: float, g: float, levels: int = LADDER_LEVELS) -> np.ndarray:
    """Flip-flop generator on (B, bath ladder), basis index b * levels + k."""
    h = np.zeros((2 * levels, 2 * levels))
    for k in range(levels - 1):
        if math.isinf(n_spins):
            rate = g * math.sqrt(k + 1.0)
        else:
            rate = g * math.sqrt((k + 1.0) * max(n_spins - k, 0.0))
        hi, lo = levels + k, k + 1  # |1_B, k>, |0_B, k+1>
        h[hi, lo] = h[lo, hi] = rate
    return h


def collective_frequency(n_spins: float, g: float) -> float:
    return g if math.isinf(n_spins) else g * math.sqrt(n_spins)


def pair_states(
    p: float, alpha: float, beta: float, n_spins: float, g: float, omega_t: np.ndarray
) -> np.ndarray:
    """Reduced (A, B) states at each omega*t, shape (T, 4, 4).

    Pair basis (|0_A 0_B>, |0_A 1_B>, |1_A 0_B>, |1_A 1_B>).  Branch one is
    cos(a)|1_A 0_B> + sin(a)|0_A 1_B> with the bath on level 1, branch two
    cos(b)|1_A 1_B> + sin(b)|0_A 0_B> with the bath on level 0.
    """
    L = LADDER_LEVELS
    energies, vecs = np.linalg.eigh(ladder_generator(n_spins, g))
    t = np.asarray(omega_t, dtype=float) / collective_frequency(n_spins, g)
    phases = np.exp(-1j * np.outer(t, energies))  # (T, 2L)
    rho = np.zeros((t.size, 4, 4), dtype=complex)
    # rows: qubit A; columns: (B, bath level)
    branch1 = np.zeros((2, 2 * L))
    branch1[1, 0 * L + 1] = math.cos(alpha)
    branch1[0, 1 * L + 1] = math.sin(alpha)
    branch2 = np.zeros((2, 2 * L))
    branch2[1, 1 * L + 0] = math.cos(beta)
    branch2[0, 0 * L + 0] = math.sin(beta)
    for weight, x in ((p, branch1), (1.0 - p, branch2)):
        # x(t) = x U(t)^T with U(t) = V exp(-i E t) V^T
        evolved = ((x @ vecs)[None, :, :] * phases[:, None, :]) @ vecs.T
        m = evolved.reshape(t.size, 4, L)
        rho += weight * (m @ np.conj(np.swapaxes(m, 1, 2)))
    return rho


def wootters_concurrence(rho: np.ndarray) -> np.ndarray:
    """Concurrence of stacked two-qubit states from the spectrum of rho Y rho* Y."""
    r = rho @ _YY @ np.conj(rho) @ _YY
    lam = np.sqrt(np.clip(np.linalg.eigvals(r).real, 0.0, None))
    lam = -np.sort(-lam, axis=-1)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def entropy(rho: np.ndarray, base: float) -> np.ndarray:
    vals = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    safe = np.where(vals > 0.0, vals, 1.0)
    return -np.sum(vals * np.log(safe), axis=-1) / math.log(base)


def pair_mutual_information(rho: np.ndarray, base: float) -> np.ndarray:
    t4 = rho.reshape(-1, 2, 2, 2, 2)
    rho_a = np.einsum("tabcb->tac", t4)
    rho_b = np.einsum("tabad->tbd", t4)
    return entropy(rho_a, base) + entropy(rho_b, base) - entropy(rho, base)


def parse_csv(text: str, header: str, columns: int) -> tuple[np.ndarray | None, list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return None, [f"header {lines[0] if lines else ''!r} is not {header!r}"]
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        return None, [f"unparsable row: {exc}"]
    if any(len(r) != columns for r in rows):
        return None, [f"a row does not have {columns} columns"]
    return np.array(rows, dtype=float).reshape(-1, columns), []


def _grid(omega_t: np.ndarray, spec: dict) -> tuple[np.ndarray, list[str]]:
    """The requested grid, or problems if the omega_t column does not print it.

    References are evaluated on this grid, not on the printed column, whose
    12 digits would cost up to 5e-13 * t_max in time.
    """
    grid = np.linspace(0.0, spec["t_max"], spec["steps"])
    if omega_t.size != grid.size:
        return grid, [f"{omega_t.size} rows, expected {grid.size}"]
    dev = float(np.max(np.abs(omega_t - grid)))
    if not dev <= COLUMN_TOL * max(1.0, spec["t_max"]):
        return grid, [f"omega_t column deviates from the grid by {dev:.3e}"]
    return grid, []


def _worst(name: str, dev: np.ndarray, tol: float) -> list[str]:
    worst = float(np.max(dev)) if dev.size else 0.0
    if not worst <= tol:
        row = int(np.argmax(dev))
        return [f"{name} off by {worst:.3e} at row {row} (tol {tol:.1e})"]
    return []


def check_sweep(text: str, spec: dict) -> list[str]:
    """Every row of a sweep CSV against the reference and the column identities."""
    data, problems = parse_csv(text, SWEEP_HEADER, 6)
    if data is None:
        return problems
    omega_t, c_closed, c_numeric, mi, c_abe, c_inacc = data.T
    grid, problems = _grid(omega_t, spec)
    if problems:
        return problems
    p, alpha, beta = spec["p"], spec["alpha"], spec["beta"]
    base = LOG_BASES[spec["log_base"]]
    rho = pair_states(p, alpha, beta, spec["env_spins"], spec["coupling"], grid)
    c_ref = wootters_concurrence(rho)
    mi_ref = pair_mutual_information(rho, base)
    c_abe_ref = p * abs(math.sin(2.0 * alpha)) + (1.0 - p) * abs(math.sin(2.0 * beta))
    mi_max = 2.0 * math.log(2.0) / math.log(base)
    problems += _worst("c_closed vs reference", np.abs(c_closed - c_ref), CONCURRENCE_TOL)
    problems += _worst("c_numeric vs reference", np.abs(c_numeric - c_ref), SWEEP_CONSISTENCY_TOL)
    problems += _worst("mi vs reference", np.abs(mi - mi_ref), MI_TOL)
    problems += _worst("c_closed vs c_numeric", np.abs(c_closed - c_numeric), SWEEP_CONSISTENCY_TOL)
    problems += _worst("c_abe", np.abs(c_abe - c_abe_ref), COLUMN_TOL)
    problems += _worst("c_inaccessible", np.abs(c_inacc - (c_abe - c_numeric)), COLUMN_TOL)
    for name, col, hi in (("c_closed", c_closed, 1.0), ("c_numeric", c_numeric, 1.0), ("mi", mi, mi_max)):
        if not (np.all(col >= -COLUMN_TOL) and np.all(col <= hi + COLUMN_TOL)):
            problems.append(f"{name} leaves [0, {hi:.6g}]")
    if not np.all(c_inacc >= 0.0):
        problems.append("c_inaccessible is negative")
    return problems


def check_hidden(text: str, spec: dict) -> list[str]:
    """Every row of a hidden CSV against the phase-dial closed forms."""
    data, problems = parse_csv(text, HIDDEN_HEADER, 4)
    if data is None:
        return problems
    omega_t, c_mix, c_ens, c_hidden = data.T
    grid, problems = _grid(omega_t, spec)
    if problems:
        return problems
    expect = np.abs(np.cos(grid))
    problems += _worst("c_mixture vs |cos t|", np.abs(c_mix - expect), HIDDEN_TOL)
    problems += _worst("c_ensemble_avg vs 1", np.abs(c_ens - 1.0), HIDDEN_TOL)
    problems += _worst("c_hidden vs 1 - |cos t|", np.abs(c_hidden - (1.0 - expect)), HIDDEN_TOL)
    return problems


_NUM = r"([-+0-9.eE]+|nan|inf)"
_KRAUS_LINES = (
    ("completeness residual", re.compile(r"^completeness residual \(max\): " + _NUM + r"  \[tol " + _NUM + r"\]$"), "le"),
    ("choi min eigenvalue", re.compile(r"^choi min eigenvalue \(min\): " + _NUM + r"  \[floor " + _NUM + r"\]$"), "ge"),
    ("channel deviation", re.compile(r"^channel vs traced evolution \(max dev\): " + _NUM + r"  \[tol " + _NUM + r"\]$"), "le"),
)


def check_kraus(text: str, spec: dict) -> list[str]:
    """PASS, the expected check times, and each residual within its printed bound."""
    lines = text.splitlines()
    if len(lines) != 5:
        return [f"{len(lines)} lines, expected 5"]
    problems = []
    if not lines[0].startswith("times (omega*t): "):
        return [f"bad times line {lines[0]!r}"]
    try:
        times = [float(v) for v in lines[0].split(": ", 1)[1].split()]
    except ValueError:
        return [f"bad times line {lines[0]!r}"]
    if spec["t"] is None:
        if len(times) != 10 or times != sorted(times) or not all(0.0 <= v <= 4.0 * math.pi for v in times):
            problems.append(f"default check times {times} are not ten sorted draws in [0, 4 pi]")
    elif len(times) != 1 or abs(times[0] - spec["t"]) > COLUMN_TOL * max(1.0, spec["t"]):
        problems.append(f"check time {times} is not {spec['t']!r}")
    for (name, pattern, sense), line in zip(_KRAUS_LINES, lines[1:4]):
        match = pattern.match(line)
        if match is None:
            problems.append(f"bad {name} line {line!r}")
            continue
        value, bound = float(match.group(1)), float(match.group(2))
        ok = value <= bound if sense == "le" else value >= bound
        if not ok:
            problems.append(f"{name} {value:.3e} beyond its bound {bound:.1e}")
    if lines[4] != "PASS":
        problems.append(f"last line {lines[4]!r} is not PASS")
    return problems


#: verdict, conditional mutual information in bits, and the witness minimum
#: eigenvalue (None: not checked) of each scenario at the default parameters
MARKOV_EXPECTED = {
    "eq-mixture": ("non-markov", 1.0, None),
    "w-state": ("non-markov", -(1.0 / 3.0) * math.log2(1.0 / 3.0) - (2.0 / 3.0) * math.log2(2.0 / 3.0), (1.0 - math.sqrt(5.0)) / 6.0),
    "factorized": ("markov", 0.0, None),
    "custom-markov": ("markov", 0.0, None),
}

#: markov-check prints seven significant digits
MARKOV_PRINT_TOL = 1e-6


def check_markov(text: str, spec: dict) -> list[str]:
    """Verdict, conditional mutual information and witness against known values."""
    verdict, cmi_expected, witness_expected = MARKOV_EXPECTED[spec["scenario"]]
    lines = text.splitlines()
    if len(lines) != 6:
        return [f"{len(lines)} lines, expected 6"]
    problems = []
    if lines[0] != f"scenario: {spec['scenario']}":
        problems.append(f"bad scenario line {lines[0]!r}")
    match = re.match(r"^conditional mutual information: " + _NUM + r"  \[tol " + _NUM + r"\]$", lines[1])
    if match is None:
        problems.append(f"bad CMI line {lines[1]!r}")
    else:
        cmi = float(match.group(1))
        if not abs(cmi - cmi_expected) <= MARKOV_PRINT_TOL:
            problems.append(f"CMI {cmi!r} is not {cmi_expected:.6f}")
    match = re.match(r"^witness .*: min eigenvalue " + _NUM + r"  (NPT|PPT) ", lines[2])
    if match is None:
        problems.append(f"bad witness line {lines[2]!r}")
    else:
        value = float(match.group(1))
        if (match.group(2) == "NPT") != (value < -1e-9):
            problems.append(f"witness label {match.group(2)} disagrees with eigenvalue {value!r}")
        if witness_expected is not None and not abs(value - witness_expected) <= MARKOV_PRINT_TOL:
            problems.append(f"witness eigenvalue {value!r} is not {witness_expected:.6f}")
    if lines[3] != f"verdict: {verdict}":
        problems.append(f"{lines[3]!r}, expected verdict {verdict}")
    if lines[4] != f"expected: {verdict}":
        problems.append(f"{lines[4]!r}, expected {verdict}")
    if lines[5] != "PASS":
        problems.append(f"last line {lines[5]!r} is not PASS")
    return problems


CHECKS = {
    "sweep": check_sweep,
    "hidden": check_hidden,
    "kraus-check": check_kraus,
    "markov-check": check_markov,
}
