"""Seeded request rounds for the three benchmark workloads.

A round is a fixed list of request slots; the seed draws every model
parameter, grid length and log base, and the order of the slots.  The slot
list itself (subcommand, grid size, bath size for the oracle) does not depend
on the seed, so every seed does the same amount of work and the run-to-run
spread measures the program, not the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

LARGE_N = math.inf

#: trajectory-scan: long grids through the sector path, mostly sweeps.  Two
#: sweeps are shorter than the hidden request and two longer, so the median
#: request is the hidden one, whose cost does not depend on the drawn model
#: parameters (a sweep's per-point cost varies by about 10% with them).
TRAJECTORY_SLOTS = (
    ("sweep", 1000),
    ("sweep", 1300),
    ("hidden", 1400),
    ("sweep", 3000),
    ("sweep", 4000),
)

#: oracle-crosscheck: (bath spins, grid points); set-up grows about 8x per spin
ORACLE_SLOTS = ((8, 40), (8, 200), (9, 60), (9, 150), (10, 80))

#: audit-mix: many short requests with per-request fixed costs.  Six slots
#: are faster than a single-time kraus-check and six slower, so the median
#: request falls inside the five kraus-check --t slots, not between clusters.
AUDIT_SLOTS = (
    ("markov-check", "eq-mixture"),
    ("markov-check", "w-state"),
    ("markov-check", "factorized"),
    ("markov-check", "custom-markov"),
    ("sweep", 2),
    ("hidden", 2),
    ("kraus-check-t", "finite"),
    ("kraus-check-t", "finite"),
    ("kraus-check-t", "finite"),
    ("kraus-check-t", "large"),
    ("kraus-check-t", "large"),
    ("kraus-check", "finite"),
    ("kraus-check", "large"),
    ("sweep", 10),
    ("sweep", 20),
    ("hidden", 14),
    ("hidden", 20),
)

WORKLOADS = ("trajectory-scan", "oracle-crosscheck", "audit-mix")


@dataclass(frozen=True)
class Request:
    """One CLI call: its arguments, what the checker needs, and its point count."""

    kind: str
    argv: tuple[str, ...]
    spec: dict
    points: int


def _p(rng: random.Random) -> float:
    r = rng.random()
    if r < 0.1:
        return 0.0
    if r < 0.2:
        return 1.0
    return rng.random()


def _angle(rng: random.Random) -> float:
    if rng.random() < 0.15:
        return rng.choice((0.0, math.pi / 4.0, math.pi / 2.0, math.pi, 2.0 * math.pi))
    return rng.uniform(0.0, 2.0 * math.pi)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _bath(rng: random.Random, large: bool) -> tuple[float, tuple[str, ...]]:
    if large:
        return LARGE_N, (("--large-n",) if rng.random() < 0.5 else ())
    n = int(round(_log_uniform(rng, 2.0, 5000.0)))
    return n, ("--env-spins", str(n))


def _model(rng: random.Random, env_spins: float, bath_flags: tuple[str, ...]) -> tuple[dict, list[str]]:
    spec = {
        "p": _p(rng),
        "alpha": _angle(rng),
        "beta": _angle(rng),
        "coupling": _log_uniform(rng, 0.25, 4.0),
        "env_spins": env_spins,
    }
    argv = [
        "--p", repr(spec["p"]),
        "--alpha", repr(spec["alpha"]),
        "--beta", repr(spec["beta"]),
        "--coupling", repr(spec["coupling"]),
        *bath_flags,
    ]
    return spec, argv


def _sweep(rng: random.Random, steps: int, env_spins: float, bath_flags, oracle: bool) -> Request:
    spec, argv = _model(rng, env_spins, bath_flags)
    spec.update(
        t_max=_log_uniform(rng, math.pi / 2.0, 30.0 * math.pi),
        steps=steps,
        log_base=rng.choice(("2", "e", "10")),
    )
    argv = ["sweep", *argv, "--t-max", repr(spec["t_max"]), "--steps", str(steps),
            "--log-base", spec["log_base"]]
    if oracle:
        argv.append("--oracle")
    return Request("sweep", tuple(argv), spec, steps)


def _hidden(rng: random.Random, steps: int) -> Request:
    spec = {"t_max": _log_uniform(rng, math.pi / 2.0, 30.0 * math.pi), "steps": steps}
    argv = ("hidden", "--t-max", repr(spec["t_max"]), "--steps", str(steps))
    return Request("hidden", argv, spec, steps)


def _kraus(rng: random.Random, bath: str, single_time: bool) -> Request:
    env_spins, flags = _bath(rng, bath == "large")
    spec, argv = _model(rng, env_spins, flags)
    if single_time:
        spec["t"] = rng.uniform(0.0, 4.0 * math.pi)
        argv += ["--t", repr(spec["t"])]
        points = 1
    else:
        spec["t"] = None
        argv += ["--seed", str(rng.randrange(2**31))]
        points = 10
    return Request("kraus-check", ("kraus-check", *argv), spec, points)


def build_round(workload: str, seed: int, scale: float = 1.0) -> list[Request]:
    """The seeded request round of a workload.

    scale shrinks every grid (at least two points) so that tests can run a
    whole round in well under a second; the benchmark uses scale 1.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")

    def size(steps: int) -> int:
        return max(2, int(round(steps * scale)))

    requests = []
    if workload == "trajectory-scan":
        for kind, steps in TRAJECTORY_SLOTS:
            if kind == "hidden":
                requests.append(_hidden(rng, size(steps)))
            else:
                env_spins, flags = _bath(rng, rng.random() < 0.4)
                requests.append(_sweep(rng, size(steps), env_spins, flags, oracle=False))
    elif workload == "oracle-crosscheck":
        for n, steps in ORACLE_SLOTS:
            requests.append(_sweep(rng, size(steps), n, ("--env-spins", str(n)), oracle=True))
    else:
        for kind, arg in AUDIT_SLOTS:
            if kind.startswith("kraus-check"):
                requests.append(_kraus(rng, arg, single_time=kind == "kraus-check-t"))
            elif kind == "markov-check":
                requests.append(Request(kind, (kind, "--scenario", arg), {"scenario": arg}, 1))
            elif kind == "hidden":
                requests.append(_hidden(rng, size(arg)))
            else:
                env_spins, flags = _bath(rng, rng.random() < 0.4)
                requests.append(_sweep(rng, size(arg), env_spins, flags, oracle=False))
    rng.shuffle(requests)
    return requests


def warmup_round(workload: str) -> list[Request]:
    """Small fixed requests that load every code path of the workload once."""
    requests = build_round(workload, seed=-1, scale=0.01)
    if workload == "oracle-crosscheck":
        # one short request at the smallest bath loads the dense eigensolver;
        # the larger baths would put most of a round into set-up
        return [next(r for r in requests if r.spec["env_spins"] == 8)]
    return requests
