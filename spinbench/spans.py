"""Per-layer spans recorded from outside the program.

`Tracer.install` wraps the public functions of each spinstar module named in
`LAYERS`.  A function is patched in its defining module and in every spinstar
module that imported it by name (``spinstar.cli.evolve_sector``,
``spinstar.markov.concurrence_2q``, ...), since a patch on the defining module
alone misses calls made through those names.  Methods are patched on their
class.  ``numpy.linalg`` eigensolvers are counted, not spanned.

Spans are kept in memory with their parent and request; `take_round` turns the
spans of one round into per-layer call counts and self times, where a span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

#: (layer, defining module, attribute); "Class.method" patches the class
LAYERS = (
    ("cli", "spinstar.cli", "main"),
    ("model.evolve_sector", "spinstar.model", "evolve_sector"),
    ("model.sector_unitary", "spinstar.model", "sector_unitary"),
    ("model.closed_form", "spinstar.model", "concurrence_closed_form"),
    ("model.oracle_setup", "spinstar.model", "BruteForceEvolver.__init__"),
    ("model.oracle_reduced_state", "spinstar.model", "BruteForceEvolver.reduced_state"),
    ("states.partial_trace", "spinstar.states", "partial_trace"),
    ("states.density_matrix", "spinstar.states", "DensityMatrix.__init__"),
    ("states.entropy", "spinstar.states", "von_neumann_entropy"),
    ("states.mutual_information", "spinstar.states", "mutual_information"),
    ("states.cmi", "spinstar.states", "conditional_mutual_information"),
    ("entanglement.concurrence_2q", "spinstar.entanglement", "concurrence_2q"),
    ("entanglement.hidden_entanglement", "spinstar.entanglement", "hidden_entanglement"),
    ("entanglement.ppt_min_eigenvalue", "spinstar.entanglement", "ppt_min_eigenvalue"),
    ("channels.ruc_trajectory", "spinstar.channels", "ruc_trajectory"),
    ("channels.extract_kraus", "spinstar.channels", "extract_kraus"),
    ("channels.apply_channel", "spinstar.channels", "apply_channel"),
    ("channels.choi_matrix", "spinstar.channels", "choi_matrix"),
    ("markov.is_markov", "spinstar.markov", "is_markov"),
    ("markov.witnesses", "spinstar.markov", "markov_necessary_witnesses"),
    ("linalg.herm_eig", "spinstar.linalg", "herm_eig"),
)

EIGENSOLVERS = ("eigh", "eigvalsh", "eigvals")


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [("cli.requests", "count"), ("cli.self_ms", "ms"), ("cli.output_bytes", "bytes")]
    for layer, _, _ in LAYERS[1:]:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_ms", "ms")]
    names += [("kernel.eigensolves", "count"), ("linalg.herm_eig.max_dim", "dim")]
    return names


class Tracer:
    """Span recorder; records only while `active` is set, i.e. inside requests."""

    def __init__(self):
        self.active = False
        self.request = -1
        self._spans: list[list] = []  # [layer, parent index, request, start, end]
        self._stack: list[int] = []
        self._eigensolves = 0
        self._max_dim = 0
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, layer: str, fn, probe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if probe is not None:
                probe(args)
            stack = tracer._stack
            span = [layer, stack[-1] if stack else -1, tracer.request, time.perf_counter(), 0.0]
            stack.append(len(tracer._spans))
            tracer._spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()

        return wrapper

    def _count(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer._eigensolves += 1
            return fn(*args, **kwargs)

        return wrapper

    def _probe_dim(self, args) -> None:
        self._max_dim = max(self._max_dim, int(np.shape(args[0])[0]))

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "spinstar"]
        for layer, module_name, attr in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, self._span(layer, original))
                continue
            original = getattr(owner, attr)
            probe = self._probe_dim if layer == "linalg.herm_eig" else None
            wrapped = self._span(layer, original, probe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)
        for name in EIGENSOLVERS:
            self._set(np.linalg, name, self._count(getattr(np.linalg, name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take_round(self) -> dict[str, float]:
        """Per-layer counts and self times (ms) of the spans since the last call."""
        spans = self._spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span[1] >= 0:
                covered[span[1]] += span[4] - span[3]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for span, child in zip(spans, covered):
            calls[span[0]] += 1
            self_s[span[0]] += span[4] - span[3] - child
        out = {"cli.requests": calls["cli"], "cli.self_ms": 1e3 * self_s["cli"]}
        for layer, _, _ in LAYERS[1:]:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_ms"] = 1e3 * self_s[layer]
        out["kernel.eigensolves"] = self._eigensolves
        out["linalg.herm_eig.max_dim"] = self._max_dim
        self._spans = []
        self._eigensolves = 0
        self._max_dim = 0
        return out
