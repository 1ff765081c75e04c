"""Outside-in span tracer for the qiradar modules.

``Tracer.install`` replaces the public functions of each module with timing
wrappers in every ``qiradar`` namespace that binds them, so calls made inside
the package are caught as well as the benchmark's own. Nothing in the package
is edited. A target that a refactor has removed is recorded in
``Tracer.absent`` instead of failing the run.

Each span is ``[name_index, parent, start_ns, end_ns, scenario_id]``; the
span id is its index in ``Tracer.spans``. Spans stay in memory until
``write`` is called. The layer of a span is the text of its name before the
first dot; spans the benchmark opens itself are named ``bench.*`` and their
self time is the unattributed time.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# Layer (module of src/qiradar) -> public functions wrapped in it.
# DensityOperator.__post_init__ counts state validations;
# _positive_eigenspace_projector is the per-threshold ROC and measurement kernel.
TARGETS = {
    "scenario": ("parse_scenario",),
    "channel": ("hypothesis_h0", "hypothesis_h1", "noise_state", "apply_signal_phase"),
    "qstate": ("eigendecompose_hermitian", "sqrt_psd", "tensor", "partial_trace",
               "density_from_pure", "pure_state", "bell_phi_plus",
               "DensityOperator.__post_init__"),
    "metrics": ("distinguishability", "trace_distance", "fidelity", "helstrom_error"),
    "detector": ("helstrom_measurement", "detection_counts", "simulate_trials",
                 "born_probability", "measurement_error", "empirical_error", "roc_sweep",
                 "_positive_eigenspace_projector"),
    "linkbudget": ("evaluate_link_budget", "thermal_occupancy", "occupancy_to_excitation"),
    "report": ("emit_report", "report_to_dict", "roc_csv"),
    "cli": ("run_scenario", "main"),
}
LAYERS = tuple(TARGETS)
UNATTRIBUTED = "bench"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.scenario = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def begin(self, name: str) -> list[int]:
        stack = self._stack
        rec = [self._name(name), stack[-1] if stack else -1, 0, 0, self.scenario]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter_ns()
        return rec

    def end(self, rec: list[int]) -> None:
        rec[3] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.end(rec)

    def _wrap(self, fn, name: str):
        index = self._name(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [index, stack[-1] if stack else -1, 0, 0, self.scenario]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target of every layer of the already-imported qiradar."""
        namespaces = [m for key, m in sys.modules.items()
                      if m is not None and (key == "qiradar" or key.startswith("qiradar."))]
        for layer, names in targets.items():
            module = sys.modules.get(f"qiradar.{layer}")
            for attr in names:
                owner, _, leaf = attr.rpartition(".")
                holder = getattr(module, owner, None) if owner else module
                original = getattr(holder, leaf, None) if holder is not None else None
                if original is None:
                    self.absent.append(f"{layer}.{attr}")
                    continue
                traced = self._wrap(original, f"{layer}.{attr}")
                if owner:
                    self._patch(holder, leaf, traced)
                    continue
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            self._patch(namespace, key, traced)

    def _patch(self, holder, key: str, value) -> None:
        self._restore.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Write every span as tab-separated name, parent, start, end, scenario."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\tstart_ns\tend_ns\tscenario\n")
            for i, (name, parent, start, end, scenario) in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[name]}\t{parent}\t{start}\t{end}\t{scenario}\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover (ns).

    ``spans`` holds (name, parent, start, end, ...) with parents at lower
    indices. Execution is single-threaded, so children never overlap.
    """
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    return own


def layer_self_ns(spans) -> tuple[dict[str, int], int]:
    """Self time per layer, and the traced wall: the duration of root spans.

    Layer self times, including the ``bench`` layer (unattributed), sum to
    the traced wall exactly.
    """
    totals: dict[str, int] = {}
    wall = 0
    for s, own in zip(spans, self_times(spans)):
        layer = layer_of(s[0])
        totals[layer] = totals.get(layer, 0) + own
        if s[1] < 0:
            wall += s[3] - s[2]
    return totals, wall


def resolve(tracer: Tracer) -> list[tuple[str, int, int, int, int]]:
    """Resolve span names in place, into the form the helpers above take.

    Done in place to keep memory flat; call ``write`` before, not after.
    """
    names = tracer.names
    spans = tracer.spans
    for i, (n, p, a, b, s) in enumerate(spans):
        spans[i] = (names[n], p, a, b, s)
    return spans
