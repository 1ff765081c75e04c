"""The timed and traced runs of one workload, inside the worker's interpreter.

worker.py imports and times qiradar first, then hands over to ``main``.
``timed`` is the untraced end-to-end run; ``traced`` runs an untraced
baseline, then the same inputs under the span tracer.

The loop is closed with one client: the next scenario starts when the
previous one has been parsed, run and emitted, so nothing queues and waiting
is zero by construction. The run makes whole passes over the workload's
inputs, timing each scenario on its own; the correctness gate checks every
output between passes, outside the timed window.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import gate
import tracer as tracing
import workloads

SETUP_SAMPLES = 15         # fresh interpreters timed for setup_s, the worker included
MAX_SPANS = 200_000        # the traced run stops adding passes beyond this many spans
TRACED_SHARE = 2.0 / 3.0   # of --seconds; the untraced baseline gets the rest
PROBE_TIMEOUT_S = 60
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


class SetupProbes:
    """Fresh interpreters that time ``worker.setup``, spread over the timed window.

    Run between passes, outside the timed window, so that one slow spell of
    the machine does not catch them all.
    """

    def __init__(self, argv: list[str], count: int, seconds: float):
        self.argv, self.count, self.seconds = argv, count, seconds
        self.samples: list[float] = []

    def between_passes(self, timed: float) -> None:
        while len(self.samples) < self.count * min(1.0, timed / self.seconds):
            self._probe()

    def finish(self) -> None:
        while len(self.samples) < self.count:
            self._probe()

    def _probe(self) -> None:
        proc = subprocess.run(self.argv, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        self.samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
    return ordered[k]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def calibration(np) -> dict:
    """Fixed machine probe, reported beside the metrics and never used to scale them."""
    m = np.array([[2.0, 1j, 0.0, 0.5], [-1j, 3.0, 0.25, 0.0],
                  [0.0, 0.25, 1.0, 0.1j], [0.5, 0.0, -0.1j, 4.0]], dtype=complex)
    n = 2000
    t0 = time.perf_counter()
    for _ in range(n):
        np.linalg.eigh(m)
    eigh_us = (time.perf_counter() - t0) / n * 1e6
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return {"eigh4_us": eigh_us, "python_loop_ms": (time.perf_counter() - t0) * 1e3}


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "calibration": calibration(np),
    }


# ---------------------------------------------------------------------------
# In-process workloads


def run_one(q, item) -> gate.Outcome:
    # Functions are looked up on the package at call time, so the traced run
    # goes through the wrappers.
    try:
        scenario = q.parse_scenario(item["text"])
        report = q.run_scenario(scenario)
        text = q.emit_report(report, item["format"])
        csv = q.roc_csv(report.roc) if item["roc_csv"] else None
    except Exception as exc:  # judged by the gate; the loop must go on
        return gate.Outcome(error=exc)
    return gate.Outcome(report=report, text=text, csv=csv)


class Passes:
    """Timings and gate results of whole passes over a workload's inputs.

    ``latencies[i]`` holds item ``i``'s latency from every pass, so the
    repeats of one scenario are spread over the whole run. On a shared
    2-vCPU Xeon VM the speed drops by up to 1.75x for seconds at a time. Over
    five 35 s analytic_sweep runs there, the spread (IQR/median) of the
    throughput was 8% when built from each scenario's fastest repeat, 12%
    from its 10th percentile, 31% from its 25th and 22% from the median wall
    of a pass; so the end-to-end figures are built from the fastest repeat.
    The wall-based rate is kept in the record beside them.
    """

    def __init__(self, n_items: int):
        self.walls: list[float] = []
        self.latencies: list[list[float]] = [[] for _ in range(n_items)]
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: list[tuple[str, str | None] | None] | None = None
        self.bytes_emitted = 0
        self.emitted: list[int] = []

    @property
    def timed(self) -> float:
        return sum(self.walls)

    def fits(self, seconds: float) -> bool:
        """Whether another pass, as long as the last one, fits in ``seconds``."""
        return not self.walls or self.timed + self.walls[-1] <= seconds

    def item_s(self, i: int) -> float:
        """Item ``i``'s fastest repeat."""
        return min(self.latencies[i])

    def pass_s(self) -> float:
        """A pass made of every item's fastest repeat."""
        return sum(min(x) for x in self.latencies)


def in_process_passes(q, workload, items, seconds, tracer=None, max_spans=None,
                      between_passes=None) -> Passes:
    check = gate.CHECKS[workload]
    out = Passes(len(items))
    clock = time.perf_counter
    while out.fits(seconds):
        if max_spans is not None and len(tracer.spans) > max_spans:
            break
        base = len(out.walls) * len(items)
        outcomes = []
        start = clock()
        for item in items:
            if tracer is not None:
                tracer.scenario = base + item["id"]
                root = tracer.begin("bench.scenario")
            t0 = clock()
            outcome = run_one(q, item)
            t1 = clock()
            if tracer is not None:
                tracer.end(root)
            outcomes.append(outcome)
            out.latencies[item["id"]].append(t1 - t0)
        wall = clock() - start
        # Outside the timed window from here on.
        out.walls.append(wall)
        out.attempted += len(items)
        mark = len(tracer.spans) if tracer is not None else 0
        outputs = []
        for item, outcome in zip(items, outcomes):
            reason = check(q, item, outcome)
            if reason:
                out.failures.append(f"item {item['id']}: {reason}")
            outputs.append(None if outcome.error else (outcome.text, outcome.csv))
        if tracer is not None:
            del tracer.spans[mark:]  # the gate's own calls into qiradar are not the workload's
        if between_passes is not None:
            between_passes(out.timed)
        if out.outputs is None:
            out.outputs = outputs
            out.emitted = [i for i, o in enumerate(outputs) if o is not None]
            emitted = [o for o in outputs if o is not None]
            out.bytes_emitted = sum(len(t.encode()) + len((c or "").encode()) for t, c in emitted)
    return out


# ---------------------------------------------------------------------------
# Metrics


def e2e_metrics(workload, passes: Passes, thresholds: dict) -> dict:
    """End-to-end metrics, and the workload-specific rates printed beside them.

    Rates divide the work of one pass by ``Passes.pass_s``. Latency
    percentiles are taken over the emitted scenarios, each at its fastest
    repeat.
    """
    pass_s = passes.pass_s()
    lat_ms = [passes.item_s(i) * 1e3 for i in passes.emitted]
    tail = workloads.TAIL_PERCENTILE[workload]
    out = {
        "scenarios_per_s": len(passes.emitted) / pass_s,
        "scenario_p50_ms": median(lat_ms),
        "scenario_tail_ms": percentile(lat_ms, tail),
    }
    # Emitted scenarios over the median wall of whole passes: unlike the
    # fastest-repeat figures, it carries costs that hit only some repeats
    # (collector pauses, periodic work), at the price of more noise.
    extras = {"scenarios_per_wall_s": len(passes.emitted) / median(passes.walls)}
    if workload == "roc_dense":
        extras["roc_points_per_s"] = sum(thresholds.values()) / pass_s
    n = len(lat_ms)
    notes = {
        "passes": len(passes.walls),
        "pass_walls_s": passes.walls,
        "timed_s": passes.timed,
        "scenarios": n,
        "repeats_per_scenario": min(len(x) for x in passes.latencies),
        "tail_percentile": tail,
        "samples_beyond_tail": n - math.ceil(tail / 100.0 * n),
    }
    return out, extras, notes


def layer_metrics(spans, item_of, thresholds: dict, emitted_bytes_per_scenario: float,
                  import_s: float) -> dict:
    """Per-layer figures from the traced run's spans (see BENCHMARK.json per_layer).

    Like the end-to-end figures, times are taken at each scenario's fastest
    traced repeat; counts are the same in every repeat. Both are then
    summarized over the scenarios.
    """
    own = tracing.self_times(spans)
    layer_self, wall = tracing.layer_self_ns(spans)
    # scenario id -> ("calls" | "incl" | "self", span name) or ("outer", layer) -> value
    per_sid = defaultdict(lambda: defaultdict(int))
    for i, (name, parent, start, end, sid) in enumerate(spans):
        d = end - start
        stats = per_sid[sid]
        stats["calls", name] += 1
        stats["incl", name] += d
        stats["self", name] += own[i]
        layer = tracing.layer_of(name)
        if parent < 0 or tracing.layer_of(spans[parent][0]) != layer:
            stats["outer", layer] += d
    best: dict[int, dict] = {}                          # item id -> key -> fastest repeat
    for sid, stats in per_sid.items():
        item = best.setdefault(item_of(sid)["id"], {})
        for key, value in stats.items():
            item[key] = min(value, item.get(key, value))
    ran = {i: b for i, b in best.items() if ("calls", "cli.run_scenario") in b}

    def per_scenario(name, group=ran):
        return statistics.fmean([b.get(("calls", name), 0) for b in group.values()]) if group else 0.0

    def med(kind, name, group=ran, scale=1e3, fmt=None):
        return median([b[kind, name] / scale for i, b in group.items()
                       if (kind, name) in b and (fmt is None or item_of(i)["format"] == fmt)])

    points = sum(thresholds[i] for i in ran)
    roc_ns = sum(b.get(("incl", "detector.roc_sweep"), 0) for b in ran.values())
    out = {
        "scenario.parse_calls": per_scenario("scenario.parse_scenario", best),
        "scenario.parse_us": med("incl", "scenario.parse_scenario", best),
        "channel.h0_calls": per_scenario("channel.hypothesis_h0"),
        "channel.h1_calls": per_scenario("channel.hypothesis_h1"),
        "channel.build_us": med("outer", "channel"),
        "qstate.density_validations": per_scenario("qstate.DensityOperator.__post_init__"),
        "qstate.eigh_calls": per_scenario("qstate.eigendecompose_hermitian"),
        "qstate.eigh_us": med("incl", "qstate.eigendecompose_hermitian"),
        "qstate.sqrt_psd_calls": per_scenario("qstate.sqrt_psd"),
        "metrics.distinguishability_us": med("incl", "metrics.distinguishability"),
        "detector.roc_busy_s": roc_ns / 1e9,
        "detector.roc_us_per_threshold": roc_ns / 1e3 / points if points else 0.0,
        "linkbudget.eval_us": med("incl", "linkbudget.evaluate_link_budget"),
        "report.emit_structured_us": med("incl", "report.emit_report", best, fmt="structured"),
        "report.emit_table_us": med("incl", "report.emit_report", best, fmt="table"),
        "report.roc_csv_us": med("incl", "report.roc_csv", best),
        "report.bytes_per_scenario": emitted_bytes_per_scenario,
        "cli.import_ms": import_s * 1e3,
        "cli.run_scenario_us": med("incl", "cli.run_scenario"),
        "cli.run_scenario_self_us": med("self", "cli.run_scenario"),
    }
    for layer in tracing.LAYERS:
        out[f"{layer}.self_frac"] = layer_self.get(layer, 0) / wall if wall else 0.0
    out["trace.unattributed_frac"] = layer_self.get(tracing.UNATTRIBUTED, 0) / wall if wall else 0.0
    return out


# ---------------------------------------------------------------------------


def main(argv, q, import_s: float, setup_s: float) -> int:
    mode, workload, seed, seconds, out_dir = argv[0], argv[1], int(argv[2]), float(argv[3]), argv[4]
    import numpy as np

    env = environment(np)
    items = workloads.generate(workload, seed)
    thresholds = {item["id"]: len(item["values"].get("roc_thresholds", ())) for item in items}
    budget = seconds if mode == "timed" else seconds * (1.0 - TRACED_SHARE)
    probes = SetupProbes([sys.executable, WORKER, "setup"] + argv[1:],
                         SETUP_SAMPLES - 1, budget)
    timed = in_process_passes(q, workload, items, budget,
                              between_passes=probes.between_passes if mode == "timed" else None)
    if mode == "timed":
        probes.finish()
    e2e, extras, notes = e2e_metrics(workload, timed, thresholds)
    result = {"environment": env, "import_s": import_s, "shape": workloads.SHAPES[workload],
              "metrics": e2e, "extras": extras, "notes": notes, "absent_targets": [],
              "setup_samples_s": [setup_s] + probes.samples}
    failures = list(timed.failures)
    attempted = timed.attempted
    if mode == "traced":
        tr = tracing.Tracer()
        tr.install()
        traced = in_process_passes(q, workload, items, seconds * TRACED_SHARE,
                                   tracer=tr, max_spans=MAX_SPANS)
        tr.uninstall()
        tr.write(os.path.join(out_dir, "spans.tsv"))
        failures += traced.failures
        attempted += traced.attempted
        if traced.outputs != timed.outputs:
            failures.append("traced outputs differ from untraced outputs")
        layers = layer_metrics(tracing.resolve(tr), lambda sid: items[sid % len(items)], thresholds,
                               timed.bytes_emitted / max(1, len(timed.emitted)), import_s)
        layers["trace.overhead_frac"] = traced.pass_s() / timed.pass_s() - 1.0
        result.update(layers=layers, absent_targets=tr.absent)
        result["notes"]["traced_passes"] = len(traced.walls)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = attempted
    result["failures"] = failures
    print(json.dumps(result))
    return 0
