"""One workload in one fresh interpreter; started by run.py, not by hand.

    python3 benchmarks/worker.py MODE WORKLOAD SEED SECONDS OUT_DIR

MODE is ``setup`` (import qiradar, run the warm-up scenario, report the
time), ``timed`` (the untraced end-to-end run) or ``traced`` (an untraced
baseline, then the same inputs under the span tracer); see measure.py. The
result is one JSON object on the last line of stdout.

``import qiradar`` is timed before any benchmark module or further standard
library module is imported, so setup_s and cli.import_ms start from what a
fresh interpreter has loaded, as ``python -m qiradar`` does.
"""

import sys
import time

# Exercises parse, states, metrics, measurement, MC, ROC, link budget and both
# report formats once, so lazy set-up and first-call costs land in setup_s.
WARMUP = """phase_rad = 3.0
reflectivity = 0.9
noise_excitation = 0.3
trials = 20000
seed = 7
roc_thresholds = 0, 0.5, 1, 2
link_budget.power_w = 1e-16
link_budget.noise_power_w = 1e-15
link_budget.frequency_hz = 1e10
link_budget.temperature_k = 290
"""


def setup():
    """Import qiradar and complete one scenario; returns (module, import_s, setup_s)."""
    t0 = time.perf_counter()
    import qiradar
    t1 = time.perf_counter()
    report = qiradar.run_scenario(qiradar.parse_scenario(WARMUP))
    qiradar.emit_report(report, "structured")
    qiradar.emit_report(report, "table")
    qiradar.roc_csv(report.roc)
    return qiradar, t1 - t0, time.perf_counter() - t0


def main(argv) -> int:
    q, import_s, setup_s = setup()
    if argv[0] == "setup":
        print(f'{{"setup_s": {setup_s!r}, "import_s": {import_s!r}}}')
        return 0
    import measure

    return measure.main(argv, q, import_s, setup_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
