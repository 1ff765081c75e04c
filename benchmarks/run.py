"""qiradar benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see BENCHMARK.json and workloads.py):

    analytic_sweep  500 analytic-only documents, 3% malformed
    roc_dense       40 scenarios with 100 ROC thresholds each

``--trace 0`` measures with no tracing and prints the end-to-end metrics;
``--trace 1`` runs an untraced baseline and then the span tracer on the same
inputs, and prints the per-layer metrics. Each workload runs in a fresh
interpreter with BLAS pinned to one thread, as a closed loop with one client.
The run repeats whole passes over the inputs; every scenario is timed in each
pass and counts at its fastest repeat (see measure.Passes for why), and
setup_s is the median of fifteen fresh interpreters spread over the run. Every
output is checked by the correctness gate. Human-readable lines come first;
the last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. The full record, with the environment and the
calibration probe, is written to ``.bench_out/<workload>/result-trace<T>.json``.

Self-tests of the harness: ``PYTHONPATH=src python3 benchmarks/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (stdlib only; safe before the workers start)

WORKER_TIMEOUT_S = 150
# Printed beside the metrics but not in BENCHMARK.json: a metric there must be
# reported, and non-zero, on every workload, which roc_points_per_s (one
# workload) and error_rate (0 by design) are not; scenarios_per_wall_s
# spreads too widely between runs on a shared machine to carry a bound.
EXTRA_UNITS = {"roc_points_per_s": "1/s", "scenarios_per_wall_s": "1/s", "error_rate": "fraction"}


def declared_units(root: str, trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_lines(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str], env: dict) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                          env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[:2]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qiradar", "__init__.py")):
        print("error: run from the root of a qiradar checkout (src/qiradar not found)",
              file=sys.stderr)
        return 2
    units = declared_units(root, args.trace)
    out_dir = os.path.join(".bench_out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    env = worker_env(root)
    common = [args.workload, str(args.seed), repr(args.seconds), out_dir]

    try:
        result = run_worker(["traced" if args.trace else "timed"] + common, env)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setups = result["setup_samples_s"]
    failed = len(result["failures"])
    attempted = result["attempted"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(root), "src_lines": src_lines(root),
        **result,
    }
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = dict(result["metrics"])
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    extras = dict(result["extras"], error_rate=failed / attempted)
    record["metrics"], record["extras"] = metrics, extras
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    notes = result["notes"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  commit {record['git_commit']}  src lines {record['src_lines']}")
    print(f"  {notes['passes']} passes in {notes['timed_s']:.2f} s timed; "
          f"{notes['scenarios']} scenarios at their fastest of >= {notes['repeats_per_scenario']} "
          f"repeats; tail is p{notes['tail_percentile']:g} with {notes['samples_beyond_tail']} "
          f"beyond; setup median of {len(setups)}")
    for name, value in list(metrics.items()) + list(extras.items()):
        unit = units.get(name) or EXTRA_UNITS[name]
        print(f"  {name:<32}{value:>16.6g} {unit}")
    env_ = result["environment"]
    print(f"  environment: nproc {env_['nproc']}, python {env_['python']}, numpy {env_['numpy']}, "
          f"blas {env_['blas']}; calibration eigh4 {env_['calibration']['eigh4_us']:.2f} us, "
          f"python loop {env_['calibration']['python_loop_ms']:.2f} ms")
    if result["absent_targets"]:
        print(f"  absent trace targets: {', '.join(result['absent_targets'])}")
    for line in result["failures"][:20]:
        print(f"  FAILED {line}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
