"""Command-line front end: parse a scenario, run the pipeline, emit reports.

Exit codes: 0 success, 2 parse/validation failure (including an unreadable
scenario file, an unwritable --out or --roc-out path or a stdout that takes no
report), 3 numerical failure while running a valid scenario.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import channel, metrics
from .errors import DegenerateInput, NumericalDomain, ParseError, QIRadarError, ValidationError
from .report import DetectionReport, emit_report, roc_csv
from .scenario import Scenario, parse_scenario

FVG_ATOL = 1e-7  # Fuchs-van de Graaff sandwich slack


def run_scenario(scenario: Scenario) -> DetectionReport:
    """Run the full detection pipeline for one validated scenario.

    Builds both hypothesis states at the effective phase (phase_rad minus
    env_phase_rad) and takes the trace distance D from them. The report
    DetectionReport(scenario, D) derives the rest: F and P_e in closed form, and the
    Monte Carlo trials, the ROC sweep and the link budget when the scenario asks for
    them. Its three metrics are then checked: D and F in [0, 1], P_e in [0, ½ + 1e-12] and
    the Fuchs-van de Graaff sandwich 1 − √F ≤ D ≤ √(1 − F) within FVG_ATOL; a violation
    is a numerical bug, not a property of the states. Deterministic for a fixed seed.
    """
    if not isinstance(scenario, Scenario):
        raise DegenerateInput(f"scenario must be a Scenario, got {type(scenario).__name__}")
    try:
        params = channel.TargetParams(scenario.phase_rad - scenario.env_phase_rad,
                                      scenario.reflectivity, scenario.noise_excitation)
        report = DetectionReport(scenario, metrics.trace_distance(
            channel.hypothesis_h0(scenario.noise_excitation), channel.hypothesis_h1(params)))
        d, f, pe = report.trace_distance, report.fidelity, report.helstrom_error
        if not (0.0 <= d <= 1.0 and 0.0 <= f <= 1.0):
            raise NumericalDomain(f"metrics out of range: D={d!r}, F={f!r}")
        if not (0.0 <= pe <= 0.5 + 1e-12):
            raise NumericalDomain(f"Helstrom error out of range: {pe!r}")
        if not (1.0 - math.sqrt(f) <= d + FVG_ATOL and d <= math.sqrt(1.0 - f) + FVG_ATOL):
            raise NumericalDomain(f"Fuchs-van de Graaff sandwich violated: D={d!r}, F={f!r}")
        return report
    except QIRadarError as exc:
        raise type(exc)(f"while running scenario: {exc}") from exc


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        """argparse's usage error, usage line and message, written by _stderr: exit 2."""
        _stderr(f"{self.format_usage()}{self.prog}: error: {message}\n")
        sys.exit(2)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="qiradar",
        description="Entangled-photon radar detection simulator",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one scenario file and emit a report")
    run.add_argument("scenario", help="path to a scenario key-value file (UTF-8)")
    run.add_argument("--format", choices=("table", "structured"), default="table",
                     help="report format (default: table)")
    run.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    run.add_argument("--roc-out", metavar="PATH",
                     help="write ROC points as CSV (requires roc_thresholds in the scenario)")
    run.add_argument("--seed", type=int, metavar="N", help="override the scenario seed")
    run.add_argument("--trials", type=int, metavar="N",
                     help="override the scenario trial count")
    return parser


def _write_stdout(text: str) -> None:
    """Write and flush the report to stdout, so a full or closed stdout fails here.

    On failure the unwritten bytes stay in stdout's buffer, and the flush at
    interpreter exit would fail on them again (an "Exception ignored" message and
    exit status 120). Pointing stdout's descriptor at os.devnull lets that flush succeed.
    """
    try:
        if sys.stdout is None:  # Python's stdout when the process started with fd 1 closed
            raise OSError("stdout is closed")
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):  # a stdout with no descriptor
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise


def _stderr(text: str) -> None:
    """Write text to stderr, or nothing if stderr is None (descriptor 2 closed, where print
    would write to stdout) or its write fails, so the exit code stands."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(text)
        except OSError:
            pass


def main(argv=None) -> int:
    arg_parser = build_arg_parser()
    args = arg_parser.parse_args(argv)

    try:
        text = Path(args.scenario).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        _stderr(f"error: cannot read scenario file: {exc}\n")
        return 2

    try:
        scenario = parse_scenario(text)
        overrides = {name: getattr(args, name) for name in ("seed", "trials")
                     if getattr(args, name) is not None}
        if overrides:
            try:
                scenario = replace(scenario, **overrides)  # re-validates
            except ValidationError as exc:
                arg_parser.error(f"argument --{exc.field}: {exc}")
        if args.roc_out and scenario.roc_thresholds is None:
            raise ValidationError(
                "--roc-out requires roc_thresholds in the scenario", field="roc_thresholds"
            )
        report = run_scenario(scenario)
    except (ParseError, ValidationError) as exc:
        _stderr(f"error: {exc}\n")
        return 2
    except QIRadarError as exc:  # NumericalDomain, or any other failure of a valid scenario
        _stderr(f"error: {exc}\n")
        return 3

    output = emit_report(report, args.format)
    try:  # a failed --roc-out write comes after the report has gone out
        if args.out:
            Path(args.out).write_text(output, encoding="utf-8")
        else:
            _write_stdout(output)
        if args.roc_out:
            Path(args.roc_out).write_text(roc_csv(report.roc), encoding="utf-8")
    except OSError as exc:
        _stderr(f"error: cannot write output file: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
