"""Command-line front end: parse a scenario, run the pipeline, emit reports.

Exit codes: 0 success, 2 parse/validation failure (including an unreadable
scenario file, an unwritable --out or --roc-out path or a stdout that takes no
report), 3 numerical failure while running a valid scenario.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import channel, closed_form, linkbudget, metrics
from .errors import DegenerateInput, ParseError, QIRadarError, ValidationError, clamp_unit
from .montecarlo import draw_counts
from .report import DetectionReport, _Curve, emit_report, roc_csv
from .scenario import Scenario, parse_scenario


def run_scenario(scenario: Scenario) -> DetectionReport:
    """Run the full detection pipeline for one validated scenario.

    Builds both hypothesis states at the effective phase (phase_rad minus
    env_phase_rad), computes the three distinguishability metrics (D from the
    states, F and P_e in closed form), then runs Monte Carlo trials, the ROC
    sweep and the link budget when the scenario asks for them. Deterministic
    for a fixed seed.
    """
    if not isinstance(scenario, Scenario):
        raise DegenerateInput(f"scenario must be a Scenario, got {type(scenario).__name__}")
    try:
        return _run(scenario)
    except QIRadarError as exc:
        raise type(exc)(f"while running scenario: {exc}") from exc


def _run(scenario: Scenario) -> DetectionReport:
    warnings: list[str] = []
    params = channel.TargetParams(
        phase_phi=scenario.phase_rad - scenario.env_phase_rad,
        reflectivity_eta=scenario.reflectivity,
        noise_excitation_p=scenario.noise_excitation,
    )
    rho0 = channel.hypothesis_h0(scenario.noise_excitation)
    rho1 = channel.hypothesis_h1(params)
    priors = (scenario.prior_h0, scenario.prior_h1)  # Scenario has checked them
    # D comes from the generic eigensolve; F, P_e and the detector half's Born probabilities
    # from the closed form, which the generic metrics, helstrom_measurement and roc_sweep check.
    eta, p = params.reflectivity_eta, params.noise_excitation_p
    summary = metrics.DistinguishabilityReport(
        trace_distance=metrics.trace_distance(rho0, rho1),
        fidelity=clamp_unit(closed_form.fidelity(eta, p), "fidelity"),
        helstrom_error=clamp_unit(closed_form.helstrom_error(eta, p, priors), "Helstrom error"),
    )

    monte_carlo = None
    if scenario.trials > 0:
        monte_carlo = draw_counts(closed_form.born_pair(eta, p, *priors), priors[0],
                                  scenario.trials, scenario.seed)

    roc = None
    if (thresholds := scenario.roc_thresholds) is not None:  # Scenario has checked them
        roc = _Curve.of_columns(thresholds, *closed_form.born_pairs(eta, p, thresholds))

    link_result = None
    if scenario.link_budget is not None:
        link_result = linkbudget.evaluate_link_budget(scenario.link_budget)
        warnings.extend(link_result.warnings)

    nbar = scenario.thermal_occupancy
    if nbar is not None and nbar > linkbudget.SATURATION_NBAR:
        warnings.append(
            f"noise_excitation {scenario.noise_excitation:.6g} was derived from thermal "
            f"occupancy {nbar:.6g}; the two-level noise model saturates for occupancies "
            f"far above 1"
        )

    return DetectionReport(
        scenario=scenario,
        phase_effective_rad=params.phase_phi,
        trace_distance=summary.trace_distance,
        fidelity=summary.fidelity,
        helstrom_error=summary.helstrom_error,
        monte_carlo=monte_carlo,
        roc=roc,
        link_budget=link_result,
        warnings=tuple(warnings),
    )


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def main(argv=None) -> int:
    arg_parser = build_arg_parser()
    args = arg_parser.parse_args(argv)

    try:
        text = Path(args.scenario).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read scenario file: {exc}", file=sys.stderr)
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
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QIRadarError as exc:  # NumericalDomain, or any other failure of a valid scenario
        print(f"error: {exc}", file=sys.stderr)
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
        print(f"error: cannot write output file: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
