"""Checks that can fail: each mutant breaks src/ on purpose, and tier-1 must fail on it.

    python tests/mutants.py

Run from the root of a checkout. For each entry the script copies src/ to a temporary
directory, replaces the entry's old text (which must occur exactly once in its file, or
the entry is stale) with its new text, and runs tier-1 against that copy with -x. A
mutant passes the check when the run reports a failing test; one the suite passes
survives, and the script exits 1. The unmutated copy must pass first, so a broken
harness cannot look like a killed mutant. The last line gives the count killed and the
script's total wall time. pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str  # under src/qiradar
    old: str
    new: str
    why: str


MUTANTS = (
    Mutant("closed_form.py", "big = m + math.copysign(r, m)", "big = m + r",
           "the block eigenvalue farther from 0 loses its sign"),
    Mutant("closed_form.py", "(1.0 - eta) * (eta / 4.0 + fa * b))",
           "(eta / 2.0 + fa) * (eta / 2.0 + fb) - eta * eta / 4.0)",
           "det ρ₁ on the block is y₁₁y₂₂ − c², which cancels as η nears 1"),
    Mutant("closed_form.py", "return min(p0 * a, p1 * fa) + min(p0 * b, p1 * fb) + block + ",
           "return block + ", "P_e drops the scalar modes' minima"),
    Mutant("closed_form.py", "if s * (p1 * eta / 4.0 + s * a * b) < 0.0:",
           "if s * (p1 * eta / 4.0 + s * a * b) > 0.0:", "P_e takes the wrong branch on the block"),
    Mutant("closed_form.py", "s = p1 * (1.0 - eta) - p0", "s = p1 - p0 - p1 * eta",
           "P_e's block weight cancels at a tiny prior and η near 1"),
    Mutant("closed_form.py", " + math.fsum((1.0, -p0, -p1)) / 2.0", "",
           "P_e is ½(π₀ + π₁ − ‖·‖₁), not the documented ½(1 − ‖·‖₁)"),
    Mutant("closed_form.py", "if s < 0.0 and m < 0.0 and q < 0.0:", "if s < 0.0 and m < 0.0:",
           "the zero-tail exit fires while det/s is still positive"),
    Mutant("closed_form.py", "if upper <= TIE_ATOL:", "if upper < TIE_ATOL:",
           "a block eigenvalue of exactly TIE_ATOL decides H1"),
    Mutant("detector.py", "eigenvectors * (eigenvalues > TIE_ATOL)",
           "eigenvectors * (eigenvalues >= TIE_ATOL)",
           "an eigenvalue of exactly TIE_ATOL decides H1 in born_pair's generic test"),
    Mutant("detector.py", "born_pair(rho0, rho1, t, 1.0)", "born_pair(rho0, rho1, 1.0, t)",
           "roc_sweep tests t·ρ₁ − ρ₀ for ρ₁ − t·ρ₀"),
    Mutant("montecarlo.py", "n_h0 = math.floor(prior_h0 * trials)",
           "n_h0 = round(prior_h0 * trials)", "the trial allocation rounds instead of flooring"),
    Mutant("montecarlo.py", "_STREAM_TAG = {HYPOTHESIS_H0: 0, HYPOTHESIS_H1: 1}",
           "_STREAM_TAG = {HYPOTHESIS_H0: 1, HYPOTHESIS_H1: 0}",
           "the Monte Carlo stream tags are swapped"),
    Mutant("montecarlo.py", "random.Random(2 * seed + _STREAM_TAG", "random.Random(seed + _STREAM_TAG",
           "the seed mix is s + t, so seed s under H1 draws as seed s + 1 under H0"),
    Mutant("montecarlo.py", "if p > 0.5:", "if p >= 0.5:",
           "a Born probability of exactly 1/2 is drawn mirrored"),
    Mutant("montecarlo.py", "f *= a / x - r", "f *= a / x",
           "the inversion recurrence f(x)/f(x - 1) loses its - p/(1 - p) term"),
    Mutant("montecarlo.py", "        if not 0 <= k <= n:\n            continue\n", "",
           "BTRD takes a candidate outside [0, n] to its acceptance tests"),
    Mutant("montecarlo.py", "if v <= 0.86 * v_r:", "if v <= v_r:",
           "BTRD's quick acceptance covers the hat's whole centre, with no rejection test"),
    Mutant("montecarlo.py", "            if v <= f:\n", "            if v <= 1.0:\n",
           "BTRD's acceptance near the mode ignores f(k)/f(m) above the mode"),
    Mutant("montecarlo.py", "if v < t - rho:", "if v < t + rho:",
           "BTRD's squeeze accepts the whole band that only the final test can decide"),
    Mutant("montecarlo.py", "if v > t + rho:", "if v > t - rho:",
           "BTRD's squeeze rejects the whole band that only the final test can decide"),
    Mutant("montecarlo.py", "(k + 0.5) * math.log(nk * r", "k * math.log(nk * r",
           "BTRD's final test takes k·ln(nk·r/(k + 1)) for (k + 1/2)·ln(nk·r/(k + 1))"),
    Mutant("montecarlo.py", "- _stirling_tail(k) - _stirling_tail(n - k))",
           "+ _stirling_tail(k) + _stirling_tail(n - k))",
           "BTRD's final test adds the Stirling corrections of k and n - k"),
    Mutant("report.py", "sort_keys=True, allow_nan=False", "allow_nan=False",
           "the structured report's keys are unsorted"),
    Mutant("report.py", 'zip(*_pipeline_curve(points, "points").columns)',
           "(map(repr, point) for point in points)",
           "roc_csv formats any iterable of points, not only the curve run_scenario built"),
    Mutant("report.py", 'type(points) is _Curve and hasattr(points, "_source")',
           "type(points) is _Curve", "a _Curve that of_columns did not build is taken as one"),
    Mutant("report.py", " and not math.isnan(sum(values))", "",
           "a NaN probability column skips the clamp"),
    Mutant("report.py", '+ ["0.0"] * (len(self)', '+ ["0"] * (len(self)',
           "the curve's zero tail is written as another text than its points' repr"),
    Mutant("report.py", "            if not (0.0 <= min(values, default=0.0)",
           "            if False and not (0.0 <= min(values, default=0.0)",
           "the computed prefix skips the range check and the clamp"),
    Mutant("report.py", "CURVE_WINDOW = 2.0**-50", "CURVE_WINDOW = 2.0**-20",
           "the curve snaps a kernel excursion of 1e-12 instead of raising"),
    Mutant("report.py", '_clamp(closed_form.fidelity(eta, p), "fidelity", CURVE_WINDOW)',
           'clamp_unit(closed_form.fidelity(eta, p), "fidelity")',
           "F is snapped within the generic library's CLAMP_WINDOW, so 1 + 1e-12 passes as 1"),
    Mutant("report.py", "*priors), s.prior_h0,", "*priors), s.prior_h1,",
           "the report's Monte Carlo splits its trials at prior_h1 instead of prior_h0"),
    Mutant("report.py", "born_pair(eta, p, *priors)", "born_pair(eta, p, *priors[::-1])",
           "the report's Monte Carlo draws at the Born pair of the swapped priors"),
    Mutant("report.py", "_reduce_phase(s.phase_rad - s.env_phase_rad)", "_reduce_phase(s.phase_rad)",
           "the report's effective phase ignores env_phase_rad"),
    Mutant("report.py", "            warnings += (f", "            warnings = (f",
           "the thermal-saturation warning replaces the link budget's warnings"),
    Mutant("metrics.py", "FVG_ATOL = 1e-7", "FVG_ATOL = 1e-6",
           "the Fuchs-van de Graaff slack is 10x wider"),
    Mutant("errors.py", "MAX_DIMENSION**1.5 / 2) * STATE_ATOL",
           "MAX_DIMENSION**1.5 / 2) * STATE_ATOL * 10", "the clamp window is 10x wider"),
    Mutant("metrics.py", "pe <= 0.5 + 1e-12", "pe <= 0.5 + 1e-6",
           "the Helstrom error may exceed 1/2 by 1e-6"),
    Mutant("errors.py", "math.fmod(phi, math.tau) + 0.0", "math.fmod(phi, math.tau)",
           "a phase of −0.0 reduces to −0.0, outside [0, 2π) by its sign"),
    Mutant("errors.py", "if type(value) is int and low <= value <= high:",
           "if type(value) is int:", "an exact int skips the integer gate's range check"),
    Mutant("scenario.py", '            field = "seed"\n', "",
           "a bad seed is reported under the trials field"),
    Mutant("cli.py", "            os.dup2(devnull, fd)\n", "",
           "a full stdout keeps the report's bytes, and the flush at exit fails on them again"),
    Mutant("cli.py", "    except OSError:\n        try:\n            fd = sys.stdout.fileno()",
           "    except ValueError:\n        try:\n            fd = sys.stdout.fileno()",
           "_write_stdout has no OSError handler, so a full stdout's bytes fail the exit flush"),
    Mutant("cli.py", "        if sys.stdout is None:", "        if False:",
           "a closed stdout (sys.stdout is None) gives a traceback instead of exit 2"),
    Mutant("cli.py", """    output = emit_report(report, args.format)
    try:  # a failed --roc-out write comes after the report has gone out
        if args.out:
            Path(args.out).write_text(output, encoding="utf-8")
""", """    output = emit_report(report, args.format)
    if args.out:
        Path(args.out).write_text(output, encoding="utf-8")
    try:  # a failed --roc-out write comes after the report has gone out
        if args.out:
            pass
""", "the --out write is outside the try, so an unwritable --out gives a traceback"),
    Mutant("cli.py", """    if sys.stderr is not None:
        try:
            sys.stderr.write(text)
        except OSError:
            pass
""", """    print(text, end="", file=sys.stderr)
""", "with descriptor 2 closed, print(file=None) puts the error line on stdout"),
    Mutant("cli.py", "    parser = _ArgumentParser(", "    parser = argparse.ArgumentParser(",
           "with descriptor 2 closed, argparse prints a usage error's usage line on stdout"),
    Mutant("qstate.py", "1 <= mat.shape[0] <= MAX_DIMENSION", "1 <= mat.shape[0]",
           "DensityOperator takes a state larger than the MAX_DIMENSION that CLAMP_WINDOW covers"),
    Mutant("errors.py", "abs(p0 + p1 - 1.0) <= PRIOR_ATOL", "p0 + p1 - 1.0 <= PRIOR_ATOL",
           "priors that sum to less than 1 are accepted"),
    Mutant("scenario.py", "for name, value in sorted(link.items()):",
           "for name, value in link.items():",
           "of two rejected link values, the first in document order is named, not in key order"),
    Mutant("scenario.py", "from .linkbudget import ",
           "from .metrics import check_priors\nfrom .linkbudget import ",
           "the scenario imports the linear-algebra layer again for a check errors holds"),
    Mutant("linkbudget.py", "_ratio(i.power_w, i.noise_power_w, ",
           "_ratio(i.noise_power_w, i.power_w, ", "the SNR is noise over signal"),
    Mutant("linkbudget.py", "        if energy == 0.0:\n", "        if False:\n",
           "a photon energy that underflows to 0 is reported, or divides the photon rate by 0"),
    Mutant("linkbudget.py", "for name in _INPUT_FIELDS:", "for name in _INPUT_FIELDS[:-1]:",
           "LinkBudgetInputs leaves its last field ungated"),
    Mutant("linkbudget.py", "10.0 * math.log10(_ratio(watts, ", "20.0 * math.log10(_ratio(watts, ",
           "a power level in dBm is 20·log₁₀ instead of 10·log₁₀"),
    Mutant("linkbudget.py", "if i.shield_thickness_m < i.wavelength_m:",
           "if i.shield_thickness_m > i.wavelength_m:",
           "the sub-wavelength warning flags the thick shield instead of the thin one"),
)


def tier1_env(src: Path) -> dict[str, str]:
    # No bytecode: a mutant restored within the second of its edit could reuse a stale .pyc.
    return {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}


def run_tier1(src: Path) -> int:
    """pytest's exit code for tier-1 with -x against the package in src."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", str(ROOT / "tests")]
    return subprocess.run(command, cwd=ROOT, env=tier1_env(src), stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    begin = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        found = subprocess.run([sys.executable, "-c", "import qiradar; print(qiradar.__file__)"],
                               env=tier1_env(src), capture_output=True, text=True,
                               check=True).stdout.strip()
        if not Path(found).is_relative_to(src):  # an installed qiradar must not shadow the copy
            sys.exit(f"qiradar resolves to {found}, not the copy under {src}")
        if (code := run_tier1(src)) != 0:
            sys.exit(f"tier-1 fails (exit {code}) on the unmutated copy")
        survivors = []
        for mutant in MUTANTS:
            path = src / "qiradar" / mutant.file
            original = path.read_text(encoding="utf-8")
            if (count := original.count(mutant.old)) != 1:
                sys.exit(f"stale mutant, {count} matches in {mutant.file}: {mutant.old!r}")
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                code = run_tier1(src)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = "killed" if code == 1 else f"SURVIVED (exit {code})"
            print(f"{verdict:18} {time.perf_counter() - start:5.1f} s  {mutant.file}: {mutant.why}")
            if code != 1:
                survivors.append(mutant)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - begin:.0f} s wall")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
