"""End-to-end acceptance checks for the detection toolkit.

One test per headline requirement, nine in all. Each prints a single
``PASS <name>`` or ``FAIL <name>`` line (visible under ``pytest -s``) and
fails with the full list of violations, so a run of this module doubles as
an acceptance report. Tolerances are pinned here, not imported, so a source
change that moves a number past its contract shows up as a hard failure.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qiradar
from conftest import pure_pair, random_density, random_unitary
from qiradar.channel import TargetParams, hypothesis_h0, hypothesis_h1
from qiradar.cli import main
from qiradar.detector import born_pair
from qiradar.linkbudget import LinkBudgetInputs, evaluate_link_budget
from qiradar.metrics import helstrom_error, trace_distance
from qiradar.montecarlo import draw_counts, outcome_error
from qiradar.qstate import eigendecompose_hermitian

HALF = (0.5, 0.5)

# 50-digit arbitrary-precision reference for 1/(exp(h*1e10/(kB*290)) - 1),
# frozen before the implementation existed (exact SI h and kB).
OCCUPANCY_REF_STR = "603.76209248577703892140149893"


def _finish(name: str, failures: list[str]) -> None:
    """Print the one-line verdict for a criterion, then fail if needed."""
    if failures:
        print(f"FAIL {name}: {len(failures)} violation(s)")
        pytest.fail(name + "\n" + "\n".join(failures), pytrace=False)
    print(f"PASS {name}")


def _exactly(value: float, target: float) -> bool:
    """Equality for a quantity that is exact up to one final rounding.

    A product or quotient of representable doubles generally cannot land on
    a decimal target bit for bit; correct rounding puts it within one ulp.
    """
    return value == target or abs(value - target) <= math.ulp(target)


def test_link_budget_golden_values():
    failures = []
    result = evaluate_link_budget(
        LinkBudgetInputs(power_w=1e-16, noise_power_w=1e-15, frequency_hz=1e10))
    dbm = evaluate_link_budget(LinkBudgetInputs(power_w=1e-13)).power_dbm
    if dbm != -100.0:
        failures.append(f"power_dbm at 1e-13 W = {dbm!r}, want -100.0 exactly")
    energy = result.photon_energy_j
    if abs(energy - 6.63e-24) > 0.01 * 6.63e-24:
        failures.append(f"photon_energy_j at 1e10 Hz = {energy!r}, want 6.63e-24 within 1%")
    rate = result.photon_rate_per_s
    if abs(rate - 1.5e7) > 0.01 * 1.5e7:
        failures.append(f"photon_rate_per_s at 1e-16 W, 1e10 Hz = {rate!r}, want 1.5e7 within 1%")
    ratio = result.snr
    if not _exactly(ratio, 0.1):
        failures.append(f"snr of 1e-16 W over 1e-15 W = {ratio!r}, want 0.1 exactly")
    _finish("link-budget golden values", failures)


def test_pure_state_closed_forms():
    failures = []
    for phi in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi):
        rho_bell, rho_phi = pure_pair(phi)
        want_d = abs(math.sin(phi / 2.0))
        want_pe = 0.5 * (1.0 - want_d)
        got_d = trace_distance(rho_bell, rho_phi)
        got_pe = helstrom_error(rho_bell, rho_phi, HALF)
        for label, got, want in (("trace_distance", got_d, want_d),
                                 ("helstrom_error", got_pe, want_pe)):
            if abs(got - want) > 1e-8:
                failures.append(f"phi={phi:.6g}: {label} = {got!r}, want {want!r} within 1e-8")
    _finish("pure-state closed forms", failures)


def test_mixed_state_anchor_eigenvalues():
    failures = []
    rho0 = hypothesis_h0(0.5)
    rho1 = hypothesis_h1(TargetParams(0.0, 1.0, 0.5))
    eigenvalues, _ = eigendecompose_hermitian(rho1.matrix - rho0.matrix)
    expected = np.array([0.75, -0.25, -0.25, -0.25])
    if not np.allclose(eigenvalues, expected, atol=1e-9, rtol=0.0):
        failures.append(f"spectrum of rho1 - rho0 = {eigenvalues!r}, want {expected!r}")
    d = trace_distance(rho0, rho1)
    if abs(d - 0.75) > 1e-9:
        failures.append(f"trace_distance = {d!r}, want 0.75")
    pe = helstrom_error(rho0, rho1, HALF)
    if abs(pe - 0.125) > 1e-9:
        failures.append(f"helstrom_error = {pe!r}, want 0.125")
    _finish("mixed-state anchor", failures)


def test_monte_carlo_matches_analytic_error():
    failures = []
    trials = 100_000
    point = 0
    for phi in (math.pi / 4, math.pi / 2, math.pi):
        for eta in (0.25, 0.5, 1.0):
            seed = 9000 + 10 * point
            point += 1
            rho0 = hypothesis_h0(0.5)
            rho1 = hypothesis_h1(TargetParams(phi, eta, 0.5))
            analytic = helstrom_error(rho0, rho1, HALF)
            born = born_pair(rho0, rho1, *HALF)
            empirical = outcome_error(*draw_counts(born, 0.5, trials, seed))
            sigma = math.sqrt(analytic * (1.0 - analytic) / trials)
            if abs(empirical - analytic) > 4.0 * sigma:
                failures.append(
                    f"phi={phi:.6g} eta={eta}: |{empirical!r} - {analytic!r}| "
                    f"exceeds 4 sigma = {4 * sigma:.3e} (seed {seed})"
                )
    _finish("Monte Carlo consistency", failures)


def test_metric_property_suite():
    failures = []
    rng = np.random.default_rng(20240817)
    for index in range(200):
        a = random_density(rng, 4)
        b = random_density(rng, 4)
        c = random_density(rng, 4)
        d_ab, d_ba = trace_distance(a, b), trace_distance(b, a)
        checks = []
        checks.append(("trace-distance symmetry", abs(d_ab - d_ba) <= 1e-9))
        checks.append(("trace-distance range", 0.0 <= d_ab <= 1.0))
        checks.append((
            "triangle inequality",
            trace_distance(a, c) <= d_ab + trace_distance(b, c) + 1e-12,
        ))
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        from qiradar.qstate import DensityOperator

        ua = DensityOperator(u @ a.matrix @ u.conj().T)
        ub = DensityOperator(u @ b.matrix @ u.conj().T)
        checks.append((
            "unitary invariance",
            abs(trace_distance(ua, ub) - d_ab) <= 1e-9,
        ))
        checks.append((
            "Helstrom reduction",
            abs(helstrom_error(a, b, HALF) - 0.5 * (1.0 - d_ab)) <= 1e-12,
        ))
        for label, ok in checks:
            if not ok:
                failures.append(f"pair {index}: {label} violated")
    _finish("metric property suite", failures)


def test_helstrom_measurement_optimality():
    failures = []
    rng = np.random.default_rng(424242)
    for pair_index in range(20):
        a = random_density(rng, 4)
        b = random_density(rng, 4)
        p_fa, p_d = born_pair(a, b, *HALF)
        best = 0.5 * p_fa + 0.5 * (1.0 - p_d)
        bound = helstrom_error(a, b, HALF)
        if abs(best - bound) > 1e-12:
            failures.append(f"pair {pair_index}: Helstrom test error {best!r}, bound {bound!r}")
        for rival_index in range(50):
            u = random_unitary(rng, 4)
            rank = int(rng.integers(0, 5))
            cols = u[:, :rank]
            p1 = cols @ cols.conj().T
            p_fa, p_d = (float(np.trace(p1 @ rho.matrix).real) for rho in (a, b))
            rival_error = 0.5 * p_fa + 0.5 * (1.0 - p_d)
            if best > rival_error + 1e-12:
                failures.append(
                    f"pair {pair_index}, rival {rival_index}: Helstrom error {best!r} "
                    f"exceeds projective rival {rival_error!r}"
                )
    _finish("Helstrom optimality", failures)


def thermal_occupancy(f, t):
    return evaluate_link_budget(LinkBudgetInputs(frequency_hz=f, temperature_k=t)).thermal_occupancy


def test_thermal_occupancy_reference():
    mpmath = pytest.importorskip("mpmath")
    failures = []
    mpmath.mp.dps = 50
    x = (mpmath.mpf("6.62607015e-34") * mpmath.mpf("1e10")) / (
        mpmath.mpf("1.380649e-23") * 290
    )
    oracle = 1 / mpmath.expm1(x)
    frozen = mpmath.mpf(OCCUPANCY_REF_STR)
    if abs(oracle - frozen) / frozen > mpmath.mpf("1e-25"):
        failures.append(
            f"arbitrary-precision recomputation {mpmath.nstr(oracle, 30)} does not match "
            f"the frozen reference {OCCUPANCY_REF_STR}"
        )
    value = thermal_occupancy(1e10, 290.0)
    reference = float(frozen)
    if abs(value - reference) > 1e-6 * reference:
        failures.append(f"thermal occupancy at (1e10, 290) = {value!r}, want {reference!r} "
                        f"within 1e-6 relative")
    by_temperature = [thermal_occupancy(1e10, t) for t in (4.0, 77.0, 150.0, 290.0, 600.0)]
    if by_temperature != sorted(by_temperature):
        failures.append(f"occupancy not increasing in temperature: {by_temperature!r}")
    by_frequency = [thermal_occupancy(f, 290.0) for f in (1e9, 1e10, 1e11, 1e12, 1e13)]
    if by_frequency != sorted(by_frequency, reverse=True):
        failures.append(f"occupancy not decreasing in frequency: {by_frequency!r}")
    _finish("thermal occupancy reference", failures)


def test_deterministic_reports(tmp_path):
    failures = []
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(
        "phase_rad = 1.0471975511965976\n"
        "reflectivity = 0.8\n"
        "noise_excitation = 0.35\n"
        "trials = 60000\n"
        "seed = 20240817\n"
        "roc_thresholds = 0, 0.5, 1, 2, 4\n"
        "link_budget.power_w = 1e-16\n"
        "link_budget.noise_power_w = 1e-15\n",
        encoding="utf-8",
    )
    outputs = {}

    def run(label, command):
        out = tmp_path / f"report-{label.replace(' ', '-')}.json"
        roc = tmp_path / f"roc-{label.replace(' ', '-')}.csv"
        code = command(["run", str(scenario), "--format", "structured",
                        "--out", str(out), "--roc-out", str(roc)])
        if code != 0:
            failures.append(f"{label}: exit code {code}")
        else:
            outputs[label] = (out.read_bytes(), roc.read_bytes())

    def fresh_interpreter(argv):
        # Another process with another string-hash seed, importing the same
        # package as this one.
        package_root = str(Path(qiradar.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": path}
        return subprocess.run([sys.executable, "-m", "qiradar", *argv], env=env).returncode

    run("first run", main)
    run("second run", main)
    run("fresh interpreter", fresh_interpreter)
    reference = outputs.get("first run")
    for label, blobs in outputs.items():
        if blobs != reference:
            failures.append(f"{label}: output differs from the first run byte for byte")
    if reference is not None:
        parsed = json.loads(reference[0].decode("utf-8"))
        if parsed["monte_carlo"]["h0"]["trials"] != 30000:
            failures.append("structured report lost the Monte Carlo allocation")
    _finish("deterministic reports", failures)


def test_phase_invisible_to_idler_alone():
    failures = []
    identity_half = np.eye(2) / 2.0
    for k in range(16):
        phi = 2.0 * math.pi * k / 16.0
        rho1 = hypothesis_h1(TargetParams(phi, 1.0, 0.5))
        idler = rho1.matrix.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)  # Tr over the return
        deviation = float(np.max(np.abs(idler - identity_half)))
        if deviation > 1e-10:
            failures.append(
                f"phi={phi:.6g}: idler reduced state deviates from I/2 by {deviation:.3e}"
            )
    _finish("phase invisible to the idler alone", failures)
