"""Entangled-photon radar detection simulator.

Builds the two hypothesis states of a quantum-illumination detection
protocol, computes their distinguishability metrics (trace distance,
fidelity, Helstrom error), realizes the optimal binary measurement with
reproducible Monte Carlo trials and ROC sweeps, and evaluates the
closed-form link budget with its thermal-noise and EMI figures.
"""

from .channel import TargetParams, hypothesis_h0, hypothesis_h1
from .detector import roc_sweep
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    NumericalDomain,
    ParseError,
    QIRadarError,
    ValidationError,
)
from .linkbudget import LinkBudgetInputs, LinkBudgetResult, evaluate_link_budget
from .metrics import DistinguishabilityReport, fidelity, helstrom_error, trace_distance
from .qstate import DensityOperator, eigendecompose_hermitian, sqrt_psd
from .montecarlo import TrialOutcome
from .report import DetectionReport, RocPoint, emit_report, report_to_dict, roc_csv
from .scenario import Scenario, parse_scenario
from .cli import run_scenario

__version__ = "0.1.0"
