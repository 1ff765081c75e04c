"""Target and environment model producing the two detection hypotheses.

Both hypotheses live on a common 4-dimensional return-mode ⊗ idler space,
return mode first:

    H0 (no target):  ρ₀ = diag(1 − p, p) ⊗ I/2
    H1 (target):     ρ₁ = η |ψ′⟩⟨ψ′| + (1 − η) ρ₀

where |ψ′⟩ = (|00⟩ + e^{iφ}|11⟩)/√2 is the entangled pair after the target
imprints phase φ on the signal mode, η is the probability the signal photon
returns coherently, and p is the excitation probability of the noise mode.
The idler factor I/2 under H0 is the reduced idler state of the pair itself,
so the idler alone carries no information about which hypothesis holds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import _excitation, _real, _reduce_phase, _reflectivity
from .qstate import DensityOperator


@dataclass(frozen=True)
class TargetParams:
    """Physical parameters of one target interaction.

    phase_phi is stored reduced to [0, 2π); reflectivity_eta must lie in
    [0, 1] and noise_excitation_p in [0, 1).
    """

    phase_phi: float
    reflectivity_eta: float
    noise_excitation_p: float

    def __post_init__(self):
        object.__setattr__(self, "phase_phi", _reduce_phase(_real("phase", self.phase_phi)))
        object.__setattr__(self, "reflectivity_eta", _reflectivity(self.reflectivity_eta))
        object.__setattr__(self, "noise_excitation_p", _excitation(self.noise_excitation_p))


def _h0_matrix(p: float) -> np.ndarray:  # diag(1 − p, p) ⊗ I/2; halving is exact
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0.flat[::5] = ((1.0 - p) / 2.0, (1.0 - p) / 2.0, p / 2.0, p / 2.0)
    return rho0


def hypothesis_h0(p: float) -> DensityOperator:
    """No-target hypothesis ρ₀ = diag(1 − p, p) ⊗ I/2 on return ⊗ idler."""
    return DensityOperator(_h0_matrix(_excitation(p)))


def hypothesis_h1(params: TargetParams) -> DensityOperator:
    """Target hypothesis ρ₁ = η |ψ′⟩⟨ψ′| + (1 − η) ρ₀.

    At η = 1 this is exactly the rank-1 projector onto the phase-shifted
    pair; at η = 0 it collapses to hypothesis_h0(p). Built straight from the
    validated TargetParams, so only the result is checked as a state.
    """
    amps = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    amps[2:] *= cmath.exp(1j * params.phase_phi)  # basis index 2r + i, return mode first
    pure = amps[:, None] * amps.conj()  # |ψ′⟩⟨ψ′|
    eta = params.reflectivity_eta
    rho0 = _h0_matrix(params.noise_excitation_p)
    return DensityOperator(eta * pure + (1.0 - eta) * rho0)
