"""Shared random-object builders and references for the test suite."""

import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings

import qiradar
from qiradar.closed_form import TIE_ATOL
from qiradar.qstate import DensityOperator

# Property tests run a fixed, small set of examples, so the suite stays fast and reproducible.
BOUNDED = settings(max_examples=40, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])


def python_with_qiradar(args, **kwargs):
    """subprocess.run of `python *args` in a fresh interpreter that imports the package
    these tests import, installed or not. PYTHONUNBUFFERED is unset, so stdout is
    buffered as in a run from a shell."""
    package_root = str(Path(qiradar.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = path
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def python_m_qiradar(argv, **kwargs):
    """python_with_qiradar of `-m qiradar *argv`."""
    return python_with_qiradar(["-m", "qiradar", *argv], **kwargs)


def random_density(rng, dim):
    """Full-rank random density operator via a Wishart-style construction."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m /= m.trace().real
    return DensityOperator(m)


def pure_pair(phi):
    """The Bell pair (|00⟩ + |11⟩)/√2 and its copy with phase phi imprinted on the signal
    by diag(1, e^{iφ}) ⊗ I, as density operators."""
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    shifted = np.kron(np.diag([1.0, np.exp(1j * phi)]), np.eye(2)) @ bell
    return (DensityOperator(np.outer(bell, bell.conj())),
            DensityOperator(np.outer(shifted, shifted.conj())))


def random_unitary(rng, dim):
    """Unitary from the QR factorization of a complex Gaussian matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    return q


def ieee_bytes(points) -> bytes:
    """The IEEE doubles of a list of (t, P_FA, P_D) points, so two lists compare bit for bit."""
    return struct.pack(f"{3 * len(points)}d", *(x for point in points for x in point))


def unstopped_born_pair(eta, p, w0, w1):
    """closed_form.born_pair with no zero-tail exit: every point goes through the whole
    formula, in the package's operation order, so the bits of a stopped sweep can be
    checked against it."""
    a, b = (1.0 - p) / 2.0, p / 2.0
    fa, fb = (1.0 - eta) * a, (1.0 - eta) * b
    y11, y22 = eta / 2.0 + fa, eta / 2.0 + fb
    s = w1 - w0 - w1 * eta
    c, d = w1 * eta / 2.0, s * (a - b) / 2.0
    m, r = c + s / 4.0, math.hypot(d, c)
    big = m + math.copysign(r, m)
    small = s * (c / 2.0 + s * a * b) / big if big else 0.0
    upper, lower = (big, small) if big > 0.0 else (small, big)
    if upper <= TIE_ATOL:
        p_h0 = p_h1 = 0.0
    elif lower > TIE_ATOL:
        p_h0, p_h1 = 0.5, y11 + y22
    else:
        k = c / (2.0 * r)
        if d >= 0.0:
            p11, p22 = (r + d) / (2.0 * r), k * c / (r + d)
        else:
            p11, p22 = k * c / (r - d), (r - d) / (2.0 * r)
        p_h0, p_h1 = a * p11 + b * p22, y11 * p11 + y22 * p22 + k * eta
    if s * a > TIE_ATOL:
        p_h0, p_h1 = p_h0 + a, p_h1 + fa
    if s * b > TIE_ATOL:
        p_h0, p_h1 = p_h0 + b, p_h1 + fb
    return p_h0, p_h1
