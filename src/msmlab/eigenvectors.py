"""Closed-form eigenfunctions and eigenvector entry predictions.

The k-th eigenfunction against the Pareto weight coordinate x >= 1 is

    nu_k(x) = (x^(alpha/2) / alpha) Re[ c_k x^(i omega_k) ],
    c_k = (alpha/2 - i omega_k) Gamma(1 - alpha/2 - i omega_k) / Gamma(1 - alpha/2),

and the entry prediction is v_k^(j) = nu_k(x_j) on the deterministic grid
x_j = (n/j)^(1/alpha). The 1/Gamma(1 - alpha/2) normalization makes the
k = 1 anchors exact: nu_1(x) = x^(alpha/2)/2 and v_1^(j) = sqrt(n/j)/2
(without it the whole family is scaled by Gamma(1 - alpha/2), which
contradicts those anchors).

At an admissible omega_k the phase collapses and the entries obey the
log-periodic identity

    v_k^(j) = v_k^(1) cos((omega_k/alpha) ln j) / sqrt(j),
    v_k^(1) = lambda_k (1/4 + omega_k^2/alpha^2) / Gamma(1 - alpha/2),

with lambda_k carrying the sign (-1)^(k+1); entry_identity_check verifies
both statements entrywise from independent evaluation routes.

Each prediction takes its rung, a spectrum.SpectralPrediction that holds
(k, n, alpha) with the solved omega_k and lambda_k, so the root of rung k
is solved only in spectrum.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .special import log_gamma_complex
from .spectrum import SpectralPrediction

__all__ = [
    "IdentityReport",
    "eigenvector_entries",
    "entry_identity_check",
    "l1_normalize",
    "zero_crossing_log_positions",
]


@dataclass(frozen=True)
class IdentityReport:
    """Entrywise agreement between the direct formula and the cosine form."""

    max_abs_discrepancy: float
    max_abs_entry: float
    amplitude_rel_error: float


def _coefficient(alpha: float, omega: float) -> complex:
    # (alpha/2 - i w) Gamma(1-alpha/2-i w)/Gamma(1-alpha/2); exactly
    # alpha/2 at w = 0 because the log-Gamma difference is exactly zero.
    lg = log_gamma_complex(complex(1.0 - alpha / 2.0, -omega))
    lg0 = log_gamma_complex(complex(1.0 - alpha / 2.0, 0.0))
    return complex(alpha / 2.0, -omega) * cmath.exp(lg - lg0)


def _mode(ratio: np.ndarray, alpha: float, omega: float) -> np.ndarray:
    """nu_k at the weight x with x^alpha = ratio, for the root omega = omega_k.

    Taking x^alpha rather than x keeps the grid ratio n/j exact, so
    (c.real/alpha), exactly 1/2 at k = 1, makes the Perron anchor
    v_1^(j) = sqrt(n/j)/2 exact entry by entry.
    """
    c = _coefficient(alpha, omega)
    phase = (omega / alpha) * np.log(ratio)
    return np.sqrt(ratio) * ((c.real / alpha) * np.cos(phase) - (c.imag / alpha) * np.sin(phase))


def eigenvector_entries(rung: SpectralPrediction) -> np.ndarray:
    """Entries v_k^(1) ... v_k^(n) of the rung on the deterministic weight grid."""
    return _mode(rung.n / np.arange(1, rung.n + 1, dtype=float), rung.alpha, rung.omega_k)


def entry_identity_check(rung: SpectralPrediction) -> IdentityReport:
    """Compare the direct entries with the cosine form entry by entry.

    The cosine route is evaluated from scratch: its amplitude comes from
    the rung's eigenvalue lambda_k, not from the direct entries, so the
    two columns share only the rung's omega_k.
    """
    omega, alpha = rung.omega_k, rung.alpha
    direct = eigenvector_entries(rung)
    gamma_norm = math.gamma(1.0 - alpha / 2.0)
    v1 = rung.lambda_k * (0.25 + (omega / alpha) ** 2) / gamma_norm
    j = np.arange(1, rung.n + 1, dtype=float)
    cosine_form = v1 * np.cos((omega / alpha) * np.log(j)) / np.sqrt(j)
    return IdentityReport(
        max_abs_discrepancy=float(np.max(np.abs(direct - cosine_form))),
        max_abs_entry=float(np.max(np.abs(direct))),
        amplitude_rel_error=abs(direct[0] - v1) / abs(v1),
    )


def l1_normalize(entries: np.ndarray) -> np.ndarray:
    """Scale so sum_j |v_j| = 1."""
    entries = np.asarray(entries, dtype=float)
    total = np.abs(entries).sum()
    if total == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return entries / total


def zero_crossing_log_positions(entries: np.ndarray) -> np.ndarray:
    """ln j positions where the entries v^(1) ... v^(n) change sign, by linear interpolation.

    For rung k >= 2 these are spaced pi alpha / omega_k apart (log-periodicity).
    """
    v = entries
    lj = np.log(np.arange(1, v.size + 1, dtype=float))
    i = np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]
    frac = v[i] / (v[i] - v[i + 1])
    return lj[i] + frac * (lj[i + 1] - lj[i])

