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
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import KernelOperator
from .special import log_gamma_complex
from .spectrum import solve_omega_k

__all__ = [
    "EigenvectorPrediction",
    "IdentityReport",
    "nu_k",
    "eigenvector_entries",
    "entry_identity_check",
    "l1_normalize",
    "zero_crossing_log_positions",
    "operator_residual",
    "envelope_slope",
]


@dataclass(frozen=True)
class EigenvectorPrediction:
    k: int
    n: int
    alpha: float
    omega_k: float
    entries: np.ndarray  # v_k^(1) ... v_k^(n)


@dataclass(frozen=True)
class IdentityReport:
    """Entrywise agreement between the direct formula and the cosine form."""

    k: int
    n: int
    alpha: float
    max_abs_discrepancy: float
    max_abs_entry: float
    amplitude_rel_error: float


def _coefficient(alpha: float, omega: float) -> complex:
    # (alpha/2 - i w) Gamma(1-alpha/2-i w)/Gamma(1-alpha/2); exactly
    # alpha/2 at w = 0 because the log-Gamma difference is exactly zero.
    lg = log_gamma_complex(complex(1.0 - alpha / 2.0, -omega))
    lg0 = log_gamma_complex(complex(1.0 - alpha / 2.0, 0.0))
    return complex(alpha / 2.0, -omega) * cmath.exp(lg - lg0)


def _resolve_omega(k: int, n: int, alpha: float) -> float:
    return solve_omega_k(k, n, alpha).omega_k


def _mode(ratio: np.ndarray | float, alpha: float, omega: float) -> np.ndarray | float:
    """nu_k at the weight x with x^alpha = ratio, for the root omega = omega_k.

    Taking x^alpha rather than x keeps the grid ratio n/j exact, so
    (c.real/alpha), exactly 1/2 at k = 1, makes the Perron anchor
    v_1^(j) = sqrt(n/j)/2 exact entry by entry.
    """
    c = _coefficient(alpha, omega)
    phase = (omega / alpha) * np.log(ratio)
    return np.sqrt(ratio) * ((c.real / alpha) * np.cos(phase) - (c.imag / alpha) * np.sin(phase))


def nu_k(x: float, k: int, n: int, alpha: float) -> float:
    """Eigenfunction value at weight coordinate x >= 1."""
    if x < 1.0:
        raise ValueError(f"x must be >= 1, got {x}")
    return float(_mode(x**alpha, alpha, _resolve_omega(k, n, alpha)))


def eigenvector_entries(k: int, n: int, alpha: float) -> EigenvectorPrediction:
    """Entry prediction on the deterministic weight grid, j = 1..n."""
    omega = _resolve_omega(k, n, alpha)
    entries = _mode(n / np.arange(1, n + 1, dtype=float), alpha, omega)
    return EigenvectorPrediction(k=k, n=n, alpha=alpha, omega_k=omega, entries=entries)


def entry_identity_check(k: int, n: int, alpha: float) -> IdentityReport:
    """Compare the direct entries with the cosine form entry by entry.

    The cosine route is evaluated from scratch: its amplitude comes from
    the eigenvalue prediction, not from the direct entries, so the two
    columns share only omega_k.
    """
    pred = solve_omega_k(k, n, alpha)
    omega = pred.omega_k
    direct = eigenvector_entries(k, n, alpha).entries
    gamma_norm = math.gamma(1.0 - alpha / 2.0)
    v1 = pred.lambda_k * (0.25 + (omega / alpha) ** 2) / gamma_norm
    j = np.arange(1, n + 1, dtype=float)
    cosine_form = v1 * np.cos((omega / alpha) * np.log(j)) / np.sqrt(j)
    max_abs = float(np.max(np.abs(direct)))
    discrepancy = float(np.max(np.abs(direct - cosine_form)))
    amp_rel = abs(direct[0] - v1) / abs(v1)
    return IdentityReport(
        k=k,
        n=n,
        alpha=alpha,
        max_abs_discrepancy=discrepancy,
        max_abs_entry=max_abs,
        amplitude_rel_error=amp_rel,
    )


def l1_normalize(entries: np.ndarray) -> np.ndarray:
    """Scale so sum_j |v_j| = 1."""
    entries = np.asarray(entries, dtype=float)
    total = np.abs(entries).sum()
    if total == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return entries / total


def zero_crossing_log_positions(pred: EigenvectorPrediction) -> np.ndarray:
    """ln j positions where the entries change sign, by linear interpolation.

    For k >= 2 these are spaced pi alpha / omega_k apart (log-periodicity).
    """
    v = pred.entries
    lj = np.log(np.arange(1, pred.n + 1, dtype=float))
    out = []
    for i in np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]:
        frac = v[i] / (v[i] - v[i + 1])
        out.append(lj[i] + frac * (lj[i + 1] - lj[i]))
    return np.array(out)


def operator_residual(kernel: KernelOperator, pred: EigenvectorPrediction) -> float:
    """Relative L2 residual of P v = lambda_k v for the predicted vector, P as an operator."""
    lam = solve_omega_k(pred.k, pred.n, pred.alpha).lambda_k
    v = pred.entries[:, None]
    return float(np.linalg.norm(kernel.matmat(v) - lam * v) / (abs(lam) * np.linalg.norm(v)))


def envelope_slope(pred: EigenvectorPrediction) -> float:
    """Trend of |v_k^(j)| sqrt(j) against ln j, from half-period window maxima.

    The cosine form says |v| sqrt(j) = |v_k^(1)| |cos((omega_k/alpha) ln j)|,
    so the maximum over any half period of the cosine recovers the constant
    amplitude and the fitted slope should vanish. Needs at least three full
    half-periods inside [1, n]; smaller k at a given n cannot be assessed
    this way and raise.
    """
    if pred.omega_k <= 0.0:
        raise ValueError("envelope slope needs an oscillating mode (k >= 2)")
    j = np.arange(1, pred.n + 1, dtype=float)
    lj = np.log(j)
    e = np.abs(pred.entries) * np.sqrt(j)
    half = math.pi * pred.alpha / pred.omega_k
    xs, ys = [], []
    w = 0
    while (w + 1) * half <= lj[-1]:
        m = (lj >= w * half) & (lj < (w + 1) * half)
        if m.sum() >= 2:
            i = np.argmax(e[m])
            xs.append(lj[m][i])
            ys.append(math.log(e[m][i]))
        w += 1
    if len(xs) < 3:
        raise ValueError(
            f"only {len(xs)} half-periods fit inside [1, n]; k too small for this n"
        )
    return float(np.polyfit(xs, ys, 1)[0])
