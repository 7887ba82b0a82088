"""Closed-form outlier eigenvalue predictions.

The expected kernel has a ladder of real outlier eigenvalues indexed by
k = 1, 2, ...; the k-th one is lambda_k = (+/-) alpha |Gamma(-alpha/2 +
i omega_k)| sqrt(n) where omega_k >= 0 solves the admissibility condition

    f(omega_k) = (omega_k / alpha) ln n - k pi,
    f(omega) = arg Gamma(-alpha/2 + i omega)   (continuous, f(0) = -pi).

k = 1 is solved by omega = 0 exactly. Signs alternate starting positive,
so sign(lambda_k) = (-1)^(k+1); an index-from-zero reading of the same
ladder would print (-1)^k, and the spiral crossings below pin the parity:
the locus crosses the real axis at angle pi + k pi, i.e. cos = (-1)^(k+1).

The same data traces the logarithmic spiral

    sigma(omega) = -alpha Gamma(-alpha/2 - i omega) n^(1/2 + i omega/alpha)

whose real-axis crossings are exactly the admissible omega_k. Because
Gamma(conj z) = conj Gamma(z), the spiral with -i omega/alpha in the
exponent is its complex conjugate, so spiral returns this one only.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .special import gamma_line

__all__ = [
    "NoRootError",
    "SpectralPrediction",
    "admissibility_residual",
    "solve_omega_k",
    "ladder",
    "lambda_k_from_omega",
    "omega_k_approx",
    "stationary_point",
    "spiral",
    "spiral_crossings",
    "k_star_estimate",
]

class NoRootError(RuntimeError):
    """No admissible omega_k in the allowed bracket: k is off the ladder."""


@dataclass(frozen=True)
class SpectralPrediction:
    """Rung k of the ladder at (n, alpha): its root omega_k and eigenvalue lambda_k."""

    k: int
    n: int
    alpha: float
    omega_k: float
    lambda_k: float
    residual: float


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")


def admissibility_residual(k: int, omega: float, n: int, alpha: float) -> float:
    """f(omega) - ((omega/alpha) ln n - k pi), zero at admissible omega_k."""
    _check_n(n)
    f = gamma_line(alpha, omega).imag
    return f - (omega / alpha) * math.log(n) + k * math.pi


def lambda_k_from_omega(k: int, omega_k: float, n: int, alpha: float) -> float:
    """Signed eigenvalue prediction at an admissible omega_k."""
    _check_n(n)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sign = 1.0 if k % 2 == 1 else -1.0
    return sign * alpha * math.exp(gamma_line(alpha, omega_k).real) * math.sqrt(n)


def solve_omega_k(k: int, n: int, alpha: float) -> SpectralPrediction:
    """Solve the admissibility condition for the k-th root.

    k = 1 is omega = 0 exactly. For k >= 2 the residual starts at
    (k-1) pi > 0, and Brent refinement polishes the root in the bracket
    [0, alpha (k pi + 4 pi)/ln n] to |residual| < 1e-9, evaluating no
    omega twice. It is unique, unchecked here, when (ln n)/alpha exceeds
    f' on the bracket. A residual still positive at the bracket's end
    means k is beyond the ladder for this n; that, and k = 0, whose
    residual starts at -pi, raise NoRootError.
    """
    _check_n(n)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:  # f(0) = -pi exactly, so the residual starts at -pi
        raise NoRootError("residual does not start positive for k=0")
    log_n = math.log(n)
    if k == 1:
        return SpectralPrediction(
            k=1,
            n=n,
            alpha=alpha,
            omega_k=0.0,
            lambda_k=lambda_k_from_omega(1, 0.0, n, alpha),
            residual=admissibility_residual(1, 0.0, n, alpha),
        )
    cap = alpha * (k * math.pi + 4.0 * math.pi) / log_n
    resid = functools.cache(lambda w: admissibility_residual(k, w, n, alpha))
    if resid(cap) > 0.0:
        raise NoRootError(
            f"no admissible omega for k={k} at n={n}, alpha={alpha} "
            f"(residual positive up to omega={cap:.6g})"
        )
    omega = brentq(resid, 0.0, cap, xtol=1e-15, rtol=8.9e-16)
    return SpectralPrediction(
        k=k,
        n=n,
        alpha=alpha,
        omega_k=omega,
        lambda_k=lambda_k_from_omega(k, omega, n, alpha),
        residual=resid(omega),
    )


def ladder(k_max: int, n: int, alpha: float) -> list[SpectralPrediction]:
    """solve_omega_k for k = 1, 2, ..., k_max, stopping before the first k off the ladder.

    A list shorter than k_max means that k = len + 1 raised NoRootError.
    """
    preds = []
    for k in range(1, k_max + 1):
        try:
            preds.append(solve_omega_k(k, n, alpha))
        except NoRootError:
            break
    return preds


def omega_k_approx(k: int, n: int, alpha: float) -> float:
    """Affine approximation omega_k ~ alpha (k pi + phi_alpha) / ln n.

    Valid on 1 < k <~ ln n; the k = 1 root is exactly 0 and is not
    approximated.
    """
    _check_n(n)
    if k < 2:
        raise ValueError(f"approximation needs k >= 2, got {k}")
    _, phi = stationary_point(alpha)
    return alpha * (k * math.pi + phi) / math.log(n)


def stationary_point(alpha: float) -> tuple[float, float]:
    """Closed-form (omega_alpha, phi_alpha = arg Gamma(-alpha/2 + i omega_alpha)).

    omega_alpha = sqrt(alpha/2 (1/euler_gamma - alpha/2)) truncates the
    series for f' at zeroth order, so f'(omega_alpha) is 0.045 / 0.116 /
    0.194 at alpha = 0.2 / 0.5 / 0.8, not 0. f' itself vanishes in (0, 5]
    only at alpha = 0.2 (omega = 0.434); at 0.5 and 0.8 it stays positive.
    """
    omega_alpha = math.sqrt(alpha / 2.0 * (1.0 / np.euler_gamma - alpha / 2.0))
    return omega_alpha, gamma_line(alpha, omega_alpha).imag


def _sigma(alpha: float, n: int, omega: float | np.ndarray) -> complex | np.ndarray:
    """-alpha Gamma(-alpha/2 - i omega) n^(1/2 + i omega/alpha), in polar form."""
    lg = gamma_line(alpha, omega)
    theta = (omega / alpha) * math.log(n) - lg.imag + math.pi
    mag = alpha * np.exp(lg.real + 0.5 * math.log(n))
    return mag * np.exp(1j * theta)


def spiral(alpha: float, n: int, omega_max: float, steps: int) -> np.ndarray:
    """sigma on a uniform omega grid in [0, omega_max], as (steps, 3) rows (omega, re, im).

    The conjugate spiral is the same rows with im negated. A grid reaching
    an omega where |sigma| underflows to (0, 0), about 474, raises ValueError.
    """
    _check_n(n)
    if omega_max <= 0.0:
        raise ValueError(f"omega_max must be > 0, got {omega_max}")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    omegas = np.linspace(0.0, omega_max, steps)
    vals = _sigma(alpha, n, omegas)
    if (vals == 0.0).any():
        raise ValueError(f"sigma underflows to 0 at omega = {omegas[vals == 0.0][0]:.6g}; lower omega_max")
    return np.column_stack((omegas, vals.real, vals.imag))


def spiral_crossings(alpha: float, n: int, locus: np.ndarray) -> np.ndarray:
    """Real-axis crossings of the spiral for omega > 0, in order.

    locus holds the (omega, re, im) rows that spiral(alpha, n, ...)
    evaluated; each sign change of im between rows brackets a crossing,
    which brentq then refines on sigma itself. The m-th returned crossing
    coincides with the admissible root omega_(m+1): the locus starts ON
    the axis at omega = 0 (that is the k = 1 root), so the scan starts
    strictly after it.
    """
    _check_n(n)
    imag_part = lambda w: _sigma(alpha, n, w).imag
    omegas, vals = locus[1:, 0], locus[1:, 2]
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    return np.array([brentq(imag_part, omegas[i], omegas[i + 1], xtol=1e-12) for i in flips])


def k_star_estimate(n: int, alpha: float) -> int:
    """k*: the smallest k whose predicted |lambda_k| drops below the sqrt(n)/2 edge proxy.

    A ladder that ends before any rung drops below the proxy raises
    solve_omega_k's NoRootError.
    """
    _check_n(n)
    edge = math.sqrt(n) / 2.0
    k = 1
    while abs(solve_omega_k(k, n, alpha).lambda_k) >= edge:
        k += 1
    return k
