"""Complex log-Gamma, digamma, and the Pareto Laplace transform.

The numerics are the ``scipy.special`` ufuncs ``loggamma``, ``digamma``
and ``gammaincc``; this module adds parameter checks, error reporting and
the branch convention. Everything downstream keys off the Gamma function
along the vertical line z = -alpha/2 + i*omega, so the branch of the
argument is fixed here once and for all: arg Gamma is continuous in omega
with value -pi at omega = 0 (the limit from the upper half plane). That is
scipy's principal branch of log Gamma once a zero imaginary part is read
as +0; the tests pin the value -pi exactly, for omega = 0.0 and -0.0.
Working in log space keeps |Gamma| representable for the whole omega
range we use: gamma_line returns log Gamma(-alpha/2 + i*omega) itself, so
its .real is log|Gamma| and its .imag the continuous argument. The line
functions take a scalar omega or an array of them.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import digamma, gammaincc, loggamma

__all__ = [
    "log_gamma_complex",
    "gamma_line",
    "digamma_line_derivative",
    "pareto_laplace",
]


def _log_gamma(z: complex | np.ndarray) -> complex | np.ndarray:
    # scipy reads Im z = -0.0 as the limit from below (arg +pi on the
    # negative real axis); adding 0j turns -0.0 into +0.0, the limit from
    # above, which is the branch used here.
    out = loggamma(z + 0j)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        what = "has a pole" if np.isnan(np.ravel(out)[bad[0]]) else "overflows"
        raise ValueError(f"log Gamma {what} at z = {np.ravel(z)[bad[0]]}")
    return out


def log_gamma_complex(z: complex) -> complex:
    """Principal-branch analytic log Gamma(z).

    Agrees with the analytic continuation of log Gamma from the positive
    real axis (not merely log of Gamma modulo 2*pi*i). On the negative
    real axis the value is the limit from Im z > 0, which is what the
    branch convention arg Gamma(-alpha/2) = -pi requires.

    Raises ValueError at the poles, the nonpositive integers, where
    scipy's loggamma returns nan.
    """
    return complex(_log_gamma(complex(z)))


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")


def _line(alpha: float, omega: float | np.ndarray) -> np.ndarray:
    """z = -alpha/2 + i*omega, after checking alpha and omega >= 0."""
    _check_alpha(alpha)
    omega = np.asarray(omega, dtype=float)
    if not (omega >= 0.0).all():  # a nan omega is refused here, not read as a pole
        raise ValueError(f"omega must be >= 0, got {omega.min()}")
    return -alpha / 2.0 + 1j * omega


def gamma_line(alpha: float, omega: float | np.ndarray) -> complex | np.ndarray:
    """log Gamma(-alpha/2 + i*omega), omega >= 0: log|Gamma| + i arg Gamma.

    The argument is the branch-fixed one of the module docstring,
    continuous in omega and -pi at omega = 0. An array omega gives an
    array of the same shape.
    """
    return _log_gamma(_line(alpha, omega))


def digamma_line_derivative(alpha: float, omega: float | np.ndarray) -> float | np.ndarray:
    """d/domega of arg Gamma(-alpha/2 + i*omega), i.e. Re psi(-alpha/2 + i*omega)."""
    return digamma(_line(alpha, omega)).real


def pareto_laplace(alpha: float, t: float) -> float:
    """Laplace transform of the Pareto(alpha) law: E exp(-t u^(-1/alpha)).

    Equals alpha * t^alpha * Gamma(-alpha, t) for t > 0, and 1 at t = 0.
    The recurrence Gamma(1-alpha, t) = -alpha Gamma(-alpha, t) + t^-alpha e^-t
    turns that into e^-t - t^alpha Gamma(1-alpha, t), of order 1-alpha in (0, 1).
    Small-t behaviour: 1 - pareto_laplace(alpha, t) ~ t^alpha * Gamma(1-alpha).
    """
    _check_alpha(alpha)
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return 1.0
    # Gamma(1-alpha, t) = Gamma(1-alpha) Q(1-alpha, t), with Q the regularized upper incomplete Gamma
    tail = t**alpha * (math.gamma(1.0 - alpha) * float(gammaincc(1.0 - alpha, t)))
    return math.exp(-t) - tail
