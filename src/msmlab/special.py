"""Complex log-Gamma, digamma, upper incomplete Gamma, and the Pareto Laplace transform.

The numerics are the ``scipy.special`` ufuncs ``loggamma``, ``digamma``,
``gammaincc`` and ``exp1``; this module adds parameter checks, error reporting and
the branch convention. Everything downstream keys off the Gamma function
along the vertical line z = -alpha/2 + i*omega, so the branch of the
argument is fixed here once and for all: arg Gamma is continuous in omega
with value -pi at omega = 0 (the limit from the upper half plane). That is
scipy's principal branch of log Gamma once a zero imaginary part is read
as +0; the tests pin the value -pi exactly, for omega = 0.0 and -0.0.
Working in log space keeps |Gamma| representable for the whole omega
range we use. The line functions take a scalar omega or an array of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, exp1, gammaincc, loggamma

__all__ = [
    "PoleError",
    "GammaLineEvaluation",
    "log_gamma_complex",
    "gamma_line",
    "digamma_line_derivative",
    "incomplete_gamma_upper",
    "pareto_laplace",
]


class PoleError(ValueError):
    """Raised when an evaluation point sits on a pole of Gamma."""


def _log_gamma(z: complex | np.ndarray) -> complex | np.ndarray:
    # scipy reads Im z = -0.0 as the limit from below (arg +pi on the
    # negative real axis); adding 0j turns -0.0 into +0.0, the limit from
    # above, which is the branch used here.
    out = loggamma(z + 0j)
    finite = np.isfinite(out)
    if not finite.all():
        raise OverflowError(f"log Gamma overflow at z = {np.asarray(z)[~finite][0]}")
    return out


def log_gamma_complex(z: complex) -> complex:
    """Principal-branch analytic log Gamma(z).

    Agrees with the analytic continuation of log Gamma from the positive
    real axis (not merely log of Gamma modulo 2*pi*i). On the negative
    real axis the value is the limit from Im z > 0, which is what the
    branch convention arg Gamma(-alpha/2) = -pi requires.

    Raises PoleError at nonpositive integers.
    """
    z = complex(z)
    nearest = round(z.real)
    if nearest <= 0 and abs(z - nearest) < 1e-13:
        raise PoleError(f"log Gamma pole at z = {z}")
    return complex(_log_gamma(z))


@dataclass(frozen=True)
class GammaLineEvaluation:
    """Gamma(-alpha/2 + i*omega) in polar log form.

    arg_continuous is the branch-fixed argument: continuous in omega,
    equal to -pi at omega = 0. omega, log_abs and arg_continuous are
    arrays of one shape when omega was given as an array.
    """

    alpha: float
    omega: float | np.ndarray
    log_abs: float | np.ndarray
    arg_continuous: float | np.ndarray


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")


def _line(alpha: float, omega: float | np.ndarray) -> np.ndarray:
    """z = -alpha/2 + i*omega, after checking alpha and omega >= 0."""
    _check_alpha(alpha)
    omega = np.asarray(omega, dtype=float)
    if (omega < 0.0).any():
        raise ValueError(f"omega must be >= 0, got {omega.min()}")
    return -alpha / 2.0 + 1j * omega


def gamma_line(alpha: float, omega: float | np.ndarray) -> GammaLineEvaluation:
    """Evaluate Gamma on the line z = -alpha/2 + i*omega, omega >= 0."""
    lg = _log_gamma(_line(alpha, omega))
    return GammaLineEvaluation(
        alpha=alpha, omega=omega, log_abs=lg.real, arg_continuous=lg.imag
    )


def digamma_line_derivative(alpha: float, omega: float | np.ndarray) -> float | np.ndarray:
    """d/domega of arg Gamma(-alpha/2 + i*omega), i.e. Re psi(-alpha/2 + i*omega)."""
    return digamma(_line(alpha, omega)).real


def incomplete_gamma_upper(z: complex | float, s: float) -> complex:
    """Upper incomplete Gamma(z, s) for s > 0 and real order z <= 1.

    For 0 < z <= 1 this is Gamma(z) Q(z, s), with Q the regularized upper
    incomplete Gamma, and for z = 0 it is E1(s). A negative order is
    reached from z + ceil(-z) by Gamma(c, s) = (Gamma(c+1, s) - s^c e^-s) / c.
    z may be given as a complex number with zero imaginary part; a complex
    order is rejected, since Q is only available for real order.
    """
    z = complex(z)
    if z.imag != 0.0:
        raise ValueError(f"z must be real, got {z}")
    if s <= 0.0:
        raise ValueError(f"s must be > 0, got {s}")
    a = z.real
    if a > 1.0:
        raise ValueError(f"z must be <= 1, got {a}")
    steps = math.ceil(-a) if a < 0.0 else 0
    b = a + steps
    out = float(exp1(s)) if b == 0.0 else math.gamma(b) * float(gammaincc(b, s))
    for k in reversed(range(steps)):
        c = a + k
        out = (out - s**c * math.exp(-s)) / c
    if not math.isfinite(out):
        raise OverflowError(f"incomplete Gamma overflow at z = {a}, s = {s}")
    return complex(out)


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
    tail = t**alpha * incomplete_gamma_upper(1.0 - alpha, t).real
    return math.exp(-t) - tail
