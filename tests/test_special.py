"""Special function layer: log-Gamma on the critical line, digamma, Laplace transforms."""
import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msmlab.special import (
    digamma_line_derivative,
    gamma_line,
    log_gamma_complex,
    pareto_laplace,
)

mp.mp.dps = 30

EULER_GAMMA = 0.5772156649015328606


def mp_loggamma(z: complex) -> complex:
    return complex(mp.loggamma(mp.mpc(z.real, z.imag)))


class TestLogGammaComplex:
    def test_gamma_of_one_is_one(self):
        assert abs(log_gamma_complex(1.0 + 0.0j)) < 1e-14

    def test_gamma_half_is_sqrt_pi(self):
        got = log_gamma_complex(0.5 + 0.0j)
        assert abs(got.real - 0.5 * math.log(math.pi)) < 1e-14
        assert got.imag == 0.0

    def test_negative_quarter_via_recurrence_oracle(self):
        # Independent oracle: Gamma(z) = Gamma(z+2) / (z (z+1)) with the
        # C library gamma supplying the right-half-plane value.
        oracle = math.gamma(1.75) / (-0.25 * 0.75)
        got = log_gamma_complex(-0.25 + 0.0j)
        assert abs(got.real - math.log(abs(oracle))) < 1e-13
        assert got.imag == -math.pi  # limit from above: arg = -pi exactly

    def test_poles_raise(self):
        for z in (0.0, -1.0, -2.0, -7.0):
            with pytest.raises(ValueError, match="log Gamma has a pole"):
                log_gamma_complex(complex(z, 0.0))

    def test_frozen_point_off_axis(self):
        got = log_gamma_complex(-0.25 + 0.3j)
        assert abs(got - (1.0352473469102232 - 2.5693038026669321j)) < 1e-12

    def test_frozen_point_large_imag(self):
        got = log_gamma_complex(-0.85 + 13.7j)
        want = -24.136336883668387 + 19.974353506025417j
        assert abs(got - want) < 1e-11 * abs(want)

    def test_against_mpmath_rectangle(self):
        rng = np.random.default_rng(2024)
        for _ in range(80):
            z = complex(rng.uniform(-0.9, 5.0), rng.uniform(-20.0, 20.0))
            if abs(z.imag) < 1e-3 and abs(z.real - round(z.real)) < 1e-2:
                continue
            got = log_gamma_complex(z)
            want = mp_loggamma(z)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_exp_recovers_gamma(self):
        for z in (2.5 + 0.0j, -0.3 + 0.7j, 3.0 - 4.0j, -0.25 + 0.0j):
            got = cmath.exp(log_gamma_complex(z))
            want = complex(mp.gamma(mp.mpc(z.real, z.imag)))
            assert abs(got - want) <= 1e-12 * abs(want)

    @given(
        st.floats(min_value=-0.9, max_value=5.0),
        st.floats(min_value=0.05, max_value=20.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry(self, re, im):
        z = complex(re, im)
        a = log_gamma_complex(z.conjugate())
        b = log_gamma_complex(z).conjugate()
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    @given(
        st.floats(min_value=-0.9, max_value=5.0),
        st.floats(min_value=-20.0, max_value=20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_recurrence(self, re, im):
        z = complex(re, im)
        if abs(z - round(z.real)) < 1e-3 or abs(z + 1 - round(z.real + 1)) < 1e-3:
            return
        lhs = cmath.exp(log_gamma_complex(z + 1))
        rhs = z * cmath.exp(log_gamma_complex(z))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))

    @given(
        st.floats(min_value=-3.0, max_value=4.0),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_reflection(self, re, im):
        z = complex(re, im)
        if abs(z - round(z.real)) < 1e-2 or abs(1 - z - round(1 - z.real)) < 1e-2:
            return
        val = cmath.exp(log_gamma_complex(z) + log_gamma_complex(1 - z))
        val *= cmath.sin(math.pi * z) / math.pi
        assert abs(val - 1.0) <= 1e-10


class TestGammaLine:
    def test_branch_anchor_is_minus_pi_exactly(self):
        for alpha in (0.2, 0.5, 0.8):
            for omega in (0.0, -0.0):
                assert gamma_line(alpha, omega).imag == -math.pi

    def test_alpha_half_anchor_magnitude(self):
        lg = gamma_line(0.5, 0.0)
        assert abs(lg.real - math.log(4.901666809860711)) < 1e-12

    def test_is_log_gamma_on_the_line(self):
        assert gamma_line(0.3, 1.25) == log_gamma_complex(complex(-0.15, 1.25))
        omegas = np.array([[0.0, 0.5], [1.25, 3.0]])
        lg = gamma_line(0.3, omegas)
        assert lg.shape == omegas.shape
        assert lg[1, 0] == gamma_line(0.3, 1.25)

    def test_overflow_is_a_value_error_naming_z(self):
        # Im z = 5e307 overflows scipy's loggamma; 1e200 does not
        assert math.isfinite(gamma_line(0.5, 1e200).real)
        with pytest.raises(ValueError, match=r"log Gamma overflows at z = \(-0\.25\+5e\+307j\)"):
            gamma_line(0.5, 5e307)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            gamma_line(0.0, 1.0)
        with pytest.raises(ValueError):
            gamma_line(1.0, 1.0)
        with pytest.raises(ValueError):
            gamma_line(0.5, -0.1)
        with pytest.raises(ValueError, match="omega must be >= 0, got nan"):
            gamma_line(0.5, math.nan)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_arg_continuity_fine_grid(self, alpha):
        # No branch jumps: adjacent values at step 1e-3 must stay close.
        omegas = np.arange(0.0, 20.0, 1e-3)
        args = np.array([gamma_line(alpha, w).imag for w in omegas])
        assert np.max(np.abs(np.diff(args))) < 0.1

    def test_stirling_magnitude_at_omega_ten(self):
        # |Gamma(a+ib)| ~ sqrt(2 pi) |b|^(a-1/2) exp(-pi |b| / 2)
        alpha = 0.5
        a = -alpha / 2.0
        b = 10.0
        want = math.log(math.sqrt(2 * math.pi)) + (a - 0.5) * math.log(b) - math.pi * b / 2
        got = gamma_line(alpha, b).real
        assert abs(math.exp(got - want) - 1.0) < 0.01

    def test_log_space_survives_large_omega(self):
        lg = gamma_line(0.5, 200.0)
        assert math.isfinite(lg.real) and math.isfinite(lg.imag)
        assert lg.real < -300.0  # |Gamma| itself would underflow


class TestDigammaLineDerivative:
    def test_at_origin_closed_form_oracle(self):
        # psi(-1/4) = psi(3/4) + 1/(3/4-1) recurrence, with
        # psi(3/4) = -euler_gamma - 3 ln 2 + pi/2.
        want = -EULER_GAMMA - 3 * math.log(2.0) + math.pi / 2.0 + 4.0
        assert abs(digamma_line_derivative(0.5, 0.0) - want) < 1e-12

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("omega", [0.0, 1e-3, 0.3, 0.60878, 2.0, 20.0, 50.0])
    def test_against_mpmath(self, alpha, omega):
        got = digamma_line_derivative(alpha, omega)
        want = float(mp.re(mp.digamma(mp.mpc(-alpha / 2.0, omega))))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_matches_centered_difference_of_arg(self, alpha):
        h = 1e-5
        for omega in (0.01, 0.2, 0.7, 1.5, 5.0):
            fd = (
                gamma_line(alpha, omega + h).imag
                - gamma_line(alpha, omega - h).imag
            ) / (2 * h)
            assert abs(digamma_line_derivative(alpha, omega) - fd) < 1e-6

    def test_log_asymptote(self):
        # Re psi(-alpha/2 + i omega) ~ ln omega for large omega.
        got = digamma_line_derivative(0.5, 50.0)
        assert abs(got - math.log(50.0)) / math.log(50.0) < 0.05

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            digamma_line_derivative(1.2, 1.0)
        with pytest.raises(ValueError):
            digamma_line_derivative(0.5, -1.0)


class TestParetoLaplace:
    def test_at_zero_is_one(self):
        for alpha in (0.1, 0.5, 0.9):
            assert pareto_laplace(alpha, 0.0) == 1.0

    def test_frozen_value_at_one(self):
        # oracle: 30-digit evaluation of 0.5 Gamma(-1/2, 1)
        assert abs(pareto_laplace(0.5, 1.0) - 0.08907385589078035) < 1e-12

    def test_quadrature_oracle(self):
        from scipy.integrate import quad

        for alpha in (0.25, 0.5, 0.9):
            for t in (0.1, 1.0, 5.0):
                want, err = quad(
                    lambda x: alpha * x ** (-1 - alpha) * math.exp(-t * x),
                    1.0,
                    np.inf,
                    limit=200,
                )
                assert err < 1e-8
                assert abs(pareto_laplace(alpha, t) - want) < 1e-9

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.7, 0.75, 0.9])
    @pytest.mark.parametrize("t", [0.01, 0.5, 1.9, 2.1, 5.0, 20.0])
    def test_against_mpmath_grid(self, alpha, t):
        # oracle: the defining form alpha t^alpha Gamma(-alpha, t) at 30 digits,
        # not the order-(1-alpha) recurrence that pareto_laplace evaluates
        want = float(alpha * mp.mpf(t) ** alpha * mp.gammainc(-mp.mpf(alpha), t, mp.inf))
        assert abs(pareto_laplace(alpha, t) - want) <= 1e-10 * want

    def test_small_t_asymptote(self):
        # 1 - phi_beta(t) ~ t^beta Gamma(1-beta)
        for beta in (0.1, 0.25, 0.4):
            t = 1e-6
            lead = t ** beta * math.gamma(1.0 - beta)
            ratio = (1.0 - pareto_laplace(beta, t)) / lead
            assert abs(ratio - 1.0) < 5e-3

    def test_quarter_example(self):
        t = 1e-6
        lead = t ** 0.25 * math.gamma(0.75)
        assert abs((1.0 - pareto_laplace(0.25, t)) - lead) <= 5e-3 * lead

    def test_monotone_decreasing_and_bounded(self):
        for alpha in (0.2, 0.5, 0.8):
            ts = np.linspace(0.0, 10.0, 60)
            vals = np.array([pareto_laplace(alpha, t) for t in ts])
            assert np.all(np.diff(vals) < 0.0)
            assert np.all(vals > 0.0) and np.all(vals <= 1.0)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            pareto_laplace(0.5, -0.5)
        with pytest.raises(ValueError):
            pareto_laplace(1.5, 1.0)
