"""Closed-form eigenvector predictions: anchors, identities, log-periodicity."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msmlab.eigenvectors import (
    eigenvector_entries,
    entry_identity_check,
    envelope_slope,
    l1_normalize,
    nu_k,
    operator_residual,
    zero_crossing_log_positions,
)
from msmlab.numeric import eig_top
from msmlab.special import log_gamma_complex
from msmlab.spectrum import solve_omega_k


class TestNuK:
    def test_perron_mode_at_one(self):
        assert nu_k(1.0, 1, 100, 0.5) == 0.5

    def test_perron_mode_power_law(self):
        # nu_1(x) = x^(alpha/2)/2
        assert abs(nu_k(4.0, 1, 100, 0.5) - 0.5 * 4.0**0.25) < 1e-15
        for x in (1.5, 7.0, 1e4):
            assert abs(nu_k(x, 1, 2048, 0.3) - 0.5 * x**0.15) < 1e-12 * x**0.15

    def test_two_conjugate_term_oracle(self):
        # Same function written as half the sum of the two conjugate
        # terms, evaluated with independent complex arithmetic.
        alpha, n, k, x = 0.5, 10**4, 2, 100.0
        om = solve_omega_k(k, n, alpha).omega_k
        lg0 = log_gamma_complex(complex(1 - alpha / 2, 0.0))
        lgm = log_gamma_complex(complex(1 - alpha / 2, -om)) - lg0
        lgp = log_gamma_complex(complex(1 - alpha / 2, om)) - lg0
        pair = complex(alpha / 2, -om) * cmath.exp(lgm) * x ** (1j * om)
        pair += complex(alpha / 2, om) * cmath.exp(lgp) * x ** (-1j * om)
        want = (x ** (alpha / 2) / (2 * alpha)) * pair
        assert abs(want.imag) < 1e-14 * abs(want.real)
        got = nu_k(x, k, n, alpha)
        assert abs(got - want.real) < 1e-12 * abs(want.real)
        assert abs(got - 1.7298081834761485) < 1e-12

    def test_matches_entries_on_grid(self):
        n, alpha, k = 512, 0.4, 3
        pred = eigenvector_entries(k, n, alpha)
        for j in (1, 2, 17, 100, 512):
            x = (n / j) ** (1 / alpha)
            assert abs(nu_k(x, k, n, alpha) - pred.entries[j - 1]) < 1e-10 * (
                abs(pred.entries[j - 1]) + 1.0
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            nu_k(0.5, 1, 100, 0.5)


class TestEigenvectorEntries:
    def test_perron_anchor_exact(self):
        pred = eigenvector_entries(1, 10**4, 0.5)
        j = np.arange(1, 10**4 + 1, dtype=float)
        assert np.array_equal(pred.entries, 0.5 * np.sqrt(10**4 / j))
        assert pred.entries[0] == 50.0
        assert pred.entries[-1] == 0.5

    def test_perron_positivity(self):
        for alpha in (0.2, 0.5, 0.8):
            pred = eigenvector_entries(1, 300, alpha)
            assert np.all(pred.entries > 0.0)

    def test_oscillating_modes_change_sign(self):
        for k in (2, 3, 4):
            pred = eigenvector_entries(k, 10**4, 0.5)
            assert (np.sign(pred.entries[:-1]) * np.sign(pred.entries[1:]) < 0).any()

    def test_envelope_bound(self):
        # |v| sqrt(j) never exceeds the leading-entry amplitude.
        for k in (2, 5):
            pred = eigenvector_entries(k, 4096, 0.5)
            j = np.arange(1, 4097, dtype=float)
            env = np.abs(pred.entries) * np.sqrt(j)
            assert env.max() <= abs(pred.entries[0]) * (1 + 1e-12)


class TestEntryIdentityCheck:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_cosine_form_agrees(self, k):
        rep = entry_identity_check(k, 10**4, 0.5)
        assert rep.max_abs_discrepancy < 1e-12 * rep.max_abs_entry

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_amplitude_relation(self, k):
        rep = entry_identity_check(k, 10**4, 0.5)
        assert rep.amplitude_rel_error < 1e-12

    def test_k1_amplitude_is_half_sqrt_n(self):
        # lambda_1/4 / Gamma(1-alpha/2) collapses to sqrt(n)/2.
        n, alpha = 2500, 0.6
        lam1 = solve_omega_k(1, n, alpha).lambda_k
        v1 = lam1 * 0.25 / math.gamma(1 - alpha / 2)
        assert abs(v1 - math.sqrt(n) / 2) < 1e-12 * v1

    def test_sign_convention_of_leading_entry(self):
        # v_k^(1) inherits the sign (-1)^(k+1) of lambda_k.
        for k in (1, 2, 3, 4):
            pred = eigenvector_entries(k, 4096, 0.5)
            assert math.copysign(1.0, pred.entries[0]) == (-1.0) ** (k + 1)


class TestL1Normalize:
    def test_sums_to_one(self):
        pred = eigenvector_entries(1, 100, 0.5)
        out = l1_normalize(pred.entries)
        assert abs(np.abs(out).sum() - 1.0) < 1e-14

    def test_unit_basis_unchanged(self):
        e = np.zeros(7)
        e[3] = 1.0
        assert np.array_equal(l1_normalize(e), e)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, c):
        v = np.array([3.0, -1.0, 0.25,0.0, -2.0])
        assert np.allclose(l1_normalize(c * v), l1_normalize(v), rtol=1e-12, atol=0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            l1_normalize(np.zeros(5))


class TestLogPeriodicity:
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_crossings_equally_spaced(self, k):
        pred = eigenvector_entries(k, 10**4, 0.5)
        pos = zero_crossing_log_positions(pred)
        assert pos.size >= 2
        want = math.pi * 0.5 / pred.omega_k
        spacings = np.diff(pos)
        assert np.all(np.abs(spacings / want - 1.0) < 0.05)

    def test_perron_mode_has_no_crossings(self):
        pred = eigenvector_entries(1, 2048, 0.5)
        assert zero_crossing_log_positions(pred).size == 0


class TestEnvelopeSlope:
    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
    def test_no_trend(self, k):
        pred = eigenvector_entries(k, 10**4, 0.5)
        assert abs(envelope_slope(pred)) < 0.05

    def test_too_few_periods_raises(self):
        pred = eigenvector_entries(2, 10**4, 0.5)
        with pytest.raises(ValueError):
            envelope_slope(pred)


class TestOperatorResidual:
    def test_measured_residual_band(self, det_instance_n1e4):
        # P v_k = lambda_k v_k holds only approximately at finite n. The
        # residuals at n = 1e4, alpha = 0.5 sit well above the few-percent
        # level for most k (only k = 3 is below 10%); the exact measured
        # values are frozen here.
        _, _, K = det_instance_n1e4
        want = {1: 0.2076, 2: 0.1836, 3: 0.0906, 4: 0.1254, 5: 0.2946}
        for k, r in want.items():
            pred = eigenvector_entries(k, 10**4, 0.5)
            got = operator_residual(K, pred)
            assert abs(got - r) < 2e-3
        assert operator_residual(K, eigenvector_entries(3, 10**4, 0.5)) < 0.10


@pytest.mark.slow
class TestAgainstLanczosEigenvectors:
    def test_k3_cosine_similarity(self, det_instance_n1e4):
        v_num = eig_top(det_instance_n1e4[2], 3).eigenvectors[:, 2]
        v_pred = eigenvector_entries(3, 10**4, 0.5).entries
        cos = abs(v_num @ v_pred) / (np.linalg.norm(v_num) * np.linalg.norm(v_pred))
        assert cos >= 0.95
