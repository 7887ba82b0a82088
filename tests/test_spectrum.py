"""Closed-form spectral predictions: roots, signs, spirals, decay."""
import math

import numpy as np
import pytest

import msmlab.spectrum as spectrum
from msmlab.numeric import eig_top
from msmlab.special import digamma_line_derivative
from msmlab.spectrum import (
    EULER_GAMMA,
    KStarEstimate,
    NoRootError,
    SpectralPrediction,
    admissibility_residual,
    k_star_estimate,
    lambda_1,
    lambda_k_from_omega,
    omega_k_approx,
    solve_omega_k,
    spiral,
    spiral_crossings,
    stationary_point,
)

# Exact roots frozen from a bisection run at xtol 1e-15 (independent of
# the Brent path used by the solver).
FROZEN_ROOTS_A02_N1E4 = {
    2: 0.081769,
    3: 0.155637,
    4: 0.226148,
    5: 0.295336,
    6: 0.363930,
    7: 0.432237,
    8: 0.500411,
}
FROZEN_ROOTS_A05_N4096 = {2: 0.218275, 3: 0.415729, 4: 0.606807, 5: 0.796978}


class TestLambdaOne:
    def test_frozen_value(self):
        # -0.5 Gamma(-0.25) 100 with Gamma(-0.25) from the recurrence oracle
        oracle = -0.5 * (math.gamma(1.75) / (-0.25 * 0.75)) * 100.0
        got = lambda_1(10**4, 0.5)
        assert abs(got - oracle) < 1e-10 * oracle
        assert abs(got - 245.0833404930) < 1e-6

    def test_sqrt_n_scaling(self):
        assert abs(lambda_1(4 * 2048, 0.5) / lambda_1(2048, 0.5) - 2.0) < 1e-12

    def test_positive_across_alpha(self):
        for alpha in np.linspace(0.05, 0.95, 19):
            assert lambda_1(1000, float(alpha)) > 0.0

    @pytest.mark.slow
    def test_against_largest_eigenvalue_of_P(self, det_instance_n1e4):
        # The closed form sits above the finite-n eigenvalue: the gap at
        # n = 10^4 is ~14%, closing slowly (like 1/ln n) from above.
        # Visual-agreement readings of a few percent are not reproduced
        # at this n; the measured band is asserted instead. P has no
        # negative entries, so its top |eigenvalue| is its largest.
        lam_max = float(eig_top(det_instance_n1e4[2], 1).eigenvalues[0])
        pred = lambda_1(10**4, 0.5)
        rel = abs(pred - lam_max) / lam_max
        assert 0.10 < rel < 0.16
        assert pred > lam_max


class TestAdmissibilityResidual:
    def test_k1_at_origin_is_exact_zero(self):
        assert admissibility_residual(1, 0.0, 10**4, 0.5) == 0.0

    def test_k0_has_no_sign_change(self):
        n, alpha = 10**4, 0.5
        cap = alpha * 4.0 * math.pi / math.log(n)
        vals = [admissibility_residual(0, w, n, alpha) for w in np.linspace(0.0, cap, 200)]
        assert all(v < 0.0 for v in vals)
        with pytest.raises(NoRootError):
            solve_omega_k(0, n, alpha)

    def test_bisection_oracle_k2(self):
        # Independent bisection to 1e-12, then the residual must vanish.
        n, alpha, k = 10**4, 0.5, 2
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if admissibility_residual(k, mid, n, alpha) > 0.0:
                lo = mid
            else:
                hi = mid
        assert abs(admissibility_residual(k, lo, n, alpha)) < 1e-9
        assert abs(solve_omega_k(k, n, alpha).omega_k - lo) < 1e-10

    def test_starts_at_k_minus_one_pi(self):
        for k in (2, 3, 7):
            got = admissibility_residual(k, 0.0, 4096, 0.3)
            assert abs(got - (k - 1) * math.pi) < 1e-14


class TestSolveOmegaK:
    def test_k1_exact(self):
        pred = solve_omega_k(1, 777, 0.37)
        assert pred.omega_k == 0.0
        assert pred.residual == 0.0
        assert pred.method == "exact_root"
        assert pred.lambda_k == lambda_1(777, 0.37)

    @pytest.mark.parametrize("k,want", sorted(FROZEN_ROOTS_A02_N1E4.items()))
    def test_frozen_roots_alpha02(self, k, want):
        pred = solve_omega_k(k, 10**4, 0.2)
        assert abs(pred.omega_k - want) < 5e-7
        assert abs(pred.residual) < 1e-9
        assert pred.monotone_bracket

    @pytest.mark.parametrize("k,want", sorted(FROZEN_ROOTS_A05_N4096.items()))
    def test_frozen_roots_alpha05(self, k, want):
        pred = solve_omega_k(k, 4096, 0.5)
        assert abs(pred.omega_k - want) < 5e-7
        assert abs(pred.residual) < 1e-9

    def test_root_ladder_strictly_increasing(self):
        roots = [solve_omega_k(k, 4096, 0.5).omega_k for k in range(1, 9)]
        assert all(b > a for a, b in zip(roots, roots[1:]))

    def test_lambda_magnitudes_strictly_decreasing(self):
        lams = [abs(solve_omega_k(k, 10**4, 0.5).lambda_k) for k in range(1, 9)]
        assert all(b < a for a, b in zip(lams, lams[1:]))

    def test_beyond_ladder_raises(self):
        with pytest.raises(NoRootError):
            solve_omega_k(40, 100, 0.5)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            solve_omega_k(-1, 100, 0.5)

    @pytest.mark.slow
    def test_k5_against_dense_eigensolve(self, det_instance_n1e4):
        # 5th largest |eigenvalue| of P vs the k = 5 prediction.
        fifth = eig_top(det_instance_n1e4[2], 5).eigenvalues[4]
        pred = solve_omega_k(5, 10**4, 0.5)
        assert abs(pred.lambda_k - fifth) / abs(fifth) < 0.15
        assert np.sign(pred.lambda_k) == np.sign(fifth)


class TestLambdaKFromOmega:
    def test_sign_parity_alternates_from_positive(self):
        for k in range(1, 10):
            val = lambda_k_from_omega(k, 0.3, 4096, 0.5)
            assert math.copysign(1.0, val) == (-1.0) ** (k + 1)

    def test_k1_at_zero_matches_lambda_1(self):
        assert lambda_k_from_omega(1, 0.0, 4096, 0.5) == lambda_1(4096, 0.5)

    def test_stirling_envelope(self):
        # |lambda_k| against alpha sqrt(2 pi n) omega^(-(alpha+1)/2) e^(-pi omega/2):
        # the ratio climbs toward 1 as omega grows and stays within (0.5, 1.05)
        # over the solved ladder at n = 1e4, alpha = 0.5.
        n, alpha = 10**4, 0.5
        ratios = []
        for k in range(2, 9):
            pred = solve_omega_k(k, n, alpha)
            w = pred.omega_k
            env = alpha * math.sqrt(2 * math.pi * n) * w ** (-(alpha + 1) / 2) * math.exp(-math.pi * w / 2)
            ratios.append(abs(pred.lambda_k) / env)
        assert all(0.5 < r < 1.05 for r in ratios)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            lambda_k_from_omega(0, 0.3, 100, 0.5)


class TestOmegaKApprox:
    def test_affine_in_k(self):
        n, alpha = 10**4, 0.5
        vals = [omega_k_approx(k, n, alpha) for k in range(2, 12)]
        diffs = np.diff(vals)
        want = alpha * math.pi / math.log(n)
        assert np.all(np.abs(diffs - want) < 1e-12)

    def test_k2_closed_form(self):
        alpha, n = 0.5, 10**4
        phi = stationary_point(alpha).phi_alpha
        want = alpha * (2 * math.pi + phi) / math.log(n)
        assert abs(omega_k_approx(2, n, alpha) - want) < 1e-15

    def test_alpha05_within_ten_percent(self):
        # k = 2 lands at ~5.9% here; the approximation earns its keep.
        n, alpha = 10**4, 0.5
        for k in range(2, 9):
            exact = solve_omega_k(k, n, alpha).omega_k
            assert abs(omega_k_approx(k, n, alpha) - exact) / exact < 0.10

    def test_alpha02_k2_breaches_ten_percent(self):
        # At alpha = 0.2 the k = 2 error is 11.4%: the affine form is
        # least accurate at its first index. k >= 3 passes 10% easily.
        n, alpha = 10**4, 0.2
        rel2 = abs(omega_k_approx(2, n, alpha) - solve_omega_k(2, n, alpha).omega_k) / solve_omega_k(2, n, alpha).omega_k
        assert 0.10 < rel2 < 0.13
        for k in range(3, 9):
            exact = solve_omega_k(k, n, alpha).omega_k
            assert abs(omega_k_approx(k, n, alpha) - exact) / exact < 0.10

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            omega_k_approx(1, 100, 0.5)

    def test_skips_the_stationary_point_search(self, monkeypatch):
        # only the closed-form phi_alpha enters; the f' scan is not needed
        want = omega_k_approx(2, 10_000, 0.5)

        def no_search(alpha):
            raise AssertionError("stationary_point called")

        monkeypatch.setattr(spectrum, "stationary_point", no_search)
        assert omega_k_approx(2, 10_000, 0.5) == want


class TestStationaryPoint:
    def test_closed_form_alpha05(self):
        sp = stationary_point(0.5)
        want = math.sqrt(0.25 * (1.0 / EULER_GAMMA - 0.25))
        assert sp.omega_alpha == want
        assert abs(sp.omega_alpha - 0.608780) < 1e-6

    @pytest.mark.parametrize(
        "alpha,om,phi",
        [(0.2, 0.404036, -2.086535), (0.5, 0.608780, -2.471585), (0.8, 0.730056, -2.821130)],
    )
    def test_frozen_values(self, alpha, om, phi):
        sp = stationary_point(alpha)
        assert abs(sp.omega_alpha - om) < 1e-6
        assert abs(sp.phi_alpha - phi) < 1e-6

    def test_phi_inside_principal_window(self):
        for alpha in np.linspace(0.05, 0.95, 19):
            sp = stationary_point(float(alpha))
            assert -math.pi < sp.phi_alpha < math.pi

    def test_numeric_root_only_for_small_alpha(self):
        # f' crosses zero in (0,5] at alpha = 0.2 but stays positive for
        # alpha = 0.5 and 0.8, where the minimizer is reported instead.
        sp02 = stationary_point(0.2)
        assert sp02.is_true_root
        assert abs(sp02.omega_star_numeric - 0.434337) < 1e-5
        sp05 = stationary_point(0.5)
        assert not sp05.is_true_root
        assert abs(sp05.omega_star_numeric - 0.667801) < 1e-4
        sp08 = stationary_point(0.8)
        assert not sp08.is_true_root
        assert abs(sp08.omega_star_numeric - 0.612810) < 1e-4

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_grid_matches_scalar_loop(self, alpha):
        # stationary_point scans f' on this grid in one array call; the
        # per-point scalar loop is the reference.
        grid = np.linspace(1e-6, 5.0, 400)
        want = np.array([digamma_line_derivative(alpha, float(w)) for w in grid])
        got = digamma_line_derivative(alpha, grid)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_omega_star_deviation_band(self):
        # Closed form vs numeric: within 15% for alpha = 0.2 and 0.5; the
        # alpha = 0.8 deviation is 16.1%, just outside that band (f' has
        # no zero there and its minimizer drifts left of omega_alpha).
        for alpha, cap in ((0.2, 0.15), (0.5, 0.15)):
            sp = stationary_point(alpha)
            assert abs(sp.omega_star_numeric - sp.omega_alpha) / sp.omega_alpha <= cap
        sp = stationary_point(0.8)
        dev = abs(sp.omega_star_numeric - sp.omega_alpha) / sp.omega_alpha
        assert 0.15 < dev < 0.18


class TestSpiral:
    def test_starts_at_lambda_1_on_real_axis(self):
        loc = spiral(0.5, 4096, 1.0, 100)
        w0, re0, im0 = loc.samples[0]
        lam1 = lambda_1(4096, 0.5)
        assert w0 == 0.0
        assert abs(re0 - lam1) < 1e-10 * lam1
        assert abs(im0) < 1e-12 * lam1

    def test_branches_are_conjugate(self):
        plus = spiral(0.4, 2048, 2.0, 333, branch="plus")
        minus = spiral(0.4, 2048, 2.0, 333, branch="minus")
        assert np.allclose(plus.samples[:, 1], minus.samples[:, 1], rtol=1e-12, atol=1e-300)
        assert np.allclose(plus.samples[:, 2], -minus.samples[:, 2], rtol=1e-12, atol=1e-30)

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_samples_match_scalar_loop(self, branch):
        from msmlab.spectrum import _sigma

        loc = spiral(0.5, 10**4, 3.0, 2001, branch=branch)
        want = np.array([_sigma(0.5, 10**4, float(w), branch) for w in loc.samples[:, 0]])
        got = loc.samples[:, 1] + 1j * loc.samples[:, 2]
        assert np.array_equal(loc.samples[:, 0], np.linspace(0.0, 3.0, 2001))
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_crossings_match_admissible_roots(self):
        alpha, n = 0.5, 4096
        crossings = spiral_crossings(alpha, n, 1.0)
        assert crossings.size >= 4
        for i, w in enumerate(crossings):
            assert abs(w - solve_omega_k(i + 2, n, alpha).omega_k) < 1e-6

    def test_first_crossing_has_negative_real_part(self):
        alpha, n = 0.5, 4096
        w2 = spiral_crossings(alpha, n, 0.5)[0]
        loc = spiral(alpha, n, 1.0, 5)  # only for branch plumbing
        assert loc.branch == "plus"
        from msmlab.spectrum import _sigma

        val = _sigma(alpha, n, w2, "plus")
        assert val.real < 0.0
        pred = solve_omega_k(2, n, alpha)
        assert abs(val.real - pred.lambda_k) < 1e-8 * abs(pred.lambda_k)

    def test_two_conditions_give_real_lambda(self):
        # Im sigma_plus vanishes at every solved root, so the single
        # real solve determines the eigenvalue.
        from msmlab.spectrum import _sigma

        for k in range(2, 7):
            pred = solve_omega_k(k, 10**4, 0.5)
            val = _sigma(0.5, 10**4, pred.omega_k, "plus")
            assert abs(val.imag) < 1e-8 * abs(pred.lambda_k)

    def test_validation(self):
        with pytest.raises(ValueError):
            spiral(0.5, 100, 0.0, 10)
        with pytest.raises(ValueError):
            spiral(0.5, 100, 1.0, 1)
        with pytest.raises(ValueError):
            spiral(0.5, 100, 1.0, 10, branch="up")


class TestKStar:
    def test_sweep_band_and_monotonicity(self):
        ratios = []
        stars = []
        for n in (10**3, 10**4, 10**5):
            est = k_star_estimate(n, 0.5)
            assert isinstance(est, KStarEstimate)
            assert 0.2 <= est.ratio <= 5.0
            ratios.append(est.ratio)
            stars.append(est.k_star)
        assert stars == sorted(stars)

    def test_frozen_values(self):
        assert k_star_estimate(10**3, 0.5).k_star == 4
        assert k_star_estimate(10**4, 0.5).k_star == 5
        assert k_star_estimate(10**5, 0.5).k_star == 6

    def test_definition_smallest_k(self):
        # At tiny n even k = 2 is already below the proxy edge.
        est = k_star_estimate(4, 0.5)
        assert est.k_star == 2
        assert abs(solve_omega_k(2, 4, 0.5).lambda_k) < math.sqrt(4) / 2
        assert lambda_1(4, 0.5) > math.sqrt(4) / 2
