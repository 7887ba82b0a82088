"""Closed-form spectral predictions: roots, signs, spirals, decay."""
import math

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from msmlab.numeric import eig_top
from msmlab.special import digamma_line_derivative
from msmlab.spectrum import (
    NoRootError,
    admissibility_residual,
    k_star_estimate,
    ladder,
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
        got = solve_omega_k(1, 10**4, 0.5).lambda_k
        assert abs(got - oracle) < 1e-10 * oracle
        assert abs(got - 245.0833404930) < 1e-6

    def test_sqrt_n_scaling(self):
        ratio = solve_omega_k(1, 4 * 2048, 0.5).lambda_k / solve_omega_k(1, 2048, 0.5).lambda_k
        assert abs(ratio - 2.0) < 1e-12

    def test_positive_across_alpha(self):
        for alpha in np.linspace(0.05, 0.95, 19):
            assert solve_omega_k(1, 1000, float(alpha)).lambda_k > 0.0

    @pytest.mark.slow
    def test_against_largest_eigenvalue_of_P(self, det_instance_n1e4):
        # The closed form sits above the finite-n eigenvalue: the gap at
        # n = 10^4 is ~14%, closing slowly (like 1/ln n) from above.
        # Visual-agreement readings of a few percent are not reproduced
        # at this n; the measured band is asserted instead. P has no
        # negative entries, so its top |eigenvalue| is its largest.
        lam_max = float(eig_top(det_instance_n1e4[2], 1)[0][0])
        pred = solve_omega_k(1, 10**4, 0.5).lambda_k
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
        assert (pred.k, pred.n, pred.alpha) == (1, 777, 0.37)
        assert pred.lambda_k == lambda_k_from_omega(1, 0.0, 777, 0.37)

    @pytest.mark.parametrize("k,want", sorted(FROZEN_ROOTS_A02_N1E4.items()))
    def test_frozen_roots_alpha02(self, k, want):
        pred = solve_omega_k(k, 10**4, 0.2)
        assert abs(pred.omega_k - want) < 5e-7
        assert abs(pred.residual) < 1e-9
        # (ln n)/alpha beats f' on [0, 2 omega_k], so the residual is
        # strictly decreasing there and the root is unique
        grid = np.linspace(0.0, 2.0 * pred.omega_k, 201)
        assert math.log(10**4) / 0.2 > digamma_line_derivative(0.2, grid).max()

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
        fifth = eig_top(det_instance_n1e4[2], 5)[0][4]
        pred = solve_omega_k(5, 10**4, 0.5)
        assert abs(pred.lambda_k - fifth) / abs(fifth) < 0.15
        assert np.sign(pred.lambda_k) == np.sign(fifth)


class TestLadder:
    def test_rungs_are_the_roots(self):
        rungs = ladder(8, 10**4, 0.2)
        assert rungs == [solve_omega_k(k, 10**4, 0.2) for k in range(1, 9)]

    @pytest.mark.parametrize("n,alpha", [(16, 0.5), (100, 0.5), (1000, 0.8)])
    def test_stops_before_the_first_k_off_the_ladder(self, n, alpha):
        rungs = ladder(40, n, alpha)
        assert 1 <= len(rungs) < 40
        assert [p.k for p in rungs] == list(range(1, len(rungs) + 1))
        with pytest.raises(NoRootError):
            solve_omega_k(len(rungs) + 1, n, alpha)

    def test_empty_and_invalid(self):
        assert ladder(0, 100, 0.5) == []
        with pytest.raises(ValueError):
            ladder(3, 1, 0.5)


class TestLambdaKFromOmega:
    def test_sign_parity_alternates_from_positive(self):
        for k in range(1, 10):
            val = lambda_k_from_omega(k, 0.3, 4096, 0.5)
            assert math.copysign(1.0, val) == (-1.0) ** (k + 1)

    def test_k1_at_zero_matches_lambda_1(self):
        want = -0.5 * math.gamma(-0.25) * 64.0
        assert abs(lambda_k_from_omega(1, 0.0, 4096, 0.5) - want) < 1e-14 * want

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
        _, phi = stationary_point(alpha)
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


class TestStationaryPoint:
    def test_closed_form_alpha05(self):
        omega_alpha, _ = stationary_point(0.5)
        want = math.sqrt(0.25 * (1.0 / np.euler_gamma - 0.25))
        assert omega_alpha == want
        assert abs(omega_alpha - 0.608780) < 1e-6

    @pytest.mark.parametrize(
        "alpha,om,phi",
        [(0.2, 0.404036, -2.086535), (0.5, 0.608780, -2.471585), (0.8, 0.730056, -2.821130)],
    )
    def test_frozen_values(self, alpha, om, phi):
        omega_alpha, phi_alpha = stationary_point(alpha)
        assert abs(omega_alpha - om) < 1e-6
        assert abs(phi_alpha - phi) < 1e-6

    def test_phi_inside_principal_window(self):
        for alpha in np.linspace(0.05, 0.95, 19):
            _, phi_alpha = stationary_point(float(alpha))
            assert -math.pi < phi_alpha < math.pi

    def test_numeric_root_only_for_small_alpha(self):
        # f' crosses zero in (0,5] at alpha = 0.2 but stays positive for
        # alpha = 0.5 and 0.8, where its minimizer stands in for the root.
        grid = np.linspace(1e-6, 5.0, 400)
        assert (digamma_line_derivative(0.2, grid) < 0.0).any()
        assert abs(_f_prime_root_or_min(0.2) - 0.434337) < 1e-5
        for alpha, want in ((0.5, 0.667801), (0.8, 0.612810)):
            assert (digamma_line_derivative(alpha, grid) > 0.0).all()
            assert abs(_f_prime_root_or_min(alpha) - want) < 1e-4

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_grid_matches_scalar_loop(self, alpha):
        # f' evaluated on a whole grid in one array call; the per-point
        # scalar loop is the reference.
        grid = np.linspace(1e-6, 5.0, 400)
        want = np.array([digamma_line_derivative(alpha, float(w)) for w in grid])
        got = digamma_line_derivative(alpha, grid)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_omega_star_deviation_band(self):
        # Closed form vs numeric: within 15% for alpha = 0.2 and 0.5; the
        # alpha = 0.8 deviation is 16.1%, just outside that band (f' has
        # no zero there and its minimizer drifts left of omega_alpha).
        devs = {}
        for alpha in (0.2, 0.5, 0.8):
            omega_alpha, _ = stationary_point(alpha)
            devs[alpha] = abs(_f_prime_root_or_min(alpha) - omega_alpha) / omega_alpha
        assert devs[0.2] <= 0.15 and devs[0.5] <= 0.15
        assert 0.15 < devs[0.8] < 0.18


def _f_prime_root_or_min(alpha):
    """First zero of f' in (0, 5] if it has one, else the minimizer of f' there."""
    grid = np.linspace(1e-6, 5.0, 400)
    vals = digamma_line_derivative(alpha, grid)
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    f_prime = lambda w: digamma_line_derivative(alpha, w)
    if flips.size:
        i = flips[0]
        return brentq(f_prime, grid[i], grid[i + 1], xtol=1e-12)
    res = minimize_scalar(f_prime, bounds=(1e-6, 5.0), method="bounded", options={"xatol": 1e-10})
    return float(res.x)


class TestSpiral:
    def test_starts_at_lambda_1_on_real_axis(self):
        w0, re0, im0 = spiral(0.5, 4096, 1.0, 100)[0]
        lam1 = solve_omega_k(1, 4096, 0.5).lambda_k
        assert w0 == 0.0
        assert abs(re0 - lam1) < 1e-10 * lam1
        assert abs(im0) < 1e-12 * lam1

    def test_matches_sigma(self):
        from msmlab.spectrum import _sigma

        loc = spiral(0.4, 2048, 2.0, 333)
        assert loc.shape == (333, 3)
        want = _sigma(0.4, 2048, np.linspace(0.0, 2.0, 333))
        assert np.array_equal(loc[:, 1], want.real)
        assert np.array_equal(loc[:, 2], want.imag)

    def test_samples_match_scalar_loop(self):
        from msmlab.spectrum import _sigma

        loc = spiral(0.5, 10**4, 3.0, 2001)
        want = np.array([_sigma(0.5, 10**4, float(w)) for w in loc[:, 0]])
        got = loc[:, 1] + 1j * loc[:, 2]
        assert np.array_equal(loc[:, 0], np.linspace(0.0, 3.0, 2001))
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_crossings_match_admissible_roots(self):
        alpha, n = 0.5, 4096
        crossings = spiral_crossings(alpha, n, spiral(alpha, n, 1.0, 2000))
        assert crossings.size >= 4
        for i, w in enumerate(crossings):
            assert abs(w - solve_omega_k(i + 2, n, alpha).omega_k) < 1e-6

    def test_first_crossing_has_negative_real_part(self):
        alpha, n = 0.5, 4096
        w2 = spiral_crossings(alpha, n, spiral(alpha, n, 0.5, 2000))[0]
        from msmlab.spectrum import _sigma

        val = _sigma(alpha, n, w2)
        assert val.real < 0.0
        pred = solve_omega_k(2, n, alpha)
        assert abs(val.real - pred.lambda_k) < 1e-8 * abs(pred.lambda_k)

    def test_two_conditions_give_real_lambda(self):
        # Im sigma vanishes at every solved root, so the single
        # real solve determines the eigenvalue.
        from msmlab.spectrum import _sigma

        for k in range(2, 7):
            pred = solve_omega_k(k, 10**4, 0.5)
            val = _sigma(0.5, 10**4, pred.omega_k)
            assert abs(val.imag) < 1e-8 * abs(pred.lambda_k)

    def test_validation(self):
        with pytest.raises(ValueError):
            spiral(0.5, 100, 0.0, 10)
        with pytest.raises(ValueError):
            spiral(0.5, 100, 1.0, 1)
        with pytest.raises(TypeError):  # one spiral: no branch to choose
            spiral(0.5, 100, 1.0, 10, branch="minus")

    def test_underflow_refused(self):
        # the first exact (0, 0) row of this grid sits at omega = 474.49
        with pytest.raises(ValueError, match="sigma underflows to 0 at omega = 474.491"):
            spiral(0.5, 10**4, 1000.0, 3000)
        assert spiral(0.5, 10**4, 474.0, 3000).shape == (3000, 3)


class TestKStar:
    def test_sweep_band_and_monotonicity(self):
        stars = []
        for n in (10**3, 10**4, 10**5):
            k_star = k_star_estimate(n, 0.5)
            assert isinstance(k_star, int)
            assert 0.2 <= k_star / math.log(n) <= 5.0
            stars.append(k_star)
        assert stars == sorted(stars)

    def test_frozen_values(self):
        assert k_star_estimate(10**3, 0.5) == 4
        assert k_star_estimate(10**4, 0.5) == 5
        assert k_star_estimate(10**5, 0.5) == 6

    def test_definition_smallest_k(self):
        # At tiny n even k = 2 is already below the proxy edge.
        assert k_star_estimate(4, 0.5) == 2
        assert abs(solve_omega_k(2, 4, 0.5).lambda_k) < math.sqrt(4) / 2
        assert solve_omega_k(1, 4, 0.5).lambda_k > math.sqrt(4) / 2
        # at n = 2 the ladder is the k = 1 rung alone, above the proxy, so
        # no k qualifies and k = 2's NoRootError propagates
        assert len(ladder(10, 2, 0.5)) == 1 and solve_omega_k(1, 2, 0.5).lambda_k > math.sqrt(2) / 2
        with pytest.raises(NoRootError, match="k=2"):
            k_star_estimate(2, 0.5)
