"""Dense spectra, ordering, and the three-way comparison harness."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msmlab.numeric as numeric
from msmlab.model import (
    WEIGHT_MODES,
    FitnessVector,
    KernelOperator,
    ModelParams,
    SymmetricMatrix,
    expected_matrix,
    gen_fitness,
    sample_sparse_adjacency,
)
from msmlab.numeric import (
    ComparisonReport,
    EigenDecomposition,
    compare,
    compare_with_vectors,
    effective_rank,
    eig_sym,
    noise_norm,
    outliers,
    reconstruction_residuals,
    residual_tolerances,
    spectral_norm,
)
from msmlab.spectrum import NoRootError, lambda_1


class TestEigSym:
    def test_zero_matrix(self):
        d = eig_sym(np.zeros((5, 5)))
        assert np.array_equal(d.eigenvalues, np.zeros(5))
        assert d.n == 5

    def test_complete_graph_constant_p(self):
        # p(J - I) has eigenvalues (n-1)p once and -p with multiplicity n-1
        n, p = 7, 0.3
        m = p * (np.ones((n, n)) - np.eye(n))
        d = eig_sym(m)
        assert abs(d.eigenvalues[0] - (n - 1) * p) < 1e-12
        assert np.max(np.abs(d.eigenvalues[1:] + p)) < 1e-12

    def test_descending_magnitude_with_signed_tiebreak(self):
        d = eig_sym(np.diag([3.0, -3.0, -2.0, 2.0, 0.0]))
        assert np.allclose(d.eigenvalues, [3.0, -3.0, 2.0, -2.0, 0.0], atol=1e-12)

    def test_eigenvectors_travel_with_eigenvalues(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((9, 9))
        m = m + m.T
        d = eig_sym(m)
        r = m @ d.eigenvectors - d.eigenvectors * d.eigenvalues
        assert np.max(np.abs(r)) < 1e-12 * max(1.0, np.abs(d.eigenvalues[0]))

    def test_rejects_non_finite(self):
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 0] = np.nan
        with pytest.raises(ValueError):
            eig_sym(m)
        m[0, 1] = m[1, 0] = np.inf
        with pytest.raises(ValueError):
            eig_sym(m)

    def test_rejects_asymmetric_and_non_square(self):
        with pytest.raises(ValueError):
            eig_sym(np.arange(9.0).reshape(3, 3))
        with pytest.raises(ValueError):
            eig_sym(np.zeros((3, 4)))

    def test_symmetric_matrix_input_matches_its_entries(self):
        params = ModelParams(n=32, alpha=0.5)
        P = expected_matrix(gen_fitness(params), params.epsilon_n)
        d = eig_sym(P)
        assert np.array_equal(d.eigenvalues, eig_sym(P.entries).eigenvalues)

    def test_vectors_false_matches_values(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((8, 8))
        m = m + m.T
        dv = eig_sym(m)
        d0 = eig_sym(m, vectors=False)
        assert d0.eigenvectors is None
        assert np.allclose(d0.eigenvalues, dv.eigenvalues, atol=1e-12)
        with pytest.raises(ValueError):
            reconstruction_residuals(d0, m)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=8))
    def test_ordering_property(self, seed, n):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n))
        m = m + m.T
        d = eig_sym(m, vectors=False)
        mags = np.abs(d.eigenvalues)
        assert np.all(mags[:-1] >= mags[1:] - 1e-15)

    def test_decomposition_rejects_misordered(self):
        with pytest.raises(ValueError):
            EigenDecomposition(eigenvalues=np.array([1.0, 2.0]), eigenvectors=None)
        with pytest.raises(ValueError):
            EigenDecomposition(
                eigenvalues=np.array([2.0, 1.0]),
                eigenvectors=np.zeros((3, 2)),
            )


class TestDecompositionInvariants:
    def test_reconstruction_and_orthonormality(self):
        params = ModelParams(n=512, alpha=0.5, seed=7)
        P = expected_matrix(gen_fitness(params), params.epsilon_n)
        d = eig_sym(P)
        res = reconstruction_residuals(d, P)
        tol = residual_tolerances(d, P)
        assert np.all(res <= tol)
        v = d.eigenvectors
        assert np.abs(v.T @ v - np.eye(d.n)).max() < 1e-8

    def test_adjacency_reconstruction(self):
        params = ModelParams(n=256, alpha=0.3, seed=9)
        A = sample_sparse_adjacency(KernelOperator(gen_fitness(params), params.epsilon_n), params.seed).toarray()
        d = eig_sym(A)
        assert np.all(reconstruction_residuals(d, A) <= residual_tolerances(d, A))


class TestOutliersAndRank:
    def test_outliers_prefix(self):
        d = eig_sym(np.diag([5.0, -4.0, 3.0, 1.0]), vectors=False)
        assert outliers(d, 2.0) == [(1, 5.0), (2, -4.0), (3, 3.0)]
        assert outliers(d, 10.0) == []
        # strict inequality: an eigenvalue sitting exactly on the edge stays in
        assert len(outliers(d, 5.0)) == 0

    def test_outliers_rejects_negative_edge(self):
        d = eig_sym(np.zeros((3, 3)), vectors=False)
        with pytest.raises(ValueError):
            outliers(d, -1.0)

    def test_effective_rank_diag(self):
        # n = 4 so c*sqrt(n) = 1 at c = 0.5
        d = eig_sym(np.diag([5.0, -4.0, 0.5, 0.1]), vectors=False)
        assert effective_rank(d) == 2
        assert effective_rank(d, c=2.6) == 0
        with pytest.raises(ValueError):
            effective_rank(d, c=0.0)

    def test_effective_rank_ci_sizes(self):
        # expected kernel keeps a handful of outliers above sqrt(n)/2
        for n in (1024, 2048):
            params = ModelParams(n=n, alpha=0.5, seed=3)
            P = expected_matrix(gen_fitness(params), params.epsilon_n)
            d = eig_sym(P, vectors=False)
            er = effective_rank(d)
            assert er / math.log(n) == pytest.approx(0.55, abs=0.35)
            assert er == 4

    def test_outlier_count_band_adjacency(self):
        params = ModelParams(n=1024, alpha=0.5, seed=3)
        A = sample_sparse_adjacency(KernelOperator(gen_fitness(params), params.epsilon_n), params.seed).toarray()
        d = eig_sym(A, vectors=False)
        cnt = len(outliers(d, math.sqrt(params.n) / 2))
        assert 0.2 <= cnt / math.log(params.n) <= 5.0

    @pytest.mark.slow
    def test_effective_rank_non_decreasing_to_paper_scale(self, eigvals_P_n1e4):
        ranks = []
        for n in (1000, 4000):
            params = ModelParams(n=n, alpha=0.5)
            P = expected_matrix(gen_fitness(params), params.epsilon_n)
            ranks.append(effective_rank(eig_sym(P, vectors=False)))
        order = np.lexsort((-eigvals_P_n1e4, -np.abs(eigvals_P_n1e4)))
        d = EigenDecomposition(
            eigenvalues=eigvals_P_n1e4[order],
            eigenvectors=None,
        )
        ranks.append(effective_rank(d))
        assert ranks[-1] == 5
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))

    @pytest.mark.slow
    def test_outlier_count_band_paper_scale(self, det_instance_n1e4):
        params, fv, _ = det_instance_n1e4
        A = sample_sparse_adjacency(KernelOperator(fv, params.epsilon_n), 1).toarray()
        d = eig_sym(A, vectors=False)
        n = params.n
        cnt = len(outliers(d, math.sqrt(n) / 2))
        assert 0.2 <= cnt / math.log(n) <= 5.0
        assert abs(d.eigenvalues.sum()) <= 1e-6 * n


class TestSpectralNorm:
    def test_matches_dense_eigenvalues(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((40, 40))
        m = m + m.T
        # eigenvalues -4 and 1 (four times): the norm comes from a negative
        # eigenvalue on the Lanczos path, past the n <= 2 shortcut
        hub = np.eye(5) - np.ones((5, 5))
        for matrix in (m, hub):
            dense = np.max(np.abs(np.linalg.eigvalsh(matrix)))
            assert spectral_norm(matrix) == pytest.approx(dense, rel=1e-9)

    def test_tiny_matrix_path(self):
        assert spectral_norm(np.array([[0.0, -3.0], [-3.0, 0.0]])) == pytest.approx(3.0)

    def test_rejects_non_finite(self):
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            spectral_norm(m)


def constant_kernel(n: int, p: float) -> tuple[KernelOperator, SymmetricMatrix]:
    """Equal weights, so every p_ij is p to rounding; p = 1 saturates (eps = 40).

    Returns the operator and the dense matrix it stands for.
    """
    fv = FitnessVector(np.ones(n))
    eps = -math.log1p(-p) if p < 1.0 else 40.0
    return KernelOperator(fv, eps), expected_matrix(fv, eps)


class TestNoiseNorm:
    @pytest.mark.parametrize("mode", WEIGHT_MODES)
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_matches_norm_of_dense_noise(self, alpha, mode):
        params = ModelParams(n=1000, alpha=alpha, seed=4, weight_mode=mode)
        fv = gen_fitness(params)
        P = expected_matrix(fv, params.epsilon_n)
        K = KernelOperator(fv, params.epsilon_n)
        for seed in (0, 1):
            A = sample_sparse_adjacency(K, seed)
            want = spectral_norm(A.toarray() - P.entries)
            assert abs(noise_norm(A, K) - want) <= 1e-13 * want

    def test_tiny_and_vanishing_noise_are_exact(self):
        # n <= 2 is decomposed densely; a saturated kernel draws A = P
        for K, P in (constant_kernel(2, 0.3), constant_kernel(8, 1.0)):
            for seed in (0, 1):
                A = sample_sparse_adjacency(K, seed)
                assert noise_norm(A, K) == spectral_norm(A.toarray() - P.entries)

    def test_validation(self):
        A = sample_sparse_adjacency(constant_kernel(8, 0.2)[0], 0)
        with pytest.raises(ValueError):
            noise_norm(A, constant_kernel(9, 0.2)[0])


@pytest.fixture(scope="module")
def report_2048() -> ComparisonReport:
    return compare(ModelParams(n=2048, alpha=0.5, seed=1), k_max=10)


class TestCompare:
    def test_row_shape_and_indexing(self, report_2048):
        assert len(report_2048.rows) == 10
        assert [r.k for r in report_2048.rows] == list(range(1, 11))
        assert report_2048.pred_truncated_at is None

    def test_signs_alternate(self, report_2048):
        for r in report_2048.rows[:8]:
            want = 1.0 if r.k % 2 == 1 else -1.0
            assert math.copysign(1.0, r.lambda_pred) == want
            assert math.copysign(1.0, r.lambda_P) == want
            assert math.copysign(1.0, r.lambda_A) == want
            assert r.sign_ok is True

    def test_top_three_P_vs_A_within_band(self, report_2048):
        # measured 1.2% / 2.9% / 6.1% at this seed
        for r in report_2048.rows[:3]:
            assert r.rel_err_P_vs_A <= 0.15

    def test_prediction_gap_finite_size(self, report_2048):
        # the rank-1 analytic value overshoots eig(P) by ~16% at n = 2048;
        # the gap closes slowly with n and is nowhere near 5% at this size
        r1 = report_2048.rows[0]
        assert 0.13 <= r1.rel_err_pred_vs_P <= 0.18

    def test_prediction_vectors_track_P(self, report_2048):
        for r in report_2048.rows[:4]:
            assert r.cosine_sim_pred_vs_P >= 0.95

    def test_k_break(self, report_2048):
        assert report_2048.k_break == 5
        for r in report_2048.rows[: report_2048.k_break - 1]:
            assert r.cosine_sim_P_vs_A >= 0.9
        assert report_2048.rows[report_2048.k_break - 1].cosine_sim_P_vs_A < 0.9
        assert report_2048.k_break <= 20

    @pytest.mark.parametrize("mode", WEIGHT_MODES)
    def test_bulk_edge_matches_dense_noise_norm(self, mode):
        # compare takes ||A - P|| on the kernel operator; the reference
        # redraws A from the same seed and stores H densely
        params = ModelParams(n=1024, alpha=0.5, seed=3, weight_mode=mode)
        report, _ = compare_with_vectors(params, k_max=2)
        fv = gen_fitness(params)
        A = sample_sparse_adjacency(KernelOperator(fv, params.epsilon_n), params.seed)
        want = spectral_norm(A.toarray() - expected_matrix(fv, params.epsilon_n).entries)
        assert abs(report.bulk_edge_measured - want) <= 1e-13 * want

    @pytest.mark.parametrize("mode", WEIGHT_MODES)
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_bulk_edge_is_the_sparse_draw_norm(self, alpha, mode):
        # compare takes ||H|| on the sparse draw itself, the same solve
        # edge_samples runs, so the two agree to the bit
        params = ModelParams(n=1024, alpha=alpha, seed=3, weight_mode=mode)
        K = KernelOperator(gen_fitness(params), params.epsilon_n)
        want = noise_norm(sample_sparse_adjacency(K, params.seed), K)
        assert compare_with_vectors(params, 8)[0].bulk_edge_measured == want

    def test_bulk_edge_under_envelope(self, report_2048):
        n = report_2048.params.n
        assert report_2048.bulk_edge_measured <= math.sqrt(n) / 2 + 0.25 * math.sqrt(math.log(n))
        assert report_2048.bulk_edge_measured > 0.25 * math.sqrt(n)

    def test_weyl_and_trace_invariants(self):
        params = ModelParams(n=1024, alpha=0.5, seed=3)
        fv = gen_fitness(params)
        P = expected_matrix(fv, params.epsilon_n)
        A = sample_sparse_adjacency(KernelOperator(fv, params.epsilon_n), params.seed)
        H = A.toarray() - P.entries
        vals_P = np.sort(eig_sym(P, vectors=False).eigenvalues)[::-1]
        vals_A = np.sort(eig_sym(A.toarray(), vectors=False).eigenvalues)[::-1]
        norm_H = spectral_norm(H)
        assert np.max(np.abs(vals_A - vals_P)) <= norm_H + 1e-8
        assert abs(vals_P.sum()) <= 1e-6 * params.n
        assert abs(vals_A.sum()) <= 1e-6 * params.n

    def test_sign_veto_fallback_recorded(self):
        # at n = 32 the expected kernel runs out of positive eigenvalues
        # before k = 7, so the veto falls back to plain rank order there
        rep = compare(ModelParams(n=32, alpha=0.5, seed=2), k_max=8)
        assert rep.rows[6].sign_ok is False
        assert all(r.sign_ok is True for r in rep.rows[:6])

    def test_truncation_propagates(self, monkeypatch):
        real = numeric.solve_omega_k

        def stub(k, n, alpha):
            if k >= 3:
                raise NoRootError("stubbed empty bracket")
            return real(k, n, alpha)

        monkeypatch.setattr(numeric, "solve_omega_k", stub)
        rep = compare(ModelParams(n=64, alpha=0.5, seed=5), k_max=5)
        assert rep.pred_truncated_at == 3
        for r in rep.rows[:2]:
            assert math.isfinite(r.lambda_pred)
            assert r.sign_ok is not None
        for r in rep.rows[2:]:
            assert math.isnan(r.lambda_pred)
            assert math.isnan(r.rel_err_pred_vs_P)
            assert math.isnan(r.cosine_sim_pred_vs_P)
            assert r.sign_ok is None
            assert math.isfinite(r.lambda_P)
            assert math.isfinite(r.lambda_A)

    def test_k_max_validation(self):
        with pytest.raises(ValueError):
            compare(ModelParams(n=64, alpha=0.5), k_max=0)


class TestTopEigenvalueGap:
    def test_rank_one_gap_at_n4096(self):
        # |lambda_max(P) - lambda_1| / lambda_1 measured at 14.0%: the
        # finite-size correction decays like a power of 1/ln n, so no n
        # reachable here gets close to a few percent
        params = ModelParams(n=4096, alpha=0.5)
        P = expected_matrix(gen_fitness(params), params.epsilon_n)
        top = eig_sym(P, vectors=False).eigenvalues[0]
        pred = lambda_1(params.n, params.alpha)
        rel = abs(top - pred) / pred
        assert 0.13 <= rel <= 0.15
        assert not rel <= 0.05
