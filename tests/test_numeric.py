"""Spectra, their ordering, and the three-way comparison harness."""
import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import msmlab.numeric as numeric
import msmlab.spectrum as spectrum
from msmlab.eigenvectors import eigenvector_entries
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
from msmlab.numeric import ComparisonReport, compare, eig_top, noise_norm
from msmlab.spectrum import NoRootError, solve_omega_k


def by_magnitude(vals: np.ndarray) -> np.ndarray:
    """vals by descending |lambda|, ties by descending signed value: eig_top's order."""
    return vals[np.lexsort((-vals, -np.abs(vals)))]


def dense_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The whole spectrum of a dense symmetric m from np.linalg.eigh, in eig_top's order."""
    vals, vecs = np.linalg.eigh(m)
    order = np.lexsort((-vals, -np.abs(vals)))
    return vals[order], vecs[:, order]


def assert_faithful(pairs: tuple[np.ndarray, np.ndarray], m: np.ndarray) -> None:
    """||M v - lambda v|| <= 1e-8 (||M||_F / sqrt(n) + |lambda|) for every pair."""
    vals, vecs = pairs
    res = np.linalg.norm(m @ vecs - vecs * vals, axis=0)
    tol = 1e-8 * (np.linalg.norm(m, "fro") / math.sqrt(m.shape[0]) + np.abs(vals))
    assert np.all(res <= tol)


class TestDecompositionInvariants:
    # k = n: eig_top decomposes op @ I, here of a sparse array
    def test_reconstruction_and_orthonormality(self):
        params = ModelParams(n=512, alpha=0.5, seed=7)
        P = expected_matrix(gen_fitness(params), params.epsilon_n).entries
        pairs = eig_top(scipy.sparse.csr_array(P), params.n)
        assert_faithful(pairs, P)
        _, v = pairs
        assert np.abs(v.T @ v - np.eye(params.n)).max() < 1e-8

    def test_adjacency_reconstruction(self):
        params = ModelParams(n=256, alpha=0.3, seed=9)
        A = sample_sparse_adjacency(KernelOperator(gen_fitness(params), params.epsilon_n), params.seed)
        assert_faithful(eig_top(A, params.n), A.toarray())


class TestOutliersAndRank:
    # the outliers are the eigenvalues strictly outside the bulk edge sqrt(n)/2
    def test_outlier_count_diag(self):
        # n = 4 so the edge sqrt(n)/2 is 1
        vals, _ = eig_top(scipy.sparse.diags_array([0.1, -4.0, 5.0, 0.5]), 4)
        assert np.count_nonzero(np.abs(vals) > math.sqrt(4) / 2) == 2
        assert np.count_nonzero(np.abs(vals) > 5.2) == 0

    def test_outlier_count_ci_sizes(self):
        # expected kernel keeps a handful of outliers above sqrt(n)/2
        for n in (1024, 2048):
            params = ModelParams(n=n, alpha=0.5, seed=3)
            vals, _ = dense_eigh(expected_matrix(gen_fitness(params), params.epsilon_n).entries)
            er = np.count_nonzero(np.abs(vals) > math.sqrt(n) / 2)
            assert er / math.log(n) == pytest.approx(0.55, abs=0.35)
            assert er == 4

    def test_outlier_count_band_adjacency(self):
        params = ModelParams(n=1024, alpha=0.5, seed=3)
        A = sample_sparse_adjacency(KernelOperator(gen_fitness(params), params.epsilon_n), params.seed).toarray()
        vals, _ = dense_eigh(A)
        cnt = np.count_nonzero(np.abs(vals) > math.sqrt(params.n) / 2)
        assert 0.2 <= cnt / math.log(params.n) <= 5.0

    @pytest.mark.slow
    def test_outlier_count_non_decreasing_to_paper_scale(self, det_instance_n1e4):
        ranks = []
        for n in (1000, 4000):
            params = ModelParams(n=n, alpha=0.5)
            vals, _ = eig_top(KernelOperator(gen_fitness(params), params.epsilon_n), 8)
            ranks.append(np.count_nonzero(np.abs(vals) > math.sqrt(n) / 2))
        vals, _ = eig_top(det_instance_n1e4[2], 8)
        ranks.append(np.count_nonzero(np.abs(vals) > math.sqrt(10**4) / 2))
        assert ranks[-1] == 5
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))

    @pytest.mark.slow
    def test_truncated_count_raises(self, det_instance_n1e4):
        # at n = 10^4 the rank is 5: the top four pairs all lie past the
        # edge, so their count cannot tell where the outliers end; eight
        # reach back into the bulk
        K = det_instance_n1e4[2]
        four, _ = eig_top(K, 4)
        assert not np.any(np.abs(four) <= math.sqrt(10**4) / 2)
        eight, _ = eig_top(K, 8)
        assert np.count_nonzero(np.abs(eight) > math.sqrt(10**4) / 2) == 5

    def test_truncated_count_of_a_block(self):
        # the top two of four pairs all lie past the edge 3; at 4.5 one does
        vals, vecs = eig_top(scipy.sparse.diags_array([0.1, -4.0, 5.0, 0.5]), 2)
        assert vecs.shape == (4, 2)
        assert not np.any(np.abs(vals) <= 3.0)
        assert np.count_nonzero(np.abs(vals) > 4.5) == 1

    @pytest.mark.slow
    def test_outlier_count_band_paper_scale(self, det_instance_n1e4):
        # the count on the sparse draw; the trace of A is checked densely at
        # n = 1024 by test_weyl_and_trace_invariants
        params, _, K = det_instance_n1e4
        vals, _ = eig_top(sample_sparse_adjacency(K, 1), 12)
        n = params.n
        cnt = np.count_nonzero(np.abs(vals) > math.sqrt(n) / 2)
        assert 0.2 <= cnt / math.log(n) <= 5.0


class TestEigTop:
    # k = n: the whole spectrum, eigh of op @ I
    def test_zero_matrix(self):
        vals, vecs = eig_top(scipy.sparse.csr_array((5, 5)), 5)
        assert np.array_equal(vals, np.zeros(5))
        assert vecs.shape == (5, 5)

    def test_complete_graph_constant_p(self):
        # p(J - I) has eigenvalues (n-1)p once and -p with multiplicity n-1
        n, p = 7, 0.3
        m = p * (np.ones((n, n)) - np.eye(n))
        vals, _ = eig_top(scipy.sparse.csr_array(m), n)
        assert abs(vals[0] - (n - 1) * p) < 1e-12
        assert np.max(np.abs(vals[1:] + p)) < 1e-12

    def test_descending_magnitude_with_signed_tiebreak(self):
        vals, _ = eig_top(scipy.sparse.diags_array([3.0, -3.0, -2.0, 2.0, 0.0]), 5)
        assert np.allclose(vals, [3.0, -3.0, 2.0, -2.0, 0.0], atol=1e-12)

    def test_eigenvectors_travel_with_eigenvalues(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((9, 9))
        m = m + m.T
        vals, vecs = eig_top(scipy.sparse.linalg.aslinearoperator(m), 9)
        r = m @ vecs - vecs * vals
        assert np.max(np.abs(r)) < 1e-12 * max(1.0, np.abs(vals[0]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=8))
    def test_ordering_property(self, seed, n):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n))
        m = m + m.T
        vals, _ = eig_top(scipy.sparse.csr_array(m), n)
        mags = np.abs(vals)
        assert np.all(mags[:-1] >= mags[1:] - 1e-15)

    # k < n - 1: Lanczos
    def test_matches_dense_eigenvalues(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((40, 40))
        m = m + m.T
        # eigenvalues -4 and 1 (four times): the top one is negative and
        # comes off the Lanczos path, past the k >= n - 1 shortcut
        hub = np.eye(5) - np.ones((5, 5))
        for matrix, k in ((m, 6), (hub, 1)):
            vals, vecs = eig_top(scipy.sparse.csr_array(matrix), k)
            assert vecs.shape == (matrix.shape[0], k)
            want = by_magnitude(np.linalg.eigvalsh(matrix))[:k]
            np.testing.assert_allclose(vals, want, rtol=1e-9)
            r = matrix @ vecs - vecs * vals
            assert np.max(np.abs(r)) <= 1e-9 * abs(vals[0])
        assert eig_top(scipy.sparse.linalg.aslinearoperator(hub), 1)[0][0] == pytest.approx(-4.0)

    def test_tiny_matrix_path(self):
        m = np.array([[0.0, -3.0], [-3.0, 0.0]])
        op = scipy.sparse.csr_array(m)
        assert eig_top(op, 1)[0] == pytest.approx([3.0])
        vals, vecs = eig_top(op, 2)
        assert vals == pytest.approx([3.0, -3.0])
        assert np.allclose(m @ vecs, vecs * vals)

    def test_sparse_and_operator_inputs(self):
        params = ModelParams(n=300, alpha=0.5, seed=2)
        fv = gen_fitness(params)
        K = KernelOperator(fv, params.epsilon_n)
        A = sample_sparse_adjacency(K, params.seed)
        for op, dense in ((K, expected_matrix(fv, params.epsilon_n).entries), (A, A.toarray())):
            want = by_magnitude(np.linalg.eigvalsh(dense))[:4]
            np.testing.assert_allclose(eig_top(op, 4)[0], want, rtol=1e-10)

    @pytest.mark.parametrize("mode", WEIGHT_MODES)
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_whole_spectrum_of_the_operator(self, alpha, mode):
        # k = n on a KernelOperator: eigh of op @ I, built column by column
        # through its matvec. Measured <= 6.3e-16 |lambda_1|.
        params = ModelParams(n=50, alpha=alpha, seed=1, weight_mode=mode)
        fv = gen_fitness(params)
        vals, vecs = eig_top(KernelOperator(fv, params.epsilon_n), params.n)
        want = by_magnitude(np.linalg.eigvalsh(expected_matrix(fv, params.epsilon_n).entries))
        assert vecs.shape == (params.n, params.n)
        assert np.max(np.abs(vals - want)) <= 1e-12 * abs(want[0])

    def test_zero_operator(self):
        vals, vecs = eig_top(scipy.sparse.csr_array((6, 6)), 2)
        assert np.array_equal(vals, np.zeros(2))
        assert vecs.shape == (6, 2)

    @pytest.mark.parametrize("k", [0, 5])
    def test_rejects_k_outside_1_to_n(self, k):
        with pytest.raises(ValueError):
            eig_top(scipy.sparse.eye_array(4), k)

    @pytest.mark.parametrize("mode", WEIGHT_MODES)
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_top8_of_P_on_the_operator(self, alpha, mode):
        # Lanczos on the kernel operator against eigvalsh of the same dense
        # P. Each of the top three vectors is checked by Davis-Kahan: its
        # residual over the distance from its value to the rest of the
        # spectrum bounds the sine of its angle to the true eigenvector.
        # Measured <= 1.2e-14 relative on the values and <= 6.1e-15 on the
        # ratio.
        params = ModelParams(n=4096, alpha=alpha, seed=1, weight_mode=mode)
        fv = gen_fitness(params)
        top_vals, top_vecs = eig_top(KernelOperator(fv, params.epsilon_n), 8)
        P = expected_matrix(fv, params.epsilon_n).entries
        vals = np.linalg.eigvalsh(P)
        want = by_magnitude(vals)[:8]
        assert np.max(np.abs(top_vals - want) / np.abs(want)) <= 1e-10
        for lam, v in zip(top_vals[:3], top_vecs[:, :3].T):
            residual = np.linalg.norm(P @ v - lam * v)
            gap = np.partition(np.abs(vals - lam), 1)[1]
            assert residual / gap <= 1e-10


def top_magnitude(H: np.ndarray) -> float:
    """||H|| of a dense symmetric H from np.linalg, the reference noise_norm meets."""
    return float(np.abs(np.linalg.eigvalsh(H)).max())


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
            want = top_magnitude(A.toarray() - P.entries)
            assert abs(noise_norm(A, K) - want) <= 1e-13 * want

    def test_tiny_and_vanishing_noise_are_exact(self):
        # n <= 2 is decomposed densely; a saturated kernel draws A = P
        for K, P in (constant_kernel(2, 0.3), constant_kernel(8, 1.0)):
            for seed in (0, 1):
                A = sample_sparse_adjacency(K, seed)
                assert noise_norm(A, K) == top_magnitude(A.toarray() - P.entries)

    @pytest.mark.parametrize("mode", WEIGHT_MODES)
    def test_difference_operator_is_a_minus_p_to_the_bit(self, mode):
        # scipy's A - P applies A v + (-1)(P v), which rounds as A v - P v
        params = ModelParams(n=300, alpha=0.5, seed=2, weight_mode=mode)
        K = KernelOperator(gen_fitness(params), params.epsilon_n)
        A = sample_sparse_adjacency(K, params.seed)
        H = scipy.sparse.linalg.aslinearoperator(A) - scipy.sparse.linalg.aslinearoperator(K)
        v = np.random.default_rng(3).standard_normal(params.n)
        assert np.array_equal(H.matvec(v), A @ v - K.matmat(v[:, None])[:, 0])

    def test_validation(self):
        A = sample_sparse_adjacency(constant_kernel(8, 0.2)[0], 0)
        with pytest.raises(ValueError):
            noise_norm(A, constant_kernel(9, 0.2)[0])


def adjacency(n: int, edges: list[tuple[int, int]]) -> scipy.sparse.csr_array:
    """The symmetric 0/1 CSR adjacency of an undirected edge list on n nodes."""
    i, j = np.array(edges, dtype=int).reshape(-1, 2).T
    return scipy.sparse.csr_array((np.ones(2 * i.size), (np.r_[i, j], np.r_[j, i])), shape=(n, n))


class TestQuotientSpectrum:
    @pytest.mark.parametrize("r", [1, 2, 7])
    def test_star(self, r):
        # K_1,r: the leaves are one twin class, so B is 2 x 2 and the
        # spectrum is +-sqrt(r) and r - 1 exact zeros
        vals = np.sort(numeric._quotient_spectrum(adjacency(r + 1, [(0, j) for j in range(1, r + 1)])))
        assert np.abs(vals[[0, -1]] - [-math.sqrt(r), math.sqrt(r)]).max() <= 1e-15 * math.sqrt(r)
        assert np.count_nonzero(vals == 0.0) == r - 1

    @pytest.mark.parametrize("a, b", [(1, 1), (2, 3), (5, 4)])
    def test_complete_bipartite(self, a, b):
        vals = np.sort(numeric._quotient_spectrum(adjacency(a + b, [(i, a + j) for i in range(a) for j in range(b)])))
        root = math.sqrt(a * b)
        assert np.abs(vals[[0, -1]] - [-root, root]).max() <= 1e-15 * root
        assert np.count_nonzero(vals == 0.0) == a + b - 2

    def test_empty_graph(self):
        vals = numeric._quotient_spectrum(adjacency(6, []))
        assert vals.shape == (6,) and not vals.any()

    def test_isolated_nodes(self):
        # a 4-cycle with a pendant on node 0, beside three isolated nodes:
        # nodes 1 and 2 share the neighbours {0, 3}, and the isolated
        # nodes share none, so m = 5 classes hold the 8 nodes
        A = adjacency(8, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4)])
        vals = np.sort(numeric._quotient_spectrum(A))
        want = np.linalg.eigvalsh(A.toarray())
        assert np.abs(vals - want).max() <= 1e-15 * np.abs(want).max()
        assert np.count_nonzero(vals == 0.0) >= 8 - 5

    def test_no_twins_is_eigvalsh_to_the_bit(self):
        A = adjacency(4, [(0, 1), (1, 2), (2, 3)])  # the path P4
        assert np.array_equal(numeric._quotient_spectrum(A), np.linalg.eigvalsh(A.toarray()))

    @pytest.mark.parametrize("mode", WEIGHT_MODES)
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("n", [1024, 2048])
    def test_sampled_draws_match_eigvalsh(self, n, alpha, mode):
        # within 1e-12 |lambda_1|, _LANCZOS_VALUE_TOL; m counts A's
        # distinct rows, and A is left as it was
        params = ModelParams(n=n, alpha=alpha, seed=4, weight_mode=mode)
        A = sample_sparse_adjacency(KernelOperator(gen_fitness(params), params.epsilon_n), params.seed)
        before = [a.copy() for a in (A.indptr, A.indices, A.data)]
        vals = np.sort(numeric._quotient_spectrum(A))
        for a, b in zip(before, (A.indptr, A.indices, A.data)):
            assert np.array_equal(a, b)
        dense = A.toarray()
        want = np.linalg.eigvalsh(dense)
        assert np.abs(vals - want).max() <= 1e-12 * np.abs(want).max()
        m = np.unique(dense, axis=0).shape[0]
        assert np.count_nonzero(vals == 0.0) >= n - m


def compare_traced(monkeypatch, params: ModelParams, k_max: int):
    """compare's report, the solver calls of P's and of A's spectrum, and each eigvalsh argument's shape.

    Spies record the calls; nothing is timed. Each matrix's solve opens
    with its eigvalsh, so the calls from one eigvalsh to the next belong to
    P: ["eigvalsh", "eig_top"] is the Lanczos path, and an "eigh" marks
    the dense one. noise_norm's eig_top runs before either and is dropped.
    """
    calls, shapes = [], []

    def spy(name, fn):
        def call(*args):
            calls.append(name)
            if name == "eigvalsh":
                shapes.append(args[0].shape)
            return fn(*args)

        return call

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigvalsh", spy("eigvalsh", np.linalg.eigvalsh))
        m.setattr(np.linalg, "eigh", spy("eigh", np.linalg.eigh))
        m.setattr(numeric, "eig_top", spy("eig_top", numeric.eig_top))
        report = compare(params, k_max)
    first, second = [i for i, c in enumerate(calls) if c == "eigvalsh"]
    return report, [calls[first:second], calls[second:]], shapes


def dense_oracle(params: ModelParams) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Dense P and A, each with one inline eigh in the documented magnitude order."""
    fv = gen_fitness(params)
    P = expected_matrix(fv, params.epsilon_n).entries
    A = sample_sparse_adjacency(KernelOperator(fv, params.epsilon_n), params.seed).toarray()
    solved = []
    for m in (P, A):
        vals, vecs = np.linalg.eigh(m)
        order = np.lexsort((-vals, -np.abs(vals)))
        solved.append((m, vals[order], vecs[:, order]))
    return solved


def veto_match(vals: np.ndarray, used: set, want: float | None) -> int:
    """The sign veto as a loop: the first unused rank of the wanted sign, else of any sign."""
    free = [i for i in range(vals.size) if i not in used]
    same = [i for i in free if want is None or math.copysign(1.0, vals[i]) == want]
    i = (same or free)[0]
    used.add(i)
    return i


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
        report = compare(params, k_max=2)
        fv = gen_fitness(params)
        A = sample_sparse_adjacency(KernelOperator(fv, params.epsilon_n), params.seed)
        want = top_magnitude(A.toarray() - expected_matrix(fv, params.epsilon_n).entries)
        assert abs(report.bulk_edge_measured - want) <= 1e-13 * want

    @pytest.mark.parametrize("mode", WEIGHT_MODES)
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_bulk_edge_is_the_sparse_draw_norm(self, alpha, mode):
        # compare takes ||H|| on the sparse draw itself, the same solve
        # edge_samples runs, so the two agree to the bit
        params = ModelParams(n=1024, alpha=alpha, seed=3, weight_mode=mode)
        K = KernelOperator(gen_fitness(params), params.epsilon_n)
        want = noise_norm(sample_sparse_adjacency(K, params.seed), K)
        assert compare(params, 8).bulk_edge_measured == want

    def test_bulk_edge_under_envelope(self, report_2048):
        n = report_2048.eigenvalues_P.size
        assert report_2048.bulk_edge_measured <= math.sqrt(n) / 2 + 0.25 * math.sqrt(math.log(n))
        assert report_2048.bulk_edge_measured > 0.25 * math.sqrt(n)

    def test_weyl_and_trace_invariants(self):
        params = ModelParams(n=1024, alpha=0.5, seed=3)
        fv = gen_fitness(params)
        P = expected_matrix(fv, params.epsilon_n)
        A = sample_sparse_adjacency(KernelOperator(fv, params.epsilon_n), params.seed)
        H = A.toarray() - P.entries
        vals_P = np.linalg.eigvalsh(P.entries)[::-1]
        vals_A = np.linalg.eigvalsh(A.toarray())[::-1]
        norm_H = np.max(np.abs(np.linalg.eigvalsh(H)))
        assert np.max(np.abs(vals_A - vals_P)) <= norm_H + 1e-8
        assert abs(vals_P.sum()) <= 1e-6 * params.n
        assert abs(vals_A.sum()) <= 1e-6 * params.n

    @pytest.mark.parametrize("mode", WEIGHT_MODES)
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_rows_match_dense_eigh_of_P_and_A(self, alpha, mode, monkeypatch):
        # every row and its vectors rebuilt from one inline eigh of P and
        # of A, in the documented order (|lambda| descending, ties by signed
        # value) with the sign veto. All six cases take the Lanczos path:
        # the values are eigvalsh's, of P to the bit and of A's twin
        # quotient within 1e-12 |lambda_1| of A's (measured <= 4.4e-15),
        # and the vectors eig_top's, which sat within 3.6e-15 |lambda_1| and
        # 1 - |cos| <= 2.0e-15 of eigh's. Deterministic weights at
        # alpha = 0.8 veto P's rank 29 into k = 7, so that Lanczos block
        # reaches past rank 29
        n, k_max = 1024, 8
        params = ModelParams(n=n, alpha=alpha, seed=3, weight_mode=mode)
        report, calls, shapes = compare_traced(monkeypatch, params, k_max)
        assert calls == [["eigvalsh", "eig_top"]] * 2
        solved = dense_oracle(params)
        # P's eigvalsh takes the n x n P, and A's the quotient over A's
        # twin classes, one per distinct row
        m = np.unique(solved[1][0], axis=0).shape[0]
        assert shapes == [(n, n), (m, m)]
        if alpha == 0.2:
            assert m < n / 2
        blocks = (report.vectors_P, report.vectors_A)
        spectra = (report.eigenvalues_P, report.eigenvalues_A)
        used, used_own = (set(), set()), (set(), set())

        truncated = False
        for row in report.rows:
            want = entries = None
            if not truncated:
                try:
                    rung = solve_omega_k(row.k, n, alpha)
                    want, entries = math.copysign(1.0, rung.lambda_k), eigenvector_entries(rung)
                except NoRootError:
                    truncated = True
            oracle = []
            for (_, vals, vecs), u, u_own, lam, block, got_vals in zip(
                solved, used, used_own, (row.lambda_P, row.lambda_A), blocks, spectra
            ):
                i = veto_match(vals, u, want)
                v = vecs[:, i]
                # the row's value is eigvalsh's at its own matched rank
                assert lam == got_vals[veto_match(got_vals, u_own, want)]
                assert abs(lam - vals[i]) <= 1e-12 * abs(vals[0])
                assert abs(block[row.k - 1] @ v) >= 1.0 - 1e-12
                oracle.append(v)
            v_p, v_a = oracle
            assert abs(row.cosine_sim_P_vs_A - abs(v_p @ v_a)) <= 1e-12
            if entries is None:
                assert len(report.vectors_pred) < row.k
                assert math.isnan(row.cosine_sim_pred_vs_P)
            else:
                assert np.array_equal(report.vectors_pred[row.k - 1], entries)
                cos = abs(entries @ v_p) / np.linalg.norm(entries)
                assert abs(row.cosine_sim_pred_vs_P - cos) <= 1e-12
        if (alpha, mode) == (0.8, "deterministic"):
            assert max(used[0]) >= k_max
        assert report.vectors_P.shape == report.vectors_A.shape == (k_max, n)
        (P, _, _), (A, _, _) = solved
        assert np.array_equal(report.eigenvalues_P, by_magnitude(np.linalg.eigvalsh(P)))
        want = np.sort(np.linalg.eigvalsh(A))
        assert np.abs(np.sort(report.eigenvalues_A) - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize(
        "n, alpha, mode, seed, k_max, want_dense",
        [
            # P's ranks 72 and 1115 at k = 9 and 11, past the depth cap
            (2048, 0.8, "deterministic", 0, 12, (True, False)),
            # every rank reaches n - 1; A's spectrum is -+0.618, -+1.618
            (4, 0.5, "deterministic", 2, 8, (True, True)),
        ],
        ids=["depth-cap", "n4-ties"],
    )
    def test_dense_path_is_eigh_to_the_bit(self, n, alpha, mode, seed, k_max, want_dense, monkeypatch):
        # where the values refuse Lanczos, eig_top never runs on that
        # matrix and eigh, matched on its own values, gives every row
        params = ModelParams(n=n, alpha=alpha, seed=seed, weight_mode=mode)
        report, calls, _ = compare_traced(monkeypatch, params, k_max)
        for c, is_dense in zip(calls, want_dense):
            assert c == (["eigvalsh", "eigh"] if is_dense else ["eigvalsh", "eig_top"])
        self.assert_dense_rows(report, params, want_dense)

    def test_no_clear_gap_takes_the_dense_path(self, monkeypatch):
        # ranks 4..100 form one cluster, |lambda| falling by 1e-5 a rank,
        # so no Lanczos block can end at or past the matched rank 4 on a
        # gap > 1e-3: eigh runs instead, matched on its own values
        n = 100
        lam = np.concatenate([[5.0, -4.0, 3.0], 2.0 * (1.0 - 1e-5 * np.arange(n - 3))])
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))
        m = (q * lam) @ q.T
        m = (m + m.T) / 2.0
        wants = [1.0, -1.0, 1.0, 1.0]
        calls = []
        monkeypatch.setattr(numeric, "eig_top", lambda op, k: calls.append(k))
        vals, matched, vecs = numeric._matched_pairs(np.linalg.eigvalsh(m), lambda: m, m, wants)
        assert calls == []
        want_vals, want_vecs = np.linalg.eigh(m)
        order = np.lexsort((-want_vals, -np.abs(want_vals)))
        assert np.array_equal(vals, want_vals[order])
        used = set()
        for i, want in enumerate(wants):
            j = veto_match(vals, used, want)
            assert matched[i] == vals[j]
            assert np.array_equal(vecs[i], want_vecs[:, order[j]])

    @pytest.mark.parametrize("failure", ["no-convergence", "values-off"])
    def test_failed_lanczos_takes_the_dense_path(self, failure, monkeypatch):
        # an ArpackNoConvergence from the matched-vector solve, or values
        # 1e-11 |lambda_1| off eigvalsh's, falls back to eigh; noise_norm's
        # k = 1 solve runs unchanged
        real = numeric.eig_top

        def eig_top(op, k):
            vals, vecs = real(op, k)
            if k == 1:
                return vals, vecs
            if failure == "no-convergence":
                raise scipy.sparse.linalg.ArpackNoConvergence("stubbed", [], [])
            off = vals.copy()
            off[-1] += 1e-11 * abs(off[0])
            return off, vecs

        monkeypatch.setattr(numeric, "eig_top", eig_top)
        params = ModelParams(n=1024, alpha=0.5, seed=3)
        report, calls, _ = compare_traced(monkeypatch, params, 8)
        assert calls == [["eigvalsh", "eig_top", "eigh"]] * 2
        self.assert_dense_rows(report, params, (True, True))

    @staticmethod
    def assert_dense_rows(report: ComparisonReport, params: ModelParams, dense) -> None:
        """The rows of each dense-path matrix are an inline eigh's, to the bit."""
        wants = [None if math.isnan(r.lambda_pred) else math.copysign(1.0, r.lambda_pred) for r in report.rows]
        spectra = (report.eigenvalues_P, report.eigenvalues_A)
        blocks = (report.vectors_P, report.vectors_A)
        for (_, vals, vecs), is_dense, got, block, name in zip(
            dense_oracle(params), dense, spectra, blocks, ("lambda_P", "lambda_A")
        ):
            if not is_dense:
                continue
            assert np.array_equal(got, vals)
            used = set()
            for row, want in zip(report.rows, wants):
                i = veto_match(vals, used, want)
                assert getattr(row, name) == vals[i]
                assert np.array_equal(block[row.k - 1], vecs[:, i])

    def test_peak_memory_is_one_n_by_n_array(self):
        # the dense matrix alone: eigvalsh's working copy is LAPACK's, and
        # Lanczos holds (n, k) blocks, so no n x n vector block is made
        n = 1024
        tracemalloc.start()
        try:
            compare(ModelParams(n=n, alpha=0.5, seed=3), k_max=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n * n

    def test_sign_veto_fallback_recorded(self):
        # at n = 32 the expected kernel runs out of positive eigenvalues
        # before k = 7, so the veto falls back to plain rank order there
        rep = compare(ModelParams(n=32, alpha=0.5, seed=2), k_max=8)
        assert rep.rows[6].sign_ok is False
        assert all(r.sign_ok is True for r in rep.rows[:6])

    def test_truncation_propagates(self, monkeypatch):
        real = spectrum.solve_omega_k

        def stub(k, n, alpha):
            if k >= 3:
                raise NoRootError("stubbed empty bracket")
            return real(k, n, alpha)

        monkeypatch.setattr(spectrum, "solve_omega_k", stub)
        rep = compare(ModelParams(n=64, alpha=0.5, seed=5), k_max=5)
        assert rep.pred_truncated_at == 3
        assert rep.vectors_pred.shape == (2, 64)
        assert rep.vectors_P.shape == rep.vectors_A.shape == (5, 64)
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

    def test_one_solve_per_rung(self, monkeypatch):
        # the closed-form vectors take ladder's solved rungs, so each root
        # of k = 1..8 is solved once; every msmlab namespace is counted
        real = spectrum.solve_omega_k
        calls = []

        def counted(k, n, alpha):
            calls.append(k)
            return real(k, n, alpha)

        for name, module in list(sys.modules.items()):
            if name.startswith("msmlab") and getattr(module, "solve_omega_k", None) is real:
                monkeypatch.setattr(module, "solve_omega_k", counted)
        rep = compare(ModelParams(n=64, alpha=0.5, seed=1), 8)
        assert rep.pred_truncated_at is None
        assert calls == list(range(1, 9))


class TestTopEigenvalueGap:
    def test_rank_one_gap_at_n4096(self):
        # |lambda_max(P) - lambda_k| / lambda_k at k = 1 measured at 14.0%: the
        # finite-size correction decays like a power of 1/ln n, so no n
        # reachable here gets close to a few percent
        params = ModelParams(n=4096, alpha=0.5)
        top = eig_top(KernelOperator(gen_fitness(params), params.epsilon_n), 1)[0][0]
        pred = solve_omega_k(1, params.n, params.alpha).lambda_k
        rel = abs(top - pred) / pred
        assert 0.13 <= rel <= 0.15
        assert not rel <= 0.05
