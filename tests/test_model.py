"""Model construction: weights, kernel, adjacency sampling, coarse-graining."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from msmlab.model import (
    STREAM_ADJACENCY,
    STREAM_FITNESS,
    STREAM_PARTITION,
    WEIGHT_MODES,
    FitnessVector,
    KernelOperator,
    ModelParams,
    SymmetricMatrix,
    coarse_grain,
    expected_matrix,
    gen_fitness,
    sample_sparse_adjacency,
    stream_rng,
)
from msmlab.numeric import eig_top


def det_fitness(n: int, alpha: float) -> FitnessVector:
    return gen_fitness(ModelParams(n=n, alpha=alpha))


class TestModelParams:
    def test_epsilon_default_is_scaling(self):
        p = ModelParams(n=1000, alpha=0.5)
        assert p.epsilon_n == 1000.0 ** (-2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(n=1, alpha=0.5)
        with pytest.raises(ValueError):
            ModelParams(n=10, alpha=0.0)
        with pytest.raises(ValueError):
            ModelParams(n=10, alpha=1.0)
        with pytest.raises(ValueError, match=r"n\^\(-1/alpha\) underflows to 0 for n=2048, alpha=0.01"):
            ModelParams(n=2048, alpha=0.01)  # n^(-1/alpha) = 2^-1100 underflows to 0
        with pytest.raises(ValueError):
            ModelParams(n=10, alpha=0.5, weight_mode="gaussian")

    @pytest.mark.parametrize(
        "n, alpha, eps",
        [(2048, 0.0105, "4.32e-316"), (4096, 1 / 85.13, "3.02e-308")],
        ids=["hub_weight_overflows", "hub_weight_finite"],
    )
    def test_scale_below_floor_refused(self, n, alpha, eps):
        # below 54 ln 2 / DBL_MAX an x_i x_j that overflows to inf stands
        # for an eps_n x_i x_j that may be small, so p = 1 would be wrong
        with pytest.raises(ValueError, match=rf"n\^\(-1/alpha\) = {eps} for n={n}, .* below 2.08e-307"):
            ModelParams(n=n, alpha=alpha)


class TestOverflowingProducts:
    """n = 64, alpha = 0.01: eps_n = 2^-600, just above the floor, and x_1 x_2 = 2^1100 overflows."""

    params = ModelParams(n=64, alpha=0.01)

    def test_builders_emit_no_warning(self):
        fv = gen_fitness(self.params)
        eps = self.params.epsilon_n
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected_matrix(fv, eps)
            K = KernelOperator(fv, eps)
            K.matmat(np.ones((64, 2)))
            sample_sparse_adjacency(K, seed=0)
            coarse_grain(fv, eps, 1)

    def test_saturated_entries_are_one_and_hub_row_exact(self):
        fv = gen_fitness(self.params)
        x, eps = fv.x, self.params.epsilon_n
        P = expected_matrix(fv, eps).entries
        with np.errstate(over="ignore"):
            assert np.isinf(x[0] * x[1])
        log_t = math.log(eps) + np.log(x)[:, None] + np.log(x)[None, :]
        saturated = log_t > math.log(54.0 * math.log(2.0))
        np.fill_diagonal(saturated, False)
        assert saturated[0, 1] and not saturated.all()
        assert np.all(P[saturated] == 1.0)
        want = -np.expm1(-np.exp(log_t[0, 1:]))
        assert np.all(np.abs(P[0, 1:] - want) <= 1e-14 * want)
        assert P[0, -1] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_iid_weight_overflow_refused(self):
        # u^(-100) overflows for the smallest uniforms of seed 65
        params = ModelParams(n=64, alpha=0.01, seed=65, weight_mode="iid_pareto")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="fitness weights must be finite, got inf"):
                gen_fitness(params)


def test_stream_purpose_numbers_are_fixed():
    # every seeded draw is keyed by its purpose's number, so renumbering moves them all
    assert (STREAM_FITNESS, STREAM_ADJACENCY, STREAM_PARTITION) == (0, 1, 2)


class TestGenFitness:
    def test_deterministic_endpoints(self):
        fv = det_fitness(100, 0.5)
        assert fv.x[0] == 10000.0  # (100/1)^2
        assert fv.x[99] == 1.0  # (100/100)^2

    def test_deterministic_formula(self):
        fv = det_fitness(64, 0.25)
        j = np.arange(1, 65, dtype=float)
        assert np.array_equal(fv.x, (64.0 / j) ** 4.0)

    @pytest.mark.parametrize("mode", ["deterministic", "iid_pareto"])
    def test_sorted_descending_and_support(self, mode):
        fv = gen_fitness(ModelParams(n=500, alpha=0.3, seed=7, weight_mode=mode))
        assert np.all(np.diff(fv.x) <= 0.0)
        assert np.all(fv.x >= 1.0)

    @pytest.mark.parametrize(
        "x, message",
        [([], "nonempty 1-d"), ([[2.0, 1.0]], "nonempty 1-d"), ([2.0, 0.5], ">= 1"), ([1.0, 2.0], "sorted descending")],
        ids=["empty", "two_d", "below_one", "ascending"],
    )
    def test_fitness_vector_refuses(self, x, message):
        with pytest.raises(ValueError, match=message):
            FitnessVector(np.array(x))

    def test_seed_reproducibility(self):
        p = ModelParams(n=200, alpha=0.5, seed=42, weight_mode="iid_pareto")
        assert np.array_equal(gen_fitness(p).x, gen_fitness(p).x)
        other = ModelParams(n=200, alpha=0.5, seed=43, weight_mode="iid_pareto")
        assert not np.array_equal(gen_fitness(p).x, gen_fitness(other).x)

    def test_iid_ccdf_matches_pareto(self):
        # P(x > t) = t^(-alpha); compare at t = 10 over 1e5 draws.
        alpha = 0.5
        fv = gen_fitness(ModelParams(n=10**5, alpha=alpha, seed=3, weight_mode="iid_pareto"))
        want = 10.0 ** (-alpha)
        got = float(np.mean(fv.x > 10.0))
        se = math.sqrt(want * (1 - want) / 10**5)
        assert abs(got - want) < 3 * se


class TestExpectedMatrix:
    def test_small_kernel_first_order(self):
        fv = FitnessVector(x=np.array([3.0, 2.0, 1.0]))
        eps = 1e-12
        P = expected_matrix(fv, eps)
        linear = eps * np.outer(fv.x, fv.x)
        np.fill_diagonal(linear, 0.0)
        off = ~np.eye(3, dtype=bool)
        assert np.allclose(P.entries[off], linear[off], rtol=1e-8)

    def test_saturation(self):
        P = expected_matrix(det_fitness(100, 0.5), 1e-4)
        # eps x_1 x_2 = 2500: saturated to 1 at double precision
        assert P.entries[0, 1] >= 1.0 - 1e-12
        assert P.entries[0, 1] <= 1.0

    def test_structure(self):
        P = expected_matrix(det_fitness(50, 0.4), ModelParams(n=50, alpha=0.4).epsilon_n)
        assert np.array_equal(P.entries, P.entries.T)
        assert np.all(np.diagonal(P.entries) == 0.0)
        assert P.entries.min() >= 0.0 and P.entries.max() <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_matrix(det_fitness(10, 0.5), 0.0)

    def test_peak_memory_is_the_result(self):
        # the kernel is evaluated in place in the product's array, so no
        # n x n temporary sits beside the result
        n = 1024
        fv = det_fitness(n, 0.5)
        eps = ModelParams(n=n, alpha=0.5).epsilon_n
        tracemalloc.start()
        try:
            expected_matrix(fv, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n * n


def constant_kernel(n: int, p: float) -> KernelOperator:
    """Equal weights, so every p_ij is p to rounding; p = 1 saturates (eps = 40)."""
    return KernelOperator(FitnessVector(np.ones(n)), -math.log1p(-p) if p < 1.0 else 40.0)


class TestKernelOperator:
    @pytest.mark.parametrize("mode", WEIGHT_MODES)
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("n", [257, 1000, 4096])
    def test_matches_dense_product(self, n, alpha, mode):
        params = ModelParams(n=n, alpha=alpha, seed=1, weight_mode=mode)
        fv = gen_fitness(params)
        P = expected_matrix(fv, params.epsilon_n).entries
        K = KernelOperator(fv, params.epsilon_n)
        v = np.random.default_rng(0).standard_normal((n, 30))
        for got, want in ((K.matmat(v[:, :1]), P @ v[:, :1]), (K.matmat(v), P @ v)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("alpha", [0.05, 0.95])
    def test_extreme_alpha_neither_overflows_nor_loses_accuracy(self, alpha):
        # at alpha = 0.05 the hub has y = sqrt(eps) x ~ 1e36, whose 14th power
        # overflows unless its row and column are evaluated exactly
        params = ModelParams(n=4096, alpha=alpha)
        fv = gen_fitness(params)
        v = np.random.default_rng(1).standard_normal((4096, 3))
        with np.errstate(over="raise", invalid="raise"):
            got = KernelOperator(fv, params.epsilon_n).matmat(v)
        want = expected_matrix(fv, params.epsilon_n).entries @ v
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_validation(self):
        fv = det_fitness(10, 0.5)
        with pytest.raises(ValueError):
            KernelOperator(fv, 0.0)
        with pytest.raises(ValueError):
            KernelOperator(fv, 1e-2).matmat(np.ones((9, 2)))

    @pytest.mark.parametrize("mode", WEIGHT_MODES)
    def test_is_a_scipy_operator_by_protocol(self, mode):
        # aslinearoperator reads shape, dtype and matvec, with no subclass;
        # its matvec is the one-column matmat to the bit
        params = ModelParams(n=300, alpha=0.5, seed=1, weight_mode=mode)
        K = KernelOperator(gen_fitness(params), params.epsilon_n)
        op = scipy.sparse.linalg.aslinearoperator(K)
        assert not isinstance(K, scipy.sparse.linalg.LinearOperator)
        assert op.shape == (300, 300) and op.dtype == np.float64
        v = np.random.default_rng(2).standard_normal(300)
        got = op.matvec(v)
        assert got.shape == (300,)
        assert np.array_equal(got, K.matmat(v[:, None])[:, 0])


class TestSampleAdjacency:
    def test_zero_kernel_gives_empty_graph(self):
        # p = 5e-324, the least there is, lies below every uniform but 0
        A = sample_sparse_adjacency(constant_kernel(12, math.ulp(0.0)), seed=0)
        assert not A.toarray().any()

    def test_saturated_kernel_gives_complete_graph(self):
        A = sample_sparse_adjacency(constant_kernel(12, 1.0), seed=0)
        want = np.ones((12, 12)) - np.eye(12)
        assert np.array_equal(A.toarray(), want)

    def test_structure_and_reproducibility(self):
        K = KernelOperator(det_fitness(40, 0.5), ModelParams(n=40, alpha=0.5).epsilon_n)
        A = sample_sparse_adjacency(K, seed=11).toarray()
        assert np.array_equal(A, A.T)
        assert np.all(np.diagonal(A) == 0.0)
        assert np.isin(A, (0.0, 1.0)).all()
        assert np.array_equal(A, sample_sparse_adjacency(K, seed=11).toarray())
        assert not np.array_equal(A, sample_sparse_adjacency(K, seed=12).toarray())

    @pytest.mark.parametrize("mode", WEIGHT_MODES)
    @pytest.mark.parametrize("alpha", [0.2, 0.8])
    @pytest.mark.parametrize("n", [257, 1000])
    def test_near_pairs_take_the_realization_uniforms_in_order(self, n, alpha, mode):
        # the near pairs i < j, y_i y_j >= 0.1 by the operator's rule
        # y_j >= 0.1 / y_i, in row-major order, take the stream's first
        # uniforms one each and are hits where u < p_ij
        params = ModelParams(n=n, alpha=alpha, seed=2, weight_mode=mode)
        fv = gen_fitness(params)
        P = expected_matrix(fv, params.epsilon_n).entries
        K = KernelOperator(fv, params.epsilon_n)
        y = math.sqrt(params.epsilon_n) * fv.x
        near = np.triu(y[None, :] >= 0.1 / y[:, None], 1)
        rows, cols = np.nonzero(near)
        assert 0 < rows.size < n * (n - 1) // 2  # near and far pairs both occur
        for seed, realization in ((0, 0), (7, 3)):
            u = stream_rng(seed, STREAM_ADJACENCY, realization).random(rows.size)
            A = sample_sparse_adjacency(K, seed, realization).toarray()
            assert np.array_equal(A[rows, cols], (u < P[rows, cols]).astype(float))

    @pytest.mark.parametrize("mode", WEIGHT_MODES)
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_matches_the_two_direction_build_to_the_byte(self, alpha, mode, monkeypatch):
        # reference: the (i, j) pairs the sampler draws, duplicates and
        # all, entered in both directions into one constructor that sums
        # the duplicates, then set to 1
        params = ModelParams(n=4096, alpha=alpha, seed=4, weight_mode=mode)
        K = KernelOperator(gen_fitness(params), params.epsilon_n)
        built = []
        csr_array = scipy.sparse.csr_array

        def record(arg, **kwargs):
            if not built:
                built.append(arg[1])
            return csr_array(arg, **kwargs)

        monkeypatch.setattr(scipy.sparse, "csr_array", record)
        repeats = 0
        for seed, realization in ((1, 0), (1, 3), (8, 0)):
            built.clear()
            A = sample_sparse_adjacency(K, seed, realization)
            i, j = built[0]
            repeats += i.size - np.unique(i * params.n + j).size
            both = (np.concatenate([i, j]), np.concatenate([j, i]))
            want = csr_array((np.ones(2 * i.size), both), shape=A.shape)
            want.data[:] = 1.0
            for got, ref in ((A.indptr, want.indptr), (A.indices, want.indices), (A.data, want.data)):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
            assert A.format == "csr" and A.has_canonical_format and want.has_canonical_format
        # far pairs hit by several points occur, so the duplicate sums are tested
        assert repeats > 0

    def test_pair_frequencies_match_P_over_far_pairs(self):
        # n = 60, alpha = 0.5: 1431 of the 1770 pairs, in 56 rows, are far.
        # Each pair's hit count over R realizations lies within 5 sigma of
        # R p. The chi-square over the pairs expecting at least 5 hits and
        # 5 misses lies within 5 of its standard deviations of its dof,
        # with var(z^2) = 2 + (1 - 6 p q) / (R p q) per pair
        n, R = 60, 20_000
        params = ModelParams(n=n, alpha=0.5)
        fv = gen_fitness(params)
        K = KernelOperator(fv, params.epsilon_n)
        y = math.sqrt(params.epsilon_n) * fv.x
        iu = np.triu_indices(n, 1)
        far = (y[:, None] * y[None, :] < 0.1)[iu]
        assert far.sum() > 1000
        counts = np.zeros((n, n))
        for r in range(R):
            counts += sample_sparse_adjacency(K, 3, r).toarray()
        assert np.array_equal(counts, counts.T) and not np.diagonal(counts).any()
        p = expected_matrix(fv, params.epsilon_n).entries[iu]
        hits = counts[iu]
        sure = p == 1.0  # hub pairs where p rounds to 1 are hit in every draw
        assert np.all(hits[sure] == R)
        p, hits = p[~sure], hits[~sure]
        pq = p * (1.0 - p)
        z = (hits - R * p) / np.sqrt(R * pq)
        assert np.abs(z).max() < 5.0
        chi = R * np.minimum(p, 1.0 - p) >= 5.0
        dof = np.count_nonzero(chi)
        sd = math.sqrt(np.sum(2.0 + (1.0 - 6.0 * pq[chi]) / (R * pq[chi]))) / dof
        assert abs(np.sum(z[chi] ** 2) / dof - 1.0) < 5.0 * sd

    def test_entry_means_match_P(self):
        # spread weights give pair probabilities from 0.18 to 0.96
        fv = FitnessVector(np.sort(np.random.default_rng(0).uniform(1.0, 4.0, 10))[::-1])
        K = KernelOperator(fv, 0.2)
        m = expected_matrix(fv, 0.2).entries
        R = 3000
        acc = np.zeros((10, 10))
        for s in range(R):
            acc += sample_sparse_adjacency(K, seed=s).toarray()
        mean = acc / R
        iu = np.triu_indices(10, 1)
        sigma = np.sqrt(m[iu] * (1 - m[iu]) / R)
        assert np.all(np.abs(mean[iu] - m[iu]) < 5 * sigma)

    @pytest.mark.parametrize("mode", WEIGHT_MODES)
    @pytest.mark.parametrize("alpha", [0.2, 0.8])
    def test_peak_memory_is_the_mirror(self, alpha, mode):
        # the stages' arrays are freed before U's build and (i, j) after
        # it, so the mirror's U, the CSR copy of U^T and A, 2 A's bytes in
        # all, set the peak; 0.5 A's bytes of slack cover the rest
        params = ModelParams(n=20_000, alpha=alpha, seed=1, weight_mode=mode)
        K = KernelOperator(gen_fitness(params), params.epsilon_n)
        sample_sparse_adjacency(constant_kernel(10, 0.5), 0)  # scipy's first-use allocations
        tracemalloc.start()
        try:
            A = sample_sparse_adjacency(K, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)

    @pytest.mark.slow
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_edge_count_at_paper_scale(self, alpha):
        # n = 10^5: the count of m edges lies within 5 sigma of
        # E m = 1'P1 / 2, where var m = sum_{i<j} p (1 - p) = 1'(P_2eps - P_eps)1 / 2
        # since p (1 - p) = e^-t - e^-2t
        params = ModelParams(n=10**5, alpha=alpha)
        fv = gen_fitness(params)
        K = KernelOperator(fv, params.epsilon_n)
        ones = np.ones((params.n, 1))
        mean = K.matmat(ones).sum() / 2
        var = KernelOperator(fv, 2 * params.epsilon_n).matmat(ones).sum() / 2 - mean
        edges = sample_sparse_adjacency(K, 1).nnz / 2
        assert abs(edges - mean) < 5 * math.sqrt(var)


class TestNoiseMatrix:
    """The noise A - P of the sampler's draws."""

    def test_saturated_kernel_gives_zero_noise(self):
        # every p rounds to 1, so every pair is drawn and A = P to the bit
        A = sample_sparse_adjacency(constant_kernel(8, 1.0), seed=1)
        assert not (A.toarray() - expected_matrix(FitnessVector(np.ones(8)), 40.0).entries).any()

    def test_mean_zero_and_variance(self):
        p = 0.3
        K = constant_kernel(6, p)
        R = 3000
        samples = np.array([sample_sparse_adjacency(K, seed=s)[0, 1] for s in range(R)]) - p
        se_mean = math.sqrt(p * (1 - p) / R)
        assert abs(samples.mean()) < 5 * se_mean
        var = samples.var()
        se_var = np.std(samples**2) / math.sqrt(R)
        assert abs(var - p * (1 - p)) < 5 * se_var


class TestCoarseGrain:
    def test_block_one_is_identity(self):
        fv = det_fitness(30, 0.5)
        eps = ModelParams(n=30, alpha=0.5).epsilon_n
        P = expected_matrix(fv, eps)
        big, coarse = coarse_grain(fv, eps, 1)
        assert np.array_equal(big.x, fv.x)
        assert np.allclose(coarse.entries, P.entries, rtol=1e-14, atol=1e-300)

    def test_block_n_is_single_supernode(self):
        fv = det_fitness(12, 0.5)
        big, coarse = coarse_grain(fv, 1e-3, 12)
        assert big.x.shape == (1,)
        assert big.x[0] == fv.x.sum()
        assert coarse.entries.shape == (1, 1) and coarse.entries[0, 0] == 0.0

    def test_invariance_identity_n100_b10(self):
        alpha = 0.5
        fv = det_fitness(100, alpha)
        eps = ModelParams(n=100, alpha=alpha).epsilon_n
        big, coarse = coarse_grain(fv, eps, 10)
        closed = -np.expm1(-eps * np.outer(big.x, big.x))
        off = ~np.eye(10, dtype=bool)
        assert np.max(np.abs(coarse.entries[off] - closed[off])) < 1e-12

    def test_brute_force_product_oracle(self):
        # Independent route: literal product over all cross pairs.
        fv = det_fitness(24, 0.4)
        eps = 2e-3
        p = expected_matrix(fv, eps).entries
        big, coarse = coarse_grain(fv, eps, 6)
        for bi in range(4):
            for bj in range(4):
                if bi == bj:
                    continue
                rows = slice(6 * bi, 6 * bi + 6)
                cols = slice(6 * bj, 6 * bj + 6)
                want = 1.0 - np.prod(1.0 - p[rows, cols])
                assert abs(coarse.entries[bi, bj] - want) < 1e-12

    @given(
        st.sampled_from([1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]),
        st.floats(min_value=0.15, max_value=0.85),
        st.sampled_from(["contiguous", "random"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_invariance_property(self, b, alpha, partition):
        n = 60
        fv = det_fitness(n, alpha)
        eps = float(n) ** (-1.0 / alpha)
        big, coarse = coarse_grain(fv, eps, b, partition=partition, seed=9)
        assert np.all(np.diff(big.x) <= 0.0)
        closed = -np.expm1(-eps * np.outer(big.x, big.x))
        off = ~np.eye(n // b, dtype=bool)
        if off.any():
            assert np.max(np.abs(coarse.entries[off] - closed[off])) < 1e-12

    @pytest.mark.parametrize("mode", WEIGHT_MODES)
    @pytest.mark.parametrize("alpha", [0.2, 0.8])
    @pytest.mark.parametrize("partition", ["contiguous", "random"])
    @pytest.mark.parametrize("b", [1, 2, 3, 10, 120])
    @pytest.mark.parametrize("n", [120, 1200])
    def test_matches_the_dense_P_route_to_the_bit(self, n, b, partition, alpha, mode):
        # reference: log1p(-P) of the whole dense P, then both axes
        # permuted; coarse_grain takes the logs of its supernodes' row blocks
        params = ModelParams(n=n, alpha=alpha, seed=5, weight_mode=mode)
        fv = gen_fitness(params)
        eps = params.epsilon_n
        n, nb = fv.n, fv.n // b
        order = np.arange(n) if partition == "contiguous" else stream_rng(7, STREAM_PARTITION).permutation(n)
        with np.errstate(divide="ignore"):
            lp = np.log1p(-expected_matrix(fv, eps).entries)[order][:, order]
        want = -np.expm1(lp.reshape(nb, b, nb, b).sum(axis=(1, 3)))
        np.fill_diagonal(want, 0.0)
        want_x = fv.x[order].reshape(nb, b).sum(axis=1)
        rank = np.argsort(-want_x, kind="stable")
        want = want[rank][:, rank]
        want = np.tril(want) + np.tril(want, -1).T
        big, coarse = coarse_grain(fv, eps, b, partition, seed=7)
        assert big.x.tobytes() == want_x[rank].tobytes()
        assert coarse.entries.tobytes() == want.tobytes()

    @pytest.mark.parametrize("partition", ["contiguous", "random"])
    @pytest.mark.parametrize("n,b", [(1000, 10), (1000, 2), (1000, 1), (10**4, 10)])
    def test_peak_memory_is_the_block_sums_and_one_row_block(self, n, b, partition):
        # live at once: the (n/b)^2 block sums, beside one row block of at
        # most b x n entries of log(1 - p) and the order and weight vectors
        # of n entries each, 4 b n floats in all; at b = 1 the sums are
        # n x n, and 0.1 (n/b)^2 floats of slack cover the rest
        fv = det_fitness(n, 0.5)
        eps = ModelParams(n=n, alpha=0.5).epsilon_n
        coarse_grain(det_fitness(10, 0.5), eps, 1, partition)  # the generator imports on first use
        tracemalloc.start()
        try:
            coarse_grain(fv, eps, b, partition, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * max(1.1 * (n // b) ** 2, (n // b) ** 2 + 4 * b * n)

    @pytest.mark.parametrize("b", [1, 3, 10])
    def test_each_supernode_pair_is_summed_once(self, b, monkeypatch):
        # row block I meets only the supernodes J >= I, so the kernel sees
        # b (n - I b) entries for it, n (n + b) / 2 in all, not n^2
        import msmlab.model

        n, seen = 120, []
        kernel = msmlab.model._kernel

        def counted(epsilon_n, xi, xj):
            p = kernel(epsilon_n, xi, xj)
            seen.append(p.size)
            return p

        monkeypatch.setattr(msmlab.model, "_kernel", counted)
        coarse_grain(det_fitness(n, 0.5), 1e-3, b, "random", seed=2)
        assert 0 < sum(seen) <= n * (n + b) // 2

    def test_random_partition_reproducible(self):
        fv = det_fitness(40, 0.5)
        a = coarse_grain(fv, 1e-3, 8, partition="random", seed=4)
        b = coarse_grain(fv, 1e-3, 8, partition="random", seed=4)
        assert np.array_equal(a[0].x, b[0].x)
        assert np.array_equal(a[1].entries, b[1].entries)

    def test_validation(self):
        fv = det_fitness(10, 0.5)
        with pytest.raises(ValueError):
            coarse_grain(fv, 1e-3, 3)
        with pytest.raises(ValueError):
            coarse_grain(fv, 1e-3, 2, partition="striped")


def supernode_labels(n: int, b: int, partition: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """coarse_grain's node order, members of a supernode side by side, and each node's supernode."""
    order = np.arange(n) if partition == "contiguous" else stream_rng(seed, STREAM_PARTITION).permutation(n)
    label = np.empty(n, dtype=np.intp)
    label[order] = np.arange(n) // b
    return order, label


def aggregate(A: scipy.sparse.csr_array, label: np.ndarray) -> scipy.sparse.coo_array:
    """A' = [E'AE > 0] off the diagonal, E the n x (n/b) indicator of the labels."""
    n, nb = label.size, label.max() + 1
    E = scipy.sparse.csr_array((np.ones(n), (np.arange(n), label)), shape=(n, nb))
    C = (E.T @ A @ E).tocoo()
    off = C.row != C.col
    return scipy.sparse.coo_array((np.ones(off.sum()), (C.row[off], C.col[off])), shape=(nb, nb))


class TestAggregatedAdjacency:
    """Merging supernodes of a draw of A gives a draw from the coarse kernel P'."""

    @pytest.mark.parametrize("partition", ["contiguous", "random"])
    def test_pair_frequencies_match_coarse_P(self, partition):
        # n = 60, b = 3, alpha = 0.5: each of the 190 supernode pairs is
        # hit in A' as often as coarse_grain's P' says, by the z and
        # chi-square bounds of test_pair_frequencies_match_P_over_far_pairs
        n, b, R = 60, 3, 2000
        params = ModelParams(n=n, alpha=0.5)
        fv = gen_fitness(params)
        big, coarse = coarse_grain(fv, params.epsilon_n, b, partition, seed=6)
        order, label = supernode_labels(n, b, partition, 6)
        # coarse_grain numbers the supernodes by descending X_I, ties in order
        big_x = fv.x[order].reshape(-1, b).sum(axis=1)
        rank = np.argsort(-big_x, kind="stable")
        assert big.x.tobytes() == big_x[rank].tobytes()
        ranked = np.empty_like(rank)
        ranked[rank] = np.arange(rank.size)
        K = KernelOperator(fv, params.epsilon_n)
        counts = np.zeros(coarse.entries.shape)
        for r in range(R):
            counts += aggregate(sample_sparse_adjacency(K, 5, r), ranked[label]).toarray()
        iu = np.triu_indices(n // b, 1)
        p, hits = coarse.entries[iu], counts[iu]
        sure = p == 1.0
        assert np.all(hits[sure] == R)
        p, hits = p[~sure], hits[~sure]
        pq = p * (1.0 - p)
        z = (hits - R * p) / np.sqrt(R * pq)
        assert np.abs(z).max() < 5.0
        chi = R * np.minimum(p, 1.0 - p) >= 5.0
        dof = np.count_nonzero(chi)
        assert dof > 150
        sd = math.sqrt(np.sum(2.0 + (1.0 - 6.0 * pq[chi]) / (R * pq[chi]))) / dof
        assert abs(np.sum(z[chi] ** 2) / dof - 1.0) < 5.0 * sd

    @pytest.mark.slow
    @pytest.mark.parametrize("partition", ["contiguous", "random"])
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_edge_count_at_paper_scale(self, alpha, partition):
        # n = 10^5, b = 10: A' has m' edges within 5 sigma of 1'P'1 / 2,
        # var m' = 1'(P'_2eps - P'_eps)1 / 2, with P' the kernel of the
        # supernode weights X_I, summed here from the partition: the
        # (n/b)^2 matrix of coarse_grain would take 0.8 GB. The top six
        # eigenvalues of A' and of P' are printed beside each other, with
        # no tolerance until there is a prediction for their gap
        params = ModelParams(n=10**5, alpha=alpha)
        fv = gen_fitness(params)
        label = supernode_labels(params.n, 10, partition, 3)[1]
        big = FitnessVector(np.sort(np.bincount(label, weights=fv.x))[::-1])
        ones = np.ones((big.n, 1))
        coarse_op = KernelOperator(big, params.epsilon_n)
        mean = coarse_op.matmat(ones).sum() / 2
        var = KernelOperator(big, 2 * params.epsilon_n).matmat(ones).sum() / 2 - mean
        A = sample_sparse_adjacency(KernelOperator(fv, params.epsilon_n), 1)
        coarse_A = aggregate(A, label).tocsr()
        edges = coarse_A.nnz / 2
        assert abs(edges - mean) < 5 * math.sqrt(var)
        top = [np.round(eig_top(op, 6)[0], 2).tolist() for op in (coarse_A, coarse_op)]
        print(f"alpha={alpha} {partition}: top six of A' {top[0]}, of P' {top[1]}")


class TestExpectedDegrees:
    def test_saturated_kernel(self):
        d = constant_kernel(9, 1.0).matmat(np.ones((9, 1)))
        assert np.array_equal(d, np.full((9, 1), 8.0))

    def test_constant_kernel(self):
        d = constant_kernel(9, 0.25).matmat(np.ones((9, 1)))
        assert np.allclose(d, 8 * 0.25, rtol=1e-15)

    def test_degree_ccdf_tail_slope(self, det_instance_n1e4):
        # CCDF of expected degrees on log-log axes: slope -1 over the
        # middle two decades (degree density tail exponent 2).
        _, fv, K = det_instance_n1e4
        n = fv.n
        d = K.matmat(np.ones((n, 1)))[:, 0]
        j = np.arange(1, n + 1)
        logd = np.log10(d)
        mid = logd.min() + (logd.max() - logd.min()) / 2
        mask = (logd >= mid - 1) & (logd <= mid + 1)
        slope = np.polyfit(np.log10(d[mask]), np.log10(j[mask] / n), 1)[0]
        assert abs(slope - (-1.0)) < 0.2


class TestSparsityScale:
    @pytest.mark.parametrize("n", [1000, 10000])
    def test_density_order_log_n_over_n(self, n, det_instance_n1e4):
        if n == 10000:
            K = det_instance_n1e4[2]
        else:
            params = ModelParams(n=n, alpha=0.5)
            K = KernelOperator(gen_fitness(params), params.epsilon_n)
        density = K.matmat(np.ones((n, 1))).sum() / (n * (n - 1))
        assert 0.1 <= density * n / math.log(n) <= 10.0


class TestSymmetricMatrix:
    def test_entries_read_only(self):
        m = np.full((5, 5), 0.3)
        np.fill_diagonal(m, 0.0)
        P = SymmetricMatrix(entries=m)
        with pytest.raises(ValueError):
            P.entries[0, 1] = 0.9


class TestBuildersValidByConstruction:
    @pytest.mark.parametrize("n", [257, 1000])  # odd n leaves a tail after the vector loop of expm1
    @pytest.mark.parametrize("mode", WEIGHT_MODES)
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_outputs_hold_the_invariants(self, alpha, mode, n):
        params = ModelParams(n=n, alpha=alpha, seed=3, weight_mode=mode)
        fv = gen_fitness(params)
        built = [expected_matrix(fv, params.epsilon_n)]
        if n == 1000:
            for partition in ("contiguous", "random"):
                built.append(coarse_grain(fv, params.epsilon_n, 10, partition, seed=3)[1])
        for M in built:
            m = M.entries
            assert not m.flags.writeable
            assert np.array_equal(m, m.T)
            assert np.all(np.diagonal(m) == 0.0)
            assert m.min() >= 0.0 and m.max() <= 1.0
