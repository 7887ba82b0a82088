"""Noise-variance facts on a dense reference, measured edges and the cavity solver."""
import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.integrate import trapezoid

from msmlab import bulk
from msmlab.bulk import (
    cavity_solve,
    edge_samples,
    measure_bulk_edge,
)
from msmlab.model import (
    FitnessVector,
    KernelOperator,
    ModelParams,
    SymmetricMatrix,
    expected_matrix,
    gen_fitness,
    sample_sparse_adjacency,
)
from msmlab.numeric import noise_norm
from msmlab.special import pareto_laplace


def crude_bound(n: int) -> float:
    """sqrt(n)/2 + sqrt(ln n)/4, the crude_bound column of bulk's edge sweep."""
    return math.sqrt(n) / 2 + math.sqrt(math.log(n)) / 4


def dense_norm(H: np.ndarray) -> float:
    """||H|| of a dense symmetric H from np.linalg."""
    return float(np.abs(np.linalg.eigvalsh(H)).max())


def model_P(params: ModelParams) -> SymmetricMatrix:
    return expected_matrix(gen_fitness(params), params.epsilon_n)


def dense_variance(params: ModelParams) -> np.ndarray:
    """v = p (1 - p), the entry variances of H = A - P, on the dense P.

    P's diagonal is 0, so v's is too. Meant for n <= 1024, where P is at
    most 8 MB.
    """
    p = model_P(params).entries
    return p * (1.0 - p)


def dense_profile(params: ModelParams) -> tuple[float, float, int]:
    """sigma, sigma_star and sigma's row of H = A - P, from dense_variance's v.

    sigma is the largest row deviation sqrt(sum_j v_ij), sigma_star the
    largest entry deviation sqrt(v_ij).
    """
    v = dense_variance(params)
    rows = v.sum(axis=1)
    row = int(rows.argmax())
    return math.sqrt(rows[row]), math.sqrt(v.max()), row


def sigma_inf(alpha: float, rows: int) -> tuple[float, int]:
    """sigma_inf(alpha) = max_i sqrt(L(s_i) - L(2 s_i)) over i <= rows, and its i.

    s_i = i^(-1/alpha) and L is special.pareto_laplace. With deterministic
    weights eps_n x_i x_j = s_i (j/n)^(-1/alpha), so row i's variance
    sum_j p_ij (1 - p_ij) tends to n (L(s_i) - L(2 s_i)), since
    p (1 - p) = e^(-t) - e^(-2t) at p = 1 - e^(-t). i counts from 1.
    """
    gaps = [pareto_laplace(alpha, s) - pareto_laplace(alpha, 2.0 * s) for s in np.arange(1, rows + 1) ** (-1.0 / alpha)]
    i = int(np.argmax(gaps))
    return math.sqrt(gaps[i]), i + 1


def operator_row_variances(params: ModelParams) -> np.ndarray:
    """d = K_{2 eps} 1 - K_eps 1, the row sums of p (1 - p), from two operator products."""
    fv = gen_fitness(params)
    ones = np.ones((params.n, 1))
    return (KernelOperator(fv, 2.0 * params.epsilon_n).matmat(ones) - KernelOperator(fv, params.epsilon_n).matmat(ones))[:, 0]


def damped_map(kernel, lam: np.ndarray, eta: float, damping: float = 0.5, tol: float = 1e-9):
    """The plain damped map g <- g + damping (F(g) - g) per grid point, and its sweeps."""
    n, z = kernel.shape[0], lam + 1j * eta
    g = np.full((n, z.size), 0j) - 1.0 / z
    running, iterations = np.ones(z.size, dtype=bool), np.zeros(z.size, dtype=int)
    for it in range(1, bulk._MAX_SWEEPS + 1):
        r = -1.0 / (z + (kernel.matmat(g.view(float)) * (1.0 / n)).view(complex)) - g
        g[:, running] += damping * r[:, running]
        iterations[running] = it
        running &= damping * np.abs(r).max(axis=0) >= tol
        if not running.any():
            break
    return g, iterations


def anderson_reference(kernel, lam: np.ndarray, eta: float, damping: float = 0.5, tol: float = 1e-9):
    """cavity_solve's Anderson mixing one grid point at a time, the history rebuilt newest first."""
    n = kernel.shape[0]
    g_out, iterations = np.empty((n, lam.size), dtype=complex), np.zeros(lam.size, dtype=int)
    for p, z in enumerate(lam + 1j * eta):
        g, dgs, drs, last, last_size = np.full(n, 0j) - 1.0 / z, [], [], None, -np.inf
        for it in range(1, bulk._MAX_SWEEPS + 1):
            r = -1.0 / (z + (kernel.matmat(g.reshape(n, 1).view(float)) * (1.0 / n)).view(complex)[:, 0]) - g
            size = np.abs(r).max()
            if last is not None:
                dgs, drs = [g - last[0]] + dgs[: bulk._ANDERSON_DEPTH - 1], [r - last[1]] + drs[: bulk._ANDERSON_DEPTH - 1]
            if size > last_size:
                dgs, drs = [], []
            last, last_size, step = (g, r), size, damping * r
            if drs:
                dR, dG = np.array(drs), np.array(dgs)
                step -= np.linalg.pinv(dR.conj() @ dR.T, hermitian=True) @ (dR.conj() @ r) @ (dG + damping * dR)
            g = g + step
            iterations[p] = it
            if damping * size < tol:
                break
        g_out[:, p] = g
    return g_out, iterations


def constant_kernel(n: int, p: float) -> KernelOperator:
    """Equal weights, so every p_ij is p to rounding; p = 1 saturates (eps = 40)."""
    return KernelOperator(FitnessVector(np.ones(n)), -math.log1p(-p) if p < 1.0 else 40.0)


def model_kernel(params: ModelParams) -> KernelOperator:
    return KernelOperator(gen_fitness(params), params.epsilon_n)


def smoothed_density(spectrum: np.ndarray, grid: np.ndarray, eta: float) -> np.ndarray:
    """(1/pi) Im S(lambda + i eta) of the spectrum's empirical measure, on the grid.

    A single atom at 0 gives the free Lorentzian (eta/pi)/(lambda^2 + eta^2).
    """
    d = grid[:, None] - spectrum[None, :]
    return (eta / math.pi / (d * d + eta * eta)).mean(axis=1)


class TestNormUpperBound:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("n", [256, 1024])
    def test_expectation_under_crude_for_generated_profiles(self, alpha, n):
        # sigma + sigma_star sqrt(ln n), the expectation bound with its
        # absolute constant set to 1, sits under the crude bound since
        # sigma <= sqrt(n)/2 and sigma_star <= 1/2
        sigma, sigma_star, _ = dense_profile(ModelParams(n=n, alpha=alpha))
        assert sigma + sigma_star * math.sqrt(math.log(n)) <= crude_bound(n)


class TestBulkEdge:
    def test_saturated_kernel_gives_zero_edge(self):
        # every p rounds to 1, so every pair is drawn and A - P is exactly 0
        assert np.array_equal(edge_samples(constant_kernel(8, 1.0), 3, 0), np.zeros(3))

    def test_mean_under_crude_bound(self):
        params = ModelParams(n=512, alpha=0.5, seed=0)
        mean, stderr = measure_bulk_edge(model_kernel(params), 6, params.seed)
        assert 0.0 < mean <= crude_bound(512)
        assert stderr > 0.0

    def test_single_realization_has_zero_stderr(self):
        params = ModelParams(n=128, alpha=0.5, seed=0)
        mean, stderr = measure_bulk_edge(model_kernel(params), 1, params.seed)
        assert mean > 0.0
        assert stderr == 0.0

    def test_reproducible(self):
        params = ModelParams(n=128, alpha=0.3, seed=5)
        K = model_kernel(params)
        assert measure_bulk_edge(K, 3, params.seed) == measure_bulk_edge(K, 3, params.seed)

    def test_rejects_no_realizations(self):
        with pytest.raises(ValueError):
            edge_samples(constant_kernel(4, 0.2), 0, 0)

    def test_operator_path_holds_no_dense_array(self):
        # each A is sparse and H is never stored, so the peak stays far
        # below one n x n array
        n = 2048
        params = ModelParams(n=n, alpha=0.5)
        fv = gen_fitness(params)
        tracemalloc.start()
        try:
            edge_samples(KernelOperator(fv, params.epsilon_n), 2, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * n * n * 8

    def test_noise_norm_holds_no_dense_array(self):
        # Lanczos on two sparse draws, H never stored; measured 0.012 of
        # one n x n array
        n = 4096
        params = ModelParams(n=n, alpha=0.5)
        K = model_kernel(params)
        draws = [sample_sparse_adjacency(K, s) for s in range(2)]
        tracemalloc.start()
        try:
            for A in draws:
                noise_norm(A, K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * n * n * 8

    @pytest.mark.parametrize("alpha", [0.2, 0.8])
    def test_operator_and_dense_kernel_give_the_same_edges(self, alpha):
        params = ModelParams(n=1000, alpha=alpha, seed=2)
        fv = gen_fitness(params)
        K = KernelOperator(fv, params.epsilon_n)
        P = expected_matrix(fv, params.epsilon_n)
        # realization r draws stream (seed, r); the reference stores H densely
        noises = [sample_sparse_adjacency(K, params.seed, r).toarray() - P.entries for r in range(3)]
        dense = [dense_norm(H) for H in noises]
        matrix_free = edge_samples(K, 3, params.seed)
        assert np.all(np.abs(matrix_free - dense) <= 1e-13 * np.array(dense))

    def test_realizations_are_keyed_not_offset(self):
        # bulk seed s, realization 1 is no longer compare's draw for seed
        # s + 1, and realization 0 is compare's draw for seed s
        params = ModelParams(n=256, alpha=0.5, seed=4)
        K = model_kernel(params)
        edges = edge_samples(K, 2, params.seed)
        assert (sample_sparse_adjacency(K, params.seed, 1) != sample_sparse_adjacency(K, params.seed + 1)).nnz
        assert edges[1] != edge_samples(K, 1, params.seed + 1)[0]
        assert edges[0] == noise_norm(sample_sparse_adjacency(K, params.seed), K)


@pytest.fixture(scope="module")
def instance():
    params = ModelParams(n=1024, alpha=0.5, seed=3)
    K = model_kernel(params)
    draws = [sample_sparse_adjacency(K, s) for s in range(5)]
    return dense_profile(params), K, draws


class TestLowerBound:
    def test_full_fraction_at_half_delta(self, instance):
        # ||H|| >= sqrt(1 - delta) sigma at delta = 1/2 on every draw;
        # measured 0.999-1.060 sigma
        (sigma, _, _), K, draws = instance
        assert all(noise_norm(A, K) >= math.sqrt(0.5) * sigma for A in draws)

    def test_column_norm_witness(self, instance):
        # ||H e_i||^2 at the row attaining sigma is a sum of n - 1
        # independent terms in [0, 1] with mean sigma^2, so it sits within
        # three 95% Hoeffding widths of sigma^2 on every draw
        (sigma, _, sigma_row), K, draws = instance
        n = K.n
        e = np.zeros((n, 1))
        e[sigma_row] = 1.0
        width = math.sqrt((n - 1) * math.log(2.0 / 0.05) / 2.0)
        for A in draws:
            col = (A @ e - K.matmat(e))[:, 0]
            assert abs(float(col @ col) - sigma**2) <= 3.0 * width


class TestEdgePrefactor:
    @pytest.mark.parametrize("alpha,row", [(0.2, 2), (0.5, 2), (0.8, 3)])
    @pytest.mark.parametrize("n,bound", [(1024, 2e-4), (4096, 5e-5)])
    def test_sigma_inf_matches_the_largest_row_variance(self, alpha, row, n, bound):
        # measured sqrt(max_i d_i / n) - sigma_inf = +2.6e-5 / +1.1e-4 /
        # +1.0e-4 at n = 1024 and +6.5e-6 / +2.8e-5 / +2.5e-5 at n = 4096;
        # the largest row is a light one, not the hub
        d = operator_row_variances(ModelParams(n=n, alpha=alpha))
        limit, i = sigma_inf(alpha, n)
        assert abs(math.sqrt(d.max() / n) - limit) <= bound
        assert int(d.argmax()) + 1 == i == row

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_operator_row_variances_are_the_dense_row_sums(self, alpha):
        # measured to 3.4e-14 relative
        params = ModelParams(n=1024, alpha=alpha)
        assert np.allclose(operator_row_variances(params), dense_variance(params).sum(axis=1), rtol=1e-12, atol=0.0)

    @pytest.mark.slow
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_noise_norm_attains_sigma_inf(self, alpha):
        # for independent entries E||H|| lies between about sigma, the largest
        # row deviation, and 2 sigma plus a log term (Bandeira & van Handel,
        # Ann. Probab. 44, 2016); here the lower bound is attained, and
        # sigma/sqrt(n) tends to sigma_inf, whose row is 2 or 3. Worst measured
        # gaps over the three alphas and both seeds: 2.80 / 1.12 / 1.16 /
        # 0.25 % at n = 4096 / 10^4 / 3 10^4 / 10^5
        limit, _ = sigma_inf(alpha, 4096)
        for n, band in ((4096, 0.04), (10**4, 0.02), (3 * 10**4, 0.02), (10**5, 0.01)):
            K = model_kernel(ModelParams(n=n, alpha=alpha))
            gaps = [noise_norm(sample_sparse_adjacency(K, seed), K) / math.sqrt(n) / limit - 1.0 for seed in (1, 2)]
            print(f"alpha={alpha}, n={n}: ||H||/(sigma_inf sqrt(n)) - 1 = " + " / ".join(f"{g:+.4f}" for g in gaps))
            assert max(abs(g) for g in gaps) <= band


class TestCavitySolve:
    def test_free_resolvent_exact(self):
        # p = 5e-324, the least there is, vanishes beside z
        sol = cavity_solve(constant_kernel(32, math.ulp(0.0)), np.array([0.3]), eta=0.7)
        # numpy and CPython complex division differ in the last ulp
        free = -1.0 / complex(0.3, 0.7)
        assert np.max(np.abs(sol.g_per_node - free)) < 1e-15
        assert sol.converged.all()
        assert sol.iterations[0] == 1
        assert abs(sol.S_n[0] - free) < 1e-15

    @pytest.mark.parametrize("zr,eta", [(0.2, 0.5), (0.0, 1.0), (-0.4, 0.3)])
    def test_constant_kernel_quadratic_oracle(self, zr, eta):
        # equal weights make the kernel constant, so the fixed point is the
        # scalar root of c g^2 + z g + 1 = 0 with c = p (n-1)/n
        p, n = 0.3, 64
        sol = cavity_solve(constant_kernel(n, p), np.array([zr]), eta=eta, tol=1e-12)
        c = p * (n - 1) / n
        z = complex(zr, eta)
        disc = cmath.sqrt(z * z - 4 * c)
        oracle = next(r for r in ((-z + disc) / (2 * c), (-z - disc) / (2 * c)) if r.imag > 0)
        assert abs(sol.g_per_node[0, 0] - oracle) < 1e-10
        assert sol.converged.all()

    def test_bulk_window_density(self):
        params = ModelParams(n=512, alpha=0.5, seed=1)
        sol = cavity_solve(model_kernel(params), np.linspace(-0.75, 0.75, 41), eta=0.05)
        assert sol.converged.all()
        assert sol.steps.shape == (sol.iterations.max(), 41)
        assert (sol.S_n.imag > 0.0).all()
        assert (sol.density >= -1e-9).all()
        assert 0.9 <= trapezoid(sol.density, sol.z_grid.real) <= 1.1
        # contraction diagnostic: step sizes shrink monotonically after
        # burn-in; violations warn rather than fail
        worst = sol.steps.max(axis=1)
        violations = int(np.sum(np.diff(worst[10:]) > 1e-12))
        if violations:
            warnings.warn(f"{violations} non-monotone delta steps after burn-in")

    def test_validation(self):
        K = constant_kernel(8, 0.2)
        grid = np.array([0.0])
        with pytest.raises(ValueError):
            cavity_solve(K, grid, eta=0.1, damping=0.0)
        with pytest.raises(ValueError):
            cavity_solve(K, grid, eta=-0.1)
        with pytest.raises(ValueError):
            cavity_solve(K, np.empty(0), eta=0.1)
        # no step falls below tol <= 0, so every point would run all its sweeps
        for tol in (0.0, -1e-9):
            with pytest.raises(ValueError, match="tol"):
                cavity_solve(K, grid, eta=0.1, tol=tol)

    def test_herglotz_across_alpha(self):
        for alpha in (0.2, 0.8):
            params = ModelParams(n=256, alpha=alpha)
            sol = cavity_solve(model_kernel(params), np.linspace(-0.6, 0.6, 7), eta=0.1)
            assert sol.converged.all()
            assert (sol.S_n.imag > 0.0).all()

    def test_real_view_product_matches_complex(self):
        # the solver multiplies the real kernel by the interleaved (re, im)
        # view of g instead of upcasting the kernel to complex
        P = model_P(ModelParams(n=512, alpha=0.5))
        rng = np.random.default_rng(0)
        g = rng.standard_normal((512, 15)) + 1j * rng.standard_normal((512, 15))
        real_view = (P.entries @ np.ascontiguousarray(g).view(float)).view(complex)
        reference = P.entries @ g
        assert np.abs(real_view - reference).max() <= 1e-15 * np.abs(reference).max()

    @pytest.mark.parametrize(
        "kernel",
        [
            pytest.param(lambda: model_kernel(ModelParams(n=512, alpha=0.2)), id="0.2"),
            pytest.param(lambda: model_kernel(ModelParams(n=512, alpha=0.8)), id="0.8"),
            # any scipy operator runs the same loop
            pytest.param(lambda: scipy.sparse.linalg.aslinearoperator(model_P(ModelParams(n=512, alpha=0.5)).entries), id="dense"),
        ],
    )
    def test_anderson_matches_damped_map_in_half_the_sweeps(self, kernel):
        # measured 23 / 16 / 18 sweeps against the damped map's 61 / 41 / 47
        grid, K = np.linspace(-0.75, 0.75, 15), kernel()
        mixed = cavity_solve(K, grid, eta=0.05)
        g, iterations = damped_map(K, grid, eta=0.05)
        damped = g.mean(axis=0)
        assert mixed.converged.all() and iterations.max() < bulk._MAX_SWEEPS
        assert np.abs(mixed.S_n - damped).max() <= 1e-8 * np.abs(damped).min()
        assert 2 * mixed.iterations.max() <= iterations.max()

    @pytest.mark.parametrize("alpha", [0.2, 0.8])
    def test_operator_matches_dense_kernel(self, alpha):
        params = ModelParams(n=2048, alpha=alpha)
        fv = gen_fitness(params)
        grid = np.linspace(-0.75, 0.75, 15)
        # the reference runs the same loop on the dense product
        P = expected_matrix(fv, params.epsilon_n).entries
        dense = cavity_solve(scipy.sparse.linalg.aslinearoperator(P), grid, eta=0.05)
        matrix_free = cavity_solve(KernelOperator(fv, params.epsilon_n), grid, eta=0.05)
        assert matrix_free.converged.all()
        assert np.array_equal(matrix_free.iterations, dense.iterations)
        assert np.all(np.abs(matrix_free.S_n - dense.S_n) <= 1e-10 * np.abs(dense.S_n))

    @pytest.mark.parametrize("zr,eta", [(0.0, 2.0), (0.5, 1.0), (-0.3, 0.8)])
    def test_saturated_kernel_quadratic_oracle(self, zr, eta):
        # every p_ij is 1, so g = -1/(z + c g) with c = (n-1)/n
        n = 64
        sol = cavity_solve(constant_kernel(n, 1.0), np.array([zr]), eta=eta, tol=1e-13)
        c = (n - 1) / n
        z = complex(zr, eta)
        disc = cmath.sqrt(z * z - 4 * c)
        oracle = next(r for r in ((-z + disc) / (2 * c), (-z - disc) / (2 * c)) if r.imag > 0)
        assert np.abs(sol.g_per_node[:, 0] - oracle).max() < 1e-12
        assert sol.converged.all()

    @pytest.mark.parametrize(
        "fv,eps",
        [pytest.param(gen_fitness(ModelParams(n=1024, alpha=a)), ModelParams(n=1024, alpha=a).epsilon_n, id=str(a)) for a in (0.2, 0.5, 0.8)]
        # tied weights: the operator needs no strict order
        + [pytest.param(FitnessVector(np.repeat(gen_fitness(ModelParams(n=512, alpha=0.5)).x, 2)), ModelParams(n=1024, alpha=0.5).epsilon_n, id="tied")],
    )
    def test_fixed_point_of_the_dense_kernel(self, fv, eps):
        # the operator leaves out j = i, as the dense P's zero diagonal does,
        # so the result must solve the equation on the dense P
        sol = cavity_solve(KernelOperator(fv, eps), np.array([-0.5, 0.0, 0.3]), eta=0.05)
        P = expected_matrix(fv, eps).entries
        residual = sol.g_per_node + 1.0 / (sol.z_grid + P @ sol.g_per_node / fv.n)
        assert sol.converged.all()
        assert np.abs(residual).max() <= 1e-8

    @pytest.mark.parametrize("alpha", [0.2, 0.8])
    def test_herglotz_per_node(self, alpha):
        sol = cavity_solve(model_kernel(ModelParams(n=1024, alpha=alpha)), np.array([-0.4, 0.2]), eta=0.3)
        assert sol.converged.all()
        assert (sol.g_per_node.imag > 0.0).all()

    def test_transform_stable_under_doubling_n(self):
        f1 = cavity_solve(model_kernel(ModelParams(n=4096, alpha=0.5)), np.array([0.0]), eta=0.5)
        f2 = cavity_solve(model_kernel(ModelParams(n=8192, alpha=0.5)), np.array([0.0]), eta=0.5)
        assert f1.converged.all() and f2.converged.all()
        assert abs(f1.S_n[0] - f2.S_n[0]) / abs(f1.S_n[0]) < 0.05

    def test_validation_order(self):
        # each check is made before the next, so a call wrong in every
        # argument names the first: damping, then tol, then z_grid, then eta
        K = constant_kernel(8, 0.2)
        bad = dict(z_grid=np.empty(0), eta=0.0, damping=1.5, tol=0.0)
        for name, good, match in (
            ("damping", 0.5, "damping"),
            ("tol", 1e-9, "tol"),
            ("z_grid", np.array([0.0]), "nonempty 1-d"),
            ("eta", 0.1, "eta"),
        ):
            with pytest.raises(ValueError, match=match):
                cavity_solve(K, **bad)
            bad[name] = good
        with pytest.raises(ValueError, match="nonempty 1-d"):
            cavity_solve(K, np.zeros((1, 3)), eta=0.1)
        assert cavity_solve(K, **bad).converged.all()

    def test_cavity_and_sampled_resolvent_agree(self):
        # the annealed transform against (1/n) tr (H/sqrt(n) - z)^-1 of one
        # draw; both are near the free resolvent at these z, so the band
        # mostly certifies that scaling and sign conventions line up
        params = ModelParams(n=2048, alpha=0.5)
        K = model_kernel(params)
        H = sample_sparse_adjacency(K, params.seed).toarray()
        H -= model_P(params).entries
        H /= math.sqrt(params.n)
        spectrum = np.linalg.eigvalsh(H)
        del H
        for eta in (0.5, 1.0, 2.0):
            sol = cavity_solve(K, np.array([0.0]), eta=eta)
            sampled = np.mean(1.0 / (spectrum - 1j * eta))
            assert sol.converged.all()
            assert abs(sol.S_n[0] - sampled) / abs(sol.S_n[0]) < 0.2

    def test_holds_no_per_sweep_history_copy(self):
        # the iterate, the ring of dR and dG + damping dR and g_per_node are
        # 12 units of 16 n grid bytes; measured 18.2-19.2 units, where a
        # history rebuilt every sweep read 46.0
        n, grid = 4096, np.linspace(-0.75, 0.75, 15)
        K = model_kernel(ModelParams(n=n, alpha=0.5))
        tracemalloc.start()
        try:
            cavity_solve(K, grid, eta=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28 * 16 * n * grid.size

    def test_grid_points_are_independent(self):
        # points stop at different sweeps (13-18), so the running state is
        # compacted under the others; each alone gives the same bits
        grid = np.linspace(-0.75, 0.75, 15)
        K = model_kernel(ModelParams(n=1024, alpha=0.5))
        together = cavity_solve(K, grid, eta=0.05)
        assert together.converged.all()
        assert together.iterations.min() < together.iterations.max()
        for p in range(grid.size):
            alone = cavity_solve(K, grid[p : p + 1], eta=0.05)
            assert alone.iterations[0] == together.iterations[p]
            assert np.array_equal(alone.g_per_node[:, 0], together.g_per_node[:, p])

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_ring_history_matches_the_rebuilt_one(self, alpha):
        # the ring sums the slots in another order and the Gram matrix is
        # built one row at a time, so only the last bits may move; the sweep
        # counts must not
        grid = np.linspace(-0.75, 0.75, 15)
        K = model_kernel(ModelParams(n=512, alpha=alpha))
        sol = cavity_solve(K, grid, eta=0.05)
        g, iterations = anderson_reference(K, grid, eta=0.05)
        assert np.array_equal(sol.iterations, iterations)
        assert np.all(np.abs(sol.S_n - g.mean(axis=0)) <= 1e-12 * np.abs(g.mean(axis=0)))

    def test_sweep_cap_keeps_the_last_iterate(self, monkeypatch):
        monkeypatch.setattr(bulk, "_MAX_SWEEPS", 3)
        grid = np.linspace(-0.75, 0.75, 15)
        K = model_kernel(ModelParams(n=512, alpha=0.5))
        sol = cavity_solve(K, grid, eta=0.05)
        assert not sol.converged.any()
        assert (sol.iterations == 3).all()
        assert sol.steps.shape == (3, grid.size)
        assert np.isfinite(sol.g_per_node).all()
        assert (sol.g_per_node != 0j - 1.0 / sol.z_grid).all(axis=0).all()
        monkeypatch.setattr(bulk, "_MAX_SWEEPS", 2)
        assert (sol.g_per_node != cavity_solve(K, grid, eta=0.05).g_per_node).any(axis=0).all()

    @pytest.mark.slow
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_density_tends_to_the_free_lorentzian(self, alpha):
        # the cavity solves the annealed equation on P, not on a draw, and
        # on the sqrt(n) scale its density falls onto the free resolvent's
        # Lorentzian; measured L1 0.059 / 0.026 / 0.011 (alpha = 0.2),
        # 0.105 / 0.044 / 0.018 (0.5) and 0.274 / 0.121 / 0.050 (0.8)
        eta, grid = 0.05, np.linspace(-0.75, 0.75, 31)
        free = smoothed_density(np.zeros(1), grid, eta)
        l1 = []
        for n in (1024, 4096, 16384):
            sol = cavity_solve(model_kernel(ModelParams(n=n, alpha=alpha)), grid, eta=eta)
            assert sol.converged.all()
            l1.append(trapezoid(np.abs(sol.density - free), grid))
        print(f"alpha={alpha}: L1 to the free Lorentzian at n=1024/4096/16384: " + " / ".join(f"{d:.4f}" for d in l1))
        # printed only: the L1 to the smoothed spectrum of H/sqrt(n) for one
        # draw from the same P, at the bulk window and at two finer scales
        params = ModelParams(n=4096, alpha=alpha)
        K = model_kernel(params)
        H = sample_sparse_adjacency(K, params.seed).toarray()
        H -= model_P(params).entries
        H /= math.sqrt(params.n)
        spectrum = np.linalg.eigvalsh(H)
        del H
        for eta, half in ((0.05, 0.75), (0.005, 0.1), (0.001, 0.02)):
            grid = np.linspace(-half, half, 31)
            sol = cavity_solve(K, grid, eta=eta)
            dist = trapezoid(np.abs(sol.density - smoothed_density(spectrum, grid, eta)), grid)
            print(f"alpha={alpha}, n=4096, eta={eta} on +-{half}: L1 to the draw's spectrum {dist:.4f}, converged {sol.converged.all()}")
        assert l1[0] > l1[1] > l1[2]
