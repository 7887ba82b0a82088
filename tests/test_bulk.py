"""Noise-variance facts on a dense reference, measured edges, cavity and Poisson-process solvers."""
import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import trapezoid

from msmlab import bulk
from msmlab.bulk import (
    cavity_solve,
    edge_samples,
    measure_bulk_edge,
    ppp_fixed_point,
    ppp_sample,
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


def crude_bound(n: int) -> float:
    """sqrt(n)/2 + sqrt(ln n)/4, the crude_bound column of bulk's edge sweep."""
    return math.sqrt(n) / 2 + math.sqrt(math.log(n)) / 4


def dense_norm(H: np.ndarray) -> float:
    """||H|| of a dense symmetric H from np.linalg."""
    return float(np.abs(np.linalg.eigvalsh(H)).max())


def model_P(params: ModelParams) -> SymmetricMatrix:
    return expected_matrix(gen_fitness(params), params.epsilon_n)


def dense_profile(params: ModelParams) -> tuple[float, float, int]:
    """sigma, sigma_star and sigma's row of H = A - P, from v = p (1 - p) on the dense P.

    sigma is the largest row deviation sqrt(sum_j v_ij), sigma_star the
    largest entry deviation sqrt(v_ij); P's diagonal is 0, so v's is too.
    Meant for n <= 1024, where P is at most 8 MB.
    """
    p = model_P(params).entries
    v = p * (1.0 - p)
    rows = v.sum(axis=1)
    row = int(rows.argmax())
    return math.sqrt(rows[row]), math.sqrt(v.max()), row


def constant_kernel(n: int, p: float) -> KernelOperator:
    """Equal weights, so every p_ij is p to rounding; p = 1 saturates (eps = 40)."""
    return KernelOperator(FitnessVector(np.ones(n)), -math.log1p(-p) if p < 1.0 else 40.0)


def model_kernel(params: ModelParams) -> KernelOperator:
    return KernelOperator(gen_fitness(params), params.epsilon_n)


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
        # realization r draws with seed + r; the reference stores H densely
        noises = [sample_sparse_adjacency(K, params.seed + r).toarray() - P.entries for r in range(3)]
        dense = [dense_norm(H) for H in noises]
        matrix_free = edge_samples(K, 3, params.seed)
        assert np.all(np.abs(matrix_free - dense) <= 1e-13 * np.array(dense))


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
        "solve",
        [
            pytest.param(lambda grid: cavity_solve(model_kernel(ModelParams(n=512, alpha=0.2)), grid, eta=0.05), id="0.2"),
            pytest.param(lambda grid: cavity_solve(model_kernel(ModelParams(n=512, alpha=0.8)), grid, eta=0.05), id="0.8"),
            # the Poisson-process solver runs the same loop
            pytest.param(lambda grid: ppp_fixed_point(ppp_sample(0.5, 5000, 3), grid, eta=0.05), id="ppp"),
        ],
    )
    def test_anderson_matches_damped_map_in_half_the_sweeps(self, solve, monkeypatch):
        grid = np.linspace(-0.75, 0.75, 15)
        mixed = solve(grid)
        monkeypatch.setattr(bulk, "_ANDERSON_DEPTH", 0)
        damped = solve(grid)
        assert mixed.converged.all() and damped.converged.all()
        assert np.abs(mixed.S_n - damped.S_n).max() <= 1e-8 * np.abs(damped.S_n).min()
        assert 2 * mixed.iterations.max() <= damped.iterations.max()


    @pytest.mark.parametrize("alpha", [0.2, 0.8])
    def test_operator_matches_dense_kernel(self, alpha):
        params = ModelParams(n=2048, alpha=alpha)
        fv = gen_fitness(params)
        grid = np.linspace(-0.75, 0.75, 15)
        # the reference runs the same loop on the dense product, scaled as cavity_solve scales it
        P = expected_matrix(fv, params.epsilon_n).entries
        dense = bulk._stieltjes_fixed_point(lambda v: P @ v * (1.0 / params.n), params.n, grid, 0.05, 0.5, 1e-9)
        matrix_free = cavity_solve(KernelOperator(fv, params.epsilon_n), grid, eta=0.05)
        assert matrix_free.converged.all()
        assert np.array_equal(matrix_free.iterations, dense.iterations)
        assert np.all(np.abs(matrix_free.S_n - dense.S_n) <= 1e-10 * np.abs(dense.S_n))


class TestPPPSample:
    def test_gamma_mean(self):
        # Gamma_K = y_K^(-alpha)
        last = np.array([ppp_sample(0.5, 10, seed)[-1] ** -0.5 for seed in range(2000)])
        assert abs(last.mean() - 10.0) <= 5 * math.sqrt(10) / math.sqrt(2000)

    def test_poisson_count_above_one(self):
        counts = np.array([(ppp_sample(0.5, 50, s) > 1.0).sum() for s in range(2000)])
        # E#{y_k > u} = u^(-alpha) = 1 at u = 1
        assert abs(counts.mean() - 1.0) <= 5 / math.sqrt(2000)

    def test_monotone_atoms(self):
        assert np.all(np.diff(ppp_sample(0.3, 500, 11)) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ppp_sample(0.5, 0, 0)
        with pytest.raises(ValueError):
            ppp_sample(1.0, 10, 0)


class TestPPPFixedPoint:
    @pytest.mark.parametrize("zr,eta", [(0.0, 2.0), (0.5, 1.0), (-0.3, 0.8)])
    def test_single_saturated_atom_quadratic(self, zr, eta):
        # one huge atom saturates the kernel, so g = -1/(z + g)
        sol = ppp_fixed_point(np.array([1e8]), [zr], eta, tol=1e-13)
        z = complex(zr, eta)
        disc = cmath.sqrt(z * z - 4)
        oracle = next(r for r in ((-z + disc) / 2, (-z - disc) / 2) if r.imag > 0)
        assert abs(sol.g_per_node[0, 0] - oracle) < 1e-12
        assert sol.converged.all()

    def test_truncation_stability_under_doubling(self):
        f1 = ppp_fixed_point(ppp_sample(0.5, 10_000, 0), [0.0], 0.5)
        f2 = ppp_fixed_point(ppp_sample(0.5, 20_000, 0), [0.0], 0.5)
        assert f1.converged.all() and f2.converged.all()
        assert abs(f1.S_n[0] - f2.S_n[0]) / abs(f1.S_n[0]) < 0.05

    def test_herglotz(self):
        sol = ppp_fixed_point(ppp_sample(0.5, 5_000, 3), [0.2], 0.3)
        assert sol.converged.all()
        assert sol.S_n[0].imag > 0
        assert (sol.g_per_node[:, 0].imag > 0).all()

    def test_validation(self):
        atoms = ppp_sample(0.5, 10, 0)
        with pytest.raises(ValueError):
            ppp_fixed_point(atoms, [0.0], 0.0)
        with pytest.raises(ValueError):
            ppp_fixed_point(atoms, [0.0], 0.5, damping=1.5)
        with pytest.raises(ValueError, match="tol"):
            ppp_fixed_point(atoms, [0.0], 0.5, tol=0.0)
        with pytest.raises(ValueError, match="nonempty 1-d"):
            ppp_fixed_point(np.empty(0), [0.0], 0.5)
        with pytest.raises(ValueError, match="nonempty 1-d"):
            ppp_fixed_point(atoms[None, :], [0.0], 0.5)
        with pytest.raises(ValueError, match="atoms must descend"):
            ppp_fixed_point(atoms[::-1], [0.0], 0.5)
        with pytest.raises(ValueError, match="atoms must descend"):
            ppp_fixed_point(np.array([3.0, 1.0, 2.0]), [0.0], 0.5)
        with pytest.raises(ValueError, match="last atom"):
            ppp_fixed_point(np.array([2.0, 1.0, 0.0]), [0.0], 0.5)

    @pytest.mark.parametrize(
        "atoms",
        [pytest.param(ppp_sample(alpha, 2000, 1), id=str(alpha)) for alpha in (0.2, 0.5, 0.8)]
        # tied atoms: the solver needs no strict order
        + [pytest.param(np.repeat(ppp_sample(0.5, 500, 1), 2), id="tied")],
    )
    def test_fixed_point_of_the_dense_kernel_with_its_diagonal(self, atoms):
        # the operator leaves out l = k and the solver adds it back, so the
        # result must solve the equation on the full dense atom kernel
        sol = ppp_fixed_point(atoms, [-0.5, 0.0, 0.3], 0.05)
        p = -np.expm1(-np.outer(atoms, atoms))
        residual = sol.g_per_node + 1.0 / (sol.z_grid + p @ sol.g_per_node)
        assert sol.converged.all()
        assert np.abs(residual).max() <= 1e-8


class TestCrossMethod:
    def test_cavity_and_ppp_transforms_agree(self):
        # both transforms are near the free resolvent at these z, so the
        # band mostly certifies that scaling and sign conventions line up
        params = ModelParams(n=2048, alpha=0.5)
        K = model_kernel(params)
        atoms = ppp_sample(0.5, 10_000, 0)
        for eta in (0.5, 1.0, 2.0):
            sol = cavity_solve(K, np.array([0.0]), eta=eta)
            fp = ppp_fixed_point(atoms, np.array([0.0]), eta)
            assert sol.converged.all() and fp.converged.all()
            rel = abs(sol.S_n[0] - fp.S_n[0]) / abs(sol.S_n[0])
            assert rel < 0.2
