"""Acceptance gate: one test per shipping criterion, one printed line each.

Each test prints "[criterion N] PASS/FAIL <measured numbers>" and then
asserts at exactly the stated tolerance. Three measurements are known to
sit outside their stated bounds (criteria 1 and 3, and the stationary
clause of criterion 10); those tests fail honestly rather than widening
the bound, and the printed line shows by how much. Run with -rA (or -s)
to see the lines for passing criteria too.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from msmlab.bulk import cavity_solve, measure_bulk_edge
from msmlab.eigenvectors import (
    eigenvector_entries,
    entry_identity_check,
    zero_crossing_log_positions,
)
from msmlab.model import (
    KernelOperator,
    ModelParams,
    coarse_grain,
    expected_matrix,
    gen_fitness,
    sample_sparse_adjacency,
)
from msmlab.numeric import compare, eig_top
from msmlab.special import gamma_line, log_gamma_complex, digamma_line_derivative, pareto_laplace
from msmlab.spectrum import k_star_estimate, omega_k_approx, solve_omega_k


def check(label: str, ok: bool, detail: str) -> None:
    line = f"[{label}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def compare_4096():
    # one decomposition pair serves criteria 4 and 5
    return compare(ModelParams(n=4096, alpha=0.5, seed=1), k_max=5)


def test_criterion_01_top_eigenvalue_scaling():
    # top eigenvalue of P within 8% of the closed form, error
    # non-increasing in n, for alpha = 0.5 and n = 512..4096
    errs = []
    for n in (512, 1024, 2048, 4096):
        params = ModelParams(n=n, alpha=0.5)
        top = eig_top(KernelOperator(gen_fitness(params), params.epsilon_n), 1).eigenvalues[0]
        pred = solve_omega_k(1, n, 0.5).lambda_k
        errs.append(abs(top - pred) / pred)
    non_increasing = all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    detail = "rel err by n: " + ", ".join(f"{e:.4f}" for e in errs) + f"; non-increasing={non_increasing}"
    check("criterion 1", non_increasing and max(errs) <= 0.08, detail)


@pytest.mark.slow
def test_criterion_01_finite_size_law():
    # criterion 1 at the paper's n, on the operator: err_k of the top six
    # eigenvalues of P against the ladder. Reported, not held to 8 %: err_1
    # must not increase with n and the signs must alternate. Measured err_1
    # 0.1226 / 0.0901 / 0.0691, so err_1 ln n falls 1.13 / 1.04 / 0.96; the
    # test takes about 12 s and 2.2 GB peak RSS on 2 cores.
    # The same solve's eigenvectors, against the closed form: |cos|, and the
    # sign changes with their mean ln j spacing against pi alpha / omega_k.
    # Only the count is held, to the paper's k - 1; the cosines and spacings
    # are reported (cos 0.9565 at k = 1, n = 10^6)
    sizes = (10**4, 10**5, 10**6)
    errs, alternate, counts_ok, vec_lines = [], True, True, []
    for n in sizes:
        params = ModelParams(n=n, alpha=0.5)
        top = eig_top(KernelOperator(gen_fitness(params), params.epsilon_n), 6)
        rungs = [solve_omega_k(k, n, 0.5) for k in range(1, 7)]
        errs.append([abs(v - r.lambda_k) / abs(r.lambda_k) for v, r in zip(top.eigenvalues, rungs)])
        alternate &= all(
            math.copysign(1.0, v) == (-1.0) ** (k + 1) for k, v in enumerate(top.eigenvalues, start=1)
        )
        for rung, v in zip(rungs, top.eigenvectors.T):
            pred = eigenvector_entries(rung)
            cos = abs(v @ pred) / (np.linalg.norm(v) * np.linalg.norm(pred))
            pos = zero_crossing_log_positions(v)
            counts_ok &= pos.size == rung.k - 1
            line = f"n={n} k={rung.k} cos {cos:.4f} sign changes {pos.size}"
            if pos.size >= 2:
                line += f" spacing {np.diff(pos).mean():.4f} vs {math.pi * 0.5 / rung.omega_k:.4f}"
            vec_lines.append(line)
    print("\n".join(vec_lines))
    first = [e[0] for e in errs]
    non_increasing = all(b <= a for a, b in zip(first, first[1:]))
    detail = "; ".join(
        f"n={n} err k=1..6: " + ", ".join(f"{e:.4f}" for e in row) for n, row in zip(sizes, errs)
    )
    check(
        "criterion 1 law",
        non_increasing and alternate and counts_ok,
        f"alternate={alternate}; k - 1 sign changes={counts_ok}; {detail}",
    )


@pytest.mark.slow
def test_criterion_02_spiral_eigenvalue_ladder(det_instance_n1e4):
    # first six eigenvalues of P at n = 10^4 alternate in sign and land
    # within 15% of the root-solver ladder
    top = eig_top(det_instance_n1e4[2], 6).eigenvalues
    preds = [solve_omega_k(k, 10_000, 0.5).lambda_k for k in range(1, 7)]
    alternate = all(
        math.copysign(1.0, v) == (1.0 if k % 2 == 1 else -1.0)
        for k, v in enumerate(top, start=1)
    )
    rels = [abs(v - p) / abs(p) for v, p in zip(top, preds)]
    detail = f"alternate={alternate}; rel err: " + ", ".join(f"{r:.4f}" for r in rels)
    check("criterion 2", alternate and max(rels) <= 0.15, detail)


def test_criterion_03_omega_approximation():
    # affine estimate of omega_k within 10% of the solved root for
    # k = 2..8 at n = 10^4, alpha = 0.2
    rels = []
    for k in range(2, 9):
        exact = solve_omega_k(k, 10_000, 0.2).omega_k
        rels.append(abs(omega_k_approx(k, 10_000, 0.2) - exact) / exact)
    detail = "rel err k=2..8: " + ", ".join(f"{r:.4f}" for r in rels)
    check("criterion 3", max(rels) <= 0.10, detail)


def test_criterion_04_eigenvector_closed_form(compare_4096):
    # closed-form eigenvectors match numerics of P (cosine >= 0.95 for
    # k <= 5) and the two algebraic entry forms agree to 1e-9 relative
    cosines = [row.cosine_sim_pred_vs_P for row in compare_4096.rows]
    reports = [entry_identity_check(solve_omega_k(k, 4096, 0.5)) for k in range(1, 6)]
    identity = max(rep.max_abs_discrepancy / rep.max_abs_entry for rep in reports)
    detail = (
        "cosine k=1..5: " + ", ".join(f"{c:.4f}" for c in cosines) + f"; identity rel {identity:.2e}"
    )
    check("criterion 4", min(cosines) >= 0.95 and identity < 1e-9, detail)


def test_criterion_05_outliers_of_A_tracked_by_P(compare_4096):
    # sampled-matrix outliers sit within 20% of the P outliers with
    # matched eigenvectors (cosine >= 0.9) for k <= 3
    rows = compare_4096.rows[:3]
    rels = [row.rel_err_P_vs_A for row in rows]
    cosines = [row.cosine_sim_P_vs_A for row in rows]
    detail = (
        "rel err k=1..3: " + ", ".join(f"{r:.4f}" for r in rels)
        + "; cosine: " + ", ".join(f"{c:.4f}" for c in cosines)
    )
    check("criterion 5", max(rels) <= 0.20 and min(cosines) >= 0.9, detail)


@pytest.mark.slow
def test_criterion_06_bulk_edge_envelope():
    # mean noise edge under sqrt(n)/2 + sqrt(ln n)/4 at every grid point,
    # with log-log growth rate 0.5 +- 0.1 per alpha
    sizes = (512, 1024, 2048, 4096)
    under, slopes = [], []
    for alpha in (0.2, 0.5, 0.8):
        means = []
        for n in sizes:
            params = ModelParams(n=n, alpha=alpha, seed=0)
            mean, _ = measure_bulk_edge(KernelOperator(gen_fitness(params), params.epsilon_n), 10, params.seed)
            means.append(mean)
            under.append(mean <= math.sqrt(n) / 2 + math.sqrt(math.log(n)) / 4)
        slope = np.polyfit(np.log(sizes), np.log(means), 1)[0]
        slopes.append(slope)
    slopes_ok = all(abs(s - 0.5) <= 0.1 for s in slopes)
    detail = (
        f"under envelope {sum(under)}/12; slopes: "
        + ", ".join(f"{s:.4f}" for s in slopes)
    )
    check("criterion 6", all(under) and slopes_ok, detail)


def test_criterion_07_laplace_asymptotics():
    # (1 - phi_beta(t)) / (t^beta Gamma(1-beta)) near 1 at t = 1e-6
    t = 1e-6
    ratios = []
    for beta in (0.1, 0.25, 0.4):
        ratios.append((1.0 - pareto_laplace(beta, t)) / (t**beta * math.gamma(1.0 - beta)))
    detail = "ratios: " + ", ".join(f"{r:.6f}" for r in ratios)
    check("criterion 7", all(0.99 <= r <= 1.01 for r in ratios), detail)


def test_criterion_08_coarse_grain_identity():
    # aggregated kernel equals the closed form on supernode weights
    worst = 0.0
    for alpha in (0.2, 0.5, 0.8):
        params = ModelParams(n=100, alpha=alpha)
        fv = gen_fitness(params)
        for b in (2, 5, 10):
            big_x, coarse = coarse_grain(fv, params.epsilon_n, b)
            closed = -np.expm1(-params.epsilon_n * np.outer(big_x.x, big_x.x))
            off = ~np.eye(coarse.n, dtype=bool)
            worst = max(worst, float(np.abs(coarse.entries - closed)[off].max()))
    check("criterion 8", worst < 1e-12, f"max identity violation {worst:.2e}")


def test_criterion_09_cavity_density_sanity():
    # fixed point converges across the bulk window, transform is
    # Herglotz, mass is near 1, and the density tracks one sampled
    # noise spectrum to L1 <= 0.25 on three coarse bins
    params = ModelParams(n=2048, alpha=0.5, seed=1)
    fv = gen_fitness(params)
    lam = np.linspace(-0.75, 0.75, 61)
    K = KernelOperator(fv, params.epsilon_n)
    sol = cavity_solve(K, lam, eta=0.05)
    frac = sol.converged.mean()
    herglotz = bool((sol.S_n.imag[sol.converged] > 0).all())
    mass = trapezoid(sol.density, sol.z_grid.real)

    H = sample_sparse_adjacency(K, params.seed).toarray() - expected_matrix(fv, params.epsilon_n).entries
    ev = np.linalg.eigvalsh(H) / math.sqrt(params.n)
    edges = np.array([-0.75, -0.25, 0.25, 0.75])
    hist_frac = np.histogram(ev, bins=edges)[0] / ev.size
    cav = np.array(
        [
            trapezoid(sol.density[(lam >= lo) & (lam <= hi)], lam[(lam >= lo) & (lam <= hi)])
            for lo, hi in ((-0.75, -0.25), (-0.25, 0.25), (0.25, 0.75))
        ]
    )
    l1 = float(np.abs(hist_frac - cav).sum())
    detail = f"converged {frac:.2%}; Herglotz={herglotz}; mass {mass:.4f}; L1 {l1:.4f}"
    check(
        "criterion 9",
        frac >= 0.95 and herglotz and 0.9 <= mass <= 1.1 and l1 <= 0.25,
        detail,
    )


def test_criterion_10_special_function_suite():
    # gamma identities to 1e-10 relative, continuous argument tracking,
    # and the line derivative against centered differences to 1e-6
    worst_identity = 0.0
    zs = [complex(x, y) for x in (-1.3, -0.4, 0.7, 2.5) for y in (0.1, 1.0, 10.0)]
    for z in zs:
        gz = np.exp(log_gamma_complex(z))
        conj_gap = abs(np.exp(log_gamma_complex(z.conjugate())) - gz.conjugate()) / abs(gz)
        rec_gap = abs(np.exp(log_gamma_complex(z + 1)) - z * gz) / abs(z * gz)
        refl = math.pi / complex(np.sin(complex(math.pi) * z))
        refl_gap = abs(gz * np.exp(log_gamma_complex(1 - z)) - refl) / abs(refl)
        worst_identity = max(worst_identity, conj_gap, rec_gap, refl_gap)

    worst_jump = 0.0
    for alpha in (0.2, 0.5, 0.8):
        args = [gamma_line(alpha, w).imag for w in np.linspace(0.0, 5.0, 2001)]
        worst_jump = max(worst_jump, float(np.abs(np.diff(args)).max()))

    worst_fd = 0.0
    h = 1e-5
    for alpha in (0.2, 0.5, 0.8):
        for omega in (0.01, 0.2, 0.7, 1.5, 5.0):
            fd = (
                gamma_line(alpha, omega + h).imag
                - gamma_line(alpha, omega - h).imag
            ) / (2 * h)
            worst_fd = max(worst_fd, abs(digamma_line_derivative(alpha, omega) - fd))

    detail = f"identities {worst_identity:.2e}; max arg step {worst_jump:.4f}; fd gap {worst_fd:.2e}"
    check(
        "criterion 10 (suite)",
        worst_identity <= 1e-10 and worst_jump < 0.1 and worst_fd <= 1e-6,
        detail,
    )


def test_criterion_10_stationary_point():
    # |f'(omega_alpha)| < 0.05 at the closed-form plateau frequency
    vals = []
    for alpha in (0.2, 0.5, 0.8):
        from msmlab.spectrum import stationary_point

        sp = stationary_point(alpha)
        vals.append(abs(digamma_line_derivative(alpha, sp.omega_alpha)))
    detail = "|f'(omega_alpha)|: " + ", ".join(f"{v:.6f}" for v in vals)
    check("criterion 10 (stationary)", all(v < 0.05 for v in vals), detail)


def test_criterion_11_desk_scale_exclusions():
    # two effects are out of reach at desk scale and carried as loose
    # checks only: the k* ~ ln n proportionality constant (order of
    # magnitude only) and any alpha refinement of the bulk-edge
    # prefactor (the envelope test uses the crude constant)
    sizes = (10**3, 10**4, 10**5)
    stars = [k_star_estimate(n, 0.5) for n in sizes]
    ratios = [k / math.log(n) for k, n in zip(stars, sizes)]
    band_ok = all(0.2 <= r <= 5.0 for r in ratios)
    monotone = stars == sorted(stars)
    detail = (
        f"k* = {stars} at n = 1e3/1e4/1e5, k*/ln n = "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + "; excluded: k* constant (loose band only), alpha-dependence of edge prefactor"
    )
    check("criterion 11", band_ok and monotone, detail)
