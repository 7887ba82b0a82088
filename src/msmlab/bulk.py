"""Measured bulk edges and Stieltjes solvers.

The noise part is H = A - P, and the measured edge is ||H|| averaged
over independently sampled realizations.

No n x n array is made here. P is a model.KernelOperator throughout:
each realization's A is a sparse draw, ||H|| is a Lanczos solve on
v -> A v - P v, and the cavity sweep multiplies by P through its
near/far split.

The two Stieltjes solvers share one convention: the resolvent is taken of
M/sqrt(n) using G = (M - z)^(-1), so Im S(z) > 0 on the upper half plane
and the boundary density is recovered as (1/pi) Im S(lambda + i eta).
They share one Anderson-mixed loop too. The cavity solver iterates the
kernel-weighted self-consistency over the n sampled weights; the Poisson
solver iterates it with no 1/n and with the l = k term, on a
KernelOperator of the atoms y_k = Gamma_k^(-1/alpha) of the limit process,
which ppp_sample returns as a plain array, largest first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (
    STREAM_PPP,
    FitnessVector,
    KernelOperator,
    sample_sparse_adjacency,
    stream_rng,
)
from .numeric import noise_norm

__all__ = [
    "StieltjesSolution",
    "measure_bulk_edge",
    "edge_samples",
    "cavity_solve",
    "ppp_sample",
    "ppp_fixed_point",
]

# Anderson history length of the Stieltjes solvers; 0 gives the plain damped map
_ANDERSON_DEPTH = 5
# sweeps after which the Stieltjes solvers flag a grid point as not converged
_MAX_SWEEPS = 5000


@dataclass(frozen=True)
class StieltjesSolution:
    """Fixed point of the cavity or atom equation on one z-grid.

    density is the Plemelj boundary value (1/pi) Im S_n, which is
    non-negative wherever the solve converged; converged and iterations
    are per grid point, and non-converged points keep their last iterate
    rather than raising. steps holds each sweep's damped step size per
    grid point, 0 for points already converged.
    """

    z_grid: np.ndarray  # complex, Im z = eta > 0
    g_per_node: np.ndarray  # nodes (or atoms) x grid
    S_n: np.ndarray  # grid, (1/n) sum_i g_i
    density: np.ndarray  # grid, (1/pi) Im S_n
    iterations: np.ndarray  # grid, ints
    converged: np.ndarray  # grid, bools
    steps: np.ndarray  # sweeps x grid


def edge_samples(kernel: KernelOperator, realizations: int, seed: int) -> np.ndarray:
    """||H|| for `realizations` independent adjacency draws from P.

    Each A is sampled sparse from the operator and its ||A - P|| taken by
    noise_norm, so no n x n array is made. Realization r is the adjacency
    stream (seed, r), so realization 0 is compare's draw for the seed and
    no realization of one seed repeats a draw of another.
    """
    if realizations < 1:
        raise ValueError(f"need at least one realization, got {realizations}")
    out = np.empty(realizations)
    for r in range(realizations):
        out[r] = noise_norm(sample_sparse_adjacency(kernel, seed, r), kernel)
    return out


def measure_bulk_edge(kernel: KernelOperator, realizations: int, seed: int) -> tuple[float, float]:
    """Mean and standard error of ||H|| over edge_samples' realizations from P."""
    edges = edge_samples(kernel, realizations, seed)
    if realizations == 1:
        return float(edges[0]), 0.0
    return float(edges.mean()), float(edges.std(ddof=1) / math.sqrt(realizations))


def _stieltjes_fixed_point(
    product: Callable[[np.ndarray], np.ndarray],
    n: int,
    z_grid: np.ndarray,
    eta: float,
    damping: float,
    tol: float,
) -> StieltjesSolution:
    """Anderson-mixed fixed point of g = -1 / (z + Phi(g)) on a z-grid.

    The loop of cavity_solve and ppp_fixed_point, mixed and stopped as
    cavity_solve describes. g is n x grid; product maps the real (re, im)
    view of a block of its columns to that view of Phi.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0,1], got {damping}")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    lam = np.asarray(z_grid, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("z_grid must be a nonempty 1-d real array")
    if not eta > 0.0:
        raise ValueError(f"eta must be > 0, got {eta}")
    z = lam + 1j * eta

    nz = z.size
    g = np.full((n, nz), 0j) - 1.0 / z  # free initialization
    # per grid point (row): the last iterate, residual and residual size, and
    # the Anderson history of their differences, newest first, zero-padded
    last_g = np.zeros((nz, n), dtype=complex)
    last_r = np.zeros_like(last_g)
    last_size = np.full(nz, -np.inf)  # so the first sweep starts every history
    hist_g = np.zeros((nz, _ANDERSON_DEPTH, n), dtype=complex)
    hist_r = np.zeros_like(hist_g)
    iterations = np.zeros(nz, dtype=int)
    converged = np.zeros(nz, dtype=bool)
    active = np.ones(nz, dtype=bool)
    steps: list[np.ndarray] = []
    for it in range(1, _MAX_SWEEPS + 1):
        idx = np.flatnonzero(active)
        g_act = np.ascontiguousarray(g[:, idx])
        # Phi is real-linear in g: one real product on the interleaved (re, im) columns
        phi = product(g_act.view(float)).view(complex)
        r = -1.0 / (z[idx] + phi) - g_act
        size = np.abs(r).max(axis=0)
        g_rows, r_rows = g_act.T, r.T
        dg = np.concatenate([(g_rows - last_g[idx])[:, None], hist_g[idx]], axis=1)[:, :_ANDERSON_DEPTH]
        dr = np.concatenate([(r_rows - last_r[idx])[:, None], hist_r[idx]], axis=1)[:, :_ANDERSON_DEPTH]
        restart = size > last_size[idx]  # the residual grew: take the damped step
        dg[restart] = dr[restart] = 0.0
        hist_g[idx], hist_r[idx] = dg, dr
        last_g[idx], last_r[idx], last_size[idx] = g_rows, r_rows, size
        # gamma minimizes |r - dR gamma| through the normal equations; the
        # pseudo-inverse gives zero and near-dependent slots no weight
        dr_h = dr.conj()
        gram = dr_h @ dr.transpose(0, 2, 1)
        gamma = np.linalg.pinv(gram, hermitian=True) @ (dr_h @ r_rows[:, :, None])
        mixed = (gamma.transpose(0, 2, 1) @ (dg + damping * dr))[:, 0]
        g[:, idx] = g_act + damping * r - mixed.T
        delta = damping * size
        iterations[idx] = it
        steps.append(np.zeros(nz))
        steps[-1][idx] = delta
        done = delta < tol
        converged[idx[done]] = True
        active[idx[done]] = False
        if not active.any():
            break

    S = g.mean(axis=0)
    return StieltjesSolution(
        z_grid=z,
        g_per_node=g,
        S_n=S,
        density=np.imag(S) / math.pi,
        iterations=iterations,
        converged=converged,
        steps=np.array(steps),
    )


def cavity_solve(
    kernel: KernelOperator,
    z_grid: np.ndarray,
    eta: float,
    damping: float = 0.5,
    tol: float = 1e-9,
) -> StieltjesSolution:
    """Anderson-mixed fixed point of the kernel self-consistency on a z-grid.

    kernel is the KernelOperator of P, whose entries
    p_ij = 1 - exp(-eps x_i x_j) weight the equation; it matches the dense
    product to about 1e-14 and holds no n x n array. z_grid holds real
    spectral positions lambda (on the M/sqrt(n) scale); each is lifted to
    lambda + i eta, with eta > 0.

    The map is

        F(g)_i = -1 / (z + (1/n) sum_{j != i} p_ij g_j)

    and each grid point is advanced by Anderson mixing of depth 5 with
    mixing parameter `damping` (Walker & Ni, SIAM J. Numer. Anal. 49,
    2011): with r = F(g) - g, the next iterate is

        g + damping r - (dG + damping dR) gamma,

    where the columns of dG and dR are the differences of the last five
    iterates and residuals and gamma minimizes |r - dR gamma| in least
    squares. With no history this is the plain damped step, and depth 0
    is the plain damped map. A grid point whose residual max_i |r_i|
    grows drops its history and takes the damped step. A point stops
    once damping * max_i |r_i| falls below tol > 0, the size of a damped
    step, which the solution keeps per sweep; a point still running after
    5000 sweeps is flagged, never raised.
    """
    n = kernel.n
    # times 1/n: the rounding of numpy's complex division by n
    return _stieltjes_fixed_point(lambda v: kernel.matmat(v) * (1.0 / n), n, z_grid, eta, damping, tol)


def ppp_sample(alpha: float, K: int, seed: int) -> np.ndarray:
    """The first K atoms y_k = Gamma_k^(-1/alpha) of the limiting point process.

    Gamma_k is the partial sum of iid standard exponentials, so the atoms
    come largest first and the count of atoms above u is Poisson with mean
    u^(-alpha). E[y_k] ~ k^(-1/alpha), so the integral tail bound puts the
    expected weight sum_{k > K} y_k that the truncation leaves out at
    alpha/(1-alpha) * K^(-(1-alpha)/alpha).
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    e = stream_rng(seed, STREAM_PPP).standard_exponential(K)
    return np.cumsum(e) ** (-1.0 / alpha)


def ppp_fixed_point(
    atoms: np.ndarray,
    z_grid: np.ndarray,
    eta: float,
    damping: float = 0.5,
    tol: float = 1e-9,
) -> StieltjesSolution:
    """Fixed point of the atom self-consistency on a z-grid.

    atoms are the y_k of ppp_sample, a nonempty 1-d array sorted
    descending with a positive last entry. Solves g(y_k) = -1/(z + Phi_k)
    with Phi_k = sum_l g(y_l)(1 - e^(-y_k y_l)) over the truncated atom
    set, the sum including l = k since the limit equation integrates over
    the whole process. That is the cavity equation on the atoms without
    its 1/n, so cavity_solve's loop runs it on the KernelOperator with
    sqrt(eps) x = y, plus the l = k term it leaves out. z_grid and eta are
    as in cavity_solve; S_n is the plain mean of g over the atoms.
    """
    y = np.asarray(atoms, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError(f"atoms must be a nonempty 1-d array, got shape {y.shape}")
    if np.any(np.diff(y) > 0.0):
        raise ValueError("atoms must descend, largest first (ties allowed)")
    if not y[-1] > 0.0:
        raise ValueError(f"the last atom must be > 0, got {y[-1]}")
    # the atoms descend, so the last is the smallest and every weight is >= 1
    kernel = KernelOperator(FitnessVector(y / y[-1]), y[-1] ** 2)
    diag = -np.expm1(-(y * y))[:, None]
    return _stieltjes_fixed_point(lambda v: kernel.matmat(v) + diag * v, y.size, z_grid, eta, damping, tol)
