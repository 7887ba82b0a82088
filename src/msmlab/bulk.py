"""Measured bulk edges and the cavity Stieltjes solver.

The noise part is H = A - P, and the measured edge is ||H|| averaged
over independently sampled realizations.

No n x n array is made here. P is a model.KernelOperator throughout:
each realization's A is a sparse draw, ||H|| is a Lanczos solve on
v -> A v - P v, and the cavity sweep multiplies by P through its
near/far split.

The resolvent is taken of M/sqrt(n) using G = (M - z)^(-1), so
Im S(z) > 0 on the upper half plane and the boundary density is
recovered as (1/pi) Im S(lambda + i eta). The cavity equation is the
annealed mean-field equation on the expected kernel P (Rogers, Perez
Castillo, Kuhn & Takeda, Phys. Rev. E 78, 031116, 2008), not on a
sampled A. On the sqrt(n) scale its density tends to the free
Lorentzian (eta/pi)/(lambda^2 + eta^2) as n grows: on [-0.75, 0.75] at
eta = 0.05 the L1 distance is 0.059 / 0.026 / 0.011 at n = 1024 / 4096 /
16384 for alpha = 0.2, 0.105 / 0.044 / 0.018 for alpha = 0.5 and
0.274 / 0.121 / 0.050 for alpha = 0.8. It meets the eta-smoothed
spectrum of a draw's H/sqrt(n) at eta = 0.05 (L1 <= 0.016 at n = 4096),
but not at the bulk's own scale: at eta = 0.001 the L1 is 0.28 / 0.42
for alpha = 0.5 / 0.8.

The density `bulk --density` writes is byte-reproducible at fixed code
and BLAS thread count. A change to the solver's arithmetic moves it only
within the stop rule: reordered sums moved rho_H by up to 1.4e-12 at
unchanged sweep counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import KernelOperator, sample_sparse_adjacency
from .numeric import noise_norm

__all__ = [
    "StieltjesSolution",
    "measure_bulk_edge",
    "edge_samples",
    "cavity_solve",
]

# Anderson history length of cavity_solve
_ANDERSON_DEPTH = 5
# sweeps after which cavity_solve flags a grid point as not converged
_MAX_SWEEPS = 5000


@dataclass(frozen=True)
class StieltjesSolution:
    """Fixed point of the cavity equation on one z-grid.

    density is the Plemelj boundary value (1/pi) Im S_n, which is
    non-negative wherever the solve converged; converged and iterations
    are per grid point, and non-converged points keep their last iterate
    rather than raising. steps holds each sweep's damped step size per
    grid point, 0 for points already converged.
    """

    z_grid: np.ndarray  # complex, Im z = eta > 0
    g_per_node: np.ndarray  # nodes x grid
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
    product to about 1e-14 and holds no n x n array. Only its shape and
    matmat are used, so any operator scipy's aslinearoperator returns will
    do, and that of the dense P gives the dense reference. z_grid holds real
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
    squares. With no history this is the plain damped step, which every
    point takes on its first sweep and whenever its residual max_i |r_i|
    grows, dropping its history. A point stops once damping * max_i |r_i|
    falls below tol > 0, the size of a damped step, which the solution
    keeps per sweep; a point still running after 5000 sweeps is flagged,
    never raised.

    Only running points are held, one row of n per point, and the rows
    are moved up in place as points stop. Each point's history is a ring
    of five slots written in place every sweep: dR, and dG + damping dR,
    the one combination the mix reads, with the Gram matrix of the dR
    gaining one row and column per sweep. With g_per_node that is
    16 n grid (1 + 2 * 5 + 1) bytes; a solve at n = 4096 on 15 points
    peaked at 18-19 times 16 n grid bytes under tracemalloc, the rest
    being the sweep's product and residual.
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

    n = kernel.shape[0]
    nz = z.size
    depth = _ANDERSON_DEPTH
    g_per_node = np.empty((n, nz), dtype=complex)
    # running points only, one row each, compacted in place as points stop:
    # the iterate, its last residual size, and a ring of `depth` slots of
    # dR and dG + damping dR with their Gram matrix; between sweeps the slot
    # due next holds -r and -g, so the next sweep's r and g complete it
    idx = np.arange(nz)
    g = np.empty((nz, n), dtype=complex)
    g[:] = (0j - 1.0 / z)[:, None]  # free initialization
    last_size = np.full(nz, -np.inf)  # so the first sweep starts every history
    ring_r = np.zeros((nz, depth, n), dtype=complex)
    ring_mix = np.zeros_like(ring_r)
    gram = np.zeros((nz, depth, depth), dtype=complex)
    iterations = np.zeros(nz, dtype=int)
    converged = np.zeros(nz, dtype=bool)
    steps: list[np.ndarray] = []
    for it in range(1, _MAX_SWEEPS + 1):
        # Phi is real-linear in g: one real product on the interleaved (re, im)
        # columns, times 1/n: the rounding of numpy's complex division by n
        phi = (kernel.matmat(np.ascontiguousarray(g.T).view(float)) * (1.0 / n)).view(complex)
        r = np.add(z[idx, None], phi.T, out=np.empty_like(g))
        del phi
        np.divide(-1.0, r, out=r)
        r -= g
        size = np.abs(r).max(axis=1)
        restart = size > last_size  # the residual grew: take the damped step
        last_size = size
        slot = it % depth
        dr, mix = ring_r[:, slot], ring_mix[:, slot]
        dr += r
        mix += g
        mix += damping * dr
        # the Gram matrix gains the new dR's row and column
        gram[:, slot] = (ring_r @ dr.conj()[:, :, None])[:, :, 0]
        gram[:, :, slot] = gram[:, slot].conj()
        ring_r[restart] = ring_mix[restart] = gram[restart] = 0.0
        # gamma minimizes |r - dR gamma| through the normal equations; the
        # pseudo-inverse gives zero and near-dependent slots no weight
        gamma = np.linalg.pinv(gram, hermitian=True) @ (ring_r @ r.conj()[:, :, None]).conj()
        mixed = (gamma.transpose(0, 2, 1) @ ring_mix)[:, 0]
        np.negative(r, out=ring_r[:, (it + 1) % depth])
        np.negative(g, out=ring_mix[:, (it + 1) % depth])
        g += damping * r
        g -= mixed
        delta = damping * size
        iterations[idx] = it
        steps.append(np.zeros(nz))
        steps[-1][idx] = delta
        done = delta < tol
        if done.any():
            converged[idx[done]] = True
            g_per_node[:, idx[done]] = g[done].T
            keep = np.flatnonzero(~done)
            for to, at in enumerate(keep):
                if to != at:
                    g[to], ring_r[to], ring_mix[to], gram[to] = g[at], ring_r[at], ring_mix[at], gram[at]
            g, ring_r, ring_mix, gram = g[: keep.size], ring_r[: keep.size], ring_mix[: keep.size], gram[: keep.size]
            idx, last_size = idx[keep], last_size[keep]
            if not idx.size:
                break
    g_per_node[:, idx] = g.T  # the points still running after the last sweep

    S = g_per_node.mean(axis=0)
    return StieltjesSolution(
        z_grid=z,
        g_per_node=g_per_node,
        S_n=S,
        density=np.imag(S) / math.pi,
        iterations=iterations,
        converged=converged,
        steps=np.array(steps),
    )
