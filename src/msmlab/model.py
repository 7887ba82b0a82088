"""Model instances: fitness weights, expected kernel P, adjacency A.

Nodes carry Pareto(alpha) fitness weights x >= 1 and connect independently
with probability p_ij = 1 - exp(-eps_n x_i x_j), eps_n = n^(-1/alpha), with
no self loops. The weights are either iid draws or the deterministic
quantile mapping x_j = (n/j)^(1/alpha), sorted descending in both cases so
index 1 is the largest hub.

KernelOperator applies P and reads its rows without an n x n array; the
adjacency sampler, and the norms and solvers elsewhere, take P in that
form. expected_matrix builds the dense array only for the eigensolves,
and coarse_grain holds only log(1 - P) of the permuted weights. All three
evaluate each entry through one formula, so they agree to the bit where
they overlap.

A has one form, the sparse 0/1 CSR array of sample_sparse_adjacency,
with sorted column indices and no duplicates. compare takes A's whole
spectrum from its quotient over rows with one neighbour set, so only its
eigh fallback takes A's toarray().

Randomness uses the counter-based Philox generator with one child stream
per (purpose, realization) key, so each draw is a pure function of its
seed and key and never of which draws ran before it. Stream purposes:

    0  fitness draws
    1  adjacency sampling, one stream per realization
    2  coarse-graining partition shuffles

The sampler tests the operator's near pairs one uniform each and draws
the far pairs, where y_i y_j < 0.1, as a Poisson split: far row i throws
Poisson(y_i T_i) points over its suffix, T_i = sum of its y_j, each point
landing on j with probability y_j / T_i, so pair (i, j) is hit with
probability 1 - exp(-y_i y_j) exactly (Norros & Reittu, Adv. Appl. Probab.
38, 59-75, 2006). A draw costs O(n + m) for m edges.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "WEIGHT_MODES",
    "STREAM_FITNESS",
    "STREAM_ADJACENCY",
    "STREAM_PARTITION",
    "ModelParams",
    "FitnessVector",
    "SymmetricMatrix",
    "KernelOperator",
    "stream_rng",
    "gen_fitness",
    "expected_matrix",
    "sample_sparse_adjacency",
    "coarse_grain",
]

WEIGHT_MODES = ("iid_pareto", "deterministic")

STREAM_FITNESS = 0
STREAM_ADJACENCY = 1
STREAM_PARTITION = 2

# KernelOperator's near/far split. Pairs with y_i y_j < _FAR_CUT take the
# series of 1 - exp(-t) to _FAR_TERMS terms; the remainder t^15/15! < 1e-27
# lies far below rounding. Rows and columns with y > _HUB_Y stay exact, so
# y^_FAR_TERMS <= 1e196 and no far-field product can overflow.
_FAR_CUT = 0.1
_FAR_TERMS = 14
_HUB_Y = 1e14

# 1 - exp(-t) rounds to 1 for t > 54 ln 2, so with eps_n at least this an
# x_i x_j that overflows to inf gives p = 1 exactly
_EPSILON_FLOOR = 54.0 * math.log(2.0) / np.finfo(float).max


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for the child stream addressed by key."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass(frozen=True)
class ModelParams:
    n: int
    alpha: float
    epsilon_n: float = field(init=False)  # the scaling n^(-1/alpha)
    seed: int = 0
    weight_mode: str = "deterministic"

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight_mode {self.weight_mode!r}")
        object.__setattr__(self, "epsilon_n", float(self.n) ** (-1.0 / self.alpha))
        if not self.epsilon_n > 0.0:
            raise ValueError(f"n^(-1/alpha) underflows to 0 for n={self.n}, alpha={self.alpha}")
        if self.epsilon_n < _EPSILON_FLOOR:
            raise ValueError(
                f"n^(-1/alpha) = {self.epsilon_n:.3g} for n={self.n}, alpha={self.alpha} is below "
                f"{_EPSILON_FLOOR:.3g}, where an overflowing x_i x_j no longer means p = 1"
            )


@dataclass(frozen=True)
class FitnessVector:
    """Weights sorted descending; x[0] is the hub."""

    x: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        if x.ndim != 1 or x.size < 1:
            raise ValueError("fitness vector must be a nonempty 1-d array")
        if not np.isfinite(x).all():
            raise ValueError(f"fitness weights must be finite, got {x[~np.isfinite(x)][0]}")
        if not np.all(x >= 1.0):
            raise ValueError("fitness weights must be >= 1")
        if np.any(np.diff(x) > 0.0):
            raise ValueError("fitness weights must be sorted descending")

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class SymmetricMatrix:
    """A read-only dense kernel matrix from expected_matrix or coarse_grain.

    Symmetric to the bit, with a zero diagonal and entries in [0, 1], by
    how those builders compute it; nothing checks it again.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def gen_fitness(params: ModelParams) -> FitnessVector:
    """Draw or construct the weight vector for params, sorted descending."""
    n, alpha = params.n, params.alpha
    if params.weight_mode == "deterministic":
        j = np.arange(1, n + 1, dtype=float)
        x = (n / j) ** (1.0 / alpha)
    else:
        u = stream_rng(params.seed, STREAM_FITNESS).random(n)
        with np.errstate(over="ignore"):  # FitnessVector refuses the inf
            x = u ** (-1.0 / alpha)
        x = np.sort(x)[::-1]
    return FitnessVector(x=x)


def _kernel(epsilon_n: float, xi: np.ndarray, xj: np.ndarray) -> np.ndarray:
    """p = 1 - exp(-eps_n x_i x_j), in the one rounding every P form shares.

    Evaluated in place in the product's array, so a dense P, or the
    permuted P that coarse_grain takes logs of, holds no n x n temporary
    beside its result. A product that overflows to inf gives p = 1, which
    ModelParams' floor on eps_n makes exact.
    """
    with np.errstate(over="ignore"):
        t = xi * xj
    t *= -epsilon_n
    np.expm1(t, out=t)
    return np.negative(t, out=t)


def expected_matrix(x: FitnessVector, epsilon_n: float) -> SymmetricMatrix:
    """P_ij = 1 - exp(-eps_n x_i x_j) off the diagonal, P_ii = 0."""
    if not epsilon_n > 0.0:
        raise ValueError(f"epsilon_n must be > 0, got {epsilon_n}")
    p = _kernel(epsilon_n, x.x[:, None], x.x[None, :])
    np.fill_diagonal(p, 0.0)
    # each entry is a function of the commutative product x_i x_j, the
    # diagonal is zeroed, and -expm1 of a non-positive argument lies in [0, 1]
    return SymmetricMatrix(p)


class KernelOperator:
    """The expected kernel P of expected_matrix, applied without an n x n array.

    With y = sqrt(eps_n) x, sorted descending, p_ij = 1 - exp(-y_i y_j).
    Row i's pairs with y_i y_j < s0 = 0.1 form a suffix j >= J_i, on which

        sum_{j >= J_i} p_ij v_j = sum_{m <= 14} (-1)^(m+1) y_i^m S_m(J_i) / m!

    with S_m(J) = sum_{j >= J} y_j^m v_j, summed from the smallest y up.
    The near pairs j < J_i are a CSR block evaluated exactly, through the
    formula expected_matrix uses; the diagonal is left out of both parts.
    Rows and columns with y > 1e14 are wholly near, so no power overflows.
    A product costs two sparse products of 14 n entries plus the near
    block, which holds 0.3-1.5 % of the n^2 pairs at n = 4096 for alpha in
    [0.2, 0.8], and matches the dense product to about 1e-14 of its
    largest entry. Its shape, dtype and matvec let scipy's
    aslinearoperator, and so eigsh and operator sums, take it as it is.
    """

    dtype = np.dtype(float)

    def __init__(self, x: FitnessVector, epsilon_n: float) -> None:
        # imported here: the CLI paths that never build an operator stay scipy-free
        import scipy.sparse

        if not epsilon_n > 0.0:
            raise ValueError(f"epsilon_n must be > 0, got {epsilon_n}")
        xs = x.x
        n = xs.size
        self.n = n
        self.shape = (n, n)
        y = math.sqrt(epsilon_n) * xs
        self._y = y
        hubs = int(np.count_nonzero(y > _HUB_Y))
        # J_i counts the j with y_j >= s0 / y_i; y descends, so -y ascends
        cut = np.maximum(np.searchsorted(-y, -_FAR_CUT / y, side="right"), hubs)
        cut[:hubs] = n

        rows = np.arange(n)
        # row i's far pairs above the diagonal are j >= max(J_i, i + 1); n if none
        self._far_start = np.maximum(cut, rows + 1)
        counts = cut - (rows < cut)  # the diagonal is not stored
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(counts, out=indptr[1:])
        row_of = np.repeat(rows, counts)
        pos = np.arange(indptr[-1]) - np.repeat(indptr[:-1], counts)
        near_cols = pos + (pos >= row_of)  # step over the diagonal
        data = _kernel(epsilon_n, xs[row_of], xs[near_cols])
        self._near = scipy.sparse.csr_array((data, near_cols, indptr), shape=(n, n))

        # The distinct suffix starts cut the far columns into segments. One
        # sparse product stacks each segment's sums of y_j^m v_j, slot
        # (m, d); a reverse cumsum over d turns them into S_m(starts[d]);
        # a second gathers each far row's terms. Columns before the first
        # start, hubs among them, lie in no far suffix.
        far = np.flatnonzero(cut < n)  # never a hub row
        starts = np.unique(cut[far])
        cols = np.arange(starts[0] if starts.size else n, n)
        power = np.arange(1, _FAR_TERMS + 1)[:, None]
        coef = (-1.0) ** (power + 1) / np.cumprod(power, axis=0)

        def slot(d: np.ndarray) -> np.ndarray:
            return ((power - 1) * starts.size + d).ravel()

        self._segment_powers = scipy.sparse.csr_array(
            (
                (y[cols] ** power).ravel(),
                (slot(np.searchsorted(starts, cols, side="right") - 1), np.tile(cols, _FAR_TERMS)),
            ),
            shape=(_FAR_TERMS * starts.size, n),
        )
        self._far_coef = scipy.sparse.csr_array(
            (
                (coef * y[far] ** power).ravel(),
                (np.tile(far, _FAR_TERMS), slot(np.searchsorted(starts, cut[far]))),
            ),
            shape=(n, _FAR_TERMS * starts.size),
        )
        # the far sum runs over the whole suffix, so a row inside its own
        # suffix takes its diagonal term back out
        inside = rows >= cut
        self._diag = np.zeros(n)
        self._diag[inside] = -np.expm1(-y[inside] ** 2)

    def matmat(self, v: np.ndarray) -> np.ndarray:
        """P V for an n x k block, as a C-contiguous n x k array."""
        v = np.asarray(v, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.n:
            raise ValueError(f"need an ({self.n}, k) block, got shape {v.shape}")
        k = v.shape[1]
        sums = (self._segment_powers @ v).reshape(_FAR_TERMS, -1, k)
        # summed from the smallest y up: suffix[m, d] = S_m(starts[d])
        suffix = np.cumsum(sums[:, ::-1], axis=1)[:, ::-1].reshape(-1, k)
        out = np.ascontiguousarray(self._near @ v)
        out += self._far_coef @ suffix
        out -= self._diag[:, None] * v
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """P v for a length-n vector, as an n x 1 block."""
        return self.matmat(np.reshape(v, (self.n, 1)))


def sample_sparse_adjacency(
    kernel: KernelOperator, seed: int, realization: int = 0
) -> scipy.sparse.csr_array:
    """One adjacency draw from P as a symmetric scipy CSR array of 0/1 entries.

    Every number comes from the one stream (seed, STREAM_ADJACENCY,
    realization), so realizations of a seed are independent and each is
    reproducible alone. The near pairs i < j of the operator's CSR block
    take one uniform each, in CSR order, and are kept where u < p_ij, p_ij
    to the bit as expected_matrix stores it. Far row i throws
    Poisson(y_i T_i) points, T_i = sum_{j >= s_i} y_j over its far pairs
    j >= s_i, each landing on j with probability y_j / T_i through one
    searchsorted on the suffix sums of y, summed from the smallest y up.
    Pair (i, j) then takes Poisson(y_i y_j) points independently of every
    other pair, and is an edge when it takes any: with probability
    1 - exp(-y_i y_j) = p_ij. Only near pairs and points are visited.
    """
    import scipy.sparse

    n = kernel.n
    rng = stream_rng(seed, STREAM_ADJACENCY, realization)
    near = kernel._near
    indptr = near.indptr
    # row i's columns run from 0 past the diagonal, so its pairs j > i are
    # the tail of its CSR row from indptr[i] + i, empty where J_i <= i
    first = np.minimum(indptr[:-1] + np.arange(n), indptr[1:])
    tail = indptr[1:] - first
    # a mask of the tails, so no index array spans the block
    upper = np.repeat(np.tile([False, True], n), np.column_stack([first - indptr[:-1], tail]).ravel())
    kept = np.zeros_like(upper)
    kept[upper] = rng.random(tail.sum()) < near.data[upper]
    hits = np.flatnonzero(kept)
    hit_rows = np.searchsorted(indptr, hits, side="right") - 1

    y, start = kernel._y, kernel._far_start
    far = np.flatnonzero(start < n)
    # suffix[k] = T(n - 1 - k), the sum of y_j over j >= n - 1 - k
    suffix = np.cumsum(y[start.min() :][::-1])
    last = n - 1 - start[far]  # the suffix slot of each far row's T_i
    total = suffix[last]
    points = rng.poisson(y[far] * total)
    u = rng.random(points.sum()) * np.repeat(total, points)
    # the first slot whose sum passes u; a u that rounds up to T_i stays in range
    slot = np.minimum(np.searchsorted(suffix, u, side="right"), np.repeat(last, points))

    i = np.concatenate([hit_rows, np.repeat(far, points)])
    j = np.concatenate([near.indices[hits], n - 1 - slot])
    both = (np.concatenate([i, j]), np.concatenate([j, i]))
    A = scipy.sparse.csr_array((np.ones(2 * i.size), both), shape=(n, n))
    A.data[:] = 1.0  # the constructor sums duplicates: a pair hit by several points is one edge
    return A


def coarse_grain(
    x: FitnessVector,
    epsilon_n: float,
    block_size: int,
    partition: str = "contiguous",
    seed: int = 0,
) -> tuple[FitnessVector, SymmetricMatrix]:
    """Aggregate nodes into supernodes of equal size and induce the kernel.

    Supernode I gets X_I = sum of its member weights, and the induced
    connection probability is the exact complement product

        P'_IJ = 1 - prod_{i in I, j in J} (1 - p_ij),  I != J,

    which for this kernel collapses algebraically to 1 - exp(-eps X_I X_J):
    the model is closed under homogeneous aggregation. The product is
    evaluated here as written (in log space), not through the closed form,
    so the invariance stays a checkable statement. The diagonal of the
    induced matrix is zero, as in expected_matrix.

    partition is "contiguous" (blocks of the descending sort order) or
    "random" (seeded uniform shuffle into equal blocks).
    """
    n = x.n
    b = block_size
    if b < 1 or n % b != 0:
        raise ValueError(f"block size {b} must divide n = {n}")
    if partition == "contiguous":
        order = np.arange(n)
    elif partition == "random":
        order = stream_rng(seed, STREAM_PARTITION).permutation(n)
    else:
        raise ValueError(f"unknown partition {partition!r}")
    nb = n // b
    xo = x.x[order]
    # log(1 - p) of the permuted P, in place: each entry comes from the
    # same product x_i x_j as expected_matrix's, so it is the same to the bit
    lp = _kernel(epsilon_n, xo[:, None], xo[None, :])
    np.fill_diagonal(lp, 0.0)
    np.negative(lp, out=lp)
    with np.errstate(divide="ignore"):
        # saturated entries (p = 1 at double precision) give log 0 = -inf,
        # which propagates to P' = 1 for any block containing them
        np.log1p(lp, out=lp)
    coarse = lp.reshape(nb, b, nb, b).sum(axis=(1, 3))
    del lp  # at b = 1 the sums are n x n too: keep at most two such arrays live
    np.expm1(coarse, out=coarse)
    np.negative(coarse, out=coarse)
    np.fill_diagonal(coarse, 0.0)
    big_x = xo.reshape(nb, b).sum(axis=1)
    rank = np.argsort(-big_x, kind="stable")
    big_x = big_x[rank]
    coarse = coarse[np.ix_(rank, rank)]
    # coarse[I, J] adds the terms of coarse[J, I] in another order, so the
    # two can differ in the last bit; permuting both axes alike keeps
    # symmetry exact
    coarse += coarse.T
    coarse *= 0.5
    # re-mirrored, zero diagonal, and -expm1 of a log-sum <= 0 lies in [0, 1]
    return FitnessVector(x=big_x), SymmetricMatrix(coarse)
