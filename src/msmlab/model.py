"""Model instances: fitness weights, expected kernel P, adjacency A, noise H.

Nodes carry Pareto(alpha) fitness weights x >= 1 and connect independently
with probability p_ij = 1 - exp(-eps_n x_i x_j), eps_n = n^(-1/alpha), with
no self loops. The weights are either iid draws or the deterministic
quantile mapping x_j = (n/j)^(1/alpha), sorted descending in both cases so
index 1 is the largest hub.

Randomness uses the counter-based Philox generator with one child stream
per (purpose, row) pair, so adjacency rows can be sampled in any order, or
in parallel, without changing the result. Stream purposes:

    0  fitness draws
    1  adjacency sampling, one stream per row
    2  coarse-graining partition shuffles
    3  Poisson process atoms (used by the bulk solvers)
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WEIGHT_MODES",
    "MATRIX_KINDS",
    "STREAM_FITNESS",
    "STREAM_ADJACENCY",
    "STREAM_PARTITION",
    "STREAM_PPP",
    "ModelParams",
    "FitnessVector",
    "SymmetricMatrix",
    "stream_rng",
    "gen_fitness",
    "expected_matrix",
    "sample_adjacency",
    "noise_matrix",
    "coarse_grain",
]

WEIGHT_MODES = ("iid_pareto", "deterministic")
MATRIX_KINDS = ("expected_P", "adjacency_A", "noise_H")

STREAM_FITNESS = 0
STREAM_ADJACENCY = 1
STREAM_PARTITION = 2
STREAM_PPP = 3


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for the child stream addressed by key."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass(frozen=True)
class ModelParams:
    n: int
    alpha: float
    epsilon_n: float | None = None  # None means the scaling default n^(-1/alpha)
    seed: int = 0
    weight_mode: str = "deterministic"

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight_mode {self.weight_mode!r}")
        if self.epsilon_n is None:
            object.__setattr__(self, "epsilon_n", float(self.n) ** (-1.0 / self.alpha))
        if not self.epsilon_n > 0.0:
            raise ValueError(f"epsilon_n must be > 0, got {self.epsilon_n}")


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
        if not np.all(x >= 1.0):
            raise ValueError("fitness weights must be >= 1")
        if np.any(np.diff(x) > 0.0):
            raise ValueError("fitness weights must be sorted descending")

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class SymmetricMatrix:
    """A symmetric n x n matrix with zero diagonal, tagged by its role.

    The constructor is the checked boundary for matrices made outside this
    module: it rejects a non-square array, asymmetry to the bit, a nonzero
    diagonal and entries outside the kind's range, all O(n^2) passes.
    expected_matrix, sample_adjacency and coarse_grain build arrays whose
    invariants hold by how they are computed, so they wrap them through
    _built, which only makes the array read-only. noise_matrix keeps the
    checks, because its (-1, 1) range holds only when A was drawn from P.
    """

    entries: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        if self.kind not in MATRIX_KINDS:
            raise ValueError(f"unknown matrix kind {self.kind!r}")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"need a square matrix, got shape {m.shape}")
        if not np.array_equal(m, m.T):
            raise ValueError("matrix must be symmetric to the bit")
        if np.any(np.diagonal(m) != 0.0):
            raise ValueError("diagonal must be exactly zero")
        lo, hi = float(m.min()), float(m.max())
        # expected_P may round to exactly 1.0 at double precision once
        # eps_n x_i x_j exceeds ~37, so the closed interval is checked.
        if self.kind == "expected_P" and not (0.0 <= lo and hi <= 1.0):
            raise ValueError(f"expected_P entries outside [0,1]: [{lo},{hi}]")
        if self.kind == "adjacency_A" and not np.isin(m, (0.0, 1.0)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        if self.kind == "noise_H" and not (-1.0 < lo and hi < 1.0):
            raise ValueError(f"noise entries outside (-1,1): [{lo},{hi}]")

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def _built(cls, entries: np.ndarray, kind: str) -> SymmetricMatrix:
        """Wrap a float array that a builder here made valid by construction."""
        entries.setflags(write=False)
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "entries", entries)
        object.__setattr__(matrix, "kind", kind)
        return matrix


def gen_fitness(params: ModelParams) -> FitnessVector:
    """Draw or construct the weight vector for params, sorted descending."""
    n, alpha = params.n, params.alpha
    if params.weight_mode == "deterministic":
        j = np.arange(1, n + 1, dtype=float)
        x = (n / j) ** (1.0 / alpha)
    else:
        u = stream_rng(params.seed, STREAM_FITNESS).random(n)
        x = u ** (-1.0 / alpha)
        x = np.sort(x)[::-1]
    return FitnessVector(x=x)


def expected_matrix(x: FitnessVector, epsilon_n: float) -> SymmetricMatrix:
    """P_ij = 1 - exp(-eps_n x_i x_j) off the diagonal, P_ii = 0."""
    if not epsilon_n > 0.0:
        raise ValueError(f"epsilon_n must be > 0, got {epsilon_n}")
    p = -np.expm1(-epsilon_n * np.outer(x.x, x.x))
    np.fill_diagonal(p, 0.0)
    # each entry is a function of the commutative product x_i x_j, the
    # diagonal is zeroed, and -expm1 of a non-positive argument lies in [0, 1]
    return SymmetricMatrix._built(p, "expected_P")


def sample_adjacency(P: SymmetricMatrix, seed: int) -> SymmetricMatrix:
    """Independent Bernoulli(P_ij) for i < j, mirrored, zero diagonal.

    Each row i draws from its own child stream, so the sample does not
    depend on the order rows are processed in.
    """
    if P.kind != "expected_P":
        raise ValueError(f"need an expected_P matrix, got {P.kind}")
    n = P.n
    a = np.zeros((n, n))
    for i in range(n - 1):
        u = stream_rng(seed, STREAM_ADJACENCY, i).random(n - 1 - i)
        a[i, i + 1 :] = (u < P.entries[i, i + 1 :]).astype(float)
    a += a.T  # the upper triangle holds 0/1 draws and is mirrored
    return SymmetricMatrix._built(a, "adjacency_A")


def noise_matrix(A: SymmetricMatrix, P: SymmetricMatrix) -> SymmetricMatrix:
    """H = A - P, the zero-mean noise part of the adjacency."""
    if A.kind != "adjacency_A" or P.kind != "expected_P":
        raise ValueError(f"need (adjacency_A, expected_P), got ({A.kind}, {P.kind})")
    if A.n != P.n:
        raise ValueError(f"dimension mismatch: {A.n} vs {P.n}")
    return SymmetricMatrix(entries=A.entries - P.entries, kind="noise_H")


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
    induced matrix is zero like every other matrix kind.

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
    p = expected_matrix(x, epsilon_n).entries
    with np.errstate(divide="ignore"):
        # saturated entries (p = 1 at double precision) give log 0 = -inf,
        # which propagates to P' = 1 for any block containing them
        log_comp = np.log1p(-p)
    lp = log_comp[order][:, order]
    s = lp.reshape(nb, b, nb, b).sum(axis=(1, 3))
    coarse = -np.expm1(s)
    np.fill_diagonal(coarse, 0.0)
    big_x = x.x[order].reshape(nb, b).sum(axis=1)
    rank = np.argsort(-big_x, kind="stable")
    big_x = big_x[rank]
    coarse = coarse[rank][:, rank]
    coarse = 0.5 * (coarse + coarse.T)  # re-mirror after fancy indexing
    # re-mirrored, zero diagonal, and -expm1 of a log-sum <= 0 lies in [0, 1]
    return FitnessVector(x=big_x), SymmetricMatrix._built(coarse, "expected_P")
