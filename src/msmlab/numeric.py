"""Reference spectra and the prediction-vs-numerics comparison harness.

eig_top is the one eigensolver: Lanczos for the k largest |eigenvalues|
of an array or a matrix-free operator, and a dense solve for k >= n - 1.
||A - P|| is its k = 1 case on v -> A v - P v, with A the sparse draw and
P the KernelOperator, so H is never stored. The comparison builds dense
P, then dense A, only for their whole spectra, and keeps of each only
the eigenvectors matched to the analytic ladder.

Ordering convention: eigenvalues are sorted by descending magnitude, with
ties broken by descending signed value, and eigenvectors travel with their
eigenvalues. Rank k therefore means "k-th largest by |lambda|" everywhere
in this module, matching the k that indexes the analytic ladder.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse.linalg

from .eigenvectors import EigenvectorPrediction, eigenvector_entries
from .model import (
    KernelOperator,
    ModelParams,
    SymmetricMatrix,
    expected_matrix,
    gen_fitness,
    sample_sparse_adjacency,
)
from .spectrum import NoRootError, SpectralPrediction, solve_omega_k

__all__ = [
    "EigenDecomposition",
    "ComparisonRow",
    "ComparisonReport",
    "MatchedVectors",
    "CompareArtifacts",
    "reconstruction_residuals",
    "outliers",
    "effective_rank",
    "eig_top",
    "noise_norm",
    "compare_with_vectors",
]


@dataclass(frozen=True)
class EigenDecomposition:
    """Symmetric eigenpairs, magnitude-ordered: all n, or the top k with an (n, k) block."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        vecs = np.asarray(self.eigenvectors, dtype=float)
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvectors", vecs)
        if vecs.ndim != 2 or vecs.shape[1] != vals.size or vecs.shape[0] < vals.size:
            raise ValueError(f"eigenvector block {vecs.shape} does not hold {vals.size} eigenvectors")
        a = np.abs(vals)
        if np.any(a[:-1] < a[1:]):
            raise ValueError("eigenvalues must be sorted by descending magnitude")

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]


@dataclass(frozen=True)
class ComparisonRow:
    """One rank of the three-way ladder: analytic, expected P, sampled A.

    Relative errors put the reference value (first name) in the
    denominator. Prediction fields hold NaN past a no-root truncation;
    sign_ok is None there because no analytic sign exists to check.
    """

    k: int
    lambda_pred: float
    lambda_P: float
    lambda_A: float
    rel_err_pred_vs_P: float
    rel_err_P_vs_A: float
    cosine_sim_pred_vs_P: float
    cosine_sim_P_vs_A: float
    sign_ok: bool | None


@dataclass(frozen=True)
class ComparisonReport:
    params: ModelParams
    k_max: int
    rows: tuple[ComparisonRow, ...]
    bulk_edge_measured: float
    k_break: int | None  # smallest k with cosine_sim_P_vs_A < 0.9
    pred_truncated_at: int | None  # first k whose root bracket was empty


@dataclass(frozen=True)
class MatchedVectors:
    """The three vectors behind one comparison row."""

    k: int
    predicted: np.ndarray | None  # closed-form entries, None past truncation
    numerical_P: np.ndarray  # unit eigenvector of P matched to rank k
    numerical_A: np.ndarray  # unit eigenvector of A matched to rank k


@dataclass(frozen=True)
class CompareArtifacts:
    """Bulky by-products of a comparison run, kept out of the report."""

    vectors: tuple[MatchedVectors, ...]
    eigenvalues_P: np.ndarray  # full spectrum, magnitude-ordered
    eigenvalues_A: np.ndarray


def _as_entries(matrix: np.ndarray | SymmetricMatrix) -> np.ndarray:
    """The entries of a matrix; a plain array is checked here.

    A SymmetricMatrix passes unchecked: its constructor's range checks
    already exclude non-finite entries, and the builders cannot make them.
    """
    if isinstance(matrix, SymmetricMatrix):
        return matrix.entries
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"need a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must all be finite")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix must be symmetric")
    return m


def _by_magnitude(vals: np.ndarray, vecs: np.ndarray, k: int) -> EigenDecomposition:
    """The first k pairs by descending |lambda|, ties by descending signed value."""
    order = np.lexsort((-vals, -np.abs(vals)))[:k]
    return EigenDecomposition(vals[order], vecs[:, order])


def reconstruction_residuals(
    decomp: EigenDecomposition, matrix: np.ndarray | SymmetricMatrix
) -> np.ndarray:
    """Per-pair residuals ||M v_i - lambda_i v_i||_2.

    Each must stay below 1e-8 * (||M||_F / sqrt(n) + |lambda_i|) for the
    decomposition to count as faithful; callers assert that bound.
    """
    m = _as_entries(matrix)
    r = m @ decomp.eigenvectors - decomp.eigenvectors * decomp.eigenvalues
    return np.linalg.norm(r, axis=0)


def residual_tolerances(
    decomp: EigenDecomposition, matrix: np.ndarray | SymmetricMatrix
) -> np.ndarray:
    """The per-pair bound matching reconstruction_residuals."""
    m = _as_entries(matrix)
    scale = np.linalg.norm(m, "fro") / math.sqrt(decomp.n)
    return 1e-8 * (scale + np.abs(decomp.eigenvalues))


def outliers(decomp: EigenDecomposition, edge: float) -> list[tuple[int, float]]:
    """Eigenvalues strictly outside the bulk edge, as (rank, value) pairs.

    Because the decomposition is magnitude-ordered, the outliers are a
    prefix of the eigenvalue list and rank k counts from 1 at the top. A
    top-k decomposition with no |lambda| inside the edge raises instead.
    """
    if not edge >= 0.0:
        raise ValueError(f"edge must be >= 0, got {edge}")
    vals = decomp.eigenvalues
    if vals.size < decomp.n and not np.any(np.abs(vals) <= edge):
        raise ValueError(f"all {vals.size} of {decomp.n} eigenvalues lie outside edge {edge}")
    out: list[tuple[int, float]] = []
    for i, lam in enumerate(vals):
        if abs(lam) <= edge:
            break
        out.append((i + 1, float(lam)))
    return out


def effective_rank(decomp: EigenDecomposition, c: float = 0.5) -> int:
    """Number of eigenvalues with |lambda| > c * sqrt(n), raising as outliers does."""
    if not c > 0.0:
        raise ValueError(f"c must be > 0, got {c}")
    return len(outliers(decomp, c * math.sqrt(decomp.n)))


def _block_operator(n: int, matmat: Callable) -> scipy.sparse.linalg.LinearOperator:
    """A symmetric n x n LinearOperator from its product with an (n, k) block."""
    return scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda v: matmat(v.reshape(n, 1)), matmat=matmat, dtype=float
    )


def eig_top(op, k: int) -> EigenDecomposition:
    """The k largest-|lambda| eigenpairs of a symmetric operator, magnitude-ordered.

    op is a dense array, a sparse array, a KernelOperator or a
    LinearOperator. A dense array must be square, finite and symmetric to
    the bit; a SymmetricMatrix is taken as it is. ARPACK's implicitly
    restarted Lanczos (eigsh, which="LM") starts from a fixed v0, so the
    result is deterministic; non-convergence raises ArpackNoConvergence.
    For k >= n - 1, where ARPACK cannot run, eigh decomposes a dense array
    as it is and any other op as op @ I. Ties in magnitude list +c before
    -c. The zero operator, where Lanczos cannot start, sends an integer
    probe to exactly zero, even as an A - P of 0/1 entries, whose partial
    sums are exact integers; any other matrix does so only by chance
    cancellation.
    """
    if isinstance(op, KernelOperator):
        op = _block_operator(op.n, op.matmat)
    elif isinstance(op, (np.ndarray, SymmetricMatrix)):
        op = _as_entries(op)
    n = op.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    if k >= n - 1:
        return _by_magnitude(*np.linalg.eigh(op if isinstance(op, np.ndarray) else op @ np.eye(n)), k)
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(n)
    if not (op @ rng.integers(1, 2**30, n).astype(float)).any():
        return EigenDecomposition(np.zeros(k), np.eye(n, k))
    return _by_magnitude(*scipy.sparse.linalg.eigsh(op, k=k, which="LM", v0=v0), k)


def noise_norm(A: scipy.sparse.sparray, kernel: KernelOperator) -> float:
    """||H|| = ||A - P|| from eig_top's k = 1 solve on v -> A v - P v.

    A is the sparse adjacency that sample_sparse_adjacency drew from
    kernel, the KernelOperator of P. H is never stored.
    """
    n = kernel.n
    if A.shape != (n, n):
        raise ValueError(f"dimension mismatch: {A.shape} vs {n}")
    H = _block_operator(n, lambda v: A @ v - kernel.matmat(v))
    return float(abs(eig_top(H, 1).eigenvalues[0]))


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity after sign alignment, in [0, 1]."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(abs(np.dot(u, v)) / (nu * nv))


def _match_rank(
    eigenvalues: np.ndarray, used: set[int], want_sign: float | None
) -> int:
    """Next unused magnitude rank, skipping sign mismatches when asked.

    The sign veto keeps a positive analytic branch from being paired with
    a negative bulk-edge eigenvalue of A that happens to outrank it in
    magnitude. When no same-signed eigenvalue remains the veto is dropped
    so every k still gets a row.
    """
    fallback = -1
    for i in range(eigenvalues.size):
        if i in used:
            continue
        if want_sign is None or math.copysign(1.0, eigenvalues[i]) == want_sign:
            used.add(i)
            return i
        if fallback < 0:
            fallback = i
    if fallback < 0:
        raise ValueError("ran out of eigenvalues to match")
    used.add(fallback)
    return fallback


def _matched_pairs(
    decomp: EigenDecomposition, wants: list[float | None]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A whole spectrum, and the pair matched to each wanted sign in turn.

    Rank k takes the next unused magnitude rank under _match_rank's sign
    veto. Returns all eigenvalues, the matched ones and a copy of their
    (n, k_max) eigenvector block, so the caller need not keep the n x n one.
    """
    used: set[int] = set()
    ranks = [_match_rank(decomp.eigenvalues, used, want) for want in wants]
    return decomp.eigenvalues, decomp.eigenvalues[ranks], decomp.eigenvectors[:, ranks]


def compare_with_vectors(
    params: ModelParams, k_max: int
) -> tuple[ComparisonReport, CompareArtifacts]:
    """Three-way ladder comparison: analytic roots vs eig(P) vs eig(A).

    Samples one sparse adjacency with the params seed from the
    KernelOperator of the expected kernel, takes ||A - P|| on the two,
    then decomposes dense P and matches it, and only then dense A. Rank k
    is matched to the k-th eigenvalue by descending magnitude with a sign
    veto (the predicted sign must agree for the match to stand while
    same-signed candidates remain). A missing root bracket at some k
    truncates the prediction columns from that k on; the numerical
    columns keep going.

    Also returns the matched eigenvectors and full spectra for plotting
    and histogramming.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    k_max = min(k_max, params.n)
    fv = gen_fitness(params)
    K = KernelOperator(fv, params.epsilon_n)
    A = sample_sparse_adjacency(K, params.seed)
    bulk_edge = noise_norm(A, K)

    preds: list[tuple[SpectralPrediction, EigenvectorPrediction] | None] = []
    truncated_at: int | None = None
    for k in range(1, k_max + 1):
        if truncated_at is not None:
            preds.append(None)
            continue
        try:
            sp = solve_omega_k(k, params.n, params.alpha)
            preds.append((sp, eigenvector_entries(k, params.n, params.alpha)))
        except NoRootError:
            truncated_at = k
            preds.append(None)
    wants = [None if pred is None else math.copysign(1.0, pred[0].lambda_k) for pred in preds]
    # each n x n block lives only inside its _matched_pairs call
    vals_P, lams_P, vecs_P = _matched_pairs(eig_top(expected_matrix(fv, params.epsilon_n), params.n), wants)
    vals_A, lams_A, vecs_A = _matched_pairs(eig_top(A.toarray(), params.n), wants)

    rows: list[ComparisonRow] = []
    matched: list[MatchedVectors] = []
    for i, (pred, want) in enumerate(zip(preds, wants)):
        lam_p, lam_a = float(lams_P[i]), float(lams_A[i])
        v_p, v_a = vecs_P[:, i], vecs_A[:, i]
        if pred is None:
            lam_k = rel_pred = cos_pred = math.nan
            sign_ok = None
        else:
            lam_k = pred[0].lambda_k
            rel_pred = abs(lam_p - lam_k) / abs(lam_k)
            cos_pred = _cosine(pred[1].entries, v_p)
            sign_ok = (
                math.copysign(1.0, lam_p) == want
                and math.copysign(1.0, lam_a) == want
            )
        rows.append(
            ComparisonRow(
                k=i + 1,
                lambda_pred=lam_k,
                lambda_P=lam_p,
                lambda_A=lam_a,
                rel_err_pred_vs_P=rel_pred,
                rel_err_P_vs_A=abs(lam_a - lam_p) / abs(lam_p),
                cosine_sim_pred_vs_P=cos_pred,
                cosine_sim_P_vs_A=_cosine(v_p, v_a),
                sign_ok=sign_ok,
            )
        )
        matched.append(
            MatchedVectors(
                k=i + 1,
                predicted=None if pred is None else pred[1].entries,
                numerical_P=v_p,
                numerical_A=v_a,
            )
        )

    k_break = next((row.k for row in rows if row.cosine_sim_P_vs_A < 0.9), None)
    report = ComparisonReport(
        params=params,
        k_max=k_max,
        rows=tuple(rows),
        bulk_edge_measured=bulk_edge,
        k_break=k_break,
        pred_truncated_at=truncated_at,
    )
    artifacts = CompareArtifacts(vectors=tuple(matched), eigenvalues_P=vals_P, eigenvalues_A=vals_A)
    return report, artifacts
