"""Dense reference spectra and the prediction-vs-numerics comparison harness.

Everything here works on exact dense symmetric eigendecompositions; no
sparse shortcuts are taken for the spectra themselves. The one iterative
piece is the spectral norm, a Lanczos extremal-eigenvalue solve that only
feeds the reported bulk edge and never the eigenvalue tables. For the
noise part H = A - P it runs on the operator v -> A v - P v, with A the
sparse draw and P the matrix-free KernelOperator, so H is never stored.
The comparison builds dense P and A only for their eigendecompositions.

Ordering convention: eigenvalues are sorted by descending magnitude, with
ties broken by descending signed value, and eigenvectors travel with their
eigenvalues. Rank k therefore means "k-th largest by |lambda|" everywhere
in this module, matching the k that indexes the analytic ladder.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
    "eig_sym",
    "reconstruction_residuals",
    "outliers",
    "effective_rank",
    "spectral_norm",
    "noise_norm",
    "compare",
    "compare_with_vectors",
]


@dataclass(frozen=True)
class EigenDecomposition:
    """Full symmetric eigendecomposition, magnitude-ordered."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None  # column i pairs with eigenvalues[i]

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        if self.eigenvectors is not None:
            vecs = np.asarray(self.eigenvectors, dtype=float)
            vecs.setflags(write=False)
            object.__setattr__(self, "eigenvectors", vecs)
            if vecs.shape != (vals.size, vals.size):
                raise ValueError(
                    f"eigenvector block {vecs.shape} does not match {vals.size} eigenvalues"
                )
        a = np.abs(vals)
        if np.any(a[:-1] < a[1:]):
            raise ValueError("eigenvalues must be sorted by descending magnitude")

    @property
    def n(self) -> int:
        return self.eigenvalues.size


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


def eig_sym(matrix: np.ndarray | SymmetricMatrix, vectors: bool = True) -> EigenDecomposition:
    """Dense symmetric eigendecomposition in descending-magnitude order.

    Ties in magnitude are broken by descending signed value, so a
    degenerate pair (+c, -c) always lists +c first. Non-finite entries
    are rejected up front rather than letting the factorization produce
    silent garbage.
    """
    m = _as_entries(matrix)
    if vectors:
        vals, vecs = np.linalg.eigh(m)
    else:
        vals, vecs = np.linalg.eigvalsh(m), None
    order = np.lexsort((-vals, -np.abs(vals)))
    vals = vals[order]
    if vecs is not None:
        vecs = vecs[:, order]
    return EigenDecomposition(eigenvalues=vals, eigenvectors=vecs)


def reconstruction_residuals(
    decomp: EigenDecomposition, matrix: np.ndarray | SymmetricMatrix
) -> np.ndarray:
    """Per-pair residuals ||M v_i - lambda_i v_i||_2.

    Each must stay below 1e-8 * (||M||_F / sqrt(n) + |lambda_i|) for the
    decomposition to count as faithful; callers assert that bound.
    """
    if decomp.eigenvectors is None:
        raise ValueError("decomposition carries no eigenvectors")
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
    prefix of the eigenvalue list and rank k counts from 1 at the top.
    """
    if not edge >= 0.0:
        raise ValueError(f"edge must be >= 0, got {edge}")
    out: list[tuple[int, float]] = []
    for i, lam in enumerate(decomp.eigenvalues):
        if abs(lam) <= edge:
            break
        out.append((i + 1, float(lam)))
    return out


def effective_rank(decomp: EigenDecomposition, c: float = 0.5) -> int:
    """Number of eigenvalues with |lambda| > c * sqrt(n)."""
    if not c > 0.0:
        raise ValueError(f"c must be > 0, got {c}")
    return len(outliers(decomp, c * math.sqrt(decomp.n)))


def _top_magnitude(op: np.ndarray | scipy.sparse.linalg.LinearOperator) -> float:
    """Largest |eigenvalue| of a symmetric matrix or operator via a Lanczos solve.

    A fixed starting vector v0 keeps the result deterministic. For n <= 2
    the operator is applied to the identity and decomposed densely. The
    zero matrix, where Lanczos cannot start, is recognized by sending an
    integer probe to exactly zero: with 0/1 entries, as in a noise part
    A - P drawn from a P of only 0s and 1s, every partial sum is an exact
    integer, so the probe vanishes in any summation order. Any other matrix
    sends it to zero only by a chance cancellation.
    """
    n = op.shape[0]
    if n <= 2:
        return float(np.max(np.abs(np.linalg.eigvalsh(op @ np.eye(n)))))
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(n)
    if not (op @ rng.integers(1, 2**30, n).astype(float)).any():
        return 0.0
    top = scipy.sparse.linalg.eigsh(op, k=1, which="LM", v0=v0, return_eigenvectors=False)
    return float(abs(top[0]))


def spectral_norm(matrix: np.ndarray | SymmetricMatrix) -> float:
    """Largest |eigenvalue| of a dense symmetric matrix via a Lanczos solve."""
    m = _as_entries(matrix)
    return _top_magnitude(m)


def noise_norm(A: scipy.sparse.sparray, kernel: KernelOperator) -> float:
    """||H|| = ||A - P|| from the Lanczos solve on v -> A v - P v.

    A is the sparse adjacency that sample_sparse_adjacency drew from
    kernel, the KernelOperator of P. H is never stored.
    """
    n = kernel.n
    if A.shape != (n, n):
        raise ValueError(f"dimension mismatch: {A.shape} vs {n}")

    def apply(v: np.ndarray) -> np.ndarray:
        return A @ v - kernel.matmat(v)

    op = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda v: apply(v.reshape(n, 1)), matmat=apply, dtype=float
    )
    return _top_magnitude(op)


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


def compare_with_vectors(
    params: ModelParams, k_max: int
) -> tuple[ComparisonReport, CompareArtifacts]:
    """Three-way ladder comparison: analytic roots vs eig(P) vs eig(A).

    Samples one sparse adjacency with the params seed from the
    KernelOperator of the expected kernel, takes ||A - P|| on the two,
    then decomposes dense P and A in turn, and matches analytic rank k to
    the k-th eigenvalue by descending magnitude with a sign veto (the
    predicted sign must agree for the match to stand while same-signed
    candidates remain). A missing root bracket at some k truncates the
    prediction columns from that k on; the numerical columns keep going.

    Also returns the matched eigenvectors and full spectra for plotting
    and histogramming; compare() drops those.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    k_max = min(k_max, params.n)
    fv = gen_fitness(params)
    K = KernelOperator(fv, params.epsilon_n)
    A = sample_sparse_adjacency(K, params.seed)
    bulk_edge = noise_norm(A, K)
    decomp_P = eig_sym(expected_matrix(fv, params.epsilon_n))
    decomp_A = eig_sym(A.toarray())

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

    rows: list[ComparisonRow] = []
    matched: list[MatchedVectors] = []
    used_P: set[int] = set()
    used_A: set[int] = set()
    for k in range(1, k_max + 1):
        pred = preds[k - 1]
        want = None
        if pred is not None:
            want = math.copysign(1.0, pred[0].lambda_k)
        i_p = _match_rank(decomp_P.eigenvalues, used_P, want)
        i_a = _match_rank(decomp_A.eigenvalues, used_A, want)
        lam_p = float(decomp_P.eigenvalues[i_p])
        lam_a = float(decomp_A.eigenvalues[i_a])
        v_p = decomp_P.eigenvectors[:, i_p]
        v_a = decomp_A.eigenvectors[:, i_a]
        cos_pa = _cosine(v_p, v_a)
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
                k=k,
                lambda_pred=lam_k,
                lambda_P=lam_p,
                lambda_A=lam_a,
                rel_err_pred_vs_P=rel_pred,
                rel_err_P_vs_A=abs(lam_a - lam_p) / abs(lam_p),
                cosine_sim_pred_vs_P=cos_pred,
                cosine_sim_P_vs_A=cos_pa,
                sign_ok=sign_ok,
            )
        )
        matched.append(
            MatchedVectors(
                k=k,
                predicted=None if pred is None else pred[1].entries,
                numerical_P=v_p,
                numerical_A=v_a,
            )
        )

    k_break = None
    for row in rows:
        if row.cosine_sim_P_vs_A < 0.9:
            k_break = row.k
            break
    report = ComparisonReport(
        params=params,
        k_max=k_max,
        rows=tuple(rows),
        bulk_edge_measured=bulk_edge,
        k_break=k_break,
        pred_truncated_at=truncated_at,
    )
    artifacts = CompareArtifacts(
        vectors=tuple(matched),
        eigenvalues_P=decomp_P.eigenvalues,
        eigenvalues_A=decomp_A.eigenvalues,
    )
    return report, artifacts


def compare(params: ModelParams, k_max: int) -> ComparisonReport:
    """compare_with_vectors without the bulky by-products."""
    return compare_with_vectors(params, k_max)[0]
