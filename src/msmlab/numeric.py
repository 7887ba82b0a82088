"""Reference spectra and the prediction-vs-numerics comparison harness.

eig_top is the top-k eigensolver: Lanczos for the k largest |eigenvalues|
of anything scipy.sparse.linalg.aslinearoperator takes (a sparse array, a
KernelOperator, a LinearOperator), and a dense solve of op @ I for
k >= n - 1; it returns numpy's (values, vectors) pair. ||A - P|| is its
k = 1 case on scipy's difference of the sparse draw A and the
KernelOperator of P, so H is never stored. compare builds dense P, then
dense A, only for their whole spectra: one eigvalsh each, whose values
are matched to spectrum.ladder's predictions before any vector is
computed. The matched vectors then come from eig_top on P's
KernelOperator and on the sparse A, down to the first clear magnitude
gap at or past the deepest matched rank, so no n x n vector block is
made; eigh is the fallback where the values rule Lanczos out or it
fails. It returns one ComparisonReport: its rows, the predicted and
matched vectors as row-per-rank blocks, and both spectra.

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
from scipy.sparse.linalg import aslinearoperator

from .eigenvectors import eigenvector_entries
from .model import (
    KernelOperator,
    ModelParams,
    expected_matrix,
    gen_fitness,
    sample_sparse_adjacency,
)
from .spectrum import ladder

__all__ = [
    "ComparisonRow",
    "ComparisonReport",
    "eig_top",
    "noise_norm",
    "compare",
]


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
    """The ladder's rows, and the vectors and whole spectra behind them.

    Row i of each vector block belongs to rows[i]; vectors_pred holds the
    closed-form entries of the rows before truncation, vectors_P and
    vectors_A the matched unit eigenvectors of every row.
    """

    rows: tuple[ComparisonRow, ...]
    bulk_edge_measured: float
    k_break: int | None  # smallest k with cosine_sim_P_vs_A < 0.9
    pred_truncated_at: int | None  # first k whose root bracket was empty
    vectors_pred: np.ndarray  # (rows before truncation, n)
    vectors_P: np.ndarray  # (k_max, n)
    vectors_A: np.ndarray  # (k_max, n)
    eigenvalues_P: np.ndarray  # all n, magnitude-ordered
    eigenvalues_A: np.ndarray


def _magnitude_order(vals: np.ndarray) -> np.ndarray:
    """Indices sorting vals by descending |lambda|, ties by descending signed value."""
    return np.lexsort((-vals, -np.abs(vals)))


def eig_top(op, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest-|lambda| eigenpairs of a symmetric operator, magnitude-ordered.

    op is anything scipy.sparse.linalg.aslinearoperator takes, such as a
    sparse array or a KernelOperator; the result is numpy's pair of the k
    values and the (n, k) block whose column i pairs with value i.
    ARPACK's implicitly restarted Lanczos (eigsh, which="LM") starts from a
    fixed v0, so the result is deterministic; non-convergence raises
    ArpackNoConvergence. For k >= n - 1, where ARPACK cannot run, eigh
    decomposes op @ I. Ties in magnitude list +c before -c. The zero
    operator, where Lanczos cannot start, sends an integer probe to
    exactly zero, even as an A - P of 0/1 entries, whose partial sums are
    exact integers; any other matrix does so only by chance cancellation.
    """
    op = aslinearoperator(op)
    n = op.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    if k >= n - 1:
        vals, vecs = np.linalg.eigh(op @ np.eye(n))
    else:
        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(n)
        if not (op @ rng.integers(1, 2**30, n).astype(float)).any():
            return np.zeros(k), np.eye(n, k)
        vals, vecs = scipy.sparse.linalg.eigsh(op, k=k, which="LM", v0=v0)
    order = _magnitude_order(vals)[:k]
    return vals[order], vecs[:, order]


def noise_norm(A: scipy.sparse.sparray, kernel: KernelOperator) -> float:
    """||H|| = ||A - P|| from eig_top's k = 1 solve on scipy's operator A - P.

    A is the sparse adjacency that sample_sparse_adjacency drew from
    kernel, the KernelOperator of P. scipy applies the difference as
    A v + (-1)(P v), which is A v - P v to the bit; H is never stored.
    """
    n = kernel.n
    if A.shape != (n, n):
        raise ValueError(f"dimension mismatch: {A.shape} vs {n}")
    vals, _ = eig_top(aslinearoperator(A) - aslinearoperator(kernel), 1)
    return float(abs(vals[0]))


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity after sign alignment, in [0, 1], of two nonzero vectors."""
    return float(abs(np.dot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v)))


def _veto_ranks(vals: np.ndarray, wants: list[float | None]) -> list[int]:
    """The magnitude rank matched to each wanted sign in turn, for magnitude-ordered vals.

    Rank k takes the first unused magnitude rank whose sign is the wanted
    one. The veto keeps a positive analytic branch from being paired with
    a negative bulk-edge eigenvalue of A that happens to outrank it in
    magnitude; once no same-signed eigenvalue remains, and where no sign
    is wanted, it takes the first unused rank of either sign, so every k
    still gets a row.
    """
    positive = np.copysign(1.0, vals) > 0.0
    # every want takes the first unused rank of one sign, so each sign's
    # used ranks are a prefix of its queue
    queues = {1.0: np.flatnonzero(positive).tolist(), -1.0: np.flatnonzero(~positive).tolist()}
    ranks = []
    for want in wants:
        queue = queues.get(want) or min((q for q in queues.values() if q), key=lambda q: q[0])
        ranks.append(queue.pop(0))
    return ranks


# Lanczos solves for the top k pairs, with k the first rank at or past
# the deepest matched one where |lambda| falls by more than
# _LANCZOS_MIN_GAP of |lambda_k| to the next rank, and only for k <=
# _LANCZOS_MAX_RANK. A block that ends inside a cluster slows eigsh by
# orders of magnitude: on P's operator at n = 2048, alpha = 0.8, iid
# seed 11, k = 12 (gap 9.1e-6) took 14.8 s and k = 14 (gap 8e-9) did not
# converge in 30.9 s. Past a gap > 1e-3 it took <= 0.2 s for k <= 24,
# 0.13 s at k = 128 and 0.31 s at k = 192, against 0.26 s more for eigh's
# vectors than for eigvalsh (n = 2048, on a 2-core host); on the sparse A
# it took <= 0.03 s. eigh's vectors also take three more n x n arrays.
_LANCZOS_MAX_RANK = 192
_LANCZOS_MIN_GAP = 1e-3
# Lanczos's values must meet eigvalsh's to this fraction of |lambda_1|
# at every rank down to k, or its vectors are not used
_LANCZOS_VALUE_TOL = 1e-12


def _matched_pairs(
    matrix: np.ndarray, op, wants: list[float | None]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A dense matrix's whole spectrum, and the pair matched to each wanted sign in turn.

    op applies the same matrix without storing it: the KernelOperator of
    P or the sparse A. eigvalsh gives the whole spectrum of the matrix,
    which the caller built finite and symmetric, and _veto_ranks matches
    on those values, so the matched ranks are known before any vector is
    computed. The vectors then come from eig_top(op, k), with k chosen
    from the values by the Lanczos limits above, when its values agree
    with eigvalsh's at every rank <= k; the matched values are
    eigvalsh's. Where no k passes the limits, and when Lanczos does not
    converge or disagrees, one eigh solves the matrix and the veto runs
    again on its own values. Returns all eigenvalues in magnitude order,
    the matched ones, and their eigenvectors as (len(wants), n) rows.
    """
    vals = np.linalg.eigvalsh(matrix)
    vals = vals[_magnitude_order(vals)]
    ranks = _veto_ranks(vals, wants)
    d = max(ranks) + 1
    mags = np.abs(vals)
    # the ranks k in [d, n - 2] where |lambda_k| clears |lambda_k+1| by the gap
    depths = d + np.flatnonzero(mags[d - 1 : -2] - mags[d:-1] > _LANCZOS_MIN_GAP * mags[d - 1 : -2])
    if depths.size and depths[0] <= _LANCZOS_MAX_RANK:
        k = int(depths[0])
        try:
            top_vals, top_vecs = eig_top(op, k)
        except scipy.sparse.linalg.ArpackNoConvergence:
            pass
        else:
            if np.all(np.abs(top_vals - vals[:k]) <= _LANCZOS_VALUE_TOL * mags[0]):
                return vals, vals[ranks], top_vecs[:, ranks].T
    # the dense path: eigh's own order, which near ties can make differ
    # from eigvalsh's, so its ranks are matched afresh
    vals, vecs = np.linalg.eigh(matrix)
    order = _magnitude_order(vals)
    matched = order[_veto_ranks(vals[order], wants)]
    return vals[order], vals[matched], vecs[:, matched].T


def compare(params: ModelParams, k_max: int) -> ComparisonReport:
    """Three-way ladder comparison: analytic roots vs eig(P) vs eig(A).

    Samples one sparse adjacency with the params seed from the
    KernelOperator of the expected kernel, takes ||A - P|| on the two,
    then builds dense P, and only then dense A, for _matched_pairs: one
    eigvalsh each, matched on its eigenvalues, and the matched vectors
    from Lanczos on the operator or the sparse draw, with eigh as the
    fallback. Rank k is matched to the k-th eigenvalue by descending
    magnitude with a sign veto (the predicted sign must agree for the
    match to stand while same-signed candidates remain). A
    missing root bracket at some k truncates the prediction columns from
    that k on; the numerical columns keep going.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    k_max = min(k_max, params.n)
    fv = gen_fitness(params)
    K = KernelOperator(fv, params.epsilon_n)
    A = sample_sparse_adjacency(K, params.seed)
    bulk_edge = noise_norm(A, K)

    preds = ladder(k_max, params.n, params.alpha)
    t = len(preds)
    vecs_pred = np.array([eigenvector_entries(p) for p in preds]).reshape(t, params.n)
    wants = [math.copysign(1.0, p.lambda_k) for p in preds] + [None] * (k_max - t)
    # each n x n array lives only inside its _matched_pairs call
    vals_P, lams_P, vecs_P = _matched_pairs(expected_matrix(fv, params.epsilon_n).entries, K, wants)
    vals_A, lams_A, vecs_A = _matched_pairs(A.toarray(), A, wants)

    rows: list[ComparisonRow] = []
    for i, want in enumerate(wants):
        lam_p, lam_a = float(lams_P[i]), float(lams_A[i])
        if want is None:
            lam_k = rel_pred = cos_pred = math.nan
            sign_ok = None
        else:
            lam_k = preds[i].lambda_k
            rel_pred = abs(lam_p - lam_k) / abs(lam_k)
            cos_pred = _cosine(vecs_pred[i], vecs_P[i])
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
                cosine_sim_P_vs_A=_cosine(vecs_P[i], vecs_A[i]),
                sign_ok=sign_ok,
            )
        )

    return ComparisonReport(
        rows=tuple(rows),
        bulk_edge_measured=bulk_edge,
        k_break=next((row.k for row in rows if row.cosine_sim_P_vs_A < 0.9), None),
        pred_truncated_at=t + 1 if t < k_max else None,
        vectors_pred=vecs_pred,
        vectors_P=vecs_P,
        vectors_A=vecs_A,
        eigenvalues_P=vals_P,
        eigenvalues_A=vals_A,
    )
