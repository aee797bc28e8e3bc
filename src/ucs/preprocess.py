"""Pool token states into example embeddings and reduce them for coding.

The pipeline order is: pool -> optional row l2-normalization -> per-feature
standardization (default on) -> PCA. PCA takes its basis from the
eigenvectors of the d x d matrix C = X^T X of the centred pool X, formed in
one pass over the rows; no N x d factor is built. A fixed sign convention
makes repeated runs produce identical bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMask, NonFiniteValue, TooFewRows
# unused here; perfbench/spans.py patches ucs.preprocess.read_matrix and write_matrix
from .matrix_store import read_matrix, write_matrix

POOLING_MODES = ("mean", "first", "last")

# Coordinates smaller than this are treated as zero by the sign convention.
_SIGN_TOL = 1e-12
# A norm below this may have lost squares to underflow.
_NORM_MIN = np.sqrt(np.finfo(np.float64).tiny)


def pool_tokens(hidden: np.ndarray, mask: np.ndarray, mode: str = "mean") -> np.ndarray:
    """Pool one example's token states `hidden` (T x d) by its mask, a weight
    per token: mode 'mean' takes the weighted average, 'first' and 'last'
    the first and the last row of nonzero weight. In every mode the mask
    needs one finite weight >= 0 per token (ValueError naming the first token
    that has none) and a positive sum (EmptyMask). A mean that is not finite
    raises NonFiniteValue, with no numpy warning.
    """
    if mode not in POOLING_MODES:
        raise ValueError(f"unknown pooling mode {mode!r}")
    h = np.asarray(hidden, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64).ravel()
    if h.shape[0] != m.shape[0]:
        raise ValueError(f"mask length {m.shape[0]} != token count {h.shape[0]}")
    bad = np.flatnonzero(~((m >= 0) & (m < np.inf)))  # negative, nan or +inf
    if bad.size:
        w = m[bad[0]]
        raise ValueError(f"mask weight {w} of token {bad[0]} is not "
                         f"{'finite' if w > 0 else '>= 0'}")
    with np.errstate(over="ignore"):
        total = m.sum()
    if total <= 0:
        raise EmptyMask("mask sums to zero; no tokens to pool")
    if mode == "mean":
        with np.errstate(over="ignore", invalid="ignore"):
            pooled = (m @ h) / total
        if not (np.isfinite(total) and np.isfinite(pooled).all()):
            raise NonFiniteValue("the mask-weighted mean of the tokens is not finite")
        return pooled
    active = np.flatnonzero(m)
    return h[active[0] if mode == "first" else active[-1]].copy()


def l2_normalize_rows(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Scale each row to unit l2 norm, r / (||r|| + eps); zero rows stay zero.

    eps=0 divides by the exact norm, which is what the cosine geometry of
    clustering and selection uses. A row holding nan or +-inf raises
    ValueError naming it. A nonzero row whose squares overflow (norm inf) or
    fall below the normal range (norm < _NORM_MIN) is first divided by its
    largest magnitude; every other row is divided by its norm directly.
    """
    arr = np.asarray(x, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise ValueError(f"row {bad[0]} is not finite")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(arr, axis=1, keepdims=True)
    out = np.divide(arr, norms + eps, out=np.zeros_like(arr), where=norms > 0)
    odd = np.flatnonzero(np.isinf(norms[:, 0]) | (norms[:, 0] < _NORM_MIN))
    odd = odd[arr[odd].any(axis=1)]  # zero rows stay zero
    if odd.size:
        peak = np.abs(arr[odd]).max(axis=1, keepdims=True)
        scaled = arr[odd] / peak
        with np.errstate(over="ignore"):
            out[odd] = scaled / (np.linalg.norm(scaled, axis=1, keepdims=True)
                                 + eps / peak)
    return out


@dataclass
class Standardizer:
    """Per-feature centering and scaling learned from a training pool."""

    mean: np.ndarray
    std: np.ndarray  # population std; exactly 0 marks a constant column

    def transform(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        safe = np.where(self.std > 0, self.std, 1.0)
        out = (arr - self.mean) / safe
        out[:, self.std == 0] = 0.0
        return out


def fit_standardizer(pool: np.ndarray) -> Standardizer:
    """Fit per-feature mean/std. Requires at least 2 rows (TooFewRows).

    NonFiniteValue, with no numpy warning, when a column's variance
    overflows float64."""
    arr = np.asarray(pool, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D pool, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise TooFewRows(f"standardizer needs >= 2 rows, got {arr.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = arr.mean(axis=0), arr.std(axis=0)
    bad = np.flatnonzero(~np.isfinite(std))
    if bad.size:
        raise NonFiniteValue(f"the variance of column {bad[0]} is not finite as f64")
    return Standardizer(mean=mean, std=std)


@dataclass
class PcaBasis:
    """Orthonormal projection onto the leading eigenvectors of the centred
    pool's X^T X.

    components has shape (d, d'); explained_variance holds the sample
    variance ||X v_j||^2 / (N - 1) of the pool along each retained direction.
    Directions past the data rank are valid outputs with (numerically) zero
    variance.
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) @ self.components


def fit_pca(pool: np.ndarray, d_prime: int) -> PcaBasis:
    """Fit a PCA basis with d' components, 1 <= d' <= min(N-1, d).

    The components are the eigenvectors of C = X^T X, X the centred pool,
    for its d' largest eigenvalues; C costs one O(N d^2) pass and the
    eigensolve O(d^3), whatever N is. The sign of each component is fixed
    so its first coordinate above 1e-12 in magnitude is positive, making the
    basis reproducible.

    Accuracy. C's eigenvalues carry absolute error of order
    c d 2^-52 ||X||_F^2 from the eigensolve, plus the rounding of C's N-term
    sums (at most N 2^-53 ||X||_F^2, far less in practice); the error is
    absolute, not relative to the eigenvalue. So:
      * a retained direction is determined only when its eigengap exceeds
        that bound; within a tighter cluster of eigenvalues any orthonormal
        basis of the cluster's span is as good an answer;
      * at d' = d the projection is an orthonormal rotation, whatever the
        gaps: the columns are orthonormal to c d 2^-52, so pairwise
        distances are kept to rounding;
      * explained_variance is each direction's Rayleigh quotient from the
        scores, ||X v_j||^2 / (N - 1), not the eigenvalue: a direction with
        little variance reports it accurately in relative terms instead of
        under the eigenvalue's absolute error (for a variance 1e-16 of the
        largest, on four seeded pools: at most 2e-4 relative error, against
        0.1-0.4 for the eigenvalue).
    """
    arr = np.asarray(pool, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D pool, got shape {arr.shape}")
    _check_d_prime(arr.shape, d_prime)
    with np.errstate(over="ignore", invalid="ignore"):  # _fit_centered checks X^T X
        mean = arr.mean(axis=0)
        centered = arr - mean
    return _fit_centered(centered, mean, d_prime)[0]


def _check_d_prime(shape: tuple[int, int], d_prime: int) -> None:
    n, d = shape
    limit = min(n - 1, d)
    if not 1 <= d_prime <= limit:
        raise ValueError(f"d_prime must be in [1, {limit}] for a {n}x{d} pool, got {d_prime}")


def _gram(x: np.ndarray, y: np.ndarray | None = None, *, what: str) -> np.ndarray:
    """Every pool moment: x^T y, or x^T x (numpy's syrk) without y. NonFiniteValue,
    "<what> is not finite as f64" and no numpy warning, when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        product = x.T @ (x if y is None else y)
    if not np.isfinite(product).all():
        raise NonFiniteValue(f"{what} is not finite as f64")
    return product


def _fit_centered(centered: np.ndarray, mean: np.ndarray,
                  d_prime: int) -> tuple[PcaBasis, np.ndarray]:
    """fit_pca on the already-centred pool; also returns the scores
    centered @ components, which are basis.transform of the uncentred pool
    bit for bit. NonFiniteValue, with no numpy warning, when X^T X is not
    finite."""
    _, vecs = np.linalg.eigh(_gram(centered, what="the centred pool's X^T X"))
    components = vecs[:, ::-1][:, :d_prime].copy()  # eigh's order is ascending
    for j in range(d_prime):
        col = components[:, j]
        nonzero = np.flatnonzero(np.abs(col) > _SIGN_TOL)
        if nonzero.size and col[nonzero[0]] < 0:
            components[:, j] = -col
    scores = centered @ components
    explained = np.einsum("ij,ij->j", scores, scores) / (centered.shape[0] - 1)
    return PcaBasis(mean=mean, components=components, explained_variance=explained), scores


def preprocess_pool(
    pool: np.ndarray,
    d_prime: int = 128,
    standardize: bool = True,
    l2norm: bool = False,
) -> tuple[np.ndarray, Standardizer, PcaBasis]:
    """Run the full reduction on a pooled N x d matrix.

    d_prime is capped at min(N-1, d). When standardization is off the
    returned Standardizer is the identity (mean 0, std 1). A pool whose
    column variance or centred X^T X overflows float64 raises
    NonFiniteValue.
    """
    arr = np.asarray(pool, dtype=np.float64)
    if l2norm:
        arr = l2_normalize_rows(arr)
    if standardize:
        scaler = fit_standardizer(arr)
    else:
        scaler = Standardizer(
            mean=np.zeros(arr.shape[1]), std=np.ones(arr.shape[1])
        )
    scaled = scaler.transform(arr)
    d_eff = max(1, min(d_prime, arr.shape[0] - 1, arr.shape[1]))
    _check_d_prime(scaled.shape, d_eff)
    with np.errstate(over="ignore", invalid="ignore"):  # _fit_centered checks X^T X
        mean = scaled.mean(axis=0)
        scaled -= mean  # centred in place: the PCA scores are the reduced rows
    basis, reduced = _fit_centered(scaled, mean, d_eff)
    return reduced, scaler, basis
