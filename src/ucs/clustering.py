"""Discretize codes or embeddings into latent clusters.

Distances are cosine throughout, and each one is defined per pair:
_pair_distances evaluates d(i, j) = 1 - <u_i, u_j> from the two unit rows
alone, so d(i, j) and d(j, i) are the same float and no distance depends on
which others are computed with it, on the strip height or on the BLAS thread
count. No stage holds the N x N matrix. A float32 screen goes over it one
row strip at a time (one BLAS product per strip), keeps every pair that can
be a neighbour, and only those pairs are evaluated exactly. k_nearest finds
each row's k nearest rows that way; it is VoteK's k-NN graph and gives the
k-th distances whose q-quantile is eps. A second screened pass then collects
each row's neighbours within eps as CSR lists, and DBSCAN runs on the lists
(the neighbourhood-list form of Schubert et al., "DBSCAN Revisited", TODS
2017). Noise points are remapped to fresh singleton clusters so that every
example carries a cluster id.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import TooFewPoints
from .preprocess import l2_normalize_rows

CLUSTERING_METHODS = ("dict_dbscan", "dbscan", "dict_argmax")

# Rows per screened strip; a strip holds DEFAULT_TILE_ROWS * N float32 values.
DEFAULT_TILE_ROWS = 256
# Pairs _pair_distances evaluates at a time.
_PAIR_CHUNK = 4096


@dataclass
class ClusterAssignment:
    """Cluster labels for a pool plus the eps that produced them.

    labels are post-remap (1..C, no noise); raw_labels keep DBSCAN's output
    (0-based clusters, -1 noise) or atom indices for the argmax method, which
    has no eps.
    """

    labels: np.ndarray
    raw_labels: np.ndarray
    eps: float | None = None

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) if self.labels.size else 0


def _pair_distances(unit: np.ndarray, rows: np.ndarray,
                    cols: np.ndarray) -> np.ndarray:
    """d(rows[p], cols[p]) = 1 - <u_i, u_j> for each pair p of the unit rows
    `unit`, clipped to [0, 2], with d(i, i) = 0.

    This is the one definition of the cosine distance. Each pair's two rows
    are multiplied elementwise and summed in one fixed order (einsum), and
    products commute, so d(i, j) and d(j, i) are the same float; the pairs
    go _PAIR_CHUNK at a time, and no value depends on the others evaluated
    with it.
    """
    out = np.empty(rows.size, dtype=np.float64)
    for s in range(0, rows.size, _PAIR_CHUNK):
        r, c = rows[s:s + _PAIR_CHUNK], cols[s:s + _PAIR_CHUNK]
        out[s:s + r.size] = np.einsum("ij,ij->i", unit[r], unit[c])
    np.subtract(1.0, out, out=out)
    np.clip(out, 0.0, 2.0, out=out)
    out[rows == cols] = 0.0
    return out


def cosine_distance_matrix(x: np.ndarray) -> np.ndarray:
    """Pairwise cosine distances 1 - <xi,xj>/(|xi||xj|), exactly symmetric.

    Zero rows sit at distance 1 from everything. The diagonal is zero and
    values are clipped to [0, 2]. Every entry is _pair_distances' value, the
    one the clustering and VoteK passes use.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
    n = arr.shape[0]
    rows, cols = np.divmod(np.arange(n * n), n)
    return _pair_distances(l2_normalize_rows(arr, eps=0.0), rows, cols).reshape(n, n)


def _screened(unit: np.ndarray, limit):
    """(i0, i1, rows, cols, dist) for each strip of rows i0:i1: the pairs
    whose screened distance is <= limit(i0, strip, delta), in row-major
    order, with dist their exact _pair_distances.

    The screen is one float32 product per strip: strip = 1 - fl32(<u_i,
    u_j>), clipped to [0, 2], zero on the diagonal. limit may overwrite the
    strip and returns a bound per row or one for all. Off the diagonal
    |strip - d| <= delta = 4 (d + 4) u, with u = 2^-24 and d the row length,
    for unit rows (zero rows give 1 in both):
      - rounding the inputs to float32 scales each product u_ik u_jk by at
        most (1 + u)^2, which moves the dot product by (2u + u^2) |u_i||u_j|;
      - a float32 dot product of length d, in any summation order, is off by
        at most gamma_d = d u / (1 - d u) times sum_k |u_ik u_jk| <= |u_i||u_j|;
      - 1 - s rounds once, by at most u |1 - s| <= 2u (1 + gamma_d);
      - clipping to [0, 2], where d lies too, moves nothing further apart.
    That sums to (d + 4) u to first order. The factor 4 covers the higher
    order terms, the float64 error of d itself (about d 2^-53), underflow in
    the float32 inputs (at most d 2^-149) and the rounding of a bound to
    float32 when it is compared with the strip.
    """
    n, d = unit.shape
    bad = np.flatnonzero(~np.isfinite(unit).all(axis=1))
    if bad.size:
        raise ValueError(f"row {bad[0]} is not finite")
    delta = 4 * (d + 4) * 2.0 ** -24
    u32 = unit.astype(np.float32)
    for i0 in range(0, n, DEFAULT_TILE_ROWS):
        i1 = min(i0 + DEFAULT_TILE_ROWS, n)
        strip = u32[i0:i1] @ u32.T
        np.subtract(np.float32(1.0), strip, out=strip)
        np.clip(strip, 0.0, 2.0, out=strip)
        own = np.arange(i1 - i0)
        strip[own, i0 + own] = 0.0
        bound = limit(i0, strip, delta)
        rows, cols = np.divmod(np.flatnonzero(strip <= bound), n)
        rows += i0
        yield i0, i1, rows, cols, _pair_distances(unit, rows, cols)


def k_nearest(unit: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(indices, distances), each N x k: every row's k nearest other rows of
    the unit rows `unit` and their _pair_distances, ordered by (distance,
    index). Needs 1 <= k < N.

    A row's float32 k-th distance (self excluded) is within delta of its
    exact one, so the entries screened at or below it + 2 delta hold every
    row at or below the exact k-th distance, ties included; those are
    evaluated exactly and sorted.
    """
    n = unit.shape[0]
    indices = np.empty((n, k), dtype=np.intp)
    distances = np.empty((n, k), dtype=np.float64)

    def near_kth(i0: int, strip: np.ndarray, delta: float) -> np.ndarray:
        own = np.arange(strip.shape[0])
        strip[own, i0 + own] = np.inf  # self excluded
        return np.partition(strip, k - 1, axis=1)[:, k - 1:k] + 2 * delta

    for i0, i1, rows, cols, dist in _screened(unit, near_kth):
        # rows ascend and columns ascend within a row, so the stable lexsort
        # leaves equal distances in index order
        order = np.lexsort((dist, rows))
        starts = np.searchsorted(rows, np.arange(i0, i1))
        pick = order[starts[:, None] + np.arange(k)]
        indices[i0:i1] = cols[pick]
        distances[i0:i1] = dist[pick]
    return indices, distances


def _check_knn(n: int, k: int, q: float) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if k >= n:
        raise TooFewPoints(f"k={k} neighbors requested but only {n} points")


def knn_quantile_eps_from(dist: np.ndarray, k: int, q: float) -> float:
    """eps = q-quantile (linear interpolation) of each point's k-th nearest
    distance, self excluded. Needs k < N (TooFewPoints)."""
    _check_knn(dist.shape[0], k, q)
    off = np.array(dist, dtype=np.float64)
    np.fill_diagonal(off, np.inf)
    off.partition(k - 1, axis=1)
    return float(np.quantile(off[:, k - 1], q))


def _within(block: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row count and ascending column indices of the entries <= eps."""
    mask = block <= eps
    return np.count_nonzero(mask, axis=1), np.flatnonzero(mask) % block.shape[1]


def _csr(parts: list) -> tuple[np.ndarray, np.ndarray]:
    """Join per-strip (counts, columns) into CSR (indptr, indices)."""
    counts = np.concatenate([c for c, _ in parts])
    indptr = np.zeros(counts.size + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    return indptr, np.concatenate([cols for _, cols in parts])


def _eps_lists(unit: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of {j : d(i, j) <= eps}, i itself included,
    columns ascending, from the pairs screened at or below eps + delta.
    Every distance is <= 2, so a larger eps is screened at 2."""
    parts = []
    for i0, i1, rows, cols, dist in _screened(
            unit, lambda i0, strip, delta: min(eps, 2.0) + delta):
        keep = dist <= eps
        parts.append((np.bincount(rows[keep] - i0, minlength=i1 - i0), cols[keep]))
    return _csr(parts)


def _check_dbscan(eps: float, min_samples: int) -> None:
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    if min_samples < 1:
        raise ValueError(f"min_samples must be >= 1, got {min_samples}")


def _dbscan_lists(indptr: np.ndarray, indices: np.ndarray,
                  min_samples: int) -> np.ndarray:
    """DBSCAN on CSR neighbourhood lists (each list includes its point).

    Returns raw labels: clusters 0..C-1, noise -1. Points are scanned in
    index order and clusters expanded breadth-first, so a border point joins
    the first core cluster that reaches it; clusters are then renumbered by
    smallest member index.
    """
    n = indptr.size - 1
    bounds = indptr.tolist()
    UNSEEN, NOISE = -2, -1
    labels = [UNSEEN] * n
    cluster = 0
    for i in range(n):
        if labels[i] != UNSEEN:
            continue
        if bounds[i + 1] - bounds[i] < min_samples:
            labels[i] = NOISE
            continue
        labels[i] = cluster
        queue = deque(indices[bounds[i]:bounds[i + 1]].tolist())
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cluster  # border point, claimed once
            if labels[j] != UNSEEN:
                continue
            labels[j] = cluster
            if bounds[j + 1] - bounds[j] >= min_samples:
                queue.extend(indices[bounds[j]:bounds[j + 1]].tolist())
        cluster += 1
    raw = np.array(labels, dtype=np.int64)
    if cluster > 1:
        first_member = np.full(cluster, n, dtype=np.int64)
        for i in range(n - 1, -1, -1):
            if raw[i] >= 0:
                first_member[raw[i]] = i
        order = np.argsort(first_member, kind="stable")
        renumber = np.empty(cluster, dtype=np.int64)
        renumber[order] = np.arange(cluster)
        mask = raw >= 0
        raw[mask] = renumber[raw[mask]]
    return raw


def dbscan_from(dist: np.ndarray, eps: float, min_samples: int = 1) -> np.ndarray:
    """DBSCAN on a precomputed distance matrix.

    Neighborhoods are {j : d(i,j) <= eps} and include the point itself;
    they are handed to the same list-based DBSCAN that cluster_pool runs.
    """
    _check_dbscan(eps, min_samples)
    return _dbscan_lists(*_csr([_within(dist, eps)]), min_samples)


def remap_noise_to_singletons(raw_labels: np.ndarray) -> np.ndarray:
    """Renumber clusters 1..C by first appearance; each noise point (-1)
    becomes a fresh singleton cluster C+1, C+2, ... in row order."""
    raw = np.asarray(raw_labels, dtype=np.int64)
    out = np.zeros_like(raw)
    mapping: dict[int, int] = {}
    for i, value in enumerate(raw):
        if value == -1:
            continue
        v = int(value)
        if v not in mapping:
            mapping[v] = len(mapping) + 1
        out[i] = mapping[v]
    next_id = len(mapping) + 1
    for i in np.flatnonzero(raw == -1):
        out[i] = next_id
        next_id += 1
    return out


def cluster_pool(
    x: np.ndarray,
    method: str = "dict_dbscan",
    dbscan_k: int = 20,
    dbscan_q: float = 0.01,
    min_samples: int = 1,
    eps_override: float | None = None,
) -> ClusterAssignment:
    """Cluster a pool of codes or embeddings into latent-cluster labels.

    dict_dbscan first row-normalizes codes (the dbscan method takes the
    input as is); both then share one DBSCAN path. dict_argmax skips
    distances entirely: each row joins its largest-magnitude atom (ties:
    lowest index), and ids are renumbered 1.. by first appearance.
    """
    if method not in CLUSTERING_METHODS:
        raise ValueError(f"unknown clustering method {method!r}")
    arr = np.asarray(x, dtype=np.float64)
    if method == "dict_argmax":
        if arr.ndim != 2 or arr.shape[1] == 0:
            raise ValueError(f"expected a 2-D code matrix, got shape {arr.shape}")
        raw = np.argmax(np.abs(arr), axis=1).astype(np.int64)
        return ClusterAssignment(labels=remap_noise_to_singletons(raw),
                                 raw_labels=raw)
    if method == "dict_dbscan":
        arr = l2_normalize_rows(arr, eps=1e-12)
    unit = l2_normalize_rows(arr, eps=0.0)
    del arr  # a normalized copy for dict_dbscan; only unit is read below
    eps = eps_override
    if eps is None:
        _check_knn(unit.shape[0], dbscan_k, dbscan_q)
    _check_dbscan(0.0 if eps is None else eps, min_samples)
    if eps is None:
        kth = k_nearest(unit, dbscan_k)[1][:, dbscan_k - 1]
        eps = float(np.quantile(kth, dbscan_q))
    indptr, indices = _eps_lists(unit, eps)
    raw = _dbscan_lists(indptr, indices, min_samples)
    return ClusterAssignment(
        labels=remap_noise_to_singletons(raw),
        raw_labels=raw,
        eps=float(eps),
    )
