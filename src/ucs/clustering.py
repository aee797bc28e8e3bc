"""Discretize codes or embeddings into latent clusters.

Distances are cosine throughout. They are computed in row strips of the
N x N distance matrix, one strip at a time, and each strip is consumed as
soon as it exists, so clustering holds one strip rather than the whole
matrix. Clustering makes one pass: from each strip it takes each row's
k-th nearest distance (the q-quantile of those is eps) and the entries no
larger than a bound that is provably >= eps, and once eps is known it cuts
those candidates down to each row's neighbours within eps, as CSR lists;
only a strip seen before any bound exists is built a second time. DBSCAN
runs on the lists (the neighbourhood-list form of Schubert et al.,
"DBSCAN Revisited", TODS 2017). Strips are assembled from square blocks, and
the pair (i, j), (j, i) always comes from one block product, so distances
are exactly symmetric. BLAS threads each block product; the rest runs on
the calling thread. Noise points are remapped to fresh singleton clusters
so that every example carries a cluster id.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import TooFewPoints
from .preprocess import l2_normalize_rows

CLUSTERING_METHODS = ("dict_dbscan", "dbscan", "dict_argmax")

# Rows per strip and the side of the blocks strips are built from; a strip
# holds DEFAULT_TILE_ROWS * N float64 values.
DEFAULT_TILE_ROWS = 256
# Rows _kth_on_copies copies at a time.
_KTH_ROWS = 16


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


def _strip(unit: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """Rows i0:i1 of the cosine distance matrix of the unit rows `unit`:
    1 - <ui, uj> clipped to [0, 2], with a zero diagonal.

    i0 is a multiple of DEFAULT_TILE_ROWS (as read at the call, so tests may
    set it), and the strip is built from blocks of that side: the blocks
    left of the diagonal are transposes of the products the strips above
    compute, so d(i, j) and d(j, i) are the same float. BLAS threads each
    block product.
    """
    n = unit.shape[0]
    rows = DEFAULT_TILE_ROWS
    strip = np.empty((i1 - i0, n), dtype=np.float64)
    for j0 in range(0, n, rows):
        j1 = min(j0 + rows, n)
        if j0 < i0:
            strip[:, j0:j1] = (unit[j0:j1] @ unit[i0:i1].T).T
        else:
            strip[:, j0:j1] = unit[i0:i1] @ unit[j0:j1].T
    np.subtract(1.0, strip, out=strip)
    np.clip(strip, 0.0, 2.0, out=strip)
    strip[np.arange(i1 - i0), np.arange(i0, i1)] = 0.0
    return strip


def _distance_strips(unit: np.ndarray, consume) -> list:
    """consume(i0, strip) for each row strip of the cosine distance matrix of
    the unit rows `unit`, in row order; returns the list of results.

    Each strip is DEFAULT_TILE_ROWS rows (fewer at the end) of _strip, which
    consume owns and may overwrite. Strips run one after another.
    """
    n = unit.shape[0]
    rows = DEFAULT_TILE_ROWS
    return [consume(i0, _strip(unit, i0, min(i0 + rows, n)))
            for i0 in range(0, n, rows)]


def cosine_distance_matrix(x: np.ndarray) -> np.ndarray:
    """Pairwise cosine distances 1 - <xi,xj>/(|xi||xj|), exactly symmetric.

    Zero rows sit at distance 1 from everything. The diagonal is zero and
    values are clipped to [0, 2]. The values are those the strip passes of
    cluster_pool and the VoteK graph see at the current DEFAULT_TILE_ROWS.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
    n = arr.shape[0]
    dist = np.empty((n, n), dtype=np.float64)

    def fill(i0: int, strip: np.ndarray) -> None:
        dist[i0:i0 + strip.shape[0]] = strip

    _distance_strips(l2_normalize_rows(arr, eps=0.0), fill)
    return dist


def _check_knn(n: int, k: int, q: float) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if k >= n:
        raise TooFewPoints(f"k={k} neighbors requested but only {n} points")


def _kth_excluding_self(block: np.ndarray, i0: int, k: int) -> np.ndarray:
    """k-th smallest value of each row of block (rows i0.. of a distance
    matrix), the row's own column excluded; partitions block in place."""
    r = np.arange(block.shape[0])
    block[r, i0 + r] = np.inf
    block.partition(k - 1, axis=1)
    return block[:, k - 1].copy()


def _kth_on_copies(strip: np.ndarray, i0: int, k: int) -> np.ndarray:
    """_kth_excluding_self of each row of strip, found on copies of a few
    rows at a time, so that strip keeps its order."""
    kth = np.empty(strip.shape[0], dtype=np.float64)
    scratch = np.empty((_KTH_ROWS, strip.shape[1]), dtype=np.float64)
    for r0 in range(0, strip.shape[0], _KTH_ROWS):
        part = scratch[:min(_KTH_ROWS, strip.shape[0] - r0)]
        np.copyto(part, strip[r0:r0 + part.shape[0]])
        kth[r0:r0 + part.shape[0]] = _kth_excluding_self(part, i0 + r0, k)
    return kth


def knn_quantile_eps_from(dist: np.ndarray, k: int, q: float) -> float:
    """eps = q-quantile (linear interpolation) of each point's k-th nearest
    distance, self excluded. Needs k < N (TooFewPoints)."""
    _check_knn(dist.shape[0], k, q)
    kth = _kth_excluding_self(np.array(dist, dtype=np.float64), 0, k)
    return float(np.quantile(kth, q))


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


def _neighbor_lists(unit: np.ndarray, k: int, q: float, eps: float | None):
    """(kth, eps, indptr, indices): CSR lists of {j : d(i, j) <= eps} (i
    itself included), from one pass over the strips.

    Given eps, kth is None and each strip keeps its entries <= eps. With eps
    None, kth holds each row's k-th nearest distance, self excluded, and eps
    is its q-quantile (linear interpolation). Each strip then keeps its
    entries <= U, the hi-th smallest k-th distance over the rows before it,
    hi = ceil(q (N - 1)); the strip holding row hi also counts its own rows.
    The interpolated quantile never exceeds order statistic hi, which over a
    subset of the rows can only be larger, so U >= eps and a row's list is
    its kept entries <= eps. A strip that ends at or before row hi keeps
    nothing (U = -inf); any strip whose U is below eps is built again.
    """
    n = unit.shape[0]
    if eps is not None:
        return (None, eps, *_csr(_distance_strips(
            unit, lambda i0, strip: _within(strip, eps))))
    kth = np.empty(n, dtype=np.float64)
    hi = math.ceil(q * (n - 1))

    def keep(i0: int, strip: np.ndarray):
        i1 = i0 + strip.shape[0]
        own = i0 <= hi < i1  # row hi's strip: its bound needs its own rows
        if own:
            kth[i0:i1] = _kth_on_copies(strip, i0, k)
        known = i1 if own else i0
        bound = np.partition(kth[:known], hi)[hi] if known > hi else -np.inf
        flat = np.flatnonzero(strip <= bound)
        values = strip.ravel()[flat]
        if not own:
            kth[i0:i1] = _kth_excluding_self(strip, i0, k)
        return i0, i1, bound, flat, values

    kept = _distance_strips(unit, keep)
    eps = float(np.quantile(kth, q))
    parts = []
    for i0, i1, bound, flat, values in kept:
        if bound < eps:
            parts.append(_within(_strip(unit, i0, i1), eps))
        else:
            flat = flat[values <= eps]
            parts.append((np.bincount(flat // n, minlength=i1 - i0), flat % n))
    return (kth, eps, *_csr(parts))


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
    if eps_override is None:
        _check_knn(unit.shape[0], dbscan_k, dbscan_q)
    _check_dbscan(0.0 if eps_override is None else eps_override, min_samples)
    _, eps, indptr, indices = _neighbor_lists(unit, dbscan_k, dbscan_q,
                                              eps_override)
    raw = _dbscan_lists(indptr, indices, min_samples)
    return ClusterAssignment(
        labels=remap_noise_to_singletons(raw),
        raw_labels=raw,
        eps=float(eps),
    )
