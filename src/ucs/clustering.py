"""Discretize codes or embeddings into latent clusters.

Distances are cosine throughout, and each one is defined per pair:
_pair_distances evaluates d(i, j) = 1 - <u_i, u_j> from the two unit rows
alone, so d(i, j) and d(j, i) are the same float and no distance depends on
which others are computed with it, on the strip height or on the BLAS thread
count. No stage holds the N x N matrix. A float32 screen goes over it one
row strip at a time (one BLAS product per strip), keeps every pair that can
be a neighbour, and only those pairs are evaluated exactly. k_nearest finds
each row's k nearest rows that way, bounding each row's k-th distance by
minima over groups of columns, and sorts each row's candidates in one
padded row per strip row; it is VoteK's k-NN graph and gives the k-th
distances whose q-quantile is eps. Each row's neighbours within eps are
then collected as CSR lists: a row whose k-th distance exceeds eps finds
them all among its k nearest, and only the other rows (about q N) are
screened again. DBSCAN runs on the lists (the neighbourhood-list form of
Schubert et al., "DBSCAN Revisited", TODS 2017) as array code, with no
per-point loop: the clusters are the connected components of the core
points, found by min-label propagation with pointer jumping, and each
border point joins the one with the smallest core point among its
neighbours'. Noise points are remapped to fresh singleton clusters so that
every example carries a cluster id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooFewPoints
from .preprocess import l2_normalize_rows

CLUSTERING_METHODS = ("dict_dbscan", "dbscan", "dict_argmax")

# Rows per screened strip; a strip holds DEFAULT_TILE_ROWS * N float32 values.
DEFAULT_TILE_ROWS = 256
# Column groups whose nearest entries bound a row's k-th distance in k_nearest.
SCREEN_GROUPS = 256
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


def _column_order(n: int) -> np.ndarray:
    """The fixed pseudo-random order in which _screened lays out columns."""
    return np.random.default_rng(0).permutation(n)


def _screened(unit: np.ndarray, rows: np.ndarray, limit):
    """(strip_rows, rows, cols, dist) for each strip of up to
    DEFAULT_TILE_ROWS of the row indices `rows` (ascending): the pairs
    (i, j), j != i, whose screened similarity is >= limit(strip, delta),
    grouped by row in strip order, with dist their exact _pair_distances.

    The screen is one float32 product per strip, strip = fl32(<u_i, u_j>),
    with the columns in _column_order. A screen never yields a row's own
    pair: its entry is -inf, below every floor, before limit reads the
    strip. limit returns a finite floor per row or one for all. Off the
    diagonal |strip - (1 - dist)| <= delta = 4 (d + 4) u, with u = 2^-24 and
    d the row length, for unit rows (zero rows give 0 in both):
      - rounding the inputs to float32 scales each product u_ik u_jk by at
        most (1 + u)^2, which moves the dot product by (2u + u^2) |u_i||u_j|;
      - a float32 dot product of length d, in any summation order, is off by
        at most gamma_d = d u / (1 - d u) times sum_k |u_ik u_jk| <= |u_i||u_j|;
      - 1 - dist is <u_i, u_j> clipped to [-1, 1], where the dot product of
        two unit rows lies, so the clip moves nothing further apart.
    That sums to (d + 2) u to first order. The factor 4 covers the higher
    order terms, the float64 error of dist itself (about d 2^-53), underflow
    in the float32 inputs (at most d 2^-149) and the rounding of a floor to
    float32 when it is compared with the strip.
    """
    n, d = unit.shape
    delta = 4 * (d + 4) * 2.0 ** -24
    order = _column_order(n)
    place = np.empty(n, dtype=np.intp)
    place[order] = np.arange(n)
    # the float32 copy in column order, filled a strip at a time so that
    # no second full copy is held
    u32 = np.empty(unit.shape, dtype=np.float32)
    for s in range(0, n, DEFAULT_TILE_ROWS):
        u32[s:s + DEFAULT_TILE_ROWS] = unit[order[s:s + DEFAULT_TILE_ROWS]]
    for s in range(0, rows.size, DEFAULT_TILE_ROWS):
        idx = rows[s:s + DEFAULT_TILE_ROWS]
        strip = u32[place[idx]] @ u32.T
        strip[np.arange(idx.size), place[idx]] = -np.inf
        floor = limit(strip, delta)
        r, c = np.divmod(np.flatnonzero(strip >= floor), n)
        del strip  # freed before the next strip is built
        r, c = idx[r], order[c]
        yield idx, r, c, _pair_distances(unit, r, c)


def k_nearest(unit: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(indices, distances), each N x k: every row's k nearest other rows of
    the unit rows `unit` and their _pair_distances, ordered by (distance,
    index). Raises ValueError for k < 1 and TooFewPoints for k >= N.

    The columns of each strip, in _column_order, are dealt into
    g = max(k + 1, min(N, SCREEN_GROUPS)) groups by position mod g (the last
    N mod g columns join none). A row's own entry is -inf (_screened), so
    the k-th largest of the g group maxima, m, is the smallest of k
    similarities from k distinct columns other than the row's own: m is <=
    the row's k-th largest float32 similarity, which lies within delta of
    1 - the exact k-th distance. In distances: the k-th smallest group
    minimum bounds the k-th distance from above. The entries screened at or
    above m - 2 delta therefore hold every row at or below the exact k-th
    distance, ties included; those are evaluated exactly and sorted. At
    g = N, m is the float32 k-th itself.

    Each strip's candidates are sorted in two padded arrays, distances and
    indices, of (strip rows) x (the most candidates any one of them has),
    padded with (+inf, N) so that padding sorts last; every row has at least
    k real candidates. A row has at most N - 1 candidates, so the pair holds
    at most DEFAULT_TILE_ROWS (N - 1) entries of 16 bytes, four times the
    float32 strip. The widest row sets the width of its whole strip: a
    block of b identical rows gives each of them at least b - 1 candidates
    at distance 0, so a strip holding one of them is at least b - 1 wide.

    The order is pseudo-random rather than the row order because m is tight
    only when a row's near neighbours spread over many groups. In a pool
    whose types repeat with period g, position mod g in row order would put
    each type into a group of its own, so m would reach k - 1 other types
    and let all their rows through.
    """
    n = unit.shape[0]
    _check_k(n, k)
    indices = np.empty((n, k), dtype=np.intp)
    distances = np.empty((n, k), dtype=np.float64)
    groups = max(k + 1, min(n, SCREEN_GROUPS))
    width = n // groups
    kth = groups - k  # where the k-th largest of g values sorts, ascending

    def near_kth(strip: np.ndarray, delta: float) -> np.ndarray:
        maxima = strip[:, :groups * width].reshape(-1, width, groups).max(axis=1)
        return np.partition(maxima, kth, axis=1)[:, kth:kth + 1] - 2 * delta

    for idx, rows, cols, dist in _screened(unit, np.arange(n), near_kth):
        # candidates arrive grouped by row, in column order: each row's go
        # into one padded row, sorted by (distance, index)
        line = rows - idx[0]
        counts = np.bincount(line, minlength=idx.size)
        slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        pad_dist = np.full((idx.size, counts.max()), np.inf)
        pad_cols = np.full(pad_dist.shape, n, dtype=np.intp)
        pad_dist[line, slot] = dist
        pad_cols[line, slot] = cols
        pick = np.lexsort((pad_cols, pad_dist), axis=1)[:, :k]
        indices[idx] = np.take_along_axis(pad_cols, pick, axis=1)
        distances[idx] = np.take_along_axis(pad_dist, pick, axis=1)
    return indices, distances


def _check_k(n: int, k: int) -> None:
    """The neighbour count of every k-NN pass over n points: 1 <= k < n."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= n:
        raise TooFewPoints(f"k={k} neighbors requested but only {n} points")


def _check_q(q: float) -> None:
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")


def knn_quantile_eps_from(dist: np.ndarray, k: int, q: float) -> float:
    """eps = q-quantile (linear interpolation) of each point's k-th nearest
    distance, self excluded. Needs k < N (TooFewPoints)."""
    _check_k(dist.shape[0], k)
    _check_q(q)
    off = np.array(dist, dtype=np.float64)
    np.fill_diagonal(off, np.inf)
    off.partition(k - 1, axis=1)
    return float(np.quantile(off[:, k - 1], q))


def _csr(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of the pairs (rows, cols), columns ascending."""
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[np.lexsort((cols, rows))]


def _eps_lists(unit: np.ndarray, eps: float,
               knn: tuple[np.ndarray, np.ndarray] | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of {j : d(i, j) <= eps}, i itself included,
    columns ascending.

    Every row's list holds i itself (d(i, i) = 0 <= eps) and the other j
    with d(i, j) <= eps. knn is k_nearest's (indices, distances) for
    `unit`, or None. A row whose k-th distance exceeds eps has every such j
    among its k nearest; d(i, j) and d(j, i) are one float, so the lists
    stay symmetric. Every other row (every row when knn is None) is
    screened at the similarity floor 1 - min(eps, 2) - delta (no distance
    exceeds 2) and keeps the exact distances <= eps.
    """
    n = unit.shape[0]
    screen = np.arange(n)
    rows, cols = [screen], [screen]  # (i, i) for every row
    if knn is not None:
        indices, distances = knn
        inside = distances[:, -1] > eps
        screen = np.flatnonzero(~inside)
        near = inside[:, None] & (distances <= eps)
        rows.append(np.nonzero(near)[0])
        cols.append(indices[near])
    floor = 1.0 - min(eps, 2.0)
    for _, r, c, dist in _screened(unit, screen, lambda strip, delta: floor - delta):
        keep = dist <= eps
        rows.append(r[keep])
        cols.append(c[keep])
    return _csr(n, np.concatenate(rows), np.concatenate(cols))


def _check_dbscan(eps: float, min_samples: int) -> None:
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    if min_samples < 1:
        raise ValueError(f"min_samples must be >= 1, got {min_samples}")


def _first_appearance(ids: np.ndarray) -> np.ndarray:
    """ids renumbered 0, 1, ... in the order of the first row that holds each;
    the smallest member of a cluster is the first row holding its id."""
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def _components(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """(root, rounds): root[i] is the smallest node of i's connected
    component in the graph on n nodes with the edges (a[e], b[e]), and
    rounds is the number of hooking rounds taken.

    Min-label propagation with pointer jumping. Each round hooks every root
    onto the smallest root across its edges (parent[hi] = min(parent[hi],
    lo) for each edge's two roots), then jumps pointers until every tree
    is a star, and drops the edges that now lie inside one tree. A parent
    is never larger than its node, so every root is its tree's smallest
    node. A tree that does not hook in a round is a local minimum among its
    neighbours, which all hook; in the next round it has a smaller
    neighbour and hooks itself. So every tree merges within two rounds,
    the trees of a component at least halve every two rounds, and the loop
    ends after at most 2 ceil(log2 n) rounds. On a path of trees only the
    local minima stay roots, so the trees halve every round: at most
    ceil(log2 n) rounds, and a path numbered in order along its length
    takes one.
    """
    parent = np.arange(n)
    rounds = 0
    while a.size:
        ra, rb = parent[a], parent[b]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        rounds += 1
        apart = parent[a] != parent[b]
        a, b = a[apart], b[apart]
    return parent, rounds


def _dbscan_lists(indptr: np.ndarray, indices: np.ndarray,
                  min_samples: int) -> np.ndarray:
    """DBSCAN on symmetric CSR neighbourhood lists (each list includes its
    point).

    Returns raw labels: clusters 0..C-1, noise -1. A point is core when its
    list holds at least min_samples points. The clusters are the connected
    components of the core points (_components), and a border point, one
    that is not core but lies in a core point's list, joins the component
    with the smallest core point among its core neighbours'. That is the
    breadth-first scan's rule, a border point joins the first cluster that
    reaches it, because the scan opens clusters in index order of their
    smallest core point. Clusters are then numbered by smallest member
    (_first_appearance).
    """
    n = indptr.size - 1
    sizes = np.diff(indptr)
    core = sizes >= min_samples
    rows = np.repeat(np.arange(n), sizes)
    from_core = core[rows]
    both = from_core & core[indices]
    root, _ = _components(n, rows[both], indices[both])
    raw = np.where(core, root, n)
    border = from_core & ~core[indices]
    np.minimum.at(raw, indices[border], root[rows[border]])
    raw[raw == n] = -1
    member = raw != -1
    raw[member] = _first_appearance(raw[member])
    return raw


def dbscan_from(dist: np.ndarray, eps: float, min_samples: int = 1) -> np.ndarray:
    """DBSCAN on a precomputed distance matrix.

    Neighborhoods are {j : d(i,j) <= eps} and include the point itself;
    they are handed to the same list-based DBSCAN that cluster_pool runs.
    That DBSCAN reads the lists as an undirected graph, so the relation
    d(i,j) <= eps must be symmetric (cosine_distance_matrix's is); a square
    matrix whose relation is not raises ValueError.
    """
    _check_dbscan(eps, min_samples)
    near = np.asarray(dist) <= eps
    if not np.array_equal(near, near.T):
        raise ValueError("dist must be square with d(i,j) <= eps exactly when d(j,i) <= eps")
    return _dbscan_lists(*_csr(near.shape[0], *np.nonzero(near)), min_samples)


def remap_noise_to_singletons(raw_labels: np.ndarray) -> np.ndarray:
    """Renumber clusters 1..C by first appearance; each noise point (-1)
    becomes a fresh singleton cluster C+1, C+2, ... in row order."""
    raw = np.asarray(raw_labels, dtype=np.int64)
    noise = raw == -1
    out = np.empty_like(raw)
    out[~noise] = _first_appearance(raw[~noise]) + 1
    out[noise] = out[~noise].max(initial=0) + 1 + np.arange(np.count_nonzero(noise))
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
        eps = None
    else:
        if method == "dict_dbscan":
            arr = l2_normalize_rows(arr, eps=1e-12)
        unit = l2_normalize_rows(arr, eps=0.0)
        del arr  # a normalized copy for dict_dbscan; only unit is read below
        eps = eps_override
        _check_dbscan(0.0 if eps is None else eps, min_samples)
        knn = None
        if eps is None:
            _check_q(dbscan_q)
            knn = k_nearest(unit, dbscan_k)
            eps = np.quantile(knn[1][:, -1], dbscan_q)
        eps = float(eps)
        raw = _dbscan_lists(*_eps_lists(unit, eps, knn), min_samples)
    return ClusterAssignment(labels=remap_noise_to_singletons(raw),
                             raw_labels=raw, eps=eps)
