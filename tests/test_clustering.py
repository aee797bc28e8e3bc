import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import adjusted_rand_index, canon, reference_dbscan, union_find_partition
import ucs.clustering
from ucs.clustering import (
    _eps_lists,
    cluster_pool,
    cosine_distance_matrix,
    dbscan_from,
    k_nearest,
    knn_quantile_eps_from,
    remap_noise_to_singletons,
)
from ucs.errors import TooFewPoints
from ucs.preprocess import l2_normalize_rows
from ucs.selection import _knn_graph, dpp_kernel
from ucs.synth_oracle import Population, sample_pool

THREE_CODES = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]) / np.array(
    [[1.0], [1.0], [np.sqrt(2.0)]]
)


def test_cosine_hand_values():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    d = cosine_distance_matrix(x)
    assert d[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert d[0, 0] == 0.0
    assert d[0, 2] == pytest.approx(1.0 - 1.0 / np.sqrt(2.0), abs=1e-12)


def test_cosine_zero_row_distance_one():
    d = cosine_distance_matrix(np.array([[0.0, 0.0], [1.0, 2.0]]))
    assert d[0, 1] == 1.0
    assert d[1, 0] == 1.0
    assert d[0, 0] == 0.0


def test_cosine_symmetry_exact():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 5))
    d = cosine_distance_matrix(x)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert d.min() >= 0.0 and d.max() <= 2.0


def test_cosine_scale_invariant():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, 4))
    scales = rng.uniform(0.1, 50.0, size=(20, 1))
    assert np.allclose(
        cosine_distance_matrix(x), cosine_distance_matrix(x * scales), atol=1e-12
    )


def test_knn_eps_three_codes():
    # every point's nearest neighbor sits at 1 - 1/sqrt(2)
    want = 1.0 - 1.0 / np.sqrt(2.0)
    for q in (0.0, 0.25, 0.5, 1.0):
        eps = cluster_pool(THREE_CODES, method="dbscan", dbscan_k=1, dbscan_q=q).eps
        assert eps == pytest.approx(want, abs=1e-9)


def test_knn_eps_identical_points_zero():
    x = np.ones((5, 3))
    assert cluster_pool(x, method="dbscan", dbscan_k=2, dbscan_q=0.7).eps == 0.0


def test_knn_eps_q_zero_is_minimum():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((12, 4))
    d = cosine_distance_matrix(x)
    kth = np.sort(d + np.diag(np.full(12, np.inf)), axis=1)[:, 2]
    assert knn_quantile_eps_from(d, k=3, q=0.0) == pytest.approx(
        float(kth.min()), abs=1e-12
    )
    assert knn_quantile_eps_from(d, k=3, q=1.0) == pytest.approx(
        float(kth.max()), abs=1e-12
    )


def test_knn_eps_too_few_points():
    with pytest.raises(TooFewPoints):
        cluster_pool(THREE_CODES, method="dbscan", dbscan_k=3, dbscan_q=0.5)


def test_knn_eps_parameter_validation():
    with pytest.raises(ValueError):
        cluster_pool(THREE_CODES, method="dbscan", dbscan_k=0, dbscan_q=0.5)
    with pytest.raises(ValueError):
        cluster_pool(THREE_CODES, method="dbscan", dbscan_k=1, dbscan_q=1.5)


def _dbscan(x, eps, min_samples=1):
    return cluster_pool(x, method="dbscan", eps_override=eps,
                        min_samples=min_samples).raw_labels


def test_dbscan_three_codes_one_cluster():
    assert np.array_equal(_dbscan(THREE_CODES, eps=0.3), [0, 0, 0])


def test_dbscan_three_codes_singletons():
    assert np.array_equal(_dbscan(THREE_CODES, eps=0.1), [0, 1, 2])


def test_dbscan_min_samples_unsatisfiable():
    assert np.array_equal(_dbscan(THREE_CODES, eps=0.3, min_samples=5), [-1, -1, -1])


def test_dbscan_border_point_joins_first_core_cluster():
    # Two tight triples with a non-core point 3 within eps of exactly one
    # core on each side; the scan reaches core 2 first, so 3 lands in the
    # left cluster.
    far, near = 0.9, 0.1
    d = np.full((7, 7), far)
    for group in ([0, 1, 2], [4, 5, 6]):
        for a in group:
            for b in group:
                d[a, b] = near if a != b else 0.0
    np.fill_diagonal(d, 0.0)
    d[3, 2] = d[2, 3] = near
    d[3, 4] = d[4, 3] = near
    raw = dbscan_from(d, eps=0.2, min_samples=4)
    assert np.array_equal(raw, [0, 0, 0, 0, 1, 1, 1])


def test_dbscan_matches_union_find_components():
    # With min_samples=1 every point is core, so clusters are exactly the
    # connected components of the eps graph.
    rng = np.random.default_rng(4)
    for trial in range(25):
        n = int(rng.integers(2, 40))
        x = rng.standard_normal((n, 3))
        d = cosine_distance_matrix(x)
        off_diag = d[~np.eye(n, dtype=bool)]
        eps = float(np.quantile(off_diag, rng.uniform(0.05, 0.6))) if n > 1 else 0.1
        raw = dbscan_from(d, eps, min_samples=1)
        assert (raw >= 0).all()
        assert canon(raw) == canon(union_find_partition(d, eps)), f"trial {trial}"


def test_dbscan_numbering_by_smallest_member():
    # cluster containing point 0 must be labeled 0 even if discovered later
    d = np.array(
        [
            [0.0, 0.9, 0.1],
            [0.9, 0.0, 0.9],
            [0.1, 0.9, 0.0],
        ]
    )
    raw = dbscan_from(d, eps=0.2, min_samples=1)
    assert np.array_equal(raw, [0, 1, 0])


def test_dbscan_from_refuses_an_asymmetric_neighbourhood():
    # 1 lies within eps of 0 but not 0 of 1: the lists would not be the
    # undirected graph DBSCAN reads them as
    with pytest.raises(ValueError, match="d\\(j,i\\) <= eps"):
        dbscan_from(np.array([[0.0, 5.0], [0.1, 0.0]]), eps=1.0, min_samples=1)
    with pytest.raises(ValueError, match="square"):
        dbscan_from(np.zeros((2, 3)), eps=1.0)


def test_remap_examples():
    assert np.array_equal(
        remap_noise_to_singletons(np.array([0, 0, -1, 1, -1])), [1, 1, 3, 2, 4]
    )
    assert np.array_equal(remap_noise_to_singletons(np.array([2, 2, 0])), [1, 1, 2])
    assert np.array_equal(remap_noise_to_singletons(np.array([-1, -1])), [1, 2])


def test_remap_matches_first_appearance_reference():
    rng = np.random.default_rng(8)
    for trial in range(30):
        raw = rng.integers(-1, int(rng.integers(1, 12)), size=int(rng.integers(0, 60)))
        kept = raw != -1
        want = np.empty(raw.size, dtype=np.int64)
        want[kept] = np.array(canon(raw[kept]), dtype=np.int64) + 1
        start = int(want[kept].max()) + 1 if kept.any() else 1
        want[~kept] = np.arange(start, start + np.count_nonzero(~kept))
        assert np.array_equal(remap_noise_to_singletons(raw), want), f"trial {trial}"


@pytest.mark.parametrize("min_samples", [1, 3])
def test_dbscan_clusters_numbered_by_first_member_with_noise(min_samples):
    # raw ids run 0..C-1 in the order of each cluster's first row, noise is -1,
    # and cluster_pool's labels are that numbering remapped
    x, _ = sample_pool(Population.zipf(30, 1.1), 300, dim=12, spread=0.4, seed=2)
    d = cosine_distance_matrix(x)
    eps = knn_quantile_eps_from(d, k=5, q=0.3)
    raw = dbscan_from(d, eps, min_samples)
    member = raw[raw >= 0]
    assert np.array_equal(member, canon(member))
    if min_samples > 1:
        assert (raw == -1).any()
    assign = cluster_pool(x, method="dbscan", dbscan_k=5, dbscan_q=0.3,
                          min_samples=min_samples)
    assert np.array_equal(assign.raw_labels, raw)
    assert np.array_equal(assign.labels, remap_noise_to_singletons(raw))


def test_k_nearest_checks_the_neighbour_count():
    # numpy's partition and reshape used to fail first, with their own messages
    x = np.random.default_rng(0).standard_normal((5, 3))
    unit = l2_normalize_rows(x, eps=0.0)
    for search in (lambda k: k_nearest(unit, k), lambda k: _knn_graph(x, k)):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            search(0)
        for k in (5, 6):
            with pytest.raises(TooFewPoints, match=f"k={k} neighbors requested but only 5"):
                search(k)


def test_argmax_magnitude_and_tie_rules():
    codes = np.array([[0.1, -0.9, 0.2], [1.0, 0.0, 0.0]])
    assign = cluster_pool(codes, method="dict_argmax")
    assert np.array_equal(assign.raw_labels, [1, 0])  # atom 2 then atom 1
    assert np.array_equal(assign.labels, [1, 2])
    tie = cluster_pool(np.array([[0.5, 0.5]]), method="dict_argmax")
    assert np.array_equal(tie.raw_labels, [0])  # lowest atom index wins
    assert np.array_equal(tie.labels, [1])


def test_argmax_one_hot_codes():
    assert np.array_equal(cluster_pool(np.eye(4), method="dict_argmax").labels,
                          [1, 2, 3, 4])


def test_cluster_pool_permutation_equivariance():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 4))
    perm = rng.permutation(30)
    base = cluster_pool(x, method="dbscan", dbscan_k=3, dbscan_q=0.5)
    shuffled = cluster_pool(x[perm], method="dbscan", dbscan_k=3, dbscan_q=0.5)
    assert shuffled.eps == base.eps
    assert canon(base.labels[perm]) == canon(shuffled.labels)


def test_cluster_pool_scale_invariance():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((25, 4))
    scales = rng.uniform(0.5, 9.0, size=(25, 1))
    a = cluster_pool(x, method="dbscan", dbscan_k=2, dbscan_q=0.3)
    b = cluster_pool(x * scales, method="dbscan", dbscan_k=2, dbscan_q=0.3)
    assert np.array_equal(a.labels, b.labels)


def test_cluster_pool_dict_dbscan_normalizes_first():
    rng = np.random.default_rng(7)
    codes = rng.standard_normal((15, 5))
    unit = codes / np.linalg.norm(codes, axis=1, keepdims=True)
    a = cluster_pool(codes, method="dict_dbscan", dbscan_k=2, dbscan_q=0.4)
    b = cluster_pool(unit, method="dbscan", dbscan_k=2, dbscan_q=0.4)
    assert np.array_equal(a.labels, b.labels)


def test_cluster_pool_eps_override_and_report_fields():
    assign = cluster_pool(THREE_CODES, method="dbscan", eps_override=0.3)
    assert assign.eps == 0.3
    assert assign.n_clusters == 1
    assert np.array_equal(assign.labels, [1, 1, 1])
    assert np.array_equal(assign.raw_labels, [0, 0, 0])


def test_cluster_pool_unknown_method():
    with pytest.raises(ValueError):
        cluster_pool(THREE_CODES, method="kmeans")


def test_every_point_gets_positive_label():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((40, 3))
    assign = cluster_pool(x, method="dbscan", dbscan_k=2, dbscan_q=0.05,
                          min_samples=3)
    assert (assign.labels >= 1).all()
    # noise points own fresh singleton ids
    noise = assign.raw_labels == -1
    if noise.any():
        ids, counts = np.unique(assign.labels[noise], return_counts=True)
        assert (counts == 1).all()
        assert ids.min() > assign.labels[~noise].max()


# ---------------------------------------------------------------------------
# Row-strip passes against dense oracles. The oracle matrix is
# cosine_distance_matrix, which holds every pair's distance as the passes
# evaluate it, whatever the strip height; everything the passes derive from
# it (k-th distances, eps, neighbour lists, clusters, k-NN graph) is
# recomputed densely here. The passes run at several strip heights
# (DEFAULT_TILE_ROWS, set by monkeypatch) against that one oracle.

TILE = 7  # several strips per pool, the last one ragged


def _strip_pools():
    pools = []
    for seed in range(3):
        x, _ = sample_pool(Population.zipf(12, 1.1), 59, dim=6, spread=0.3, seed=seed)
        pools.append(x)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((45, 4))
    x[10:14] = x[2]  # five identical rows
    x[[20, 31]] = 0.0  # zero rows: distance exactly 1 to everything
    pools.append(x)
    # mirror images around row 0: exact ties at row 0's k-th distance
    deg = np.deg2rad([0.0, 15.0, -15.0, 30.0, -30.0, 45.0, -45.0, 60.0, -60.0])
    pools.append(np.stack([np.cos(deg), np.sin(deg)], axis=1))
    return pools


def _dense_kth(dist, k):
    off = dist.copy()
    np.fill_diagonal(off, np.inf)
    return np.sort(off, axis=1)[:, k - 1]


def _assert_lists(dist, eps, indptr, indices, tag):
    n = dist.shape[0]
    assert indptr[0] == 0 and indptr[-1] == indices.size
    adjacency = np.zeros((n, n), dtype=bool)
    for i in range(n):
        row = indices[indptr[i]:indptr[i + 1]]
        assert np.array_equal(row, np.flatnonzero(dist[i] <= eps)), (tag, eps, i)
        adjacency[i, row] = True
    assert np.array_equal(adjacency, adjacency.T), (tag, eps)


# Strip heights of one, two and three times TILE; at the larger heights the
# smallest pool is a single strip.
@pytest.mark.parametrize("tile_mult", [1, 2, 3])
def test_strip_passes_match_dense_oracle(monkeypatch, tile_mult):
    monkeypatch.setattr(ucs.clustering, "DEFAULT_TILE_ROWS", TILE * tile_mult)
    for pool_id, x in enumerate(_strip_pools()):
        n = x.shape[0]
        dist = cosine_distance_matrix(x)
        unit = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-300)
        ref = np.clip(1.0 - unit @ unit.T, 0.0, 2.0)
        np.fill_diagonal(ref, 0.0)
        assert np.allclose(dist, ref, atol=1e-12)
        strip_unit = l2_normalize_rows(x, eps=0.0)
        for k in (1, 3, n - 1):
            kth = k_nearest(strip_unit, k)[1][:, k - 1]
            assert np.array_equal(kth, _dense_kth(dist, k)), (pool_id, k)
            for q in (0.0, 0.3, 1.0):
                want = float(np.quantile(_dense_kth(dist, k), q))
                assert knn_quantile_eps_from(dist, k, q) == want
                got = cluster_pool(x, method="dbscan", dbscan_k=k, dbscan_q=q)
                assert got.eps == want, (pool_id, k, q)
                assert canon(got.raw_labels) == canon(union_find_partition(dist, want))
        for eps in (0.0, 0.05, float(np.median(dist)), 1.0, 2.0):
            _assert_lists(dist, eps, *_eps_lists(strip_unit, eps), pool_id)
            for min_samples in (1, 3):
                got = cluster_pool(x, method="dbscan", eps_override=eps,
                                   min_samples=min_samples)
                assert np.array_equal(got.raw_labels,
                                      dbscan_from(dist, eps, min_samples))
            got = cluster_pool(x, method="dbscan", eps_override=eps)
            assert canon(got.raw_labels) == canon(union_find_partition(dist, eps))


def _planted_pool(d, seed):
    """Random rows plus a band of rows whose distances to row 0 step by
    delta / 8 across 0.3 +- delta, where delta = 4 (d + 4) 2^-24 bounds the
    float32 screen's error, so the screen cannot tell the band apart; then
    copies of rows 0 and 3 and two zero rows."""
    rng = np.random.default_rng(seed)
    delta = 4 * (d + 4) * 2.0 ** -24
    base = rng.standard_normal((30, d))
    anchor = base[0] / np.linalg.norm(base[0])
    side = rng.standard_normal((17, d))
    side -= np.outer(side @ anchor, anchor)
    side /= np.linalg.norm(side, axis=1, keepdims=True)
    cos = 1.0 - (0.3 + delta * np.arange(-8, 9) / 8)
    band = cos[:, None] * anchor + np.sqrt(1.0 - cos ** 2)[:, None] * side
    return np.vstack([base, band, base[[0, 0, 3]], np.zeros((2, d))]), delta


@pytest.mark.parametrize("d", [2, 17, 64, 768])
def test_screen_keeps_every_exact_candidate(monkeypatch, d):
    monkeypatch.setattr(ucs.clustering, "DEFAULT_TILE_ROWS", TILE)
    x, delta = _planted_pool(d, seed=d)
    n = x.shape[0]
    dist = cosine_distance_matrix(x)
    off = dist.copy()
    np.fill_diagonal(off, np.inf)
    unit = l2_normalize_rows(x, eps=0.0)
    band = dist[0, 30:47]
    # k values that put row 0's k-th distance inside the band
    inside = [int((off[0] < band.min()).sum()) + j for j in (1, 9, 17)]
    for k in sorted({1, 2, 5, n - 1, *inside}):
        indices, distances = k_nearest(unit, k)
        want = np.argsort(off, axis=1, kind="stable")[:, :k]
        assert np.array_equal(indices, want), (d, k)
        assert np.array_equal(distances, np.take_along_axis(off, want, axis=1))
    assert np.abs(band - band[8]).max() <= 1.01 * delta  # the band was planted
    # eps on a planted distance, and delta / 2 to either side of it
    for eps in (*band[::4], *(band[::4] - delta / 2), *(band[::4] + delta / 2)):
        _assert_lists(dist, eps, *_eps_lists(unit, eps), d)
    for k, q in ((inside[1], 1.0), (3, 0.5), (n - 1, 0.0)):
        want = float(np.quantile(_dense_kth(dist, k), q))
        got = cluster_pool(x, method="dbscan", dbscan_k=k, dbscan_q=q)
        assert got.eps == want, (d, k, q)
        assert np.array_equal(got.raw_labels, dbscan_from(dist, want, 1))


@pytest.mark.parametrize("tile_mult", [1, 2, 3])
def test_strip_knn_graph_matches_dense_argsort(monkeypatch, tile_mult):
    monkeypatch.setattr(ucs.clustering, "DEFAULT_TILE_ROWS", TILE * tile_mult)
    ties = 0
    for x in _strip_pools():
        dist = cosine_distance_matrix(x)
        np.fill_diagonal(dist, np.inf)
        for k in (1, 2, 3, x.shape[0] - 1):
            want = np.argsort(dist, axis=1, kind="stable")[:, :k]
            assert np.array_equal(_knn_graph(x, k), want)
            kth = np.sort(dist, axis=1)[:, k - 1:k]
            ties += int(((dist <= kth).sum(axis=1) > k).sum())
    assert ties > 0  # some rows tie at their k-th distance


def _interleaved_pool(period, n=47, d=5, seed=3):
    """Row i belongs to type i mod period: with the columns in row order,
    position mod period would put each type into a group of its own."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((period, d))
    return centers[np.arange(n) % period] + 0.05 * rng.standard_normal((n, d))


_COLUMN_ORDERS = {
    "identity": np.arange,
    "reversed": lambda n: np.arange(n)[::-1].copy(),
    "random": lambda n: np.random.default_rng(7).permutation(n),
}


# Group counts small enough that the test pools have several columns per
# group and a ragged tail of columns in no group.
@pytest.mark.parametrize("groups", [2, 4, 5, 7])
def test_group_bound_and_knn_lists_match_dense_oracle(monkeypatch, groups):
    monkeypatch.setattr(ucs.clustering, "DEFAULT_TILE_ROWS", TILE)
    monkeypatch.setattr(ucs.clustering, "SCREEN_GROUPS", groups)
    for pool_id, x in enumerate([*_strip_pools(), _interleaved_pool(groups)]):
        n = x.shape[0]
        dist = cosine_distance_matrix(x)
        off = dist.copy()
        np.fill_diagonal(off, np.inf)
        unit = l2_normalize_rows(x, eps=0.0)
        for k in (1, 3, n - 1):
            want = np.argsort(off, axis=1, kind="stable")[:, :k]
            for name, order in _COLUMN_ORDERS.items():
                monkeypatch.setattr(ucs.clustering, "_column_order", order)
                knn = k_nearest(unit, k)
                assert np.array_equal(knn[0], want), (pool_id, k, name)
                assert np.array_equal(knn[1], np.take_along_axis(off, want, axis=1))
            kth = knn[1][:, -1]
            # q = 0 and 1 put eps on a k-th distance exactly, as does every
            # third distinct k-th distance; at q = 1 every row is screened
            qs = [float(np.quantile(kth, q)) for q in (0.0, 0.3, 1.0)]
            for eps in (*qs, *np.unique(kth)[::3]):
                tag = (pool_id, k, eps)
                _assert_lists(dist, eps, *_eps_lists(unit, eps, knn), tag)
        for q in (0.0, 0.3, 1.0):
            got = cluster_pool(x, method="dbscan", dbscan_k=3, dbscan_q=q)
            assert got.eps == float(np.quantile(_dense_kth(dist, 3), q))
            assert np.array_equal(got.raw_labels, dbscan_from(dist, got.eps, 1))
        for eps in (0.0, 0.05, float(np.median(dist))):
            got = cluster_pool(x, method="dbscan", eps_override=eps, min_samples=3)
            assert np.array_equal(got.raw_labels, dbscan_from(dist, eps, 3))


def _candidates_per_row(monkeypatch, unit, k):
    pairs = []
    real = ucs.clustering._pair_distances

    def counting(u, rows, cols):
        pairs.append(rows.size)
        return real(u, rows, cols)

    monkeypatch.setattr(ucs.clustering, "_pair_distances", counting)
    k_nearest(unit, k)
    monkeypatch.setattr(ucs.clustering, "_pair_distances", real)
    return sum(pairs) / unit.shape[0]


def test_random_column_order_keeps_the_group_bound_tight(monkeypatch):
    # types repeating with the group count's period: in row order each type
    # fills one group, so k-1 of the k smallest group minima come from other
    # types and the screen lets their rows through
    monkeypatch.setattr(ucs.clustering, "SCREEN_GROUPS", 16)
    unit = l2_normalize_rows(_interleaved_pool(16, n=16 * 30, d=8), eps=0.0)
    k = 5
    tight = _candidates_per_row(monkeypatch, unit, k)
    monkeypatch.setattr(ucs.clustering, "_column_order", np.arange)
    strided = _candidates_per_row(monkeypatch, unit, k)
    assert tight < 2 * k < strided


def test_cluster_pool_screens_only_rows_the_knn_pass_cannot_settle(monkeypatch):
    # one full screened pass (k_nearest) plus the rows with kth <= eps; with
    # eps given, one full pass
    screened = []
    real = ucs.clustering._screened

    def counting(unit, rows, limit):
        for strip in real(unit, rows, limit):
            screened.append(strip[0].size)
            yield strip

    monkeypatch.setattr(ucs.clustering, "DEFAULT_TILE_ROWS", TILE)
    monkeypatch.setattr(ucs.clustering, "_screened", counting)
    x, _ = sample_pool(Population.zipf(12, 1.1), 59, dim=6, spread=0.3, seed=0)
    n = x.shape[0]
    dist = cosine_distance_matrix(x)
    for k, q in ((20, 0.01), (3, 0.3), (1, 1.0)):
        screened.clear()
        got = cluster_pool(x, method="dbscan", dbscan_k=k, dbscan_q=q)
        settled = int((_dense_kth(dist, k) > got.eps).sum())
        assert sum(screened) == n + (n - settled), (k, q)
        assert settled > 0 or q == 1.0
    screened.clear()
    cluster_pool(x, method="dbscan", eps_override=0.1)
    assert sum(screened) == n


def test_a_screen_never_yields_a_rows_own_pair(monkeypatch):
    # the k-NN floor (k_nearest) and the constant eps floor (_eps_lists)
    # both screen through _screened, which drops (i, i) for both; the eps
    # lists add it back once per row
    pairs = []
    real = ucs.clustering._screened

    def recording(unit, rows, limit):
        for strip in real(unit, rows, limit):
            pairs.append(strip[1:3])
            yield strip

    def own_pairs():
        return sum(int((r == c).sum()) for r, c in pairs)

    monkeypatch.setattr(ucs.clustering, "DEFAULT_TILE_ROWS", TILE)
    monkeypatch.setattr(ucs.clustering, "_screened", recording)
    pools = [*_strip_pools(), _planted_pool(17, seed=17)[0]]
    for groups in (2, 5, ucs.clustering.SCREEN_GROUPS):
        monkeypatch.setattr(ucs.clustering, "SCREEN_GROUPS", groups)
        for pool_id, x in enumerate(pools):
            n = x.shape[0]
            dist = cosine_distance_matrix(x)
            unit = l2_normalize_rows(x, eps=0.0)
            for k in (1, 3, n - 1):
                pairs.clear()
                knn = k_nearest(unit, k)
                assert pairs and own_pairs() == 0, (groups, pool_id, k)
                for eps in (0.0, float(np.median(dist)), 2.0):
                    for given in (None, knn):
                        pairs.clear()
                        lists = _eps_lists(unit, eps, given)
                        assert own_pairs() == 0, (groups, pool_id, k, eps)
                        assert pairs or given is not None
                        _assert_lists(dist, eps, *lists, (groups, pool_id, k, eps))


def test_cosine_distance_matrix_is_the_strip_values(monkeypatch):
    # the matrix holds the distances the strip passes report, and its
    # per-pair definition is symmetric at any width, odd ones included
    monkeypatch.setattr(ucs.clustering, "DEFAULT_TILE_ROWS", 100)
    y = np.random.default_rng(5).standard_normal((999, 17))
    wide = cosine_distance_matrix(y)
    assert np.array_equal(wide, wide.T)
    indices, distances = k_nearest(l2_normalize_rows(y, eps=0.0), 4)
    assert np.array_equal(distances, np.take_along_axis(wide, indices, axis=1))


def test_non_finite_rows_are_refused():
    # refused before normalization divides: a nan row would otherwise
    # become a zero row at distance 1 from everything
    x = np.random.default_rng(0).standard_normal((6, 3))
    x[4, 1] = np.inf
    with pytest.raises(ValueError, match="row 4 is not finite"):
        cluster_pool(x, method="dbscan", dbscan_k=2)
    with pytest.raises(ValueError, match="row 4 is not finite"):
        cluster_pool(x, method="dbscan", eps_override=0.1)
    x[4, 1] = -np.inf
    with pytest.raises(ValueError, match="row 4 is not finite"):
        _knn_graph(x, 2)
    x[4, 1] = np.nan
    with pytest.raises(ValueError, match="row 4 is not finite"):
        cluster_pool(x, method="dbscan", dbscan_k=2)
    with pytest.raises(ValueError, match="row 4 is not finite"):
        _knn_graph(x, 2)
    with pytest.raises(ValueError, match="row 4 is not finite"):
        dpp_kernel(x)


def test_row_whose_norm_overflows_clusters_like_its_unscaled_self():
    # row 4 scaled by 1e160 has squares that overflow; it used to normalize
    # to a zero row at distance 1 from everything
    x = np.random.default_rng(0).standard_normal((6, 3))
    want = cluster_pool(x, method="dbscan", dbscan_k=2).labels
    assert want.tolist() == [1, 2, 3, 4, 4, 4]
    x[4] *= 1e160
    assert np.array_equal(cluster_pool(x, method="dbscan", dbscan_k=2).labels, want)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_strip_passes_hold_no_square_matrix():
    # An N x N float64 array is N^2 * 8 bytes; the strip passes must stay
    # well below a quarter of that.
    n = 3000
    x, _ = sample_pool(Population.zipf(200, 1.1), n, dim=32, spread=0.3, seed=0)
    bound = n * n * 8 / 4
    assert _traced_peak(lambda: cluster_pool(x, method="dict_dbscan")) < bound
    assert _traced_peak(lambda: _knn_graph(x, 3)) < bound


def _symmetric_lists(n, a, b):
    """CSR lists of the undirected graph on n points with the edges
    (a[e], b[e]) and a self loop at every point, columns ascending."""
    own = np.arange(n)
    rows = np.concatenate([own, a, b]).astype(np.int64)
    cols = np.concatenate([own, b, a]).astype(np.int64)
    rows, cols = np.divmod(np.unique(rows * n + cols), n)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), density=st.floats(0.0, 0.4), min_samples=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_dbscan_lists_match_bfs_reference(n, density, min_samples, seed):
    rng = np.random.default_rng(seed)
    pairs = list(zip(*np.nonzero(np.triu(rng.random((n, n)) < density, 1))))
    # a star whose centre is core and whose leaves are not (for
    # min_samples >= 3), sharing its last leaf with a second such star: border
    # points, one of them reachable from two clusters
    centres = n + np.arange(2) * min_samples
    for centre in centres:
        pairs += [(centre, centre + j) for j in range(1, min_samples)]
    pairs.append((centres[1], centres[0] + min_samples - 1))
    total = n + 2 * min_samples
    relabel = rng.permutation(total)  # stars at random positions
    a, b = relabel[np.array(pairs, dtype=np.intp).T]
    indptr, indices = _symmetric_lists(total, a, b)
    got = ucs.clustering._dbscan_lists(indptr, indices, min_samples)
    dist = np.ones((total, total))
    dist[a, b] = dist[b, a] = 0.0
    np.fill_diagonal(dist, 0.0)
    assert np.array_equal(got, reference_dbscan(dist, 0.5, min_samples))
    if min_samples >= 3:
        sizes = np.diff(indptr)
        assert ((sizes < min_samples) & (got >= 0)).any()  # border points present


def test_components_round_count_on_a_chain():
    # the docstring's counts: a path numbered in order along its length takes
    # one round, and any path at most ceil(log2 n)
    n = 10_000
    a = np.arange(n - 1)
    for name, order in (("natural", np.arange(n)),
                        ("shuffled", np.random.default_rng(0).permutation(n))):
        root, rounds = ucs.clustering._components(n, order[a], order[a + 1])
        assert (root == 0).all(), name
        if name == "natural":
            assert rounds == 1
        else:
            assert 1 < rounds <= int(np.ceil(np.log2(n))), rounds
        indptr, indices = _symmetric_lists(n, order[a], order[a + 1])
        for min_samples in (1, 3):
            raw = ucs.clustering._dbscan_lists(indptr, indices, min_samples)
            want = np.zeros(n, dtype=np.int64)
            if min_samples == 3:  # the two ends are border points
                assert np.diff(indptr)[order[[0, -1]]].tolist() == [2, 2]
            assert np.array_equal(raw, want), (name, min_samples)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 60), density=st.floats(0.0, 0.2), seed=st.integers(0, 2**32 - 1))
def test_components_are_the_smallest_member_within_the_round_bound(n, density, seed):
    rng = np.random.default_rng(seed)
    a, b = np.nonzero(np.triu(rng.random((n, n)) < density, 1))
    root, rounds = ucs.clustering._components(n, a, b)
    dist = np.ones((n, n))
    dist[a, b] = dist[b, a] = 0.0
    want = union_find_partition(dist, 0.5)  # union-find
    assert canon(root) == canon(want)
    assert all(root[i] == min(np.flatnonzero(root == root[i])) for i in range(n))
    assert rounds <= 2 * int(np.ceil(np.log2(max(n, 1)))), rounds


def test_k_nearest_ties_in_a_block_of_identical_rows():
    # 320 copies of one row: each copy's k nearest are other copies, all at
    # one distance (0 up to rounding), the lowest indices first
    rng = np.random.default_rng(5)
    x = rng.standard_normal((700, 16))
    block = np.sort(rng.choice(700, size=320, replace=False))
    x[block] = x[block[0]]
    dist = cosine_distance_matrix(x)
    np.fill_diagonal(dist, np.inf)
    unit = l2_normalize_rows(x, eps=0.0)
    for k in (1, 5, 20, 400):
        want = np.argsort(dist, axis=1, kind="stable")[:, :k]
        indices, distances = k_nearest(unit, k)
        assert np.array_equal(indices, want), k
        assert np.array_equal(distances, np.take_along_axis(dist, want, axis=1)), k
        for i in block[[0, 7, -1]]:
            others = block[block != i]
            if k <= others.size:
                assert np.array_equal(indices[i], others[:k]), (k, i)
                assert (distances[i] == dist[i, others[0]]).all()
                assert distances[i, 0] <= 1e-15


def test_adjusted_rand_index_oracle_matches_pair_counts():
    # criterion 12's ARI, checked against hand values and against the
    # pair-counting form, which enumerates every pair of items
    assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 2]) == pytest.approx(4 / 7)
    assert adjusted_rand_index([0, 0, 0, 0], [0, 1, 2, 3]) == 0.0
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(3, 40))
        a, b = rng.integers(0, 4, n), rng.integers(0, 6, n)
        same_a = a[:, None] == a[None, :]
        same_b = b[:, None] == b[None, :]
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        n11 = int((same_a & same_b & upper).sum())
        n10 = int((same_a & ~same_b & upper).sum())
        n01 = int((~same_a & same_b & upper).sum())
        n00 = int((~same_a & ~same_b & upper).sum())
        want = 2 * (n11 * n00 - n01 * n10) / ((n11 + n01) * (n01 + n00) +
                                              (n11 + n10) * (n10 + n00))
        assert adjusted_rand_index(a, b) == pytest.approx(want, abs=1e-12)
