import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import stdout_at_blas_threads
import ucs.clustering
from ucs.clustering import cosine_distance_matrix
from ucs.coverage import PRIOR_EPS, CoverageTracker, SgtConfig, corpus_prior, coverage_phi
from ucs.errors import EmptyCandidateList, SingularKernel, TooFewPoints
from ucs.selection import (
    BASE_SELECTORS,
    VOTEK_DISCOUNT_BASE,
    SelectionConfig,
    SelectionResult,
    StepRecord,
    _knn_graph,
    best_subset,
    dpp_kernel,
    greedy_dpp,
    greedy_dpp_ucs,
    redundancy_utility,
    sample_candidate_subsets,
    select,
    subset_utility_ucs,
    votek_select,
    votek_ucs_select,
    votek_votes,
)
from ucs.synth_oracle import Population, sample_labels, sample_pool


def _angles(degrees):
    rad = np.deg2rad(np.asarray(degrees, dtype=np.float64))
    return np.stack([np.cos(rad), np.sin(rad)], axis=1)


# five points on the unit circle whose 1-NN graph is a hand-checkable chain:
# 0<->1, 2->1, 3->2, 4->3
CHAIN = _angles([0.0, 10.0, 25.0, 45.0, 70.0])


def test_dpp_kernel_scale_zero_is_ones_plus_jitter():
    x = np.random.default_rng(0).standard_normal((6, 3))
    kernel = dpp_kernel(x, scale=0.0)
    assert np.allclose(kernel, np.ones((6, 6)) + 1e-8 * np.eye(6), atol=1e-15)


def test_dpp_kernel_orthogonal_rows():
    kernel = np.asarray(dpp_kernel(np.eye(3), scale=1.0))
    off = ~np.eye(3, dtype=bool)
    assert np.allclose(kernel[off], 1.0, atol=1e-15)
    assert np.allclose(np.diag(kernel), np.e + 1e-8, atol=1e-12)


def _padded_gram(unit):
    """unit @ unit.T taken over the rows zero-padded to a multiple of 64,
    the product dpp_kernel is defined by; the unpadded product's bits can
    depend on the BLAS thread count when N is not a multiple of 64."""
    n = len(unit)
    padded = np.vstack([unit, np.zeros((-n % 64, unit.shape[1]))])
    return (padded @ padded.T)[:n, :n]


def test_dpp_kernel_elementwise_recomputation():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((12, 5))
    scale = 0.37
    unit = x / np.linalg.norm(x, axis=1, keepdims=True)
    want = np.exp(scale * _padded_gram(unit))
    want = (want + want.T) / 2.0 + 1e-8 * np.eye(12)
    assert np.array_equal(dpp_kernel(x, scale), want)


def _dpp_kernel_inputs():
    rng = np.random.default_rng(5)

    def layouts(n):
        x = rng.standard_normal((n, 7))
        yield pytest.param(x, id=f"C{n}")
        yield pytest.param(np.asfortranarray(x), id=f"F{n}")
        yield pytest.param(rng.standard_normal((2 * n, 7))[::2], id=f"strided{n}")

    for n in (1, 2, 511, 513, 1025):
        yield from layouts(n)
    base = rng.standard_normal((300, 5))
    base[[3, 70, 299]] = 0.0
    yield pytest.param(np.vstack([base, base[::3], np.zeros((4, 5))]), id="dup_zero")
    # no padding at these sizes, so the reference is numpy's own unit @ unit.T
    for n in (512, 1024):
        yield from layouts(n)


@pytest.mark.parametrize("x", list(_dpp_kernel_inputs()))
def test_dpp_kernel_exactly_symmetric(x):
    # Symmetry rests on every entry being the same dot product wherever the
    # strips put it; sizes straddle 512 and 1024, layouts are C, F and strided.
    scale = 0.37
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    unit = np.where(norms > 0, x / np.where(norms > 0, norms, 1.0), 0.0)
    want = np.exp(scale * _padded_gram(unit)) + 1e-8 * np.eye(len(x))
    kernel = np.asarray(dpp_kernel(x, scale))
    assert np.array_equal(kernel, kernel.T)
    assert np.array_equal(kernel, want)


_THREAD_SCRIPT = """
import hashlib
import numpy as np
from ucs.selection import SelectionConfig, dpp_kernel, select
from ucs.synth_oracle import Population, sample_labels, sample_pool

for n in (511, 999, 1003):
    x = np.random.default_rng(n).standard_normal((n, 64))
    print(n, hashlib.sha256(np.asarray(dpp_kernel(x)).tobytes()).hexdigest())
x, _ = sample_pool(Population.zipf(50, 1.1), 1003, dim=64, spread=0.3, seed=24)
labels = sample_labels(Population.zipf(100, 0.8), 1003, 24)
result = select(x, labels, SelectionConfig(budget=50, lam=0.1, base="dpp"))
print(repr([(r.index, r.base_gain, r.coverage_term, r.total) for r in result.records]))
"""


def test_dpp_kernel_and_selection_do_not_depend_on_blas_threads():
    # At these N the unpadded unit @ unit.T differed by 1 ulp between one
    # and two threads, and that moved step 35's base_gain in the selection.
    outputs = stdout_at_blas_threads(_THREAD_SCRIPT)
    assert len(outputs["1"]) == 4
    assert outputs["1"] == outputs["2"]


@pytest.mark.parametrize("x", list(_dpp_kernel_inputs()))
def test_dpp_kernel_rows_are_its_materialized_rows(x):
    # kernel[j] and the diagonal are np.asarray(kernel)'s bits, so greedy
    # DPP reads the same floats from the lazy kernel as from the dense one
    kernel = dpp_kernel(x, 0.37)
    dense = np.asarray(kernel)
    n = len(x)
    assert kernel.shape == dense.shape == (n, n)
    assert np.array_equal(kernel.diagonal(), dense.diagonal())
    for j in range(n):
        assert np.array_equal(kernel[j], dense[j]), j
    labels = np.arange(n) % 7
    for lam in (0.0, 0.1):
        cfg = SelectionConfig(budget=min(n, 25), lam=lam, base="dpp")
        assert greedy_dpp_ucs(kernel, labels, cfg).records == \
            greedy_dpp_ucs(dense, labels, cfg).records, lam
    # select puts the exact-arithmetic diagonal on the kernel it reads
    cfg = replace(cfg, dpp_scale_factor=0.37)
    np.fill_diagonal(dense, np.where(np.any(x, axis=1), math.exp(0.37), 1.0) + 1e-8)
    assert select(x, labels, cfg).records == greedy_dpp_ucs(dense, labels, cfg).records


@pytest.mark.parametrize("key, error", [
    (1.0, TypeError), ("1", TypeError), (True, TypeError), (slice(0, 2), TypeError),
    (np.array([1]), TypeError), ((1, 2), TypeError), (-1, IndexError), (5, IndexError),
])
def test_dpp_kernel_row_takes_one_int_inside_the_kernel(key, error):
    kernel = dpp_kernel(np.random.default_rng(3).standard_normal((5, 4)))
    with pytest.raises(error):
        kernel[key]
    assert np.array_equal(kernel[np.int64(4)], np.asarray(kernel)[4])


def test_dpp_kernel_refuses_a_diagonal_of_another_length():
    # 5 rows pad to 64, which hold a diagonal of 1 to 64 entries
    kernel = dpp_kernel(np.random.default_rng(3).standard_normal((5, 4)))
    for diag in (np.ones(0), np.ones(65)):
        with pytest.raises(ValueError, match=f"a diagonal of {len(diag)} needs"):
            replace(kernel, diag=diag)
    assert replace(kernel, diag=np.ones(64)).shape == (64, 64)


def test_dpp_kernel_of_an_empty_pool():
    x = np.empty((0, 3))
    assert np.asarray(dpp_kernel(x)).shape == (0, 0)
    cfg = SelectionConfig(budget=0, base="dpp")
    assert select(x, np.empty(0, dtype=np.int64), cfg).indices == []


def test_dpp_kernel_peak_memory():
    # The N x N result, the padded unit rows and one 64 x 512 product: no
    # second N x N array and no N-row temporary besides the padded rows.
    n = 2000
    x = np.random.default_rng(7).standard_normal((n, 64))
    tracemalloc.start()
    try:
        np.asarray(dpp_kernel(x))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * n * 8 + 2 * 2**20, (peak - n * n * 8) / 2**20


def test_greedy_dpp_ucs_on_dpp_kernel_peak_memory():
    # No N x N array: the dense kernel alone would be n * n * 8 = 3.2 GB.
    # What is held at once is U_p (n_p * d floats, n_p = n rounded up to a
    # multiple of 64), one 64-row block product (64 * n_p), the budget's
    # Cholesky rows (budget * n) and at most sixteen n-vectors (the diagonal,
    # the Schur complements, their logs, the coverage gains, the totals, the
    # row read, its update, the tracker's cluster index, ...). While the
    # kernel is built, the unit rows (n * d <= 64 * n_p for d = 64) take the
    # block product's place.
    n, d, budget = 20000, 64, 20
    n_p = n + -n % 64
    x = np.random.default_rng(8).standard_normal((n, d))
    labels = sample_labels(Population.zipf(40000, 0.8), n, 1)
    cfg = SelectionConfig(budget=budget, lam=0.1, base="dpp")
    tracemalloc.start()
    try:
        greedy_dpp_ucs(dpp_kernel(x), labels, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * (n_p * d + 64 * n_p + budget * n + 16 * n)
    assert peak <= bound, (peak / 2**20, bound / 2**20)


def test_dpp_kernel_positive_definite():
    rng = np.random.default_rng(2)
    kernel = dpp_kernel(rng.standard_normal((50, 8)))
    np.linalg.cholesky(kernel)  # raises if not PD


def test_greedy_dpp_identity_kernel_takes_lowest_indices():
    assert greedy_dpp(np.eye(7), budget=3) == [0, 1, 2]


def test_greedy_dpp_matches_brute_force_logdet():
    rng = np.random.default_rng(3)
    for trial in range(6):
        n = int(rng.integers(5, 13))
        budget = int(rng.integers(1, 5))
        kernel = dpp_kernel(rng.standard_normal((n, 6)), scale=0.5)
        labels = np.arange(n)
        cfg = SelectionConfig(budget=budget, lam=0.0, base="dpp")
        result = greedy_dpp_ucs(kernel, labels, cfg)
        kernel = np.asarray(kernel)  # the oracle's dense matrix

        selected: list[int] = []
        for step, record in enumerate(result.records):
            base = np.linalg.slogdet(kernel[np.ix_(selected, selected)])[1] \
                if selected else 0.0
            gains = np.full(n, -np.inf)
            for i in range(n):
                if i in selected:
                    continue
                trial_set = selected + [i]
                gains[i] = np.linalg.slogdet(
                    kernel[np.ix_(trial_set, trial_set)]
                )[1] - base
            best_idx = int(np.argmax(gains))
            assert record.index == best_idx, f"trial {trial} step {step}"
            assert record.base_gain == pytest.approx(gains[best_idx], abs=1e-7)
            selected.append(best_idx)
        assert result.indices == selected


def test_greedy_dpp_singular_kernel():
    with pytest.raises(SingularKernel):
        greedy_dpp(np.zeros((3, 3)), budget=2)


def test_greedy_dpp_ucs_lambda_zero_equals_base():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((20, 4))
    kernel = dpp_kernel(x)
    labels = rng.integers(1, 6, size=20)
    cfg = SelectionConfig(budget=6, lam=0.0, base="dpp")
    assert greedy_dpp_ucs(kernel, labels, cfg).indices == greedy_dpp(kernel, 6)


def test_greedy_dpp_ucs_large_lambda_prefers_distinct_clusters():
    rng = np.random.default_rng(5)
    centers = rng.standard_normal((6, 8))
    # 4 copies of cluster 1 + six singleton clusters
    x = np.vstack([centers[0] + 0.01 * rng.standard_normal((4, 8)), centers[1:]])
    labels = np.array([1, 1, 1, 1, 2, 3, 4, 5, 6])
    cfg = SelectionConfig(budget=4, lam=1e6, base="dpp", sgt=SgtConfig(t=2.0))
    result = greedy_dpp_ucs(dpp_kernel(x), labels, cfg)
    assert len(set(labels[result.indices])) == 4
    assert result.k_seen == 4


def test_greedy_dpp_ones_kernel_floors_second_gain():
    # after the first pick every Schur complement is exactly 0
    assert greedy_dpp(np.ones((4, 4)), 2) == [0, 1]


def test_greedy_dpp_ones_kernel_singular_at_order_two():
    with pytest.raises(SingularKernel, match="order 2"):
        greedy_dpp(np.ones((4, 4)), 3)


def test_greedy_dpp_repeated_rows_stay_positive_definite():
    base = np.random.default_rng(6).standard_normal((5, 8))
    kernel = dpp_kernel(np.repeat(base, 4, axis=0))
    picks = greedy_dpp(kernel, 20)  # the 1e-8 jitter keeps every step > 0
    assert sorted(picks) == list(range(20))


def test_greedy_dpp_nan_schur_complement_is_singular():
    kernel = np.eye(4)
    kernel[2, 2] = np.nan
    with pytest.raises(SingularKernel, match="order 1"):
        greedy_dpp(kernel, 2)


@pytest.mark.parametrize("read_only", [False, True])
def test_greedy_dpp_ucs_leaves_kernel_untouched(read_only):
    x, _ = sample_pool(Population.zipf(20, 1.1), 80, dim=8, spread=0.3, seed=4)
    labels = sample_labels(Population.zipf(40, 0.8), 80, 4)
    dense = np.asarray(dpp_kernel(x))
    before = dense.copy()
    dense.setflags(write=not read_only)
    greedy_dpp_ucs(dense, labels, SelectionConfig(budget=30, lam=0.5, base="dpp"))
    assert np.array_equal(dense, before)
    kernel = dpp_kernel(x)
    assert not kernel.padded.flags.writeable and not kernel.diagonal().flags.writeable
    greedy_dpp_ucs(kernel, labels, SelectionConfig(budget=30, lam=0.5, base="dpp"))
    assert np.array_equal(np.asarray(kernel), before)


def _dpp_gains_solve(kernel, selected, candidates):
    """Oracle: log det L_{S+i} - log det L_S per candidate, from one linear
    solve against L_SS."""
    diag = kernel[candidates, candidates]
    if not selected:
        sc = diag
    else:
        sub = kernel[np.ix_(selected, selected)]
        rhs = kernel[np.ix_(selected, candidates)]
        sc = diag - np.einsum("ij,ij->j", rhs, np.linalg.solve(sub, rhs))
    return np.log(np.maximum(sc, 1e-300))


def _greedy_dpp_solve(kernel, labels, cfg: SelectionConfig):
    """Greedy loop with solve-based base gains and batched coverage gains."""
    tracker = CoverageTracker(labels, cfg.sgt)
    selected, gains = [], []
    alive = np.ones(kernel.shape[0], dtype=bool)
    for _ in range(min(cfg.budget, kernel.shape[0])):
        candidates = np.flatnonzero(alive)
        base_gain = _dpp_gains_solve(kernel, selected, candidates)
        total = base_gain + cfg.lam * tracker.gains_if_added(candidates)
        pos = int(np.argmax(total))
        selected.append(int(candidates[pos]))
        gains.append(float(base_gain[pos]))
        alive[selected[-1]] = False
        tracker.add(selected[-1])
    return selected, gains


@pytest.mark.parametrize("n, budget, k_types, spread, seed", [
    (300, 40, 100, 0.3, 1),
    (1000, 60, 100, 0.3, 3),
    # 20 near-duplicate types: late Schur complements come within a few
    # multiples of the 1e-8 jitter
    (300, 60, 20, 1e-3, 2),
    (1000, 60, 20, 1e-3, 4),
])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_greedy_dpp_ucs_matches_solve_oracle(n, budget, k_types, spread, seed, lam):
    x, _ = sample_pool(Population.zipf(k_types, 1.1), n, dim=16, spread=spread, seed=seed)
    labels = sample_labels(Population.zipf(400, 0.8), n, seed)
    kernel = dpp_kernel(x)
    cfg = SelectionConfig(budget=budget, lam=lam, base="dpp")
    result = greedy_dpp_ucs(kernel, labels, cfg)
    indices, gains = _greedy_dpp_solve(np.asarray(kernel), labels, cfg)
    assert result.indices == indices
    got, want = np.array([r.base_gain for r in result.records]), np.array(gains)
    # 1e-9 wherever the Schur complement is >= 1e-5; below that both float64
    # paths differ by ~1e-15 absolute, which the log divides by the complement
    sc = np.exp(want)
    assert np.all(np.abs(got - want) <= np.maximum(1e-9, 1e-14 / sc))
    if spread < 0.01:
        assert sc.min() < 1e-7


def _greedy_dpp_ucs_per_candidate(kernel, labels, cfg: SelectionConfig):
    """Reference greedy loop: one gain_if_added call per candidate, with the
    Schur recurrence of _greedy_dpp written out."""
    n = kernel.shape[0]
    steps = min(cfg.budget, n)
    tracker = CoverageTracker(labels, cfg.sgt)
    sc = kernel.diagonal().astype(np.float64)
    chol = np.empty((steps, n))
    selected, records = [], []
    alive = np.ones(n, dtype=bool)
    for s in range(steps):
        candidates = np.flatnonzero(alive)
        base_gain = np.log(np.maximum(sc[candidates], 1e-300))
        coverage = np.array([tracker.gain_if_added(int(i)) for i in candidates])
        total = base_gain + cfg.lam * coverage
        pos = int(np.argmax(total))
        pick = int(candidates[pos])
        records.append(StepRecord(pick, float(base_gain[pos]), float(coverage[pos]),
                                  float(total[pos])))
        selected.append(pick)
        alive[pick] = False
        tracker.add(pick)
        e = (kernel[pick] - chol[:s, pick] @ chol[:s]) / math.sqrt(sc[pick])
        chol[s] = e
        sc -= e * e
    return selected, records


@pytest.mark.parametrize("sgt", [
    SgtConfig(),
    SgtConfig(t=5.0, offset_alpha=2.0),
    SgtConfig(t=3.0, bin_size=2),
])
def test_greedy_dpp_ucs_matches_per_candidate_reference(sgt):
    x, _ = sample_pool(Population.zipf(50, 1.1), 300, dim=12, spread=0.3, seed=3)
    labels = sample_labels(Population.zipf(200, 0.8), 300, 3)
    kernel = dpp_kernel(x)
    cfg = SelectionConfig(budget=40, lam=0.5, base="dpp", sgt=sgt)
    result = greedy_dpp_ucs(kernel, labels, cfg)
    indices, records = _greedy_dpp_ucs_per_candidate(kernel, labels, cfg)
    assert result.indices == indices
    assert result.records == records  # exact float equality, field by field


def _knn_oracle(x, k):
    # cosine_distance_matrix holds each pair's distance as the k-NN graph
    # evaluates it, at any strip height
    dist = cosine_distance_matrix(x)
    np.fill_diagonal(dist, np.inf)
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


def _has_kth_tie(x, k):
    dist = cosine_distance_matrix(x)
    np.fill_diagonal(dist, np.inf)
    kth = np.sort(dist, axis=1)[:, k - 1:k]
    return bool(((dist <= kth).sum(axis=1) > k).any())


@pytest.fixture
def small_tiles(monkeypatch):
    # several row strips, the last one ragged, at test sizes; the other
    # graph tests run at the default height, a single strip
    monkeypatch.setattr(ucs.clustering, "DEFAULT_TILE_ROWS", 7)


@pytest.mark.parametrize("seed", range(4))
def test_knn_graph_matches_oracle_on_seeded_pools(seed, small_tiles):
    x, _ = sample_pool(Population.zipf(20, 1.1), 60, dim=8, spread=0.3, seed=seed)
    for k in (1, 3, 10):
        assert np.array_equal(_knn_graph(x, k), _knn_oracle(x, k))


def test_knn_graph_ties_duplicates_and_zero_rows(small_tiles):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((40, 5))
    x[10:14] = x[2]  # five identical rows: ties for every other row
    x[[20, 31]] = 0.0  # distance exactly 1 to everything
    # mirror images around row 0: exact ties at row 0's k-th distance
    sym = _angles([0.0, 15.0, -15.0, 30.0, -30.0, 45.0, -45.0])
    for pool in (x, sym):
        for k in (1, 2, 3, 4, pool.shape[0] - 1):
            assert np.array_equal(_knn_graph(pool, k), _knn_oracle(pool, k))
    assert _has_kth_tie(x, 3) and _has_kth_tie(sym, 1) and _has_kth_tie(sym, 3)


def test_knn_graph_k_is_n_minus_one():
    x = np.random.default_rng(2).standard_normal((9, 3))
    got = _knn_graph(x, 8)
    assert np.array_equal(got, _knn_oracle(x, 8))
    for row in range(9):  # everyone but self, each exactly once
        assert sorted(got[row]) == [j for j in range(9) if j != row]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_knn_graph_hypothesis_small_pools(data):
    n = data.draw(st.integers(min_value=2, max_value=14))
    dim = data.draw(st.integers(min_value=1, max_value=3))
    # small integer coordinates: duplicates, zero rows and ties are common
    flat = data.draw(st.lists(st.integers(min_value=-2, max_value=2),
                              min_size=n * dim, max_size=n * dim))
    x = np.array(flat, dtype=np.float64).reshape(n, dim)
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    assert np.array_equal(_knn_graph(x, k), _knn_oracle(x, k))


def test_votek_votes_indegree_hand_oracle():
    votes = votek_votes(CHAIN, k=1, selected=[])
    assert np.array_equal(votes, [1.0, 2.0, 1.0, 1.0, 0.0])


def test_votek_votes_discount_hand_oracle():
    # voters 0 and 2 each have the selected point 1 as their neighbor
    votes = votek_votes(CHAIN, k=1, selected=[1])
    assert np.allclose(votes, [1.0, 0.2, 1.0, 1.0, 0.0], atol=1e-12)


def test_votek_votes_discount_base_one_disables_discounting():
    a = votek_votes(CHAIN, k=2, selected=[], discount_base=1.0)
    b = votek_votes(CHAIN, k=2, selected=[0, 3], discount_base=1.0)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("selected, message", [
    ([-1], "selected index -1 outside pool of 5 rows"),
    ([5], "selected index 5 outside pool of 5 rows"),
    ([2, 0, 2], "selected index 2 repeats"),
], ids=["negative", "past-the-end", "repeated"])
def test_votek_votes_refuses_bad_selected(selected, message):
    # [-1] used to discount the last row's voters and [2, 0, 2] to count as
    # [0, 2]
    with pytest.raises(ValueError, match=message):
        votek_votes(CHAIN, k=1, selected=selected)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf"), -0.5])
def test_selection_config_refuses_lambda_not_finite_and_non_negative(lam):
    # a NaN or infinite lambda made every total NaN or infinite, and the
    # picks the first alive rows
    with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
        SelectionConfig(budget=3, lam=lam)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
def test_selection_config_refuses_dpp_scale_factor_not_finite_and_positive(scale):
    # NaN raised SingularKernel at order 1 and -1 at order 2; 0 made every
    # kernel entry 1 and picked the first rows
    with pytest.raises(ValueError, match="dpp_scale_factor must be finite and > 0"):
        SelectionConfig(dpp_scale_factor=scale)


@pytest.mark.parametrize("k", [0, -2])
def test_selection_config_refuses_votek_k_below_one(k):
    with pytest.raises(ValueError, match="votek_k must be >= 1"):
        SelectionConfig(votek_k=k)


@pytest.mark.parametrize("base", [0.5, float("nan"), float("inf"), 0.0, -2.0])
def test_votek_refuses_discount_base_not_finite_or_below_one(base):
    # votek_votes took these and returned wrong votes: at 0.5 a voter weighs
    # more once its neighbours are picked, nan makes every discounted vote
    # nan, and 0 divided by zero with a numpy warning
    with pytest.raises(ValueError, match="discount_base must be finite and >= 1"):
        votek_votes(CHAIN, k=1, selected=[1], discount_base=base)
    for budget in (0, 2):
        with pytest.raises(ValueError, match="discount_base must be finite and >= 1"):
            votek_select(CHAIN, budget, k=1, discount_base=base)


def test_votek_requires_enough_points():
    with pytest.raises(TooFewPoints):
        votek_votes(CHAIN, k=5, selected=[])


def test_votek_select_iterative_hand_sequence():
    # step 1 takes the top voted point 1; discounting then drops its voters
    picks = votek_select(CHAIN, budget=2, k=1)
    assert picks[0] == 1
    # after selecting 1: votes [1, .2, 1, 1, 0] -> tie 0/2/3 -> lowest index
    assert picks[1] == 0


def test_votek_ucs_lambda_zero_and_unit_weights():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((18, 4))
    base = votek_select(x, budget=5, k=3)
    labels = np.repeat(np.arange(1, 7), 3)  # all clusters size 3
    prior = corpus_prior(labels)
    for lam in (0.0, 0.7, 13.0):
        cfg = SelectionConfig(budget=5, lam=lam, base="votek", votek_k=3)
        result = votek_ucs_select(x, labels, prior, cfg)
        # equal-size clusters give unit weights, so any lambda is a no-op
        assert result.indices == base


def test_votek_ucs_large_lambda_selects_singletons():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((12, 6))
    labels = np.array([1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 3, 4])
    prior = corpus_prior(labels)
    cfg = SelectionConfig(budget=3, lam=1e6, base="votek", votek_k=3,
                          sgt=SgtConfig(t=2.0))
    result = votek_ucs_select(x, labels, prior, cfg)
    assert sorted(labels[result.indices]) == [2, 3, 4]


def test_votek_ucs_missing_cluster_weight():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((6, 3))
    labels = np.array([1, 1, 2, 2, 3, 3])
    prior = corpus_prior(labels[:4])  # no weight for cluster 3
    cfg = SelectionConfig(budget=2, base="votek", votek_k=2)
    with pytest.raises(ValueError):
        votek_ucs_select(x, labels, prior, cfg)


def test_rarity_b1_constant_bonus_is_plain_votek():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((10, 4))
    labels = np.arange(1, 11)  # every cluster size 1
    cfg = SelectionConfig(budget=4, lam=3.0, base="B1", votek_k=2)
    result = select(x, labels, cfg)
    assert result.indices == votek_select(x, budget=4, k=2)


def test_rarity_b2_uniform_spectrum_is_plain_votek():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((12, 4))
    labels = np.repeat(np.arange(1, 5), 3)  # uniform sizes -> flat spectrum
    cfg = SelectionConfig(budget=4, lam=2.0, base="B2", votek_k=2)
    result = select(x, labels, cfg)
    assert result.indices == votek_select(x, budget=4, k=2)


def test_rarity_bonuses_differ_from_ucs_weights():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 3))
    labels = np.array([1, 1, 2, 3])  # sizes {2,1,1}
    cfg = SelectionConfig(budget=1, lam=1.0, base="votek", votek_k=1)
    b1 = select(x, labels, replace(cfg, base="B1"))
    prior = corpus_prior(labels)
    ucs = votek_ucs_select(x, labels, prior, cfg)
    # B1 bonus for a singleton item is exactly 1; the UCS bonus is
    # log(1.2) ~= 0.182, so the two scoring rules are genuinely distinct
    bonuses_b1 = {int(i): 1.0 / prior.sizes[int(labels[i])] for i in range(4)}
    assert b1.records[0].coverage_term == pytest.approx(
        bonuses_b1[b1.records[0].index]
    )
    assert ucs.records[0].coverage_term == pytest.approx(
        np.log(prior.weights[int(labels[ucs.records[0].index])])
    )
    assert not np.isclose(1.0, np.log(1.2))


def test_rarity_unknown_variant():
    cfg = SelectionConfig(budget=1, base="votek", votek_k=1)
    with pytest.raises(ValueError):
        select(CHAIN, np.arange(5), replace(cfg, base="B3"))


def test_select_refuses_a_base_set_after_construction():
    # SelectionConfig checks base when it is built; select checks it again,
    # so a base assigned later does not fall through to another selector
    cfg = SelectionConfig(budget=1, base="votek", votek_k=1)
    cfg.base = "B3"
    with pytest.raises(ValueError, match=r"^unknown base selector 'B3'$"):
        select(CHAIN, np.arange(1, 6), cfg)


@pytest.mark.parametrize("base", ["B3", "rarity_B1", ""])
def test_selection_config_refuses_an_unknown_selector(base):
    with pytest.raises(ValueError, match=rf"^unknown base selector '{base}'$"):
        SelectionConfig(base=base)


def test_every_selector_name_is_a_config_base():
    assert BASE_SELECTORS == ("dpp", "votek", "subset_utility", "B1", "B2")
    for base in BASE_SELECTORS:
        assert SelectionConfig(base=base).base == base


def _votek_reference(x, k, discount_base, bonus, lam, budget):
    """Iterative VoteK written out: at each step score every row by
    votek_votes(x, k, selected) + lam * bonus and take the highest unpicked
    row, the lowest index on ties."""
    selected, records = [], []
    for _ in range(min(budget, len(x))):
        votes = votek_votes(x, k, selected, discount_base)
        best = None
        for i in range(len(x)):
            if i in selected:
                continue
            if best is None or votes[i] + lam * bonus[i] > votes[best] + lam * bonus[best]:
                best = i
        selected.append(best)
        records.append(StepRecord(best, float(votes[best]), float(bonus[best]),
                                  float(votes[best] + lam * bonus[best])))
    return records


def _votek_pools():
    for seed in (1, 2):
        x, types = sample_pool(Population.zipf(30, 1.1), 90, dim=8, spread=0.3, seed=seed)
        yield pytest.param(x, types, id=f"zipf{seed}")
    # a regular 12-gon: every point's two nearest neighbours are its two
    # sides, so every row starts on exactly 2 votes
    yield pytest.param(_angles(np.arange(12) * 30.0),
                       np.array([1] * 6 + [2] * 4 + [3, 4]), id="vote_ties")


@pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("x, labels", list(_votek_pools()))
def test_votek_records_match_reference_loop(x, labels, lam):
    budget, k, discount_base = 8, 2, VOTEK_DISCOUNT_BASE
    cfg = SelectionConfig(budget=budget, lam=lam, base="votek", votek_k=k)
    prior = corpus_prior(labels)
    c_total = len(prior.sizes)
    sizes = [prior.sizes[int(c)] for c in labels]
    bonuses = {
        "ucs": [math.log(prior.weights[int(c)]) for c in labels],
        "B1": [1.0 / size for size in sizes],
        "B2": [math.log(c_total / (prior.smoothed.get(size, 0.0) + PRIOR_EPS))
               for size in sizes],
    }
    results = {
        "ucs": votek_ucs_select(x, labels, prior, cfg),
        "B1": select(x, labels, replace(cfg, base="B1")),
        "B2": select(x, labels, replace(cfg, base="B2")),
    }
    for name, result in results.items():
        want = _votek_reference(x, k, discount_base, bonuses[name], lam, budget)
        assert result.records == want, name
        assert result.indices == [r.index for r in want], name
    plain = _votek_reference(x, k, discount_base, [0.0] * len(x), 0.0, budget)
    assert votek_select(x, budget, k, discount_base) == [r.index for r in plain]


def _select_by_hand(x, labels, cfg, seed, candidate_num):
    """select's five selectors, each from its building blocks."""
    prior = corpus_prior(labels)
    if cfg.base == "dpp":
        kernel = np.asarray(dpp_kernel(x, cfg.dpp_scale_factor))
        np.fill_diagonal(kernel, np.where(np.linalg.norm(x, axis=1) > 0,
                                          math.exp(cfg.dpp_scale_factor), 1.0) + 1e-8)
        return greedy_dpp_ucs(kernel, labels, cfg)
    if cfg.base == "votek":
        return votek_ucs_select(x, labels, prior, cfg)
    if cfg.base == "subset_utility":
        unit = x / np.linalg.norm(x, axis=1, keepdims=True)
        candidates = sample_candidate_subsets(x, unit.mean(axis=0), cfg.budget,
                                              candidate_num, seed)
        return subset_utility_ucs(candidates, redundancy_utility(x, candidates),
                                  labels, cfg)
    sizes = [prior.sizes[int(c)] for c in labels]
    bonus = ([1.0 / size for size in sizes] if cfg.base == "B1" else
             [math.log(len(prior.sizes) / (prior.smoothed.get(size, 0.0) + PRIOR_EPS))
              for size in sizes])
    records = _votek_reference(x, cfg.votek_k, VOTEK_DISCOUNT_BASE, bonus,
                               cfg.lam, cfg.budget)
    indices = [r.index for r in records]
    phi, k_seen, u_hat = coverage_phi(labels, indices, cfg.sgt)
    return SelectionResult(indices, records, float(phi), int(k_seen), float(u_hat))


@pytest.mark.parametrize("base", BASE_SELECTORS)
@pytest.mark.parametrize("seed", [1, 2])
def test_select_equals_its_building_blocks(base, seed):
    x, labels = sample_pool(Population.zipf(30, 1.1), 90, dim=8, spread=0.3, seed=seed)
    cfg = SelectionConfig(budget=8, lam=0.5, base=base, votek_k=2, sgt=SgtConfig(t=2.0))
    got = select(x, labels, cfg, seed=seed, candidate_num=12)
    want = _select_by_hand(x, labels, cfg, seed, 12)
    assert got.indices == want.indices
    assert got.records == want.records  # every StepRecord field, exactly
    assert got == want


@pytest.mark.parametrize("base, query_row, message", [
    ("dpp", 3, r"^query_row applies only to subset_utility; dpp would ignore it$"),
    ("subset_utility", -1, r"^query row -1 is outside the pool's 5 rows$"),
    ("subset_utility", 5, r"^query row 5 is outside the pool's 5 rows$"),
])
def test_select_refuses_a_query_row_it_cannot_use(base, query_row, message):
    cfg = SelectionConfig(budget=2, base=base, votek_k=1)
    with pytest.raises(ValueError, match=message):
        select(CHAIN, np.arange(1, 6), cfg, query_row=query_row)


def test_subset_utility_tied_totals_take_first_candidate():
    labels = np.array([1, 2, 3, 4, 5, 6])
    cands = [[0, 1], [2, 3], [4, 5]]  # every candidate covers two clusters
    cfg = SelectionConfig(budget=2, lam=0.5, base="subset_utility",
                          sgt=SgtConfig(t=2.0))
    result = subset_utility_ucs(cands, [0.25, 0.75, 0.75], labels, cfg)
    phi = coverage_phi(labels, [2, 3], cfg.sgt)[0]
    assert phi == coverage_phi(labels, [4, 5], cfg.sgt)[0]
    assert result.indices == [2, 3]
    assert result.records == [StepRecord(i, 0.75, phi, 0.75 + 0.5 * phi) for i in (2, 3)]


def test_best_subset_argmax_and_ties():
    assert best_subset([[0], [1], [2]], [0.3, 0.9, 0.9]) == 1
    with pytest.raises(EmptyCandidateList):
        best_subset([], [])
    with pytest.raises(ValueError):
        best_subset([[0], [1]], [1.0])


def test_subset_utility_lambda_zero_plain_argmax():
    labels = np.array([1, 2, 3, 3])
    cands = [[0, 1], [2, 3], [0, 3]]
    utils = [0.1, 0.8, 0.3]
    cfg = SelectionConfig(budget=2, lam=0.0, base="subset_utility")
    result = subset_utility_ucs(cands, utils, labels, cfg)
    assert result.indices == [2, 3]
    assert [r.index for r in result.records] == [2, 3]


def test_subset_utility_singletons_beat_duplicates():
    labels = np.array([1, 2, 3, 3])
    cands = [[0, 1], [2, 3]]  # distinct clusters vs one duplicated cluster
    cfg = SelectionConfig(budget=2, lam=0.5, base="subset_utility",
                          sgt=SgtConfig(t=2.0))
    result = subset_utility_ucs(cands, [1.0, 1.0], labels, cfg)
    assert result.indices == [0, 1]
    phi_a = coverage_phi(labels, [0, 1], cfg.sgt)[0]
    phi_b = coverage_phi(labels, [2, 3], cfg.sgt)[0]
    assert phi_a > phi_b


def test_subset_utility_single_candidate():
    labels = np.array([1, 2])
    cfg = SelectionConfig(budget=2, lam=1.0, base="subset_utility")
    result = subset_utility_ucs([[0, 1]], [-5.0], labels, cfg)
    assert result.indices == [0, 1]


def test_subset_utility_validation():
    labels = np.array([1, 2, 3])
    cfg = SelectionConfig(budget=2, base="subset_utility")
    with pytest.raises(EmptyCandidateList):
        subset_utility_ucs([], [], labels, cfg)
    with pytest.raises(ValueError):
        subset_utility_ucs([[0, 1, 2]], [1.0], labels, cfg)
    with pytest.raises(ValueError):
        subset_utility_ucs([[0, 1]], [1.0, 2.0], labels, cfg)


def test_subset_utility_constant_shift_invariance():
    rng = np.random.default_rng(13)
    labels = rng.integers(1, 5, size=10)
    cands = [sorted(rng.choice(10, size=3, replace=False).tolist()) for _ in range(6)]
    utils = rng.standard_normal(6)
    cfg = SelectionConfig(budget=3, lam=0.4, base="subset_utility")
    a = subset_utility_ucs(cands, utils, labels, cfg)
    b = subset_utility_ucs(cands, utils + 17.5, labels, cfg)
    assert a.indices == b.indices


def test_step_records_total_identity():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((15, 5))
    labels = rng.integers(1, 6, size=15)
    prior = corpus_prior(labels)
    lam = 0.8
    cfg = SelectionConfig(budget=5, lam=lam, base="votek", votek_k=3,
                          sgt=SgtConfig(t=2.0))
    cands = [sorted(rng.choice(15, size=5, replace=False).tolist()) for _ in range(4)]
    for result in (
        greedy_dpp_ucs(dpp_kernel(x), labels, cfg),
        votek_ucs_select(x, labels, prior, cfg),
        select(x, labels, replace(cfg, base="B1")),
        select(x, labels, replace(cfg, base="B2")),
        subset_utility_ucs(cands, rng.standard_normal(4), labels, cfg),
    ):
        assert len(result.indices) == 5
        assert len(set(result.indices)) == 5
        assert [r.index for r in result.records] == result.indices
        for record in result.records:
            assert record.total == pytest.approx(
                record.base_gain + lam * record.coverage_term, abs=1e-9
            )


def test_budget_larger_than_pool_is_clamped():
    assert len(greedy_dpp(np.eye(3) * 2.0, budget=10)) == 3
    assert len(votek_select(CHAIN, budget=10, k=1)) == 5


def test_selection_config_validation():
    with pytest.raises(ValueError):
        SelectionConfig(budget=-1)
    with pytest.raises(ValueError):
        SelectionConfig(lam=-0.1)
    with pytest.raises(ValueError):
        SelectionConfig(base="random")


def test_sample_candidate_subsets_seeded_and_sized():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((40, 6))
    query = rng.standard_normal(6)
    a = sample_candidate_subsets(x, query, budget=4, candidate_num=12, seed=3)
    b = sample_candidate_subsets(x, query, budget=4, candidate_num=12, seed=3)
    assert a == b
    assert len(a) == 12
    sims = (x / np.linalg.norm(x, axis=1, keepdims=True)) @ (query / np.linalg.norm(query))
    top = set(np.argsort(-sims)[:30].tolist())
    for subset in a:
        assert len(subset) == 4
        assert len(set(subset)) == 4
        assert set(subset) <= top
    with pytest.raises(ValueError):
        sample_candidate_subsets(x, query, budget=41, candidate_num=1, seed=0)


@pytest.mark.parametrize("budget, candidate_num, width, message", [
    (-1, 2, 4, r"^budget must be >= 0, got -1$"),
    (4, -2, 4, r"^candidate_num must be >= 0, got -2$"),
    (4, 2, 3, r"^query has 3 entries for a pool of width 4$"),
    (4, 2, 5, r"^query has 5 entries for a pool of width 4$"),
], ids=["negative-budget", "negative-candidate-num", "short-query", "long-query"])
def test_sample_candidate_subsets_refuses_bad_arguments(budget, candidate_num, width, message):
    # these used to give numpy's "negative dimensions are not allowed", a
    # silent [], and numpy's matmul core-dimension message
    x = np.random.default_rng(6).standard_normal((40, 4))
    with pytest.raises(ValueError, match=message):
        sample_candidate_subsets(x, np.ones(width), budget=budget,
                                 candidate_num=candidate_num, seed=0)


def _drawn_from(pool, budget, candidate_num, seed):
    rng = np.random.default_rng(seed)
    return [[int(j) for j in rng.choice(pool, size=budget, replace=False)]
            for _ in range(candidate_num)]


def test_sample_candidate_subsets_zero_query_ranks_in_index_order():
    x = np.random.default_rng(4).standard_normal((45, 5))
    got = sample_candidate_subsets(x, np.zeros(5), budget=4, candidate_num=6, seed=2)
    assert got == _drawn_from(np.arange(30), 4, 6, 2)


def test_sample_candidate_subsets_zero_rows_have_similarity_zero():
    rng = np.random.default_rng(5)
    query = rng.standard_normal(5)
    x = rng.standard_normal((45, 5))
    x[::3] = 0.0
    norms = np.linalg.norm(x, axis=1)
    sims = np.zeros(45)
    live = norms > 0
    sims[live] = x[live] @ query / (norms[live] * np.linalg.norm(query))
    pool = np.argsort(-sims, kind="stable")[:30]
    zero_rows = pool[~live[pool]]
    assert zero_rows.size and np.array_equal(zero_rows, np.sort(zero_rows))
    got = sample_candidate_subsets(x, query, budget=4, candidate_num=6, seed=2)
    assert got == _drawn_from(pool, 4, 6, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sample_candidate_subsets_refuses_non_finite_query(bad):
    x = np.random.default_rng(6).standard_normal((40, 3))
    with pytest.raises(ValueError, match="not finite"):
        sample_candidate_subsets(x, np.array([1.0, bad, 0.0]), budget=4,
                                 candidate_num=2, seed=0)


@pytest.mark.parametrize("selector", [
    lambda x, labels, cfg: greedy_dpp_ucs(dpp_kernel(x), labels, cfg),
    lambda x, labels, cfg: votek_ucs_select(x, labels, corpus_prior(labels), cfg),
    lambda x, labels, cfg: select(x, labels, replace(cfg, base="B1")),
    # through select, subset_utility took 80 labels for 40 rows silently
    *(lambda x, labels, cfg, base=base: select(x, labels, replace(cfg, base=base))
      for base in BASE_SELECTORS),
], ids=["dpp", "votek", "rarity", *(f"select-{base}" for base in BASE_SELECTORS)])
@pytest.mark.parametrize("n_labels", [39, 80])
def test_selectors_refuse_labels_of_another_length(selector, n_labels):
    # 80 labels on 40 rows used to give DPP picks silently, and VoteK a numpy
    # broadcast error or an IndexError
    x = np.random.default_rng(0).standard_normal((40, 4))
    labels = sample_labels(Population.zipf(6, 1.0), n_labels, seed=1)
    with pytest.raises(ValueError, match=rf"^labels has {n_labels} entries for a pool of 40 rows$"):
        selector(x, labels, SelectionConfig(budget=5, lam=0.5))


@pytest.mark.parametrize("candidates, message", [
    ([[0, 1], [0, 0, 1]], r"^candidate 1 index 0 repeats at positions 0 and 1 \(pool of 3 rows\)$"),
    ([[0, 3]], r"^candidate 0 index 3 outside pool of 3 rows \(position 1\)$"),
], ids=["repeated", "past-the-end"])
def test_redundancy_utility_candidates_are_sets_of_rows(candidates, message):
    # a repeat used to count a row's similarity with itself (-0.8 for
    # [0, 0, 1] on a 40-row pool) and a row past the end raised numpy's
    # IndexError
    x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=message):
        redundancy_utility(x, candidates)


def test_redundancy_utility_hand_values():
    x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    utils = redundancy_utility(x, [[0, 1], [0, 2], [0], [0, 1, 2]])
    assert utils[0] == pytest.approx(-1.0, abs=1e-12)  # identical rows
    assert utils[1] == pytest.approx(0.0, abs=1e-12)  # orthogonal rows
    assert utils[2] == 0.0  # singleton
    # mean of pairwise sims {1, 0, 0} twice each over 6 ordered pairs
    assert utils[3] == pytest.approx(-1.0 / 3.0, abs=1e-12)
