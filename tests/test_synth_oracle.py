import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucs import synth_oracle
from ucs.coverage import SgtConfig, gt_unseen, sgt_unseen, subset_spectrum
from ucs.synth_oracle import (
    Population,
    _inverse_cdf,
    cluster_stats,
    expected_new_types,
    exposure_metrics,
    mc_unseen_oracle,
    sample_embeddings,
    sample_labels,
    sample_pool,
)


def test_population_normalizes_and_validates():
    pop = Population(probs=np.array([2.0, 2.0]))
    assert np.allclose(pop.probs, [0.5, 0.5], atol=1e-15)
    assert pop.n_types == 2
    with pytest.raises(ValueError):
        Population(probs=np.array([0.5, -0.5]))
    with pytest.raises(ValueError):
        Population(probs=np.array([0.0, 0.0]))


@pytest.mark.parametrize("probs, message", [
    ([1.0, np.nan], "^probs must be finite; type 2 is nan$"),
    ([np.inf, 1.0], "^probs must be finite; type 1 is inf$"),
    ([1e308, 1e308], "^probs sum to inf, which is not finite$"),
])
def test_population_rejects_non_finite_mass(probs, message):
    with pytest.raises(ValueError, match=message):
        Population(probs=np.array(probs))


@pytest.mark.parametrize("exponent", [-400.0, -103.0])
def test_zipf_rejects_exponent_that_overflows(exponent):
    # -400 overflows single weights; -103 overflows only their sum over 1000
    with pytest.raises(ValueError, match="overflows float64 over 1000 types"):
        Population.zipf(1000, exponent)


def test_population_probs_are_read_only():
    pop = Population.zipf(5)
    with pytest.raises(ValueError):
        pop.probs[0] = 1.0


def test_population_equality_compares_probs_and_kind():
    a = Population.uniform(3)
    sample_labels(a, 10, np.random.default_rng(0))  # builds a's guide table
    assert a == Population.uniform(3)
    assert a != Population.uniform(4)
    assert a != Population(np.ones(3))  # same probs, kind "explicit"
    assert Population.zipf(3, 1.1) != Population.zipf(3, 1.2)
    assert a != "uniform"


def test_population_uniform_and_zipf():
    uni = Population.uniform(4)
    assert np.allclose(uni.probs, 0.25)
    assert uni.kind == "uniform"
    zipf = Population.zipf(3, exponent=1.0)
    z = 1.0 + 0.5 + 1.0 / 3.0
    assert np.allclose(zipf.probs, np.array([1.0, 0.5, 1.0 / 3.0]) / z, atol=1e-12)
    assert np.all(np.diff(zipf.probs) < 0)


def test_sample_labels_single_type_and_empty():
    pop = Population.uniform(1)
    assert np.array_equal(sample_labels(pop, 5, seed=0), np.ones(5))
    assert sample_labels(pop, 0, seed=0).size == 0


def test_sample_labels_one_based_and_seeded():
    pop = Population.uniform(7)
    a = sample_labels(pop, 100, seed=3)
    assert a.min() >= 1 and a.max() <= 7
    assert np.array_equal(a, sample_labels(pop, 100, seed=3))
    assert not np.array_equal(a, sample_labels(pop, 100, seed=4))


def test_sample_labels_frequencies_within_binomial_bound():
    k, n = 100, 100_000
    labels = sample_labels(Population.uniform(k), n, seed=1)
    counts = np.bincount(labels, minlength=k + 1)[1:]
    sigma = np.sqrt(n * (1.0 / k) * (1.0 - 1.0 / k))
    assert np.abs(counts - n / k).max() <= 5.0 * sigma


def _reference_labels(pop, u):
    """Binary search over the cumulative sum: the draw before guide tables."""
    cdf = np.cumsum(pop.probs)
    idx = np.searchsorted(cdf, u, "right")
    return np.minimum(idx, pop.n_types - 1).astype(np.int64) + 1


def _populations():
    """Zero-probability types, K = 1, K not a power of two, steep Zipf and
    cdf[-1] < 1 (uniform(10)'s cumulative sum ends at 1 - 2^-53)."""
    explicit = st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e3)),
                        min_size=1, max_size=300)
    return st.one_of(
        explicit.filter(lambda p: sum(p) > 0).map(lambda p: Population(np.array(p))),
        st.integers(1, 3000).map(Population.uniform),
        st.builds(Population.zipf, st.integers(1, 5000), st.floats(0.0, 60.0)),
    )


@settings(max_examples=150, deadline=None)
@given(_populations(), st.integers(0, 2**32), st.integers(0, 3000))
def test_sample_labels_equal_binary_search(pop, seed, n):
    labels = sample_labels(pop, n, seed)
    want = _reference_labels(pop, np.random.default_rng(seed).random(n))
    assert labels.dtype == np.int64
    assert np.array_equal(labels, want)


@pytest.mark.parametrize("pop", [
    Population(probs=np.array([3.0, 0.0, 0.0, 1.0, 0.0, 2.0, 0.0])),
    Population(probs=np.r_[1.0, np.zeros(100), 2.0]),  # a walk past the step cap
    Population.uniform(1),
    Population.uniform(10),  # cdf[-1] < 1: the clamp
    Population.uniform(3),
    Population.zipf(2000, 1.0),
    Population.zipf(300, 40.0),
], ids=["zeros", "zero-run", "k1", "uniform10", "uniform3", "zipf2000", "steep"])
def test_inverse_cdf_exact_at_adversarial_uniforms(pop):
    first, ext = pop._guide_table()
    g = first.size
    cdf = np.cumsum(pop.probs)
    assert g & (g - 1) == 0 and g >= 4 * pop.n_types
    assert np.array_equal(first, np.searchsorted(cdf, np.arange(g) / g, "right"))
    assert np.array_equal(ext, np.append(cdf, np.inf))
    u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
                        np.arange(g) / g, [0.0, np.nextafter(1.0, 0.0)]])
    u = u[(u >= 0.0) & (u < 1.0)]
    assert np.array_equal(_inverse_cdf(pop, u), _reference_labels(pop, u))


def test_sample_labels_golden_zipf2000_seed1():
    labels = sample_labels(Population.zipf(2000, 1.0), 20, seed=1)
    assert labels.tolist() == [37, 1334, 2, 1314, 7, 18, 489, 16, 50, 1,
                               266, 46, 8, 355, 7, 23, 2, 15, 3, 5]


def test_sample_embeddings_cluster_structure():
    pop = Population.uniform(3)
    labels = np.array([1, 1, 2, 3])
    emb = sample_embeddings(pop, labels, dim=16, spread=1e-6, seed=0)
    assert emb.shape == (4, 16)
    # tiny spread: same-type rows nearly coincide, cross-type rows do not
    assert np.linalg.norm(emb[0] - emb[1]) < 1e-3
    assert np.linalg.norm(emb[0] - emb[2]) > 1e-1
    assert np.array_equal(emb, sample_embeddings(pop, labels, 16, 1e-6, 0))


@pytest.mark.parametrize("spread", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
def test_sample_embeddings_refuses_a_negative_or_non_finite_spread(spread):
    # a negative spread used to give the noise of -spread, negated
    with pytest.raises(ValueError, match=rf"^spread must be finite and >= 0, got {spread}$"):
        sample_embeddings(Population.uniform(3), np.array([1, 2]), spread=spread)
    # zero is the noiseless mixture: each row is its type mean
    emb = sample_embeddings(Population.uniform(3), np.array([1, 1]), spread=0.0)
    assert np.array_equal(emb[0], emb[1])


def test_sample_pool_shapes():
    emb, labels = sample_pool(Population.uniform(5), 20, dim=8, seed=2)
    assert emb.shape == (20, 8)
    assert labels.shape == (20,)


def test_expected_new_types_closed_form():
    assert expected_new_types(Population.uniform(10), 5, 0) == 0.0
    # one certain type: it is seen in the first draw, so nothing is new
    assert expected_new_types(Population(np.array([1.0, 0.0, 0.0])), 5, 5) == 0.0
    # n=0, m huge: every type is new eventually
    assert expected_new_types(Population.uniform(12), 0, 10**7) == pytest.approx(12.0, abs=1e-3)
    want = 100.0 * 0.99**200 * (1.0 - 0.99**200)
    assert expected_new_types(Population.uniform(100), 200, 200) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(11.6, abs=0.1)


def _uniform_formula(k, n, m):
    """The uniform special case k (1 - 1/k)^n (1 - (1 - 1/k)^m), in floats."""
    miss = 1.0 - 1.0 / k
    return k * miss**n * (1.0 - miss**m)


@pytest.mark.parametrize("k, n, m", [(50, 200, 200), (64, 200, 200), (100, 200, 200),
                                     (10, 5, 3), (500, 1000, 50)])
def test_expected_new_types_is_the_uniform_formula(k, n, m):
    # exact rational value of the uniform case, rounded once
    miss = 1 - Fraction(1, k)
    exact = float(k * miss**n * (1 - miss**m))
    ulp = np.spacing(exact)
    got = expected_new_types(Population.uniform(k), n, m)
    assert abs(got - exact) <= 2 * ulp
    # The float formula rounds 1 - 1/k once (relative error <= 2^-53), and
    # its powers carry that error n and m times over: to first order its
    # error is at most k (n + m) (1 - 1/k)^n 2^-53. At k=50, n=m=200 that
    # is 352 ulps, and the two differ by 29 (the formula is 28 ulps below
    # the exact value). When 1 - 1/k is exact (k=64) they agree to 2 ulps.
    bound = k * (n + m) * float(miss) ** n * 2.0**-53
    assert abs(got - _uniform_formula(k, n, m)) <= bound + 2 * ulp
    if k == 64:
        assert abs(got - _uniform_formula(k, n, m)) <= 2 * ulp


@pytest.mark.parametrize("pop", [Population.zipf(500, 1.1), Population.uniform(50)],
                         ids=["zipf", "uniform"])
@pytest.mark.parametrize("n, t", [(10, 5.0), (50, 5.0), (200, 5.0), (200, 1.0)])
def test_mc_oracle_mean_is_the_exact_expectation(pop, n, t):
    # The trials are independent and their new-type counts are bounded, so
    # by the CLT the mean of 400 lies within 4 standard errors of the exact
    # expectation except with probability about 6e-5. The seed is fixed,
    # so the check is deterministic.
    report = mc_unseen_oracle(pop, n=n, t=t, trials=400, seed=1)
    want = expected_new_types(pop, n, int(t * n))
    assert abs(report.mean_new - want) <= 4.0 * report.std_new / np.sqrt(report.trials)


def test_mc_oracle_single_type_truth_zero():
    report = mc_unseen_oracle(Population.uniform(1), n=20, t=1.0, trials=10, seed=0)
    assert np.array_equal(report.new_counts, np.zeros(10))
    assert report.mean_new == 0.0
    assert report.mean_abs_estimator_error == pytest.approx(report.mean_estimate)


def test_mc_oracle_tracks_closed_form_uniform():
    report = mc_unseen_oracle(Population.uniform(100), n=200, t=1.0,
                              trials=400, seed=7)
    want = expected_new_types(Population.uniform(100), 200, 200)
    scatter = 3.0 * report.std_new / np.sqrt(report.trials)
    assert abs(report.mean_new - want) <= scatter
    assert report.estimates.shape == (400,)
    assert np.all(report.estimates >= 0.0)


def test_mc_oracle_gt_estimator_unclamped():
    # force spectra with only even multiplicities often enough that the raw
    # alternating sum goes negative at least once
    pop = Population.uniform(2)
    report = mc_unseen_oracle(pop, n=12, t=1.0, trials=200, seed=1,
                              estimator="gt")
    assert report.estimates.min() < 0.0


def test_mc_oracle_validation():
    pop = Population.uniform(3)
    with pytest.raises(ValueError):
        mc_unseen_oracle(pop, n=5, t=1.0, trials=0, seed=0)
    with pytest.raises(ValueError):
        mc_unseen_oracle(pop, n=5, t=1.0, trials=1, seed=0, estimator="chao")
    # the n passed is named, not the n + floor(t*n) draws sample_labels sees
    with pytest.raises(ValueError, match="^n must be >= 0, got -5$"):
        mc_unseen_oracle(Population.uniform(5), n=-5, t=5.0, trials=3, seed=0)


def _recount_oracle(pop, n, t, trials, seed, cfg, estimator):
    """Per-trial (new types, estimate) recomputed with Python sets,
    subset_spectrum and the estimators' own weights."""
    m = int(t * n)
    news, ests = [], []
    for r in range(trials):
        labels = sample_labels(pop, n + m, seed + r)
        first = {int(v) for v in labels[:n]}
        news.append(float(len({int(v) for v in labels[n:]} - first)))
        spec = subset_spectrum(labels[:n], range(n))
        ests.append(sgt_unseen(spec, cfg) if estimator == "sgt"
                    else gt_unseen(spec, t, cfg.bin_size))
    return np.array(news), np.array(ests)


# the ids name the oracle's draw mode, i.i.d.
@pytest.mark.parametrize("estimator", ["sgt", "gt"], ids=["sgt-iid", "gt-iid"])
def test_mc_oracle_matches_independent_recount(estimator):
    cases = [
        (Population.zipf(300, 1.1), 200, 2.0, 12),
        (Population.uniform(40), 60, 5.0, 12),
        (Population.zipf(50, 0.8), 30, 1.0, 12),
        (Population.zipf(20, 1.0), 0, 2.0, 12),
        # blocks of 16 trials and a ragged last block of 5
        (Population.zipf(2000, 1.0), 500, 2.0, 37),
        # K + 1 above the cell budget: every block is one trial
        (Population.zipf(10**5, 1.0), 200, 2.0, 3),
        # t * n < 1, so m = 0 and no trial finds a new type
        (Population.zipf(50, 0.8), 3, 0.2, 12),
        (Population.uniform(1), 20, 1.0, 12),
    ]
    for pop, n, t, trials in cases:
        cfg = SgtConfig(t=t)
        report = mc_unseen_oracle(pop, n, t, trials=trials, seed=5, sgt=cfg,
                                  estimator=estimator)
        news, ests = _recount_oracle(pop, n, t, trials, 5, cfg, estimator)
        assert np.array_equal(report.new_counts, news), (pop.kind, n)
        assert np.array_equal(report.estimates, ests), (pop.kind, n)


@pytest.mark.parametrize("cells", [1, 4096, 1 << 20])
def test_mc_oracle_does_not_depend_on_block_size(monkeypatch, cells):
    # 1 cell runs one trial per block, 1 << 20 all trials in one block
    cases = [
        (Population.zipf(2000, 1.0), 500, 2.0, 37, "sgt"),
        (Population.zipf(300, 1.1), 200, 2.0, 23, "gt"),
        (Population.uniform(2), 12, 1.0, 40, "gt"),
        (Population.uniform(1), 20, 1.0, 9, "sgt"),
        (Population.zipf(20, 1.0), 0, 2.0, 5, "sgt"),
        (Population.zipf(50, 0.8), 3, 0.2, 11, "gt"),
    ]
    want = [mc_unseen_oracle(pop, n, t, trials, 3, estimator=est)
            for pop, n, t, trials, est in cases]
    monkeypatch.setattr(synth_oracle, "_ORACLE_CELLS", cells)
    for (pop, n, t, trials, est), ref in zip(cases, want):
        got = mc_unseen_oracle(pop, n, t, trials, 3, estimator=est)
        for name in ("new_counts", "estimates"):
            a, b = getattr(got, name), getattr(ref, name)
            assert np.array_equal(a, b), (pop.kind, n, name)
            assert np.array_equal(np.signbit(a), np.signbit(b)), (pop.kind, n, name)


@pytest.mark.parametrize("k, trials, limit_mib", [(2000, 200, 2.0), (10**6, 3, 23.85)],
                         ids=["workload", "zipf-1e6"])
def test_mc_oracle_peak_memory(k, trials, limit_mib):
    # The blocks hold about _ORACLE_CELLS values, so at the benchmark's size
    # (zipf(2000), n = 500, t = 2, 200 trials) the peak stays small, and at
    # K = 10^6 a block is one trial whose count arrays are no larger than
    # the per-trial loop's (23.85 MiB). The guide table is built first.
    pop = Population.zipf(k, 1.0)
    mc_unseen_oracle(pop, 500, 2.0, 1, 0)
    tracemalloc.start()
    try:
        mc_unseen_oracle(pop, 500, 2.0, trials, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20, peak / 2**20


def test_mc_oracle_refuses_sgt_t_other_than_t():
    # sgt.t used to be replaced by t without a word
    pop = Population.uniform(20)
    with pytest.raises(ValueError, match=r"sgt.t = 99.0 differs from t = 2.0"):
        mc_unseen_oracle(pop, n=30, t=2.0, trials=5, seed=3,
                         sgt=SgtConfig(t=99.0, bin_size=10))
    report = mc_unseen_oracle(pop, n=30, t=2.0, trials=5, seed=3,
                              sgt=SgtConfig(t=2.0, bin_size=10))
    assert report.trials == 5


def test_cluster_stats_hand_case():
    stats = cluster_stats(np.array([1, 1, 2, 3]))
    assert stats.size_mass[1] == 2
    assert stats.size_mass[2] == 2
    assert sum(stats.size_mass.values()) == 4
    assert stats.top_sizes == [2, 1, 1]
    assert stats.singleton_frac == 2 / 3


def test_cluster_stats_all_singletons_and_giant():
    singles = cluster_stats(np.arange(1, 13))
    assert singles.size_mass[1] == 12
    assert singles.top_sizes == [1] * 8
    assert singles.singleton_frac == 1.0
    giant = cluster_stats(np.full(30, 4))
    assert giant.top_sizes == [30]
    assert giant.singleton_frac == 0.0
    assert sum(giant.size_mass.values()) == 0  # size 30 beyond the 1..8 bins
    assert cluster_stats(np.array([], dtype=np.int64)).singleton_frac == 0.0


def test_cluster_stats_masses_sum_to_n_when_sizes_small():
    rng = np.random.default_rng(4)
    labels = np.repeat(np.arange(1, 40), rng.integers(1, 9, size=39))
    stats = cluster_stats(labels)
    assert sum(stats.size_mass.values()) == labels.size
    assert stats.top_sizes == sorted(stats.top_sizes, reverse=True)
    assert len(stats.top_sizes) == 8


def test_exposure_all_singletons():
    labels = np.arange(1, 9)
    report = exposure_metrics(labels, [[0, 1, 2], [3, 4, 5]])
    assert report.uniq_clusters == 3.0
    assert report.mean_cluster_size == 1.0
    assert report.mean_inv_size == 1.0
    assert report.uniq_std == 0.0


def test_exposure_one_big_cluster():
    labels = np.full(8, 1)
    report = exposure_metrics(labels, [[0, 3, 7]])
    assert report.uniq_clusters == 1.0
    assert report.mean_cluster_size == 8.0
    assert report.mean_inv_size == pytest.approx(0.125)


def test_exposure_treats_every_id_as_a_cluster():
    # bincount refused the negative ids with numpy's own message
    report = exposure_metrics(np.array([-1, -1, 2]), [[0, 2]])
    assert report.uniq_clusters == 2.0
    assert report.mean_cluster_size == 1.5
    rng = np.random.default_rng(3)
    labels = rng.integers(1, 12, size=50)
    selections = [list(rng.choice(50, size=6, replace=False)) for _ in range(3)]
    want = exposure_metrics(labels, selections)
    for shift in (-5, -20, 1000):
        assert exposure_metrics(labels + shift, selections) == want


@pytest.mark.parametrize("selections, message", [
    ([[-1]], r"selection 0 index -1 outside pool of 3 rows \(position 0\)"),
    ([[0, 0]], r"selection 0 index 0 repeats at positions 0 and 1 \(pool of 3 rows\)"),
    ([[3]], r"selection 0 index 3 outside pool of 3 rows \(position 0\)"),
], ids=["negative", "repeated", "past-the-end"])
def test_exposure_selections_are_sets_of_rows(selections, message):
    # these used to read the last row, count row 0 twice (mean_cluster_size
    # 2.0) and fail with numpy's IndexError
    with pytest.raises(ValueError, match=message):
        exposure_metrics(np.array([1, 1, 2]), selections)


def test_exposure_mixed_hand_arithmetic():
    labels = np.array([1, 1, 1, 2, 3])  # sizes: 3, 1, 1
    report = exposure_metrics(labels, [[0, 3], [1, 2]])
    # selection 1: clusters {1,2}, sizes (3,1) -> mean 2, inv mean (1/3+1)/2
    # selection 2: cluster {1} twice, sizes (3,3) -> mean 3, inv mean 1/3
    assert report.uniq_clusters == pytest.approx(1.5)
    assert report.mean_cluster_size == pytest.approx(2.5)
    assert report.mean_inv_size == pytest.approx(((1 / 3 + 1) / 2 + 1 / 3) / 2)
    assert report.size_std == pytest.approx(0.5)
    assert report.n_selections == 2


def test_exposure_inv_size_one_iff_singletons():
    labels = np.array([1, 2, 3, 3])
    assert exposure_metrics(labels, [[0, 1]]).mean_inv_size == 1.0
    assert exposure_metrics(labels, [[0, 2]]).mean_inv_size < 1.0


def test_exposure_rejects_empty():
    with pytest.raises(ValueError):
        exposure_metrics(np.array([1, 2]), [])


@pytest.mark.parametrize("selections, position", [([[]], 0), ([[0], []], 1)])
def test_exposure_refuses_an_empty_selection(selections, position):
    # an empty selection used to give nan means and numpy RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^selection {position} is empty$"):
            exposure_metrics(np.array([1, 2, 3]), selections)
