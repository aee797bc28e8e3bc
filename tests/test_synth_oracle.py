import numpy as np
import pytest

from ucs.coverage import SgtConfig, gt_unseen, sgt_unseen, subset_spectrum
from ucs.synth_oracle import (
    Population,
    cluster_stats,
    expected_new_types_uniform,
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


def test_sample_embeddings_cluster_structure():
    pop = Population.uniform(3)
    labels = np.array([1, 1, 2, 3])
    emb = sample_embeddings(pop, labels, dim=16, spread=1e-6, seed=0)
    assert emb.shape == (4, 16)
    # tiny spread: same-type rows nearly coincide, cross-type rows do not
    assert np.linalg.norm(emb[0] - emb[1]) < 1e-3
    assert np.linalg.norm(emb[0] - emb[2]) > 1e-1
    assert np.array_equal(emb, sample_embeddings(pop, labels, 16, 1e-6, 0))


def test_sample_pool_shapes():
    emb, labels = sample_pool(Population.uniform(5), 20, dim=8, seed=2)
    assert emb.shape == (20, 8)
    assert labels.shape == (20,)


def test_expected_new_types_closed_form():
    assert expected_new_types_uniform(10, 5, 0) == 0.0
    assert expected_new_types_uniform(0, 5, 5) == 0.0
    # n=0, m huge: every type is new eventually
    assert expected_new_types_uniform(12, 0, 10**7) == pytest.approx(12.0, abs=1e-3)
    want = 100.0 * 0.99**200 * (1.0 - 0.99**200)
    assert expected_new_types_uniform(100, 200, 200) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(11.6, abs=0.1)


def test_mc_oracle_single_type_truth_zero():
    report = mc_unseen_oracle(Population.uniform(1), n=20, t=1.0, trials=10, seed=0)
    assert np.array_equal(report.new_counts, np.zeros(10))
    assert report.mean_new == 0.0
    assert report.mean_abs_estimator_error == pytest.approx(report.mean_estimate)


def test_mc_oracle_tracks_closed_form_uniform():
    report = mc_unseen_oracle(Population.uniform(100), n=200, t=1.0,
                              trials=400, seed=7)
    want = expected_new_types_uniform(100, 200, 200)
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
    with pytest.raises(ValueError):
        mc_unseen_oracle(pop, n=5, t=1.0, trials=1, seed=0, pool_size=8)
    # the n passed is named, not the n + floor(t*n) draws sample_labels sees
    for pool_size in (None, 10):
        with pytest.raises(ValueError, match="^n must be >= 0, got -5$"):
            mc_unseen_oracle(Population.uniform(5), n=-5, t=5.0, trials=3,
                             seed=0, pool_size=pool_size)


def _recount_oracle(pop, n, t, trials, seed, cfg, estimator, pool_size):
    """Per-trial (new types, estimate) recomputed with Python sets,
    subset_spectrum and the estimators' own weights."""
    m = int(t * n)
    news, ests = [], []
    for r in range(trials):
        if pool_size is None:
            labels = sample_labels(pop, n + m, seed + r)
        else:
            pool = sample_labels(pop, pool_size, seed + r)
            order = np.random.default_rng(seed + r).permutation(pool_size)
            labels = pool[order[: n + m]]
        first = {int(v) for v in labels[:n]}
        news.append(float(len({int(v) for v in labels[n:]} - first)))
        spec = subset_spectrum(labels[:n], range(n))
        ests.append(sgt_unseen(spec, cfg) if estimator == "sgt"
                    else gt_unseen(spec, t, cfg.bin_size))
    return np.array(news), np.array(ests)


@pytest.mark.parametrize("pool_size", [None, 2000], ids=["iid", "pool"])
@pytest.mark.parametrize("smoothing", ["off", "power_law"])
@pytest.mark.parametrize("estimator", ["sgt", "gt"])
def test_mc_oracle_matches_independent_recount(estimator, smoothing, pool_size):
    cases = [
        (Population.zipf(300, 1.1), 200, 2.0, None),
        (Population.uniform(40), 60, 5.0, None),
        (Population.zipf(50, 0.8), 30, 1.0, 12),
        (Population.zipf(20, 1.0), 0, 2.0, None),
    ]
    for pop, n, t, k0 in cases:
        cfg = SgtConfig(t=t, smoothing=smoothing, k0_override=k0)
        report = mc_unseen_oracle(pop, n, t, trials=12, seed=5, sgt=cfg,
                                  estimator=estimator, pool_size=pool_size)
        news, ests = _recount_oracle(pop, n, t, 12, 5, cfg, estimator, pool_size)
        assert np.array_equal(report.new_counts, news), (pop.kind, n)
        assert np.array_equal(report.estimates, ests), (pop.kind, n)


def test_mc_oracle_finite_pool_mode():
    report = mc_unseen_oracle(Population.uniform(10), n=10, t=1.0, trials=30,
                              seed=2, pool_size=50)
    assert report.trials == 30
    assert np.all(report.new_counts >= 0)
    # a repeat run is bit-identical
    again = mc_unseen_oracle(Population.uniform(10), n=10, t=1.0, trials=30,
                             seed=2, pool_size=50)
    assert np.array_equal(report.new_counts, again.new_counts)
    assert np.array_equal(report.estimates, again.estimates)


def test_mc_oracle_custom_sgt_config_t_is_overridden():
    cfg = SgtConfig(t=99.0, bin_size=10)
    report = mc_unseen_oracle(Population.uniform(20), n=30, t=2.0, trials=5,
                              seed=3, sgt=cfg)
    direct = mc_unseen_oracle(Population.uniform(20), n=30, t=2.0, trials=5,
                              seed=3, sgt=SgtConfig(t=2.0, bin_size=10))
    assert np.array_equal(report.estimates, direct.estimates)


def test_cluster_stats_hand_case():
    stats = cluster_stats(np.array([1, 1, 2, 3]))
    assert stats.size_mass[1] == 2
    assert stats.size_mass[2] == 2
    assert sum(stats.size_mass.values()) == 4
    assert stats.top_sizes == [2, 1, 1]


def test_cluster_stats_all_singletons_and_giant():
    singles = cluster_stats(np.arange(1, 13))
    assert singles.size_mass[1] == 12
    assert singles.top_sizes == [1] * 8
    giant = cluster_stats(np.full(30, 4))
    assert giant.top_sizes == [30]
    assert sum(giant.size_mass.values()) == 0  # size 30 beyond the 1..8 bins


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
