import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucs import coverage
from ucs.coverage import (
    PRIOR_EPS,
    CoverageTracker,
    SgtConfig,
    corpus_prior,
    coverage_phi,
    gt_unseen,
    k0_for,
    row_set,
    sgt_unseen,
    sgt_weights,
    subset_spectrum,
)
from ucs.errors import IndexOutOfRange


def test_subset_spectrum_basic():
    spec = subset_spectrum(np.array([5, 5, 7, 9]), [0, 1, 2, 3])
    assert spec.counts == {5: 2, 7: 1, 9: 1}
    assert spec.spectrum == {1: 2, 2: 1}
    assert spec.k_seen == 3
    assert spec.size == 4


def test_subset_spectrum_empty():
    spec = subset_spectrum(np.array([1, 2]), [])
    assert spec.spectrum == {}
    assert spec.k_seen == 0
    assert spec.size == 0


def test_subset_spectrum_triple():
    spec = subset_spectrum(np.array([4, 4, 4]), [0, 1, 2])
    assert spec.spectrum == {3: 1}


def test_subset_spectrum_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        subset_spectrum(np.array([1, 2]), [0, 5])


def test_subset_spectrum_repeated_index():
    # A subset is a set of rows: one row named three times is refused, not
    # counted as three members of its cluster.
    with pytest.raises(ValueError, match="subset index 0 repeats at positions 0 and 1"):
        subset_spectrum(np.array([1, 2, 3]), [0, 0, 0])
    with pytest.raises(ValueError, match="subset index 1 repeats at positions 1 and 3"):
        coverage_phi(np.array([1, 2, 3]), [2, 1, 0, 1], SgtConfig(t=2.0))


@pytest.mark.parametrize("indices, error, message", [
    ([0, 5], IndexOutOfRange, r"^subset index 5 outside pool of 2 rows \(position 1\)$"),
    ([1, -1], IndexOutOfRange, r"^subset index -1 outside pool of 2 rows \(position 1\)$"),
    ([0, 2**70], IndexOutOfRange,
     rf"^subset index {2**70} outside pool of 2 rows \(position 1\)$"),
    ([1, 1, 2**70], ValueError,
     r"^subset index 1 repeats at positions 0 and 1 \(pool of 2 rows\)$"),
], ids=["past-the-end", "negative", "beyond-int64", "repeat-before-beyond-int64"])
def test_row_set_names_the_first_bad_index_its_position_and_the_pool(indices, error, message):
    with pytest.raises(error, match=message):
        row_set(indices, 2, "subset")


def test_row_set_returns_the_rows_in_their_order():
    for indices in ([2, 0], (2, 0), np.array([2, 0]), iter([2, 0])):
        rows = row_set(indices, 3, "subset")
        assert rows.dtype == np.int64 and rows.tolist() == [2, 0]
    assert row_set(range(0), 0, "subset").tolist() == []


def test_index_out_of_range_is_a_value_error():
    with pytest.raises(ValueError):
        subset_spectrum(np.array([1, 2]), [0, 5])


def test_gt_hand_values():
    assert gt_unseen({1: 2, 2: 1}, t=1.0) == pytest.approx(1.0, abs=1e-12)
    assert gt_unseen({1: 3}, t=2.0) == pytest.approx(6.0, abs=1e-12)
    assert gt_unseen({2: 5}, t=1.0) == pytest.approx(-5.0, abs=1e-12)


def test_gt_truncates_at_bin_size():
    assert gt_unseen({1: 1, 25: 1}, t=1.0, bin_size=20) == pytest.approx(1.0)


def test_k0_formula():
    for t, n in [(1.0, 1), (5.0, 100), (2.0, 37), (0.1, 1)]:
        x = n * t * t / (t + 1.0)
        want = max(0, math.ceil(0.5 * math.log2(x))) if x > 0 else 0
        assert k0_for(t, n) == want
    assert k0_for(1.0, 1) == 0  # log2(0.5) < 0 clamps
    assert k0_for(5.0, 100) == 5


def test_sgt_weights_k0_zero_all_zero():
    w = sgt_weights(t=1.0, offset_alpha=1.0, k0=k0_for(1.0, 1))
    assert np.array_equal(w, np.zeros(20))


def test_sgt_weights_single_trial_hand_value():
    # k0=1, p0 = 1/(1+1) = 0.5: P(L>=1) = 0.5, higher tails empty
    w = sgt_weights(t=1.0, offset_alpha=1.0, k0=1, bin_size=5)
    assert w[0] == pytest.approx(0.5, abs=1e-15)
    assert np.array_equal(w[1:], np.zeros(4))


def test_sgt_weights_match_exact_binomial_tail():
    # independent oracle with integer binomial coefficients
    for t, alpha, n, m in [(5.0, 1.0, 200, 20), (2.0, 1.5, 50, 10), (1.0, 2.0, 1000, 8)]:
        k0 = k0_for(t, n)
        w = sgt_weights(t, alpha, k0, bin_size=m)
        p0 = alpha / (t + alpha)
        for s in range(1, m + 1):
            tail = sum(
                math.comb(k0, j) * p0**j * (1 - p0) ** (k0 - j)
                for j in range(s, k0 + 1)
            )
            assert w[s - 1] == pytest.approx(tail, abs=1e-12), (t, s)


def test_sgt_weights_monotone_non_increasing():
    for k0 in (1, 3, 7, 40):
        w = sgt_weights(t=3.0, offset_alpha=1.3, k0=k0, bin_size=25)
        assert w[0] <= 1.0
        assert np.all(np.diff(w) <= 1e-15)
        assert np.all(w >= 0.0)


def test_sgt_weights_refuses_negative_k0():
    with pytest.raises(ValueError, match="k0 must be >= 0, got -1"):
        sgt_weights(t=1.0, offset_alpha=1.0, k0=-1)


def test_sgt_weights_are_cached_and_read_only():
    # the one cache of the weights hands the same array to every caller
    w = sgt_weights(5.0, 1.0, k0_for(5.0, 200), 20)
    with pytest.raises(ValueError):
        w[0] = 0.0
    assert np.array_equal(w, sgt_weights(t=5.0, offset_alpha=1.0, k0=k0_for(5.0, 200),
                                         bin_size=20))
    assert np.array_equal(w, sgt_weights(5.0, 1.0, k0_for(5.0, 200)))
    assert w[0] > 0
    zeros = sgt_weights(t=1.0, offset_alpha=1.0, k0=0)
    with pytest.raises(ValueError):
        zeros[0] = 1.0


def test_sgt_weights_signature_is_what_the_weights_depend_on():
    assert list(inspect.signature(sgt_weights).parameters) == [
        "t", "offset_alpha", "k0", "bin_size"]
    assert list(SgtConfig.__dataclass_fields__) == ["t", "bin_size", "offset_alpha"]


def test_sizes_sharing_a_k0_share_one_weight_vector():
    cfg = SgtConfig(t=5.0)
    spectra = [{1: 70}, {1: 40, 2: 20}, {1: 50, 2: 25}]  # |S| = 70, 80, 100
    assert {k0_for(cfg.t, n) for n in (70, 80, 100)} == {5}
    sgt_weights.cache_clear()
    for spec in spectra:
        sgt_unseen(spec, cfg)
    info = sgt_weights.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_sgt_unseen_subset_spectrum_equals_its_mapping():
    labels = np.random.default_rng(3).integers(1, 120, size=300)
    spec = subset_spectrum(labels, range(0, 300, 2))
    cfg = SgtConfig(t=2.0)
    u_hat = sgt_unseen(spec, cfg)
    assert u_hat > 0
    assert u_hat == sgt_unseen(spec.spectrum, cfg)


def test_power_law_exact_power_law_self_consistent():
    truth = {s: 64.0 * s**-2.0 for s in range(1, 5)}
    out = coverage._power_law(truth, 4, 4)
    for s in range(1, 5):
        assert out[s] == pytest.approx(truth[s], rel=1e-6)


def test_power_law_single_bin_falls_back():
    assert coverage._power_law({3: 7}, 10, 10) is None


def test_power_law_non_negative():
    out = coverage._power_law({1: 100, 2: 1, 7: 1}, 12, 12)
    assert all(v >= 0.0 for v in out.values())
    assert set(out) == set(range(1, 13))


def test_sgt_empty_spectrum_zero():
    assert sgt_unseen({}, SgtConfig()) == 0.0


def test_sgt_clamps_negative():
    assert sgt_unseen({2: 5}, SgtConfig(t=1.0)) == 0.0


def test_sgt_with_saturated_weights_reduces_to_gt():
    # enormous k0 makes every damping weight 1 in float, and the weighted
    # truncated sum is then the plain estimate
    for t, spec, want in [(1.0, {1: 2, 2: 1}, 1.0), (2.0, {1: 3}, 6.0)]:
        w = sgt_weights(t, 1.0, 100000, 20)
        assert np.all(w == 1.0)
        total = coverage._truncated_sum(spec, t, 20, w)
        assert total == gt_unseen(spec, t, 20)
        assert total == pytest.approx(want, rel=1e-9)


def test_sgt_damped_below_gt_for_t_above_one():
    spec = {1: 6, 2: 3, 3: 1}
    raw = gt_unseen(spec, t=4.0)
    damped = sgt_unseen(spec, SgtConfig(t=4.0))
    assert 0.0 <= damped
    assert damped <= max(raw, 0.0) or raw < 0.0


def test_sgt_returns_builtin_float():
    value = sgt_unseen({1: 4}, SgtConfig(t=2.0))
    assert type(value) is float


def test_coverage_phi_identities():
    labels = np.array([1, 2, 3, 4, 4])
    cfg = SgtConfig(t=2.0)
    phi, k_seen, u_hat = coverage_phi(labels, [0, 1, 2], cfg)
    assert k_seen == 3
    assert phi == pytest.approx(k_seen + u_hat, abs=1e-12)
    assert phi >= k_seen
    phi_dup, k_dup, _ = coverage_phi(labels, [3, 4], cfg)
    assert k_dup == 1
    assert phi_dup >= 1.0


def test_coverage_tracker_matches_from_scratch():
    rng = np.random.default_rng(0)
    labels = rng.integers(1, 8, size=40)
    for cfg in (
        SgtConfig(t=3.0),
        SgtConfig(t=5.0, offset_alpha=2.0),
        SgtConfig(t=2.0),
    ):
        tracker = CoverageTracker(labels, cfg)
        chosen: list[int] = []
        order = rng.permutation(40)[:12]
        for idx in order:
            gain = tracker.gain_if_added(int(idx))
            phi_before = coverage_phi(labels, chosen, cfg)[0]
            phi_after = coverage_phi(labels, chosen + [int(idx)], cfg)[0]
            assert gain == phi_after - phi_before
            tracker.add(int(idx))
            chosen.append(int(idx))
            assert tracker.phi() == phi_after
            assert tracker.k_seen == coverage_phi(labels, chosen, cfg)[1]
            spec = subset_spectrum(labels, chosen)
            assert tracker.spectrum == spec.spectrum  # zeroed bins deleted
            tracked_size = sum(s * f for s, f in tracker.spectrum.items())
            assert (tracked_size, tracker.k_seen) == (spec.size, spec.k_seen)


@pytest.mark.parametrize("cfg", [
    SgtConfig(t=2.0),
    SgtConfig(t=5.0, offset_alpha=2.0),
    SgtConfig(t=3.0, bin_size=2),  # cluster 1 grows to 8 members, above bin_size
])
def test_gains_if_added_bit_equal_to_gain_if_added(cfg):
    rng = np.random.default_rng(7)
    labels = rng.permutation(np.concatenate([np.full(12, 1), rng.integers(2, 9, size=48)]))
    order = list(np.flatnonzero(labels == 1)[:8])
    order += [int(i) for i in rng.permutation(labels.size) if i not in order][:15]
    tracker = CoverageTracker(labels, cfg)
    chosen: list[int] = []
    for idx in order:
        candidates = np.setdiff1d(np.arange(labels.size), chosen)
        batch = tracker.gains_if_added(candidates)
        single = np.array([tracker.gain_if_added(int(i)) for i in candidates])
        assert np.array_equal(batch, single)  # bit-equal, not approximately
        tracker.add(int(idx))
        chosen.append(int(idx))
    assert np.count_nonzero(labels[chosen] == 1) >= 8


def test_corpus_prior_hand_case():
    # the power-law fit through the spectrum {1: 2, 2: 1} is exact:
    # g_hat(s) = 2/s, so s* = (s+1) g_hat(s+1) / g_hat(s) is 1 at s = 1 and
    # 2 at s = 2, and p(s) = s*/N is 0.25 and 0.5 at N = 4
    prior = corpus_prior(np.array([1, 1, 2, 3]))
    assert prior.sizes == {1: 2, 2: 1, 3: 1}
    assert prior.smoothed == pytest.approx({1: 2.0, 2: 1.0, 3: 2 / 3})
    raw = {1: 1 / (0.5 + PRIOR_EPS), 2: 1 / (0.25 + PRIOR_EPS), 3: 1 / (0.25 + PRIOR_EPS)}
    mean = sum(raw.values()) / len(raw)
    assert prior.weights == pytest.approx({c: w / mean for c, w in raw.items()}, rel=1e-12)
    assert prior.weights[2] == pytest.approx(1.2, abs=1e-5)
    assert prior.weights[3] == pytest.approx(1.2, abs=1e-5)
    assert prior.weights[1] == pytest.approx(0.6, abs=1e-5)
    assert prior.weights[2] > prior.weights[1]


def test_corpus_prior_equal_sizes_unit_weights():
    # one nonzero bin: no fit, the raw spectrum stands in and s* = s
    prior = corpus_prior(np.array([1, 1, 2, 2, 3, 3]))
    assert prior.power_law_fallback
    assert prior.smoothed == {1: 0.0, 2: 3.0, 3: 0.0}
    assert all(w == 1.0 for w in prior.weights.values())


def test_corpus_prior_takes_only_labels():
    assert list(inspect.signature(corpus_prior).parameters) == ["labels"]


def test_corpus_prior_mean_one():
    rng = np.random.default_rng(1)
    labels = rng.integers(1, 20, size=200)
    prior = corpus_prior(labels)
    mean = sum(prior.weights.values()) / len(prior.weights)
    assert mean == pytest.approx(1.0, abs=1e-9)
    assert all(w > 0 for w in prior.weights.values())


def test_corpus_prior_relabel_invariant():
    rng = np.random.default_rng(2)
    labels = rng.integers(1, 9, size=60)
    prior = corpus_prior(labels)
    shift = {u: u + 100 for u in prior.weights}
    relabeled = np.array([shift[int(v)] for v in labels])
    prior2 = corpus_prior(relabeled)
    for u, w in prior.weights.items():
        assert prior2.weights[shift[u]] == pytest.approx(w, abs=1e-12)


def test_sgt_config_validation():
    with pytest.raises(ValueError):
        SgtConfig(t=0.0)
    with pytest.raises(ValueError):
        SgtConfig(bin_size=0)
    with pytest.raises(ValueError):
        SgtConfig(offset_alpha=0.5)


@pytest.mark.parametrize("t, bin_size", [
    (math.nan, 20), (math.inf, 20), (1e20, 20), (1e16, 20), (2.0, 1100), (1e300, 2),
])
def test_sgt_config_refuses_a_horizon_whose_power_overflows(t, bin_size):
    # (-t)**s for s up to bin_size is the estimator's largest term; 1e20
    # used to pass and end ucs estimate in an OverflowError traceback
    message = f"t = {t} with bin_size = {bin_size}: t**bin_size is not a finite float64"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        SgtConfig(t=t, bin_size=bin_size)


def test_sgt_config_accepts_a_horizon_at_the_float64_limit():
    # 1e15**20 = 1e300 is finite; so is every term at any spectrum size
    cfg = SgtConfig(t=1e15, bin_size=20)
    assert math.isfinite(gt_unseen({20: 1}, cfg.t, cfg.bin_size))
    assert sgt_unseen({20: 1}, cfg) >= 0.0


def test_k0_for_when_t_squared_overflows():
    # |S| t^2 / (t + 1) overflows for t = 1e200, but its log2 does not;
    # k0_for used to raise "cannot convert float infinity to integer"
    want = math.ceil(0.5 * (math.log2(23) + 2 * math.log2(1e200) - math.log2(1e200 + 1)))
    assert k0_for(1e200, 23) == want
    assert sgt_unseen({1: 3, 20: 1}, SgtConfig(t=1e200, bin_size=1)) >= 0.0


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=50), min_size=0, max_size=30),
    st.floats(min_value=0.25, max_value=8.0, allow_nan=False),
)
def test_spectrum_and_phi_invariants(cluster_ids, t):
    labels = np.array(cluster_ids or [0], dtype=np.int64)
    subset = list(range(len(cluster_ids)))
    spec = subset_spectrum(labels, subset)
    assert sum(s * f for s, f in spec.spectrum.items()) == len(subset)
    assert sum(spec.spectrum.values()) == spec.k_seen
    cfg = SgtConfig(t=float(t))
    u_hat = sgt_unseen(spec, cfg)
    assert u_hat >= 0.0
    phi, k_seen, _ = coverage_phi(labels, subset, cfg)
    assert phi >= k_seen
