"""Synthetic populations with known type distributions, plus the oracles
and report statistics used to validate the coverage estimator.

Sampling uses numpy's PCG64 generator (np.random.default_rng) with inverse
CDF lookups, so label streams are a pure function of the seed. Monte Carlo
trials derive their seeds as seed + trial index and can run in any order.

The inverse CDF is read through a guide table (Chen & Asau, 1974) that each
Population builds on its first draw and keeps: g = 2^m >= 4K buckets, and
for bucket b the first type whose cumulative probability exceeds b/g. A
uniform u starts at its bucket's entry and steps forward past every
cumulative value <= u. Because g is a power of two, u*g and b/g are exact,
so the start never passes the type a binary search over the CDF would find
and the walk stops exactly on it: the labels are the ones
np.searchsorted(cdf, u, side="right") gives, bit for bit. A draw still
short of its type after a few steps is finished by that binary search. The
table costs O(K) memory, about 40 MB at K = 10^6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coverage import SgtConfig, gt_unseen, row_set, sgt_unseen
# unused here; perfbench/spans.py patches ucs.synth_oracle.subset_spectrum
from .coverage import subset_spectrum  # noqa: F401

ORACLE_ESTIMATORS = ("sgt", "gt")  # mc_unseen_oracle's estimator names

# Guide-table buckets per type. On a 2-core Intel Xeon, 1500 draws from
# zipf(2000, 1.0) took 137, 96, 77 and 88 us at 1, 2, 4 and 8 buckets per
# type (306 us by binary search).
_BUCKETS_PER_TYPE = 4
# Forward steps a draw may take before a binary search finishes it. The
# expected number of steps is at most K/g <= 1/4 for any distribution, but
# one bucket can hold many cumulative values (a run of zero-probability
# types, a steep tail near 1), and each step is one pass of a Python loop.
_MAX_STEPS = 8


@dataclass
class Population:
    """A type distribution over labels 1..K with an optional Gaussian-mixture
    embedding model (one component per type).

    probs is normalized and read-only, so the guide table built from it on
    the first draw stays valid."""

    probs: np.ndarray
    kind: str = "explicit"
    _guide: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty vector")
        bad = np.flatnonzero(~np.isfinite(probs))
        if bad.size:
            raise ValueError(f"probs must be finite; type {bad[0] + 1} is {probs[bad[0]]}")
        if (probs < 0).any():
            raise ValueError("probs must be non-negative")
        with np.errstate(over="ignore"):
            total = probs.sum()
        if not np.isfinite(total):
            raise ValueError(f"probs sum to {total}, which is not finite")
        if total <= 0:
            raise ValueError("probs must have positive mass")
        self.probs = probs / total
        self.probs.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        # The generated __eq__ would compare the probs arrays with ==, whose
        # truth value is ambiguous.
        if not isinstance(other, Population):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self.probs, other.probs)

    @property
    def n_types(self) -> int:
        return int(self.probs.size)

    def _guide_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, ext): first[b] = np.searchsorted(cdf, b/g, side="right")
        for the g buckets, and ext = cdf followed by inf. Built on the first
        call and kept."""
        if self._guide is None:
            cdf = np.cumsum(self.probs)
            g = 1 << (_BUCKETS_PER_TYPE * cdf.size - 1).bit_length()
            # cdf[i] <= b/g exactly when ceil(cdf[i]*g) <= b, since cdf[i]*g
            # is exact: counting those edges is the searchsorted above in
            # O(K + g) rather than O(g log K).
            edges = np.minimum(np.ceil(cdf * g), g).astype(np.intp)
            first = np.cumsum(np.bincount(edges, minlength=g + 1)[:g])
            self._guide = (first, np.append(cdf, np.inf))
        return self._guide

    @classmethod
    def uniform(cls, k: int) -> "Population":
        if k < 1:
            raise ValueError(f"need at least one type, got {k}")
        return cls(probs=np.full(k, 1.0 / k), kind="uniform")

    @classmethod
    def zipf(cls, k: int, exponent: float = 1.0) -> "Population":
        if k < 1:
            raise ValueError(f"need at least one type, got {k}")
        ranks = np.arange(1, k + 1, dtype=np.float64)
        with np.errstate(over="ignore"):
            weights = ranks ** (-exponent)
            total = weights.sum()
        if not np.isfinite(total):
            raise ValueError(f"zipf exponent {exponent} overflows float64 over {k} types")
        return cls(probs=weights, kind="zipf")


def _inverse_cdf(pop: Population, u: np.ndarray) -> np.ndarray:
    """Labels 1..K for uniforms u in [0, 1): the first type whose cumulative
    probability exceeds u, clamped to K when rounding leaves cdf[-1] <= u."""
    first, ext = pop._guide_table()
    idx = first[(u * first.size).astype(np.intp)]
    pending = np.flatnonzero(ext[idx] <= u)
    for _ in range(_MAX_STEPS):
        if not pending.size:
            break
        idx[pending] += 1
        pending = pending[ext[idx[pending]] <= u[pending]]
    if pending.size:
        idx[pending] = np.searchsorted(ext, u[pending], side="right")
    return np.minimum(idx, pop.n_types - 1).astype(np.int64) + 1


def sample_labels(pop: Population, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from the type distribution, labels in 1..K.

    The draws are np.random.default_rng(seed).random(n) mapped through the
    inverse CDF by pop's guide table (see the module docstring), which gives
    the labels a binary search over np.cumsum(pop.probs) gives. The table
    is built on pop's first draw, so later calls cost O(n) expected time."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _inverse_cdf(pop, np.random.default_rng(seed).random(n))


def sample_embeddings(
    pop: Population,
    labels: np.ndarray,
    dim: int = 32,
    spread: float = 0.05,
    seed: int = 0,
) -> np.ndarray:
    """Gaussian-mixture embeddings: type means are standard normal draws,
    each example sits spread-scaled noise away from its type mean."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((pop.n_types, dim))
    lab = np.asarray(labels, dtype=np.int64)
    noise = rng.standard_normal((lab.shape[0], dim))
    return means[lab - 1] + spread * noise


def sample_pool(
    pop: Population, n: int, dim: int = 32, spread: float = 0.05, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Convenience: labels and embeddings for one synthetic pool."""
    labels = sample_labels(pop, n, seed)
    return sample_embeddings(pop, labels, dim, spread, seed), labels


def expected_new_types(pop: Population, n: int, m: int) -> float:
    """Exact expected number of types absent from n i.i.d. draws but present
    in the next m: the sum over types x of (1 - p_x)^n (1 - (1 - p_x)^m).

    Each power is exp(j * log1p(-p_x)) and 1 - (1 - p_x)^m is
    -expm1(m * log1p(-p_x)), so a rare type keeps its digits where
    1 - p_x would round them away. A power with exponent 0 is 1, also
    for a type of probability 1.
    """
    if n < 0 or m < 0:
        raise ValueError(f"n and m must be >= 0, got n={n}, m={m}")
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-pop.probs)  # -inf for a type of probability 1
    unseen = np.exp(n * log_miss) if n else np.ones_like(log_miss)
    found = -np.expm1(m * log_miss) if m else np.zeros_like(log_miss)
    return float(np.sum(unseen * found))


@dataclass
class McOracleReport:
    """Per-trial truths and estimates from the Monte Carlo oracle."""

    mean_new: float
    std_new: float
    mean_abs_estimator_error: float
    mean_estimate: float
    std_estimate: float
    trials: int
    new_counts: np.ndarray = field(repr=False)
    estimates: np.ndarray = field(repr=False)


def mc_unseen_oracle(
    pop: Population,
    n: int,
    t: float,
    trials: int,
    seed: int,
    sgt: SgtConfig | None = None,
    estimator: str = "sgt",
) -> McOracleReport:
    """Monte Carlo ground truth for the unseen-cluster estimator.

    Each trial draws n labels, runs the estimator on their spectrum, draws
    floor(t*n) more labels, and counts genuinely new types. Trial r uses
    seed + r. estimator is 'sgt' or 'gt' (the unweighted truncated sum,
    reported unclamped). Draws are i.i.d. with replacement. sgt defaults
    to SgtConfig(t=t); ValueError names both horizons if sgt.t != t.

    Labels are 1..K (K = pop.n_types), so each trial counts with bincounts
    over 0..K: the first draw's per-type counts give the spectrum, and the
    second draw's types with a zero first count are the new ones. Every
    trial has size n, so every SGT estimate reads the one weight vector
    that sgt_weights caches for k0_for(t, n) (n = 0 estimates 0).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if estimator not in ORACLE_ESTIMATORS:
        raise ValueError(f"estimator must be one of {ORACLE_ESTIMATORS}, got {estimator!r}")
    cfg = sgt if sgt is not None else SgtConfig(t=t)
    if cfg.t != t:
        raise ValueError(f"sgt.t = {cfg.t} differs from t = {t}")
    m = int(t * n)
    bins = pop.n_types + 1
    news = np.empty(trials, dtype=np.float64)
    ests = np.empty(trials, dtype=np.float64)
    for trial in range(trials):
        labels = sample_labels(pop, n + m, seed + trial)
        seen = np.bincount(labels[:n], minlength=bins)
        spec = {s: f for s, f in enumerate(np.bincount(seen)) if s and f}
        if estimator == "sgt":
            ests[trial] = sgt_unseen(spec, cfg)
        else:
            ests[trial] = gt_unseen(spec, t, cfg.bin_size)
        news[trial] = np.count_nonzero(np.bincount(labels[n:], minlength=bins)[seen == 0])
    return McOracleReport(
        mean_new=float(news.mean()),
        std_new=float(news.std()),
        mean_abs_estimator_error=float(np.abs(ests - news).mean()),
        mean_estimate=float(ests.mean()),
        std_estimate=float(ests.std()),
        trials=trials,
        new_counts=news,
        estimates=ests,
    )


@dataclass
class ClusterStats:
    size_mass: dict[int, int]  # k in 1..8 -> demonstrations in size-k clusters
    top_sizes: list[int]


def cluster_stats(labels: np.ndarray) -> ClusterStats:
    """Cluster-size exposure histogram over post-remap labels."""
    lab = np.asarray(labels, dtype=np.int64)
    # np.unique, not bincount: library labels may be negative
    sizes = np.unique(lab, return_counts=True)[1].tolist()
    mass = {k: 0 for k in range(1, 9)}
    for s in sizes:
        if 1 <= s <= 8:
            mass[s] += s
    top = sorted(sizes, reverse=True)[:8]
    return ClusterStats(size_mass=mass, top_sizes=top)


@dataclass
class ExposureReport:
    """The three per-selection exposure metrics, averaged over selections."""

    uniq_clusters: float
    mean_cluster_size: float
    mean_inv_size: float
    uniq_std: float = 0.0
    size_std: float = 0.0
    inv_std: float = 0.0
    n_selections: int = 1


def exposure_metrics(labels: np.ndarray, selections: list[list[int]]) -> ExposureReport:
    """Distinct-cluster count, mean global cluster size, and mean inverse
    size of the selected items, averaged over selections (std across them).

    Each selection s is a set of rows, checked by coverage.row_set as
    "selection s": IndexOutOfRange for an index outside [0, N), ValueError
    for one that repeats. An empty selection, whose means are undefined,
    raises ValueError.
    """
    if not selections:
        raise ValueError("need at least one selection")
    # np.unique, not bincount: every id is a cluster, negative ones too
    _, cluster, sizes = np.unique(np.asarray(labels, dtype=np.int64),
                                  return_inverse=True, return_counts=True)
    uniq, mean_size, mean_inv = [], [], []
    for s, sel in enumerate(selections):
        if len(sel) == 0:
            raise ValueError(f"selection {s} is empty")
        chosen = cluster[row_set(sel, cluster.size, f"selection {s}")]
        uniq.append(float(np.unique(chosen).size))
        member_sizes = sizes[chosen].astype(np.float64)
        mean_size.append(float(member_sizes.mean()))
        mean_inv.append(float((1.0 / member_sizes).mean()))
    uniq_a, size_a, inv_a = map(np.asarray, (uniq, mean_size, mean_inv))
    return ExposureReport(
        uniq_clusters=float(uniq_a.mean()),
        mean_cluster_size=float(size_a.mean()),
        mean_inv_size=float(inv_a.mean()),
        uniq_std=float(uniq_a.std()),
        size_std=float(size_a.std()),
        inv_std=float(inv_a.std()),
        n_selections=len(selections),
    )
