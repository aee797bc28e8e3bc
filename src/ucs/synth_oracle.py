"""Synthetic populations with known type distributions, plus the oracles
and report statistics used to validate the coverage estimator.

Sampling uses numpy's PCG64 generator (np.random.default_rng) with inverse
CDF lookups, so label streams are a pure function of the seed. Monte Carlo
trials derive their seeds as seed + trial index and can run in any order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .coverage import (
    SgtConfig,
    gt_unseen,
    sgt_unseen,
    sgt_weights,
    subset_spectrum,  # unused here; perfbench/spans.py patches ucs.synth_oracle.subset_spectrum
)


@dataclass
class Population:
    """A type distribution over labels 1..K with an optional Gaussian-mixture
    embedding model (one component per type)."""

    probs: np.ndarray
    kind: str = "explicit"

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty vector")
        if (probs < 0).any():
            raise ValueError("probs must be non-negative")
        total = probs.sum()
        if total <= 0:
            raise ValueError("probs must have positive mass")
        self.probs = probs / total
        assert abs(self.probs.sum() - 1.0) < 1e-12

    @property
    def n_types(self) -> int:
        return int(self.probs.size)

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
        return cls(probs=ranks ** (-exponent), kind="zipf")


def sample_labels(pop: Population, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from the type distribution, labels in 1..K."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(pop.probs)
    u = rng.random(n)
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, pop.n_types - 1).astype(np.int64) + 1


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


def expected_new_types_uniform(k: int, n: int, m: int) -> float:
    """Closed form for uniform populations: expected number of types absent
    from n draws but present in the next m."""
    if k <= 0:
        return 0.0
    miss = 1.0 - 1.0 / k
    return k * miss**n * (1.0 - miss**m)


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
    pool_size: int | None = None,
) -> McOracleReport:
    """Monte Carlo ground truth for the unseen-cluster estimator.

    Each trial draws n labels, runs the estimator on their spectrum, draws
    floor(t*n) more labels, and counts genuinely new types. Trial r uses
    seed + r. estimator is 'sgt' or 'gt' (the unweighted truncated sum,
    reported unclamped). pool_size switches to a sensitivity mode that
    deals both samples without replacement from one finite pool of that
    size; the default is i.i.d. with replacement.

    Labels are 1..K (K = pop.n_types) in both modes, so each trial counts
    with bincounts over 0..K: the first draw's per-type counts give the
    spectrum, and the second draw's types with a zero first count are the
    new ones. Every trial has size n, so the SGT weights are computed once
    per call (none for n = 0, whose estimates are all 0).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if estimator not in ("sgt", "gt"):
        raise ValueError(f"estimator must be 'sgt' or 'gt', got {estimator!r}")
    cfg = sgt if sgt is not None else SgtConfig(t=t)
    if cfg.t != t:
        cfg = dataclasses.replace(cfg, t=t)
    m = int(t * n)
    if pool_size is not None and pool_size < n + m:
        raise ValueError(f"pool_size {pool_size} cannot supply {n + m} distinct draws")
    weights = (sgt_weights(cfg.t, cfg.offset_alpha, n, cfg.bin_size, cfg.k0_override)
               if n else None)
    bins = pop.n_types + 1
    news = np.empty(trials, dtype=np.float64)
    ests = np.empty(trials, dtype=np.float64)
    for trial in range(trials):
        trial_seed = seed + trial
        if pool_size is None:
            labels = sample_labels(pop, n + m, trial_seed)
        else:
            pool = sample_labels(pop, pool_size, trial_seed)
            order = np.random.default_rng(trial_seed).permutation(pool_size)
            labels = pool[order[: n + m]]
        seen = np.bincount(labels[:n], minlength=bins)
        spec = {s: f for s, f in enumerate(np.bincount(seen)) if s and f}
        if estimator == "sgt":
            ests[trial] = sgt_unseen(spec, cfg, weights)
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
    sizes: dict[int, int] = {}
    for v in lab:
        sizes[int(v)] = sizes.get(int(v), 0) + 1
    mass = {k: 0 for k in range(1, 9)}
    for s in sizes.values():
        if 1 <= s <= 8:
            mass[s] += s
    top = sorted(sizes.values(), reverse=True)[:8]
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
    size of the selected items, averaged over selections (std across them)."""
    if not selections:
        raise ValueError("need at least one selection")
    lab = np.asarray(labels, dtype=np.int64)
    sizes = np.bincount(lab)
    uniq, mean_size, mean_inv = [], [], []
    for sel in selections:
        chosen = lab[list(sel)]
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
