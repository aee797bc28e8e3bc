"""Budget-B demonstration selection with optional coverage regularization.

Three base selectors are provided: greedy log-det DPP, iterative discounted
VoteK, and an argmax over externally scored candidate subsets (the stand-in
for perplexity-style subset utilities). Each has a UCS variant that adds
lambda times a coverage term; at lambda = 0 every variant reproduces its
base selector bit-exactly. Ties are always broken toward the lowest index.

Greedy DPP is the fast greedy MAP of Chen, Zhang & Zhou (NeurIPS 2018): each
step adds one incremental Cholesky row and updates every candidate's Schur
complement from it, O(N * B^2) after the N x N kernel is built. It raises
SingularKernel when a picked item's Schur complement is not > 0 (or NaN) and
another step follows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clustering import k_nearest
from .coverage import CorpusPrior, CoverageTracker, SgtConfig, coverage_phi, corpus_prior
from .errors import EmptyCandidateList, SingularKernel, TooFewPoints
from .preprocess import l2_normalize_rows

# Floor for Schur complements before taking logs; keeps degenerate candidates
# selectable (with a hugely negative gain) instead of crashing the loop.
_SC_FLOOR = 1e-300

BASE_SELECTORS = ("dpp", "votek", "subset_utility")
RARITY_VARIANTS = ("B1", "B2")

# sample_candidate_subsets draws from the max(budget, TOP_POOL) rows most
# similar to the query.
TOP_POOL = 30


@dataclass
class SelectionConfig:
    budget: int = 10
    lam: float = 0.1
    base: str = "votek"
    dpp_scale_factor: float = 0.1
    votek_k: int = 3
    votek_discount_base: float = 10.0
    sgt: SgtConfig = field(default_factory=SgtConfig)

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if self.base not in BASE_SELECTORS:
            raise ValueError(f"unknown base selector {self.base!r}")


@dataclass
class StepRecord:
    index: int
    base_gain: float
    coverage_term: float
    total: float


@dataclass
class SelectionResult:
    indices: list[int]
    records: list[StepRecord]
    phi: float
    k_seen: int
    base: str
    u_hat: float


def _finish(indices, records, labels, cfg, base) -> SelectionResult:
    if labels is not None:
        phi, k_seen, u_hat = coverage_phi(labels, indices, cfg.sgt)
    else:
        phi, k_seen, u_hat = float("nan"), 0, float("nan")
    return SelectionResult(
        indices=[int(i) for i in indices], records=records, phi=float(phi),
        k_seen=int(k_seen), base=base, u_hat=float(u_hat),
    )


# ---------------------------------------------------------------------------
# DPP


def dpp_kernel(x: np.ndarray, scale: float = 0.1) -> np.ndarray:
    """L = exp(scale * cosine-similarity) + 1e-8 I, one N x N array built in place.

    Exactly symmetric with no symmetrization pass: numpy evaluates unit @ unit.T
    as one symmetric rank-k update (BLAS syrk) that computes one triangle and
    mirrors it, so L[i, j] and L[j, i] are the same float.
    """
    unit = l2_normalize_rows(x, eps=0.0)
    kernel = unit @ unit.T
    kernel *= scale
    np.exp(kernel, out=kernel)
    kernel[np.diag_indices_from(kernel)] += 1e-8
    return kernel


def _greedy_dpp(kernel, labels, cfg: SgtConfig | None, lam, budget):
    """Greedy MAP with incremental Cholesky rows (Chen, Zhang & Zhou, 2018).

    sc holds every item's Schur complement L_ii - L_iS L_SS^-1 L_Si, the
    log-det gain of adding i to S. After a pick j, row s of chol is
    e = (L_j - chol[:s, j] @ chol[:s]) / sqrt(sc_j) and sc drops by e**2.
    Only the diagonal and the picked rows of the kernel are read.
    """
    n = kernel.shape[0]
    if kernel.shape != (n, n):
        raise ValueError(f"kernel must be square, got {kernel.shape}")
    steps = min(budget, n)
    tracker = CoverageTracker(labels, cfg) if labels is not None else None
    sc = kernel.diagonal().astype(np.float64)  # a copy, never the caller's
    chol = np.empty((steps, n))
    selected: list[int] = []
    records: list[StepRecord] = []
    alive = np.ones(n, dtype=bool)
    for s in range(steps):
        candidates = np.flatnonzero(alive)
        base_gain = np.log(np.maximum(sc[candidates], _SC_FLOOR))
        if tracker is not None:
            coverage = tracker.gains_if_added(candidates)
        else:
            coverage = np.zeros(candidates.size)
        total = base_gain + lam * coverage
        pos = int(np.argmax(total))  # first max -> lowest index on ties
        pick = int(candidates[pos])
        records.append(StepRecord(pick, float(base_gain[pos]),
                                  float(coverage[pos]), float(total[pos])))
        selected.append(pick)
        alive[pick] = False
        if tracker is not None:
            tracker.add(pick)
        if s + 1 < steps:
            if not sc[pick] > 0:  # also catches NaN
                raise SingularKernel(f"kernel submatrix of order {s + 1} is singular")
            e = (kernel[pick] - chol[:s, pick] @ chol[:s]) / math.sqrt(sc[pick])
            chol[s] = e
            sc -= e * e
    return selected, records


def greedy_dpp(kernel: np.ndarray, budget: int) -> list[int]:
    """Plain greedy MAP of a DPP: maximize log det of the selected principal
    submatrix, one item at a time.

    Incremental Cholesky, O(N * budget^2) on top of the kernel. Gains are
    floored at log(1e-300); SingularKernel is raised when a picked item's
    Schur complement is not > 0 (or NaN) and another step follows.
    """
    indices, _ = _greedy_dpp(kernel, None, None, 0.0, budget)
    return indices


def greedy_dpp_ucs(kernel: np.ndarray, labels: np.ndarray, cfg: SelectionConfig) -> SelectionResult:
    """Greedy DPP with coverage pressure: each step maximizes the log-det
    gain plus lambda * (Phi(S+i) - Phi(S)), spectrum updated incrementally."""
    indices, records = _greedy_dpp(kernel, labels, cfg.sgt, cfg.lam, cfg.budget)
    return _finish(indices, records, labels, cfg, "dpp")


# ---------------------------------------------------------------------------
# VoteK


def _knn_graph(x: np.ndarray, k: int) -> np.ndarray:
    """Indices of each row's k nearest neighbors by cosine distance, self
    excluded, distance ties broken by index: the first k columns of a stable
    argsort of each row of cosine_distance_matrix(x) with the diagonal left
    out, found by clustering.k_nearest without the whole matrix.
    """
    arr = np.asarray(x, dtype=np.float64)
    n = arr.shape[0]
    if not 1 <= k < n:
        raise TooFewPoints(f"votek_k={k} requires at least k+1={k + 1} points, got {n}")
    return k_nearest(l2_normalize_rows(arr, eps=0.0), k)[0]


def _votes_from_graph(neighbors: np.ndarray, selected: list[int],
                      discount_base: float, n: int) -> np.ndarray:
    k = neighbors.shape[1]
    if selected:
        chosen = np.zeros(n, dtype=bool)
        chosen[selected] = True
        overlap = chosen[neighbors].sum(axis=1).astype(np.float64)
        voter_weight = discount_base ** (-overlap)
    else:
        voter_weight = np.ones(n, dtype=np.float64)
    return np.bincount(
        neighbors.ravel(), weights=np.repeat(voter_weight, k), minlength=n
    )


def votek_votes(x: np.ndarray, k: int, selected, discount_base: float = 10.0) -> np.ndarray:
    """Discounted vote scores: j votes for its k nearest neighbors with
    weight discount_base^-(selected among j's neighbors)."""
    neighbors = _knn_graph(x, k)
    return _votes_from_graph(neighbors, list(selected), discount_base, x.shape[0])


def _iterative_votes(x, labels, cfg: SelectionConfig, bonus: np.ndarray,
                     base_tag: str) -> SelectionResult:
    n = np.asarray(x).shape[0]
    neighbors = _knn_graph(x, cfg.votek_k)
    steps = min(cfg.budget, n)
    selected: list[int] = []
    records: list[StepRecord] = []
    alive = np.ones(n, dtype=bool)
    for _ in range(steps):
        votes = _votes_from_graph(neighbors, selected, cfg.votek_discount_base, n)
        total = votes + cfg.lam * bonus
        masked = np.where(alive, total, -np.inf)
        pick = int(np.argmax(masked))
        records.append(StepRecord(pick, float(votes[pick]), float(bonus[pick]),
                                  float(total[pick])))
        selected.append(pick)
        alive[pick] = False
    return _finish(selected, records, labels, cfg, base_tag)


def votek_select(x: np.ndarray, budget: int, k: int = 3,
                 discount_base: float = 10.0) -> list[int]:
    """Plain iterative VoteK: repeatedly take the highest-vote point,
    recomputing votes as selections accumulate."""
    cfg = SelectionConfig(budget=budget, lam=0.0, base="votek", votek_k=k,
                          votek_discount_base=discount_base)
    n = np.asarray(x).shape[0]
    result = _iterative_votes(x, None, cfg, np.zeros(n), "votek")
    return result.indices


def _per_cluster(labels: np.ndarray, bonus) -> np.ndarray:
    """bonus(cluster id) for every row, evaluated once per distinct id."""
    distinct, inverse = np.unique(labels, return_inverse=True)
    return np.array([bonus(int(c)) for c in distinct], dtype=np.float64)[inverse]


def votek_ucs_select(
    x: np.ndarray,
    labels: np.ndarray,
    prior: CorpusPrior,
    cfg: SelectionConfig,
) -> SelectionResult:
    """VoteK with rarity pressure: score(i) = v(i) + lambda * log w_c(i).

    The prior must cover every non-noise cluster id in labels.
    """
    def log_weight(cluster: int) -> float:
        if cluster == cfg.sgt.noise_label:
            return 0.0  # noise carries no coverage pressure
        if cluster not in prior.weights:
            raise ValueError(f"prior has no weight for cluster {cluster}")
        return prior.log_weight(cluster)

    bonus = _per_cluster(labels, log_weight)
    return _iterative_votes(x, labels, cfg, bonus, "votek")


def rarity_controls(
    x: np.ndarray,
    labels: np.ndarray,
    cfg: SelectionConfig,
    variant: str,
) -> SelectionResult:
    """Rarity-only VoteK controls on corpus_prior's default prior.

    B1 adds lambda / n_c(i) (inverse global cluster size). B2 adds
    lambda * log(C_total / (g_hat(n_c(i)) + eps)) from the smoothed corpus
    spectrum, skipping the Good-Turing ratio entirely.
    """
    if variant not in RARITY_VARIANTS:
        raise ValueError(f"variant must be one of {RARITY_VARIANTS}, got {variant!r}")
    prior = corpus_prior(labels, noise_label=cfg.sgt.noise_label)
    c_total = len(prior.sizes)

    def rarity(cluster: int) -> float:
        size = prior.sizes.get(cluster)
        if size is None:
            return 0.0  # noise
        if variant == "B1":
            return 1.0 / size
        return math.log(c_total / (prior.smoothed.get(size, 0.0) + prior.eps))

    bonus = _per_cluster(labels, rarity)
    return _iterative_votes(x, labels, cfg, bonus, f"votek_{variant}")


# ---------------------------------------------------------------------------
# Subset utilities (MDL stand-in)


def _utility_scores(candidates: list[list[int]], utilities) -> np.ndarray:
    """The utilities as float64, one per candidate subset."""
    if not candidates:
        raise EmptyCandidateList("no candidate subsets supplied")
    scores = np.asarray(utilities, dtype=np.float64)
    if scores.shape[0] != len(candidates):
        raise ValueError(
            f"{len(candidates)} candidates but {scores.shape[0]} utilities"
        )
    return scores


def best_subset(candidates: list[list[int]], utilities) -> int:
    """Position of the highest-utility candidate; first wins ties."""
    return int(np.argmax(_utility_scores(candidates, utilities)))


def subset_utility_ucs(
    candidates: list[list[int]],
    utilities,
    labels: np.ndarray,
    cfg: SelectionConfig,
) -> SelectionResult:
    """Pick argmax over candidate subsets of utility(S) + lambda * Phi(S).

    Every candidate must have exactly cfg.budget members.
    """
    scores = _utility_scores(candidates, utilities)
    for pos, subset in enumerate(candidates):
        if len(subset) != cfg.budget:
            raise ValueError(
                f"candidate {pos} has {len(subset)} members, budget is {cfg.budget}"
            )
    phis = np.array(
        [coverage_phi(labels, subset, cfg.sgt)[0] for subset in candidates]
    )
    totals = scores + cfg.lam * phis
    winner = int(np.argmax(totals))
    record = StepRecord(winner, float(scores[winner]), float(phis[winner]),
                        float(totals[winner]))
    return _finish(list(candidates[winner]), [record], labels, cfg, "subset_utility")


def redundancy_utility(x: np.ndarray, candidates: list[list[int]]) -> np.ndarray:
    """Synthetic offline utility: negative mean pairwise cosine similarity
    inside each subset (0 for singletons)."""
    unit = l2_normalize_rows(x, eps=0.0)
    out = np.empty(len(candidates), dtype=np.float64)
    for pos, subset in enumerate(candidates):
        rows = unit[list(subset)]
        m = len(subset)
        if m < 2:
            out[pos] = 0.0
            continue
        sim = rows @ rows.T
        off_sum = float(sim.sum() - np.trace(sim))
        out[pos] = -off_sum / (m * (m - 1))
    return out


def sample_candidate_subsets(
    x: np.ndarray,
    query: np.ndarray,
    budget: int,
    candidate_num: int,
    seed: int,
) -> list[list[int]]:
    """Seeded top-similarity proposals: rank the pool by cosine similarity to
    `query`, keep the top max(budget, TOP_POOL) rows, and draw candidate_num
    budget-sized subsets from them without replacement (within a subset)."""
    arr = np.asarray(x, dtype=np.float64)
    n = arr.shape[0]
    if budget > n:
        raise ValueError(f"budget {budget} exceeds pool size {n}")
    q = np.asarray(query, dtype=np.float64).ravel()
    norms = np.linalg.norm(arr, axis=1)
    qn = np.linalg.norm(q)
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.where((norms > 0) & (qn > 0), arr @ q / (norms * qn + 1e-300), 0.0)
    order = np.lexsort((np.arange(n), -sims))
    pool = order[: max(budget, min(TOP_POOL, n))]
    rng = np.random.default_rng(seed)
    return [
        [int(j) for j in rng.choice(pool, size=budget, replace=False)]
        for _ in range(candidate_num)
    ]
