"""Budget-B demonstration selection with optional coverage regularization.

Three base selectors are provided: greedy log-det DPP, iterative discounted
VoteK, and an argmax over externally scored candidate subsets (the stand-in
for perplexity-style subset utilities). Each has a UCS variant that adds
lambda times a coverage term; at lambda = 0 every variant reproduces its
base selector bit-exactly. The rarity-only controls B1 and B2 are VoteK
with another per-cluster bonus (_rarity_bonus). BASE_SELECTORS names all
five, SelectionConfig.base picks one of them, and select runs it: select is
the one place that reads that field, and the building blocks it calls
(greedy_dpp_ucs, votek_ucs_select, subset_utility_ucs) ignore it.
Every selector picks by one rule, written once in _pick: the first argmax
of base + lambda * coverage over the unpicked rows (candidate subsets for
subset_utility), so ties go to the lowest index.

Greedy DPP is the fast greedy MAP of Chen, Zhang & Zhou (NeurIPS 2018): each
step adds one incremental Cholesky row and updates every candidate's Schur
complement from it, O(N * B^2), and reads only the kernel's diagonal and the
B picked rows. It raises SingularKernel when a picked item's Schur
complement is not > 0 (or NaN) and another step follows. dpp_kernel returns
a DppKernel, which holds the unit rows zero-padded to a multiple of 64 and
the diagonal, and computes a row, from the product of the 64-row block that
holds it, only when it is read: a selection costs O(N * d * 64) per pick and
holds no N x N array. np.asarray(kernel) materializes the N x N kernel,
exactly symmetric and with bytes independent of the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import k_nearest
from .coverage import (PRIOR_EPS, CorpusPrior, CoverageTracker, SgtConfig, corpus_prior,
                       coverage_phi, row_set)
from .errors import EmptyCandidateList, SingularKernel
from .preprocess import l2_normalize_rows

# Floor for Schur complements before taking logs; keeps degenerate candidates
# selectable (with a hugely negative gain) instead of crashing the loop.
_SC_FLOOR = 1e-300

RARITY_VARIANTS = ("B1", "B2")  # the rarity-only controls
BASE_SELECTORS = ("dpp", "votek", "subset_utility", *RARITY_VARIANTS)

# A voter j weighs VOTEK_DISCOUNT_BASE ** -(picked rows among j's neighbours).
VOTEK_DISCOUNT_BASE = 10.0

# dpp_kernel pads its rows to a multiple of _BLAS_BLOCK, and DppKernel
# computes its entries _BLAS_BLOCK rows at a time; np.asarray of a DppKernel
# takes them _ARRAY_COLS columns at a time, a multiple of _BLAS_BLOCK.
_BLAS_BLOCK = 64
_ARRAY_COLS = 512

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
    sgt: SgtConfig = field(default_factory=SgtConfig)

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.base not in BASE_SELECTORS:
            raise ValueError(f"unknown base selector {self.base!r}")
        scale = self.dpp_scale_factor
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"dpp_scale_factor must be finite and > 0, got {scale}")
        if self.votek_k < 1:
            raise ValueError(f"votek_k must be >= 1, got {self.votek_k}")


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
    u_hat: float


def _pick(base_gain: np.ndarray, coverage: np.ndarray, lam: float,
          alive: np.ndarray) -> StepRecord:
    """The one pick rule: the first argmax of base_gain + lam * coverage over
    the rows still alive, so ties go to the lowest index. Marks the row
    picked (alive[row] = False) and returns its record."""
    total = base_gain + lam * coverage
    candidates = np.flatnonzero(alive)
    pick = int(candidates[np.argmax(total[candidates])])
    alive[pick] = False
    return StepRecord(pick, float(base_gain[pick]), float(coverage[pick]),
                      float(total[pick]))


def _check_labels(labels, n: int) -> None:
    """Refuse a label vector without one entry per pool row."""
    if len(labels) != n:
        raise ValueError(f"labels has {len(labels)} entries for a pool of {n} rows")


def _finish(records: list[StepRecord], labels, cfg) -> SelectionResult:
    indices = [r.index for r in records]
    phi, k_seen, u_hat = coverage_phi(labels, indices, cfg.sgt)
    return SelectionResult(indices=indices, records=records, phi=float(phi),
                           k_seen=int(k_seen), u_hat=float(u_hat))


# ---------------------------------------------------------------------------
# DPP


@dataclass(frozen=True, eq=False)
class DppKernel:
    """The DPP kernel L of dpp_kernel, each entry computed when it is read.

    padded is U_p, the unit rows zero-padded to a multiple of _BLAS_BLOCK
    rows; diag is L's diagonal, one entry per row. Every other entry comes
    from one block product, exp(scale * U_p[b:b+64] @ U_p.T)[:, :N] over the
    aligned _BLAS_BLOCK-row block that holds the row. kernel[j] forms its
    block's product and exponentiates row j alone. np.asarray(kernel) runs
    the products block by block into one N x N array, _ARRAY_COLS columns
    of U_p at a time, so that besides the result and U_p it holds one
    64 x 512 product; the entries have the same bits either way (pinned by
    tests). Both put diag on the diagonal, so replace(kernel, diag=...) sets
    it everywhere. _greedy_dpp reads only shape, diagonal() and kernel[j],
    as it does of an ndarray. padded and diag are read-only views.
    """

    padded: np.ndarray
    scale: float
    diag: np.ndarray

    def __post_init__(self) -> None:
        for name in ("padded", "diag"):
            view = np.asarray(getattr(self, name)).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)
        n = len(self.diag)
        if self.padded.ndim != 2 or len(self.padded) != n + -n % _BLAS_BLOCK:
            raise ValueError(f"padded has shape {self.padded.shape}: a diagonal of {n} "
                             f"needs {n + -n % _BLAS_BLOCK} rows")

    @staticmethod
    def _entries(products: np.ndarray, scale: float, out=None) -> np.ndarray:
        """exp(scale * products), into out when it is given: the one place
        kernel entries are made."""
        entries = np.multiply(products, scale, out=out)
        return np.exp(entries, out=entries)

    def _product(self, start: int, cols: slice = slice(None)) -> np.ndarray:
        """U_p[start:start+64] @ U_p[cols].T, start and the bounds of cols
        multiples of _BLAS_BLOCK."""
        return self.padded[start:start + _BLAS_BLOCK] @ self.padded[cols].T

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.diag), len(self.diag))

    def diagonal(self) -> np.ndarray:
        return self.diag

    def __getitem__(self, j) -> np.ndarray:
        n = len(self.diag)
        if isinstance(j, bool) or not isinstance(j, (int, np.integer)):
            raise TypeError(f"a DppKernel is indexed by one int row, got {j!r}")
        if not 0 <= j < n:
            raise IndexError(f"row {j} is outside the kernel's {n} rows")
        start = j - j % _BLAS_BLOCK
        # only row j: at N = 4000 the whole block's exp took 1.7 ms, its product 0.5
        row = self._entries(self._product(start)[j - start, :n], self.scale)
        row[j] = self.diag[j]
        return row

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        n = len(self.diag)
        out = np.empty((n, n))
        for start in range(0, n, _BLAS_BLOCK):
            rows = out[start:start + _BLAS_BLOCK]
            for col in range(0, n, _ARRAY_COLS):
                products = self._product(start, slice(col, col + _ARRAY_COLS))
                self._entries(products[:len(rows), :n - col], self.scale,
                              out=rows[:, col:col + _ARRAY_COLS])
        np.fill_diagonal(out, self.diag)
        return out if dtype is None else out.astype(dtype, copy=False)


def dpp_kernel(x: np.ndarray, scale: float = 0.1) -> DppKernel:
    """L = exp(scale * cosine-similarity) + 1e-8 I over the N rows of x, as
    a DppKernel that computes a row when it is read.

    L is exp(scale * U_p U_p^T)[:N, :N] + 1e-8 I, where U_p is the unit rows
    zero-padded to a multiple of _BLAS_BLOCK rows. Its diagonal comes from
    the N / 64 diagonal 64 x 64 block products, so building it costs
    O(N * d * 64) and holds U_p and the diagonal; np.asarray(L) is the N x N
    array. With every BLAS dimension but the feature count a multiple of
    _BLAS_BLOCK, each entry came out as the same float whatever block or
    thread computed it, in every case tested: L[i, j] and L[j, i] are equal
    with no mirror pass, and the bytes of np.asarray(L) were equal at 1, 2
    and 4 OpenBLAS threads. The unpadded unit @ unit.T, a syrk that numpy
    mirrors, gave 1-ulp different entries at 1 and 2 threads at N = 511,
    999 or 1003, and a row's own product U_p @ u_j (a gemv) differed from
    the block's row in every row tried.
    """
    n = len(x)
    padded = np.pad(l2_normalize_rows(x, eps=0.0), ((0, -n % _BLAS_BLOCK), (0, 0)))
    gram = np.empty(len(padded))
    for start in range(0, len(padded), _BLAS_BLOCK):
        block = padded[start:start + _BLAS_BLOCK]
        gram[start:start + _BLAS_BLOCK] = (block @ block.T).diagonal()
    return DppKernel(padded, scale, DppKernel._entries(gram[:n], scale) + 1e-8)


def _greedy_dpp(kernel, labels, cfg: SgtConfig, lam, budget) -> list[StepRecord]:
    """Greedy MAP with incremental Cholesky rows (Chen, Zhang & Zhou, 2018).

    sc holds every item's Schur complement L_ii - L_iS L_SS^-1 L_Si, the
    log-det gain of adding i to S. After a pick j, row s of chol is
    e = (L_j - chol[:s, j] @ chol[:s]) / sqrt(sc_j) and sc drops by e**2.
    Only the diagonal and the picked rows of the kernel are read.
    """
    n = kernel.shape[0]
    if kernel.shape != (n, n):
        raise ValueError(f"kernel must be square, got {kernel.shape}")
    _check_labels(labels, n)
    steps = min(budget, n)
    tracker = CoverageTracker(labels, cfg)
    everyone = np.arange(n)
    sc = kernel.diagonal().astype(np.float64)  # a copy, never the caller's
    chol = np.empty((steps, n))
    records: list[StepRecord] = []
    alive = np.ones(n, dtype=bool)
    for s in range(steps):
        records.append(_pick(np.log(np.maximum(sc, _SC_FLOOR)),
                             tracker.gains_if_added(everyone), lam, alive))
        pick = records[-1].index
        tracker.add(pick)
        if s + 1 < steps:
            if not sc[pick] > 0:  # also catches NaN
                raise SingularKernel(f"kernel submatrix of order {s + 1} is singular")
            e = (kernel[pick] - chol[:s, pick] @ chol[:s]) / math.sqrt(sc[pick])
            chol[s] = e
            sc -= e * e
    return records


def greedy_dpp(kernel: np.ndarray | DppKernel, budget: int) -> list[int]:
    """Plain greedy MAP of a DPP: maximize log det of the selected principal
    submatrix, one item at a time.

    kernel is a square ndarray or a DppKernel; only its diagonal and the
    picked rows are read. Incremental Cholesky, O(N * budget^2) on top of
    the rows read. Gains are
    floored at log(1e-300); SingularKernel is raised when a picked item's
    Schur complement is not > 0 (or NaN) and another step follows.
    """
    # lambda = 0 over one cluster: the coverage term is finite, so it adds
    # exactly 0 to every log-det gain.
    one_cluster = np.zeros(kernel.shape[0], dtype=np.int64)
    records = _greedy_dpp(kernel, one_cluster, SgtConfig(), 0.0, budget)
    return [r.index for r in records]


def greedy_dpp_ucs(kernel: np.ndarray | DppKernel, labels: np.ndarray,
                   cfg: SelectionConfig) -> SelectionResult:
    """Greedy DPP with coverage pressure: each step maximizes the log-det
    gain plus lambda * (Phi(S+i) - Phi(S)), spectrum updated incrementally.
    Ignores the config's base field; select reads it and calls this for dpp."""
    records = _greedy_dpp(kernel, labels, cfg.sgt, cfg.lam, cfg.budget)
    return _finish(records, labels, cfg)


# ---------------------------------------------------------------------------
# VoteK


def _knn_graph(x: np.ndarray, k: int) -> np.ndarray:
    """Indices of each row's k nearest neighbors by cosine distance, self
    excluded, distance ties broken by index: the first k columns of a stable
    argsort of each row of cosine_distance_matrix(x) with the diagonal left
    out, found by clustering.k_nearest without the whole matrix.
    """
    return k_nearest(l2_normalize_rows(x, eps=0.0), k)[0]


def _check_discount_base(discount_base: float) -> None:
    if not (math.isfinite(discount_base) and discount_base >= 1):  # 1: votes undiscounted
        raise ValueError(f"discount_base must be finite and >= 1, got {discount_base}")


def _votes_from_graph(neighbors: np.ndarray, chosen: np.ndarray,
                      discount_base: float) -> np.ndarray:
    """Votes of every row given the boolean mask of rows chosen so far; with
    none chosen every voter weighs discount_base ** -0.0 == 1.0."""
    overlap = chosen[neighbors].sum(axis=1).astype(np.float64)
    voter_weight = np.repeat(discount_base ** (-overlap), neighbors.shape[1])
    return np.bincount(neighbors.ravel(), weights=voter_weight, minlength=chosen.size)


def votek_votes(x: np.ndarray, k: int, selected,
                discount_base: float = VOTEK_DISCOUNT_BASE) -> np.ndarray:
    """Discounted vote scores: j votes for its k nearest neighbors with
    weight discount_base^-(selected among j's neighbors).

    selected is a set of rows, checked by coverage.row_set: IndexOutOfRange
    for an index outside the pool, ValueError for one that repeats. A
    discount base that is nan, infinite or below 1 raises ValueError.
    """
    _check_discount_base(discount_base)
    neighbors = _knn_graph(x, k)
    chosen = np.zeros(len(neighbors), dtype=bool)
    chosen[row_set(selected, chosen.size, "selected")] = True
    return _votes_from_graph(neighbors, chosen, discount_base)


def _iterative_votes(x, cfg: SelectionConfig, bonus: np.ndarray,
                     discount_base: float = VOTEK_DISCOUNT_BASE) -> list[StepRecord]:
    neighbors = _knn_graph(x, cfg.votek_k)
    alive = np.ones(neighbors.shape[0], dtype=bool)
    return [
        _pick(_votes_from_graph(neighbors, ~alive, discount_base), bonus, cfg.lam, alive)
        for _ in range(min(cfg.budget, alive.size))
    ]


def votek_select(x: np.ndarray, budget: int, k: int = 3,
                 discount_base: float = VOTEK_DISCOUNT_BASE) -> list[int]:
    """Plain iterative VoteK: repeatedly take the highest-vote point,
    recomputing votes as selections accumulate. A discount base that is
    nan, infinite or below 1 raises ValueError, whatever the budget."""
    _check_discount_base(discount_base)
    cfg = SelectionConfig(budget=budget, lam=0.0, base="votek", votek_k=k)
    return [r.index for r in _iterative_votes(x, cfg, np.zeros(len(x)), discount_base)]


def _rarity_bonus(labels: np.ndarray, prior: CorpusPrior, base: str) -> np.ndarray:
    """Every row's rarity bonus under the rule of base, one of votek, B1 and
    B2, evaluated once per distinct cluster id c: log w_c, the prior's
    weight, for votek; 1 / n_c for B1; log(C_total / (g_hat(n_c) +
    PRIOR_EPS)), g_hat the smoothed corpus spectrum, for B2. Raises
    ValueError for a cluster the prior has no weight for."""
    distinct, inverse = np.unique(labels, return_inverse=True)
    c_total = len(prior.sizes)
    bonus = np.empty(distinct.size)
    for pos, c in enumerate(map(int, distinct)):
        if c not in prior.weights:
            raise ValueError(f"prior has no weight for cluster {c}")
        if base == "votek":
            bonus[pos] = math.log(prior.weights[c])
        elif base == "B1":
            bonus[pos] = 1.0 / prior.sizes[c]
        else:
            size = prior.sizes[c]
            bonus[pos] = math.log(c_total / (prior.smoothed.get(size, 0.0) + PRIOR_EPS))
    return bonus[inverse]


def votek_ucs_select(
    x: np.ndarray,
    labels: np.ndarray,
    prior: CorpusPrior,
    cfg: SelectionConfig,
) -> SelectionResult:
    """VoteK with rarity pressure: score(i) = v(i) + lambda * log w_c(i).

    The prior must cover every cluster id in labels. Ignores the config's
    base field; select reads it and calls this for votek.
    """
    _check_labels(labels, len(x))
    bonus = _rarity_bonus(labels, prior, "votek")
    return _finish(_iterative_votes(x, cfg, bonus), labels, cfg)


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

    Every candidate must have exactly cfg.budget members. Each member of the
    winning subset gets one record holding the subset's scores. Ignores the
    config's base field; select reads it and calls this for subset_utility.
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
    won = _pick(scores, phis, cfg.lam, np.ones(len(candidates), dtype=bool))
    records = [replace(won, index=int(i)) for i in candidates[won.index]]
    return _finish(records, labels, cfg)


def redundancy_utility(x: np.ndarray, candidates: list[list[int]]) -> np.ndarray:
    """Synthetic offline utility: negative mean pairwise cosine similarity
    inside each subset (0 for singletons). Candidate c is a set of rows,
    checked by coverage.row_set as "candidate c"."""
    unit = l2_normalize_rows(x, eps=0.0)
    out = np.empty(len(candidates), dtype=np.float64)
    for pos, subset in enumerate(candidates):
        rows = unit[row_set(subset, unit.shape[0], f"candidate {pos}")]
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
    budget-sized subsets from them without replacement (within a subset).
    Similarity is unit row @ unit query (l2_normalize_rows): a zero row or
    query gives 0, ties keep index order, and nan or inf raises ValueError.
    A negative budget or candidate_num, a budget above the pool size and a
    query whose length is not the pool's width raise ValueError."""
    arr = np.asarray(x, dtype=np.float64)
    n = arr.shape[0]
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if budget > n:
        raise ValueError(f"budget {budget} exceeds pool size {n}")
    if candidate_num < 0:
        raise ValueError(f"candidate_num must be >= 0, got {candidate_num}")
    q = np.asarray(query, dtype=np.float64).ravel()
    if q.size != arr.shape[1]:
        raise ValueError(f"query has {q.size} entries for a pool of width {arr.shape[1]}")
    sims = l2_normalize_rows(arr, eps=0.0) @ l2_normalize_rows(q[None], eps=0.0)[0]
    order = np.argsort(-sims, kind="stable")
    pool = order[: max(budget, min(TOP_POOL, n))]
    rng = np.random.default_rng(seed)
    return [
        [int(j) for j in rng.choice(pool, size=budget, replace=False)]
        for _ in range(candidate_num)
    ]


# ---------------------------------------------------------------------------
# The one selection call

# A subset_utility query whose norm is at most this fraction of the median
# row norm points nowhere above rounding: the mean of N unit rows carries an
# absolute error up to about N 2^-53, 1e-9 at N = 10^7.
QUERY_MIN_FRACTION = 1e-8


def _subset_utility_query(x: np.ndarray, query_row: int | None) -> np.ndarray:
    """subset_utility's query: pool row query_row, or by default the mean of
    the unit rows (the mean of a centred pool's rows is rounding noise).
    Raises ValueError for a row outside the pool, and when the query's norm
    is at most QUERY_MIN_FRACTION of the median norm of the rows it is drawn
    from."""
    if query_row is not None and not 0 <= query_row < len(x):
        raise ValueError(f"query row {query_row} is outside the pool's {len(x)} rows")
    rows = x if query_row is not None else l2_normalize_rows(x, eps=0.0)
    query = rows[query_row] if query_row is not None else rows.mean(axis=0)
    norm = float(np.linalg.norm(query))
    median = float(np.median(np.linalg.norm(rows, axis=1)))
    if not norm > QUERY_MIN_FRACTION * median:
        what = (f"row {query_row}" if query_row is not None
                else "the mean of the unit rows")
        raise ValueError(
            f"subset_utility query {what} has norm {norm:.3g}, at most "
            f"{QUERY_MIN_FRACTION:g} of the median row norm {median:.3g}; "
            "it has no direction to rank the pool by"
        )
    return query


def select(
    x: np.ndarray,
    labels: np.ndarray,
    cfg: SelectionConfig,
    *,
    seed: int = 0,
    candidate_num: int = 50,
    query_row: int | None = None,
) -> SelectionResult:
    """Select cfg.budget rows of x with the selector cfg.base names; the one
    place that reads cfg.base.

    dpp: greedy_dpp_ucs on dpp_kernel(x, cfg.dpp_scale_factor), its diagonal
    set to the value unit (or zero) rows have in exact arithmetic. votek:
    votek_ucs_select with corpus_prior(labels). B1, B2: VoteK plus lambda
    times the base's _rarity_bonus from corpus_prior(labels). subset_utility: subset_utility_ucs over candidate_num
    subsets drawn with seed by sample_candidate_subsets around pool row
    query_row (default: the mean of the unit rows), scored by
    redundancy_utility. Only subset_utility reads seed, candidate_num and
    query_row.

    Raises ValueError unless labels has one entry per row of x and the
    budget is at most the number of rows, and for a query_row that another
    base would ignore.
    """
    n = len(x)
    _check_labels(labels, n)
    if cfg.budget > n:
        raise ValueError(f"budget {cfg.budget} exceeds pool size {n}")
    if query_row is not None and cfg.base != "subset_utility":
        raise ValueError(f"query_row applies only to subset_utility; {cfg.base} would ignore it")
    if cfg.base == "dpp":
        scale = cfg.dpp_scale_factor
        # the diagonal of unit (or zero) rows in exact arithmetic: rounding
        # gives |u_i|^2 two values, which would decide the first pick's tie
        exact = np.where(np.any(x, axis=1), math.exp(scale), 1.0) + 1e-8
        return greedy_dpp_ucs(replace(dpp_kernel(x, scale=scale), diag=exact), labels, cfg)
    if cfg.base == "votek":
        return votek_ucs_select(x, labels, corpus_prior(labels), cfg)
    if cfg.base in RARITY_VARIANTS:
        bonus = _rarity_bonus(labels, corpus_prior(labels), cfg.base)
        return _finish(_iterative_votes(x, cfg, bonus), labels, cfg)
    if cfg.base != "subset_utility":
        raise ValueError(f"unknown base selector {cfg.base!r}")
    query = _subset_utility_query(x, query_row)
    candidates = sample_candidate_subsets(x, query, cfg.budget, candidate_num, seed)
    utilities = redundancy_utility(x, candidates)
    return subset_utility_ucs(candidates, utilities, labels, cfg)
