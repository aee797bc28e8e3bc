"""Frequency spectra and smoothed Good-Turing coverage estimates.

For a subset S with cluster multiplicities n_u, the spectrum f_s counts how
many clusters appear exactly s times. The truncated Good-Turing estimate of
types still unseen after t|S| more draws is

    U_gt = - sum_{s=1}^{M} (-t)^s f_s

which explodes for t > 1; the smoothed variant damps each term by
w_s = P(L >= s) with L ~ Binomial(k0, alpha/(t+alpha)) and clamps at zero.
Coverage of S is then Phi(S) = K_seen(S) + U_sgt(S). Natural logarithms are
used wherever logs appear.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange


@dataclass
class SubsetSpectrum:
    """Cluster multiplicities and their frequency-of-frequencies for a subset."""

    counts: dict[int, int]  # cluster id -> multiplicity in S
    spectrum: dict[int, int]  # s -> f_s
    size: int  # members counted

    @property
    def k_seen(self) -> int:
        return len(self.counts)


@dataclass
class SgtConfig:
    """Knobs of the smoothed estimator.

    t is the expansion factor (estimate new types among floor(t*|S|) further
    draws), bin_size the truncation M, offset_alpha the damping offset in
    [1, 2]. The binomial size parameter is always k0_for(t, |S|). The
    estimator's largest power of t is t**bin_size, so a t for which that is
    not a finite float64 (t nan or infinite too) is refused.
    """

    t: float = 5.0
    bin_size: int = 20
    offset_alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.t <= 0:
            raise ValueError(f"t must be > 0, got {self.t}")
        if self.bin_size < 1:
            raise ValueError(f"bin_size must be >= 1, got {self.bin_size}")
        try:
            top = float(self.t) ** self.bin_size
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise ValueError(f"t = {self.t} with bin_size = {self.bin_size}: t**bin_size "
                             "is not a finite float64, so the estimate cannot be evaluated")
        if not 1.0 <= self.offset_alpha <= 2.0:
            raise ValueError(f"offset_alpha must be in [1, 2], got {self.offset_alpha}")


def row_set(indices, n: int, what: str) -> np.ndarray:
    """The rows `indices` names in a pool of n rows, as int64 in their order.

    A set of rows names each row at most once. The first bad position raises
    IndexOutOfRange (a ValueError too) for an index outside [0, n) or
    ValueError for a repeat; the message starts with `what` and names the
    index, its position(s) and n."""
    values = list(indices)
    try:
        rows = np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:  # beyond int64, so outside any pool: refused below
        rows = np.array([int(v) for v in values], dtype=object)
    uniq, first = np.unique(rows, return_index=True)
    bad = np.ones(rows.size, dtype=bool)
    bad[first] = False  # every later occurrence of a row is a repeat
    bad |= (rows < 0) | (rows >= n)
    if bad.any():
        pos = int(np.argmax(bad))
        i = int(rows[pos])
        if not 0 <= i < n:
            raise IndexOutOfRange(f"{what} index {i} outside pool of {n} rows (position {pos})")
        was = int(first[np.searchsorted(uniq, i)])
        raise ValueError(f"{what} index {i} repeats at positions {was} and {pos} "
                         f"(pool of {n} rows)")
    return rows


def subset_spectrum(labels: np.ndarray, subset) -> SubsetSpectrum:
    """Count cluster multiplicities over `subset`, a set of row indices into
    labels (checked by row_set). Every label is a cluster id."""
    lab = np.asarray(labels)
    rows = row_set(subset, lab.shape[0], "subset")
    counts = _counts_in_first_order(lab[rows].astype(np.int64))
    spectrum = _counts_in_first_order(np.fromiter(counts.values(), dtype=np.int64))
    return SubsetSpectrum(counts=counts, spectrum=spectrum, size=int(rows.size))


def _counts_in_first_order(values: np.ndarray) -> dict[int, int]:
    """{value: count} over `values`, keyed in order of first appearance."""
    uniq, first, count = np.unique(values, return_index=True, return_counts=True)
    order = np.argsort(first)
    return dict(zip(uniq[order].tolist(), count[order].tolist()))


def _bins(spectrum):
    """The s -> f_s mapping of a SubsetSpectrum, or the mapping itself;
    never a copy."""
    return spectrum.spectrum if isinstance(spectrum, SubsetSpectrum) else spectrum


def _truncated_sum(freq: dict, t: float, bin_size: int, weights=None) -> float:
    """-sum_{s=1}^{bin_size} (-t)^s w_s f_s over the nonzero terms (w_s = 1
    without weights)."""
    total = 0.0
    for s in range(1, bin_size + 1):
        f = freq.get(s, 0.0)
        if not f:
            continue
        w = 1.0 if weights is None else weights[s - 1]
        if w:
            total -= (-t) ** s * w * f
    return total


def gt_unseen(spectrum, t: float, bin_size: int = 20) -> float:
    """Unweighted truncated Good-Turing estimate; may be negative."""
    return float(_truncated_sum(_bins(spectrum), float(t), bin_size))


def k0_for(t: float, sample_size: int) -> int:
    """Binomial size parameter of the damping weights,
    ceil(0.5 * log2(|S| * t^2 / (t+1))) clamped at 0."""
    x = sample_size * t * t / (t + 1.0)
    if x <= 0:
        return 0
    if math.isinf(x):  # t * t overflowed: the same log2 from the factors
        return max(0, math.ceil(0.5 * (math.log2(sample_size) + 2.0 * math.log2(t)
                                       - math.log2(t + 1.0))))
    return max(0, math.ceil(0.5 * math.log2(x)))


@functools.lru_cache(maxsize=1024)
def sgt_weights(t: float, offset_alpha: float, k0: int, bin_size: int = 20) -> np.ndarray:
    """Damping weights w_s = P(L >= s), L ~ Binomial(k0, alpha/(t+alpha)).

    Tails are accumulated in log space so large k0 stay stable. Weights are
    non-increasing in s; k0 = 0 gives all zeros. This is the one cache of
    the weights: results are memoized on (t, alpha, k0, M), all they depend
    on (the last 1024 argument tuples), and the array returned is shared,
    so it is read-only.
    """
    if k0 < 0:
        raise ValueError(f"k0 must be >= 0, got {k0}")
    p0 = offset_alpha / (t + offset_alpha)
    weights = np.zeros(bin_size, dtype=np.float64)
    if k0 and p0 > 0.0:
        log_p = math.log(p0)
        log_q = math.log1p(-p0) if p0 < 1.0 else -math.inf
        lg_k = math.lgamma(k0 + 1)

        def pmf(j: int) -> float:
            return math.exp(lg_k - math.lgamma(j + 1) - math.lgamma(k0 - j + 1)
                            + j * log_p + (k0 - j) * log_q)

        for s in range(1, min(bin_size, k0) + 1):
            # P(L >= s) via whichever side of the CDF has fewer terms. Explicit
            # += keeps the summation order (sum() compensates on Python >= 3.12).
            if k0 - s + 1 <= s:
                tail = 0.0
                for j in range(s, k0 + 1):
                    tail += pmf(j)
                weights[s - 1] = min(1.0, tail)
            else:
                head = 0.0
                for j in range(s):
                    head += pmf(j)
                weights[s - 1] = min(1.0, max(0.0, 1.0 - head))
    weights.flags.writeable = False
    return weights


def _power_law(freq: dict, fit_bins: int, out_bins: int) -> dict[int, float] | None:
    """Least-squares fit of log f_s = a + b log s over the nonzero bins with
    1 <= s <= fit_bins, evaluated at s = 1..out_bins; non-finite or
    non-positive values become 0. None, the one fallback to the raw
    spectrum, when fewer than two bins are nonzero."""
    points = [(s, f) for s, f in sorted(freq.items()) if f > 0 and 1 <= s <= fit_bins]
    if len(points) < 2:
        return None
    xs = np.log([float(s) for s, _ in points])
    ys = np.log([float(f) for _, f in points])
    b, a = (float(c) for c in np.polyfit(xs, ys, 1))
    out: dict[int, float] = {}
    for s in range(1, out_bins + 1):
        value = math.exp(a + b * math.log(s))
        out[s] = value if math.isfinite(value) and value > 0 else 0.0
    return out


def sgt_unseen(spectrum, cfg: SgtConfig) -> float:
    """Smoothed Good-Turing estimate of unseen clusters; always >= 0.

    spectrum is a SubsetSpectrum or a mapping s -> f_s. Its size |S| =
    sum_s s*f_s picks k0 = k0_for(t, |S|) and so the damping weights from
    sgt_weights' cache; spectra of sizes sharing a k0 share one weight
    vector. |S| = 0 gives 0.
    """
    freq = _bins(spectrum)
    size = int(round(sum(s * f for s, f in freq.items())))
    if size <= 0:
        return 0.0
    weights = sgt_weights(cfg.t, cfg.offset_alpha, k0_for(cfg.t, size), cfg.bin_size)
    total = _truncated_sum(freq, cfg.t, cfg.bin_size, weights)
    if not math.isfinite(total):
        return 0.0
    return float(max(0.0, total))


def coverage_phi(labels: np.ndarray, subset, cfg: SgtConfig) -> tuple[float, int, float]:
    """Coverage Phi(S) = K_seen(S) + U_sgt(S); returns (phi, k_seen, u_hat)."""
    spec = subset_spectrum(labels, subset)
    u_hat = sgt_unseen(spec, cfg)
    return float(spec.k_seen + u_hat), int(spec.k_seen), u_hat


class CoverageTracker:
    """Incrementally maintained spectrum for greedy selection loops.

    Keeps the spectrum and k_seen of the current subset, plus each
    cluster's count in it, and evaluates the coverage gain of adding one
    item without rebuilding anything. Phi is evaluated by sgt_unseen, whose
    weights come from the sgt_weights cache.
    """

    def __init__(self, labels: np.ndarray, cfg: SgtConfig):
        self.cfg = cfg
        self.spectrum: dict[int, int] = {}
        self.k_seen = 0
        # Each row's position among the distinct labels, and each label's
        # count in the subset.
        distinct, self._row_cluster = np.unique(np.asarray(labels), return_inverse=True)
        self._cluster_count = np.zeros(distinct.size, dtype=np.int64)

    def phi(self) -> float:
        return self.k_seen + sgt_unseen(self.spectrum, self.cfg)

    def _move(self, old: int, new: int) -> None:
        """Move one cluster from count old to count new (0: not in S)."""
        if old:
            self.spectrum[old] -= 1
            if not self.spectrum[old]:
                del self.spectrum[old]
        if new:
            self.spectrum[new] = self.spectrum.get(new, 0) + 1
        self.k_seen += (new > 0) - (old > 0)

    def _gain(self, count: int, phi_now: float) -> float:
        """Phi gain of one more member for a cluster with `count` in S."""
        self._move(count, count + 1)
        phi_new = self.phi()
        self._move(count + 1, count)
        return phi_new - phi_now

    def gain_if_added(self, index: int) -> float:
        """Phi(S + {i}) - Phi(S)."""
        return self._gain(int(self._cluster_count[self._row_cluster[index]]), self.phi())

    def gains_if_added(self, indices) -> np.ndarray:
        """gain_if_added for every index, bit for bit.

        The gain depends only on the item's cluster's current count, so Phi
        is evaluated once per distinct count and the gains are gathered from
        a table indexed by count.
        """
        idx = np.asarray(indices, dtype=np.intp)
        count = self._cluster_count[self._row_cluster[idx]]
        present = np.bincount(count)
        table = np.zeros(present.size)
        phi_now = self.phi()
        for c in np.flatnonzero(present):
            table[c] = self._gain(int(c), phi_now)
        return table[count]

    def add(self, index: int) -> None:
        row = self._row_cluster[index]
        count = int(self._cluster_count[row])
        self._move(count, count + 1)
        self._cluster_count[row] += 1


PRIOR_EPS = 1e-6  # added to p(s) here and to g_hat(s) in B2's bonus


@dataclass
class CorpusPrior:
    """Per-cluster rarity weights from the corpus-level size spectrum.

    The probability mass of a size-s cluster is p(s) = s*/N with
    s* = (s+1) g_hat(s+1) / g_hat(s) (fallback s* = s when either bin is
    empty); each cluster gets weight 1/(p(n_u) + PRIOR_EPS), normalized to
    mean 1 over the clusters. g_hat is the spectrum's power-law fit, or the
    raw spectrum when fewer than two bins are nonzero (power_law_fallback);
    smoothed holds it at s = 1..max size + 1.
    """

    weights: dict[int, float]
    sizes: dict[int, int]
    smoothed: dict[int, float]
    power_law_fallback: bool


def corpus_prior(labels: np.ndarray) -> CorpusPrior:
    """Rarity prior over clusters, the one that select and ucs prior use."""
    spec = subset_spectrum(labels, range(len(labels)))
    sizes, spectrum, n_examples = spec.counts, spec.spectrum, spec.size
    max_size = max(spectrum) if spectrum else 0
    smoothed = _power_law(spectrum, max_size, max_size + 1)
    fallback = smoothed is None
    if fallback:
        smoothed = {s: float(spectrum.get(s, 0)) for s in range(1, max_size + 2)}

    mass: dict[int, float] = {}  # size s -> p(s) = s* / N
    for s in set(sizes.values()):
        g_s, g_next = smoothed.get(s, 0.0), smoothed.get(s + 1, 0.0)
        mass[s] = ((s + 1) * g_next / g_s if g_s > 0 and g_next > 0 else s) / n_examples
    raw = {u: 1.0 / (mass[s] + PRIOR_EPS) for u, s in sizes.items()}
    scale = (sum(raw.values()) / len(raw)) if raw else 1.0
    weights = {u: w / scale for u, w in raw.items()}
    return CorpusPrior(
        weights=weights,
        sizes=sizes,
        smoothed=smoothed,
        power_law_fallback=fallback,
    )
