"""Ridge-regularized dictionary learning over reduced embeddings.

Single-source fit alternates exact ridge coding with a per-atom constrained
dictionary update (each atom is the exact unit-norm minimizer given the
others), so the penalized objective

    sum_i ||e_i - D r_i||^2 + alpha * ||r_i||^2

never increases across alternations. The ridge codes R = E W, with
W = D (D^T D + aI)^-1, enter the alternation only through the moments
E^T R = C W and R^T R = W^T C W of C = E^T E (the sufficient statistics of
Mairal et al., "Online Learning for Matrix Factorization and Sparse
Coding", JMLR 2010). So the fit forms C once, in O(N d'^2), and each
alternation costs O(d'^2 K + K^3) whatever N is; the codes themselves are
computed only by ridge_encode. The multi-source fit likewise reads only
the cross moments X_m^T X_l of the sources it aligns with orthogonal maps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, MisalignedSources, NonFiniteValue
from .preprocess import _gram

# Relative objective improvement below this stops the alternation.
REL_TOL = 1e-6
_ATOM_TOL = 1e-12


@dataclass
class CodeBook:
    """A fitted dictionary: atoms are unit-norm columns of `dictionary`."""

    dictionary: np.ndarray  # (d', K)
    ridge_alpha: float
    n_iter: int = 0
    objective: float = float("nan")
    objective_history: list[float] = field(default_factory=list)


@dataclass
class JointCodeBook:
    """Shared dictionary plus one orthogonal-column map per source."""

    dictionary: np.ndarray  # (d_c, K)
    codes: np.ndarray  # (N, K), shared across sources
    maps: list[np.ndarray]  # each (d_m, d_c), B^T B = I
    ridge_alpha: float
    n_iter: int = 0
    objective: float = float("nan")
    objective_history: list[float] = field(default_factory=list)
    orthogonality_history: list[float] = field(default_factory=list)


def _canonical_row_order(pool: np.ndarray) -> np.ndarray:
    # Lexicographic row order, ties by row index: the permutation
    # np.lexsort(pool.T[::-1]) gives. It makes the seeded init independent of
    # how the caller happened to order the pool. A stable sort of column 0
    # settles almost every row; only rows in a run of equal first entries
    # (or unordered ones, such as nan) are lexsorted again, on all columns,
    # which keeps the runs in place and orders each within itself.
    order = np.argsort(pool[:, 0], kind="stable")
    first = pool[order, 0]
    same = ~(first[1:] > first[:-1])
    tied = np.zeros(order.size, dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    rows = order[tied]
    order[tied] = rows[np.lexsort(pool[rows].T[::-1])]
    return order


def _init_dictionary(ordered: np.ndarray, n_atoms: int, seed: int) -> np.ndarray:
    # Rows arrive in canonical order, so the seeded picks see only the row set.
    n = ordered.shape[0]
    rng = np.random.default_rng(seed)
    if n >= n_atoms:
        picks = rng.choice(n, size=n_atoms, replace=False)
        atoms = ordered[np.sort(picks)].T.copy()
    else:
        warnings.warn(
            f"pool has {n} rows but {n_atoms} atoms were requested; "
            "padding the initial dictionary with random directions",
            stacklevel=3,
        )
        extra = rng.standard_normal((ordered.shape[1], n_atoms - n))
        atoms = np.hstack([ordered.T.copy(), extra])
    norms = np.linalg.norm(atoms, axis=0)
    dead = norms <= _ATOM_TOL
    if dead.any():
        atoms[:, dead] = rng.standard_normal((atoms.shape[0], int(dead.sum())))
        norms = np.linalg.norm(atoms, axis=0)
    return atoms / norms


def _ridge_map(dictionary: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    # G = D^T D + aI is symmetric, so the codes (G^-1 D^T E^T)^T equal E W
    # with W = D G^-1: one K x K solve with d' right-hand sides, whatever N
    # is. Returns (G, W); NonFiniteValue, with no numpy warning, when G
    # overflows.
    k = dictionary.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        system = dictionary.T @ dictionary + alpha * np.eye(k)
    if not np.isfinite(system).all():
        raise NonFiniteValue("the dictionary's D^T D + alpha*I is not finite")
    return system, np.linalg.solve(system, dictionary.T).T


def _solve_codes(dictionary: np.ndarray, pool: np.ndarray, alpha: float) -> np.ndarray:
    # One N x d' x K product against the ridge map.
    return pool @ _ridge_map(dictionary, alpha)[1]


def ridge_encode(codebook: CodeBook, pool: np.ndarray) -> np.ndarray:
    """Code each row of `pool` against the codebook.

    Row form: R = E D (D^T D + aI)^-1, i.e. r = (D^T D + aI)^-1 D^T e per row.
    ValueError, naming both widths, when the pool is not 2-D with one column
    per dictionary row. NonFiniteValue, with no numpy warning, when D^T D + aI
    overflows or a code is not finite; the latter names the first such row
    and column.
    """
    pool = np.asarray(pool, dtype=np.float64)
    width = codebook.dictionary.shape[0]
    if pool.ndim != 2 or pool.shape[1] != width:
        raise ValueError(f"the pool has shape {pool.shape}, not (N, {width}): "
                         f"the dictionary has {width} rows")
    with np.errstate(over="ignore", invalid="ignore"):
        codes = _solve_codes(codebook.dictionary, pool, codebook.ridge_alpha)
    if not np.isfinite(codes).all():
        row, col = np.argwhere(~np.isfinite(codes))[0]
        raise NonFiniteValue(f"the codes are not finite, first at row {row}, col {col}")
    return codes


def _update_atoms(dictionary: np.ndarray, gram: np.ndarray, corr: np.ndarray) -> None:
    # Gauss-Seidel over atoms from the code moments gram = R^T R and
    # corr = E^T R; each update is the exact minimizer of the reconstruction
    # term under ||d_j|| = 1, so the objective cannot rise. Atoms with no
    # code support are left untouched.
    for j in range(dictionary.shape[1]):
        direction = corr[:, j] - dictionary @ gram[:, j] + dictionary[:, j] * gram[j, j]
        norm = np.linalg.norm(direction)
        if norm > _ATOM_TOL:
            dictionary[:, j] = direction / norm


def _moments(dictionary: np.ndarray, second: np.ndarray,
             alpha: float) -> tuple[np.ndarray, np.ndarray, float]:
    # The ridge codes R = E W enter the alternation only through
    # E^T R = C W and R^T R = W^T C W, with C = E^T E = `second`.
    # Returns (R^T R, E^T R, objective in Gram form).
    system, ridge = _ridge_map(dictionary, alpha)
    corr = second @ ridge
    gram = ridge.T @ corr
    objective = np.trace(second) - 2.0 * np.vdot(dictionary, corr) + np.vdot(system, gram)
    return gram, corr, float(objective)


def _converged(history: list[float]) -> bool:
    # The last alternation improved the objective by less than REL_TOL.
    return history[-2] - history[-1] < REL_TOL * max(history[-2], 1e-300)


def _check_fit(n_atoms: int, ridge_alpha: float) -> None:
    """The atom count and ridge strength of every dictionary fit."""
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    if ridge_alpha <= 0:
        raise ValueError(f"ridge_alpha must be > 0, got {ridge_alpha}")


def fit_dictionary(
    pool: np.ndarray,
    n_atoms: int = 64,
    ridge_alpha: float = 10.0,
    max_iter: int = 50,
    seed: int = 0,
) -> CodeBook:
    """Alternating minimization for a unit-atom dictionary.

    Stops after `max_iter` alternations or when the relative objective
    improvement drops below 1e-6. max_iter=0 returns the seeded
    initialization with its objective. Raises DegenerateInput when the pool
    is entirely zero, and NonFiniteValue, with no numpy warning, when its
    Gram matrix C = E^T E overflows float64.

    Cost: one O(N d'^2) pass forms C = E^T E from a canonical-order copy of
    the pool, the only N x d' array the fit allocates; every alternation
    then takes O(d'^2 K + K^3) time and O(d'^2 + d'K + K^2) memory.

    The objective is evaluated in Gram form from G = D^T D + aI and the
    computed W = D G^-1:

        tr(C) - 2 <D, C W> + <G, W^T C W>,

    which equals the residual form ||E - E W D^T||_F^2 + a ||E W||_F^2.
    Its three terms can cancel down to a small residual, so its rounding is
    absolute, not relative: to first order it is at most c 2^-52 ||E||_F^2
    with c = (N + 3d' + d'K + K^2 + 3) ((1 + s)^2 + a || |W| ||_2^2) and
    s = || |D| ||_2 || |W| ||_2 (|.| entrywise). Each term is a sum over
    rows of e^T M e whose absolute mass is at most ||E||_F^2, 2s ||E||_F^2
    or (s^2 + a || |W| ||_2^2) ||E||_F^2, and the longest chain of
    roundings behind any entry has N + 3d' + d'K + K^2 + 3 of them.
    """
    arr = np.asarray(pool, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError(f"expected a non-empty 2-D pool, got shape {arr.shape}")
    _check_fit(n_atoms, ridge_alpha)
    if not np.any(arr):
        raise DegenerateInput("pool is all zeros; nothing to factorize")

    # Fit on the canonical row order so the result is a pure function of the
    # row SET: permuting the caller's rows changes nothing, not even float
    # summation order. Codes are recovered per caller row via ridge_encode.
    arr = arr[_canonical_row_order(arr)]
    second = _gram(arr, what="the pool's E^T E")
    dictionary = _init_dictionary(arr, n_atoms, seed)
    del arr
    gram, corr, objective = _moments(dictionary, second, ridge_alpha)
    history = [objective]
    for _ in range(max_iter):
        _update_atoms(dictionary, gram, corr)
        gram, corr, objective = _moments(dictionary, second, ridge_alpha)
        history.append(objective)
        if _converged(history):
            break
    return CodeBook(
        dictionary=dictionary,
        ridge_alpha=ridge_alpha,
        n_iter=len(history) - 1,
        objective=history[-1],
        objective_history=history,
    )


def fit_joint_dictionary(
    sources: list[np.ndarray],
    n_atoms: int = 64,
    ridge_alpha: float = 10.0,
    max_iter: int = 50,
    seed: int = 0,
    d_c: int | None = None,
    fix_maps: bool = False,
) -> JointCodeBook:
    """Fit one dictionary over several embedding sources of the same pool.

    Minimizes sum_m ||X_m B_m - R D^T||_F^2 + alpha ||R||_F^2 over
    orthogonal-column maps B_m (d_m x d_c), shared codes R and unit atoms:
    each iteration fits the maps by orthogonal Procrustes, one source at a
    time, then takes fit_dictionary's step on M = (1/S) sum_m X_m B_m at
    alpha / S. d_c defaults to the smallest source width. With
    fix_maps=True and one square source this is fit_dictionary, bit for bit.
    Raises NonFiniteValue, with no numpy warning, when a cross moment
    X_m^T X_l (X_m the m-th source) overflows float64.

    Cost: one O(N (sum_m d_m)^2) pass forms the cross moments X_m^T X_l;
    each alternation then costs O(S^2 d_max^2 d_c + d_c^2 K + K^3) whatever
    N is, and the codes are solved once, after the last alternation.

    The objective, sum_m ||X_m B_m||_F^2 - S ||M||_F^2 + S f(M) with f
    fit_dictionary's Gram form at alpha / S, equals the residual form for
    the returned maps, codes and dictionary. Its rounding is absolute: to
    first order at most c 2^-52 b^2 sum_m ||X_m||_F^2, with
    b = max_m || |B_m| ||_2, c = (N + 2d_max + 2S + 3d_c + d_c K + K^2 + 8)
    (2 + (1 + s)^2 + (alpha / S) || |W| ||_2^2), s and W fit_dictionary's
    for D at alpha / S: the terms' absolute masses are b^2, b^2 and
    (1 + s)^2 + ... times sum_m ||X_m||_F^2, and M^T M adds 2d_max + 2S + 2
    roundings to C's N. Near an exact fit this exceeds REL_TOL's step.
    """
    if not sources:
        raise MisalignedSources("need at least one source")
    mats = [np.asarray(s, dtype=np.float64) for s in sources]
    n = mats[0].shape[0]
    if any(m.ndim != 2 or m.shape[0] != n for m in mats):
        raise MisalignedSources(f"sources disagree on row count: {[m.shape for m in mats]}")
    if n == 0:
        raise ValueError("sources are empty")
    widths = [m.shape[1] for m in mats]
    if d_c is None:
        d_c = min(widths)
    if not 1 <= d_c <= min(widths):
        raise ValueError(f"d_c must be in [1, {min(widths)}], got {d_c}")
    _check_fit(n_atoms, ridge_alpha)
    if not any(np.any(m) for m in mats):
        raise DegenerateInput("all sources are zero; nothing to align")

    # One shared canonical order (keyed on the first source) keeps the fit a
    # pure function of the aligned row set; the codes return in caller order.
    order = _canonical_row_order(mats[0])
    mats = [m[order] for m in mats]
    # Until the codes are solved, the sources enter only as X_m^T X_l.
    cross = [[_gram(x, y, what=f"the sources' cross moment X_{m_idx}^T X_{l_idx}")
              for l_idx, y in enumerate(mats)] for m_idx, x in enumerate(mats)]
    n_sources = len(mats)
    alpha_eff = ridge_alpha / n_sources
    maps = [np.eye(w, d_c) for w in widths]

    def mean_pool() -> np.ndarray:
        return sum(m @ b for m, b in zip(mats, maps)) / float(n_sources)

    pool = mean_pool()
    dictionary = _init_dictionary(pool[_canonical_row_order(pool)], n_atoms, seed)
    del pool

    def source_mean(m_idx: int) -> np.ndarray:
        # X_m^T M
        return sum(c @ b for c, b in zip(cross[m_idx], maps)) / float(n_sources)

    def moments() -> tuple[np.ndarray, np.ndarray, float]:
        # fit_dictionary's moments of M at alpha / S, and the joint objective.
        second = sum(b.T @ source_mean(i) for i, b in enumerate(maps)) / float(n_sources)
        gram, corr, fit = _moments(dictionary, second, alpha_eff)
        mapped = sum(np.trace(b.T @ cross[i][i] @ b) for i, b in enumerate(maps))
        return gram, corr, float(mapped - n_sources * np.trace(second) + n_sources * fit)

    def max_orth_deviation() -> float:
        return max(float(np.max(np.abs(b.T @ b - np.eye(d_c)))) for b in maps)

    gram, corr, objective = moments()
    history = [objective]
    orth_history = [max_orth_deviation()]
    for _ in range(max_iter):
        if not fix_maps:
            # Sequential sweep: each map fits T = M W D^T of the maps before it;
            # a stale T stalls when the initial mean collapses directions.
            to_target = _ridge_map(dictionary, alpha_eff)[1] @ dictionary.T  # T = M to_target
            for m_idx, b_old in enumerate(maps):
                x_t = source_mean(m_idx) @ to_target  # X_m^T T
                u, _, vt = np.linalg.svd(x_t, full_matrices=False)
                b_new = u @ vt
                # Exact for square maps; a rectangular one can raise
                # ||X_m B - T||^2 (||T||^2 aside), so keep the better.
                if widths[m_idx] > d_c:
                    cost = [np.trace(b.T @ cross[m_idx][m_idx] @ b) - 2.0 * np.vdot(b, x_t)
                            for b in (b_old, b_new)]
                    if cost[1] > cost[0]:
                        continue
                maps[m_idx] = b_new
            gram, corr, _ = moments()
        _update_atoms(dictionary, gram, corr)
        gram, corr, objective = moments()
        history.append(objective)
        orth_history.append(max_orth_deviation())
        if _converged(history):
            break
    codes = _solve_codes(dictionary, mean_pool(), alpha_eff)[np.argsort(order)]
    return JointCodeBook(dictionary=dictionary, codes=codes, maps=maps, ridge_alpha=ridge_alpha,
                         n_iter=len(history) - 1, objective=history[-1],
                         objective_history=history, orthogonality_history=orth_history)
