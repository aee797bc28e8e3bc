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
computed only by ridge_encode. The multi-source fit aligns sources into a
shared code space with orthogonal maps before the same alternation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, MisalignedSources

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
    # is. Returns (G, W).
    k = dictionary.shape[1]
    system = dictionary.T @ dictionary + alpha * np.eye(k)
    return system, np.linalg.solve(system, dictionary.T).T


def _solve_codes(dictionary: np.ndarray, pool: np.ndarray, alpha: float) -> np.ndarray:
    # One N x d' x K product against the ridge map.
    return pool @ _ridge_map(dictionary, alpha)[1]


def ridge_encode(codebook: CodeBook, pool: np.ndarray) -> np.ndarray:
    """Code each row of `pool` against the codebook.

    Row form: R = E D (D^T D + aI)^-1, i.e. r = (D^T D + aI)^-1 D^T e per row.
    """
    return _solve_codes(codebook.dictionary, np.asarray(pool, dtype=np.float64),
                        codebook.ridge_alpha)


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
    is entirely zero.

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
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    if ridge_alpha <= 0:
        raise ValueError(f"ridge_alpha must be > 0, got {ridge_alpha}")
    if not np.any(arr):
        raise DegenerateInput("pool is all zeros; nothing to factorize")

    # Fit on the canonical row order so the result is a pure function of the
    # row SET: permuting the caller's rows changes nothing, not even float
    # summation order. Codes are recovered per caller row via ridge_encode.
    arr = arr[_canonical_row_order(arr)]
    dictionary = _init_dictionary(arr, n_atoms, seed)
    second = arr.T @ arr
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


def _procrustes_map(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    # Orthogonal-column map maximizing tr(B^T source^T target).
    u, _, vt = np.linalg.svd(source.T @ target, full_matrices=False)
    return u @ vt


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

    Minimizes sum_m ||E^(m) B^(m) - R D^T||_F^2 + alpha ||R||_F^2 over
    orthogonal-column maps B^(m) (d_m x d_c), shared codes R, and unit
    atoms. Each iteration updates maps by orthogonal Procrustes, then the
    dictionary and codes by the single-source alternation on the mean of the
    mapped sources. d_c defaults to the smallest source width. With
    fix_maps=True and one square source this reduces exactly to
    fit_dictionary.
    """
    if not sources:
        raise MisalignedSources("need at least one source")
    mats = [np.asarray(s, dtype=np.float64) for s in sources]
    n = mats[0].shape[0]
    if any(m.ndim != 2 or m.shape[0] != n for m in mats):
        raise MisalignedSources(
            f"sources disagree on row count: {[m.shape for m in mats]}"
        )
    if n == 0:
        raise ValueError("sources are empty")
    widths = [m.shape[1] for m in mats]
    if d_c is None:
        d_c = min(widths)
    if not 1 <= d_c <= min(widths):
        raise ValueError(f"d_c must be in [1, {min(widths)}], got {d_c}")
    if not any(np.any(m) for m in mats):
        raise DegenerateInput("all sources are zero; nothing to align")

    # One shared canonical order (keyed on the first source) keeps the fit a
    # pure function of the aligned row set; codes are restored to the
    # caller's row order on return.
    order = _canonical_row_order(mats[0])
    mats = [m[order] for m in mats]

    n_sources = len(mats)
    alpha_eff = ridge_alpha / n_sources
    maps = [np.eye(w, d_c) for w in widths]
    mapped = [m @ b for m, b in zip(mats, maps)]
    mean_pool = sum(mapped) / float(n_sources)

    dictionary = _init_dictionary(
        mean_pool[_canonical_row_order(mean_pool)], n_atoms, seed)
    codes = _solve_codes(dictionary, mean_pool, alpha_eff)

    def joint_objective() -> float:
        target = codes @ dictionary.T
        recon = sum(float(np.sum((x - target) ** 2)) for x in mapped)
        return recon + ridge_alpha * float(np.sum(codes * codes))

    def max_orth_deviation() -> float:
        return max(
            float(np.max(np.abs(b.T @ b - np.eye(d_c)))) for b in maps
        )

    history = [joint_objective()]
    orth_history = [max_orth_deviation()]
    for _ in range(max_iter):
        if not fix_maps:
            # Sequential sweep: refresh the target and codes after every
            # map update. A simultaneous sweep against one stale target
            # stalls when the initial mean collapses directions (sources
            # that nearly cancel), since the collapsed subspace then never
            # enters the target.
            for m_idx, mat in enumerate(mats):
                target = codes @ dictionary.T
                b_new = _procrustes_map(mat, target)
                # The SVD map is exact for square maps; for rectangular maps
                # it can raise the residual, so keep the better of the two.
                if widths[m_idx] > d_c:
                    old_err = np.sum((mat @ maps[m_idx] - target) ** 2)
                    new_err = np.sum((mat @ b_new - target) ** 2)
                    if new_err > old_err:
                        continue
                maps[m_idx] = b_new
                mapped[m_idx] = mat @ b_new
                mean_pool = sum(mapped) / float(n_sources)
                codes = _solve_codes(dictionary, mean_pool, alpha_eff)
        _update_atoms(dictionary, codes.T @ codes, mean_pool.T @ codes)
        codes = _solve_codes(dictionary, mean_pool, alpha_eff)
        history.append(joint_objective())
        orth_history.append(max_orth_deviation())
        if _converged(history):
            break
    codes_out = np.empty_like(codes)
    codes_out[order] = codes
    return JointCodeBook(
        dictionary=dictionary,
        codes=codes_out,
        maps=maps,
        ridge_alpha=ridge_alpha,
        n_iter=len(history) - 1,
        objective=history[-1],
        objective_history=history,
        orthogonality_history=orth_history,
    )
