import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucs.errors import DegenerateInput, MisalignedSources
from ucs.latent_dictionary import (
    REL_TOL,
    CodeBook,
    _canonical_row_order,
    fit_dictionary,
    fit_joint_dictionary,
    ridge_encode,
)
from ucs.preprocess import l2_normalize_rows


def _book(dictionary, alpha):
    return CodeBook(dictionary=np.asarray(dictionary, dtype=np.float64),
                    ridge_alpha=alpha)


def test_identity_dictionary_alpha_one_halves_input():
    x = np.array([[2.0, -4.0, 6.0]])
    codes = ridge_encode(_book(np.eye(3), 1.0), x)
    assert np.allclose(codes, x / 2, atol=1e-12)


def test_orthonormal_dictionary_tiny_alpha_is_projection():
    rng = np.random.default_rng(0)
    d, _ = np.linalg.qr(rng.standard_normal((8, 4)))
    x = rng.standard_normal((5, 8))
    codes = ridge_encode(_book(d, 1e-12), x)
    assert np.abs(codes - x @ d).max() < 1e-6


def test_ridge_encode_matches_per_example_normal_equations():
    # Independent oracle: solve (D^T D + aI) r = D^T e per example with a
    # generic solver instead of the shared batch factorization.
    rng = np.random.default_rng(1)
    d = rng.standard_normal((8, 4))
    x = rng.standard_normal((6, 8))
    alpha = 0.7
    codes = ridge_encode(_book(d, alpha), x)
    gram = d.T @ d + alpha * np.eye(4)
    for i in range(6):
        expected = np.linalg.solve(gram, d.T @ x[i])
        assert np.abs(codes[i] - expected).max() < 1e-8


def test_ridge_encode_is_linear():
    rng = np.random.default_rng(2)
    d = rng.standard_normal((6, 3))
    book = _book(d, 2.0)
    x, y = rng.standard_normal((2, 4, 6))
    lhs = ridge_encode(book, 1.5 * x - 0.25 * y)
    rhs = 1.5 * ridge_encode(book, x) - 0.25 * ridge_encode(book, y)
    assert np.abs(lhs - rhs).max() < 1e-9


def _unit_columns(rng, rows, cols):
    d = rng.standard_normal((rows, cols))
    return d / np.linalg.norm(d, axis=0)


def _collinear_pair(rng, rows, cols, gap):
    # Atoms 0 and 1 differ by about `gap`, so D^T D is nearly singular.
    d = _unit_columns(rng, rows, cols)
    d[:, 1] = d[:, 0] + gap * rng.standard_normal(rows)
    return d / np.linalg.norm(d, axis=0)


@pytest.mark.parametrize("shape, alpha, gap, min_cond", [
    ((4000, 128, 64), 10.0, None, 1.0),   # the pipeline's shape and alpha
    ((300, 16, 8), 1e-6, 1e-3, 1e5),
    ((300, 16, 8), 1e-8, 1e-4, 1e7),
], ids=["pipeline", "ill-conditioned", "more-ill-conditioned"])
def test_ridge_encode_matches_augmented_least_squares(shape, alpha, gap, min_cond):
    # Independent oracle: each code is the least-squares solution of the
    # augmented system [D; sqrt(a) I] r = [e; 0], solved by SVD (lstsq), which
    # never forms the normal equations. The bound is the backward-stable
    # solve's forward error, 100 cond(G) 2^-52 max|r|, with G = D^T D + aI.
    n, dim, k = shape
    rng = np.random.default_rng(12)
    d = (_unit_columns(rng, dim, k) if gap is None
         else _collinear_pair(rng, dim, k, gap))
    x = rng.standard_normal((n, dim))
    cond = np.linalg.cond(d.T @ d + alpha * np.eye(k))
    assert cond >= min_cond
    augmented = np.vstack([d, np.sqrt(alpha) * np.eye(k)])
    rhs = np.vstack([x.T, np.zeros((k, n))])
    oracle = np.linalg.lstsq(augmented, rhs, rcond=None)[0].T
    codes = ridge_encode(_book(d, alpha), x)
    assert codes.shape == (n, k)
    bound = 100 * cond * 2.0 ** -52 * np.abs(oracle).max()
    assert np.abs(codes - oracle).max() <= bound


def test_fit_objective_is_that_of_the_encoded_codes():
    # dict-fit's manifest objective must describe the codes dict-encode
    # writes: recompute it from ridge_encode on a row-permuted pool.
    rng = np.random.default_rng(13)
    pool = rng.standard_normal((400, 16))
    shuffled = pool[rng.permutation(400)]
    book = fit_dictionary(pool, n_atoms=8, ridge_alpha=2.0, seed=3)
    codes = ridge_encode(book, shuffled)
    resid = shuffled - codes @ book.dictionary.T
    objective = float(np.sum(resid * resid)
                      + book.ridge_alpha * np.sum(codes * codes))
    assert objective == pytest.approx(book.objective, rel=1e-12, abs=0)


def test_normalize_codes_three_four_five():
    out = l2_normalize_rows(np.array([[3.0, 4.0]]))
    assert np.allclose(out, [[0.6, 0.8]], atol=1e-11)


def test_normalize_codes_zero_row():
    assert np.array_equal(l2_normalize_rows(np.zeros((1, 4))), np.zeros((1, 4)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=6))
def test_normalized_code_norm_bounds(row):
    r = np.array([row])
    norm = float(np.linalg.norm(r))
    out_norm = float(np.linalg.norm(l2_normalize_rows(r)))
    assert out_norm <= 1.0 + 1e-12
    assert out_norm >= 1.0 - 1e-12 / (norm + 1e-12) - 1e-9


# Few distinct values, so first entries tie often; -0.0 and 0.0 compare equal.
_TIE_VALUES = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0]) | st.floats(
    -1e3, 1e3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_canonical_row_order_is_lexsort(data):
    d = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(_TIE_VALUES, min_size=d, max_size=d),
                              min_size=1, max_size=6))
    # rows drawn with repetition: duplicate rows and runs of equal first entries
    picks = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=40))
    pool = np.array([rows[i] for i in picks], dtype=np.float64).reshape(-1, d)
    assert np.array_equal(_canonical_row_order(pool), np.lexsort(pool.T[::-1]))


def test_canonical_row_order_signed_zeros_and_wide_pool():
    pool = np.array([[0.0, 2.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, -0.0], [0.0, 0.0]])
    assert _canonical_row_order(pool).tolist() == [3, 4, 1, 2, 0]
    wide = np.random.default_rng(4).standard_normal((300, 128))
    wide[::7, :5] = 0.5  # runs tied on their first five entries
    wide[50] = wide[10]
    assert np.array_equal(_canonical_row_order(wide), np.lexsort(wide.T[::-1]))


def test_fit_recovers_known_dictionary():
    # Data generated exactly from orthonormal atoms; with near-zero ridge the
    # fit must reconstruct the pool almost perfectly.
    rng = np.random.default_rng(3)
    atoms, _ = np.linalg.qr(rng.standard_normal((10, 4)))
    weights = rng.standard_normal((200, 4))
    pool = weights @ atoms.T
    book = fit_dictionary(pool, n_atoms=4, ridge_alpha=1e-6, max_iter=200, seed=0)
    codes = ridge_encode(book, pool)
    recon_err = float(np.sum((pool - codes @ book.dictionary.T) ** 2))
    assert recon_err < 1e-4


def _residual_objective(pool, dictionary, codes, alpha):
    # The penalized objective from the codes themselves, in extended
    # precision, so its own rounding is far below the Gram form's.
    e, d, r = (np.asarray(m, dtype=np.longdouble) for m in (pool, dictionary, codes))
    resid = e - r @ d.T
    return float(np.sum(resid * resid) + np.longdouble(alpha) * np.sum(r * r))


def _gram_form_bound(pool, dictionary, alpha):
    # fit_dictionary's stated bound on its Gram-form objective's rounding:
    # c 2^-52 ||E||_F^2 with c = (N + 3d' + d'K + K^2 + 3)((1 + s)^2 + a),
    # s = || |D| ||_2 || |W| ||_2 and a = alpha || |W| ||_2^2.
    n, dim = pool.shape
    k = dictionary.shape[1]
    ridge = np.linalg.solve(dictionary.T @ dictionary + alpha * np.eye(k),
                            dictionary.T).T
    w_norm = np.linalg.norm(np.abs(ridge), 2)
    s = np.linalg.norm(np.abs(dictionary), 2) * w_norm
    c = (n + 3 * dim + dim * k + k * k + 3) * ((1 + s) ** 2 + alpha * w_norm ** 2)
    return c * 2.0 ** -52 * float(np.sum(pool * pool))


def _row_space_fit(pool, dictionary, alpha, max_iter):
    # Independent oracle for fit_dictionary's alternation: code every row
    # (N right-hand sides), move each atom to its unit-norm minimizer given
    # the others, and score the residual form after every step.
    dictionary = dictionary.copy()
    k = dictionary.shape[1]

    def codes_and_objective():
        codes = np.linalg.solve(dictionary.T @ dictionary + alpha * np.eye(k),
                                dictionary.T @ pool.T).T
        resid = pool - codes @ dictionary.T
        return codes, float(np.sum(resid * resid) + alpha * np.sum(codes * codes))

    codes, objective = codes_and_objective()
    history = [objective]
    for _ in range(max_iter):
        for j in range(k):
            others = np.delete(np.arange(k), j)
            target = pool - codes[:, others] @ dictionary[:, others].T
            direction = target.T @ codes[:, j]
            if np.linalg.norm(direction) > 1e-12:
                dictionary[:, j] = direction / np.linalg.norm(direction)
        codes, objective = codes_and_objective()
        history.append(objective)
        if history[-2] - history[-1] < REL_TOL * history[-2]:
            break
    return dictionary, history


@pytest.mark.parametrize("shape, n_atoms, alpha", [
    ((300, 16), 8, 2.0),
    ((120, 6), 12, 0.5),   # more atoms than dimensions
    ((5, 8), 12, 1.0),     # fewer rows than atoms
], ids=["K<d", "K>d", "N<K"])
@pytest.mark.filterwarnings("ignore:pool has")
def test_fit_matches_row_space_alternation(shape, n_atoms, alpha):
    # The d'-space loop must walk the same path as coding the rows: same
    # number of alternations, unit atoms equal to 1e-12 (4500 ulps of 1.0,
    # room for rounding drift over up to 50 alternations), and each
    # objective within the Gram form's rounding bound of the residual form,
    # taken at the larger bound of the path's two ends.
    rng = np.random.default_rng(shape[0])
    pool = rng.standard_normal(shape) * rng.uniform(0.5, 2.0, shape[1])
    start = fit_dictionary(pool, n_atoms=n_atoms, ridge_alpha=alpha,
                           max_iter=0, seed=5).dictionary
    book = fit_dictionary(pool, n_atoms=n_atoms, ridge_alpha=alpha, seed=5)
    oracle_dict, oracle_hist = _row_space_fit(pool, start, alpha, max_iter=50)
    assert book.n_iter == len(oracle_hist) - 1
    assert np.abs(book.dictionary - oracle_dict).max() <= 1e-12
    bound = max(_gram_form_bound(pool, d, alpha) for d in (start, oracle_dict))
    assert np.abs(np.array(book.objective_history) - oracle_hist).max() <= bound


def test_gram_form_objective_on_exact_low_rank_pool():
    # The pool lies exactly in the span of four orthonormal atoms, so at a
    # tiny ridge the residual almost vanishes and the Gram form's three
    # terms cancel down to it: the case its rounding bound is for.
    rng = np.random.default_rng(3)
    atoms, _ = np.linalg.qr(rng.standard_normal((10, 4)))
    pool = rng.standard_normal((200, 4)) @ atoms.T
    alpha = 1e-10
    book = fit_dictionary(pool, n_atoms=4, ridge_alpha=alpha, max_iter=200, seed=0)
    residual = _residual_objective(pool, book.dictionary,
                                   ridge_encode(book, pool), alpha)
    assert residual < 1e-6 * float(np.sum(pool * pool))
    bound = _gram_form_bound(pool, book.dictionary, alpha)
    assert abs(book.objective - residual) <= bound


def test_fit_memory_is_one_copy_of_the_pool():
    # Past the canonical-order copy, the fit holds only d' x d' and d' x K
    # arrays: its traced peak stays under 1.5x the pool's bytes.
    pool = np.random.default_rng(14).standard_normal((20000, 128))
    tracemalloc.start()
    try:
        fit_dictionary(pool, n_atoms=64, ridge_alpha=10.0, max_iter=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * pool.nbytes


def test_single_atom_matches_rank_one_svd_oracle():
    # With K=1 and a fixed unit atom d, the ridge objective has closed form
    # sum_i (||e||^2 - (d.e)^2/(1+a)); the best atom is the top singular
    # direction. Compare the fit objective to that analytic optimum.
    rng = np.random.default_rng(4)
    pool = rng.standard_normal((60, 5))
    alpha = 0.5
    book = fit_dictionary(pool, n_atoms=1, ridge_alpha=alpha, max_iter=300, seed=0)
    _, s, vt = np.linalg.svd(pool, full_matrices=False)
    best = float(np.sum(pool * pool) - s[0] ** 2 / (1.0 + alpha))
    # the analytic value is a hard floor; the iteration stops within its
    # relative-improvement tolerance of it
    assert book.objective >= best - 1e-9
    assert book.objective == pytest.approx(best, rel=1e-5)
    assert np.abs(np.abs(book.dictionary[:, 0] @ vt[0]) - 1.0) < 1e-3


def test_max_iter_zero_reports_seeded_init():
    rng = np.random.default_rng(5)
    pool = rng.standard_normal((30, 6))
    book = fit_dictionary(pool, n_atoms=3, max_iter=0, seed=9)
    assert book.n_iter == 0
    assert len(book.objective_history) == 1
    # init atoms are normalized pool rows
    norms = np.linalg.norm(book.dictionary, axis=0)
    assert np.abs(norms - 1).max() < 1e-12


def test_objective_monotone_and_atoms_unit():
    rng = np.random.default_rng(6)
    pool = rng.standard_normal((80, 12))
    book = fit_dictionary(pool, n_atoms=16, seed=1)
    hist = book.objective_history
    assert all(a >= b - 1e-10 for a, b in zip(hist, hist[1:]))
    assert np.abs(np.linalg.norm(book.dictionary, axis=0) - 1).max() < 1e-8


def test_fit_invariant_to_row_permutation():
    rng = np.random.default_rng(7)
    pool = rng.standard_normal((50, 8))
    a = fit_dictionary(pool, n_atoms=6, seed=2)
    b = fit_dictionary(pool[rng.permutation(50)], n_atoms=6, seed=2)
    assert abs(a.objective - b.objective) <= 1e-8
    assert np.array_equal(a.dictionary, b.dictionary)


def test_all_zero_pool_rejected():
    with pytest.raises(DegenerateInput):
        fit_dictionary(np.zeros((10, 4)), n_atoms=2)


def test_fewer_rows_than_atoms_warns():
    rng = np.random.default_rng(8)
    with pytest.warns(UserWarning):
        fit_dictionary(rng.standard_normal((3, 4)), n_atoms=6, max_iter=2)


def test_joint_single_source_reduces_to_fit_dictionary():
    rng = np.random.default_rng(9)
    pool = rng.standard_normal((40, 6))
    single = fit_dictionary(pool, n_atoms=5, seed=3)
    joint = fit_joint_dictionary([pool], n_atoms=5, seed=3, fix_maps=True)
    assert abs(joint.objective - single.objective) < 1e-8
    assert np.array_equal(joint.maps[0], np.eye(6))


def test_joint_rotated_copy_aligns():
    rng = np.random.default_rng(10)
    pool = rng.standard_normal((50, 8))
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    joint = fit_joint_dictionary([pool, pool @ q], n_atoms=16,
                                 ridge_alpha=1e-10, seed=0, max_iter=100)
    assert joint.objective < 1e-6 * joint.objective_history[0]
    assert max(joint.orthogonality_history) < 1e-8


def test_joint_objective_monotone():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((30, 6))
    b = rng.standard_normal((30, 9))
    joint = fit_joint_dictionary([a, b], n_atoms=8, seed=1, max_iter=40)
    hist = joint.objective_history
    assert all(x >= y - 1e-10 for x, y in zip(hist, hist[1:]))
    assert max(joint.orthogonality_history) < 1e-8
    assert joint.codes.shape == (30, 8)
    assert joint.maps[0].shape == (6, 6)
    assert joint.maps[1].shape == (9, 6)


def test_joint_free_maps_no_worse_than_identity_maps():
    rng = np.random.default_rng(12)
    pool = rng.standard_normal((40, 7))
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    sources = [pool, pool @ q]
    free = fit_joint_dictionary(sources, n_atoms=10, seed=4, max_iter=80)
    fixed = fit_joint_dictionary(sources, n_atoms=10, seed=4, max_iter=80,
                                 fix_maps=True)
    assert free.objective <= fixed.objective + 1e-9


def test_joint_row_count_mismatch():
    with pytest.raises(MisalignedSources):
        fit_joint_dictionary([np.ones((3, 2)), np.ones((4, 2))], n_atoms=2)
