import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ucs.errors import EmptyMask, NonFiniteValue, TooFewRows
from ucs.preprocess import (
    fit_pca,
    fit_standardizer,
    l2_normalize_rows,
    pool_tokens,
    preprocess_pool,
)


def test_mean_pool_single_unmasked_row():
    h = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(pool_tokens(h, np.array([1.0, 0.0]), "mean"), [1.0, 2.0])


def test_mean_pool_arithmetic_mean():
    h = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(pool_tokens(h, np.array([1.0, 1.0]), "mean"), [2.0, 3.0])


def test_mean_pool_empty_mask():
    with pytest.raises(EmptyMask):
        pool_tokens(np.ones((2, 2)), np.zeros(2), "mean")


def test_first_and_last_pooling_skip_masked_tokens():
    h = np.arange(8.0).reshape(4, 2)
    mask = np.array([0.0, 1.0, 1.0, 0.0])
    assert np.array_equal(pool_tokens(h, mask, "first"), h[1])
    assert np.array_equal(pool_tokens(h, mask, "last"), h[2])
    assert np.array_equal(pool_tokens(h, mask, "mean"), (h[1] + h[2]) / 2)


@pytest.mark.parametrize("mode", ["mean", "first", "last"])
def test_every_pooling_mode_checks_the_mask(mode):
    # first and last used to skip both checks: a short mask pooled h[1], and
    # a mask summing to 0 pooled its first or last nonzero entry
    h = np.arange(15.0).reshape(5, 3)
    with pytest.raises(ValueError, match="mask length 3 != token count 5"):
        pool_tokens(h, np.array([1.0, 1.0, 0.0]), mode)
    with pytest.raises(EmptyMask):
        pool_tokens(h, np.zeros(5), mode)
    with pytest.raises(ValueError, match=r"^mask weight -1.0 of token 1 is not >= 0$"):
        pool_tokens(h, np.array([1.0, -1.0, 0.0, 0.0, 0.0]), mode)
    # +inf passed the ">= 0" check: first and last pooled its token as an
    # ordinary nonzero weight, and mean failed without naming the token
    with pytest.raises(ValueError, match=r"^mask weight inf of token 0 is not finite$"):
        pool_tokens(h, np.array([np.inf, 1.0, 0.0, 0.0, 0.0]), mode)
    with pytest.raises(ValueError, match=r"^mask weight -inf of token 1 is not >= 0$"):
        pool_tokens(h, np.array([1.0, -np.inf, np.inf, 0.0, 0.0]), mode)


def test_mask_is_a_non_negative_weight_vector():
    # a negative weight used to pool [-2, -1.5], outside the tokens' convex hull
    h = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    for bad in (-1.0, -1e-300, np.nan):
        with pytest.raises(ValueError, match="of token 2 is not >= 0"):
            pool_tokens(h, np.array([1.0, 2.0, bad]), "mean")
    assert np.array_equal(pool_tokens(h, np.array([1.0, 2.0, 0.0]), "mean"), [1 / 3, 2 / 3])


def test_mean_pool_weights_rows_by_the_mask():
    rng = np.random.default_rng(6)
    for _ in range(20):
        h = rng.standard_normal((7, 4))
        mask = rng.integers(0, 3, size=7).astype(np.float64)
        mask[rng.integers(7)] += 1.0
        want = (mask @ h) / mask.sum()
        assert np.array_equal(pool_tokens(h, mask, "mean"), want)


@pytest.mark.parametrize("token, mask", [
    (2.0, [1e308, 0.0, 0.0, 0.0, 0.0]),  # m @ h overflows
    (1e-300, [1e308, 1e308, 0.0, 0.0, 0.0]),  # m.sum() overflows, m @ h does not
], ids=["weighted-sum", "weight-sum"])
def test_mean_pool_refuses_a_mean_that_is_not_finite(token, mask):
    # both emitted numpy's overflow warning, and returned inf and 0.0 rows
    h = np.full((5, 8), token)
    message = "^the mask-weighted mean of the tokens is not finite$"
    with pytest.raises(NonFiniteValue, match=message):
        pool_tokens(h, np.array(mask), "mean")
    # first and last read no sum: the same mask pools without a warning
    assert np.array_equal(pool_tokens(h, np.array(mask), "first"), h[0])


def test_l2_normalize_three_four_five():
    out = l2_normalize_rows(np.array([[3.0, 4.0]]))
    assert np.allclose(out, [[0.6, 0.8]], atol=1e-11)


def test_l2_normalize_zero_row_stays_zero():
    assert np.array_equal(l2_normalize_rows(np.zeros((1, 3))), np.zeros((1, 3)))


def test_standardizer_two_points():
    s = fit_standardizer(np.array([[0.0], [2.0]]))
    assert s.mean[0] == 1.0 and s.std[0] == 1.0
    assert np.array_equal(s.transform(np.array([[0.0], [2.0]])), [[-1.0], [1.0]])


def test_standardizer_constant_column_maps_to_zero():
    s = fit_standardizer(np.array([[5.0, 1.0], [5.0, 3.0]]))
    out = s.transform(np.array([[5.0, 1.0], [5.0, 3.0]]))
    assert np.array_equal(out[:, 0], [0.0, 0.0])


def test_standardizer_random_matrix_centers_columns():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((100, 4)) * 5 + 2
    out = fit_standardizer(x).transform(x)
    assert np.abs(out.mean(axis=0)).max() < 1e-9
    assert np.abs(out.std(axis=0) - 1).max() < 1e-9


def test_standardizer_needs_two_rows():
    with pytest.raises(TooFewRows):
        fit_standardizer(np.ones((1, 2)))


def test_pca_collinear_points():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    basis = fit_pca(x, 2)
    assert np.allclose(np.abs(basis.components[:, 0]), 1 / np.sqrt(2), atol=1e-12)
    assert basis.explained_variance[1] < 1e-24


def test_pca_complete_basis_reconstructs():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 6))
    basis = fit_pca(x, 6)
    centered = x - basis.mean
    scores = basis.transform(x)
    assert np.abs(scores @ basis.components.T - centered).max() < 1e-8


def test_pca_explained_matches_eigendecomposition():
    # Independent oracle: eigenvalues of the sample covariance (ddof=1).
    rng = np.random.default_rng(7)
    x = rng.standard_normal((50, 8))
    basis = fit_pca(x, 3)
    cov = np.cov(x, rowvar=False, ddof=1)
    eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert np.allclose(basis.explained_variance, eig[:3], atol=1e-10)


def test_pca_orthonormal_columns_and_variance_order():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((30, 5))
    basis = fit_pca(x, 4)
    gram = basis.components.T @ basis.components
    assert np.abs(gram - np.eye(4)).max() < 1e-8
    assert np.all(np.diff(basis.explained_variance) <= 1e-12)


def test_pca_score_covariance_is_diagonal():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((60, 7))
    basis = fit_pca(x, 4)
    scores = basis.transform(x)
    cov = np.cov(scores, rowvar=False, ddof=1)
    assert np.abs(cov - np.diag(basis.explained_variance)).max() < 1e-8


def test_pca_row_order_invariant():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((25, 4))
    b1 = fit_pca(x, 3)
    b2 = fit_pca(x[rng.permutation(25)], 3)
    assert np.allclose(b1.components, b2.components, atol=1e-9)


def test_preprocess_pool_caps_width():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((10, 20))
    reduced, _, basis = preprocess_pool(x, d_prime=128)
    assert reduced.shape == (10, 9)  # capped at N - 1
    assert basis.components.shape == (20, 9)


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(1, 5)),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    )
)
def test_l2_normalized_rows_have_norm_at_most_one(x):
    norms = np.linalg.norm(l2_normalize_rows(x), axis=1)
    assert np.all(norms <= 1.0 + 1e-12)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_l2_normalize_rows_whose_squares_overflow_or_underflow(scale):
    # such a row used to come out as a zero row; the other rows keep the
    # exact bits of a plain divide by the norm
    x = np.array([[scale, scale], [1.0, 2.0], [0.0, 0.0]])
    out = l2_normalize_rows(x, eps=0.0)
    assert np.allclose(out[0], [np.sqrt(0.5), np.sqrt(0.5)], rtol=1e-15, atol=0)
    assert np.array_equal(out[1], x[1] / np.linalg.norm(x[1]))
    assert np.array_equal(out[2], [0.0, 0.0])


def _pool_with_spectrum(rng, n, singular_values):
    """A centred n x d pool X = U diag(s) V^T with the given singular values."""
    d = len(singular_values)
    u = rng.standard_normal((n, d))
    u, _ = np.linalg.qr(u - u.mean(axis=0))  # orthonormal, and orthogonal to the ones vector
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (u * np.asarray(singular_values)) @ v.T


@pytest.mark.parametrize("seed, n, d_prime", [(0, 200, 4), (1, 50, 8), (2, 1000, 3)])
def test_pca_matches_an_svd_oracle_on_separated_spectra(seed, n, d_prime):
    # Independent oracle: the SVD of the centred pool. Every eigengap of
    # X^T X here is above 1, against a rounding bound of about 3e-12, so each
    # direction is determined: equal up to sign to 1e-9.
    rng = np.random.default_rng(seed)
    s = 30.0 * 0.6 ** np.arange(8)
    x = _pool_with_spectrum(rng, n, s) + rng.standard_normal(8)
    basis = fit_pca(x, d_prime)
    _, sv, vt = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
    oracle = vt[:d_prime].T
    signs = np.sign(np.sum(basis.components * oracle, axis=0))
    assert np.abs(basis.components - oracle * signs).max() < 1e-9
    assert np.allclose(basis.explained_variance, sv[:d_prime] ** 2 / (n - 1),
                       rtol=1e-10, atol=0)


def test_pca_small_variances_come_from_the_scores():
    # singular values over eight decades: the eigenvalues of X^T X carry an
    # absolute error near 2^-52 * 1e8, here 27% of the smallest (1e-8),
    # while ||X v||^2 is within 7e-6 of it
    s = np.array([1e4, 1e2, 1.0, 1e-2, 1e-4])
    x = _pool_with_spectrum(np.random.default_rng(37), 100, s) + 5.0
    basis = fit_pca(x, 5)
    assert np.allclose(basis.explained_variance, s ** 2 / 99, rtol=1e-3, atol=0)


@pytest.mark.parametrize("pool", ["random", "all-gaps-zero"])
def test_full_width_reduction_keeps_pairwise_distances(pool):
    # at d' = d the projection is a rotation of the standardized pool,
    # whatever the eigengaps: distances agree to rounding
    if pool == "random":
        x = np.random.default_rng(23).standard_normal((40, 6)) * [1, 2, 3, 4, 5, 6]
    else:
        x = np.vstack([np.eye(6), -np.eye(6)])  # X^T X is a multiple of I
    reduced, scaler, _ = preprocess_pool(x, d_prime=6)
    scaled = scaler.transform(x)

    def distances(a):
        return np.linalg.norm(a[:, None, :] - a[None, :, :], axis=2)

    want = distances(scaled)
    assert np.abs(distances(reduced) - want).max() < 1e-12 * want.max()


def test_pca_rank_deficient_pool_keeps_orthonormal_components():
    # N < d and a constant column: X^T X has rank N - 1 < d
    rng = np.random.default_rng(29)
    x = rng.standard_normal((6, 10))
    x[:, 4] = 7.0
    basis = fit_pca(x, 5)
    gram = basis.components.T @ basis.components
    assert np.abs(gram - np.eye(5)).max() < 1e-12
    # the constant column carries no variance, so no direction uses it
    assert np.abs(basis.components[4]).max() < 1e-12
    # the five directions span the centred rows
    centered = x - basis.mean
    scores = basis.transform(x)
    assert np.abs(scores @ basis.components.T - centered).max() < 1e-12
    assert np.all(basis.explained_variance > 0)


@pytest.mark.parametrize("standardize, l2norm", [(True, False), (False, True)])
def test_preprocess_pool_rows_are_the_basis_transform(standardize, l2norm):
    x = np.random.default_rng(31).standard_normal((80, 12)) + 3.0
    reduced, scaler, basis = preprocess_pool(x, d_prime=5, standardize=standardize,
                                             l2norm=l2norm)
    source = l2_normalize_rows(x) if l2norm else x
    assert np.array_equal(reduced, basis.transform(scaler.transform(source)))


def _pool_with(value):
    x = np.random.default_rng(4).standard_normal((30, 6))
    x[4, 2] = value
    return x


@pytest.mark.parametrize("value", [1e160, 1e300])
def test_standardizer_refuses_a_variance_that_overflows(value):
    # the square of 1e160 overflows; numpy used to warn and return std inf
    with pytest.raises(NonFiniteValue, match="^the variance of column 2 is not finite"):
        fit_standardizer(_pool_with(value))
    with pytest.raises(NonFiniteValue, match="^the variance of column 2 is not finite"):
        preprocess_pool(_pool_with(value), d_prime=4)


@pytest.mark.parametrize("value", [1e160, 1e300, 1.7e308])
def test_pca_refuses_an_x_t_x_that_overflows(value):
    # without standardization the centred pool's X^T X holds value**2
    message = "^the centred pool's X\\^T X is not finite"
    with pytest.raises(NonFiniteValue, match=message):
        preprocess_pool(_pool_with(value), d_prime=4, standardize=False)
    with pytest.raises(NonFiniteValue, match=message):
        fit_pca(_pool_with(value), 4)


def test_pca_refuses_a_mean_that_overflows():
    # the column sum overflows, so the mean is inf and centring gives nan
    x = _pool_with(1.7e308)
    x[5, 2] = 1.7e308
    with pytest.raises(NonFiniteValue):
        preprocess_pool(x, d_prime=4, standardize=False)
    with pytest.raises(NonFiniteValue, match="^the variance of column 2 is not finite"):
        preprocess_pool(x, d_prime=4)

