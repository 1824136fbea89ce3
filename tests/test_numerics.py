import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipcpanel.errors import (
    InvalidDomainError,
    NonFiniteError,
    NonSymmetricError,
    RankDeficientError,
)
from ipcpanel.numerics import annihilator_apply, chi2_sf, top_svd_pairs, top_sym_eigh


def random_symmetric(seed, m=4, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, scale, (m, m))
    return 0.5 * (a + a.T)


def full_eigh(a):
    """Full spectrum through the library's eigensolver, k = m."""
    return top_sym_eigh(a, np.shape(a)[0])


# --- top_sym_eigh ------------------------------------------------------------

def test_identity_spectrum():
    values, vectors = full_eigh(np.eye(3))
    assert np.allclose(values, 1.0)
    assert np.allclose(vectors.T @ vectors, np.eye(3), atol=1e-12)


def test_diagonal_spectrum_sorted_descending():
    values, vectors = full_eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(values, [3.0, 2.0, 1.0])
    # permuted identity columns, sign-fixed to +1
    expected = np.zeros((3, 3))
    expected[0, 0] = expected[2, 1] = expected[1, 2] = 1.0
    assert np.allclose(vectors, expected, atol=1e-12)


def bisect_eigenvalues(a, tol=1e-12):
    """Roots of det(a - lam I) located by sign changes + bisection (oracle)."""
    m = a.shape[0]
    radius = np.abs(a).sum(axis=1).max() + 1.0  # Gershgorin bound
    grid = np.linspace(-radius, radius, 20001)
    dets = [np.linalg.det(a - lam * np.eye(m)) for lam in grid]
    roots = []
    for lo, hi, dlo, dhi in zip(grid[:-1], grid[1:], dets[:-1], dets[1:]):
        if dlo == 0.0:
            roots.append(lo)
            continue
        if dlo * dhi < 0:
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                dmid = np.linalg.det(a - mid * np.eye(m))
                if dlo * dmid <= 0:
                    hi = mid
                else:
                    lo, dlo = mid, dmid
            roots.append(0.5 * (lo + hi))
    return sorted(roots, reverse=True)


def test_random_4x4_matches_determinant_bisection_oracle():
    a = random_symmetric(42, m=4)
    expected = bisect_eigenvalues(a)
    assert len(expected) == 4  # distinct roots for a generic draw
    values, _ = full_eigh(a)
    assert np.allclose(values, expected, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8))
def test_reconstruction_trace_orthonormality(seed, m):
    a = random_symmetric(seed, m=m)
    values, vectors = full_eigh(a)
    norm = max(np.linalg.norm(a), 1e-30)
    assert np.linalg.norm(a - vectors @ np.diag(values) @ vectors.T) <= 1e-8 * norm
    assert abs(np.trace(a) - values.sum()) <= 1e-8 * norm
    assert np.linalg.norm(vectors.T @ vectors - np.eye(m)) <= 1e-10 * m
    assert np.all(np.diff(values) <= 1e-12 * norm)
    for k in range(m):
        assert a @ vectors[:, k] == pytest.approx(values[k] * vectors[:, k], abs=1e-8 * norm)


def test_sign_convention_is_deterministic():
    a = random_symmetric(7, m=5)
    (_, first), (_, second) = full_eigh(a), full_eigh(a.copy())
    assert np.array_equal(first, second)
    idx = np.argmax(np.abs(first), axis=0)
    assert np.all(first[idx, np.arange(5)] > 0)


def test_top_sym_eigh_matches_full():
    a = random_symmetric(3, m=10)
    values, vectors = top_sym_eigh(a, 4)
    full_values, full_vectors = np.linalg.eigh(a)  # ascending
    assert np.allclose(values, full_values[::-1][:4], atol=1e-10)
    assert np.allclose(np.abs(vectors.T @ full_vectors[:, ::-1][:, :4]), np.eye(4), atol=1e-8)


def test_rejects_asymmetric_and_nonfinite():
    with pytest.raises(NonSymmetricError):
        full_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NonFiniteError):
        full_eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NonSymmetricError):
        full_eigh(np.ones((2, 3)))


# --- top_svd_pairs ------------------------------------------------------------

@pytest.mark.parametrize("rank", [None, 2])
def test_top_svd_pairs_match_primal_eigh(rank):
    rng = np.random.default_rng(21)
    n, t, k = 8, 30, 5
    u = rng.normal(size=(n, t))
    if rank is not None:
        u = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, t))
    values, vectors = top_svd_pairs(u, k)
    want_values = np.linalg.eigvalsh(u.T @ u / n)[::-1][:k]
    assert np.allclose(values, want_values, rtol=0.0, atol=1e-10 * want_values[0])
    assert np.allclose(vectors.T @ vectors, np.eye(k), atol=1e-12)
    idx = np.argmax(np.abs(vectors), axis=0)
    assert np.all(vectors[idx, np.arange(k)] > 0)
    # distinct nonzero eigenvalues pin their vectors, which then carry the
    # same signs as top_sym_eigh's
    pinned = rank or k
    _, primal = top_sym_eigh(u.T @ u / n, k)
    assert np.allclose(vectors[:, :pinned], primal[:, :pinned], atol=1e-8)


def test_top_svd_pairs_rejects_nonfinite_and_out_of_range_k():
    u = np.ones((3, 7))
    with pytest.raises(NonFiniteError):
        top_svd_pairs(np.where(np.eye(3, 7) > 0, np.nan, u), 1)
    with pytest.raises(InvalidDomainError):
        top_svd_pairs(u, 4)
    with pytest.raises(InvalidDomainError):
        top_svd_pairs(u, -1)
    values, vectors = top_svd_pairs(u, 0)
    assert values.shape == (0,) and vectors.shape == (7, 0)


# --- annihilator_apply --------------------------------------------------------

def test_coordinate_projector():
    f = np.array([[1.0], [0.0]])
    v = np.array([[3.0], [4.0]])
    assert np.allclose(annihilator_apply(f, v), [[0.0], [4.0]])


def test_annihilates_own_columns():
    rng = np.random.default_rng(0)
    f = rng.normal(size=(6, 2))
    assert np.allclose(annihilator_apply(f, f), 0.0, atol=1e-12)


def test_matches_two_by_two_normal_equation_oracle():
    rng = np.random.default_rng(5)
    f = rng.normal(size=(6, 2))
    v = rng.normal(size=(6, 3))
    g = f.T @ f
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    g_inv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det
    expected = v - f @ (g_inv @ (f.T @ v))
    assert np.allclose(annihilator_apply(f, v), expected, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_idempotent_orthogonal_and_linear(seed):
    rng = np.random.default_rng(seed)
    t, k = 8, 3
    f = rng.normal(size=(t, k))
    u = rng.normal(size=(t, 2))
    v = rng.normal(size=(t, 2))
    once = annihilator_apply(f, v)
    assert np.allclose(annihilator_apply(f, once), once, atol=1e-10)
    assert np.linalg.norm(f.T @ once) <= 1e-8 * max(np.linalg.norm(v), 1.0)
    combo = annihilator_apply(f, 2.0 * u - 3.0 * v)
    assert np.allclose(combo, 2.0 * annihilator_apply(f, u) - 3.0 * once, atol=1e-10)


def test_empty_factor_matrix_is_identity():
    v = np.arange(12.0).reshape(6, 2)
    out = annihilator_apply(np.zeros((6, 0)), v)
    assert np.array_equal(out, v)


def test_rank_deficient_factor_rejected():
    f = np.ones((5, 2))  # duplicated column
    with pytest.raises(RankDeficientError):
        annihilator_apply(f, np.eye(5))


# --- chi2_sf -------------------------------------------------------------------

def chi2_cdf_quadrature(x, k, panels=4000):
    """Simpson quadrature of the density after u = sqrt(x) substitution.

    The transformed integrand 2 u^{k-1} exp(-u^2/2) / (2^{k/2} Gamma(k/2))
    is smooth at zero for every k >= 1 (oracle path).
    """
    norm = 2.0 / (2.0 ** (k / 2.0) * math.gamma(k / 2.0))

    def integrand(u):
        return norm * u ** (k - 1) * math.exp(-0.5 * u * u)

    hi = math.sqrt(x)
    grid = np.linspace(0.0, hi, 2 * panels + 1)
    vals = np.array([integrand(u) for u in grid])
    h = hi / (2 * panels)
    return h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1::2].sum() + 2 * vals[2:-1:2].sum())


def test_zero_gives_full_mass():
    for k in (1, 2, 5, 10):
        assert chi2_sf(0.0, k) == 1.0


def test_two_degrees_closed_form():
    # for k = 2 the survival function is exp(-x/2)
    assert chi2_sf(5.991, 2) == pytest.approx(math.exp(-5.991 / 2.0), abs=1e-10)
    assert chi2_sf(5.991, 2) == pytest.approx(0.0500, abs=1e-3)


def test_one_degree_against_quadrature():
    assert chi2_sf(3.841, 1) == pytest.approx(1.0 - chi2_cdf_quadrature(3.841, 1), abs=1e-8)
    assert chi2_sf(3.841, 1) == pytest.approx(0.0500, abs=1e-3)


def test_sf_plus_cdf_is_one_on_grid():
    for k in range(1, 11):
        for x in np.linspace(0.1, 20.0, 15):
            assert chi2_sf(float(x), k) + chi2_cdf_quadrature(float(x), k) == pytest.approx(
                1.0, abs=1e-6
            )


@settings(max_examples=50, deadline=None)
@given(
    st.floats(0.0, 60.0), st.floats(0.001, 20.0), st.integers(1, 12)
)
def test_monotone_decreasing_in_x(x, step, k):
    assert chi2_sf(x + step, k) <= chi2_sf(x, k) + 1e-12


def test_domain_errors():
    with pytest.raises(InvalidDomainError):
        chi2_sf(-0.1, 2)
    with pytest.raises(InvalidDomainError):
        chi2_sf(1.0, 0)
    with pytest.raises(InvalidDomainError):
        chi2_sf(float("nan"), 1)


def test_extreme_tails():
    assert chi2_sf(1e4, 2) == pytest.approx(0.0, abs=1e-300)
    assert chi2_sf(1e-12, 5) == pytest.approx(1.0, abs=1e-9)
