"""Tridiagonal eigen-machinery: reduction, QL iteration, bisection,
inverse iteration, divide and conquer."""

import numpy as np
import pytest

from repro.lapack77.td_eigen import (hetrd, laev2, orgtr, stebz, stedc,
                                     stein, steqr, sterf, sytrd)

from ..conftest import rand_matrix, tol_for

UPLOS = ["U", "L"]


def sym(rng, n, dtype, hermitian=False):
    a = rand_matrix(rng, n, n, dtype)
    m = a + (np.conj(a.T) if hermitian else a.T)
    if hermitian:
        np.fill_diagonal(m, m.diagonal().real)
    return m


def tridiag(d, e):
    n = len(d)
    t = np.diag(d.astype(np.float64))
    if n > 1:
        t += np.diag(e, 1) + np.diag(e, -1)
    return t


@pytest.mark.parametrize("uplo", UPLOS)
def test_sytrd_similarity(rng, real_dtype, uplo):
    n = 12
    a0 = sym(rng, n, real_dtype)
    a = a0.copy()
    d, e, tau = sytrd(a, uplo)
    q = a.copy()
    orgtr(q, tau, uplo)
    t = np.conj(q.T) @ a0 @ q
    np.testing.assert_allclose(t, tridiag(d, e), rtol=0,
                               atol=tol_for(real_dtype, 300) * max(
                                   1, np.abs(a0).max()))


@pytest.mark.parametrize("uplo", UPLOS)
def test_hetrd_similarity(rng, complex_dtype, uplo):
    n = 10
    a0 = sym(rng, n, complex_dtype, hermitian=True)
    a = a0.copy()
    d, e, tau = hetrd(a, uplo)
    assert d.dtype.kind == "f" and e.dtype.kind == "f"
    q = a.copy()
    orgtr(q, tau, uplo)
    t = np.conj(q.T) @ a0 @ q
    np.testing.assert_allclose(t, tridiag(d, e), rtol=0,
                               atol=tol_for(complex_dtype, 300) * max(
                                   1, np.abs(a0).max()))
    # Q unitary.
    np.testing.assert_allclose(np.conj(q.T) @ q, np.eye(n), rtol=0,
                               atol=tol_for(complex_dtype, 100))


def test_steqr_eigenvalues_match_numpy(rng):
    n = 40
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    ref = np.linalg.eigvalsh(tridiag(d, e))
    dd, ee = d.copy(), e.copy()
    info = steqr(dd, ee, compz="N")
    assert info == 0
    np.testing.assert_allclose(np.sort(dd), np.sort(ref), rtol=1e-10,
                               atol=1e-10)


def test_steqr_eigenvectors(rng):
    n = 25
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    t = tridiag(d, e)
    dd, ee = d.copy(), e.copy()
    z = np.empty((n, n))
    info = steqr(dd, ee, z, compz="I")
    assert info == 0
    # T z_i = w_i z_i, orthonormal z.
    np.testing.assert_allclose(t @ z, z * dd[None, :], atol=1e-9)
    np.testing.assert_allclose(z.T @ z, np.eye(n), atol=1e-10)
    assert np.all(np.diff(dd) >= -1e-12)


def test_steqr_accumulate_mode(rng):
    # compz='V': start from the sytrd Q, end with eigenvectors of A.
    n = 15
    a0 = sym(rng, n, np.float64)
    a = a0.copy()
    d, e, tau = sytrd(a, "L")
    q = a.copy()
    orgtr(q, tau, "L")
    info = steqr(d, e, q, compz="V")
    assert info == 0
    np.testing.assert_allclose(a0 @ q, q * d[None, :], atol=1e-9)


def test_sterf_matches_steqr(rng):
    n = 30
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    d1, e1 = d.copy(), e.copy()
    d2, e2 = d.copy(), e.copy()
    sterf(d1, e1)
    steqr(d2, e2, compz="N")
    np.testing.assert_allclose(d1, d2, rtol=1e-12, atol=1e-12)


def test_laev2_agrees_with_numpy():
    for a, b, c in [(2.0, 1.0, -1.0), (0.0, 3.0, 0.0), (5.0, 0.0, 2.0),
                    (-1.0, 1e-8, -1.0)]:
        rt1, rt2, cs1, sn1 = laev2(a, b, c)
        ref = np.linalg.eigvalsh(np.array([[a, b], [b, c]]))
        np.testing.assert_allclose(sorted([rt1, rt2]), ref, atol=1e-12)
        # Eigenvector check for rt1.
        v = np.array([cs1, sn1])
        m = np.array([[a, b], [b, c]])
        np.testing.assert_allclose(m @ v, rt1 * v, atol=1e-8)


def test_stebz_all(rng):
    n = 30
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    ref = np.linalg.eigvalsh(tridiag(d, e))
    w, m, info = stebz(d, e)
    assert info == 0 and m == n
    np.testing.assert_allclose(w, ref, atol=1e-8)


def test_stebz_index_range(rng):
    n = 20
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    ref = np.linalg.eigvalsh(tridiag(d, e))
    w, m, info = stebz(d, e, il=3, iu=7)
    assert m == 5
    np.testing.assert_allclose(w, ref[3:8], atol=1e-8)


def test_stebz_value_range(rng):
    n = 20
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    ref = np.linalg.eigvalsh(tridiag(d, e))
    vl, vu = -0.5, 1.0
    w, m, info = stebz(d, e, vl=vl, vu=vu)
    expect = ref[(ref > vl) & (ref <= vu)]
    assert m == len(expect)
    np.testing.assert_allclose(w, expect, atol=1e-8)


def test_stein_vectors(rng):
    n = 25
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    t = tridiag(d, e)
    w, m, _ = stebz(d, e, il=0, iu=4)
    z, fail = stein(d, e, w)
    assert fail == 0
    for j in range(m):
        resid = np.linalg.norm(t @ z[:, j] - w[j] * z[:, j])
        assert resid < 1e-7
    # Orthonormality.
    np.testing.assert_allclose(z.T @ z, np.eye(m), atol=1e-7)


@pytest.mark.parametrize("n", [5, 33, 80, 150])
def test_stedc_matches_numpy(n):
    rng = np.random.default_rng(42 + n)
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    t = tridiag(d, e)
    ref = np.linalg.eigvalsh(t)
    dd, ee = d.copy(), e.copy()
    z = np.empty((n, n))
    info = stedc(dd, ee, z, compz="I")
    assert info == 0
    np.testing.assert_allclose(dd, ref, atol=1e-8 * max(1, np.abs(t).max()))
    # Eigenpairs + orthogonality (the Gu–Eisenstat part).
    np.testing.assert_allclose(t @ z, z * dd[None, :], atol=1e-7)
    np.testing.assert_allclose(z.T @ z, np.eye(n), atol=1e-8)


def test_stedc_clustered_eigenvalues():
    # Near-multiple eigenvalues stress deflation + orthogonality.
    n = 64
    rng = np.random.default_rng(7)
    d = np.repeat([1.0, 2.0, 3.0, 4.0], n // 4) + 1e-12 * rng.standard_normal(n)
    e = 1e-10 * np.abs(rng.standard_normal(n - 1)) + 1e-13
    t = tridiag(d, e)
    ref = np.linalg.eigvalsh(t)
    dd, ee = d.copy(), e.copy()
    z = np.empty((n, n))
    info = stedc(dd, ee, z, compz="I")
    assert info == 0
    np.testing.assert_allclose(dd, ref, atol=1e-9)
    np.testing.assert_allclose(z.T @ z, np.eye(n), atol=1e-8)


def test_stedc_eigenvalues_only(rng):
    n = 50
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    ref = np.linalg.eigvalsh(tridiag(d, e))
    dd, ee = d.copy(), e.copy()
    info = stedc(dd, ee, compz="N")
    assert info == 0
    np.testing.assert_allclose(np.sort(dd), ref, atol=1e-9)


# -- QL edge cases -----------------------------------------------------------

def test_steqr_iteration_cap_reports_the_first_unconverged_offdiagonal(rng):
    n = 6
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    assert steqr(d.copy(), e.copy(), compz="N", maxiter_factor=0) == 1
    z = np.empty((n, n))
    assert steqr(d.copy(), e.copy(), z, compz="I", maxiter_factor=0) == 1


def test_steqr_iteration_cap_mid_run_leaves_a_similar_matrix(rng):
    # One sweep per order is too few: the cap hits part way through,
    # and d/e come back as a tridiagonal matrix similar to the input.
    n = 40
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    dd, ee = d.copy(), e.copy()
    info = steqr(dd, ee, compz="N", maxiter_factor=1)
    assert 1 < info <= n
    np.testing.assert_allclose(np.linalg.eigvalsh(tridiag(dd, ee)),
                               np.linalg.eigvalsh(tridiag(d, e)), atol=1e-12)


@pytest.mark.parametrize("compz", ["N", "I"])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_steqr_tiny_orders(rng, n, compz):
    d = rng.standard_normal(n)
    e = rng.standard_normal(max(n - 1, 0))
    t = tridiag(d, e)
    z = np.empty((n, n)) if compz == "I" else None
    assert steqr(d, e, z, compz=compz) == 0
    np.testing.assert_allclose(d, np.linalg.eigvalsh(t), atol=1e-14)
    if z is not None:
        np.testing.assert_allclose(t @ z, z * d[None, :], atol=1e-14)
        np.testing.assert_allclose(z.T @ z, np.eye(n), atol=1e-14)


def test_steqr_exactly_split_matrix(rng):
    # A zero off-diagonal splits T into two blocks iterated independently.
    n = 12
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    e[4] = 0.0
    t = tridiag(d, e)
    dd, ee = d.copy(), e.copy()
    z = np.empty((n, n))
    assert steqr(dd, ee, z, compz="I") == 0
    np.testing.assert_allclose(dd, np.linalg.eigvalsh(t), atol=1e-12)
    np.testing.assert_allclose(t @ z, z * dd[None, :], atol=1e-12)
    # Each eigenvector lives in one block.
    top = np.abs(z[:5]).sum(axis=0) > 0
    bottom = np.abs(z[5:]).sum(axis=0) > 0
    assert not np.any(top & bottom)


@pytest.mark.parametrize("compz", ["N", "I"])
def test_steqr_float32_keeps_dtype(rng, compz):
    # The recurrence runs in double precision and rounds on store.
    n = 30
    d = rng.standard_normal(n).astype(np.float32)
    e = rng.standard_normal(n - 1).astype(np.float32)
    ref = np.linalg.eigvalsh(tridiag(d, e))
    dd, ee = d.copy(), e.copy()
    z = np.empty((n, n), dtype=np.float32) if compz == "I" else None
    assert steqr(dd, ee, z, compz=compz) == 0
    assert dd.dtype == np.float32 and ee.dtype == np.float32
    np.testing.assert_allclose(dd, ref, rtol=0,
                               atol=tol_for(np.float32, 10) * np.abs(ref).max())
    if z is not None:
        assert z.dtype == np.float32
        np.testing.assert_allclose(z.T @ z, np.eye(n),
                                   atol=tol_for(np.float32, 10))


# -- sterf (the root-free iteration) edge cases ------------------------------

@pytest.mark.parametrize("power", [530, -530])
def test_sterf_scales_extreme_blocks(rng, power):
    # Squaring an off-diagonal of 2^530 overflows and one of 2^-530
    # underflows to zero; the block is scaled into range first.
    n = 30
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    t = tridiag(d, e)
    scale = 2.0 ** power
    dd, ee = d * scale, e * scale
    assert sterf(dd, ee) == 0
    np.testing.assert_allclose(
        dd / scale, np.linalg.eigvalsh(t), rtol=0,
        atol=4 * n * np.finfo(np.float64).eps * np.abs(t).sum(axis=1).max())


def test_sterf_nan_diagonal_with_zero_offdiagonals():
    d = np.array([1.0, np.nan, 3.0, 2.0])
    assert sterf(d, np.zeros(3)) == 0
    assert np.isnan(d).sum() == 1
    np.testing.assert_array_equal(d[:3], [1.0, 2.0, 3.0])


def test_sterf_exact_zero_beside_an_infinite_diagonal_splits():
    # The relative split test reads inf · 0 = NaN there; an exact zero
    # still splits, so the finite block keeps its eigenvalues.
    d = np.array([np.inf, 0.0, 1.0])
    assert sterf(d, np.array([0.0, 1.0])) == 0
    np.testing.assert_allclose(d[:2], np.linalg.eigvalsh([[0, 1], [1, 1.]]))
    assert d[2] == np.inf


def test_sterf_offdiagonal_squaring_to_zero_beside_a_nan():
    # 1e-200 squares to an exact zero next to the NaN, where the relative
    # test is false; the zero must split before a shift divides by it.
    d = np.array([np.nan, 1.0, 2.0])
    assert sterf(d, np.array([1e-200, 1.0])) == 0
    np.testing.assert_allclose(d[:2], np.linalg.eigvalsh([[1, 1], [1, 2.]]))
    assert np.isnan(d[2])


@pytest.mark.parametrize("d,e", [
    ([np.nan, 1.0], [1.0]), ([1.0, np.nan], [1.0]), ([1.0, 2.0], [np.nan]),
    ([1.0, np.nan, 2.0], [1.0, 0.0]), ([1.0, np.nan, 2.0], [1.0, 1e-200])],
    ids=["d0", "d1", "e0", "split-by-zero", "split-by-underflow"])
def test_sterf_nan_in_a_2x2_block_is_not_lost(d, e):
    # The 2×2 closed form sees a NaN a + c where the split tests are
    # false; it must not answer ±rt/2 from the finite off-diagonal.
    d, e = np.array(d), np.array(e)
    assert sterf(d, e) > 0 or np.isnan(d).any()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["d0", "d3", "d6", "e0", "e3", "e5"])
def test_sterf_nonfinite_entry_terminates(rng, value, where):
    n = 7
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    (d if where[0] == "d" else e)[int(where[1])] = value
    with np.errstate(all="ignore"):
        info = sterf(d, e)
    assert info >= 0
    # Never a finite answer reported as converged.
    assert info > 0 or not np.all(np.isfinite(d))


def test_sterf_iteration_cap_reports_unconverged_offdiagonals(rng):
    n = 6
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    assert sterf(d.copy(), e.copy(), maxiter_factor=0) > 0


def test_sterf_iteration_cap_mid_run_leaves_a_matrix_with_its_spectrum(rng):
    n = 40
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    dd, ee = d.copy(), e.copy()
    info = sterf(dd, ee, maxiter_factor=1)
    assert 0 < info == np.count_nonzero(ee)
    np.testing.assert_allclose(np.linalg.eigvalsh(tridiag(dd, ee)),
                               np.linalg.eigvalsh(tridiag(d, e)), atol=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_sterf_tiny_orders(rng, n):
    d = rng.standard_normal(n)
    e = rng.standard_normal(max(n - 1, 0))
    t = tridiag(d, e)
    assert sterf(d, e) == 0
    np.testing.assert_allclose(d, np.linalg.eigvalsh(t), atol=1e-14)


def test_sterf_exactly_split_matrix(rng):
    n = 12
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    e[[3, 4, 8]] = 0.0
    t = tridiag(d, e)
    assert sterf(d, e) == 0
    np.testing.assert_allclose(d, np.linalg.eigvalsh(t), atol=1e-13)
    assert not e.any()


def test_sterf_float32_keeps_dtype(rng):
    n = 30
    d = rng.standard_normal(n).astype(np.float32)
    e = rng.standard_normal(n - 1).astype(np.float32)
    ref = np.linalg.eigvalsh(tridiag(d, e))
    assert sterf(d, e) == 0
    assert d.dtype == np.float32 and e.dtype == np.float32
    np.testing.assert_allclose(d, ref, rtol=0,
                               atol=tol_for(np.float32, 10) * np.abs(ref).max())
