"""LAPACK90 linear-equation drivers: generic dispatch, optional args,
INFO semantics."""

import warnings

import numpy as np
import pytest

from repro import (Info, IllegalArgument, NotPositiveDefinite,
                   SingularMatrix, faults)
from repro.core import (la_gbsv, la_gesv, la_gtsv, la_hesv, la_hpsv,
                        la_pbsv, la_posv, la_ppsv, la_ptsv, la_spsv,
                        la_sysv)
from repro.backends import available_backends
from repro.storage import full_to_band, full_to_sym_band, pack

from ..conftest import (rand_matrix, rand_vector, spd_matrix, tol_for,
                        well_conditioned)


class TestLaGesv:
    def test_matrix_rhs(self, rng, dtype):
        n, nrhs = 12, 3
        a0 = well_conditioned(rng, n, dtype)
        x_true = rand_matrix(rng, n, nrhs, dtype)
        b = (a0 @ x_true).astype(dtype)
        a = a0.copy()
        out = la_gesv(a, b)
        assert out is b
        np.testing.assert_allclose(b, x_true, rtol=tol_for(dtype, 1e4),
                                   atol=tol_for(dtype, 1e4))

    def test_vector_rhs_generic_shape(self, rng, dtype):
        # The paper's xGESV1_F90 resolution: B of shape (:).
        n = 9
        a0 = well_conditioned(rng, n, dtype)
        x_true = rand_vector(rng, n, dtype)
        b = (a0 @ x_true).astype(dtype)
        la_gesv(a0.copy(), b)
        np.testing.assert_allclose(b, x_true, rtol=tol_for(dtype, 1e4),
                                   atol=tol_for(dtype, 1e4))

    def test_optional_ipiv_filled(self, rng):
        n = 6
        a = well_conditioned(rng, n, np.float64)
        b = rand_vector(rng, n, np.float64)
        ipiv = np.zeros(n, dtype=np.int64)
        la_gesv(a, b, ipiv=ipiv)
        assert np.all(ipiv >= np.arange(n) - 0)  # partial pivoting: >= row

    def test_a_overwritten_by_lu(self, rng):
        n = 5
        a0 = well_conditioned(rng, n, np.float64)
        a = a0.copy()
        b = rand_vector(rng, n, np.float64)
        ipiv = np.zeros(n, dtype=np.int64)
        la_gesv(a, b, ipiv=ipiv)
        from ..lapack77.test_lu import reconstruct_lu
        rec = reconstruct_lu(a, ipiv, n, n)
        np.testing.assert_allclose(rec, a0, atol=1e-10)

    def test_info_reports_singular(self):
        a = np.ones((3, 3))
        b = np.ones(3)
        info = Info()
        la_gesv(a, b, info=info)
        assert info.value > 0

    def test_raises_singular_without_info(self):
        with pytest.raises(SingularMatrix):
            la_gesv(np.ones((3, 3)), np.ones(3))

    def test_bad_args_info_codes(self):
        info = Info()
        la_gesv(np.ones((2, 3)), np.ones(2), info=info)
        assert info == -1
        la_gesv(np.eye(3), np.ones(4), info=info)
        assert info == -2
        la_gesv(np.eye(3), np.ones(3), ipiv=np.zeros(1, np.int64),
                info=info)
        assert info == -3

    def test_bad_args_raise_without_info(self):
        with pytest.raises(IllegalArgument) as e:
            la_gesv(np.ones((2, 3)), np.ones(2))
        assert e.value.info == -1

    def test_integer_input_rejected_cleanly(self):
        # Integer arrays are not a LAPACK type; in-place factorization
        # cannot proceed.  numpy raises a casting error — acceptable
        # behaviour documented here.
        a = np.arange(9).reshape(3, 3) + np.eye(3, dtype=int) * 10
        b = np.ones(3)
        with pytest.raises(Exception):
            la_gesv(a, b)


@pytest.mark.parametrize("uplo", ["U", "L"])
def test_la_posv(rng, dtype, uplo):
    n = 10
    a0 = spd_matrix(rng, n, dtype)
    x_true = rand_vector(rng, n, dtype)
    b = (a0 @ x_true).astype(dtype)
    la_posv(a0.copy(), b, uplo=uplo)
    np.testing.assert_allclose(b, x_true, rtol=tol_for(dtype, 1e4),
                               atol=tol_for(dtype, 1e4))


def test_la_posv_not_pd():
    a = np.eye(3)
    a[1, 1] = -1
    info = Info()
    la_posv(a, np.ones(3), info=info)
    assert info.value == 2
    with pytest.raises(NotPositiveDefinite):
        la_posv(np.diag([1.0, -1.0]), np.ones(2))


@pytest.mark.parametrize("backend", ["reference", "accelerated"])
def test_la_posv_infinite_leading_block(backend):
    """DESIGN §7: an SPD matrix whose leading 2x2 block is infinite.
    The reference Cholesky meets ``inf - inf`` in the second pivot and
    reports ``Info`` 2 (a NaN pivot), leaving ``b`` unsolved.  SciPy's
    ``dposv`` keeps both leading pivots infinite, reports ``Info`` 0
    and returns a finite ``x`` whose first two entries are 0."""
    if backend not in available_backends():
        pytest.skip("backend not available")
    faults.chaos_clear()          # an escalated posv answers on reference
    g = np.random.default_rng(3).standard_normal((4, 4))
    a = g @ g.T + 4 * np.eye(4)
    a[:2, :2] = np.inf
    b = np.ones(4)
    info = Info()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        la_posv(a, b, info=info, backend=backend)
    if backend == "reference":
        assert info.value == 2 and np.isnan(a[1, 1])
        assert np.array_equal(b, np.ones(4))
    else:
        assert info.value == 0 and np.isinf(a.diagonal()[:2]).all()
        assert np.isfinite(b).all() and not b[:2].any()


def test_la_gbsv_default_kl(rng, dtype):
    n, kl, ku = 15, 2, 2
    a = rand_matrix(rng, n, n, dtype)
    for i in range(n):
        for j in range(n):
            if abs(i - j) > kl:
                a[i, j] = 0
    a[np.diag_indices(n)] += 4
    ab = np.zeros((2 * kl + ku + 1, n), dtype=dtype)
    ab[kl:, :] = full_to_band(a, kl, ku)
    x_true = rand_vector(rng, n, dtype)
    b = (a @ x_true).astype(dtype)
    la_gbsv(ab, b)  # kl inferred: (rows-1)//3 = 2
    np.testing.assert_allclose(b, x_true, rtol=tol_for(dtype, 1e4),
                               atol=tol_for(dtype, 1e4))


def test_la_gtsv(rng, dtype):
    n = 14
    dl = rand_vector(rng, n - 1, dtype)
    d = rand_vector(rng, n, dtype) + 4
    du = rand_vector(rng, n - 1, dtype)
    a = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
    x_true = rand_vector(rng, n, dtype)
    b = (a @ x_true).astype(dtype)
    la_gtsv(dl, d, du, b)
    np.testing.assert_allclose(b, x_true, rtol=tol_for(dtype, 1e4),
                               atol=tol_for(dtype, 1e4))


def test_la_gtsv_length_mismatch():
    info = Info()
    la_gtsv(np.ones(3), np.ones(3), np.ones(2), np.ones(3), info=info)
    assert info == -1


@pytest.mark.parametrize("uplo", ["U", "L"])
def test_la_ppsv(rng, dtype, uplo):
    n = 8
    a = spd_matrix(rng, n, dtype)
    ap = pack(a, uplo=uplo)
    x_true = rand_vector(rng, n, dtype)
    b = (a @ x_true).astype(dtype)
    la_ppsv(ap, b, uplo=uplo)
    np.testing.assert_allclose(b, x_true, rtol=tol_for(dtype, 1e4),
                               atol=tol_for(dtype, 1e4))


def test_la_ppsv_bad_packed_length():
    info = Info()
    la_ppsv(np.ones(5), np.ones(3), info=info)  # needs 6 for n=3
    assert info == -1


@pytest.mark.parametrize("uplo", ["U", "L"])
def test_la_pbsv(rng, dtype, uplo):
    n, kd = 12, 2
    a = spd_matrix(rng, n, dtype)
    for i in range(n):
        for j in range(n):
            if abs(i - j) > kd:
                a[i, j] = 0
    a[np.diag_indices(n)] += n
    ab = full_to_sym_band(a, kd, uplo=uplo)
    x_true = rand_vector(rng, n, dtype)
    b = (a @ x_true).astype(dtype)
    la_pbsv(ab, b, uplo=uplo)
    np.testing.assert_allclose(b, x_true, rtol=tol_for(dtype, 1e4),
                               atol=tol_for(dtype, 1e4))


def test_la_ptsv(rng, dtype):
    n = 10
    e = rand_vector(rng, n - 1, dtype)
    d = np.abs(rand_vector(rng, n, np.float64)) + 3
    a = np.diag(d.astype(np.result_type(dtype, np.float64))) \
        + np.diag(e, -1) + np.diag(np.conj(e), 1)
    x_true = rand_vector(rng, n, dtype)
    b = (a @ x_true).astype(np.result_type(dtype, np.float64))
    la_ptsv(d, e, b)
    np.testing.assert_allclose(b, x_true, rtol=tol_for(dtype, 1e4),
                               atol=tol_for(dtype, 1e4))


@pytest.mark.parametrize("uplo", ["U", "L"])
def test_la_sysv(rng, dtype, uplo):
    n = 11
    a = rand_matrix(rng, n, n, dtype)
    a = a + a.T
    a[np.diag_indices(n)] += (np.arange(n) - n / 2).astype(a.dtype)
    x_true = rand_vector(rng, n, dtype)
    b = (a @ x_true).astype(dtype)
    ipiv = np.zeros(n, dtype=np.int64)
    la_sysv(a.copy(), b, uplo=uplo, ipiv=ipiv)
    np.testing.assert_allclose(b, x_true, rtol=tol_for(dtype, 3e4),
                               atol=tol_for(dtype, 3e4))


def test_la_hesv(rng, complex_dtype):
    n = 9
    a = rand_matrix(rng, n, n, complex_dtype)
    a = a + np.conj(a.T)
    np.fill_diagonal(a, a.diagonal().real + np.arange(n) - n / 2)
    x_true = rand_vector(rng, n, complex_dtype)
    b = (a @ x_true).astype(complex_dtype)
    la_hesv(a.copy(), b)
    np.testing.assert_allclose(b, x_true, rtol=tol_for(complex_dtype, 3e4),
                               atol=tol_for(complex_dtype, 3e4))


def test_la_spsv_la_hpsv(rng):
    n = 8
    a = rand_matrix(rng, n, n, np.float64)
    a = a + a.T
    a[np.diag_indices(n)] += np.arange(n) - n / 2
    ap = pack(a, "U")
    x_true = rand_vector(rng, n, np.float64)
    b = a @ x_true
    la_spsv(ap, b)
    np.testing.assert_allclose(b, x_true, atol=1e-8)
    h = rand_matrix(rng, n, n, np.complex128)
    h = h + np.conj(h.T)
    np.fill_diagonal(h, h.diagonal().real + np.arange(n) - n / 2)
    hp = pack(h, "U")
    xc = rand_vector(rng, n, np.complex128)
    bc = h @ xc
    la_hpsv(hp, bc)
    np.testing.assert_allclose(bc, xc, atol=1e-8)


def test_all_four_dtypes_one_name(rng):
    """The headline genericity claim: one name, four type/precision
    combinations (paper §1.5)."""
    for dt in (np.float32, np.float64, np.complex64, np.complex128):
        n = 6
        a = well_conditioned(rng, n, dt)
        x = rand_vector(rng, n, dt)
        b = (a @ x).astype(dt)
        la_gesv(a, b)
        np.testing.assert_allclose(b, x, rtol=tol_for(dt, 1e4),
                                   atol=tol_for(dt, 1e4))
