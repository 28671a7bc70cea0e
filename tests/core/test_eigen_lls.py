"""Core-layer eigen/SVD/least-squares drivers."""

import warnings

import numpy as np
import pytest

from repro import Info, available_backends
from repro.core import (la_geev, la_gees, la_gelss, la_gels, la_gelsx,
                        la_gesvd, la_ggglm, la_gglse, la_heev, la_hegv,
                        la_sbev, la_spev, la_stev, la_syev, la_syevd,
                        la_syevx, la_sygv, la_stevd, la_geesx, la_geevx,
                        la_gegs, la_gegv, la_ggsvd, la_spevd, la_stevx)
from repro.storage import full_to_sym_band, pack

from ..conftest import rand_matrix, rand_vector, spd_matrix, tol_for


def sym(rng, n, dtype, hermitian=False):
    a = rand_matrix(rng, n, n, dtype)
    m = a + (np.conj(a.T) if hermitian else a.T)
    if hermitian:
        np.fill_diagonal(m, m.diagonal().real)
    return m


def test_la_syev_and_vectors(rng, real_dtype):
    n = 12
    a0 = sym(rng, n, real_dtype)
    a = a0.copy()
    w = la_syev(a, jobz="V")
    ref = np.linalg.eigvalsh(a0.astype(np.float64))
    np.testing.assert_allclose(w, ref, atol=tol_for(real_dtype, 300))
    np.testing.assert_allclose(a0 @ a, a * w[None, :].astype(a.dtype),
                               atol=tol_for(real_dtype, 1e3) * max(
                                   1, np.abs(a0).max()))


def test_la_syev_w_output_argument(rng):
    n = 8
    a = sym(rng, n, np.float64)
    w = np.zeros(n)
    out = la_syev(a.copy(), w)
    assert out is w


def test_la_heev(rng, complex_dtype):
    n = 10
    a0 = sym(rng, n, complex_dtype, hermitian=True)
    w = la_heev(a0.copy())
    np.testing.assert_allclose(w, np.linalg.eigvalsh(
        a0.astype(np.complex128)), atol=tol_for(complex_dtype, 300))


def test_la_syevd_matches_la_syev(rng):
    n = 40
    a = sym(rng, n, np.float64)
    w1 = la_syev(a.copy())
    w2 = la_syevd(a.copy())
    np.testing.assert_allclose(w1, w2, atol=1e-9)


def test_la_syevx_selection(rng):
    n = 20
    a = sym(rng, n, np.float64)
    ref = np.linalg.eigvalsh(a)
    w, m, ifail = la_syevx(a.copy(), il=2, iu=6)
    assert m == 5
    np.testing.assert_allclose(w, ref[2:7], atol=1e-8)
    w2, z, m2, ifail2 = la_syevx(a.copy(), z=True, il=0, iu=2)
    assert z.shape == (n, 3)
    for j in range(3):
        assert np.linalg.norm(a @ z[:, j] - w2[j] * z[:, j]) < 1e-6


def test_la_spev_sbev_stev(rng):
    n = 10
    a = sym(rng, n, np.float64)
    ref = np.linalg.eigvalsh(a)
    w = la_spev(pack(a, "U"))
    np.testing.assert_allclose(w, ref, atol=1e-9)
    w2, z = la_spev(pack(a, "U"), z=True)
    np.testing.assert_allclose(w2, ref, atol=1e-9)
    np.testing.assert_allclose(a @ z, z * w2[None, :], atol=1e-8)
    # band (truncate to kd=2 and compare against its own dense form)
    kd = 2
    ab_full = a.copy()
    for i in range(n):
        for j in range(n):
            if abs(i - j) > kd:
                ab_full[i, j] = 0
    ab = full_to_sym_band(ab_full, kd, "U")
    wb = la_sbev(ab)
    np.testing.assert_allclose(wb, np.linalg.eigvalsh(ab_full), atol=1e-9)
    # tridiagonal
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    dd, ee = d.copy(), e.copy()
    w3 = la_stev(dd, ee)
    np.testing.assert_allclose(w3, np.linalg.eigvalsh(t), atol=1e-10)
    dd2, ee2 = d.copy(), e.copy()
    w4 = la_stevd(dd2, ee2)
    np.testing.assert_allclose(np.sort(w4), np.linalg.eigvalsh(t),
                               atol=1e-9)
    w5, m, ifail = la_stevx(d, e, il=0, iu=3)
    np.testing.assert_allclose(w5, np.linalg.eigvalsh(t)[:4], atol=1e-8)


def test_la_gees_and_geev(rng):
    n = 12
    a0 = rand_matrix(rng, n, n, np.float64)
    t = a0.copy()
    w, vs, sdim = la_gees(t, vs=True)
    np.testing.assert_allclose(vs @ t @ vs.T, a0, atol=1e-9)
    w2, vr = la_geev(a0.copy(), vr=True)
    for j in range(n):
        r = np.linalg.norm(a0.astype(complex) @ vr[:, j] - w2[j] * vr[:, j])
        assert r < 1e-7


def test_la_gees_select(rng):
    n = 10
    a0 = rand_matrix(rng, n, n, np.complex128)
    t = a0.copy()
    w, sdim = la_gees(t, select=lambda lam: lam.real > 0)
    ref = np.linalg.eigvals(a0)
    assert sdim == np.sum(ref.real > 0)
    lead = np.diag(t)[:sdim]
    assert np.all(lead.real > 0)


def test_la_geesx_la_geevx(rng):
    n = 10
    a0 = rand_matrix(rng, n, n, np.float64)
    w, sdim, rconde, rcondv = la_geesx(a0.copy(),
                                       select=lambda lam: abs(lam) > 0.5)
    assert 0 < rconde <= 1
    (w2, vl, vr, ilo, ihi, scale, abnrm, rce,
     rcv) = la_geevx(a0.copy(), vl=True, vr=True)
    assert np.all(rce > 0)
    assert abnrm > 0


def test_la_gesvd(rng, dtype):
    m, n = 10, 6
    a0 = rand_matrix(rng, m, n, dtype)
    s = la_gesvd(a0.copy())
    ref = np.linalg.svd(a0.astype(np.complex128 if np.dtype(dtype).kind
                                  == "c" else np.float64),
                        compute_uv=False)
    np.testing.assert_allclose(s, ref, atol=tol_for(dtype, 100))
    s2, u, vt = la_gesvd(a0.copy(), u=True, vt=True)
    rec = (u * s2[None, :].astype(u.dtype)) @ vt
    np.testing.assert_allclose(rec, a0, atol=tol_for(dtype, 1e3))


def test_la_gels_overdetermined(rng, dtype):
    m, n = 15, 6
    a0 = rand_matrix(rng, m, n, dtype)
    b0 = rand_matrix(rng, m, 2, dtype)
    x = la_gels(a0.copy(), b0.copy())
    ref = np.linalg.lstsq(a0.astype(np.complex128 if np.dtype(dtype).kind
                                    == "c" else np.float64),
                          b0.astype(np.complex128 if np.dtype(dtype).kind
                                    == "c" else np.float64),
                          rcond=None)[0]
    np.testing.assert_allclose(x, ref, atol=tol_for(dtype, 2e4))


def test_la_gels_underdetermined_pads(rng):
    m, n = 4, 9
    a0 = rand_matrix(rng, m, n, np.float64)
    b0 = rand_vector(rng, m, np.float64)
    x = la_gels(a0.copy(), b0.copy())
    assert x.shape == (n,)
    ref = np.linalg.lstsq(a0, b0, rcond=None)[0]
    np.testing.assert_allclose(x, ref, atol=1e-10)


def test_la_gelsx_and_gelss_rank(rng):
    m, n = 12, 5
    a0 = rand_matrix(rng, m, n, np.float64)
    a0[:, 4] = a0[:, 0] + a0[:, 1]
    b0 = rand_vector(rng, m, np.float64)
    x1, rank1 = la_gelsx(a0.copy(), b0.copy(), rcond=1e-10)
    x2, rank2, s = la_gelss(a0.copy(), b0.copy(), rcond=1e-10)
    assert rank1 == rank2 == 4
    assert s[4] < 1e-10 * s[0]
    ref = np.linalg.lstsq(a0, b0, rcond=None)[0]
    np.testing.assert_allclose(x1, ref, atol=1e-8)
    np.testing.assert_allclose(x2, ref, atol=1e-8)


def test_la_gglse_ggglm(rng):
    m, n, p = 10, 6, 3
    a = rand_matrix(rng, m, n, np.float64)
    bmat = rand_matrix(rng, p, n, np.float64)
    c = rand_vector(rng, m, np.float64)
    d = rand_vector(rng, p, np.float64)
    x = la_gglse(a.copy(), bmat.copy(), c.copy(), d.copy())
    np.testing.assert_allclose(bmat @ x, d, atol=1e-10)
    na, ma_, pa = 8, 4, 6
    aa = rand_matrix(rng, na, ma_, np.float64)
    bb = rand_matrix(rng, na, pa, np.float64)
    dd = rand_vector(rng, na, np.float64)
    x2, y2 = la_ggglm(aa.copy(), bb.copy(), dd.copy())
    np.testing.assert_allclose(aa @ x2 + bb @ y2, dd, atol=1e-10)


def test_la_sygv_hegv(rng):
    sla = pytest.importorskip("scipy.linalg")
    n = 10
    a = sym(rng, n, np.float64)
    b = spd_matrix(rng, n, np.float64)
    w = la_sygv(a.copy(), b.copy(), jobz="V")
    ref = sla.eigh(a, b, eigvals_only=True)
    np.testing.assert_allclose(w, ref, atol=1e-8)
    ah = sym(rng, n, np.complex128, hermitian=True)
    bh = spd_matrix(rng, n, np.complex128)
    wh = la_hegv(ah.copy(), bh.copy())
    refh = sla.eigh(ah, bh, eigvals_only=True)
    np.testing.assert_allclose(wh, refh, atol=1e-8)


def test_la_gegs_gegv(rng):
    n = 8
    a = rand_matrix(rng, n, n, np.float64)
    b = rand_matrix(rng, n, n, np.float64)
    alpha, beta, vsl, vsr = la_gegs(a.copy(), b.copy(), vsl=True, vsr=True)
    sla = pytest.importorskip("scipy.linalg")
    got = np.sort(np.abs(alpha / beta))
    ref = np.sort(np.abs(sla.eigvals(a, b)))
    np.testing.assert_allclose(got, ref, rtol=1e-7)
    alpha2, beta2, vr = la_gegv(a.copy(), b.copy(), vr=True)
    for j in range(n):
        x = vr[:, j]
        r = beta2[j] * (a.astype(complex) @ x) \
            - alpha2[j] * (b.astype(complex) @ x)
        assert np.linalg.norm(r) < 1e-8


def test_la_ggsvd(rng):
    m, p, n = 8, 6, 5
    a = rand_matrix(rng, m, n, np.float64)
    b = rand_matrix(rng, p, n, np.float64)
    alpha, beta, k, l, u, v, q, r = la_ggsvd(a.copy(), b.copy())
    assert k + l == n
    np.testing.assert_allclose(alpha ** 2 + beta ** 2, 1.0, atol=1e-12)
    d1 = np.zeros((m, n))
    d1[np.arange(n), np.arange(n)] = alpha
    np.testing.assert_allclose(u @ d1 @ r @ q.T, a, atol=1e-9)



_NAN_DIAGONAL = {
    "syev": lambda i, be: la_syev(np.diag([np.nan, 1, 1, 1.]), info=i,
                                  backend=be),
    "heev": lambda i, be: la_heev(
        np.diag([np.nan, 1, 1, 1.]).astype(complex), info=i, backend=be),
    "syevd": lambda i, be: la_syevd(np.diag([np.nan, 1, 1, 1.]), info=i,
                                    backend=be),
    "stev": lambda i, be: la_stev(np.array([np.nan, 1, 1, 1.]),
                                  np.zeros(3), info=i, backend=be),
}


@pytest.mark.parametrize("case", sorted(_NAN_DIAGONAL))
@pytest.mark.parametrize("backend", ["reference", "accelerated"])
def test_nan_diagonal_returns_under_propagate(case, backend):
    # A NaN on the diagonal makes the QL sweep's relative split test
    # false for every e[m]; an exactly zero e[l] must still split
    # rather than reach the Wilkinson shift's division.
    if backend not in available_backends():
        pytest.skip("backend not available")
    info = Info()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w = _NAN_DIAGONAL[case](info, backend)
    # The accelerated backend serves syev/heev from SciPy, which
    # answers differently (DESIGN §7); syevd and stev fall back to the
    # reference kernels there too.
    if backend == "reference" or case in ("syevd", "stev"):
        assert info.value == 0 and np.isnan(w).sum() == 1, (w, info)
