"""Bit-identity of the reference LU solve path against its loop form.

``getf2``, ``getrf``, ``laswp`` and ``trsm`` move rows with one gather
per block and do their rank-1 updates as broadcast products.  The
oracles below keep the algorithms those fast paths replace — a
fancy-index swap per pivot and ``np.outer`` updates — and the tests
require byte-equal factors, pivots, ``info`` and solutions for float32
and float64.  NumPy's complex multiply may round differently by operand
shape, so complex inputs are held to equal pivots and the usual
tolerances.  The float32 Appendix-F report, run on each form, must read
the same text.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import config, use_backend
from repro.blas.level3 import trsm
from repro.config import ilaenv
from repro.lapack77 import lu as lu_module
from repro.lapack77 import gesv, getf2, getrf, getrs, laswp
from repro.testing import GesvTestProgram

from ..conftest import tol_for

SETTINGS = dict(max_examples=25, deadline=None)
SIZES = [1, 2, 63, 64, 65, 128, 129]
REAL = [np.float32, np.float64]
COMPLEX = [np.complex64, np.complex128]


# -- oracles: the per-pivot loop forms -------------------------------------

def oracle_laswp(a, ipiv, k1=0, k2=None, forward=True):
    if k2 is None:
        k2 = len(ipiv)
    ks = range(k1, k2) if forward else range(k2 - 1, k1 - 1, -1)
    for k in ks:
        p = ipiv[k]
        if p != k:
            a[[k, p], :] = a[[p, k], :]
    return a


def oracle_getf2(a, ipiv=None):
    m, n = a.shape
    k = min(m, n)
    if ipiv is None:
        ipiv = np.zeros(k, dtype=np.int64)
    info = 0
    for j in range(k):
        col = a[j:, j]
        p = j + int(np.argmax(np.abs(col.real) + np.abs(col.imag)
                              if np.iscomplexobj(col) else np.abs(col)))
        ipiv[j] = p
        if a[p, j] != 0:
            if p != j:
                a[[j, p], :] = a[[p, j], :]
            if j < m - 1:
                a[j + 1:, j] /= a[j, j]
                if j < n - 1:
                    a[j + 1:, j + 1:] -= np.outer(a[j + 1:, j], a[j, j + 1:])
        elif info == 0:
            info = j + 1
    return ipiv, info


def oracle_getrf(a):
    m, n = a.shape
    k = min(m, n)
    ipiv = np.zeros(k, dtype=np.int64)
    nb = ilaenv(1, "getrf")
    if nb <= 1 or nb >= k:
        return oracle_getf2(a, ipiv)
    info = 0
    for j in range(0, k, nb):
        jb = min(nb, k - j)
        piv, pinfo = oracle_getf2(a[j:, j:j + jb])
        if pinfo != 0 and info == 0:
            info = pinfo + j
        ipiv[j:j + jb] = piv + j
        for i in range(jb):
            p = ipiv[j + i]
            if p != j + i:
                a[[j + i, p], :j] = a[[p, j + i], :j]
                if j + jb < n:
                    a[[j + i, p], j + jb:] = a[[p, j + i], j + jb:]
        if j + jb < n:
            oracle_trsm(1, a[j:j + jb, j:j + jb], a[j:j + jb, j + jb:],
                        side="L", uplo="L", transa="N", diag="U")
            if j + jb < m:
                a[j + jb:, j + jb:] -= a[j + jb:, j:j + jb] @ a[j:j + jb, j + jb:]
    return ipiv, info


def oracle_trsm(alpha, a, b, side="L", uplo="U", transa="N", diag="N"):
    up = uplo.upper() == "U"
    unit = diag.upper() == "U"
    ta = transa.upper()
    if alpha != 1:
        b *= alpha
    if ta == "C":
        mat = np.conj(a)
        ta = "T"
    else:
        mat = a
    n = mat.shape[0]
    if side.upper() != "L":
        flip = {"N": "T", "T": "N"}[ta]
        oracle_trsm(1, mat, b.T, side="L", uplo=uplo, transa=flip, diag=diag)
        return b
    nb = 32
    backward = (ta == "N") == up
    blocks = list(range(0, n, nb))
    if backward:
        blocks = blocks[::-1]
    for j0 in blocks:
        j1 = min(j0 + nb, n)
        order = range(j1 - 1, j0 - 1, -1) if backward else range(j0, j1)
        for j in order:
            if not unit:
                b[j] = b[j] / mat[j, j]
            if ta == "N":
                if up and j > j0:
                    b[j0:j] -= np.outer(mat[j0:j, j], b[j])
                elif not up and j < j1 - 1:
                    b[j + 1:j1] -= np.outer(mat[j + 1:j1, j], b[j])
            else:
                if up and j < j1 - 1:
                    b[j + 1:j1] -= np.outer(mat[j, j + 1:j1], b[j])
                elif not up and j > j0:
                    b[j0:j] -= np.outer(mat[j, j0:j], b[j])
        if ta == "N":
            if up and j0 > 0:
                b[:j0] -= mat[:j0, j0:j1] @ b[j0:j1]
            elif not up and j1 < n:
                b[j1:] -= mat[j1:, j0:j1] @ b[j0:j1]
        else:
            if up and j1 < n:
                b[j1:] -= mat[j0:j1, j1:].T @ b[j0:j1]
            elif not up and j0 > 0:
                b[:j0] -= mat[j0:j1, :j0].T @ b[j0:j1]
    return b


def oracle_getrs(a, ipiv, b, trans="N"):
    bmat = b if b.ndim == 2 else b[:, None]
    if trans == "N":
        oracle_laswp(bmat, ipiv)
        oracle_trsm(1, a, bmat, side="L", uplo="L", transa="N", diag="U")
        oracle_trsm(1, a, bmat, side="L", uplo="U", transa="N", diag="N")
    else:
        oracle_trsm(1, a, bmat, side="L", uplo="U", transa=trans, diag="N")
        oracle_trsm(1, a, bmat, side="L", uplo="L", transa=trans, diag="U")
        oracle_laswp(bmat, ipiv, forward=False)
    return 0


# -- inputs ----------------------------------------------------------------

def _matrix(seed, m, n, dtype, kind="random"):
    """``kind``: 'random'; 'zero-cols' (singular, so some steps find a
    zero pivot and swap nothing); 'identity' (every pivot a no-op);
    'graded' (rows scaled so late rows win the pivot search again and
    again, giving long swap chains)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal((m, n))
    if kind == "zero-cols":
        a[:, rng.choice(n, size=max(1, n // 3), replace=False)] = 0
    elif kind == "identity":
        a = np.eye(m, n) + np.triu(a, 1)
    elif kind == "graded":
        a *= np.logspace(0, 3, m)[:, None]
    return np.asarray(a, dtype=dtype)


def _bytes_equal(x, y):
    return x.dtype == y.dtype and x.shape == y.shape \
        and x.tobytes() == y.tobytes()


kinds = st.sampled_from(["random", "zero-cols", "identity", "graded"])
seeds = st.integers(0, 2**31)
# Block sizes for getrf: the default (64) and small ones that put many
# panels and interchange gathers into small matrices.
block_sizes = st.sampled_from([None, 2, 3, 8, 16])


def _factor(fn, a, nb):
    if nb is None:
        return fn(a)
    with config.block_size_override("getrf", nb):
        return fn(a)


# -- laswp -----------------------------------------------------------------

@settings(**SETTINGS)
@given(m=st.integers(1, 40), ncols=st.integers(1, 5), data=st.data(),
       forward=st.booleans(), dtype=st.sampled_from(REAL))
@example(m=5, ncols=2, data=None, forward=True, dtype=np.float64)
@example(m=5, ncols=2, data=None, forward=False, dtype=np.float32)
def test_laswp_matches_swap_loop(m, ncols, data, forward, dtype):
    if data is None:    # repeated pivots: every step swaps with row 3
        ipiv = np.array([3, 3, 3, 3, 3], dtype=np.int64)
        k1, k2 = 0, 5
    else:
        ipiv = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=1,
                                           max_size=m)), dtype=np.int64)
        k1 = data.draw(st.integers(0, len(ipiv)))
        k2 = data.draw(st.integers(k1, len(ipiv)))
    a = np.arange(m * ncols, dtype=dtype).reshape(m, ncols) * 1.5 - 7
    want = oracle_laswp(a.copy(), ipiv, k1, k2, forward)
    got = a.copy()
    assert laswp(got, ipiv, k1, k2, forward) is got
    assert _bytes_equal(got, want)
    # The defaults (whole ipiv, forward) agree too.
    assert _bytes_equal(laswp(a.copy(), ipiv), oracle_laswp(a.copy(), ipiv))


def test_laswp_noop_leaves_rows_in_place():
    a = np.arange(12.0).reshape(4, 3)
    assert _bytes_equal(laswp(a.copy(), np.arange(4)), a)
    assert _bytes_equal(laswp(a.copy(), np.array([2, 3, 2, 3]), 1, 1), a)


# -- getf2 / getrf ---------------------------------------------------------

@pytest.mark.parametrize("dtype", REAL, ids=["f32", "f64"])
@settings(**SETTINGS)
@given(n=st.sampled_from(SIZES), shape=st.sampled_from(["square", "tall",
                                                        "wide"]),
       kind=kinds, seed=seeds)
def test_getf2_bit_identical(dtype, n, shape, kind, seed):
    m = {"square": n, "tall": n + 7, "wide": max(1, n - 7)}[shape]
    a = _matrix(seed, m, n, dtype, kind)
    want, got = a.copy(), a.copy()
    pw, iw = oracle_getf2(want)
    pg, ig = getf2(got)
    assert iw == ig
    np.testing.assert_array_equal(pg, pw)
    assert _bytes_equal(got, want)


@pytest.mark.parametrize("dtype", REAL, ids=["f32", "f64"])
@settings(**SETTINGS)
@given(n=st.sampled_from(SIZES), shape=st.sampled_from(["square", "tall",
                                                        "wide"]),
       kind=kinds, nb=block_sizes, seed=seeds)
def test_getrf_bit_identical(dtype, n, shape, kind, nb, seed):
    m = {"square": n, "tall": n + 9, "wide": max(1, n - 9)}[shape]
    a = _matrix(seed, m, n, dtype, kind)
    want, got = a.copy(), a.copy()
    pw, iw = _factor(oracle_getrf, want, nb)
    pg, ig = _factor(getrf, got, nb)
    assert iw == ig
    np.testing.assert_array_equal(pg, pw)
    assert _bytes_equal(got, want)


@pytest.mark.parametrize("dtype", COMPLEX, ids=["c64", "c128"])
@settings(max_examples=10, deadline=None)
@given(n=st.sampled_from(SIZES), shape=st.sampled_from(["square", "tall",
                                                        "wide"]),
       nb=block_sizes, seed=seeds)
def test_getrf_complex_same_pivots(dtype, n, shape, nb, seed):
    m = {"square": n, "tall": n + 9, "wide": max(1, n - 9)}[shape]
    a = _matrix(seed, m, n, dtype)
    want, got = a.copy(), a.copy()
    pw, iw = _factor(oracle_getrf, want, nb)
    pg, ig = _factor(getrf, got, nb)
    assert iw == ig
    np.testing.assert_array_equal(pg, pw)
    np.testing.assert_allclose(got, want, rtol=tol_for(dtype, 100),
                               atol=tol_for(dtype, 100))


# -- getrs / gesv ----------------------------------------------------------

@pytest.mark.parametrize("dtype", REAL, ids=["f32", "f64"])
@settings(**SETTINGS)
@given(n=st.sampled_from(SIZES), nrhs=st.integers(1, 4),
       trans=st.sampled_from("NTC"), vector=st.booleans(), seed=seeds)
def test_getrs_bit_identical(dtype, n, nrhs, trans, vector, seed):
    a = _matrix(seed, n, n, dtype)
    a[np.diag_indices(n)] += n
    ipiv, _ = oracle_getrf(a)
    rng = np.random.default_rng(seed + 1)
    b = rng.standard_normal(n if vector else (n, nrhs)).astype(dtype)
    want, got = b.copy(), b.copy()
    oracle_getrs(a, ipiv, want, trans)
    assert getrs(a, ipiv, got, trans) == 0
    assert _bytes_equal(got, want)


@pytest.mark.parametrize("dtype", REAL, ids=["f32", "f64"])
@settings(**SETTINGS)
@given(n=st.sampled_from(SIZES), nrhs=st.integers(1, 4), kind=kinds,
       seed=seeds)
def test_gesv_bit_identical(dtype, n, nrhs, kind, seed):
    a = _matrix(seed, n, n, dtype, kind)
    b = np.random.default_rng(seed + 1).standard_normal((n, nrhs)) \
        .astype(dtype)
    aw, bw, ag, bg = a.copy(), b.copy(), a.copy(), b.copy()
    pw, iw = oracle_getrf(aw)
    if iw == 0:
        oracle_getrs(aw, pw, bw)
    pg, ig = gesv(ag, bg)
    assert iw == ig
    np.testing.assert_array_equal(pg, pw)
    assert _bytes_equal(ag, aw)
    assert _bytes_equal(bg, bw)


@pytest.mark.parametrize("dtype", COMPLEX, ids=["c64", "c128"])
@settings(max_examples=10, deadline=None)
@given(n=st.sampled_from(SIZES), trans=st.sampled_from("NTC"), seed=seeds)
def test_gesv_getrs_complex_within_tolerance(dtype, n, trans, seed):
    a = _matrix(seed, n, n, dtype)
    a[np.diag_indices(n)] += n
    b = _matrix(seed + 1, n, 3, dtype)
    aw, ag = a.copy(), a.copy()
    pw, _ = oracle_getrf(aw)
    pg, _ = getrf(ag)
    np.testing.assert_array_equal(pg, pw)
    bw, bg = b.copy(), b.copy()
    oracle_getrs(aw, pw, bw, trans)
    getrs(ag, pg, bg, trans)
    np.testing.assert_allclose(bg, bw, rtol=tol_for(dtype, 100),
                               atol=tol_for(dtype, 100))


# -- trsm ------------------------------------------------------------------

TRSM_CASES = [(s, u, t, d) for s in "LR" for u in "UL" for t in "NTC"
              for d in "UN"]


SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.5e-310]


def _plant(rng, a, b, entries):
    """``entries``: 'nonfinite' writes each of ``SPECIALS`` (rounded to
    the dtype) into ``a`` and ``b`` at random places; 'zero-diag' puts an
    exact zero on one diagonal entry of ``a``; 'plain' writes nothing."""
    if entries == "zero-diag":
        k = rng.integers(a.shape[0])
        a[k, k] = 0.0
    elif entries == "nonfinite":
        for value in SPECIALS:
            a[tuple(rng.integers(a.shape[0], size=2))] = value
            b.flat[rng.integers(b.size)] = value


def _strided_copy(b, side):
    """One-column (one-row on the right) ``b`` as ``v[:, None]``
    (``v[None, :]``) of a strided 1-D ``v``."""
    v = np.zeros(2 * b.size, dtype=b.dtype)[::2]
    v[:] = b.ravel()
    return v[:, None] if side == "L" else v[None, :]


@pytest.mark.parametrize("side,uplo,trans,diag", TRSM_CASES,
                         ids=["".join(c) for c in TRSM_CASES])
@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([1, 2, 31, 32, 33, 65, 128, 129]),
       nrhs=st.integers(1, 4), alpha=st.sampled_from([1.0, -2.5]),
       dtype=st.sampled_from(REAL), strided=st.booleans(),
       entries=st.sampled_from(["plain", "nonfinite", "zero-diag"]),
       seed=seeds)
@example(n=40, nrhs=1, alpha=1.0, dtype=np.float64, strided=False,
         entries="zero-diag", seed=3)
@example(n=129, nrhs=1, alpha=-2.5, dtype=np.float64, strided=True,
         entries="nonfinite", seed=4)
@example(n=128, nrhs=1, alpha=1.0, dtype=np.float64, strided=True,
         entries="plain", seed=5)
@example(n=31, nrhs=1, alpha=1.0, dtype=np.float32, strided=False,
         entries="nonfinite", seed=323)
@example(n=65, nrhs=1, alpha=-2.5, dtype=np.float64, strided=True,
         entries="nonfinite", seed=7)
def test_trsm_bit_identical(side, uplo, trans, diag, n, nrhs, alpha, dtype,
                            strided, entries, seed):
    """One column (the float64 case sweeps on Python floats) or several,
    contiguous or a strided ``b[:, None]``, with NaN, ±Inf, ``-0.0`` and
    subnormal entries, or an exact zero on the diagonal, which the
    Python-float sweep must hand back to NumPy instead of raising."""
    rng = np.random.default_rng(seed)
    a = _matrix(seed, n, n, dtype)
    a[np.diag_indices(n)] += n
    if strided:
        nrhs = 1
    shape = (n, nrhs) if side == "L" else (nrhs, n)
    b = rng.standard_normal(shape).astype(dtype)
    _plant(rng, a, b, entries)
    if strided:
        want, got = _strided_copy(b, side), _strided_copy(b, side)
    else:
        want, got = b.copy(), b.copy()
    with np.errstate(all="ignore"):
        oracle_trsm(alpha, a, want, side, uplo, trans, diag)
        assert trsm(alpha, a, got, side, uplo, trans, diag) is got
    assert _bytes_equal(np.ascontiguousarray(got), np.ascontiguousarray(want))


@pytest.mark.parametrize("side,uplo,trans,diag", TRSM_CASES,
                         ids=["".join(c) for c in TRSM_CASES])
@pytest.mark.parametrize("dtype", COMPLEX, ids=["c64", "c128"])
def test_trsm_complex_within_tolerance(side, uplo, trans, diag, dtype):
    n = 70
    a = _matrix(3, n, n, dtype)
    a[np.diag_indices(n)] += n
    b = _matrix(4, *((n, 3) if side == "L" else (3, n)), dtype)
    want, got = b.copy(), b.copy()
    oracle_trsm(1, a, want, side, uplo, trans, diag)
    trsm(1, a, got, side, uplo, trans, diag)
    np.testing.assert_allclose(got, want, rtol=tol_for(dtype),
                               atol=tol_for(dtype))


# -- Appendix F ------------------------------------------------------------

def test_appendix_f_report_unchanged(monkeypatch):
    """The float32 LA_GESV test program prints the same report whether
    the reference kernels run the gather/broadcast forms or the loops."""
    with use_backend("reference"):
        fast = GesvTestProgram(threshold=10.0).run().format()
        monkeypatch.setattr(lu_module, "getrf", oracle_getrf)
        monkeypatch.setattr(lu_module, "laswp", oracle_laswp)
        monkeypatch.setattr(lu_module, "trsm", oracle_trsm)
        slow = GesvTestProgram(threshold=10.0).run().format()
    assert fast == slow
