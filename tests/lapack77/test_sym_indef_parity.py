"""Bit-identity of the reference Bunch–Kaufman pair against its loop form.

``sytf2`` picks its pivot-search magnitude once per call and does its
real rank-1/rank-2 updates as broadcast products; ``sytrs`` runs the
``U D``/``L D`` phase of one float64 column on the column's scalars,
with scalar swaps and a broadcast axpy.  The oracles below keep the
loops those paths replace — ``np.abs``/``np.argmax``/``np.max`` per
pivot, ``np.outer`` updates and fancy-index row swaps on the 2-D B —
for real inputs, and the tests require byte-equal factors, pivots,
``info`` and solutions, NaN and infinity included.  Complex inputs are
held to the tolerance tests in ``test_sym_indef.py``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lapack77 import sysv, sytrf, sytrs

SETTINGS = dict(max_examples=20, deadline=None)
SIZES = [1, 2, 3, 5, 31, 32, 33, 64, 128, 129]
REAL = [np.float32, np.float64]
ALPHA = (1.0 + np.sqrt(17.0)) / 8.0


# -- oracles: the loop forms (real symmetric) -------------------------------

def _interchange_upper(a, k, kk, kp, kstep):
    tmp = a[:kp, kk].copy()
    a[:kp, kk] = a[:kp, kp]
    a[:kp, kp] = tmp
    seg = a[kp + 1: kk, kk].copy()
    a[kp + 1: kk, kk] = a[kp, kp + 1: kk]
    a[kp, kp + 1: kk] = seg
    a[kk, kk], a[kp, kp] = a[kp, kp], a[kk, kk]
    if kstep == 2:
        a[kk, k], a[kp, k] = a[kp, k], a[kk, k]


def _interchange_lower(a, k, kk, kp, kstep):
    n = a.shape[0]
    if kp < n - 1:
        tmp = a[kp + 1:, kk].copy()
        a[kp + 1:, kk] = a[kp + 1:, kp]
        a[kp + 1:, kp] = tmp
    seg = a[kk + 1: kp, kk].copy()
    a[kk + 1: kp, kk] = a[kp, kk + 1: kp]
    a[kp, kk + 1: kp] = seg
    a[kk, kk], a[kp, kp] = a[kp, kp], a[kk, kk]
    if kstep == 2:
        a[kk, k], a[kp, k] = a[kp, k], a[kk, k]


def _pivot(a, k, imax, absakk, colmax, rowmax):
    """``(kp, kstep)`` by the Bunch–Kaufman test."""
    if absakk >= ALPHA * colmax:
        return k, 1
    if absakk >= ALPHA * colmax * (colmax / rowmax):
        return k, 1
    if np.abs(a[imax, imax]) >= ALPHA * rowmax:
        return imax, 1
    return imax, 2


def oracle_sytf2_upper(a, ipiv):
    info = 0
    k = a.shape[0] - 1
    while k >= 0:
        kstep = 1
        absakk = np.abs(a[k, k])
        if k > 0:
            imax = int(np.argmax(np.abs(a[:k, k])))
            colmax = float(np.abs(a[imax, k]))
        else:
            imax, colmax = 0, 0.0
        if max(absakk, colmax) == 0.0 or absakk != absakk:
            if info == 0:
                info = k + 1
            kp = k
        else:
            rowmax = None
            if not absakk >= ALPHA * colmax:    # NaN computes rowmax
                rowmax = float(np.max(np.abs(a[imax, imax + 1: k + 1])))
                if imax > 0:
                    rowmax = max(rowmax,
                                 float(np.max(np.abs(a[:imax, imax]))))
            kp, kstep = _pivot(a, k, imax, absakk, colmax, rowmax)
            kk = k - kstep + 1
            if kp != kk:
                _interchange_upper(a, k, kk, kp, kstep)
            if kstep == 1 and k > 0:
                r1 = 1.0 / a[k, k]
                x = a[:k, k]
                a[:k, :k] -= r1 * np.outer(x, x)
                a[:k, k] *= r1
            elif kstep == 2 and k > 1:
                d12 = a[k - 1, k]
                d22 = a[k - 1, k - 1] / d12
                d11 = a[k, k] / d12
                tt = 1.0 / (d11 * d22 - 1.0)
                d12 = tt / d12
                colk = a[:k - 1, k].copy()
                colkm1 = a[:k - 1, k - 1].copy()
                wkm1 = d12 * (d11 * colkm1 - colk)
                wk = d12 * (d22 * colk - colkm1)
                a[:k - 1, :k - 1] -= np.outer(colk, wk) \
                    + np.outer(colkm1, wkm1)
                a[:k - 1, k] = wk
                a[:k - 1, k - 1] = wkm1
        if kstep == 1:
            ipiv[k] = kp
        else:
            ipiv[k] = ipiv[k - 1] = -(kp + 1)
        k -= kstep
    return info


def oracle_sytf2_lower(a, ipiv):
    n = a.shape[0]
    info = 0
    k = 0
    while k < n:
        kstep = 1
        absakk = np.abs(a[k, k])
        if k < n - 1:
            imax = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
            colmax = float(np.abs(a[imax, k]))
        else:
            imax, colmax = k, 0.0
        if max(absakk, colmax) == 0.0 or absakk != absakk:
            if info == 0:
                info = k + 1
            kp = k
        else:
            rowmax = None
            if not absakk >= ALPHA * colmax:    # NaN computes rowmax
                rowmax = float(np.max(np.abs(a[imax, k:imax]))) \
                    if imax > k else 0.0
                if imax < n - 1:
                    rowmax = max(rowmax,
                                 float(np.max(np.abs(a[imax + 1:, imax]))))
            kp, kstep = _pivot(a, k, imax, absakk, colmax, rowmax)
            kk = k + kstep - 1
            if kp != kk:
                _interchange_lower(a, k, kk, kp, kstep)
            if kstep == 1 and k < n - 1:
                r1 = 1.0 / a[k, k]
                x = a[k + 1:, k]
                a[k + 1:, k + 1:] -= r1 * np.outer(x, x)
                a[k + 1:, k] *= r1
            elif kstep == 2 and k < n - 2:
                d21 = a[k + 1, k]
                d11 = a[k + 1, k + 1] / d21
                d22 = a[k, k] / d21
                tt = 1.0 / (d11 * d22 - 1.0)
                d21 = tt / d21
                colk = a[k + 2:, k].copy()
                colkp1 = a[k + 2:, k + 1].copy()
                wk = d21 * (d11 * colk - colkp1)
                wkp1 = d21 * (d22 * colkp1 - colk)
                a[k + 2:, k + 2:] -= np.outer(colk, wk) \
                    + np.outer(colkp1, wkp1)
                a[k + 2:, k] = wk
                a[k + 2:, k + 1] = wkp1
        if kstep == 1:
            ipiv[k] = kp
        else:
            ipiv[k] = ipiv[k + 1] = -(kp + 1)
        k += kstep
    return info


def oracle_sytrf(a, uplo):
    n = a.shape[0]
    ipiv = np.zeros(n, dtype=np.int64)
    tri = np.triu if uplo == "U" else np.tril
    w = tri(a)
    kernel = oracle_sytf2_upper if uplo == "U" else oracle_sytf2_lower
    info = kernel(w, ipiv)
    np.copyto(a, w, where=tri(np.ones((n, n), dtype=bool)))
    return ipiv, info


def oracle_sytrs_upper(a, ipiv, b):
    n = a.shape[0]
    k = n - 1
    while k >= 0:
        if ipiv[k] >= 0:
            kp = ipiv[k]
            if kp != k:
                b[[k, kp]] = b[[kp, k]]
            if k > 0:
                b[:k] -= np.outer(a[:k, k], b[k])
            b[k] = b[k] / a[k, k]
            k -= 1
        else:
            kp = -ipiv[k] - 1
            if kp != k - 1:
                b[[k - 1, kp]] = b[[kp, k - 1]]
            if k > 1:
                b[:k - 1] -= np.outer(a[:k - 1, k], b[k])
                b[:k - 1] -= np.outer(a[:k - 1, k - 1], b[k - 1])
            akm1k = a[k - 1, k]
            akm1 = a[k - 1, k - 1] / akm1k
            ak = a[k, k] / akm1k
            denom = akm1 * ak - 1.0
            bkm1 = b[k - 1] / akm1k
            bk = b[k] / akm1k
            b[k - 1] = (ak * bkm1 - bk) / denom
            b[k] = (akm1 * bk - bkm1) / denom
            k -= 2
    k = 0
    while k < n:
        step = 1 if ipiv[k] >= 0 else 2
        if k > 0:
            b[k] -= a[:k, k] @ b[:k]
            if step == 2:
                b[k + 1] -= a[:k, k + 1] @ b[:k]
        kp = ipiv[k] if step == 1 else -ipiv[k] - 1
        if kp != k:
            b[[k, kp]] = b[[kp, k]]
        k += step
    return 0


def oracle_sytrs_lower(a, ipiv, b):
    n = a.shape[0]
    k = 0
    while k < n:
        if ipiv[k] >= 0:
            kp = ipiv[k]
            if kp != k:
                b[[k, kp]] = b[[kp, k]]
            if k < n - 1:
                b[k + 1:] -= np.outer(a[k + 1:, k], b[k])
            b[k] = b[k] / a[k, k]
            k += 1
        else:
            kp = -ipiv[k] - 1
            if kp != k + 1:
                b[[k + 1, kp]] = b[[kp, k + 1]]
            if k < n - 2:
                b[k + 2:] -= np.outer(a[k + 2:, k], b[k])
                b[k + 2:] -= np.outer(a[k + 2:, k + 1], b[k + 1])
            akm1k = a[k + 1, k]
            akm1 = a[k, k] / akm1k
            ak = a[k + 1, k + 1] / akm1k
            denom = akm1 * ak - 1.0
            bkm1 = b[k] / akm1k
            bk = b[k + 1] / akm1k
            b[k] = (ak * bkm1 - bk) / denom
            b[k + 1] = (akm1 * bk - bkm1) / denom
            k += 2
    k = n - 1
    while k >= 0:
        step = 1 if ipiv[k] >= 0 else 2
        if k < n - 1:
            b[k] -= a[k + 1:, k] @ b[k + 1:]
            if step == 2:
                b[k - 1] -= a[k + 1:, k - 1] @ b[k + 1:]
        kp = ipiv[k] if step == 1 else -ipiv[k] - 1
        if kp != k:
            b[[k, kp]] = b[[kp, k]]
        k -= step
    return 0


def oracle_sytrs(a, ipiv, b, uplo):
    bmat = b if b.ndim == 2 else b[:, None]
    kernel = oracle_sytrs_upper if uplo == "U" else oracle_sytrs_lower
    return kernel(a, ipiv, bmat)


# -- inputs ----------------------------------------------------------------

def _symmetric(seed, n, dtype, kind):
    """``kind``: 'random' (a mix of 1×1 and 2×2 pivots); 'dominant'
    (every pivot 1×1); 'hollow' (zero diagonal for n > 1: 2×2 pivots
    wherever the test allows); 'singular' (zero rows and columns, so
    ``info > 0``)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    a = g + g.T
    if kind == "dominant":
        a += np.diag(np.full(n, 4.0 * n))
    elif kind == "hollow" and n > 1:
        np.fill_diagonal(a, 0.0)
    elif kind == "singular":
        dead = rng.choice(n, size=max(1, n // 3), replace=False)
        a[dead, :] = 0
        a[:, dead] = 0
    return a.astype(dtype)


def _rhs(seed, n, nrhs, dtype, layout):
    """One column as a vector, as a ``(n, 1)`` array, or as
    ``b[:, None]`` of a strided 1-D ``b``; or ``nrhs`` columns."""
    rng = np.random.default_rng(seed)
    if layout == "matrix":
        return rng.standard_normal((n, nrhs)).astype(dtype)
    v = rng.standard_normal(2 * n).astype(dtype)
    if layout == "strided":
        return v[::2][:, None]
    return v[:n] if layout == "vector" else v[:n, None].copy()


def _bytes_equal(x, y):
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.dtype == y.dtype and x.shape == y.shape \
        and x.tobytes() == y.tobytes()


def _rhs_copy(b):
    """A copy of ``b`` with its strides, so a strided column stays one."""
    if b.ndim == 2 and b.shape[1] == 1 and not b.flags.c_contiguous:
        v = np.empty(2 * b.shape[0], dtype=b.dtype)
        v[::2] = b[:, 0]
        return v[::2][:, None]
    return b.copy()


kinds = st.sampled_from(["random", "dominant", "hollow", "singular"])
layouts = st.sampled_from(["vector", "column", "strided", "matrix"])
seeds = st.integers(0, 2**31)


# -- sytrf -----------------------------------------------------------------

@pytest.mark.parametrize("uplo", ["U", "L"])
@pytest.mark.parametrize("dtype", REAL, ids=["f32", "f64"])
@settings(**SETTINGS)
@given(n=st.sampled_from(SIZES), kind=kinds, seed=seeds)
def test_sytrf_bit_identical(uplo, dtype, n, kind, seed):
    a = _symmetric(seed, n, dtype, kind)
    want, got = a.copy(), a.copy()
    pw, iw = oracle_sytrf(want, uplo)
    pg, ig = sytrf(got, uplo)
    assert ig == iw
    np.testing.assert_array_equal(pg, pw)
    assert _bytes_equal(got, want)


@pytest.mark.parametrize("uplo", ["U", "L"])
def test_cases_cover_both_pivot_sizes(uplo):
    """The 'dominant' operands pivot 1×1 only, the 'hollow' ones take
    2×2 pivots, and 'random' ones mix both; 'singular' reports."""
    for kind, two, one in [("dominant", False, True), ("hollow", True, None),
                           ("random", True, True)]:
        ipiv, info = sytrf(_symmetric(5, 64, np.float64, kind), uplo)
        assert info == 0
        assert bool((ipiv < 0).any()) == two, kind
        if one is not None:
            assert bool((ipiv >= 0).any()) == one, kind
    assert sytrf(_symmetric(5, 64, np.float64, "singular"), uplo)[1] > 0


# -- sytrs / sysv ----------------------------------------------------------

@pytest.mark.parametrize("uplo", ["U", "L"])
@pytest.mark.parametrize("dtype", REAL, ids=["f32", "f64"])
@settings(**SETTINGS)
@given(n=st.sampled_from(SIZES), kind=st.sampled_from(["random", "dominant",
                                                       "hollow"]),
       layout=layouts, nrhs=st.integers(1, 3), seed=seeds)
def test_sytrs_bit_identical(uplo, dtype, n, kind, layout, nrhs, seed):
    a = _symmetric(seed, n, dtype, kind)
    ipiv, info = oracle_sytrf(a, uplo)
    assert info == 0
    b = _rhs(seed + 1, n, nrhs, dtype, layout)
    want, got = _rhs_copy(b), _rhs_copy(b)
    oracle_sytrs(a, ipiv, want, uplo)
    assert sytrs(a, ipiv, got, uplo) == 0
    assert _bytes_equal(got, want)


@pytest.mark.parametrize("uplo", ["U", "L"])
@settings(**SETTINGS)
@given(n=st.sampled_from(SIZES), kind=kinds, seed=seeds)
def test_sysv_bit_identical(uplo, n, kind, seed):
    a = _symmetric(seed, n, np.float64, kind)
    b = _rhs(seed + 1, n, 1, np.float64, "column")
    aw, bw, ag, bg = a.copy(), b.copy(), a.copy(), b.copy()
    pw, iw = oracle_sytrf(aw, uplo)
    if iw == 0:
        oracle_sytrs(aw, pw, bw, uplo)
    pg, ig = sysv(ag, bg, uplo)
    assert ig == iw
    np.testing.assert_array_equal(pg, pw)
    assert _bytes_equal(ag, aw)
    assert _bytes_equal(bg, bw)


@pytest.mark.parametrize("uplo", ["U", "L"])
@pytest.mark.parametrize("n", [3, 6])
def test_nonfinite_placements_bit_identical(uplo, n):
    """Every placement of one NaN or ±Inf entry (and its mirror) of
    ``test_sym_indef_nonfinite.py``: the same factors, pivots and
    ``info``, and the same solve from those factors, whatever ``info``
    reads, since ``sytrs`` itself checks nothing."""
    rng = np.random.default_rng(100 + n)
    g = rng.standard_normal((n, n))
    base = g + g.T
    b = rng.standard_normal(n)
    for value in (np.nan, np.inf, -np.inf):
        for i in range(n):
            for j in range(i, n):
                a = base.copy()
                a[i, j] = a[j, i] = value
                aw, ag = a.copy(), a.copy()
                with warnings.catch_warnings(), np.errstate(all="ignore"):
                    warnings.simplefilter("ignore")
                    pw, iw = oracle_sytrf(aw, uplo)
                    pg, ig = sytrf(ag, uplo)
                    bw, bg = b.copy(), b.copy()
                    oracle_sytrs(aw, pw, bw, uplo)
                    sytrs(ag, pg, bg, uplo)
                case = (value, i, j)
                assert ig == iw, case
                np.testing.assert_array_equal(pg, pw, err_msg=str(case))
                assert _bytes_equal(ag, aw), case
                assert _bytes_equal(bg, bw), case
