"""Backend parity: hypothesis-driven random systems solved under both
substrates agree to componentwise-backward-error tolerance.

The componentwise backward error of a computed solution x̂ is
``max_i |A x̂ − b|_i / (|A| |x̂| + |b|)_i`` (Oettli–Prager); a solver is
backward stable when it is O(eps).  Both substrates must pass the same
bound — and their factors must describe the same pivot sequence for LU.
Skips cleanly when SciPy (the accelerated substrate) is absent.
"""

import warnings

import numpy as np
import pytest

from repro import backends, la_gesv, la_posv, la_sysv, use_backend

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

if "accelerated" not in backends.available_backends():
    pytest.skip("SciPy (accelerated backend) not available",
                allow_module_level=True)

SETTINGS = dict(max_examples=25, deadline=None)

dims = st.integers(min_value=1, max_value=24)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
nrhs_st = st.integers(min_value=1, max_value=3)


def _cwise_backward_error(a, x, b):
    x2 = x if x.ndim == 2 else x[:, None]
    b2 = b if b.ndim == 2 else b[:, None]
    resid = np.abs(a @ x2 - b2)
    denom = np.abs(a) @ np.abs(x2) + np.abs(b2)
    mask = denom > 0
    if not mask.any():
        return 0.0
    return float((resid[mask] / denom[mask]).max())


def _tol(dtype):
    return 50 * np.finfo(np.dtype(dtype)).eps


def _both(driver, a, b):
    out = {}
    for name in ("reference", "accelerated"):
        with use_backend(name):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ai, bi = a.copy(), b.copy()
                driver(ai, bi)
        out[name] = bi
    return out["reference"], out["accelerated"]


@settings(**SETTINGS)
@given(n=dims, nrhs=nrhs_st, seed=seeds,
       dtype=st.sampled_from([np.float64, np.complex128]))
def test_gesv_parity(n, nrhs, seed, dtype):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal((n, n))
    a = (a + n * np.eye(n)).astype(dtype)
    b = a @ rng.standard_normal((n, nrhs)).astype(dtype)
    x_ref, x_acc = _both(la_gesv, a, b)
    tol = _tol(np.float64)
    assert _cwise_backward_error(a, x_ref, b) <= tol
    assert _cwise_backward_error(a, x_acc, b) <= tol


@settings(**SETTINGS)
@given(n=dims, seed=seeds,
       dtype=st.sampled_from([np.float32, np.float64]))
def test_posv_parity(n, seed, dtype):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    a = (g @ g.T + n * np.eye(n)).astype(dtype)
    b = a @ rng.standard_normal(n).astype(dtype)
    x_ref, x_acc = _both(la_posv, a, b)
    tol = _tol(dtype)
    assert _cwise_backward_error(a, x_ref, b) <= tol
    assert _cwise_backward_error(a, x_acc, b) <= tol


@settings(**SETTINGS)
@given(n=dims, seed=seeds)
def test_sysv_parity(n, seed):
    """Diagonally shifted (1x1 pivots) and unshifted indefinite input,
    whose 2x2 Bunch–Kaufman pivots run the rank-2 update."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    tol = _tol(np.float64)
    for shift in (n, 0):
        a = g + g.T + shift * np.eye(n)
        # An unshifted draw may be singular to working precision.
        if np.linalg.cond(a) > 1e8:
            continue
        b = a @ rng.standard_normal(n)
        x_ref, x_acc = _both(la_sysv, a, b)
        assert _cwise_backward_error(a, x_ref, b) <= tol
        assert _cwise_backward_error(a, x_acc, b) <= tol


@settings(**SETTINGS)
@given(n=dims, seed=seeds)
def test_lu_pivot_sequences_match(n, seed):
    """The adapters' pivot convention is the reference convention —
    same permutation, elementwise."""
    from repro.backends.kernels import getrf
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a_ref, a_acc = a.copy(), a.copy()
    with use_backend("reference"):
        piv_ref, info_ref = getrf(a_ref)
    with use_backend("accelerated"):
        piv_acc, info_acc = getrf(a_acc)
    assert info_ref == info_acc == 0
    np.testing.assert_array_equal(piv_ref, piv_acc)


@settings(**SETTINGS)
@given(n=dims, seed=seeds)
def test_syev_parity_spectrum(n, seed):
    """Eigenvalues agree absolutely for both ``uplo`` and both ``jobz``
    (eigenvectors may differ by sign / phase, so their parity is on the
    residual and orthogonality of each backend's own vectors)."""
    from repro import la_syev
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    a = (g + g.T) / 2
    eps = np.finfo(np.float64).eps
    for uplo in ("U", "L"):
        for jobz in ("N", "V"):
            outs = {}
            for name in ("reference", "accelerated"):
                with use_backend(name):
                    ai = a.copy()
                    w = la_syev(ai, jobz=jobz, uplo=uplo)
                    outs[name] = (w, ai)
            w_ref, w_acc = outs["reference"][0], outs["accelerated"][0]
            scale = max(1.0, float(np.abs(w_ref).max()))
            np.testing.assert_allclose(w_acc, w_ref, atol=200 * scale * eps)
            if jobz == "N":
                continue
            for w, v in outs.values():
                resid = np.linalg.norm(a @ v - v * w)
                assert resid <= 100 * n * scale * eps
                orth = np.linalg.norm(v.T @ v - np.eye(n))
                assert orth <= 100 * n * eps
