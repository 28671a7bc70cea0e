"""Accuracy of the reference eigenvalue path behind ``syev(jobz='N')``:
``sytrd``/``hetrd`` then the root-free ``sterf``, and the ``larfg``
reflectors they are built from.

``numpy.linalg.eigvalsh`` is the oracle here (tests only).  The bounds
are normwise, ``c · n · eps · ‖T‖``, the accuracy a backward-stable
tridiagonal eigensolver promises; graded matrices are where a relative
test would fail.  ``larfg`` must give the bytes of the NumPy-scalar
version it replaced, frozen below, for every caller.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.lapack77.householder import larfg
from repro.lapack77.td_eigen import hetrd, orgtr, sterf, sytrd, ungtr

from .test_td_eigen import tridiag

seeds = st.integers(0, 2**32 - 1)


# -- sterf against eigvalsh ----------------------------------------------------

def _random(rng, n):
    return rng.standard_normal(n), rng.standard_normal(n - 1)


def _graded(rng, n, k):
    """``d_i = 10^(k·i)``: k > 0 grades up the diagonal, k < 0 down,
    so blocks run both the QL and the QR sweep."""
    i = np.arange(n)
    d = 10.0 ** (k * i) * rng.uniform(0.5, 1.0, n)
    e = 10.0 ** (k * (i[:-1] + 0.5)) * rng.uniform(0.1, 1.0, n - 1)
    return d, e


def _glued_wilkinson(rng, n):
    """Copies of Wilkinson's W₇⁺ glued by tiny off-diagonals: pairs of
    eigenvalues agreeing to many digits."""
    w = np.abs(np.arange(7) - 3.0)
    copies = -(-n // 7)
    d = np.tile(w, copies)[:n]
    e = np.ones(n - 1)
    e[6::7] = 10.0 ** rng.uniform(-14, -6)
    return d, e


def _clustered(rng, n):
    d = rng.choice([-1.0, 0.5, 2.0], n) + 1e-12 * rng.standard_normal(n)
    e = 1e-9 * rng.uniform(0.1, 1.0, n - 1)
    return d, e


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["random", "graded", "glued", "clustered"]),
       n=st.integers(2, 60), k=st.sampled_from([-2.0, -0.5, 0.5, 2.0]),
       seed=seeds)
def test_sterf_is_normwise_accurate(kind, n, k, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        d, e = _random(rng, n)
    elif kind == "graded":
        d, e = _graded(rng, n, k if n * abs(k) < 250 else np.sign(k) / 2)
    elif kind == "glued":
        d, e = _glued_wilkinson(rng, n)
    else:
        d, e = _clustered(rng, n)
    t = tridiag(d, e)
    norm = np.abs(t).sum(axis=1).max()
    dd, ee = d.copy(), e.copy()
    assert sterf(dd, ee) == 0
    assert np.all(np.diff(dd) >= 0)
    err = np.abs(dd - np.linalg.eigvalsh(t)).max()
    assert err <= 2 * n * np.finfo(np.float64).eps * norm, err / norm


_EXTREMES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e-300, 1e-160,
             1e160, 1e300, 1.7e308, -1.7e308]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 12), seed=seeds,
       picks=st.lists(st.tuples(st.integers(0, 23),
                                st.sampled_from(_EXTREMES)), max_size=6))
def test_sterf_never_raises(n, seed, picks):
    # Python floats raise where NumPy would return ±inf or NaN, so every
    # division and square root of the sweep must be guarded by its split.
    rng = np.random.default_rng(seed)
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    for k, value in picks:
        (d if k % 2 else e)[(k // 2) % (n if k % 2 else n - 1)] = value
    with np.errstate(over="ignore", invalid="ignore"):
        # Gershgorin: every eigenvalue is at most this in magnitude.
        bound = np.abs(d).max() + 2 * np.abs(e).max()
    nan_in = np.isnan(d).any() or np.isnan(e).any()
    info = sterf(d, e, maxiter_factor=5)
    assert info >= 0
    if info == 0 and nan_in:
        assert np.isnan(d).any()
    elif info == 0 and bound < np.finfo(np.float64).max / 2:
        assert np.all(np.isfinite(d))


# -- the reduction: A = Q T Qᴴ with Q unitary -----------------------------------

@settings(max_examples=40, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64, np.complex64,
                              np.complex128]),
       uplo=st.sampled_from("UL"), n=st.integers(1, 48), seed=seeds)
def test_sytrd_backward_error_and_orthogonality(dtype, uplo, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, n))
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.uniform(-1, 1, (n, n))
    a0 = (x + x.conj().T).astype(dtype)
    a = a0.copy()
    hermitian = np.dtype(dtype).kind == "c"
    d, e, tau = (hetrd if hermitian else sytrd)(a, uplo)
    q = a.copy()
    (ungtr if hermitian else orgtr)(q, tau, uplo)
    q = q.astype(np.complex128 if hermitian else np.float64)
    eps = np.finfo(dtype).eps
    resid = a0 - q @ tridiag(d, e) @ q.conj().T
    anorm = max(np.abs(a0).sum(axis=0).max(), 1.0)
    assert np.abs(resid).sum(axis=0).max() / (n * anorm * eps) < 10
    ortho = np.abs(q.conj().T @ q - np.eye(n)).sum(axis=0).max()
    assert ortho / (n * eps) < 10


# -- larfg against the NumPy-scalar version it replaced ---------------------------

def _larfg_v0(alpha, x):
    """``larfg`` as it read before its real double-precision arithmetic
    moved to Python floats: every scalar a NumPy scalar."""
    n = x.shape[0] + 1
    if n <= 0:
        return alpha, 0.0
    complex_case = np.iscomplexobj(x) or np.iscomplexobj(np.asarray(alpha))
    xnorm = float(np.linalg.norm(x)) if x.size else 0.0
    if xnorm == 0.0 and (not complex_case or np.imag(alpha) == 0.0):
        return np.real(alpha) if complex_case else alpha, 0.0
    if complex_case:
        alphr, alphi = np.real(alpha), np.imag(alpha)
        beta = -np.sign(alphr if alphr != 0 else 1.0) * _lapy3_v0(
            alphr, alphi, xnorm)
        tau = complex((beta - alphr) / beta, -alphi / beta)
        denom = alpha - beta
        x /= denom
        return beta, tau
    beta = -np.sign(alpha if alpha != 0 else 1.0) * float(
        np.hypot(alpha, xnorm))
    tau = (beta - alpha) / beta
    x /= (alpha - beta)
    return beta, tau


def _lapy3_v0(x, y, z):
    w = max(abs(x), abs(y), abs(z))
    if w == 0:
        return 0.0
    return w * float(np.sqrt((x / w) ** 2 + (y / w) ** 2 + (z / w) ** 2))


def _bits(v, dtype):
    return np.asarray(v, dtype=dtype).tobytes()


@settings(max_examples=300, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64, np.complex64,
                              np.complex128]),
       m=st.integers(0, 6), scale=st.sampled_from(
           [1.0, 1e-300, 1e-160, 1e-40, 1e40, 1e160, 1e300, 5e-324]),
       shape=st.sampled_from(["plain", "zero-x", "zero-alpha", "special"]),
       strided=st.booleans(), seed=seeds)
def test_larfg_matches_the_numpy_scalar_version(dtype, m, scale, shape,
                                                strided, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(m + 1)
    if np.dtype(dtype).kind == "c":
        vals = vals + 1j * rng.standard_normal(m + 1)
    vals = vals * scale
    if shape == "zero-x":
        vals[1:] = 0
    elif shape == "zero-alpha":
        vals[0] = 0
    elif shape == "special":
        # Non-finite entries in x; a NaN alpha's sign bit is left free,
        # since NaN × NaN keeps either operand's NaN.
        vals[rng.integers(1, m + 1) if m else 0] = rng.choice(
            [np.inf, -np.inf, -0.0] + ([np.nan] if m else []))
    with np.errstate(all="ignore"):
        cols = np.zeros((m + 1, 2 if strided else 1), dtype=dtype)
        cols[:, 0] = vals
        new, old = cols.copy(), cols.copy()
        got = larfg(new[0, 0], new[1:, 0])
        want = _larfg_v0(old[0, 0], old[1:, 0])
    assert new.tobytes() == old.tobytes()
    assert [type(v) for v in got] == [type(v) for v in want]
    assert [_bits(v, dtype) for v in got] == [_bits(v, dtype) for v in want]


def test_larfg_rounds_the_norm_as_np_hypot_does():
    # math.hypot rounds this pair one ulp away from np.hypot.
    alpha = np.float64(1.760667296993123)
    new, old = np.array([0.19921798301385701]), np.array([0.19921798301385701])
    got, want = larfg(alpha, new), _larfg_v0(alpha, old)
    assert new.tobytes() == old.tobytes()
    assert [_bits(v, np.float64) for v in got] == [
        _bits(v, np.float64) for v in want]
