"""Shared fixtures: seeded RNG, dtype parametrization, tolerance helpers,
the chaos profile re-armed before every test under ``REPRO_CHAOS``, and
a check that no test leaves a resilience call-log frame behind."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import faults
from repro.resilience import calllog

CHAOS = os.environ.get("REPRO_CHAOS", "").strip() not in ("", "0")

REAL_DTYPES = [np.float32, np.float64]
COMPLEX_DTYPES = [np.complex64, np.complex128]
ALL_DTYPES = REAL_DTYPES + COMPLEX_DTYPES

_TOL = {
    np.dtype(np.float32): 1e-4,
    np.dtype(np.float64): 1e-10,
    np.dtype(np.complex64): 1e-4,
    np.dtype(np.complex128): 1e-10,
}


def tol_for(dtype, factor: float = 1.0) -> float:
    """A practical comparison tolerance for a dtype, scaled by ``factor``."""
    return _TOL[np.dtype(dtype)] * factor


def rand_matrix(rng, m, n, dtype):
    """Random matrix with entries in [-1, 1] (+ imaginary part if complex)."""
    a = rng.uniform(-1, 1, (m, n))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.uniform(-1, 1, (m, n))
    return np.asarray(a, dtype=dtype)


def rand_vector(rng, n, dtype):
    v = rng.uniform(-1, 1, n)
    if np.dtype(dtype).kind == "c":
        v = v + 1j * rng.uniform(-1, 1, n)
    return np.asarray(v, dtype=dtype)


def well_conditioned(rng, n, dtype, diag_boost: float = None):
    """Random diagonally-dominant matrix — safely invertible in any dtype."""
    a = rand_matrix(rng, n, n, dtype)
    boost = n if diag_boost is None else diag_boost
    a[np.diag_indices(n)] += boost
    return a


def spd_matrix(rng, n, dtype):
    """Random symmetric/Hermitian positive definite matrix."""
    a = rand_matrix(rng, n, n, dtype)
    h = a @ np.conj(a.T)
    h[np.diag_indices(n)] += n
    if np.dtype(dtype).kind == "c":
        h = (h + np.conj(h.T)) / 2
    else:
        h = (h + h.T) / 2
    return np.asarray(h, dtype=dtype)


@pytest.fixture
def rng():
    return np.random.default_rng(20260704)


@pytest.fixture(params=ALL_DTYPES, ids=["f32", "f64", "c64", "c128"])
def dtype(request):
    return request.param


@pytest.fixture(params=REAL_DTYPES, ids=["f32", "f64"])
def real_dtype(request):
    return request.param


@pytest.fixture(params=COMPLEX_DTYPES, ids=["c64", "c128"])
def complex_dtype(request):
    return request.param


@pytest.fixture(autouse=True)
def _chaos_profile():
    """Under ``REPRO_CHAOS`` every test starts with exactly the default
    chaos profile armed, whatever the previous test left behind.  A test
    that needs a clean harness clears it in its own setup."""
    if CHAOS:
        faults.chaos_clear()
        faults.default_chaos_profile()
    yield


@pytest.fixture(autouse=True)
def _no_stranded_calllog_frame():
    """Every driver call closes the call-log frame it opened, however
    it exits; a frame left open would leak its attempt trail into the
    next call's ``Info``."""
    before = calllog.depth()
    yield
    after = calllog.depth()
    while calllog.depth() > before:    # keep the next test's start clean
        calllog.drain()
    if after != before:
        pytest.fail(f"call-log depth {before} -> {after}: a frame was "
                    "left open", pytrace=False)
