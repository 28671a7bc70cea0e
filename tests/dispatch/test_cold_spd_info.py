"""A cold ``spd``/``hpd`` solve reports exactly like the driver that
answered it.

The front door runs a probed ``spd``/``hpd`` operand through a trial
``la_posv``; on success that answer and its ``Info`` stand, and on a
positive INFO (or ``la_posv``'s own fallback ladder firing) the call
re-solves through ``la_sysv``/``la_hesv``.  Either way the solution
bytes and the ``value``/``fallback``/``rcond``/``attempts`` slots must
be what a direct call of the answering driver gives, on both backends,
with and without ``exception_policy(fallbacks=True)``; without an
``Info`` the same exception class must escape.  A repeat solve of an
operand whose trial succeeded is a cache hit with the same bytes.
"""

import warnings

import numpy as np
import pytest

from repro import (Info, available_backends, exception_policy, la_hesv,
                   la_posv, la_sysv, solve, use_backend)
from repro.dispatch_front import cache

N = 5
BACKENDS = [b for b in ("reference", "accelerated")
            if b in available_backends()]
SLOTS = ("value", "fallback", "rcond", "attempts")


@pytest.fixture(autouse=True)
def _fresh_cache():
    cache.clear()
    cache.reset_stats()
    yield
    cache.clear()


def _operand(kind, dtype):
    """``(a, b, answering driver)``: every ``a`` probes ``spd``/``hpd``."""
    rng = np.random.default_rng(5)
    g = rng.standard_normal((N, N))
    b = rng.standard_normal(N)
    if np.dtype(dtype).kind == "c":
        g = g + 1j * rng.standard_normal((N, N))
        b = b + 1j * rng.standard_normal(N)
    m = g @ g.conj().T
    a = ((m + m.conj().T) / 2 + N * np.eye(N)).astype(dtype)
    refined = la_hesv if a.dtype.kind == "c" else la_sysv
    if kind == "definite":
        return a, b, la_posv
    if kind == "indefinite":          # positive diagonal, eigenvalue -1
        return (2 * np.ones((N, N)) - np.eye(N)).astype(dtype), b, refined
    a[1, 3] = a[3, 1] = a[3, 3] = np.inf    # inf - inf: a NaN pivot
    return a, b, refined


def _direct(driver, a, b, info):
    x = b.copy()
    driver(a.copy(), x, info=info)
    return x


def _outcome(fn):
    try:
        return "returned", fn().tobytes()
    except Exception as exc:  # noqa: BLE001 — the class is the result
        return "raised", type(exc)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fallbacks", [False, True])
@pytest.mark.parametrize("kind", ["definite", "indefinite", "nan_pivot"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_cold_spd_solve_reports_like_the_answering_driver(
        backend, fallbacks, kind, dtype):
    a, b, driver = _operand(kind, dtype)
    with use_backend(backend), exception_policy(fallbacks=fallbacks), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trial = Info()
        _direct(la_posv, a, b, trial)
        assert (trial.value > 0 or trial.fallback is not None) == (
            driver is not la_posv)
        want = Info()
        x_want = _direct(driver, a, b, want)

        info = Info()
        x = solve(a, b, info=info)
        assert x.tobytes() == x_want.tobytes()
        assert [getattr(info, s) for s in SLOTS] == \
            [getattr(want, s) for s in SLOTS]
        assert info.chosen_driver == driver.__name__
        assert info.structure == (
            ("hpd" if a.dtype.kind == "c" else "spd")
            if driver is la_posv else
            ("hermitian" if a.dtype.kind == "c" else "symmetric"))

        hits = cache.stats()["hits"]
        again = Info()
        assert solve(a, b, info=again).tobytes() == x.tobytes()
        assert cache.stats()["hits"] == hits + (driver is la_posv)
        assert (again.probe_cost == 0.0) == (driver is la_posv)

        cache.clear()
        assert _outcome(lambda: solve(a, b)) == \
            _outcome(lambda: _direct(driver, a, b, None))


@pytest.mark.parametrize("backend", BACKENDS)
def test_stale_slots_on_the_callers_handle_do_not_reroute(backend):
    """The trial reads ``fallback`` to decide on a re-solve, so what an
    earlier call left on a reused handle must not count."""
    a, b, _ = _operand("definite", np.float64)
    info = Info()
    info.fallback, info.rcond, info.attempts = "LA_SYSV", 1.0, ("x",)
    with use_backend(backend):
        want = Info()
        x_want = _direct(la_posv, a, b, want)
        x = solve(a, b, info=info)
    assert x.tobytes() == x_want.tobytes()
    assert info.chosen_driver == "la_posv"
    assert [getattr(info, s) for s in SLOTS] == \
        [getattr(want, s) for s in SLOTS]
