"""The front door's bit-identity contract, hypothesis-driven.

For every structure class, ``repro.solve`` must return the *same bits*
as calling the routed driver directly — same solution array, same
``Info`` code — on every registered backend.  The suite runs unchanged
under ``REPRO_CHAOS=1``: the profile fails every accelerated call of a
hot kernel and the resilience layer serves each once from reference,
for the front door and the direct call alike.
"""

import numpy as np
import pytest

from repro import (backends, eig, la_gbsv, la_gels, la_geev, la_gesv,
                   la_gtsv, la_hesv, la_posv, la_syev, la_sysv,
                   la_trtrs, lstsq, solve, use_backend)
from repro.dispatch_front import cache
from repro.dispatch_front.api import _band_storage
from repro.errors import Info

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SETTINGS = dict(max_examples=20, deadline=None)

# n >= 3 keeps dense operands out of the tridiagonal band class (at
# n <= 2 *every* square matrix has kl, ku <= 1 and correctly routes to
# la_gtsv — the band ladder outranks symmetry for solves).
dims = st.integers(min_value=3, max_value=12)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
backend_names = st.sampled_from(backends.available_backends())


def _pair(driver_result, driver_info, a, b, **solve_kw):
    """Run the front door on a fresh cache and compare bitwise."""
    cache.clear()
    info = Info()
    x = solve(a, b, info=info, **solve_kw)
    np.testing.assert_array_equal(x, driver_result)
    assert int(info) == int(driver_info)
    return info


@settings(**SETTINGS)
@given(n=dims, seed=seeds, name=backend_names)
def test_general_matches_la_gesv(n, seed, name):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    b = a @ rng.standard_normal(n)
    with use_backend(name):
        want, winfo = a.copy(), Info()
        bw = b.copy()
        la_gesv(want, bw, info=winfo)
        info = _pair(bw, winfo, a, b)
    assert info.chosen_driver == "la_gesv"
    assert info.structure == "general"


@settings(**SETTINGS)
@given(n=dims, seed=seeds, name=backend_names,
       iscomplex=st.booleans())
def test_definite_matches_la_posv_including_cached_refit(
        n, seed, name, iscomplex):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    if iscomplex:
        g = g + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    a = (m + m.conj().T) / 2 + n * np.eye(n)
    b = a @ rng.standard_normal(n)
    with use_backend(name):
        bw, winfo = b.copy(), Info()
        la_posv(a.copy(), bw, uplo="U", info=winfo)
        info = _pair(bw, winfo, a, b)
        # The repeat solve reuses the factor la_posv left behind
        # (potrs path) and must still be bit-identical to the driver.
        again = Info()
        x2 = solve(a, b, info=again)
        np.testing.assert_array_equal(x2, bw)
        assert again.probe_cost == 0.0
    assert info.structure == ("hpd" if iscomplex else "spd")
    assert info.chosen_driver == "la_posv"


@settings(**SETTINGS)
@given(n=dims, seed=seeds, name=backend_names)
def test_indefinite_symmetric_matches_la_sysv(n, seed, name):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    a = g + g.T
    np.fill_diagonal(a, a.diagonal() - 5.0 * n)   # indefinite, not PD
    b = a @ rng.standard_normal(n)
    with use_backend(name):
        bw, winfo = b.copy(), Info()
        la_sysv(a.copy(), bw, info=winfo)
        info = _pair(bw, winfo, a, b)
    assert info.chosen_driver == "la_sysv"
    assert info.structure == "symmetric"


@settings(**SETTINGS)
@given(n=dims, seed=seeds, name=backend_names)
def test_hermitian_indefinite_matches_la_hesv(n, seed, name):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = g + g.conj().T
    np.fill_diagonal(a, a.diagonal() - 5.0 * n)
    b = a @ rng.standard_normal(n)
    with use_backend(name):
        bw, winfo = b.astype(complex), Info()
        la_hesv(a.copy(), bw, info=winfo)
        info = _pair(bw, winfo, a, b)
    assert info.chosen_driver == "la_hesv"
    assert info.structure == "hermitian"


def _positive_diagonal_indefinite(rng, n, iscomplex):
    """Hermitian with a strictly positive real diagonal — so the probe
    routes it to ``la_posv`` — whose leading 2x2 minor is negative, so
    ``potrf`` fails and the front door must fall back."""
    g = rng.standard_normal((n, n))
    if iscomplex:
        g = g + 1j * rng.standard_normal((n, n))
    a = g + g.conj().T
    np.fill_diagonal(a, rng.uniform(0.5, 1.0, n))
    a[0, 1] = 3.0 + (2j if iscomplex else 0.0)
    a[1, 0] = np.conj(a[0, 1])
    return a


@settings(**SETTINGS)
@given(n=dims, seed=seeds, name=backend_names,
       iscomplex=st.booleans())
def test_positive_diagonal_indefinite_falls_back_bit_identically(
        n, seed, name, iscomplex):
    rng = np.random.default_rng(seed)
    a = _positive_diagonal_indefinite(rng, n, iscomplex)
    b = a @ rng.standard_normal(n)
    driver = la_hesv if iscomplex else la_sysv
    with use_backend(name):
        bw, winfo = b.astype(a.dtype), Info()
        driver(a.copy(), bw, info=winfo)
        info = _pair(bw, winfo, a, b)
    assert int(info) == 0
    assert info.chosen_driver == driver.__name__
    assert info.structure == ("hermitian" if iscomplex else "symmetric")
    assert cache.stats()["entries"] == 0


@settings(**SETTINGS)
@given(n=dims, seed=seeds, name=backend_names,
       lower=st.booleans())
def test_triangular_matches_la_trtrs(n, seed, name, lower):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + n * np.eye(n)
    a = np.tril(g) if lower else np.triu(g)
    b = a @ rng.standard_normal(n)
    with use_backend(name):
        bw, winfo = b.copy(), Info()
        la_trtrs(a, bw, uplo="L" if lower else "U", info=winfo)
        info = _pair(bw, winfo, a, b)
    assert info.chosen_driver == "la_trtrs"
    assert info.structure == ("diagonal" if n == 1 else "triangular")


@settings(**SETTINGS)
@given(n=st.integers(min_value=3, max_value=12), seed=seeds,
       name=backend_names)
def test_tridiagonal_matches_la_gtsv(n, seed, name):
    rng = np.random.default_rng(seed)
    a = np.triu(np.tril(rng.standard_normal((n, n)), 1), -1) \
        + n * np.eye(n)
    b = a @ rng.standard_normal(n)
    with use_backend(name):
        bw, winfo = b.copy(), Info()
        la_gtsv(a.diagonal(-1).copy(), a.diagonal().copy(),
                a.diagonal(1).copy(), bw, info=winfo)
        info = _pair(bw, winfo, a, b)
    assert info.chosen_driver == "la_gtsv"
    assert info.structure == "tridiagonal"


@settings(**SETTINGS)
@given(n=st.integers(min_value=9, max_value=16), seed=seeds,
       name=backend_names)
def test_banded_matches_la_gbsv(n, seed, name):
    rng = np.random.default_rng(seed)
    a = np.triu(np.tril(rng.standard_normal((n, n)), 2), -2) \
        + n * np.eye(n)
    b = a @ rng.standard_normal(n)
    with use_backend(name):
        bw, winfo = b.copy(), Info()
        la_gbsv(_band_storage(a, 2, 2), bw, kl=2, info=winfo)
        info = _pair(bw, winfo, a, b)
    assert info.chosen_driver == "la_gbsv"
    assert info.structure == "banded"


@settings(**SETTINGS)
@given(n=dims, m_extra=st.integers(min_value=0, max_value=4),
       seed=seeds, name=backend_names)
def test_lstsq_matches_la_gels(n, m_extra, seed, name):
    rng = np.random.default_rng(seed)
    m = n + m_extra
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    with use_backend(name):
        cache.clear()
        aw, bw, winfo = a.copy(), b.copy(), Info()
        x_want = la_gels(aw, bw, info=winfo)
        info = Info()
        x = lstsq(a, b, info=info)
        np.testing.assert_array_equal(x, x_want)
        assert int(info) == int(winfo)
    assert info.chosen_driver == "la_gels"


@settings(**SETTINGS)
@given(n=dims, seed=seeds, name=backend_names)
def test_eig_symmetric_matches_la_syev(n, seed, name):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    a = g + g.T
    with use_backend(name):
        cache.clear()
        aw = a.copy()
        w_want = la_syev(aw, jobz="V")
        info = Info()
        w, v = eig(a, vectors=True, info=info)
        np.testing.assert_array_equal(w, w_want)
        np.testing.assert_array_equal(v, aw)
    assert info.chosen_driver == "la_syev"
    assert list(w) == sorted(w)


@settings(**SETTINGS)
@given(n=dims, seed=seeds, name=backend_names)
def test_eig_general_matches_la_geev(n, seed, name):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    hypothesis.assume(not np.array_equal(a, a.T))
    with use_backend(name):
        cache.clear()
        w_want = la_geev(a.copy())
        info = Info()
        w = eig(a, info=info)
        np.testing.assert_array_equal(w, w_want)
    assert info.chosen_driver == "la_geev"
    assert info.structure == "general"
