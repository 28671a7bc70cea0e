"""Windowed warning aggregation: the RateLimiter and the
backend-fallback announcements it paces."""

import warnings

import numpy as np
import pytest

import repro
from repro import la_gesv
from repro import backends
from repro.backends import reset_fallback_announcements, use_backend
from repro.errors import BackendFallbackWarning
from repro.resilience.ratelimit import RateLimiter


@pytest.fixture(autouse=True)
def _clean_state():
    yield
    reset_fallback_announcements()


def test_first_tick_emits_then_window_suppresses():
    rl = RateLimiter(window=60.0)
    assert rl.tick("k", now=0.0) == (True, 0)
    assert rl.tick("k", now=1.0) == (False, 0)
    assert rl.tick("k", now=59.9) == (False, 0)
    # Window expired: emit again, reporting the two suppressed ticks.
    assert rl.tick("k", now=60.0) == (True, 2)
    # Fresh window after re-emission.
    assert rl.tick("k", now=61.0) == (False, 0)


def test_keys_are_independent():
    rl = RateLimiter(window=10.0)
    assert rl.tick("a", now=0.0) == (True, 0)
    assert rl.tick("b", now=0.0) == (True, 0)
    assert rl.tick("a", now=5.0) == (False, 0)
    # "a"'s suppression does not bleed into "b"'s count.
    assert rl.tick("b", now=11.0) == (True, 0)


def test_per_call_window_override_and_reset():
    rl = RateLimiter(window=1000.0)
    assert rl.tick("k", now=0.0) == (True, 0)
    assert rl.tick("k", now=5.0, window=2.0) == (True, 0)
    rl.reset()
    assert rl.tick("k", now=5.0) == (True, 0)


def test_zero_window_always_emits():
    rl = RateLimiter(window=0.0)
    assert rl.tick("k", now=0.0) == (True, 0)
    assert rl.tick("k", now=0.0) == (True, 0)


def test_fallback_warning_aggregates_within_window():
    # 'accelerated' does not provide lagge: every dispatch degrades to
    # reference, but only the first announcement in the window emits.
    if "accelerated" not in repro.available_backends():
        pytest.skip("needs the accelerated backend registered")
    from repro.backends.kernels import lagge

    def call():
        return lagge(3, 3, np.array([1.0, 0.5, 0.25]), kl=2, ku=2,
                     dtype=np.float64, rng=np.random.default_rng(0))

    with use_backend("accelerated"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(4):
                call()
    msgs = [str(w.message) for w in caught
            if issubclass(w.category, BackendFallbackWarning)]
    assert len(msgs) == 1
    assert "lagge" in msgs[0]


def test_fallback_warning_reports_suppressed_count_after_window(
        monkeypatch):
    if "accelerated" not in repro.available_backends():
        pytest.skip("needs the accelerated backend registered")
    a0 = np.array([[4.0, 1.0], [1.0, 3.0]])
    monkeypatch.setattr(backends, "WARNING_WINDOW", 0.05)
    with use_backend("accelerated"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # gecon is reference-only: each expert solve announces.
            from repro.backends.kernels import gecon
            gecon(a0.copy(), 5.0)
            gecon(a0.copy(), 5.0)
            gecon(a0.copy(), 5.0)
            import time
            time.sleep(0.06)
            gecon(a0.copy(), 5.0)
    msgs = [str(w.message) for w in caught
            if issubclass(w.category, BackendFallbackWarning)
            and "gecon" in str(w.message)]
    assert len(msgs) == 2
    assert "suppressed" not in msgs[0]
    assert "2 identical warnings suppressed" in msgs[1]


def test_reset_allows_immediate_reannouncement():
    if "accelerated" not in repro.available_backends():
        pytest.skip("needs the accelerated backend registered")
    from repro.backends.kernels import gecon
    a0 = np.array([[4.0, 1.0], [1.0, 3.0]])
    with use_backend("accelerated"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            gecon(a0.copy(), 5.0)
            reset_fallback_announcements()
            gecon(a0.copy(), 5.0)
    msgs = [w for w in caught
            if issubclass(w.category, BackendFallbackWarning)]
    assert len(msgs) == 2
