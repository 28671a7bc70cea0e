"""Info attempts telemetry and healthcheck() reporting."""

import numpy as np
import pytest

import repro
from repro import Info, healthcheck, la_gesv
from repro.errors import DEADLINE, DeadlineExceeded, erinfo
from repro.testing import faultinject as fi


@pytest.fixture(autouse=True)
def _clean_state():
    yield
    fi.chaos_clear()


# -- Info repr/hash/equality with the new fields ----------------------

def test_plain_info_repr_is_unchanged():
    assert repr(Info(2)) == "Info(2)"
    assert repr(Info(0)) == "Info(0)"


def test_repr_includes_attempts_when_set():
    info = Info(0)
    info.attempts = ("accelerated:gesv#1:error=InjectedFault",
                     "reference:gesv#2")
    r = repr(info)
    assert r.startswith("Info(0")
    assert "attempts=" in r and "reference:gesv#2" in r


def test_equality_and_hash_ignore_telemetry_fields():
    clean = Info(0)
    noisy = Info(0)
    noisy.attempts = ("accelerated:gesv#1:error=InjectedFault",
                      "reference:gesv#2")
    # Telemetry depends on the backend; the outcome is what equality
    # means.
    assert clean == noisy
    assert hash(clean) == hash(noisy)
    assert noisy == 0
    assert len({clean, noisy}) == 1


def test_telemetry_from_a_real_call_round_trips_through_repr():
    if "accelerated" not in repro.available_backends():
        pytest.skip("needs the accelerated backend registered")
    fi.chaos_install("gesv", flaky_every=1, backend="accelerated")
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    b = a @ np.array([1.0, 2.0])
    info = Info()
    la_gesv(a, b, info=info, backend="accelerated")
    assert info.attempts is not None
    assert "attempts=" in repr(info)
    assert info == 0


def test_deadline_exceeded_carries_partial_info():
    exc = DeadlineExceeded("LA_GESV", stage="solve")
    assert exc.stage == "solve"
    assert int(exc.partial) == DEADLINE
    assert "'solve'" in str(exc)


def test_erinfo_classifies_deadline_band():
    info = Info()
    with pytest.raises(DeadlineExceeded):
        erinfo(DEADLINE, "LA_GESV", None)
    # With an info handle the code is recorded, not raised.
    erinfo(DEADLINE, "LA_GESV", info)
    assert int(info) == DEADLINE


# -- healthcheck ------------------------------------------------------

def test_healthcheck_reports_backends_and_dispatch():
    report = healthcheck()
    assert set(report) == {"backends", "dispatch"}
    assert report["backends"]["reference"]["ok"]
    assert report["backends"]["reference"]["residual"] < 1e-10
    # The front door's structure-cache counters ride along.
    cache = report["dispatch"]["structure_cache"]
    assert {"entries", "hits", "misses", "invalidated",
            "epoch"} <= set(cache)


def test_healthcheck_surfaces_a_sick_backend_without_raising():
    if "accelerated" not in repro.available_backends():
        pytest.skip("needs the accelerated backend registered")
    import warnings
    fi.chaos_install("gesv", flaky_every=1, backend="accelerated")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = healthcheck()
    # The accelerated probe degraded to reference (escalation), so the
    # answer is still correct — healthcheck never raises.
    assert report["backends"]["accelerated"]["ok"]
    assert report["backends"]["reference"]["ok"]
