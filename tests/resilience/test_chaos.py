"""The chaos harness itself: deterministic seam faults and the CI
profile's escalate-to-reference guarantee."""

import numpy as np
import pytest

from repro import Info, available_backends, la_gesv, la_posv
from repro.backends import kernels, use_backend
from repro.faults import (CHAOS_DEFAULT_ROUTINES, chaos_active,
                          default_chaos_profile)
from repro.resilience import calllog
from repro.testing import faultinject as fi

ACCELERATED = "accelerated" in available_backends()


@pytest.fixture(autouse=True)
def _clean_harness():
    # These tests arm their own faults, so they start from a clean
    # harness even when the suite runs under REPRO_CHAOS.
    fi.chaos_clear()
    yield
    fi.chaos_clear()


def _system(dtype=float):
    a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]],
                 dtype=dtype)
    return a, a @ np.array([1.0, -1.0, 2.0], dtype=dtype)


def seam_attempts(backend, routine, *args):
    """Call one kernel through the dispatch seam inside a call-log frame;
    return ``(exception or None, recorded attempts)``."""
    calllog.push()
    try:
        with use_backend(backend):
            kernels.KernelProxy(routine)(*args)
    except Exception as exc:          # noqa: BLE001
        return exc, calllog.drain()["attempts"]
    return None, calllog.drain()["attempts"]


def test_chaos_install_validates_arguments():
    with pytest.raises(ValueError):
        fi.chaos_install("gesv")
    with pytest.raises(ValueError):
        fi.chaos_install("gesv", flaky_every=0)


def test_flaky_every_k_is_deterministic():
    # On reference nothing escalates, so every third call fails and the
    # others are untouched.
    fi.chaos_install("gesv", flaky_every=3)
    outcomes = []
    for _ in range(6):
        a, b = _system()
        try:
            la_gesv(a, b, backend="reference")
        except fi.InjectedFault:
            outcomes.append("fault")
        else:
            assert np.allclose(b, [1.0, -1.0, 2.0])
            outcomes.append("ok")
    assert outcomes == ["ok", "ok", "fault", "ok", "ok", "fault"]


def test_backend_filter_does_not_advance_counters():
    # A fault pinned to 'accelerated' never fires for reference calls
    # and, crucially, reference calls do not consume the counter.
    fi.chaos_install("gesv", flaky_every=2, backend="accelerated")
    for _ in range(3):
        a, b = _system()
        info = Info()
        la_gesv(a, b, info=info, backend="reference")
        assert info.attempts is None
        assert np.allclose(b, [1.0, -1.0, 2.0])
    if not ACCELERATED:
        return
    seen = []
    for _ in range(2):
        a, b = _system()
        info = Info()
        la_gesv(a, b, info=info, backend="accelerated")
        assert np.allclose(b, [1.0, -1.0, 2.0])
        seen.append(info.attempts)
    assert seen == [None, ("accelerated:gesv#1:error=InjectedFault",
                           "reference:gesv#2")]


def test_chaos_context_manager_disarms():
    with fi.chaos("gesv", flaky_every=1):
        assert chaos_active()
    assert not chaos_active()


def test_default_profile_covers_hot_kernels_and_suite_degrades():
    default_chaos_profile()
    assert chaos_active()
    assert "gesv" in CHAOS_DEFAULT_ROUTINES
    assert "potrf" in CHAOS_DEFAULT_ROUTINES
    # Every accelerated call of a hot kernel fails and is served once by
    # reference; on reference nothing fires.
    for backend in available_backends():
        escalated = backend == "accelerated"
        for driver, routine in ((la_gesv, "gesv"), (la_posv, "posv")):
            a, b = _system()
            info = Info()
            driver(a, b, info=info, backend=backend)
            assert np.allclose(b, [1.0, -1.0, 2.0])
            want = ((f"accelerated:{routine}#1:error=InjectedFault",
                     f"reference:{routine}#2") if escalated else None)
            assert info.attempts == want, (backend, routine)


def test_transient_failure_escapes_when_budget_and_rungs_exhaust():
    # The reference kernel has nowhere to escalate: the contract is an
    # honest failure, not a wrong answer, and nothing is retried.
    fi.chaos_install("gesv", flaky_every=1)
    a, b = _system()
    with pytest.raises(fi.InjectedFault):
        la_gesv(a, b, backend="reference")
    exc, attempts = seam_attempts("reference", "gesv", a, b)
    assert isinstance(exc, fi.InjectedFault)
    assert attempts == ["reference:gesv#1:error=InjectedFault"]


def test_undeclared_backend_failure_propagates():
    # A backend that declares no write-back entries may have wrecked its
    # operands before dying, so its failure is never handed to the
    # reference kernel: the exception propagates and no answer returns.
    from repro.backends import (Backend, register_backend,
                                unregister_backend)

    def vandal_gesv(a, b):
        a[...] = 0.0
        b[...] = -7.0
        raise RuntimeError("kernel died after mutating its inputs")

    register_backend(Backend("vandal", {"gesv": vandal_gesv}))
    try:
        a, b = _system()
        with pytest.raises(RuntimeError, match="mutating"):
            la_gesv(a, b, backend="vandal")
        exc, attempts = seam_attempts("vandal", "gesv", *_system())
        assert isinstance(exc, RuntimeError)
        assert attempts == ["vandal:gesv#1:error=RuntimeError"]
    finally:
        unregister_backend("vandal")


def test_escaped_failure_leaves_no_attempt_trail_behind():
    # The failed call's frame closes with it, so the next driver call
    # reports only its own attempts: none, for a clean call (the trail
    # stays None, as on every clean call).
    from repro import la_getrf
    from repro.backends import (Backend, register_backend,
                                unregister_backend)

    def dying_gesv(a, b):
        raise RuntimeError("kernel died")

    register_backend(Backend("vandal", {"gesv": dying_gesv}))
    try:
        with pytest.raises(RuntimeError):
            la_gesv(*_system(), backend="vandal")
    finally:
        unregister_backend("vandal")
    assert calllog.depth() == 0
    info = Info()
    la_getrf(_system()[0], info=info)
    assert info.value == 0 and info.attempts is None
