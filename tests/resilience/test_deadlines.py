"""Deadline budgets: entry and stage checkpoints, nesting."""

import time

import numpy as np
import pytest

import repro
from repro import DeadlineExceeded, Info, deadline, la_gesv, la_gesvx
from repro.errors import DEADLINE
from repro.resilience import deadlines, remaining
from repro.resilience.calllog import depth
from repro.testing import faultinject as fi


@pytest.fixture(autouse=True)
def _clean_state():
    yield
    fi.chaos_clear()


def _system():
    a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    return a, a @ np.array([1.0, -1.0, 2.0])


def test_entry_checkpoint_rejects_a_spent_budget():
    a, b = _system()
    with pytest.raises(DeadlineExceeded) as exc:
        with deadline(0.005):
            time.sleep(0.01)
            la_gesv(a, b)
    assert exc.value.stage == "entry"
    assert int(exc.value.partial) == DEADLINE
    assert "LA_GESV" in str(exc.value)


def test_stage_checkpoint_interrupts_between_factor_and_condition():
    a, b = _system()
    # The factor-stage kernel is slowed past the budget; the driver must
    # stop at the very next checkpoint rather than finish the pipeline.
    fi.chaos_install("getrf", latency=0.05)
    with pytest.raises(DeadlineExceeded) as exc:
        with deadline(0.02):
            la_gesvx(a.copy(), b.copy())
    assert exc.value.stage == "factor"
    assert int(exc.value.partial) == DEADLINE


def test_partial_info_carries_attempts_made_before_expiry():
    if "accelerated" not in repro.available_backends():
        pytest.skip("needs the accelerated backend registered")
    a, b = _system()
    # The slow accelerated getrf fails and escalates to reference; the
    # budget is spent by the time the factor stage ends.
    fi.chaos_install("getrf", latency=0.05, flaky_every=1,
                     backend="accelerated")
    info = Info()
    with pytest.raises(DeadlineExceeded) as exc:
        with deadline(0.02):
            la_gesvx(a.copy(), b.copy(), info=info, backend="accelerated")
    partial = exc.value.partial
    assert partial is info
    assert partial.attempts == ("accelerated:getrf#1:error=InjectedFault",
                                "reference:getrf#2")


def test_nested_deadlines_tightest_wins_and_unwind():
    a, b = _system()
    with deadline(30.0):
        with pytest.raises(DeadlineExceeded):
            with deadline(0.001):
                time.sleep(0.005)
                la_gesv(a.copy(), b.copy())
        # The inner scope unwound: only the generous budget remains.
        assert remaining() > 1.0
        la_gesv(a.copy(), b.copy())
    assert remaining() is None


def test_deadline_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        with deadline(0.0):
            pass


def test_no_deadline_means_no_checkpoint_cost_or_interference():
    a, b = _system()
    assert remaining() is None
    x = la_gesv(a, b)
    assert np.allclose(x, [1.0, -1.0, 2.0])


def test_calllog_frames_balance_across_deadline_raise():
    a, b = _system()
    before = depth()
    with pytest.raises(DeadlineExceeded):
        with deadline(0.001):
            time.sleep(0.005)
            la_gesv(a.copy(), b.copy())
    assert depth() == before


def test_deadline_check_is_thread_scoped():
    import threading

    seen = {}

    def worker():
        # The main thread's armed deadline must not leak here.
        seen["remaining"] = remaining()
        a, b = _system()
        la_gesv(a, b)
        seen["ok"] = True

    with deadline(0.0015):
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    assert seen["remaining"] is None
    assert seen["ok"]
