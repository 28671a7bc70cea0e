"""Concurrency stress for the process-global configuration state.

LA023's companion runtime guarantee: backend selection, the exception
policy and the block-size table are all guarded by one shared
re-entrant lock (:data:`repro._sync.STATE_LOCK`), so N threads flipping
the knobs while other threads solve never observe a torn update or
corrupt the tables permanently.
"""

import threading
import time
import warnings

import numpy as np
import pytest

from repro import _sync, backends, config, policy
from repro import (exception_policy, la_gesv, la_posv, set_policy, solve,
                   use_backend)
from repro.dispatch_front import cache
from repro.errors import Info
from repro.resilience.ratelimit import RateLimiter
from repro.testing import faultinject as fi

N_THREADS = 8
N_ITER = 60


@pytest.fixture(autouse=True)
def _restore_state():
    backend = backends.get_backend_name()
    pol = policy.get_policy()
    before = (pol.nonfinite, pol.rcond_guard, pol.fallbacks)
    nb = config.get_block_size("getrf")
    yield
    backends.set_backend(backend)
    set_policy(nonfinite=before[0], rcond_guard=before[1],
               fallbacks=before[2])
    config.set_block_size("getrf", nb)
    fi.chaos_clear()


def _system(n=8, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a += n * np.eye(n)
    b = a.sum(axis=1)
    return a, b


def test_state_lock_is_shared_and_reentrant():
    # One lock guards all three owners, and it must be an RLock: the
    # context managers restore through the setters while holding it.
    assert isinstance(_sync.STATE_LOCK, type(threading.RLock()))
    with _sync.STATE_LOCK:
        with _sync.STATE_LOCK:      # re-entry must not deadlock
            backends.set_backend(backends.get_backend_name())
            set_policy(fallbacks=False)


def test_threads_flipping_state_while_drivers_solve():
    errors = []
    start = threading.Barrier(N_THREADS)

    def solver(seed):
        start.wait()
        a, b = _system(seed=seed)
        for _ in range(N_ITER):
            info = Info()
            x = la_gesv(a.copy(), b.copy(), info=info)
            if info.value != 0:
                errors.append(f"solver info={info.value}")
                return
            if not np.allclose(a @ x, b, atol=1e-8):
                errors.append("solver residual blew up")
                return

    def backend_flipper():
        start.wait()
        for i in range(N_ITER):
            name = "accelerated" if i % 2 else "reference"
            try:
                with use_backend(name):
                    got = backends.get_backend_name()
                    if got not in ("reference", "accelerated"):
                        errors.append(f"torn backend read: {got!r}")
                        return
            except Exception as exc:          # noqa: BLE001
                errors.append(f"backend flip raised: {exc!r}")
                return

    def policy_flipper():
        start.wait()
        for i in range(N_ITER):
            mode = "check" if i % 2 else "propagate"
            try:
                with exception_policy(nonfinite=mode):
                    got = policy.get_policy().nonfinite
                    if got not in ("check", "warn", "propagate"):
                        errors.append(f"torn policy read: {got!r}")
                        return
            except Exception as exc:          # noqa: BLE001
                errors.append(f"policy flip raised: {exc!r}")
                return

    def block_flipper():
        start.wait()
        for i in range(N_ITER):
            try:
                with config.block_size_override("getrf", 8 + (i % 4)):
                    nb = config.get_block_size("getrf")
                    if nb < 1:
                        errors.append(f"torn block size: {nb}")
                        return
            except Exception as exc:          # noqa: BLE001
                errors.append(f"block flip raised: {exc!r}")
                return

    workers = [threading.Thread(target=solver, args=(s,))
               for s in range(N_THREADS - 3)]
    workers += [threading.Thread(target=backend_flipper),
                threading.Thread(target=policy_flipper),
                threading.Thread(target=block_flipper)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in workers), "stress test hung"
    assert errors == []


def test_pinned_calls_leave_the_selection_alone():
    # Two overlapping ``backend=`` calls on two threads, held open by
    # chaos latency, pin only themselves: the process selection is the
    # same after both return, and a third thread calling meanwhile is
    # served by the selected backend throughout.
    if "accelerated" not in backends.available_backends():
        pytest.skip("needs the accelerated backend registered")
    fi.chaos_clear()
    backends.set_backend("accelerated")
    # gesv sleeps on any backend; posv fails on accelerated, so an
    # accelerated posv call shows on its attempt trail.
    fi.chaos_install("gesv", latency=0.3)
    fi.chaos_install("posv", flaky_every=1, backend="accelerated")
    spd = np.array([[4.0, 1.0], [1.0, 3.0]])
    served = ("accelerated:posv#1:error=InjectedFault", "reference:posv#2")
    errors = []
    solved = []

    def pinned(name, delay):
        time.sleep(delay)
        a, b = _system(seed=1)
        x = la_gesv(a.copy(), b.copy(), backend=name)
        if np.allclose(a @ x, b, atol=1e-8):
            solved.append(name)

    pins = [threading.Thread(target=pinned, args=("reference", 0.0)),
            threading.Thread(target=pinned, args=("accelerated", 0.1))]
    for t in pins:
        t.start()
    time.sleep(0.05)
    calls = 0
    while any(t.is_alive() for t in pins):
        info = Info()
        la_posv(spd.copy(), np.ones(2), info=info)
        calls += 1
        if info.attempts != served:
            errors.append(f"unpinned call served as {info.attempts}")
            break
        time.sleep(0.01)
    for t in pins:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in pins), "pinned calls hung"
    assert errors == []
    assert sorted(solved) == ["accelerated", "reference"]
    assert calls > 0
    assert backends.get_backend_name() == "accelerated"


def test_context_managers_restore_under_contention():
    # Scoped overrides of *distinct* knobs from concurrent threads must
    # leave the defaults exactly as they found them once every thread
    # exits.  (Two threads scoping the same knob is inherently
    # last-restore-wins — the lock makes each transition atomic, not
    # the nesting commutative.)
    backends.set_backend("reference")
    set_policy(nonfinite="propagate", rcond_guard="silent",
               fallbacks=False)
    config.set_block_size("getrf", 64)
    start = threading.Barrier(3)

    def churn_backend():
        start.wait()
        for j in range(N_ITER):
            with use_backend("accelerated" if j % 2 else "reference"):
                backends.get_backend_name()

    def churn_policy():
        start.wait()
        for _ in range(N_ITER):
            with exception_policy(nonfinite="warn", fallbacks=True):
                policy.get_policy()

    def churn_blocks():
        start.wait()
        for j in range(N_ITER):
            with config.block_size_override("getrf", 8 + (j % 4)):
                config.get_block_size("getrf")

    threads = [threading.Thread(target=f)
               for f in (churn_backend, churn_policy, churn_blocks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert backends.get_backend_name() == "reference"
    pol = policy.get_policy()
    assert (pol.nonfinite, pol.rcond_guard, pol.fallbacks) \
        == ("propagate", "silent", False)
    assert config.get_block_size("getrf") == 64


def test_structure_cache_survives_probe_insert_invalidate_races():
    # The front door's per-array structure cache (LA023's largest
    # guarded surface) under fire: solver threads probe/hit/store the
    # same operands, invalidators drop entries wholesale, and a backend
    # flipper turns every entry stale and back — all while every solve
    # must stay correct and every stats() snapshot internally
    # consistent.
    errors = []
    start = threading.Barrier(N_THREADS)
    rng = np.random.default_rng(7)
    spd = rng.standard_normal((8, 8))
    spd = spd @ spd.T + 8 * np.eye(8)
    gen, rhs = _system(seed=3)
    cache.clear()
    cache.reset_stats()

    def solver(seed):
        start.wait()
        b = spd.sum(axis=1)
        for i in range(N_ITER):
            info = Info()
            a = spd if i % 2 else gen
            bb = b if i % 2 else rhs
            x = solve(a, bb, info=info)
            if info.value != 0:
                errors.append(f"solve info={info.value}")
                return
            if not np.allclose(a @ x, bb, atol=1e-8):
                errors.append("front-door residual blew up")
                return

    def invalidator():
        start.wait()
        for i in range(N_ITER):
            try:
                if i % 3 == 0:
                    cache.clear()
                elif i % 3 == 1:
                    cache.invalidate(spd)
                else:
                    cache.invalidate(gen)
            except Exception as exc:          # noqa: BLE001
                errors.append(f"invalidate raised: {exc!r}")
                return

    def backend_flipper():
        start.wait()
        for i in range(N_ITER):
            try:
                with use_backend("accelerated" if i % 2 else "reference"):
                    pass
            except Exception as exc:          # noqa: BLE001
                errors.append(f"backend flip raised: {exc!r}")
                return

    def stats_reader():
        start.wait()
        for _ in range(N_ITER):
            st = cache.stats()
            if st["entries"] < 0 or st["entries"] > cache.MAX_ENTRIES:
                errors.append(f"entry count out of range: {st}")
                return
            if min(st["hits"], st["misses"], st["invalidated"]) < 0:
                errors.append(f"negative counter: {st}")
                return

    workers = [threading.Thread(target=solver, args=(s,))
               for s in range(N_THREADS - 3)]
    workers += [threading.Thread(target=invalidator),
                threading.Thread(target=backend_flipper),
                threading.Thread(target=stats_reader)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
    assert not any(t.is_alive() for t in workers), "cache stress hung"
    assert errors == []
    # Quiesced: one more solve repopulates and the counters still add up.
    x = solve(spd, spd.sum(axis=1))
    assert np.allclose(spd @ x, spd.sum(axis=1), atol=1e-8)
    assert cache.stats()["entries"] >= 1
    cache.clear()


def test_fallback_warning_windows_under_concurrent_resets():
    # The fallback-warning rate limiter (LA023's ``RateLimiter._seen``
    # attribute guard) with solver threads ticking the same window key
    # while other threads reopen it.  With a frozen clock a key can only
    # emit on its first tick or on the tick right after a reset, so
    # total emissions are bounded by total successful resets + 1.
    limiter = RateLimiter(window=60.0, clock=lambda: 0.0)
    emits = []
    resets = []
    start = threading.Barrier(6)

    def ticker():
        start.wait()
        count = 0
        for _ in range(N_ITER * 5):
            emit, suppressed = limiter.tick(("accelerated", "gesv"))
            if suppressed < 0:
                emits.append(-10**9)  # poison: impossible accounting
                return
            if emit:
                count += 1
        emits.append(count)

    def resetter():
        start.wait()
        count = 0
        for _ in range(N_ITER):
            count += limiter.reset()
        resets.append(count)

    threads = [threading.Thread(target=ticker) for _ in range(4)]
    threads += [threading.Thread(target=resetter),
                threading.Thread(target=resetter)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "limiter stress hung"
    assert len(emits) == 4 and min(emits) >= 0
    assert sum(emits) <= sum(resets) + 1


def test_escalation_stays_correct_under_concurrent_solves():
    # Every accelerated gesv fails, so every solve escalates once to
    # reference while other threads do the same.  No answer may be
    # wrong and every thread-local trail must read exactly one failure
    # and one reference call.
    if "accelerated" not in backends.available_backends():
        pytest.skip("escalation needs a second backend")
    errors = []
    start = threading.Barrier(N_THREADS)
    want = ("accelerated:gesv#1:error=InjectedFault", "reference:gesv#2")

    def solver(seed):
        start.wait()
        a, b = _system(seed=seed)
        for _ in range(N_ITER):
            info = Info()
            x = la_gesv(a.copy(), b.copy(), info=info)
            if info.value != 0 or info.attempts != want:
                errors.append(f"solver info={info!r}")
                return
            if not np.allclose(a @ x, b, atol=1e-8):
                errors.append("escalated residual blew up")
                return

    backends.set_backend("accelerated")
    fi.chaos_install("gesv", flaky_every=1, backend="accelerated")
    workers = [threading.Thread(target=solver, args=(s,))
               for s in range(N_THREADS)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in workers), "escalation stress hung"
    assert errors == []
