"""Deterministic fault registry consulted by the substrate and drivers.

LAPACK90's ERINFO contract has branches no natural input reaches — a
workspace allocation that fails (``LINFO = -100``), a pivot that is
exactly zero in an otherwise well-scaled matrix, an eigeniteration that
refuses to converge.  This module lets the test tier *inject* those
conditions deterministically so every reporting path can be exercised.

The registry lives at the package root so that both :mod:`repro.lapack77`
and :mod:`repro.core` can consult it without importing the test layer
(:mod:`repro.testing.faultinject` is the user-facing wrapper).

Three fault kinds are supported, keyed by a lower-cased routine name:

* ``zero_pivot=j`` — the factorization kernel zeroes its working column
  at step *j*, driving the genuine singular/not-positive-definite path;
* ``alloc=True`` — the driver's workspace guard reports LAPACK90's
  allocation failure (``LINFO = -100``);
* ``linfo=k`` — the substrate routine returns status ``k`` without
  computing (e.g. a forced convergence failure for ``syev``/``gesvd``).

A fault may be armed with a finite ``count``; it disarms after firing
that many times.  Hooks are free when nothing is installed: each first
checks a module-level flag.

A second, independent registry — the **chaos harness** — injects faults
at the *dispatch seam* (:mod:`repro.backends.kernels`) rather than
inside the substrate kernels, so the resilience layer's escalation can
be exercised deterministically against any backend:

* ``flaky_every=k`` — every *k*-th dispatched call of the routine raises
  :class:`InjectedFault` before the kernel runs;
* ``latency=s`` — sleep *s* seconds before the kernel runs (for
  deadline testing).

Chaos faults are keyed ``(routine, backend)`` (``backend=None`` matches
any) and — unlike the substrate registry above — arming them does *not*
reroute dispatch to the reference backend: the whole point is to fail
the backend actually selected.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from ._sync import STATE_LOCK

__all__ = ["install", "remove", "clear", "injected", "active",
           "pivot_fault", "alloc_fault", "linfo_fault",
           "InjectedFault", "chaos_install", "chaos_remove",
           "chaos_clear", "chaos_active", "chaos", "chaos_fault",
           "default_chaos_profile", "CHAOS_DEFAULT_ROUTINES"]

#: Fast-path flag: True only while at least one fault is installed.
ACTIVE = False

_FAULTS: dict[str, dict] = {}

_KINDS = ("zero_pivot", "alloc", "linfo")


def _sync() -> None:
    global ACTIVE
    ACTIVE = bool(_FAULTS)


def install(routine: str, *, zero_pivot: int | None = None,
            alloc: bool = False, linfo: int | None = None,
            count: int | None = None) -> None:
    """Arm a fault against ``routine`` (case-insensitive).

    ``count`` limits how many times the fault fires before disarming
    itself; ``None`` means it stays armed until removed.
    """
    if zero_pivot is None and not alloc and linfo is None:
        raise ValueError("install() needs one of zero_pivot=, alloc=, linfo=")
    with STATE_LOCK:
        _FAULTS[routine.lower()] = {
            "zero_pivot": zero_pivot,
            "alloc": alloc,
            "linfo": linfo,
            "count": count,
        }
        _sync()


def remove(routine: str) -> None:
    """Disarm the fault installed against ``routine`` (if any)."""
    with STATE_LOCK:
        _FAULTS.pop(routine.lower(), None)
        _sync()


def clear() -> None:
    """Disarm every installed fault."""
    with STATE_LOCK:
        _FAULTS.clear()
        _sync()


@contextmanager
def injected(routine: str, **kwargs):
    """Context manager: arm a fault for the duration of the block."""
    install(routine, **kwargs)
    try:
        yield
    finally:
        remove(routine)


def active() -> bool:
    """True while any fault is armed."""
    return ACTIVE  # laflow: benign-race — single boolean, worst case one stale hook consult


def _consume(name: str, kind: str):
    fault = _FAULTS.get(name)
    if fault is None or fault[kind] is None or fault[kind] is False:
        return None
    count = fault["count"]
    if count is not None:
        if count <= 0:
            return None
        fault["count"] = count - 1
    return fault[kind]


def pivot_fault(routine: str, j: int) -> bool:
    """True when the factorization kernel should force a zero pivot at
    (local) step ``j``."""
    if not ACTIVE:  # laflow: benign-race — hot-path gate; the locked lookup below re-checks
        return False
    with STATE_LOCK:
        fault = _FAULTS.get(routine.lower())
        if fault is None or fault["zero_pivot"] is None \
                or fault["zero_pivot"] != j:
            return False
        return _consume(routine.lower(), "zero_pivot") is not None


def alloc_fault(routine: str) -> bool:
    """True when the driver should simulate a failed workspace
    allocation (``LINFO = -100``)."""
    if not ACTIVE:  # laflow: benign-race — hot-path gate; the locked lookup below re-checks
        return False
    with STATE_LOCK:
        return _consume(routine.lower(), "alloc") is not None


def linfo_fault(routine: str) -> int | None:
    """Forced status code for ``routine``, or ``None``."""
    if not ACTIVE:  # laflow: benign-race — hot-path gate; the locked lookup below re-checks
        return None
    with STATE_LOCK:
        return _consume(routine.lower(), "linfo")


# ---------------------------------------------------------------------
# The chaos harness (dispatch-seam faults).
# ---------------------------------------------------------------------

class InjectedFault(RuntimeError):
    """The error the chaos harness raises in place of a kernel call.
    Deliberately *not* a :class:`repro.errors.LinAlgError`: the
    resilience layer treats contract outcomes (singular matrix, …) as
    verdicts and only escalates genuine kernel failures like this one."""


#: Fast-path flag: True only while at least one chaos fault is armed.
CHAOS_ACTIVE = False

_CHAOS: dict[str, dict] = {}


def _chaos_sync() -> None:
    global CHAOS_ACTIVE
    CHAOS_ACTIVE = bool(_CHAOS)


def chaos_install(routine: str, *, flaky_every: int | None = None,
                  latency: float | None = None,
                  backend: str | None = None) -> None:
    """Arm a chaos fault against ``routine`` at the dispatch seam.

    ``backend`` restricts the fault to dispatches served by that backend
    (``None`` matches any — including the reference kernel an
    escalation lands on).
    """
    if flaky_every is None and latency is None:
        raise ValueError("chaos_install() needs one of flaky_every=, "
                         "latency=")
    if flaky_every is not None and flaky_every < 1:
        raise ValueError("flaky_every must be >= 1")
    with STATE_LOCK:
        _CHAOS[routine.lower()] = {
            "flaky_every": flaky_every,
            "latency": latency,
            "backend": backend,
            "calls": 0,
        }
        _chaos_sync()


def chaos_remove(routine: str) -> None:
    """Disarm the chaos fault installed against ``routine`` (if any)."""
    with STATE_LOCK:
        _CHAOS.pop(routine.lower(), None)
        _chaos_sync()


def chaos_clear() -> None:
    """Disarm every chaos fault."""
    with STATE_LOCK:
        _CHAOS.clear()
        _chaos_sync()


def chaos_active() -> bool:
    """True while any chaos fault is armed."""
    return CHAOS_ACTIVE  # laflow: benign-race — single boolean, worst case one stale report


@contextmanager
def chaos(routine: str, **kwargs):
    """Context manager: arm a chaos fault for the duration of the block."""
    chaos_install(routine, **kwargs)
    try:
        yield
    finally:
        chaos_remove(routine)


def chaos_fault(routine: str, backend: str) -> Exception | None:
    """Consulted by the dispatch seam before each kernel call.

    Applies any armed latency (sleeps here) and returns the exception
    the attempt should raise instead of running the kernel, or ``None``
    to proceed.  Calls filtered out by a ``backend=`` restriction do not
    advance the fault's counters.
    """
    if not CHAOS_ACTIVE:  # laflow: benign-race — hot-path gate; the locked lookup below re-checks
        return None
    with STATE_LOCK:
        spec = _CHAOS.get(routine.lower())
        if spec is None or (spec["backend"] is not None
                            and spec["backend"] != backend):
            return None
        spec["calls"] += 1
        every = spec["flaky_every"]
        fire = every is not None and spec["calls"] % every == 0
        latency = spec["latency"]
    if latency:
        time.sleep(latency)
    if not fire:
        return None
    return InjectedFault(f"injected fault in {routine!r} "
                         f"(backend {backend!r})")


#: Hot kernels the ``REPRO_CHAOS=1`` profile makes fail.
CHAOS_DEFAULT_ROUTINES = (
    "gesv", "gbsv", "posv", "sysv", "hesv", "getrf", "potrf", "sytrf",
    "getrs", "potrs", "gels", "syev", "heev", "gesvd", "geev",
)


def default_chaos_profile() -> None:
    """Arm the CI chaos profile: every accelerated call of each hot
    kernel fails before it runs.  The accelerated adapters are declared
    write-back, so each failure escalates once to the reference kernel
    and a suite run under this profile must pass on reference-served
    answers.  The schedule is deterministic (every call, not every
    *k*-th), so both sides of a bit-identity comparison escalate alike.
    On the reference backend nothing fires."""
    for routine in CHAOS_DEFAULT_ROUTINES:
        chaos_install(routine, flaky_every=1, backend="accelerated")
