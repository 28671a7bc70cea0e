"""Deadline budgets for driver calls.

:func:`deadline` arms a wall-clock budget for everything inside its
``with`` block.  Drivers check the budget at well-defined *checkpoints*
— entry (inside ``driver_guard``) and, for the expert drivers, between
the factor/condition/solve/refine stages — and raise
:class:`repro.errors.DeadlineExceeded` carrying the partial ``Info``
accumulated so far.  A computation is never interrupted mid-kernel; the
guarantee is "no *new* stage starts after the budget is spent", which
keeps every intermediate array in a consistent state.

Deadlines nest: the tightest (earliest) limit on the stack wins.  The
stack is thread-local; ``_ARMED`` is the process-global armed-scope
count that lets :func:`check` bail out with a single integer compare on
the (overwhelmingly common) undeadlined path.  ``_ARMED`` accesses hold
:data:`repro._sync.STATE_LOCK` or carry a justified pragma (LA023); the
thread-local stack needs no lock.  Neither may be named outside this
module.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from .._sync import STATE_LOCK
from . import calllog

__all__ = ["deadline", "check", "remaining", "armed"]

#: Count of live deadline() scopes across all threads (fast gate).
_ARMED = 0

_DEADLINES = threading.local()


def _stack() -> list[float]:
    stack = getattr(_DEADLINES, "stack", None)
    if stack is None:
        stack = _DEADLINES.stack = []
    return stack


@contextmanager
def deadline(seconds: float):
    """Scope a wall-clock budget over the block's driver calls::

        with repro.deadline(0.5):
            x, info = la_gesv(a, b)   # raises DeadlineExceeded if the
                                      # budget is spent at a checkpoint
    """
    global _ARMED
    if seconds <= 0:
        raise ValueError(f"deadline must be positive, got {seconds!r}")
    limit = time.monotonic() + float(seconds)
    stack = _stack()
    stack.append(limit)
    with STATE_LOCK:
        _ARMED += 1
    try:
        yield
    finally:
        with STATE_LOCK:
            _ARMED -= 1
        stack.remove(limit)


def armed() -> bool:
    """True while a ``deadline()`` scope is live on any thread: the
    driver shell's gate before the ``"entry"`` checkpoint."""
    return _ARMED != 0  # laflow: benign-race — counter gate; check() re-reads this thread's own stack


def remaining() -> float | None:
    """Seconds left on the tightest enclosing deadline, or ``None`` when
    no deadline is armed on this thread."""
    if not _ARMED:  # laflow: benign-race — counter gate; this thread's own deadlines are in the thread-local stack checked next
        return None
    stack = _stack()
    if not stack:
        return None
    return min(stack) - time.monotonic()


def check(srname: str, stage: str = "entry", info=None) -> None:
    """Checkpoint: raise :class:`~repro.errors.DeadlineExceeded` when the
    tightest enclosing deadline has passed.

    ``info`` is the driver's partial :class:`~repro.errors.Info` (when it
    already exists at this checkpoint); the open call-log frame is
    drained into it so the exception's ``partial`` handle carries the
    attempts made before the budget ran out.
    """
    if not _ARMED:  # laflow: benign-race — counter gate; this thread's own deadlines are in the thread-local stack checked next
        return
    stack = _stack()
    if not stack or time.monotonic() < min(stack):
        return
    from ..errors import DEADLINE, DeadlineExceeded, Info
    partial = info if info is not None else Info(DEADLINE)
    partial.value = DEADLINE
    # This frame will never reach the driver's reporting shim — consume
    # it here so the stack stays balanced across the raise.
    calllog.drain_into(partial)
    raise DeadlineExceeded(srname, stage=stage, partial=partial)
