"""Per-driver-call attempt telemetry (thread-local frames).

The dispatch seam (:class:`repro.backends.kernels.KernelProxy`) runs
per *kernel* call, but the ``attempts`` field lives on the *driver's*
:class:`repro.errors.Info` handle.  This module bridges the two layers
without plumbing the handle through every kernel signature: the driver
shell (:func:`repro.core.shell.driver_shell`) opens a frame for every
driver call, the seam records events into the innermost frame, the
shell's report drains the frame into the caller's ``Info`` on the way
out, and the shell's ``finally`` closes the frame however the call
exits — so a frame never outlives its call.

A frame is ``None`` until :func:`record` first writes to it, so a clean
call (no kernel failed, nothing escalated) allocates nothing; a
drained frame with no records reads ``{"attempts": []}``.

Frames are purely thread-local telemetry — there is no cross-thread
state here, so (unlike the deadline arming LA023 polices) no lock is
taken on the per-call hot path.  Kernel calls made outside a
driver frame (the F77 layer, direct proxy use) are simply not recorded.
"""

from __future__ import annotations

import threading

__all__ = ["push", "record", "drain", "drain_into", "depth"]

_FRAMES = threading.local()


def _stack() -> list:
    try:
        return _FRAMES.stack
    except AttributeError:
        stack = _FRAMES.stack = []
        return stack


def push():
    """Open a telemetry frame for the call being entered.  Returns
    ``(frames, depth)``: ``del frames[depth:]`` closes the frame (and
    any opened after it) however the call exits — a no-op once it was
    drained.  ``frames[depth] is None`` while nothing was recorded."""
    stack = _stack()
    stack.append(None)
    return stack, len(stack) - 1


def record(attempt: str) -> None:
    """Append one kernel-attempt record to the innermost frame."""
    stack = _stack()
    if stack:
        if stack[-1] is None:
            stack[-1] = [attempt]
        else:
            stack[-1].append(attempt)


def drain() -> dict | None:
    """Pop and return the innermost frame as ``{"attempts": [...]}``
    (``None`` when no frame is open)."""
    stack = _stack()
    if not stack:
        return None
    return {"attempts": stack.pop() or []}


def drain_into(info) -> None:
    """Pop the innermost frame and attach its non-empty telemetry to the
    caller's ``Info`` handle (a no-op handle-wise when ``info`` is
    ``None``, but the frame is still consumed)."""
    stack = _stack()
    attempts = stack.pop() if stack else None
    if attempts and info is not None:
        info.attempts = tuple(attempts)


def depth() -> int:
    """Open-frame count for the current thread (test hook)."""
    return len(_stack())
