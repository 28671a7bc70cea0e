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
    stack = getattr(_FRAMES, "stack", None)
    if stack is None:
        stack = _FRAMES.stack = []
    return stack


def push():
    """Open a telemetry frame for the call being entered.  Returns
    ``(frames, depth)``: ``del frames[depth:]`` closes the frame (and
    any opened after it) however the call exits — a no-op once it was
    drained."""
    stack = _stack()
    stack.append({"attempts": []})
    return stack, len(stack) - 1


def record(attempt: str) -> None:
    """Append one kernel-attempt record to the innermost frame."""
    stack = _stack()
    if stack:
        stack[-1]["attempts"].append(attempt)


def drain() -> dict | None:
    """Pop and return the innermost frame (``None`` when no frame is
    open)."""
    stack = _stack()
    return stack.pop() if stack else None


def drain_into(info) -> None:
    """Pop the innermost frame and attach its non-empty telemetry to the
    caller's ``Info`` handle (a no-op handle-wise when ``info`` is
    ``None``, but the frame is still consumed)."""
    frame = drain()
    if frame is None or info is None:
        return
    if frame["attempts"]:
        info.attempts = tuple(frame["attempts"])


def depth() -> int:
    """Open-frame count for the current thread (test hook)."""
    return len(_stack())
