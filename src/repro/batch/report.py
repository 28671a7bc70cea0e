"""Batch-indexed warning reporting.

A warning raised for problem *k* of a batched call must name *k* and
the originating routine — but a 10⁶-problem stack of NaN inputs must
not emit 10⁶ warnings.  :func:`warn_batch` therefore rate-limits per
``(routine, key)`` through the same
:class:`repro.resilience.ratelimit.RateLimiter` windows the backend
fallback announcements use (one window per
:data:`~repro.resilience.ratelimit.WARNING_WINDOW`), *not* per problem:
the first offending problem in a window is announced with its index,
later identical ones only bump the suppressed count reported when the
window rolls over.
"""

from __future__ import annotations

from ..errors import NumericalWarning, warn_at_caller
from ..resilience.ratelimit import WARNING_WINDOW, RateLimiter

__all__ = ["warn_batch", "reset_batch_announcements"]

_ANNOUNCED = RateLimiter()


def reset_batch_announcements() -> None:
    """Forget the rate-limit history (tests assert first-fire behaviour)."""
    _ANNOUNCED.reset()


def warn_batch(srname: str, key, index: int, message: str,
               category=NumericalWarning) -> None:
    """Emit a batch-index-annotated warning, rate-limited per
    ``(srname, key)`` and attributed to the caller's line
    (:func:`repro.errors.warn_at_caller`).

    ``key`` identifies the warning class within the routine (e.g.
    ``("nonfinite", position)`` or ``("fallback", via)``); every problem
    index shares the same key, so a stack full of the same condition
    costs one warning per window.
    """
    emit, suppressed = _ANNOUNCED.tick((srname, key),
                                       window=WARNING_WINDOW)
    if not emit:
        return
    text = f"{srname}[batch problem {index}]: {message}"
    if suppressed:
        text += (f" ({suppressed} identical warnings suppressed in the "
                 "last window)")
    warn_at_caller(text, category)
