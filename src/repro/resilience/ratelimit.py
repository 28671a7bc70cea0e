"""Windowed warning aggregation.

The ROADMAP's observability item calls for replacing once-per-key
warning suppression with *rate-limited aggregation*: a key may announce
at most once per window, and when it next announces the message carries
how many identical events were swallowed in between.  The class is
clock-injectable so the window arithmetic is deterministically testable.
"""

from __future__ import annotations

import threading
import time

__all__ = ["RateLimiter", "WARNING_WINDOW"]

#: Seconds between repeated announcements of one key: the window the
#: backend-fallback and batch warnings are aggregated over.
WARNING_WINDOW = 60.0


class RateLimiter:
    """At most one emission per key per window, counting suppressions.

    :meth:`tick` returns ``(emit, suppressed)``: whether the caller
    should emit now, and how many ticks were suppressed since the last
    emission (non-zero only on the first tick after a window expires).
    A key's first tick always emits.
    """

    def __init__(self, window: float = WARNING_WINDOW,
                 clock=time.monotonic):
        self.window = float(window)
        self._clock = clock
        self._lock = threading.Lock()
        self._seen: dict = {}  # key -> [last_emit_time, suppressed_count]

    def tick(self, key, now: float | None = None,
             window: float | None = None) -> tuple[bool, int]:
        """Record one event for ``key``; decide whether to emit.

        ``now`` overrides the clock and ``window`` the instance window
        (both for tests).
        """
        if now is None:
            now = self._clock()
        if window is None:
            window = self.window
        with self._lock:
            entry = self._seen.get(key)
            if entry is None:
                self._seen[key] = [now, 0]
                return True, 0
            last, suppressed = entry
            if now - last >= window:
                entry[0] = now
                entry[1] = 0
                return True, suppressed
            entry[1] = suppressed + 1
            return False, 0

    def reset(self, where=None) -> int:
        """Forget keys (their next tick emits again); returns the count.

        ``where`` is an optional key predicate for selective resets —
        the backend layer passes ``lambda key: key[0] == departed`` on
        a backend switch so only the departed substrate's windows
        reopen, leaving the surviving backend's suppression history
        intact.
        """
        with self._lock:
            if where is None:
                dropped = len(self._seen)
                self._seen.clear()
                return dropped
            stale = [k for k in self._seen if where(k)]
            for k in stale:
                del self._seen[k]
            return len(stale)
