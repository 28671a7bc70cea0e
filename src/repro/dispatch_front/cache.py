"""Exact, factor-only cache for the dispatch front door.

Iterative codes solve against the *same* SPD operand many times; what
is worth remembering between those calls is not the probe verdict
(re-probing costs a few µs thanks to the probe's early exits) but the
O(n³) Cholesky factorization.  So an entry exists only for an SPD/HPD
operand whose ``la_posv`` succeeded: it maps ``id(a)`` to a snapshot of
the bits the factor was computed from and the
:class:`~repro.dispatch_front.probe.Structure` carrying the factor.
Repeat solves go straight to ``potrs`` — the measured win in
``benchmarks/test_dispatch_overhead.py``.

A lookup hits only when ``a``'s shape, dtype and *bit pattern* equal the
snapshot.  Bits, not values: a value comparison would call ``-0.0`` and
``0.0`` equal and ``NaN`` unequal to itself.  The cache therefore is
exact: any in-place edit, however small, reads as a miss, and a
recycled ``id`` with identical bytes is a correct hit (the factor
depends on nothing else).  Probe verdicts for other structures and for
stacks are never cached; they are re-probed on every call.

The cache never holds a strong reference to a user array (that would
pin arbitrarily large operands alive; ``np.ndarray`` does not support
weak references either) — only a copy of its bits.

Backend switches invalidate everything: the retained Cholesky factor
was computed by the departed substrate, and bit-reproducibility of the
cached-reuse path is only guaranteed within one backend.  The hook is
registered on :func:`repro.backends.on_backend_switch` at import time;
each switch bumps a monotonically increasing *epoch* surfaced (with
hit/miss counters) through ``repro.resilience.health.healthcheck()``.

All cache state is guarded by the process-wide ``STATE_LOCK``, same as
the backend selection it is layered over.
"""

from __future__ import annotations

import numpy as np

from .._sync import STATE_LOCK
from ..backends import on_backend_switch

__all__ = ["lookup", "store", "snapshot", "invalidate", "clear",
           "stats", "MAX_ENTRIES"]

#: Hard cap on live entries; storing past it evicts the oldest entry
#: (insertion order), which keeps the cache O(1) for long-running
#: processes that touch many distinct operands once.
MAX_ENTRIES = 256

_ENTRIES: dict = {}  # id(a) -> (shape, dtype, snapshot, Structure)
_STATS = {"hits": 0, "misses": 0, "invalidated": 0, "epoch": 0}


def _bits(a):
    """``a``'s bit pattern as a C-ordered unsigned-integer view (a copy
    only when ``a`` is not C-contiguous): comparing these compares
    bits, not values."""
    a = np.ascontiguousarray(a)
    return a.view(f"u{min(a.dtype.itemsize, 8)}")


def snapshot(a):
    """A copy of ``a``'s bit pattern, as :func:`store` keeps it."""
    return _bits(a).copy()


def lookup(a):
    """The cached :class:`~repro.dispatch_front.probe.Structure` (with
    its Cholesky factor) for ``a``, or ``None`` unless ``a``'s shape,
    dtype and bits equal the snapshot."""
    key = id(a)
    with STATE_LOCK:
        entry = _ENTRIES.get(key)  # laflow: atomic-split — the comparison reads the array outside the lock; the delete region re-checks `is entry` first
        if entry is None:
            _STATS["misses"] += 1
            return None
    # The comparison reads the array outside the lock: the entry is an
    # immutable tuple and a stale one is resolved below.
    shape, dtype, bits, structure = entry
    if a.shape != shape or a.dtype != dtype \
            or not np.array_equal(bits, _bits(a)):
        with STATE_LOCK:
            if _ENTRIES.get(key) is entry:  # laflow: atomic-split — miss path; a racing store for the same operand replaces the entry anyway
                del _ENTRIES[key]
                _STATS["invalidated"] += 1
            _STATS["misses"] += 1
        return None
    with STATE_LOCK:
        _STATS["hits"] += 1
    return structure


def store(a, structure, bits):
    """Remember ``structure`` for ``a``.  ``bits`` is the
    :func:`snapshot` of the array the structure's factor was computed
    from — of the working copy that was factored, not of ``a`` after
    the fact, so an edit racing the factorization cannot pair a new
    snapshot with an old factor."""
    entry = (a.shape, a.dtype, bits, structure)
    with STATE_LOCK:
        _ENTRIES.pop(id(a), None)
        while len(_ENTRIES) >= MAX_ENTRIES:
            del _ENTRIES[next(iter(_ENTRIES))]
        _ENTRIES[id(a)] = entry
    return structure


def invalidate(a=None) -> int:
    """Drop the entry for ``a`` (or every entry when ``a`` is None);
    returns how many entries were dropped.  Never needed for
    correctness — lookups are exact — only to release memory."""
    with STATE_LOCK:
        if a is None:
            dropped = len(_ENTRIES)
            _ENTRIES.clear()
        else:
            dropped = 1 if _ENTRIES.pop(id(a), None) is not None else 0
        _STATS["invalidated"] += dropped
    return dropped


def clear() -> int:
    """Alias for ``invalidate()`` with no argument."""
    return invalidate()


def stats() -> dict:
    """Snapshot: ``{"entries", "hits", "misses", "invalidated",
    "epoch"}`` — merged into ``healthcheck()``'s report."""
    with STATE_LOCK:
        snapshot = dict(_STATS)
        snapshot["entries"] = len(_ENTRIES)
    return snapshot


def reset_stats():
    """Zero the counters (the epoch is preserved) — test scaffolding."""
    with STATE_LOCK:
        epoch = _STATS["epoch"]
        _STATS.update(hits=0, misses=0, invalidated=0, epoch=epoch)


@on_backend_switch
def _on_backend_switch(previous, selected):
    """Every effective backend switch starts a new cache epoch: cached
    Cholesky factors belong to the departed substrate."""
    with STATE_LOCK:
        dropped = len(_ENTRIES)
        _ENTRIES.clear()
        _STATS["invalidated"] += dropped
        _STATS["epoch"] += 1
