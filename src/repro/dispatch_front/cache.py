"""Exact, factor-only cache for the dispatch front door.

Iterative codes solve against the *same* SPD operand many times; what
is worth remembering between those calls is not the probe verdict
(re-probing costs a few µs thanks to the probe's early exits) but the
O(n³) Cholesky factorization.  So an entry exists only for an SPD/HPD
operand whose ``la_posv`` succeeded: it maps ``id(a)`` to a weak
reference to ``a``, a snapshot of the bits the factor was computed from
and the :class:`~repro.dispatch_front.probe.Structure` carrying the
factor.
Repeat solves go straight to ``potrs`` — the measured win in
``benchmarks/test_dispatch_overhead.py``.

A lookup hits only when ``a``'s shape, dtype and *bit pattern* equal the
snapshot.  Bits, not values: a value comparison would call ``-0.0`` and
``0.0`` equal and ``NaN`` unequal to itself.  The cache therefore is
exact: any in-place edit, however small, reads as a miss.  Probe
verdicts for other structures and for stacks are never cached; they
are re-probed on every call.

The cache never holds a strong reference to a user array (that would
pin arbitrarily large operands alive) — only a weak reference and a
copy of its bits.  The weak reference's callback drops the entry when
the operand is freed, so a fresh operand that lands on a dead one's
``id`` finds no entry (and pays no bit comparison), and a dead
operand's factor does not outlive it.

An entry also records the backend that computed its factor, read next
to the bit snapshot before the trial ``la_posv`` runs.  A lookup under
another backend (a process switch or a per-call ``backend=`` pin) is a
stale entry, dropped like a bit mismatch: the retained Cholesky factor
belongs to the other substrate, and bit-reproducibility of the
cached-reuse path is only guaranteed within one backend.  Hit, miss and
invalidation counters are surfaced through
``repro.resilience.health.healthcheck()``.

All cache state is guarded by the process-wide ``STATE_LOCK``, same as
the backend selection it is layered over.
"""

from __future__ import annotations

import weakref

import numpy as np

from .._sync import STATE_LOCK
from ..backends import get_backend_name

__all__ = ["lookup", "store", "snapshot", "invalidate", "clear",
           "stats", "MAX_ENTRIES"]

#: Hard cap on live entries; storing past it evicts the oldest entry
#: (insertion order), which keeps the cache O(1) for long-running
#: processes that touch many distinct operands once.
MAX_ENTRIES = 256

_ENTRIES: dict = {}  # id(a) -> (weakref(a), shape, dtype, snapshot, Structure)
_STATS = {"hits": 0, "misses": 0, "invalidated": 0}


#: Item size -> the unsigned-integer dtype a bit view reads it as (an
#: item wider than 8 bytes spans several).
_UINTS = {size: np.dtype(f"u{min(size, 8)}")
          for size in (1, 2, 4, 8, 16, 32)}


def _bits(a):
    """``a``'s bit pattern as a C-ordered unsigned-integer view (a copy
    only when ``a`` is not C-contiguous): comparing these compares
    bits, not values."""
    a = np.ascontiguousarray(a)
    return a.view(_UINTS[a.dtype.itemsize])


def snapshot(a):
    """``(backend, bits)``: the backend serving this context and a copy
    of ``a``'s bit pattern, as :func:`store` keeps them (one C-ordered
    copy, whatever ``a``'s layout)."""
    copy = np.array(a, order="C")
    return get_backend_name(), copy.view(_UINTS[copy.dtype.itemsize])


def lookup(a):
    """The cached :class:`~repro.dispatch_front.probe.Structure` (with
    its Cholesky factor) for ``a``, or ``None`` unless the entry was
    stored for this very array under the backend serving this context,
    and ``a``'s shape, dtype and bits equal the snapshot."""
    key = id(a)
    with STATE_LOCK:
        entry = _ENTRIES.get(key)  # laflow: atomic-split — the comparison reads the array outside the lock; the delete region re-checks `is entry` first
        if entry is None:
            _STATS["misses"] += 1
            return None
    # The comparison reads the array outside the lock: the entry is an
    # immutable tuple and a stale one is resolved below.
    ref, shape, dtype, (backend, bits), structure = entry
    if ref() is not a or a.shape != shape or a.dtype != dtype \
            or backend != get_backend_name() \
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


def store(a, structure, snap):
    """Remember ``structure`` for ``a``.  ``snap`` is the
    :func:`snapshot` of the array the structure's factor was computed
    from, taken before the factorization — of the working copy that
    was factored, not of ``a`` after the fact, so an edit (or a backend
    switch) racing the factorization cannot pair a new snapshot with an
    old factor.  The entry goes when ``a`` does."""
    key = id(a)

    def forget(ref):
        # Matches on the weak reference, not the entry, so the entry
        # holds no cycle through its own callback.
        with STATE_LOCK:
            entry = _ENTRIES.get(key)
            if entry is not None and entry[0] is ref:
                del _ENTRIES[key]

    entry = (weakref.ref(a, forget), a.shape, a.dtype, snap, structure)
    with STATE_LOCK:
        _ENTRIES.pop(key, None)
        while len(_ENTRIES) >= MAX_ENTRIES:
            del _ENTRIES[next(iter(_ENTRIES))]
        _ENTRIES[key] = entry
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
    """Snapshot: ``{"entries", "hits", "misses", "invalidated"}`` —
    merged into ``healthcheck()``'s report."""
    with STATE_LOCK:
        snapshot = dict(_STATS)
        snapshot["entries"] = len(_ENTRIES)
    return snapshot


def reset_stats():
    """Zero the counters — test scaffolding."""
    with STATE_LOCK:
        _STATS.update(hits=0, misses=0, invalidated=0)
