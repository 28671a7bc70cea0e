"""Seeded LA023 violations: guarded state touched without its lock.

The ``_LAFLOW_GUARDED`` literal is the declarative opt-in for modules
outside the shipped registry: every name it lists must be read and
written with the named lock in the current lockset.
"""

import threading

STATE_LOCK = threading.RLock()

_LAFLOW_GUARDED = {"_TABLE": "STATE_LOCK", "_COUNT": "STATE_LOCK"}

_TABLE: dict = {}
_COUNT = 0


def read_unlocked(key):
    return _TABLE.get(key)  # lint: LA023


def write_unlocked(key, value):
    _TABLE[key] = value  # lint: LA023


def one_armed_join(flag, key):
    # Branch-merge join: the lock is held on only one arm, so the
    # merged lockset after the ``if`` must have dropped it.
    if flag:
        STATE_LOCK.acquire()
    count = _TABLE.get(key)  # lint: LA023
    if flag:
        STATE_LOCK.release()
    return count


def _helper(key):
    return _TABLE.get(key)  # lint: LA023


def unlocked_caller(key):
    # Summary-propagated lockset: the caller holds nothing, so the
    # helper's guarded read (reported at the helper's line) is bare.
    return _helper(key)


def deferred_getter(key):
    # The lambda body runs after the ``with`` block has released the
    # lock, like a nested def's.
    with STATE_LOCK:
        return lambda: _TABLE.get(key)  # lint: LA023
