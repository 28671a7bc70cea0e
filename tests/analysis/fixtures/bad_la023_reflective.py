"""LA023 fixture: a foreign module reaching guarded state through a
string literal instead of a name — ``getattr``/``setattr``/``delattr``/
``hasattr`` on the owner module."""

import builtins

from repro import backends, faults
from repro.dispatch_front import cache


def selected():
    return getattr(backends, "_SELECTED")           # lint: LA023


def force(name):
    setattr(backends, "_SELECTED", name)            # lint: LA023


def chaos_armed():
    return builtins.getattr(faults, "CHAOS_ACTIVE", False)  # lint: LA023


def drop_stats():
    if hasattr(cache, "_STATS"):                    # lint: LA023
        delattr(cache, "_STATS")                    # lint: LA023
