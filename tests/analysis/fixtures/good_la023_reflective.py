"""LA023 clean twin: reflection on owner modules names only their
public functions, and a computed attribute name is not a literal row."""

from repro import backends, faults
from repro.dispatch_front import cache


def selected():
    return getattr(backends, "get_backend_name")()


def chaos_armed():
    return getattr(faults, "chaos_active")()


def counters(attr="stats"):
    return getattr(cache, attr)()


def tag(obj):
    setattr(obj, "label", "_SELECTED is only a word in this string")
    return hasattr(obj, "label")
