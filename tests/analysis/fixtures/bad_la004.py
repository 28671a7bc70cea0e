"""Seeded frame-order violations (retired LA004, now LA001): a
hand-rolled frame running the guard and the validation after the
substrate call, and a shell keyed to another driver's spec.  Through
its own shell a driver cannot order its frame wrongly."""

from repro.errors import erinfo
from repro.backends.kernels import gesv
from repro.core.auxmod import driver_guard
from repro.core.shell import driver_shell


def la_gesv(a, b, info=None):                   # lint: LA001
    srname = "LA_GESV"
    exc = None
    _, linfo = gesv(a, b)
    if linfo == 0:
        linfo, exc = driver_guard(srname, (1, a), (2, b))
    if a.ndim != 2:
        linfo = -1
    erinfo(linfo, srname, info, exc=exc)
    return b


@driver_shell("la_gesv")                         # lint: LA001
def la_posv(a, b, ipiv=None, info=None):
    _, linfo = gesv(a, b)
    return b, linfo, None
