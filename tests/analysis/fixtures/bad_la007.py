"""Seeded LA007 violations: raw code-class literals in a driver
module."""

from repro.core.shell import driver_shell

_OOM = False
_NONFIN_CODE = -1000                            # lint: LA007


@driver_shell("la_gesv")
def la_gesv(a, b, ipiv=None, info=None):
    linfo = 0
    if _OOM:
        linfo = -100                            # lint: LA007
    if _OOM is None:
        linfo = -250                            # lint: LA007
    return b, linfo, None
