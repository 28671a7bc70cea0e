"""LA012 clean fixture: the ``ipiv`` output receives the pivots."""

from repro.errors import Info
from repro.backends.kernels import gesv
from repro.core.shell import driver_shell

__all__ = ["la_gesv"]


@driver_shell("la_gesv")
def la_gesv(a, b, ipiv=None, info=None):
    lpiv, linfo = gesv(a, b)
    if ipiv is not None:
        ipiv[:] = lpiv
    return b, linfo, None
