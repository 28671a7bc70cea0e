"""LA012 fixture: the declared ``ipiv`` output is never written.

The spec marks ``ipiv`` intent(out): a caller passing a pivot buffer
gets it back untouched — the kernel's pivots are silently dropped.
"""

from repro.errors import Info
from repro.backends.kernels import gesv
from repro.core.shell import driver_shell

__all__ = ["la_gesv"]


@driver_shell("la_gesv")
def la_gesv(a, b, ipiv=None, info=None):        # lint: LA012
    _, linfo = gesv(a, b)
    return b, linfo, None
