"""LA014 clean fixture: only the intent(inout) right-hand side is
updated in place; the factored matrix stays untouched."""

from repro.errors import Info
from repro.backends.kernels import getrs
from repro.core.shell import driver_shell

__all__ = ["la_getrs"]


@driver_shell("la_getrs")
def la_getrs(a, ipiv, b, trans="N", info=None):
    xout, linfo = getrs(a, ipiv, b, trans=trans)
    b[:] = xout
    return b, linfo, None
