"""LA014 fixture: an in-place store mutates the factored matrix ``a``,
which the ``la_getrs`` spec declares intent(in)."""

from repro.errors import Info
from repro.backends.kernels import getrs
from repro.core.shell import driver_shell

__all__ = ["la_getrs"]


@driver_shell("la_getrs")
def la_getrs(a, ipiv, b, trans="N", info=None):
    a[0, 0] = a[0, 0] + 0.0                 # lint: LA014
    linfo = getrs(a, ipiv, b, trans=trans)
    return b, linfo, None
