"""Conforming LA006 fixture: both halves of the real/complex pair exist
and every substrate import resolves."""

from ..backends.kernels import hesv, sysv
from ..core.shell import driver_shell


@driver_shell("la_sysv")
def la_sysv(a, b, uplo="U", ipiv=None, info=None):
    _, linfo = sysv(a, b)
    return b, linfo, None


@driver_shell("la_hesv")
def la_hesv(a, b, uplo="U", ipiv=None, info=None):
    _, linfo = hesv(a, b)
    return b, linfo, None
