"""Seeded LA006 violations: unresolved substrate import and a real
driver with no complex partner."""

from ..lapack77 import sysv, nosuchroutine      # lint: LA006
from ..core.shell import driver_shell


@driver_shell("la_sysv")
def la_sysv(a, b, uplo="U", ipiv=None, info=None):  # lint: LA006
    _, linfo = sysv(a, b)
    return b, linfo, None
