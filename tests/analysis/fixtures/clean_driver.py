"""Conforming fixture: a minimal driver obeying the wrapper contract —
its body runs inside the driver shell, which validates, gates and
reports.

Every lalint rule must stay quiet on this module.
"""

from repro.errors import Info, SingularMatrix
from repro.backends.kernels import gesv
from repro.core.shell import driver_shell

__all__ = ["la_gesv"]


@driver_shell("la_gesv")
def la_gesv(a, b, ipiv=None, info=None):
    if a.shape[0] == 0:
        return b, 0, None
    lpiv, linfo = gesv(a, b)
    if ipiv is not None:
        ipiv[:] = lpiv
    return b, linfo, SingularMatrix
