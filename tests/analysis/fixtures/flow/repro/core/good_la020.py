"""LA020 clean fixture: the factor -> solve transition is guarded by a
``deadlines.check`` checkpoint in the driver body."""

import numpy as np

from repro.errors import Info
from repro.backends.kernels import getrf, getrs
from repro.resilience import deadlines
from repro.core.shell import driver_shell

__all__ = ["la_gesv"]


@driver_shell("la_gesv")
def la_gesv(a, b, ipiv=None, info=None):
    srname = "LA_GESV"
    n = a.shape[0]
    buf = np.zeros(n, dtype=np.intp)
    lu, piv, linfo = getrf(a)
    if linfo == 0:
        deadlines.check(srname, "solve", info)
        linfo = getrs(lu, piv, b)
    if ipiv is not None:
        ipiv[:] = buf
    return b, linfo, None
