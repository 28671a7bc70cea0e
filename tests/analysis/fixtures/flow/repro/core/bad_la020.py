"""LA020 seeded violation: a factor stage followed by a solve stage
with no ``deadlines.check`` between them, so an armed deadline budget
is only observed at entry, never before the second expensive phase."""

import numpy as np

from repro.errors import Info
from repro.backends.kernels import getrf, getrs
from repro.core.shell import driver_shell

__all__ = ["la_gesv"]


@driver_shell("la_gesv")
def la_gesv(a, b, ipiv=None, info=None):
    n = a.shape[0]
    buf = np.zeros(n, dtype=np.intp)
    lu, piv, linfo = getrf(a)
    if linfo == 0:
        linfo = getrs(lu, piv, b)               # lint: LA020
    if ipiv is not None:
        ipiv[:] = buf
    return b, linfo, None
