"""LA011 clean fixture: dimensions and allocations match the spec."""

import numpy as np

from repro.errors import Info
from repro.backends.kernels import gesv
from repro.core.shell import driver_shell

__all__ = ["la_gesv"]


@driver_shell("la_gesv")
def la_gesv(a, b, ipiv=None, info=None):
    n = a.shape[0]
    buf = np.zeros(n, dtype=np.intp)
    _, linfo = gesv(a, b)
    if ipiv is not None:
        ipiv[:] = buf
    return b, linfo, None
