"""LA011 fixture: dimension bindings disagree with the spec formulas.

The spec for ``la_gesv`` derives ``n = rows2d(a)`` and requires
``len(ipiv) == n``; this driver binds ``n`` to the column count and
sizes the pivot buffer ``n + 1``.
"""

import numpy as np

from repro.errors import Info
from repro.backends.kernels import gesv
from repro.core.shell import driver_shell

__all__ = ["la_gesv"]


@driver_shell("la_gesv")
def la_gesv(a, b, ipiv=None, info=None):
    n = a.shape[1]                          # lint: LA011
    buf = np.zeros(n + 1, dtype=np.intp)    # lint: LA011
    _, linfo = gesv(a, b)
    if ipiv is not None:
        ipiv[:] = buf
    return b, linfo, None
