"""LA018 seeded violation: the right-hand side handed to ``gesv`` is a
view of the coefficient matrix, so the in-place factorization of ``a``
scribbles over the operand the kernel is simultaneously solving for."""

import numpy as np

from repro.errors import Info
from repro.backends.kernels import gesv
from repro.core.shell import driver_shell

__all__ = ["la_gesv"]


@driver_shell("la_gesv")
def la_gesv(a, b, ipiv=None, info=None):
    n = a.shape[0]
    buf = np.zeros(n, dtype=np.intp)
    rhs = a[:, :1]
    _, linfo = gesv(a, rhs)                     # lint: LA018
    if ipiv is not None:
        ipiv[:] = buf
    return b, linfo, None
