"""LA018 clean fixture: the column slice is copied before the kernel
call, and ``gesvd``'s superdiagonal goes to a buffer of its own, so
every pair of operand slots carries independent storage."""

import numpy as np

from repro.errors import Info
from repro.backends.kernels import gesv, gesvd
from repro.core.shell import driver_shell

__all__ = ["la_gesv", "la_gesvd"]


@driver_shell("la_gesv")
def la_gesv(a, b, ipiv=None, info=None):
    n = a.shape[0]
    buf = np.zeros(n, dtype=np.intp)
    rhs = a[:, :1].copy()
    _, linfo = gesv(a, rhs)
    if ipiv is not None:
        ipiv[:] = buf
    return b, linfo, None


@driver_shell("la_gesvd")
def la_gesvd(a, s=None, u=None, vt=None, ww=None, job="N", info=None):
    m, n = a.shape
    ev = np.zeros(max(min(m, n) - 1, 0), dtype=a.real.dtype)
    sout, uv, vtv, linfo = gesvd(a, superdiag=ev)
    if ww is not None:
        ww[:] = ev
    if s is not None:
        s[:] = sout
    if u is not None:
        u[:] = uv
    if vt is not None:
        vt[:] = vtv
    return sout, linfo, None
