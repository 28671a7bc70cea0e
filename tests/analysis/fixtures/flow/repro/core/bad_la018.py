"""LA018 seeded violations: the right-hand side handed to ``gesv`` is a
view of the coefficient matrix, so the in-place factorization of ``a``
scribbles over the operand the kernel is simultaneously solving for;
and the ``superdiag`` buffer handed to ``gesvd`` is a row of ``a``,
which the kernel destroys while it writes the superdiagonal there.
``superdiag`` is no spec argument: the substrate body's store into it
is what marks the slot written."""

import numpy as np

from repro.errors import Info
from repro.backends.kernels import gesv, gesvd
from repro.core.shell import driver_shell

__all__ = ["la_gesv", "la_gesvd"]


@driver_shell("la_gesv")
def la_gesv(a, b, ipiv=None, info=None):
    n = a.shape[0]
    buf = np.zeros(n, dtype=np.intp)
    rhs = a[:, :1]
    _, linfo = gesv(a, rhs)                     # lint: LA018
    if ipiv is not None:
        ipiv[:] = buf
    return b, linfo, None


@driver_shell("la_gesvd")
def la_gesvd(a, s=None, u=None, vt=None, ww=None, job="N", info=None):
    m, n = a.shape
    ev = a[0, :max(min(m, n) - 1, 0)]
    sout, uv, vtv, linfo = gesvd(a, superdiag=ev)  # lint: LA018
    if ww is not None:
        ww[:] = ev
    if s is not None:
        s[:] = sout
    if u is not None:
        u[:] = uv
    if vt is not None:
        vt[:] = vtv
    return sout, linfo, None
