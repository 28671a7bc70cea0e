"""LA013 fixture: a hard-coded ``np.float64`` eigenvector buffer
reaches the kernel, silently demoting single-precision inputs."""

import numpy as np

from repro.errors import Info
from repro.backends.kernels import stev
from repro.core.shell import driver_shell

__all__ = ["la_stev"]


@driver_shell("la_stev")
def la_stev(d, e, z=None, info=None):
    zout = None
    n = d.shape[0]
    if z is not None:
        zbuf = z if isinstance(z, np.ndarray) else \
            np.empty((n, n), dtype=np.float64)      # lint: LA013
        linfo = stev(d, e, zbuf, jobz="V")
        zout = zbuf
    else:
        linfo = stev(d, e, jobz="N")
    return ((d, zout) if z is not None else d), linfo, None
