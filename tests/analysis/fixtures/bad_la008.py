"""Seeded LA008 violations: a driver module reaching past the backend
registry straight into the lapack77 substrate (every other rule must
stay quiet — the driver itself obeys the wrapper contract)."""

from repro.errors import SingularMatrix
from repro.lapack77 import gesv                     # lint: LA008
from repro.lapack77.chol import posv                # lint: LA008
from repro.core.shell import driver_shell

import repro.lapack77 as l77                        # lint: LA008

__all__ = ["la_gesv"]


@driver_shell("la_gesv")
def la_gesv(a, b, ipiv=None, info=None):
    if a.shape[0] == 0:
        return b, 0, None
    lpiv, linfo = gesv(a, b)
    if ipiv is not None:
        ipiv[:] = lpiv
    return b, linfo, SingularMatrix
