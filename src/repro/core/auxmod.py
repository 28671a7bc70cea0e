"""The ``LA_AUXMOD`` module: shared helpers used by every wrapper.

* :func:`lsame` — case-insensitive option-letter comparison,
* :func:`la_ws_gels` / :func:`la_ws_gelss` — workspace-size enquiries
  (kept for interface fidelity; the Python wrappers allocate internally
  but the sizes are exactly what a FORTRAN caller would have needed),
* :func:`as_matrix` — the ``GESV1_F90`` vector/matrix RHS dispatch,
* :func:`driver_guard` — the entry gate the driver shell
  (:mod:`repro.core.shell`) runs for screened drivers: NaN/Inf
  screening per the active exception policy plus the simulated
  workspace-allocation fault (``LINFO = -100``) used by the
  fault-injection harness.
"""

from __future__ import annotations

import numpy as np

from ..config import ilaenv
from ..errors import ALLOC_FAILED
from ..faults import alloc_fault
from ..policy import screen
from ..resilience import deadlines

__all__ = ["lsame", "la_ws_gels", "la_ws_gelss", "as_matrix",
           "driver_guard"]


def lsame(ca: str, cb: str) -> bool:
    """True when two option characters agree regardless of case
    (the paper's ``LSAME``)."""
    return bool(ca) and bool(cb) and ca[0].upper() == cb[0].upper()


def la_ws_gels(ver: str, m: int, n: int, nrhs: int, trans: str = "N") -> int:
    """Minimum workspace length ``xGELS`` would need (``LA_WS_GELS``)."""
    nb = max(ilaenv(1, "geqrf"), ilaenv(1, "gelqf"),
             ilaenv(1, "ormqr"), ilaenv(1, "ormlq"))
    mn = min(m, n)
    return max(1, mn + max(mn, nrhs) * nb)


def la_ws_gelss(ver: str, m: int, n: int, nrhs: int) -> int:
    """Minimum workspace length ``xGELSS`` would need (``LA_WS_GELSS``)."""
    mn = min(m, n)
    mx = max(m, n)
    return max(1, 3 * mn + max(2 * mn, mx, nrhs))


def as_matrix(b: np.ndarray):
    """View a RHS as 2-D, remembering whether it arrived as a vector
    (the ``GESV1_F90`` shape dispatch).  Returns ``(b2d, was_vector)``."""
    if b.ndim == 1:
        return b[:, None], True
    return b, False


def driver_guard(srname: str, *args):
    """Entry gate run after argument validation, before any computation.

    ``args`` are 1-based ``(position, array)`` pairs.  Returns
    ``(linfo, exc)``: the non-finite screening verdict from
    :func:`repro.policy.screen`, or ``(ALLOC_FAILED, None)`` when the
    fault-injection harness simulates a failed workspace allocation for
    this driver.  ``(0, None)`` means proceed.

    The guard first runs the ``"entry"`` deadline checkpoint, which
    raises :class:`~repro.errors.DeadlineExceeded` when an enclosing
    ``repro.deadline()`` budget is already spent.
    """
    deadlines.check(srname, "entry")
    linfo, exc = screen(srname, *args)
    if linfo == 0 and alloc_fault(srname):
        return ALLOC_FAILED, None
    return linfo, exc
