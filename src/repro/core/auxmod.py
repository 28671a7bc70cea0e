"""The ``LA_AUXMOD`` module: shared helpers used by every wrapper.

* :func:`lsame` — case-insensitive option-letter comparison,
* :func:`la_ws_gels` / :func:`la_ws_gelss` — workspace-size enquiries
  (kept for interface fidelity; the Python wrappers allocate internally
  but the sizes are exactly what a FORTRAN caller would have needed),
* validation helpers that turn argument mistakes into the negative
  ``LINFO`` codes the ERINFO protocol reports,
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
           "check_square", "check_rhs", "checked_dtype", "driver_guard"]


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


def check_square(a, argpos: int) -> int:
    """0 when ``a`` is a square 2-D array, else ``-argpos``."""
    if not isinstance(a, np.ndarray) or a.ndim != 2 \
            or a.shape[0] != a.shape[1]:
        return -argpos
    return 0


def check_rhs(a_rows: int, b, argpos: int) -> int:
    """0 when ``b`` is a 1-D/2-D array with ``a_rows`` rows."""
    if not isinstance(b, np.ndarray) or b.ndim not in (1, 2) \
            or b.shape[0] != a_rows:
        return -argpos
    return 0


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


def checked_dtype(*arrays) -> int:
    """0 when all arrays share a supported floating dtype family."""
    kinds = {np.dtype(a.dtype).kind for a in arrays if a is not None}
    if not kinds <= {"f", "c"}:
        return 1
    return 0
