"""Fault tolerance around the backend dispatch seam.

LAPACK90's contract (§4 of the paper) is that a driver either computes
or *says why it could not* through ``INFO`` — it never silently
corrupts.  This package extends that contract from numerical failures
to *infrastructure* failures: a crashing accelerated kernel, a slow
substrate.

Three mechanisms, all scoped to the ``(backend, routine)`` dispatch
seam in :mod:`repro.backends.kernels`:

* **Escalate once** (:mod:`.dispatch`) — a kernel failure that is not a
  contract verdict (``LinAlgError``) is served once by the reference
  kernel when the failed entry is declared write-back (its operands are
  untouched); otherwise it propagates.  Nothing is retried.
* **Deadlines** (:mod:`.deadlines`) — ``repro.deadline(seconds)``
  scopes a wall-clock budget, checked at driver entry and between
  expert-driver stages; exceeding it raises
  :class:`~repro.errors.DeadlineExceeded` carrying the partial ``Info``.
* **Health** (:mod:`.health`) — ``repro.healthcheck()`` runs a real
  solve per registered backend.

Every failed attempt and escalation is visible on the driver's ``Info``
handle (``info.attempts``); the chaos harness in :mod:`repro.faults`
exercises it deterministically.  lalint rule LA016 pins the package's
shared state behind :data:`repro._sync.STATE_LOCK`.
"""

from __future__ import annotations

from .deadlines import deadline, remaining
from .health import healthcheck

__all__ = ["deadline", "remaining", "healthcheck"]
