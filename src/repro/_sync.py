"""Shared synchronisation for the process-global configuration state.

The package keeps three pieces of process-global state: the exception
policy (:mod:`repro.policy`), the selected backend
(:mod:`repro.backends`) and the blocking parameters
(:mod:`repro.config`).  The "millions of users" deployment target means
these knobs get flipped from many threads while drivers are solving, so
every mutation goes through one shared re-entrant lock.

An :class:`~threading.RLock` (not a plain Lock) because the setters
nest: ``exception_policy`` restores via ``set_policy`` while already
holding the lock.  The per-call ``backend=`` pin is not process-global
(a :class:`~contextvars.ContextVar` in :mod:`repro.backends`) and takes
no lock.

lalint enforces the discipline statically from one table,
``GUARDED_BY`` in :mod:`repro.analysis.flow.locks`.  Under LA023 a
listed name may be named only in its owner module (everyone else goes
through that module's functions), and inside the owner the laflow
concurrency pass tracks this lock as part of the abstract environment:
reads as well as writes must be proved to hold it on all paths,
interprocedurally.  LA024 forbids check-then-act sequences that
straddle two lock regions, and LA025 keeps the static acquisition graph
over this and every other lock in the tree acyclic (re-entrant
self-nesting of this RLock is modelled and allowed).  Deliberate lock-free reads carry
a justified ``laflow: benign-race`` comment at the access site and the
annotation itself is verified load-bearing.  DESIGN.md §15 has the
model; the Users' Guide "Concurrency contract" section has the rules.
"""

from __future__ import annotations

import threading

__all__ = ["STATE_LOCK"]

STATE_LOCK = threading.RLock()
