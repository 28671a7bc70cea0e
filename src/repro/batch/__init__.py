"""Spec-generated batched drivers.

``batch_gesv``, ``batch_posv``, ``batch_sysv``, ``batch_hesv``,
``batch_gels``, ``batch_syev``, ``batch_heev`` and ``batch_geev`` — one
wrapper per registry spec carrying ``batchable=True`` — accept
``(batch, n, n)`` matrix stacks and ``(batch, n)`` /
``(batch, n, nrhs)`` right-hand-side stacks and solve every problem
under one amortized validation pass, one ERINFO verdict, and
per-problem :class:`BatchInfo` telemetry::

    from repro import batch_gesv, BatchInfo
    info = BatchInfo()
    x = batch_gesv(a_stack, b_stack, info=info)   # (256, n, nrhs)
    info.codes()          # per-problem LAPACK info codes
    info.first_failure    # -1 when the whole stack solved

The wrappers are *derived* from the DriverSpec registry at import time
(:mod:`repro.batch.generator`); the package exports whatever the
registry opts in, so ``__all__`` is dynamic by construction.
"""

from __future__ import annotations

from .info import BatchInfo
from .report import reset_batch_announcements, warn_batch
from .generator import batchable_specs, generate, make_batched

_GENERATED = generate(globals())

__all__ = ["BatchInfo", "batchable_specs", "make_batched",
           "warn_batch", "reset_batch_announcements"] + _GENERATED
