"""Liveness probing: one small solve per registered backend.

:func:`healthcheck` answers "which substrates can actually serve a
solve right now?".  Each probe is a real ``la_gesv`` call pinned to one
backend, so it travels the full dispatch seam.

Imports of the driver layer are deferred into the function body: the
resilience package is imported by :mod:`repro.backends`, which the
drivers themselves import.
"""

from __future__ import annotations

import numpy as np

__all__ = ["healthcheck"]


def healthcheck() -> dict:
    """Probe every registered backend with a small solve.

    Returns a report dict::

        {"backends": {name: {"ok": bool, "error": str | None,
                             "residual": float | None,
                             "batch": {"ok": bool, "error": str | None,
                                       "modes": {"gesv": "native" |
                                                 "stack" | "loop",
                                                 ...}}}},
         "dispatch": {"structure_cache": {"entries": ..., "hits": ...,
                                          "misses": ...,
                                          "invalidated": ...,
                                          "epoch": ...}}}

    The probe solves a fixed well-conditioned
    3×3 system, so ``residual`` should be at round-off level for any
    correct substrate.  The ``batch`` entry reports the backend's batch
    capability per batchable kernel — ``"stack"`` when a ``*_stack``
    entry crosses the dispatch seam once per stack, ``"loop"`` when the
    derived wrapper loops per problem inside the seam — and probes a
    2-problem ``batch_gesv`` over the same fixed system.  ``dispatch``
    surfaces the front door's per-array structure-cache counters
    (:func:`repro.dispatch_front.cache.stats`).
    """
    from ..backends import available_backends, use_backend
    from ..backends.batched import batch_capability
    from ..batch import BatchInfo, batch_gesv
    from ..core.linear_equations import la_gesv
    from ..errors import Info

    a0 = np.array([[4.0, 1.0, 0.0],
                   [1.0, 3.0, 1.0],
                   [0.0, 1.0, 2.0]])
    b0 = a0 @ np.array([1.0, -1.0, 2.0])

    report: dict = {"backends": {}}
    capability = batch_capability()
    for name in available_backends():
        entry = {"ok": False, "error": None, "residual": None}
        try:
            info = Info()
            x = b0.copy()
            with use_backend(name):
                la_gesv(a0.copy(), x, info=info)
            residual = float(np.max(np.abs(a0 @ x - b0)))
            entry["residual"] = residual
            entry["ok"] = int(info) == 0 and residual < 1e-10
            if not entry["ok"]:
                entry["error"] = "info={}, residual={:.3e}".format(
                    int(info), residual)
        except Exception as exc:  # a probe must never take the caller down
            entry["error"] = "{}: {}".format(type(exc).__name__, exc)
        entry["batch"] = {"ok": False, "error": None,
                          "modes": capability.get(name, {})}
        try:
            binfo = BatchInfo()
            astack = np.stack([a0, a0])
            bstack = np.stack([b0, b0])
            with use_backend(name):
                xb = batch_gesv(astack, bstack, info=binfo)
            bres = float(np.max(np.abs(
                np.einsum("kij,kj->ki", np.stack([a0, a0]), xb)
                - np.stack([b0, b0]))))
            entry["batch"]["ok"] = binfo.first_failure < 0 and bres < 1e-10
            if not entry["batch"]["ok"]:
                entry["batch"]["error"] = "codes={}, residual={:.3e}".format(
                    binfo.codes(), bres)
        except Exception as exc:
            entry["batch"]["error"] = "{}: {}".format(
                type(exc).__name__, exc)
        report["backends"][name] = entry

    from ..dispatch_front import cache as _structure_cache
    report["dispatch"] = {"structure_cache": _structure_cache.stats()}
    return report
