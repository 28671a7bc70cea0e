"""Batched entry points grafted onto the substrate seam.

The batched wrappers (:mod:`repro.batch`) want to cross the dispatch
seam **once** per stack, not once per problem: the resilience layer then
sees a single kernel call, and the per-problem Python overhead of proxy
resolution, chaos consultation and calllog recording is amortized away.
This module builds one synthetic ``<kernel>_stack`` routine per
batchable solver and grafts it onto every registered backend via
:meth:`repro.backends.Backend.extend`.

Each stack kernel is a closure over the owning backend's *own* base
kernel, so problem *k* of a stacked call runs byte-for-byte the same
code path as a scalar call on that backend — the parity guarantee the
hypothesis suite (tests/batch/test_parity.py) pins down (identical
pivots, identical info codes).  Substrates with a natively batched
primitive could register a true stack-forwarding kernel instead; the
capability report (:func:`batch_capability`) tells the two modes apart
so ``repro.healthcheck()`` can say which one a backend is using.

Eigen drivers (``syev``/``heev``) are deliberately *not* given stack
entries: their wrappers loop per problem inside the driver so that
deadlines interleave with individual solves (a mid-batch
``DeadlineExceeded`` then returns the completed prefix).
"""

from __future__ import annotations

import numpy as np

from . import available_backends, get_backend

__all__ = ["STACK_ROUTINES", "install", "batch_capability"]

#: Solver kernels that gain a ``<name>_stack`` entry on every backend.
STACK_ROUTINES = ("gesv", "posv", "sysv", "hesv", "gels")


def _restack(results):
    """Combine per-problem kernel returns into stacked form.

    A kernel returns either a bare int info code or a tuple whose
    elements are ndarrays (pivots, eigenvalues) or ints (info).  Arrays
    stack along a new leading axis; ints collect into an int64 vector.
    """
    first = results[0]
    if not isinstance(first, tuple):
        return np.asarray(results, dtype=np.int64)
    cols = list(zip(*results))
    out = []
    for col in cols:
        if isinstance(col[0], np.ndarray):
            out.append(np.stack(col))
        else:
            out.append(np.asarray(col, dtype=np.int64))
    return tuple(out)


def _make_stack_kernel(base, routine):
    """A loop-mode stack kernel over one backend's *base* kernel.

    Slices every ndarray argument along axis 0 (views, so in-place
    writes land back in the caller's stacks), passes everything else
    through unchanged, and restacks the per-problem returns.  Slice *k*
    is written before slice *k+1* runs, so the entry is never declared
    :attr:`~repro.backends.Backend.write_back`: a failure mid-stack
    propagates instead of escalating.
    """
    def stack_kernel(*args, **kwargs):
        batch = next(a.shape[0] for a in args if isinstance(a, np.ndarray))
        results = []
        for k in range(batch):
            sliced = tuple(a[k] if isinstance(a, np.ndarray) else a
                           for a in args)
            skw = {key: (v[k] if isinstance(v, np.ndarray) else v)
                   for key, v in kwargs.items()}
            results.append(base(*sliced, **skw))
        return _restack(results)

    stack_kernel.__name__ = routine + "_stack"
    stack_kernel.loop_mode = True   # vs a native stack-forwarding kernel
    return stack_kernel


def install():
    """Graft ``<routine>_stack`` entries onto every registered backend.

    Idempotent: re-installing rebuilds the closures from the backend's
    current base kernels.  Backends registered *after* install (test
    scaffolding) simply lack stack entries and report ``"loop"``
    capability — the wrappers then loop per problem inside the seam.
    """
    for name in available_backends():
        backend = get_backend(name)
        table, chars = {}, {}
        for routine in STACK_ROUTINES:
            existing = backend.get(routine + "_stack")
            if existing is not None \
                    and not getattr(existing, "loop_mode", False):
                continue        # the substrate ships a native stack entry
            base = backend.get(routine)
            if base is None:
                continue
            table[routine + "_stack"] = _make_stack_kernel(base, routine)
            base_chars = backend._dtype_chars.get(routine)
            if base_chars is not None:
                chars[routine + "_stack"] = base_chars
        if table:
            backend.extend(table, chars)


def batch_capability():
    """Per-backend batch-serving mode for every batchable driver kernel.

    ``{"accelerated": {"posv": "native", "gesv": "stack",
    "syev": "loop", ...}, ...}`` — ``"native"`` means the substrate
    ships its own stack-forwarding kernel (one substrate call for the
    whole stack), ``"stack"`` means the grafted loop-mode entry serves
    it (one *seam* crossing, per-problem base-kernel calls inside),
    ``"loop"`` means the derived wrapper loops per problem inside the
    seam (individual escalation/deadline visibility).
    """
    from ..specs import all_specs
    kernels = sorted({s.kernel for s in all_specs()
                      if s.batchable and s.kernel})
    report = {}
    for name in available_backends():
        backend = get_backend(name)
        modes = {}
        for k in kernels:
            entry = backend.get(k + "_stack")
            if entry is None:
                modes[k] = "loop"
            elif getattr(entry, "loop_mode", False):
                modes[k] = "stack"
            else:
                modes[k] = "native"
        report[name] = modes
    return report
