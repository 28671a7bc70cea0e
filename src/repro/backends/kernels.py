"""Dispatching kernel proxies — the drivers' import surface.

One :class:`KernelProxy` is exported per name in the lapack77 catalogue.
Calling a proxy hands ``(routine, dtype-of-first-array-argument)`` to
:func:`repro.resilience.dispatch.call`, which resolves it through the
backend registry once, at call time, and invokes the winning kernel —
so ``from ..backends.kernels import gesv`` behaves exactly like the
direct substrate import it replaces while honouring the backend
selection in effect at each call.  A kernel failure that is not a
contract verdict escalates once to the reference kernel when the failed
entry is declared write-back, and propagates otherwise.  The registry's
``resolve`` and ``get_backend_name`` are handed in as parameters so the
resilience package never has to import this one (avoiding an import
cycle).

lalint treats these imports as substrate imports: LA006 and laflow see a
dispatched call as "the lapack77 call", and LA008 requires driver
modules to import kernels from here rather than from ``repro.lapack77``.
"""

from __future__ import annotations

import numpy as np

from .. import lapack77
from ..resilience import dispatch as _dispatch
from . import get_backend_name, resolve


class KernelProxy:
    """Late-binding stand-in for one substrate routine."""

    def __init__(self, routine):
        self.routine = routine
        # Synthetic routines (the batched ``*_stack`` entry points) have
        # no lapack77 counterpart to borrow a docstring from.
        base = getattr(lapack77, routine, None)
        self.__doc__ = base.__doc__ if base is not None else None

    def __call__(self, *args, **kwargs):
        dtype = None
        for value in args:
            if isinstance(value, np.ndarray):
                dtype = value.dtype
                break
        return _dispatch.call(self.routine, dtype, args, kwargs,
                              resolve, get_backend_name)

    def __repr__(self):
        return "<dispatched lapack77 kernel {!r}>".format(self.routine)


for _name in lapack77.__all__:
    globals()[_name] = KernelProxy(_name)
del _name

__all__ = ["KernelProxy"] + list(lapack77.__all__)
