"""Dispatching kernel proxies — the drivers' import surface and the
dispatch seam.

One :class:`KernelProxy` is exported per name in the lapack77 catalogue.
Calling a proxy resolves ``(routine, dtype-of-first-array-argument)``
through the backend registry once, at call time, and invokes the
winning kernel — so ``from ..backends.kernels import gesv`` behaves
exactly like the direct substrate import it replaces while honouring
the backend selection (or per-call pin) in effect at each call.

A deterministic in-process kernel that fails once fails the same way
again, so nothing is retried.  The contract is the one Demmel et al.
ask of consistent exception handling: report the failure, or serve it
once from a path known to be correct.

* ``LinAlgError`` is a contract *verdict* (singular matrix, failed
  convergence) and propagates unchanged, as do ``KeyboardInterrupt``
  and ``SystemExit``.
* Any other exception is a kernel failure.  It is recorded on the
  driver's call log as ``"<backend>:<routine>#1:error=<Type>"``.  When
  the failed kernel is not the reference kernel and its backend
  declares the entry write-back (:attr:`repro.backends.Backend.write_back`:
  a failure leaves its operands untouched), the reference kernel serves
  the call once, recorded as ``"reference:<routine>#2"``.  Otherwise the failure
  propagates: operands a kernel may have half-written cannot be handed
  to another one.

A clean call resolves once and records nothing.  The chaos harness
(:mod:`repro.faults`) is consulted before each kernel only while a
chaos fault is armed.

lalint treats these imports as substrate imports: LA006 and laflow see a
dispatched call as "the lapack77 call", and LA008 requires driver
modules to import kernels from here rather than from ``repro.lapack77``.
"""

from __future__ import annotations

import numpy as np

from .. import faults, lapack77
from ..errors import LinAlgError
from ..resilience import calllog
from . import _writes_back, get_backend_name, resolve


class KernelProxy:
    """Late-binding stand-in for one substrate routine."""

    def __init__(self, routine):
        self.routine = routine
        # Synthetic routines (the batched ``*_stack`` entry points) have
        # no lapack77 counterpart to borrow a docstring from.
        base = getattr(lapack77, routine, None)
        self.__doc__ = base.__doc__ if base is not None else None

    def __call__(self, *args, **kwargs):
        """Dispatch one kernel call, escalating a failure at most once."""
        routine = self.routine
        dtype = None
        for value in args:
            if isinstance(value, np.ndarray):
                dtype = value.dtype
                break
        kernel = resolve(routine, dtype)
        try:
            if faults.chaos_active():
                _chaos(routine, _serving(kernel, routine, dtype))
            return kernel(*args, **kwargs)
        except LinAlgError:
            raise
        except Exception as exc:
            reference = resolve(routine, dtype, backend="reference")
            backend = "reference" if kernel is reference \
                else get_backend_name()
            calllog.record("{}:{}#1:error={}".format(
                backend, routine, type(exc).__name__))
            if backend == "reference" \
                    or not _writes_back(backend, routine):
                raise
        return _escalate(routine, reference, args, kwargs)

    def __repr__(self):
        return "<dispatched lapack77 kernel {!r}>".format(self.routine)


def _escalate(routine, reference, args, kwargs):
    """Serve a failed write-back call once from the reference kernel."""
    attempt = "reference:{}#2".format(routine)
    try:
        if faults.chaos_active():
            _chaos(routine, "reference")
        result = reference(*args, **kwargs)
    except LinAlgError:
        calllog.record(attempt + ":verdict")
        raise
    except Exception as exc:
        calllog.record("{}:error={}".format(attempt, type(exc).__name__))
        raise
    calllog.record(attempt)
    return result


def _serving(kernel, routine, dtype):
    """Name of the backend whose entry ``kernel`` is."""
    if kernel is resolve(routine, dtype, backend="reference"):
        return "reference"
    return get_backend_name()


def _chaos(routine, backend):
    fault = faults.chaos_fault(routine, backend)
    if fault is not None:
        try:
            raise fault
        finally:
            # The traceback holds this frame: keeping ``fault`` here
            # would tie the caller's operands into a reference cycle.
            del fault


for _name in lapack77.__all__:
    globals()[_name] = KernelProxy(_name)
del _name

__all__ = ["KernelProxy"] + list(lapack77.__all__)
