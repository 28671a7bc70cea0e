"""The dispatch seam: resolve once, call, escalate at most once.

:func:`call` is what :class:`repro.backends.kernels.KernelProxy`
delegates to.  The registry's ``resolve`` and ``get_backend_name`` are
passed *in* as parameters rather than imported, so this package never
imports :mod:`repro.backends` at module level (the backends package
imports :mod:`repro.faults` and the drivers import the backends — a
top-level import here would close a cycle).

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
  operands are written only after the underlying call returns, so a
  failure leaves them untouched), the reference kernel serves the call
  once, recorded as ``"reference:<routine>#2"``.  Otherwise the failure
  propagates: operands a kernel may have half-written cannot be handed
  to another one.

A clean call resolves once and records nothing.  The chaos harness
(:mod:`repro.faults`) is consulted before each kernel only while a
chaos fault is armed.
"""

from __future__ import annotations

from .. import faults
from ..errors import LinAlgError
from . import calllog

__all__ = ["call"]


def call(routine, dtype, args, kwargs, resolve, get_backend_name):
    """Dispatch one kernel call, escalating a failure at most once."""
    kernel = resolve(routine, dtype)
    try:
        if faults.chaos_active():
            _chaos(routine, _serving(kernel, routine, dtype, resolve,
                                     get_backend_name))
        return kernel(*args, **kwargs)
    except LinAlgError:
        raise
    except Exception as exc:
        reference = resolve(routine, dtype, backend="reference")
        backend = "reference" if kernel is reference \
            else get_backend_name()
        calllog.record("{}:{}#1:error={}".format(
            backend, routine, type(exc).__name__))
        if backend == "reference" or routine not in _write_back(backend):
            raise
    return _escalate(routine, reference, args, kwargs)


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


def _serving(kernel, routine, dtype, resolve, get_backend_name):
    """Name of the backend whose entry ``kernel`` is."""
    if kernel is resolve(routine, dtype, backend="reference"):
        return "reference"
    return get_backend_name()


def _write_back(backend):
    """The routine names ``backend`` declares write-back."""
    from ..backends import get_backend
    return get_backend(backend).write_back


def _chaos(routine, backend):
    fault = faults.chaos_fault(routine, backend)
    if fault is not None:
        try:
            raise fault
        finally:
            # The traceback holds this frame: keeping ``fault`` here
            # would tie the caller's operands into a reference cycle.
            del fault
