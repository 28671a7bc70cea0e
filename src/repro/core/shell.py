"""The driver shell: the one frame every ``la_*`` driver runs in.

The paper's Appendix C gives every LAPACK90 wrapper the same shape:
test the arguments, call the F77 routine, and funnel the outcome
through ``ERINFO``.  :func:`driver_shell` writes that frame once,
keyed by the driver's :class:`~repro.specs.model.DriverSpec`:

1. the per-call ``backend=`` escape hatch, which pins the backend for
   this call only (:func:`repro.backends._pinned`);
2. a resilience call-log frame, closed in a ``finally`` however the
   call exits, so an escaping exception never strands it;
3. the spec's validation ladder over the caller's arguments, with the
   signature's defaults applied;
4. the entry gate for the drivers the spec marks screened (the
   ``"entry"`` deadline checkpoint, the non-finite screen of the
   required array operands, the simulated allocation fault), run only
   while a deadline or a fault is armed or the policy screens;
5. the driver body;
6. the report through :func:`repro.errors.erinfo`, or for a clean
   outcome only ``info.value = 0``.

A body holds only kernel calls, stage deadline checks and
post-processing, and returns ``(result, linfo, outcome)``.  The
outcome is ``None``, an exception class (raised as ``cls(srname,
linfo)`` for a positive ``linfo``), a pre-built exception, or a
:class:`Fallback` record when the body's fallback ladder served the
call.  A positive ``linfo`` with no outcome is the expert drivers'
warning-class ``n+1``: stored, never raised.  When validation or the
gate refuses the call the body never runs and the driver returns
``None``, with the caller's operands as passed (``ERINFO``: ``INFO`` is
set and control returns).

The frame is one source template (:data:`_FRAME`) compiled for each
driver with the body's own signature, so the public function binds its
arguments as fast as a hand-written one would.  Before compiling it,
the shell checks the body against the spec: every spec argument must
be the body's parameter at its declared 1-based position, and ``info``
must default to ``None``.  A mismatch is a ``TypeError`` when the
driver module is imported.
"""

from __future__ import annotations

import functools
import sys
from typing import NamedTuple

from .. import faults
from ..backends import _pinned
from ..errors import DriverFallbackWarning, erinfo, warn_at_caller
from ..policy import screening
from ..resilience import calllog, deadlines
from ..specs import SPECS
from .auxmod import driver_guard

__all__ = ["driver_shell"]

_OPERANDS = ("matrix", "rhs", "vector")


class Fallback(NamedTuple):
    """A body's fallback ladder served the call through ``via``."""

    via: str
    rcond: float | None
    linfo: int


#: The frame every driver runs in, compiled once per driver with the
#: body's own signature: Python's call binding applies the defaults and
#: raises the usual ``TypeError``.  The entry gate is reached as an
#: attribute of this module, where a tracer may rebind it.  A seam that
#: is inert in the default state costs a flag read on a clean call: the
#: gate runs only while a deadline or a fault is armed or the policy
#: screens non-finite input, and a clean outcome (``linfo == 0``, no
#: fallback taken, nothing recorded on the call-log frame) stores
#: ``info.value = 0`` without the report.
_FRAME = """\
def {fn}({params}, *, backend=None):
    if backend is not None:
        with _pinned(backend):
            return {fn}({values})
    frames, depth = _push()
    try:
        linfo = _spec.validator({arguments})
        outcome = None
{gate}        if linfo:
            result = None
        else:
            result, linfo, outcome = _body({values})
        if linfo == 0 and outcome.__class__ is not _Fallback \\
                and frames[depth] is None:
            if info is not None:
                info.value = 0
        else:
            _report({srname!r}, linfo, info, outcome, {warns})
        return result
    finally:
        del frames[depth:]
"""

#: The entry gate of a screened driver, spliced into :data:`_FRAME`.
_GATE = """\
        if linfo == 0 and {rows}(_deadline() or _fault() or _screens()):
            linfo, outcome = _shell.driver_guard({srname!r}, {operands})
"""


def driver_shell(name: str):
    """Decorator running a driver body inside the shell of spec
    *name*: the body gets the caller's arguments, in signature order,
    only when validation and the entry gate let the call through."""
    spec = SPECS[name]
    operands = [a for a in spec.args
                if spec.screen and a.required and a.kind in _OPERANDS]
    rows = ""
    if spec.screen == "nonempty":       # the n = 0 quick return
        rows = next(a.name for a in spec.args if a.kind == "rhs") \
            + ".shape[0] and "
    gate = _GATE.format(
        rows=rows, srname=spec.srname,
        operands=", ".join(f"({a.position}, {a.name})" for a in operands)
    ) if operands else ""

    def decorate(body):
        code = body.__code__
        names = code.co_varnames[:code.co_argcount]
        defaults = body.__defaults__ or ()
        required = len(names) - len(defaults)
        _check_signature(name, spec, names, dict(zip(names[required:],
                                                     defaults)))
        source = _FRAME.format(
            fn=body.__name__, srname=spec.srname, gate=gate,
            params=", ".join(list(names[:required]) + [
                f"{n}=_defaults[{i}]"
                for i, n in enumerate(names[required:])]),
            values=", ".join(names),
            arguments=", ".join(f"{n}={n}" for n in names if n != "info"),
            warns=(spec.warn or "").startswith("n+1"))
        # ``__name__`` files the frame under this package, so a warning
        # raised inside it names the caller's line (warn_at_caller).
        namespace = {"__name__": __name__,
                     "_shell": sys.modules[__name__], "_spec": spec,
                     "_push": calllog.push, "_pinned": _pinned,
                     "_deadline": deadlines.armed,
                     "_fault": faults.active,
                     "_screens": screening, "_report": _report,
                     "_Fallback": Fallback,
                     "_body": body, "_defaults": defaults}
        exec(source, namespace)
        return functools.update_wrapper(namespace[body.__name__], body)
    return decorate


def _check_signature(name, spec, names, defaults):
    """Refuse a body whose signature disagrees with spec *name*: every
    spec argument must be the parameter at its declared 1-based
    position, and ``info`` must default to ``None``."""
    for a in spec.args:
        if names[a.position - 1:a.position] != (a.name,):
            raise TypeError(f"{name}: spec argument {a.name!r} is not "
                            f"parameter {a.position} of the body "
                            f"{names}")
    if "info" not in defaults or defaults["info"] is not None:
        raise TypeError(f"{name}: the body must take info=None")


def _report(srname, linfo, info, outcome, warns):
    """Funnel one outcome through ``erinfo``, draining the call-log
    frame onto the ``Info`` handle first (so ``info.attempts`` is set
    even when ``erinfo`` goes on to raise)."""
    if outcome.__class__ is Fallback:
        _record_fallback(srname, outcome, info)
        return
    calllog.drain_into(info)
    if linfo > 0 and outcome is None and warns:
        # RCOND below machine epsilon: the expert drivers computed the
        # solution and bounds anyway, so info = n+1 is warning-class.
        if info is not None:
            info.value = linfo
        return
    if outcome.__class__ is type:
        outcome = outcome(srname, linfo) if linfo > 0 else None
    erinfo(linfo, srname, info, exc=outcome)


def _record_fallback(srname, fallback, info):
    """Announce a taken fallback and record it on the Info handle.

    The code is stored without going through ``erinfo``: a successful
    fallback is a warning-class outcome (even the ``n+1``
    singular-to-working-precision verdict) and must not terminate.
    """
    calllog.drain_into(info)
    warn_at_caller(f"{srname}: {_fallback_message(fallback)}",
                   DriverFallbackWarning)
    if info is not None:
        info.value = int(fallback.linfo)
        info.fallback = fallback.via
        info.rcond = fallback.rcond


def _fallback_message(fallback):
    """The announcement of a taken fallback, after the routine name."""
    rcond = fallback.rcond
    detail = f" (RCOND = {rcond:.3e})" if rcond is not None else ""
    return ("primary factorization failed; solution computed via the "
            f"{fallback.via} fallback{detail}")
