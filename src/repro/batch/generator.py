"""Spec→wrapper derivation for the batched drivers.

Every ``batch_*`` wrapper in :mod:`repro.batch` is *generated* here from
the parent driver's :class:`~repro.specs.DriverSpec` — there is no
hand-written batched validation ladder anywhere (lalint rule LA021
forbids one outside this package).  The derivation mirrors the paper's
own derivation arrow: just as the F90 generic interfaces were mechanical
wrappers over the F77 kernels, a ``batch_gesv`` is a mechanical lift of
``la_gesv`` over a leading batch axis:

* argument binding, flag defaults, the validation ladder and the n = 0
  quick return come from the spec (one amortized
  :func:`~repro.specs.validate_batch` run per call; NaN/Inf screens
  vectorized over the stack by :func:`repro.policy.screen_stack`);
* each problem runs the parent driver's own body (the function
  :func:`~repro.core.shell.driver_shell` wraps) on its slices, inside
  the dispatch seam, so escalation and deadlines observe individual
  kernel calls and a mid-batch :class:`~repro.errors.DeadlineExceeded`
  leaves the completed prefix intact.  The body supplies the calling
  convention, the outputs, the exception class of a positive code and
  the fallback ladder;
* when the selected backend serves a ``<kernel>_stack`` entry (see
  :mod:`repro.backends.batched`; the solvers, ``gels`` and the
  symmetric/Hermitian eigensolvers have one) and nothing needs
  per-problem visibility (no deadline, chaos or fault armed, no screen
  fired), the whole stack crosses the seam once instead; an output
  stack the entry returns (``ipiv``, ``w``) fills the caller's or, for
  an omitted ``w``, is returned.  With fallbacks on, each failing
  problem is then re-solved through the body from a pre-call snapshot;
* per-problem codes land on a :class:`~repro.batch.BatchInfo` (the
  stack path hands its info vector to the handle as its code vector;
  per-problem ``Info`` handles are built only when the per-problem path
  runs or a caller reads them), a taken fallback is announced
  batch-indexed, and the aggregate verdict goes through ``erinfo`` with
  the failing problem's index.  A clean stack (every code 0, no kernel
  retried) skips the verdict: it stores ``info.value = 0`` as the
  driver shell does for a clean call, and builds nothing per problem.

Like the driver shell, each wrapper takes the ``backend=`` escape hatch
and closes its call-log frame in ``finally``.  Only the calling
conventions of the ``<kernel>_stack`` entries are written by hand
(``_FAMILIES``); a driver opts in with ``batchable=True``.
"""

from __future__ import annotations

import numpy as np

from .. import core, faults
from ..backends import _pinned, _serves
from ..backends import kernels as _kernels
from ..core.shell import Fallback, _fallback_message
from ..errors import (ALLOC_FAILED, DEADLINE, DeadlineExceeded,
                      DriverFallbackWarning, NoConvergence,
                      NonFiniteWarning, NotPositiveDefinite,
                      SingularMatrix, erinfo)
from ..policy import get_policy, screen_stack, screening
from ..resilience import calllog, deadlines
from ..specs import SPECS, validate_batch
from .info import BatchInfo
from .report import warn_batch

__all__ = ["batchable_specs", "make_batched", "generate"]


def batchable_specs():
    """The registered specs that opt into wrapper derivation."""
    return [s for s in SPECS.values() if s.batchable]


# -- calling conventions of the ``<kernel>_stack`` seam entries -------
# ``run(kern, c)`` invokes one stack kernel on the bound compute views
# in ``c`` and returns ``(linfos, outs)``, ``outs`` mapping an output
# argument's name to the stack the kernel returned for it; it is paired
# with the exception class a positive code raises.

def _run_gesv(kern, c):
    lpiv, linfos = kern(c["a"], c["b"])
    return linfos, {"ipiv": lpiv}


def _run_posv(kern, c):
    return kern(c["a"], c["b"], c["uplo"]), {}


def _run_indef(kern, c):
    lpiv, linfos = kern(c["a"], c["b"], c["uplo"])
    return linfos, {"ipiv": lpiv}


def _run_gels(kern, c):
    return kern(c["a"], c["b"], trans=c["trans"]), {}


def _run_eig(kern, c):
    w, linfos = kern(c["a"], c["jobz"], c["uplo"])
    return linfos, {"w": w}


_FAMILIES = {
    "gesv": (_run_gesv, SingularMatrix),
    "posv": (_run_posv, NotPositiveDefinite),
    "sysv": (_run_indef, SingularMatrix),
    "hesv": (_run_indef, SingularMatrix),
    "gels": (_run_gels, None),
    "syev": (_run_eig, NoConvergence),
    "heev": (_run_eig, NoConvergence),
}

_STACK_PROXIES: dict = {}


def _stack_proxy(kernel):
    proxy = _STACK_PROXIES.get(kernel)
    if proxy is None:
        proxy = _STACK_PROXIES[kernel] = _kernels.KernelProxy(kernel + "_stack")
    return proxy


def make_batched(spec):
    """Derive the ``batch_*`` wrapper for one batchable *spec*.

    Everything that depends on the spec alone (the argument table and
    its defaults, the stacked operands and their screens, the stack
    entry's proxy and calling convention, the stack-level validation
    walk, :attr:`~repro.specs.model.DriverSpec.batch_walk`) is derived
    here, once, so a call pays only for its own operands.
    """
    body = getattr(core, spec.name).__wrapped__
    stack_run, stack_exc = _FAMILIES.get(spec.kernel, (None, None))
    stack_kernel = f"{spec.kernel}_stack"
    proxy = _stack_proxy(spec.kernel) if stack_run is not None else None
    fname = "batch_" + spec.name[3:]         # "la_gesv" -> "batch_gesv"
    srname = fname.upper()
    arg_names = [a.name for a in spec.args if a.kind != "info"]
    stacked = set(spec.batch_stacked)
    screen_specs = [a for a in spec.args
                    if a.name in stacked and a.intent == "inout"]
    flags = spec.flags
    defaults = {}
    for a in spec.args:
        if a.kind == "info" or a.required:
            continue
        defaults[a.name] = flags[a.name][0] if a.name in flags else None
    rhs = next((a.name for a in spec.args if a.kind == "rhs"), None)
    quick = spec.screen == "nonempty"
    is_ls = spec.kernel == "gels"
    # A driver without a right-hand side returns its outputs: the
    # workspace one (``w``, first) always, the others when requested.
    outputs = [a for a in spec.args if rhs is None and a.intent == "out"
               and a.kind != "info"]

    def returned(bound, w):
        outs = [w] + [bound[a.name] for a in outputs[1:]
                      if bound[a.name] is not None]
        return outs[0] if len(outs) == 1 else tuple(outs)

    def refused(bound, batch):
        if rhs is not None:
            return bound[rhs]
        w = bound["w"]
        return returned(bound, w if w is not None else np.zeros((batch, 0)))

    def wrapper(*args, info=None, backend=None, **kwargs):
        if backend is not None:
            with _pinned(backend):
                return wrapper(*args, info=info, **kwargs)
        if len(args) > len(arg_names):
            raise TypeError(f"{fname}() takes at most {len(arg_names)} "
                            f"positional arguments ({len(args)} given)")
        bound = dict(defaults)
        bound.update(zip(arg_names, args))
        for key, val in kwargs.items():
            if key not in arg_names:
                raise TypeError(f"{fname}() got an unexpected keyword "
                                f"argument {key!r}")
            bound[key] = val

        linfo, batch = validate_batch(spec, bound)
        if linfo == 0 and quick and batch and bound[rhs].shape[1] == 0:
            batch = 0               # n = 0: nothing to compute
        if linfo != 0 or batch == 0:
            erinfo(linfo, srname, info)
            return refused(bound, batch)
        frames, depth = calllog.push()
        try:
            return run(bound, batch, info, frames, depth)
        finally:
            del frames[depth:]

    def finish(bound, batch, c, w, was_vec):
        """The wrapper's return value once every problem has run."""
        a = c["a"]
        if rhs is None:
            if w is None:                    # every problem was screened
                w = np.zeros((batch, a.shape[1]), a.real.dtype)
            return returned(bound, w)
        if is_ls:
            out_rows = a.shape[2] if str(c["trans"]).upper() == "N" \
                else a.shape[1]
            return c["b"][:, :out_rows, 0] if was_vec \
                else c["b"][:, :out_rows]
        return bound[rhs]

    def run(bound, batch, info, frames, depth):
        # A handle for per-problem codes only when the caller passed
        # one, or once a problem failed or a kernel was retried.
        binfo = info if isinstance(info, BatchInfo) else None
        if deadlines.armed():
            deadlines.check(srname, "entry")
        # -- per-problem value screens, vectorized over the stack -----
        # (only while the policy screens: no problem is flagged otherwise)
        codes = flagged = None
        if screening():
            codes, warned = screen_stack(
                srname, batch,
                *((s.position, bound[s.name]) for s in screen_specs
                  if bound.get(s.name) is not None))
            for position, idxs in warned:
                for k in idxs:
                    warn_batch(srname, ("nonfinite", position), int(k),
                               f"argument {position} contains non-finite "
                               "entries; they will propagate",
                               NonFiniteWarning)
            flagged = codes.any()
        if not flagged and faults.alloc_fault(srname):
            calllog.drain_into(binfo)
            erinfo(ALLOC_FAILED, srname, info)
            return refused(bound, batch)

        pol = get_policy()

        # -- bind the compute view of every operand -------------------
        c = dict(bound)
        a = c["a"]
        b = bound.get(rhs)
        was_vec = b is not None and b.ndim == 2
        if was_vec:                          # stack of RHS vectors
            c[rhs] = b[:, :, None]
        if is_ls:
            rows = max(a.shape[1], a.shape[2])
            if c["b"].shape[1] != rows:      # pad the whole stack once
                bw = np.zeros((batch, rows, c["b"].shape[2]),
                              dtype=np.result_type(a, c["b"]))
                bw[:, :c["b"].shape[1]] = c["b"]
                c["b"] = bw
        w = bound.get("w")
        keep_w = bool(outputs) and w is None    # an omitted w is returned

        use_stack = (stack_run is not None
                     and not faults.chaos_active() and not faults.active()
                     and deadlines.remaining() is None
                     and not flagged and _serves(stack_kernel, a.dtype))
        if use_stack:
            # One seam crossing for the whole stack: the resilience
            # layer sees a single kernel call.  Failing problems are
            # re-solved through the body when a fallback may serve them.
            snap = {s.name: c[s.name].copy() for s in screen_specs} \
                if pol.fallbacks else None
            linfos, outs = stack_run(proxy, c)
            for name, out in outs.items():
                if c[name] is not None:
                    c[name][...] = out
            if keep_w:
                w = outs["w"]
            if not np.count_nonzero(linfos) and frames[depth] is None:
                # Clean: every code is 0 and no kernel was retried.
                if binfo is not None:
                    binfo._arm(batch, linfos)
                if info is not None:
                    info.value = 0
                return finish(bound, batch, c, w, was_vec)
            default_exc = stack_exc
            todo = np.flatnonzero(linfos > 0) \
                if snap is not None else ()
            for k in todo:
                for name, pristine in snap.items():
                    c[name][k] = pristine[k]
        else:
            linfos, default_exc, todo = None, None, range(batch)
        if binfo is None:
            binfo = BatchInfo()
        binfo._arm(batch, linfos)
        outcomes = {}

        # Per-problem telemetry needs the Info handles; a stack that
        # re-solves nothing never builds them.
        problems = binfo.problems if len(todo) else ()
        cols = [(c[name], name in stacked and c[name] is not None)
                for name in arg_names] if len(todo) else ()
        k = 0
        try:
            for k in todo:
                pinfo = problems[k]
                if flagged and codes[k]:
                    pinfo.value = int(codes[k])
                    continue
                deadlines.check(srname, "batch", info=binfo)
                calllog.push()
                try:
                    result, linfo, outcome = body(
                        *[v[k] if s else v for v, s in cols], pinfo)
                    calllog.drain_into(pinfo)
                finally:
                    del frames[depth + 1:]
                if keep_w:
                    wk = result[0] if type(result) is tuple else result
                    if w is None:
                        w = np.zeros((batch,) + wk.shape, wk.dtype)
                    w[k] = wk
                if outcome.__class__ is Fallback:
                    pinfo.value = outcome.linfo
                    pinfo.fallback = outcome.via
                    pinfo.rcond = outcome.rcond
                    warn_batch(srname, ("fallback", outcome.via), int(k),
                               _fallback_message(outcome),
                               DriverFallbackWarning)
                else:
                    pinfo.value = linfo
                    outcomes[k] = outcome
        except DeadlineExceeded as derr:
            # Completed prefix stays; problems from k on are marked
            # interrupted and travel on the exception's partial.
            for pinfo in binfo.problems[k:]:
                pinfo.value = DEADLINE
            binfo.value = DEADLINE
            if len(frames) > depth:
                calllog.drain_into(binfo)
            derr.partial = binfo
            raise

        # -- aggregate verdict through the ERINFO funnel --------------
        kf = binfo.first_failure
        final = binfo.codes()[kf] if kf >= 0 else 0
        exc = outcomes.get(kf, default_exc) if final > 0 else None
        if exc.__class__ is type:
            exc = exc(srname, final)
        calllog.drain_into(binfo)
        erinfo(final, srname, info, exc=exc,
               batch_index=kf if kf >= 0 else None)
        return finish(bound, batch, c, w, was_vec)

    wrapper.__name__ = fname
    wrapper.__qualname__ = fname
    wrapper.__doc__ = (
        f"Batched ``{spec.name}``, derived from its DriverSpec: "
        f"{spec.summary}.\n\n"
        f"Array operands {spec.batch_stacked} gain a leading batch "
        f"axis; {spec.batch_broadcast or '()'} broadcast across the "
        "batch.  Pass ``info=BatchInfo()`` to collect per-problem "
        "codes and telemetry; without a handle the first failing "
        "problem raises with its batch index in the message.")
    wrapper.spec = spec
    return wrapper


def generate(namespace: dict) -> list:
    """Derive every opted-in wrapper into *namespace* (the package's
    ``__init__`` globals); returns the generated names."""
    names = []
    for spec in batchable_specs():
        fn = make_batched(spec)
        namespace[fn.__name__] = fn
        names.append(fn.__name__)
    return names
