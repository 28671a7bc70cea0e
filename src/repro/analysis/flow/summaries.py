"""Interprocedural effect summaries for the laflow interpreter.

Two kinds of summary make laflow interprocedural without ever importing
the analysed code:

**Kernel effect signatures** (:func:`kernel_effects`) are derived from
the DriverSpec bindings: a spec names the backend kernel it calls and
declares intent (``in`` / ``inout`` / ``out``) per argument, and the
substrate definition of the kernel supplies the parameter order.
Matching spec arguments to kernel parameters *by name* yields, per
kernel, which call slots are array operands and which of those are
written in place; a parameter the substrate body stores into through a
subscript is a written array slot whatever its name.  Drivers that share a kernel (``la_spgv`` and
``la_hpgv`` both bind ``spgv``) contribute the union of their effects.

**Helper summaries** (:class:`SummaryEngine`) cover the wrapper layer's
own call graph: calls from a driver body into same-module helpers or
``core.auxmod`` utilities are interpreted *once* per distinct abstract
input vector and memoized — dims in, events out.  Interpreting a helper
yields its abstract return value plus the allocation / write / sink /
checkpoint events its body performs; applying the summary replays those
events into the caller at ``depth + 1`` with allocation-site indices
remapped into the caller's site table, and the return value flows back
symbolically.  Before a helper call the input values are *canonicalized*
(caller allocation-site indices become stable negative placeholders) so
the memo key is independent of the caller's site numbering; on every
application — cache hit or miss — the helper's local allocations are
re-instantiated as fresh caller sites, because each call is a fresh
allocation.

Recursion and unbounded nesting are cut off conservatively: a helper
already being summarized, or a call more than :data:`MAX_DEPTH` levels
down, is left unmodelled (the call evaluates to bottom and contributes
no events).
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass

from ..model import body_statements
from . import values as V

__all__ = ["KernelEffect", "kernel_effects", "Summary", "SummaryEngine",
           "NO_SUMMARY", "MAX_DEPTH"]

#: Maximum helper-summary nesting depth before calls go unmodelled.
MAX_DEPTH = 3

#: Sentinel: the engine declined to model the call.
NO_SUMMARY = object()


@dataclass(frozen=True)
class KernelEffect:
    """Per-kernel read/write effect signature in call-slot terms."""

    kernel: str
    params: tuple          # kernel parameter names, signature order
    arrays: frozenset      # params that are array operands
    written: frozenset     # array params the kernel writes in place

    def slots(self, args, kwargs):
        """Align a call's abstract values to kernel parameter names.

        ``args`` is the positional value tuple, ``kwargs`` the
        ``((name, value), ...)`` keyword tuple from a :class:`~.interp.
        Sink`.  Extra positionals beyond the known signature are
        dropped; unknown keyword names are dropped.
        """
        out = {}
        for pname, val in zip(self.params, args):
            out[pname] = val
        for kname, val in kwargs:
            if kname in self.params:
                out[kname] = val
        return out


def _stored_params(func, params) -> set:
    """Parameters the substrate body itself writes through: the base of
    a subscript store (``superdiag[:] = 0``, ``x[i] += v``).  Such a
    slot is a written array operand whatever the spec calls the
    argument a driver passes there (``gesvd``'s ``superdiag`` receives
    ``la_gesvd``'s ``ev``)."""
    stored = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        while targets:
            t = targets.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                targets.extend(t.elts)
            elif isinstance(t, ast.Subscript) \
                    and isinstance(t.value, ast.Name) \
                    and t.value.id in params:
                stored.add(t.value.id)
    return stored


def kernel_effects(project, specs) -> dict:
    """Kernel name -> :class:`KernelEffect`, from spec bindings.

    Only kernels whose substrate definition is part of the analysed
    project get a signature (parameter order comes from the ``def``);
    effects of specs sharing a kernel are unioned.
    """
    defs = {}
    for mod in project.modules:
        if not mod.is_substrate:
            continue
        for name, func in mod.functions.items():
            defs.setdefault(name, func)
    effects: dict = {}
    for spec in specs.values():
        func = defs.get(spec.kernel) if spec.kernel else None
        if func is None:
            continue
        params = tuple(a.arg for a in (list(func.args.posonlyargs)
                                       + list(func.args.args)))
        own = _stored_params(func, params)
        arrays = set(params) & set(spec.array_args) | own
        written = set(params) & set(spec.written_args) | own
        prev = effects.get(spec.kernel)
        if prev is not None:
            arrays |= prev.arrays
            written |= prev.written
        effects[spec.kernel] = KernelEffect(
            kernel=spec.kernel, params=params,
            arrays=frozenset(arrays), written=frozenset(written))
    # Generated batch wrappers call ``<kernel>_stack`` entries that have
    # no substrate ``def`` (the batched seam synthesizes them at import
    # time, looping or forwarding per backend).  Their effect signature
    # is the parent kernel's, lifted slot-for-slot over the batch axis —
    # derived here from the spec's ``batchable`` opt-in, never written
    # by hand.
    for spec in specs.values():
        if not getattr(spec, "batchable", False) or not spec.kernel:
            continue
        eff = effects.get(spec.kernel)
        if eff is None:
            continue
        stacked = spec.kernel + "_stack"
        effects.setdefault(stacked, KernelEffect(
            kernel=stacked, params=eff.params,
            arrays=eff.arrays, written=eff.written))
    return effects


@dataclass(frozen=True)
class Summary:
    """Memoized result of interpreting one helper once.

    All allocation-site indices inside are in *summary space*: negative
    placeholders stand for caller sites that flowed in through the
    arguments, and ``0..len(allocs)-1`` number the helper's own sites.
    Event depths are relative to the helper body (0 = its own
    statements).
    """

    ret: object            # merged abstract return value
    allocs: tuple          # the helper's own AllocSites, local indices
    writes: tuple
    sinks: tuple
    checkpoints: tuple
    # Concurrency events (empty for plain dataflow summaries).  Access
    # locksets and acquire held-sets are relative to the helper body;
    # replay unions the caller's lockset on top and renumbers the
    # helper's lock regions into fresh caller regions, so a helper that
    # locks internally stays atomic and one that relies on the caller's
    # lock inherits it — the interprocedural half of LA023/LA024.
    accesses: tuple = ()
    acquires: tuple = ()
    escapes: tuple = ()


def _rewrite(value, remap):
    """Renumber allocation-site indices inside an abstract value."""
    if isinstance(value, V.ArrayVal):
        if not value.allocs:
            return value
        return V.ArrayVal(shape=value.shape, dtype=value.dtype,
                          origins=value.origins,
                          allocs=frozenset(remap.get(i, i)
                                           for i in value.allocs))
    if isinstance(value, V.TupleVal):
        return V.TupleVal(tuple(_rewrite(x, remap) for x in value.items))
    return value


def _alloc_indices(value) -> set:
    if isinstance(value, V.ArrayVal):
        return set(value.allocs)
    if isinstance(value, V.TupleVal):
        out: set = set()
        for item in value.items:
            out |= _alloc_indices(item)
        return out
    return set()


class SummaryEngine:
    """Compute-once, replay-everywhere summaries for helper calls.

    One engine is shared across all driver flows of a project so the
    memo table amortizes: a helper shared by many driver bodies (the
    packed and band eigen bodies, say) is interpreted once per distinct
    argument shape and replayed into every caller.
    """

    NO_SUMMARY = NO_SUMMARY

    def __init__(self, project):
        self.project = project
        self.memo: dict = {}
        self.computed = 0       # distinct summaries interpreted
        self._stack: list = []  # func ids currently being summarized

    # -- resolution -------------------------------------------------

    def resolve(self, module, name):
        """``(module, func)`` for a modelled helper call, else None.

        Scope is deliberately narrow: functions defined in the calling
        module itself, plus names the module imports from
        ``core.auxmod``.  Everything else (``validate_args``,
        ``erinfo``, storage utilities) stays unmodelled — those are
        contract *subjects*, handled by dedicated rules, not effects to
        inline.
        """
        if module is None:
            return None
        func = module.functions.get(name)
        if func is not None:
            return (module, func)
        src = module.imports.get(name, "")
        if not src.endswith("auxmod"):
            return None
        entry = self.project.functions.get(name)
        if entry is None:
            return None
        mod, func = entry
        if not mod.path.replace("\\", "/").endswith("/auxmod.py"):
            return None
        return (mod, func)

    # -- application ------------------------------------------------

    def apply(self, caller, target, argvals, kwvals):
        """Summarize ``target`` for these inputs and replay its effects
        into ``caller``; returns the abstract return value or
        :data:`NO_SUMMARY`."""
        mod, func = target
        if id(func) in self._stack or len(self._stack) >= MAX_DEPTH:
            return NO_SUMMARY
        if func.args.vararg is not None or func.args.kwarg is not None:
            return NO_SUMMARY
        params = [a.arg for a in (list(func.args.posonlyargs)
                                  + list(func.args.args))]
        if len(argvals) > len(params) \
                or not set(kwvals) <= set(params):
            return NO_SUMMARY

        # Canonicalize: caller site indices -> stable placeholders.
        incoming: set = set()
        for val in list(argvals) + list(kwvals.values()):
            incoming |= _alloc_indices(val)
        to_placeholder = {idx: -(pos + 1)
                          for pos, idx in enumerate(sorted(incoming))}
        canon_args = tuple(_rewrite(v, to_placeholder) for v in argvals)
        canon_kwargs = {k: _rewrite(v, to_placeholder)
                        for k, v in kwvals.items()}

        key = (id(func), canon_args,
               tuple(sorted(canon_kwargs.items())))
        try:
            summary = self.memo.get(key)
        except TypeError:       # unhashable abstract value — no memo
            key, summary = None, None
        if summary is None:
            summary = self._compute(mod, func, params, canon_args,
                                    canon_kwargs)
            if key is not None:
                self.memo[key] = summary

        # Instantiate: placeholders back to this call's caller sites,
        # helper-local sites appended as fresh caller sites.
        base = len(caller.allocs)
        remap = {ph: idx for idx, ph in to_placeholder.items()}
        for site in summary.allocs:
            remap[site.index] = base + site.index
            caller.allocs.append(V.AllocSite(
                index=base + site.index, node=site.node,
                shape=site.shape, dtype=site.dtype))
        bump = caller.depth + 1
        for w in summary.writes:
            caller.writes.append(w.__class__(
                names=w.names, value=_rewrite(w.value, remap),
                node=w.node, via=w.via, depth=bump + w.depth))
        for s in summary.sinks:
            caller.sinks.append(s.__class__(
                callee=s.callee,
                values=tuple(_rewrite(v, remap) for v in s.values),
                node=s.node,
                args=tuple(_rewrite(v, remap) for v in s.args),
                kwargs=tuple((k, _rewrite(v, remap))
                             for k, v in s.kwargs),
                callees=s.callees, depth=bump + s.depth))
        for c in summary.checkpoints:
            caller.checkpoints.append(c.__class__(
                stage=c.stage, node=c.node, depth=bump + c.depth))
        if summary.accesses or summary.acquires or summary.escapes:
            self._replay_concurrency(caller, summary, bump)
        return _rewrite(summary.ret, remap)

    @staticmethod
    def _replay_concurrency(caller, summary, bump):
        """Replay lock-model events into the caller.

        The caller's lockset at the call site joins every replayed
        access (a helper touching guarded state under the *caller's*
        lock is fine), helper-local lock regions are renumbered into
        fresh caller regions, and each event keeps the *first* call
        expression it was replayed through as its ``site`` — the line
        where the guarded module's API was invoked — so reports and
        pragmas can anchor there.
        """
        lockset = getattr(caller, "_call_lockset", frozenset())
        locks_held = frozenset(l for l, _ in lockset)
        site = getattr(caller, "_call_node", None)
        site_path = caller.module.path if caller.module is not None else ""
        rmap: dict = {}

        def region(r):
            if r not in rmap:
                caller._regions += 1
                rmap[r] = caller._regions
            return rmap[r]

        for a in summary.accesses:
            caller.accesses.append(a.__class__(
                name=a.name, kind=a.kind, lock=a.lock,
                locks=lockset | frozenset((l, region(r))
                                          for l, r in a.locks),
                node=a.node, path=a.path,
                site=a.site if a.site is not None else site,
                site_path=a.site_path if a.site is not None else site_path,
                depth=bump + a.depth))
        for q in summary.acquires:
            caller.acquires.append(q.__class__(
                lock=q.lock, held=q.held | locks_held,
                reentrant=q.reentrant, node=q.node, path=q.path,
                site=q.site if q.site is not None else site,
                depth=bump + q.depth))
        for e in summary.escapes:
            caller.escapes.append(e.__class__(
                source=e.source, target=e.target, node=e.node,
                path=e.path, site=e.site if e.site is not None else site,
                depth=bump + e.depth))

    def _make_interpreter(self, mod, func):
        """Build the sub-interpreter a summary is computed with.

        Subclasses (the concurrency engine) override this to install
        per-module guard/lock configuration; the base engine keeps the
        lock model inert.
        """
        from .interp import FlowInterpreter   # cycle: interp hooks us
        sub = FlowInterpreter(module=mod, func=func,
                              substrate=mod.substrate_names,
                              summaries=self, depth=0)
        sub.in_summary = True
        return sub

    def _compute(self, mod, func, params, canon_args,
                 canon_kwargs) -> Summary:
        self.computed += 1
        sub = self._make_interpreter(mod, func)
        env = {p: V.UNKNOWN for p in params}
        for pname, val in zip(params, canon_args):
            env[pname] = val
        env.update(canon_kwargs)
        self._stack.append(id(func))
        try:
            sub._exec_block(body_statements(func), env)
        finally:
            self._stack.pop()
        ret = functools.reduce(V.merge_values, sub.returns) \
            if sub.returns else V.UNKNOWN
        return Summary(ret=ret, allocs=tuple(sub.allocs),
                       writes=tuple(sub.writes),
                       sinks=tuple(sub.sinks),
                       checkpoints=tuple(sub.checkpoints),
                       accesses=tuple(sub.accesses),
                       acquires=tuple(sub.acquires),
                       escapes=tuple(sub.escapes))
