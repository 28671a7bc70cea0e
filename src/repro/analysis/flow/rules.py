"""The laflow rule catalogue (LA011–LA014, LA018, LA020).

These rules run the symbolic interpreter
(:class:`.interp.DriverFlow`) over every core driver implementation
that has a registered spec and compare the recorded dataflow events
against the spec's promises; since the interprocedural layer landed
every flow runs with a shared :class:`~.summaries.SummaryEngine`, so
helper calls contribute their effects instead of poisoning the
environment, and kernel calls carry spec-derived read/write effect
signatures.  Flows are interpreted once per project and cached — the
six dataflow rules share one pass.

Like every lalint rule these functions never import the analysed code;
the spec registry they consult is plain data.
"""

from __future__ import annotations

import os

from ..findings import Finding
from ..model import Project
from . import values as V
from .interp import DriverFlow
from .summaries import SummaryEngine, kernel_effects

__all__ = ["check_la011", "check_la012", "check_la013", "check_la014",
           "check_la018", "check_la020"]

_ARRAY_KINDS = {"matrix", "rhs", "vector"}
_LEN_CHECKS = {"optlen", "reqlen"}


def _f(code, message, mod, node, context=""):
    return Finding(code=code, message=message, path=mod.path,
                   line=getattr(node, "lineno", 1),
                   col=getattr(node, "col_offset", 0), context=context)


def _is_core(mod):
    p = mod.path.replace(os.sep, "/")
    return "/repro/core/" in p or p.startswith("repro/core/")


def _load_specs():
    try:
        from ...specs.registry import SPECS
    except Exception:
        return None
    return SPECS


def _analysis(project: Project, specs):
    """The project's shared dataflow pass, computed once and cached.

    Returns ``{"flows": [(impl, spec, flow), ...], "engine":
    SummaryEngine, "effects": {kernel: KernelEffect}}``.  All dataflow
    rules consume this cache, so one ``run_rules`` interprets every
    driver exactly once no matter how many rules are selected.
    """
    cache = getattr(project, "_laflow_cache", None)
    if cache is not None:
        return cache
    engine = SummaryEngine(project)
    flows = []
    for impl in project.driver_impls():
        if not _is_core(impl.impl_module):
            continue
        spec = specs.get(impl.driver)
        if spec is None or not impl.posmap:
            continue
        flows.append((impl, spec,
                      DriverFlow(impl, spec, summaries=engine).run()))
    cache = {"flows": flows, "engine": engine,
             "effects": kernel_effects(project, specs)}
    project._laflow_cache = cache
    return cache


def _flows(project: Project, specs):
    """Yield ``(impl, spec, flow)`` for every analysable core driver."""
    return iter(_analysis(project, specs)["flows"])


# ---------------------------------------------------------------------
# LA011 — derived-dimension conformance
# ---------------------------------------------------------------------

def check_la011(project: Project):
    """Dimension variables and workspace allocations must agree with
    the spec's derived-dimension formulas.

    Two checks: a local binding of a spec-declared dimension variable
    (``n = a.shape[0]``) must resolve to the spec's formula for that
    variable, and an array allocated for a length-checked output
    argument (``ipiv``, ``w`` …) and stored into it must have exactly
    the spec-derived length.  Unresolvable values are never reported.
    """
    specs = _load_specs()
    if specs is None:
        return []
    findings = []
    for impl, spec, flow in _flows(project, specs):
        formulas = flow.spec_dims
        for var, dim, node in flow.dim_defs:
            want = formulas.get(var)
            if want is not None and dim != want:
                findings.append(_f(
                    "LA011",
                    f"dimension {var} is bound to {V.render_dim(dim)} "
                    f"but the spec for {impl.driver} derives it as "
                    f"{V.render_dim(want)}",
                    impl.impl_module, node, context=impl.driver))
        # Allocation lengths for length-checked vector outputs.
        required = {}
        for c in spec.checks:
            if c.kind in _LEN_CHECKS and c.dim in formulas and c.args:
                required[c.args[0]] = (formulas[c.dim], c.dim)
        for write in flow.writes:
            if not isinstance(write.value, V.ArrayVal):
                continue
            for name in sorted(write.names & set(required)):
                want, dimname = required[name]
                for idx in sorted(write.value.allocs):
                    site = flow.allocs[idx]
                    if site.shape is None or len(site.shape) != 1:
                        continue
                    got = site.shape[0]
                    if got is not None and got != want:
                        findings.append(_f(
                            "LA011",
                            f"allocation stored into {name} has length "
                            f"{V.render_dim(got)} but the spec for "
                            f"{impl.driver} requires {dimname} = "
                            f"{V.render_dim(want)}",
                            impl.impl_module, site.node,
                            context=impl.driver))
    return findings


# ---------------------------------------------------------------------
# LA012 — output-write completeness
# ---------------------------------------------------------------------

def check_la012(project: Project):
    """Every spec-declared output argument the implementation receives
    must be assigned on some path: either an in-place store whose
    target may alias it, or being handed to a kernel call that fills
    it.  A declared output that no event ever touches is dead — the
    caller's buffer comes back unchanged."""
    specs = _load_specs()
    if specs is None:
        return []
    findings = []
    for impl, spec, flow in _flows(project, specs):
        mapped = {a.name for a in flow.param_args.values()}
        touched = set()
        for write in flow.writes:
            touched |= write.names
        for sink in flow.sinks:
            for val in sink.values:
                if isinstance(val, V.ArrayVal):
                    touched |= val.origins
        for arg in spec.args:
            if arg.intent != "out" or arg.kind not in _ARRAY_KINDS:
                continue
            if arg.name not in mapped or arg.name in touched:
                continue
            findings.append(_f(
                "LA012",
                f"declared output {arg.name} of {impl.driver} is never "
                "written (no in-place store and no kernel call "
                "receives it)",
                impl.impl_module, impl.func, context=impl.driver))
    return findings


# ---------------------------------------------------------------------
# LA013 — dtype-flow consistency
# ---------------------------------------------------------------------

def check_la013(project: Project):
    """No silent promotion/demotion between the generic pair and the
    bound kernel: an array allocated with a hard-coded inexact dtype
    (``np.float64`` …) that flows into a kernel call or into a caller
    output buffer pins the precision regardless of the input dtype.
    Allocations whose dtype follows an argument (``dtype=a.dtype``),
    integer buffers and NumPy's implicit default are all fine."""
    specs = _load_specs()
    if specs is None:
        return []
    findings = []
    for impl, spec, flow in _flows(project, specs):
        used = set()
        for sink in flow.sinks:
            for val in sink.values:
                if isinstance(val, V.ArrayVal):
                    used |= val.allocs
        for write in flow.writes:
            if write.names and isinstance(write.value, V.ArrayVal):
                used |= write.value.allocs
        for idx in sorted(used):
            site = flow.allocs[idx]
            if V.is_fixed_inexact(site.dtype):
                findings.append(_f(
                    "LA013",
                    f"buffer reaching the kernel is allocated with "
                    f"hard-coded dtype {V.render_dtype(site.dtype)} in "
                    f"{impl.driver}; derive it from the inputs "
                    "(e.g. dtype=a.dtype) so the generic pair keeps "
                    "its precision",
                    impl.impl_module, site.node, context=impl.driver))
    return findings


# ---------------------------------------------------------------------
# LA014 — caller-array mutation discipline
# ---------------------------------------------------------------------

def check_la014(project: Project):
    """In-place writes may target only arguments the spec marks in-out
    or out.  A store that can alias a pure-in array argument mutates
    caller data the contract promises to leave alone."""
    specs = _load_specs()
    if specs is None:
        return []
    findings = []
    for impl, spec, flow in _flows(project, specs):
        readonly = {a.name for a in spec.args
                    if a.intent == "in" and a.kind in _ARRAY_KINDS}
        seen = set()
        for write in flow.writes:
            for name in sorted(write.names & readonly):
                key = (name, id(write.node))
                if key in seen:
                    continue
                seen.add(key)
                findings.append(_f(
                    "LA014",
                    f"in-place write may mutate {name}, which the spec "
                    f"for {impl.driver} declares intent(in)",
                    impl.impl_module, write.node, context=impl.driver))
    return findings


# ---------------------------------------------------------------------
# LA018 — kernel operand aliasing
# ---------------------------------------------------------------------

def _effect_sinks(project, specs, flow):
    """Yield ``(sink, kernel, effect, slots)`` for driver-body kernel
    calls whose effect signature is known."""
    effects = _analysis(project, specs)["effects"]
    for sink in flow.sinks:
        if sink.depth != 0:
            continue
        for kernel in sorted(sink.callees):
            eff = effects.get(kernel)
            if eff is not None:
                yield sink, kernel, eff, eff.slots(sink.args,
                                                   sink.kwargs)


def check_la018(project: Project):
    """Kernel operand aliasing: two distinct operand slots of one
    kernel call must not receive arrays that may share memory when at
    least one of them is written in place.  Provenance is tracked
    through views and slices, so ``trs(lu, piv, a[:, :1])`` with ``lu``
    a view of ``a`` is flagged; independent allocations and copies are
    fine."""
    specs = _load_specs()
    if specs is None:
        return []
    findings = []
    for impl, spec, flow in _flows(project, specs):
        for sink, kernel, eff, slots in _effect_sinks(project, specs,
                                                      flow):
            names = sorted(n for n in slots if n in eff.arrays)
            for i, n1 in enumerate(names):
                for n2 in names[i + 1:]:
                    if not eff.written & {n1, n2}:
                        continue
                    if not V.may_overlap(slots[n1], slots[n2]):
                        continue
                    shared = slots[n1].origins & slots[n2].origins
                    via = (f"both may alias "
                           f"{'/'.join(sorted(shared))}" if shared
                           else "both may carry the same workspace "
                                "allocation")
                    wrote = " and ".join(sorted(
                        eff.written & {n1, n2}))
                    findings.append(_f(
                        "LA018",
                        f"operands {n1} and {n2} of kernel {kernel} "
                        f"may overlap ({via}) while {wrote} is "
                        "written in place — pass independent arrays "
                        "or copy first",
                        impl.impl_module, sink.node,
                        context=impl.driver))
    return findings


# ---------------------------------------------------------------------
# LA020 — deadline checkpoints between driver stages
# ---------------------------------------------------------------------

#: Stage classification by substrate naming convention.
_STAGE_SUFFIXES = (("trf", "factor"), ("trs", "solve"),
                   ("rfs", "refine"))


def _stage_of(sink) -> str | None:
    names = set(sink.callees) | {sink.callee}
    for suffix, stage in _STAGE_SUFFIXES:
        if any(isinstance(n, str) and n.endswith(suffix)
               for n in names):
            return stage
    return None


def check_la020(project: Project):
    """Deadline-checkpoint coverage: a multi-stage expert driver
    (factor / solve / refine) must call ``deadlines.check`` between
    consecutive stages, so an armed ``repro.deadline()`` budget is
    observed before committing to the next expensive phase rather than
    only at entry.  Checkpoints contributed by helper summaries do not
    count — the transition needs its own driver-body checkpoint."""
    specs = _load_specs()
    if specs is None:
        return []
    findings = []
    for impl, spec, flow in _flows(project, specs):
        staged = sorted(
            ((sink.node.lineno, stage, sink)
             for sink in flow.sinks
             if sink.depth == 0 and (stage := _stage_of(sink))),
            key=lambda t: t[0])
        if len({stage for _, stage, _ in staged}) < 2:
            continue
        marks = sorted(c.node.lineno for c in flow.checkpoints
                       if c.depth == 0)
        for (l1, s1, k1), (l2, s2, k2) in zip(staged, staged[1:]):
            if s1 == s2:
                continue
            if any(l1 < mark < l2 for mark in marks):
                continue
            findings.append(_f(
                "LA020",
                f"stage transition {s1} -> {s2} in {impl.driver} has "
                f"no deadlines.check between {k1.callee} (line {l1}) "
                f"and {k2.callee} — an armed deadline budget is not "
                "observed before the next stage",
                impl.impl_module, k2.node, context=impl.driver))
    return findings
