"""The laflow rule catalogue (LA011–LA014, LA017, LA018, LA020).

These rules run the symbolic interpreter
(:class:`.interp.DriverFlow`) over every core driver implementation
that has a registered spec and compare the recorded dataflow events
against the spec's promises; since the interprocedural layer landed
every flow runs with a shared :class:`~.summaries.SummaryEngine`, so
helper calls contribute their effects instead of poisoning the
environment, and kernel calls carry spec-derived read/write effect
signatures.  Flows are interpreted once per project and cached — the
seven dataflow rules share one pass.

LA017 reads the argument set each validation ladder receives from the
driver shell's binding: a function decorated ``@driver_shell("la_x")``
hands every one of its parameters (defaults applied) to ``la_x``'s
ladder.  It also covers *borrowed* ladders in the dispatch front door —
a :mod:`repro.dispatch_front` function running inside another driver's
shell (the cached-Cholesky ``potrs`` shortcut runs in ``la_posv``'s) or
calling ``validate_args("la_posv", ...)`` by name is held to the same
error-exit reachability contract as the driver itself.
:func:`front_door_sites` is the discovery summary.

Like every lalint rule these functions never import the analysed code;
the spec registry they consult is plain data.
"""

from __future__ import annotations

import ast
import os

from ..findings import Finding
from ..model import Project, call_name, param_positions, shell_key
from . import values as V
from .interp import DriverFlow, spec_dim_formulas
from .summaries import SummaryEngine, kernel_effects

__all__ = ["check_la011", "check_la012", "check_la013", "check_la014",
           "check_la017", "check_la018", "check_la020",
           "front_door_sites"]

_ARRAY_KINDS = {"matrix", "rhs", "vector"}
_LEN_CHECKS = {"optlen", "reqlen"}


def _f(code, message, mod, node, context=""):
    return Finding(code=code, message=message, path=mod.path,
                   line=getattr(node, "lineno", 1),
                   col=getattr(node, "col_offset", 0), context=context)


def _is_core(mod):
    p = mod.path.replace(os.sep, "/")
    return "/repro/core/" in p or p.startswith("repro/core/")


def _is_front_door(mod):
    p = mod.path.replace(os.sep, "/")
    return "/repro/dispatch_front/" in p \
        or p.startswith("repro/dispatch_front/")


def shell_sites(project: Project, specs):
    """Yield ``(mod, func, driver, spec, node, passed)`` for every
    function running inside the shell of a registered driver spec.

    The shell binds every parameter of the function it wraps (defaults
    applied) and hands the lot to the spec's ladder, so ``passed`` is
    the function's parameter-name set; ``node`` is the decorator."""
    for mod in project.modules:
        for _, func in sorted(mod.functions.items()):
            key = shell_key(func)
            if key is not None and key[0] in specs:
                yield (mod, func, key[0], specs[key[0]], key[1],
                       set(param_positions(func)))


def front_door_sites(project: Project, specs):
    """Yield ``(mod, func, driver, spec, calls)`` for dispatch-front
    functions that borrow a registered driver's validation ladder.

    The front door re-runs the chosen driver's ladder before executing
    a structure-specialised path (the cached-Cholesky ``potrs`` shortcut
    runs inside ``la_posv``'s shell), so a borrowed site carries the
    same obligation as the driver's own: every declared error exit must
    stay emittable from the argument set actually forwarded.  ``calls``
    is ``[(node, passed-name-set), ...]``: the shell's binding for a
    function running in a driver's shell, else one entry per
    ``validate_args("<driver>", ...)`` site in the function; functions
    with a statically unmappable site (non-constant driver name, extra
    positionals, keyword splat) are skipped entirely — laflow never
    guesses.
    """
    for mod, func, driver, spec, node, passed in shell_sites(project,
                                                              specs):
        if _is_front_door(mod):
            yield mod, func, driver, spec, [(node, passed)]
    for mod in project.modules:
        if not _is_front_door(mod):
            continue
        for _, func in sorted(mod.functions.items()):
            sites: dict = {}
            mappable = True
            for node in ast.walk(func):
                if call_name(node) != "validate_args":
                    continue
                first = node.args[0] if node.args else None
                if len(node.args) != 1 \
                        or not isinstance(first, ast.Constant) \
                        or not isinstance(first.value, str) \
                        or any(kw.arg is None for kw in node.keywords):
                    mappable = False
                    break
                sites.setdefault(first.value, []).append(
                    (node, {kw.arg for kw in node.keywords}))
            if not mappable:
                continue
            for driver in sorted(sites):
                spec = specs.get(driver)
                if spec is not None:
                    yield mod, func, driver, spec, sites[driver]


def _load_specs():
    try:
        from ...specs.registry import SPECS
    except Exception:
        return None
    return SPECS


def _analysis(project: Project, specs):
    """The project's shared dataflow pass, computed once and cached.

    Returns ``{"flows": [(impl, spec, flow), ...], "engine":
    SummaryEngine, "effects": {kernel: KernelEffect}, "front_door":
    [(mod, func, driver, spec, calls), ...]}``.  All dataflow rules
    consume this cache, so one ``run_rules`` interprets every driver
    exactly once no matter how many rules are selected.
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
             "effects": kernel_effects(project, specs),
             "front_door": list(front_door_sites(project, specs))}
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
# LA017 — error-exit reachability
# ---------------------------------------------------------------------

#: Custom engine predicates: argument names whose absence makes the
#: predicate raise (and therefore fire) on every call.
_CUSTOM_REQUIRED = {"gels_b": ("a", "b"), "ls_b": ("a", "b"),
                    "gglse_b": ("a", "b"), "glm_b": ("a", "b")}

#: Custom predicates short-circuited off by a missing argument.
_CUSTOM_NEVER_WITHOUT = {"getrf_rcond": "rcond"}


def _dim_avail(dim, spec, passed) -> bool:
    """Can this derived dimension resolve (not the -1 sentinel) given
    the argument names actually handed to ``validate_args``?"""
    table = {entry[0]: entry for entry in spec.dims}

    def avail(name):
        entry = table.get(name)
        if entry is None:
            return False
        _, source, *refs = entry
        if source == "min":
            return all(avail(r) for r in refs)
        return refs[0] in passed
    return avail(dim)


def _classify_check(check, spec, passed) -> str:
    """How one spec check behaves when ``validate_args`` receives only
    *passed*: ``"ok"`` (outcome depends on runtime values), ``"never"``
    (cannot fire — its error exit is unreachable), or ``"always"``
    (fires unconditionally — it shadows every later exit).

    This mirrors :mod:`repro.specs.engine` exactly: a missing argument
    enters the ladder as ``None``, a derived dimension whose source is
    missing resolves to ``-1``, and a predicate that raises counts as
    violated.
    """
    k = check.kind
    arg = check.args[0] if check.args else None
    dim_ok = check.dim is None or _dim_avail(check.dim, spec, passed)
    ref = check.params.get("ref")

    if k in ("square", "matrix2d", "intenum", "offdiag"):
        return "ok" if arg in passed else "always"
    if k in ("square_conform", "rhs"):
        return "ok" if arg in passed and dim_ok else "always"
    if k == "rhs_same":
        return "ok" if arg in passed and ref in passed and dim_ok \
            else "always"
    if k in ("nonneg", "band"):
        return "ok" if dim_ok else "always"
    if k == "offdiag_pair":
        return "ok" if all(a in passed for a in check.args) \
            else "always"
    if k == "optlen":
        # None short-circuits the optional check off entirely.
        return "ok" if arg in passed else "never"
    if k == "reqlen":
        if arg in passed and dim_ok:
            return "ok"
        if arg not in passed and not dim_ok:
            return "never"      # -1 == -1: the lengths "agree"
        return "always"
    if k == "minlen":
        if arg in passed:
            if dim_ok:
                return "ok"
            want = max(0, -1 + check.params.get("offset", 0))
            return "ok" if want > 0 else "never"
        return "never" if check.params.get("optional") else "always"
    if k == "packed":
        if arg not in passed:
            return "always"
        if check.dim is None or dim_ok:
            return "ok"
        return "never"          # n = -1 disarms the length test
    if k == "flag":
        if arg in passed:
            return "ok"
        if check.params.get("mode") == "first" \
                and "N" in check.params.get("options", ()):
            return "ok"         # str(None).upper()[0] == "N" passes
        return "always"
    if k == "fact_requires":
        # lsame(None, 'F') is False: the guard never opens.
        return "ok" if arg in passed else "never"
    if k in ("range_pair", "index_pair"):
        return "ok" if all(a in passed for a in check.args) else "never"
    if k in ("same_shape", "cols_conform", "square_same"):
        return "ok" if arg in passed and ref in passed else "always"
    if k == "custom":
        name = check.params.get("name")
        gate = _CUSTOM_NEVER_WITHOUT.get(name)
        if gate is not None:
            return "ok" if gate in passed else "never"
        required = _CUSTOM_REQUIRED.get(name, ())
        return "ok" if all(r in passed for r in required) else "always"
    return "ok"


def _check_inputs(check, spec) -> list:
    """Argument names this check consults (args, ref, dim sources)."""
    names = list(check.args)
    ref = check.params.get("ref")
    if ref is not None:
        names.append(ref)
    table = {entry[0]: entry for entry in spec.dims}

    def dim_sources(name):
        entry = table.get(name)
        if entry is None:
            return
        _, source, *refs = entry
        for r in refs:
            if source == "min":
                yield from dim_sources(r)
            else:
                yield r
    if check.dim is not None:
        names.extend(dim_sources(check.dim))
    seen, out = set(), []
    for n in names:
        if n not in seen:
            seen.add(n)
            out.append(n)
    return out


def _shadowed_checks(spec) -> list:
    """Later checks structurally identical to an earlier one: the
    ladder is first-violation-wins, so the duplicate can never fire."""
    seen: dict = {}
    out = []
    for check in spec.checks:
        key = (check.kind, check.args, check.dim,
               tuple(sorted((k, repr(v))
                            for k, v in check.params.items())))
        if key in seen:
            out.append((check, seen[key]))
        else:
            seen[key] = check
    return out


def check_la017(project: Project):
    """Error-exit reachability: every negative ``LINFO`` code the spec
    declares must be emittable through each shell keyed to it, and no
    check may fire unconditionally (shadowing all later exits) or
    duplicate an earlier check (first violation wins).

    The classification replays :mod:`repro.specs.engine` semantics for
    the statically-known argument set — the parameters the shell binds:
    an argument the wrapped function does not take enters every call as
    ``None``, so e.g. an ``optlen`` check on it is disarmed forever —
    that error exit is dead code in the documented contract.

    The same classification runs over the dispatch front door's
    *borrowed* ladders (:func:`front_door_sites`): a
    ``repro.dispatch_front`` function running a driver's ladder must
    keep that spec's exits exactly as reachable as the driver itself
    does, or ``repro.solve`` silently changes the documented error
    contract on that route."""
    specs = _load_specs()
    if specs is None:
        return []
    findings = []
    for mod, func, driver, spec, node, passed in shell_sites(project,
                                                              specs):
        if _is_front_door(mod):
            continue            # reported as a borrowed ladder below
        for check, first in _shadowed_checks(spec):
            findings.append(_f(
                "LA017",
                f"check for exit {check.code} of {driver} "
                f"duplicates the exit {first.code} check and can never "
                "fire (the ladder is first-violation-wins)",
                mod, node, context=driver))
        for check in spec.checks:
            verdict = _classify_check(check, spec, passed)
            missing = [n for n in _check_inputs(check, spec)
                       if n not in passed]
            if verdict == "never":
                findings.append(_f(
                    "LA017",
                    f"error exit {check.code} of {driver} is "
                    f"unreachable: {func.name} never receives "
                    f"{', '.join(missing)} so its {check.kind} check "
                    "cannot fire",
                    mod, node, context=driver))
            elif verdict == "always":
                findings.append(_f(
                    "LA017",
                    f"the {check.kind} check for exit {check.code} of "
                    f"{driver} always fires: {func.name} takes no "
                    f"{', '.join(missing)}, so every call returns "
                    f"{check.code} and shadows all later exits",
                    mod, node, context=driver))
                break           # everything after is dead anyway
    for mod, func, driver, spec, calls in \
            _analysis(project, specs)["front_door"]:
        for check in spec.checks:
            verdicts = {_classify_check(check, spec, passed)
                        for _, passed in calls}
            node = calls[0][0]
            missing = [n for n in _check_inputs(check, spec)
                       if all(n not in p for _, p in calls)]
            if verdicts == {"never"}:
                findings.append(_f(
                    "LA017",
                    f"front-door {func.name} borrows the {driver} "
                    f"ladder but validate_args never receives "
                    f"{', '.join(missing)}, so error exit {check.code} "
                    f"({check.kind}) is unreachable on this dispatch "
                    "route",
                    mod, node, context=driver))
            elif verdicts == {"always"}:
                findings.append(_f(
                    "LA017",
                    f"the {check.kind} check for exit {check.code} of "
                    f"the {driver} ladder always fires in front-door "
                    f"{func.name}: validate_args omits "
                    f"{', '.join(missing)}, so every call through this "
                    f"route returns {check.code} and shadows all later "
                    "exits",
                    mod, node, context=driver))
                break           # everything after is dead anyway
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
