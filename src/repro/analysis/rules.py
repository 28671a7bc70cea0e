"""The lalint rule catalogue (LA001–LA026; LA004, LA015, LA016 and LA019
are retired).

Every rule is a function ``check(project) -> list[Finding]`` registered
in :data:`RULES`.  Rules only inspect the AST model — the analysed code
is never imported.  The two spec rules (LA009/LA010) additionally load
the declarative driver-spec registry (:mod:`repro.specs.registry`) —
plain data, not the code under analysis — and degrade to no findings
when it cannot be imported.
"""

from __future__ import annotations

import ast
import os

from .findings import Finding
from .model import (NON_DRIVER_LA, Project, alias_map, call_name,
                    int_literal, names_in, neg_literal, param_defaults,
                    param_positions, shell_key)

__all__ = ["RULES", "run_rules", "rule_titles"]

#: Error classes a driver must never raise directly — ERINFO owns
#: termination (paper Appendix C).
LAPACK_ERRORS = {
    "LinAlgError", "IllegalArgument", "ComputationalError",
    "SingularMatrix", "NotPositiveDefinite", "NoConvergence",
    "WorkspaceError", "NonFiniteInput",
}

#: Reporter callables and the index of their LINFO argument.
REPORTERS = {"erinfo": 0, "xerbla": 1}

#: Real <-> complex driver-family digraphs (``la_sysv`` pairs with
#: ``la_hesv`` and so on).
_REAL_COMPLEX = {"sy": "he", "sp": "hp", "sb": "hb", "or": "un"}
PAIRS = dict(_REAL_COMPLEX)
PAIRS.update({v: k for k, v in _REAL_COMPLEX.items()})

#: Named code-class constants (``repro.errors``) whose raw values must
#: not be spelled as literals inside driver modules.
CODE_CLASS_FLOOR = -100


def _f(code, message, mod, node, context=""):
    return Finding(code=code, message=message, path=mod.path,
                   line=getattr(node, "lineno", 1),
                   col=getattr(node, "col_offset", 0), context=context)


# ---------------------------------------------------------------------
# Validation-branch collection (shared by LA002 and LA009)
# ---------------------------------------------------------------------

def _reporter_code_args(call):
    """Literal LINFO codes passed to a reporter call.

    Returns a list of ``(code, test_or_None)`` — an ``IfExp`` code
    argument (``erinfo(-1 if check_square(a, 1) else -2, ...)``)
    contributes its then-branch keyed to the IfExp's own test; the
    else-branch code carries no usable test.
    """
    name = call_name(call)
    if name not in REPORTERS:
        return []
    out = []
    for arg in call.args[:2]:
        if isinstance(arg, ast.IfExp):
            for sub, test in ((arg.body, arg.test), (arg.orelse, None)):
                code = neg_literal(sub)
                if code is not None:
                    out.append((code, test))
            return out
        code = neg_literal(arg)
        if code is not None:
            return [(code, None)]
    return out


def _validation_branches(func):
    """Yield ``(code, test, node)`` for every validation exit.

    A validation exit is a ``linfo = -k`` assignment or a reporter call
    with a literal negative code, in the direct body of an ``if``.
    """
    for node in ast.walk(func):
        if not isinstance(node, ast.If):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and stmt.targets[0].id == "linfo":
                code = neg_literal(stmt.value)
                if code is not None:
                    yield code, node.test, stmt
                continue
            value = stmt.value if isinstance(stmt, (ast.Expr, ast.Return)) \
                else None
            if isinstance(value, ast.Call):
                for code, test in _reporter_code_args(value):
                    yield code, test if test is not None else node.test, \
                        stmt


def _declared_checks(test):
    """``check_square(a, 1)`` / ``check_rhs(n, b, 2)`` calls in a test:
    yields ``(array_name, declared_position, node)``."""
    for node in ast.walk(test):
        name = call_name(node)
        if name == "check_square" and len(node.args) >= 2:
            arr, pos = node.args[0], node.args[1]
        elif name == "check_rhs" and len(node.args) >= 3:
            arr, pos = node.args[1], node.args[2]
        else:
            continue
        p = int_literal(pos)
        if isinstance(arr, ast.Name) and p is not None:
            yield arr.id, p, node


def _implicated_positions(test, aliases, posmap):
    out = set()
    for name in names_in(test):
        for src in aliases.get(name, {name}):
            if src in posmap:
                out.add(posmap[src])
    return out


# ---------------------------------------------------------------------
# LA001 — every public driver goes through the driver shell
# ---------------------------------------------------------------------

def check_la001(project: Project):
    """Every public driver runs inside the driver shell keyed by its own
    spec name (``@driver_shell("la_xxx")``), which validates, gates and
    reports through ``erinfo`` on every exit — so no exit path can skip
    ERINFO and nothing runs before validation.  The driver body (or the
    helper it delegates to) must not swallow errors with a bare
    ``except`` nor raise a LAPACK error class directly."""
    findings = []
    for mod in project.modules:
        for name, func in sorted(mod.drivers().items()):
            key = shell_key(func)
            if key is None:
                findings.append(_f(
                    "LA001", f"driver {name} does not go through the "
                    f"driver shell (@driver_shell({name!r}))", mod, func,
                    context=name))
            elif key[0] != name:
                findings.append(_f(
                    "LA001", f"driver {name} runs in the shell of "
                    f"{key[0]}, not its own spec", mod, key[1],
                    context=name))
    for impl in project.driver_impls():
        mod, func = impl.impl_module, impl.func
        for node in ast.walk(func):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                findings.append(_f(
                    "LA001", "bare except swallows LAPACK errors "
                    f"(driver {impl.driver})", mod, node,
                    context=impl.driver))
            if isinstance(node, ast.Raise) and node.exc is not None \
                    and call_name(node.exc) in LAPACK_ERRORS:
                findings.append(_f(
                    "LA001",
                    f"direct raise of {call_name(node.exc)} bypasses "
                    f"erinfo (driver {impl.driver})", mod, node,
                    context=impl.driver))
    return findings


# ---------------------------------------------------------------------
# LA002 — LINFO codes match 1-based argument positions
# ---------------------------------------------------------------------

def check_la002(project: Project):
    findings = []
    for impl in project.driver_impls():
        posmap = impl.posmap
        aliases = alias_map(impl.func, set(posmap))
        for code, test, node in _validation_branches(impl.func):
            if test is None:
                continue
            declared = list(_declared_checks(test))
            for arr, p, cnode in declared:
                arr_pos = {posmap[s] for s in aliases.get(arr, {arr})
                           if s in posmap}
                if arr_pos and p not in arr_pos:
                    findings.append(_f(
                        "LA002",
                        f"check helper declares argument position {p} "
                        f"but {arr} is argument "
                        f"{sorted(arr_pos)[0]} of {impl.driver}",
                        impl.impl_module, cnode, context=impl.driver))
            implicated = _implicated_positions(test, aliases, posmap)
            candidates = implicated | {p for _, p, _ in declared}
            if candidates and -code not in candidates:
                pretty = ", ".join(str(p) for p in sorted(candidates))
                findings.append(_f(
                    "LA002",
                    f"LINFO code {code} does not match the flagged "
                    f"argument (test involves position(s) {pretty} "
                    f"of {impl.driver})",
                    impl.impl_module, node, context=impl.driver))
    findings.extend(_check_error_exit_table(project))
    return findings


def _check_error_exit_table(project: Project):
    """Cross-check the shared (driver, argument, code) table from
    ``repro.testing.error_exits`` against the live signatures."""
    findings = []
    drivers = {}
    for mod in project.modules:
        for name, func in mod.drivers().items():
            drivers.setdefault(name, func)
    for mod in project.modules:
        for node in mod.tree.body:
            if not (isinstance(node, ast.Assign) and node.targets
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == "ERROR_EXIT_CODES"
                    and isinstance(node.value, ast.Dict)):
                continue
            for key, val in zip(node.value.keys, node.value.values):
                if not (isinstance(key, ast.Constant)
                        and isinstance(val, ast.Dict)):
                    continue
                func = drivers.get(key.value)
                if func is None:
                    continue
                positions = param_positions(func)
                for akey, aval in zip(val.keys, val.values):
                    if not isinstance(akey, ast.Constant):
                        continue
                    code = int_literal(aval)
                    argname = akey.value
                    if code is None:
                        continue
                    want = positions.get(argname)
                    if want is None:
                        findings.append(_f(
                            "LA002",
                            f"error-exit table names unknown argument "
                            f"{argname!r} of {key.value}", mod, aval,
                            context=key.value))
                    elif -code != want:
                        findings.append(_f(
                            "LA002",
                            f"error-exit table expects code {code} for "
                            f"{key.value}({argname}) but {argname} is "
                            f"argument {want}", mod, aval,
                            context=key.value))
    return findings


# ---------------------------------------------------------------------
# LA003 — drivers accept info=None (the shell threads it to erinfo)
# ---------------------------------------------------------------------

def check_la003(project: Project):
    findings = []
    for mod in project.modules:
        for name, func in sorted(mod.drivers().items()):
            defaults = param_defaults(func)
            if "info" not in param_positions(func):
                findings.append(_f(
                    "LA003", f"driver {name} does not accept an info "
                    "argument", mod, func, context=name))
                continue
            dflt = defaults.get("info")
            if not (isinstance(dflt, ast.Constant)
                    and dflt.value is None):
                findings.append(_f(
                    "LA003", f"driver {name} must default info to None",
                    mod, func, context=name))
    return findings


# ---------------------------------------------------------------------
# LA005 — __all__ agrees with the public drivers
# ---------------------------------------------------------------------

def check_la005(project: Project):
    findings = []
    for mod in project.modules:
        if mod.all_dynamic or mod.all_literal is None:
            continue
        defined = set(mod.imports)
        for node in mod.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        defined.add(t.id)
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                defined.add(node.target.id)
        exported = set(mod.all_literal)
        for name, func in sorted(mod.drivers().items()):
            if name not in exported:
                findings.append(_f(
                    "LA005", f"public driver {name} missing from "
                    "__all__", mod, func, context=name))
        for name in sorted(exported - defined):
            findings.append(_f(
                "LA005", f"__all__ exports undefined name {name}",
                mod, mod.all_node, context=name))
    return findings


# ---------------------------------------------------------------------
# LA006 — dtype-dispatch completeness against the lapack77 substrate
# ---------------------------------------------------------------------

def check_la006(project: Project):
    findings = []
    submods, flat = {}, set()
    for mod in project.modules:
        if not mod.is_substrate:
            continue
        base = mod.path.replace("\\", "/").rsplit("/", 1)[-1][:-3]
        names = set(mod.functions) | set(mod.imports)
        submods.setdefault(base, set()).update(names)
        flat |= names
    if flat:
        for mod in project.modules:
            if mod.is_substrate:
                continue
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.ImportFrom):
                    continue
                src = node.module or ""
                parts = src.split(".")
                # A registry-dispatched import (repro.backends.kernels)
                # is "the lapack77 call": its proxies must name real
                # substrate routines too.
                dispatched = "backends" in parts and \
                    parts[-1] == "kernels"
                if "lapack77" not in parts and not dispatched:
                    continue
                last = parts[-1]
                pool = flat if (dispatched or last == "lapack77") \
                    else submods.get(last, flat)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    if alias.name not in pool and alias.name not in flat:
                        findings.append(_f(
                            "LA006",
                            f"substrate routine {alias.name} not found "
                            f"in the scanned lapack77 package", mod,
                            node))
    # Real/complex pairing: the s/d (real) family driver and its c/z
    # (complex) partner must both exist for the dispatch to cover all
    # four type combinations.
    all_drivers = set()
    for mod in project.modules:
        all_drivers |= set(mod.drivers())
    for mod in project.modules:
        for name, func in sorted(mod.drivers().items()):
            digraph = name[3:5]
            if digraph not in PAIRS or len(name) <= 5:
                continue
            partner = "la_" + PAIRS[digraph] + name[5:]
            if partner not in all_drivers:
                findings.append(_f(
                    "LA006",
                    f"{name} has no {partner} partner — s/d/c/z "
                    "dispatch is incomplete", mod, func, context=name))
    return findings


# ---------------------------------------------------------------------
# LA007 — code-class discipline (no raw code-class literals)
# ---------------------------------------------------------------------

def check_la007(project: Project):
    findings = []
    for mod in project.modules:
        if not mod.drivers():
            continue
        for node in ast.walk(mod.tree):
            code = neg_literal(node)
            if code is None or code > CODE_CLASS_FLOOR:
                continue
            if code <= -1000:
                what = ("the <= -1000 class is reserved for "
                        "NonFiniteInput (use NONFINITE)")
            elif code <= -200:
                what = ("the -200..-999 warning band must go through "
                        "warn-style reporting (use WORK_REDUCED)")
            else:
                what = "use ALLOC_FAILED instead of a raw literal"
            findings.append(_f(
                "LA007",
                f"hard-coded code-class literal {code}: {what}",
                mod, node))
    return findings


# ---------------------------------------------------------------------
# LA008 — driver modules must dispatch, not import the substrate
# ---------------------------------------------------------------------

def check_la008(project: Project):
    """Driver modules may not import :mod:`repro.lapack77` directly —
    kernel access goes through the backend registry's dispatching
    proxies (``repro.backends.kernels``) so the substrate stays
    swappable.  Modules without drivers (storage helpers, the registry
    itself) are exempt."""
    findings = []
    for mod in project.modules:
        if mod.is_substrate or not mod.drivers():
            continue
        for node in ast.walk(mod.tree):
            hit = False
            if isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".")
                hit = "lapack77" in parts or any(
                    alias.name == "lapack77" or
                    alias.name.startswith("lapack77.")
                    for alias in node.names)
            elif isinstance(node, ast.Import):
                hit = any("lapack77" in alias.name.split(".")
                          for alias in node.names)
            if hit:
                findings.append(_f(
                    "LA008",
                    "driver module imports the lapack77 substrate "
                    "directly; dispatch through "
                    "repro.backends.kernels instead", mod, node))
    return findings


# ---------------------------------------------------------------------
# LA009 / LA010 — the declarative driver-spec registry agrees with the
# live driver layer.  Both rules only look at modules under the core
# driver package (``repro/core/``); fixture trees elsewhere are exempt.
# ---------------------------------------------------------------------

def _is_core(mod):
    p = mod.path.replace(os.sep, "/")
    return "/repro/core/" in p or p.startswith("repro/core/")


def _load_specs():
    try:
        from ..specs.registry import SPECS
    except Exception:
        return None
    return SPECS


def check_la009(project: Project):
    """Spec/signature agreement: every argument a spec declares exists
    in the live driver at the declared 1-based position, every check's
    LINFO code points at a declared position, and no core driver keeps a
    hand-rolled literal validation ladder next to the spec engine."""
    specs = _load_specs()
    if specs is None:
        return []
    findings = []
    for mod in project.modules:
        if not _is_core(mod):
            continue
        for name, func in sorted(mod.drivers().items()):
            spec = specs.get(name)
            if spec is None:      # LA010's finding, not ours
                continue
            positions = param_positions(func)
            declared = set()
            for a in spec.args:
                declared.add(a.position)
                live = positions.get(a.name)
                if live is None:
                    findings.append(_f(
                        "LA009",
                        f"spec for {name} declares argument {a.name!r} "
                        "which the driver does not accept", mod, func,
                        context=name))
                elif live != a.position:
                    findings.append(_f(
                        "LA009",
                        f"spec for {name} places {a.name} at position "
                        f"{a.position} but it is argument {live}",
                        mod, func, context=name))
            for c in spec.checks:
                if -c.code not in declared:
                    findings.append(_f(
                        "LA009",
                        f"spec check for {name} emits code {c.code} but "
                        f"no argument is declared at position {-c.code}",
                        mod, func, context=name))
    for impl in project.driver_impls():
        if not _is_core(impl.impl_module) \
                or specs.get(impl.driver) is None:
            continue
        for code, test, node in _validation_branches(impl.func):
            findings.append(_f(
                "LA009",
                f"hand-rolled validation ladder (literal code {code}) in "
                f"{impl.driver}; emit the code through the spec engine "
                "(validate_args)", impl.impl_module, node,
                context=impl.driver))
    return findings


def check_la010(project: Project):
    """Spec coverage both ways: every core driver has a registered spec,
    and (when the core package itself is in the scanned tree) every
    registered spec names a driver the core package exports."""
    specs = _load_specs()
    if specs is None:
        return []
    findings = []
    core_init = None
    for mod in project.modules:
        if not _is_core(mod):
            continue
        if mod.path.replace(os.sep, "/").endswith("/core/__init__.py"):
            core_init = mod
        for name, func in sorted(mod.drivers().items()):
            if name not in specs:
                findings.append(_f(
                    "LA010",
                    f"core driver {name} has no registered driver spec",
                    mod, func, context=name))
    if core_init is not None:
        exported = {n for n in core_init.imports
                    if n.startswith("la_")} - NON_DRIVER_LA
        for name in sorted(set(specs) - exported):
            findings.append(_f(
                "LA010",
                f"spec {name} names no driver exported by the core "
                "package", core_init, core_init.tree, context=name))
    return findings


# ---------------------------------------------------------------------
# LA021 — batch wrappers come from the generator, not by hand
# ---------------------------------------------------------------------

#: Calls into the spec engine whose per-problem repetition defeats the
#: amortized batch mode.
VALIDATORS = {"validate", "validate_args", "validate_batch"}


def _is_batch_home(mod):
    """The modules allowed to iterate a stack around the spec engine:
    the batch package (generator, reporting) and its dispatch-seam
    companion that installs the ``*_stack`` kernels."""
    p = mod.path.replace(os.sep, "/")
    return ("/repro/batch/" in p or p.startswith("repro/batch/")
            or p.endswith("/backends/batched.py")
            or p == "repro/backends/batched.py")


def check_la021(project: Project):
    """No hand-rolled batch ladders outside the generator.  Batched
    wrappers are *derived* from the DriverSpec registry
    (:func:`repro.batch.make_batched`): validation ladders run once on
    the stack (``validate_batch``), not per problem.  Two shapes are
    flagged anywhere outside the batch package: a spec-engine validator
    called inside a ``for``/``while`` body (per-problem re-validation),
    and a module-level ``batch_*`` function definition (a hand-written
    wrapper shadowing the generated family)."""
    findings = []
    for mod in project.modules:
        if mod.is_substrate or _is_batch_home(mod):
            continue
        flagged = {}
        for loop in ast.walk(mod.tree):
            if not isinstance(loop, (ast.For, ast.While,
                                     ast.AsyncFor)):
                continue
            for stmt in loop.body + loop.orelse:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call) \
                            and call_name(node) in VALIDATORS:
                        flagged.setdefault(id(node), node)
        for node in flagged.values():
            findings.append(_f(
                "LA021",
                f"per-problem {call_name(node)} call inside a loop is a "
                "hand-rolled batch validation ladder; validate the "
                "whole stack once through validate_batch "
                "(repro.batch.make_batched)", mod, node))
        for node in mod.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.startswith("batch_"):
                findings.append(_f(
                    "LA021",
                    f"hand-written batch wrapper {node.name}; batched "
                    "drivers are derived from the spec registry "
                    "(repro.batch.make_batched), not written by hand",
                    mod, node, context=node.name))
    return findings


# ---------------------------------------------------------------------
# LA022 — routing is derived from DriverSpec metadata, not hand-rolled
# ---------------------------------------------------------------------

#: The structure vocabulary the routing lattice is defined over.  Kept
#: as a literal here — rules never import the code under analysis; the
#: routing tests pin this set against ``repro.specs.routing.STRUCTURES``.
STRUCTURE_LABELS = frozenset({
    "diagonal", "triangular", "tridiagonal", "spd", "hpd", "banded",
    "symmetric", "hermitian", "general",
})


def _is_routing_home(mod):
    """The one module allowed to relate structure labels to drivers:
    the derivation home, where the table is *computed* from the
    registry's ``problem_kind``/``structure`` metadata."""
    p = mod.path.replace(os.sep, "/")
    return (p.endswith("/specs/routing.py")
            or p == "repro/specs/routing.py")


def _driver_ref(node):
    """True when *node* names a driver — ``la_*``/``batch_*`` as a
    Name, an Attribute, or a string constant."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    else:
        return False
    return name.startswith("la_") or name.startswith("batch_")


def _label_constants(node):
    """Structure-label string constants compared against in *node*
    (bare constants plus tuple/list element constants)."""
    out = []
    nodes = [node]
    if isinstance(node, (ast.Tuple, ast.List)):
        nodes = list(node.elts)
    for n in nodes:
        if isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value in STRUCTURE_LABELS:
            out.append(n.value)
    return out


def _chain_of(node):
    """The if/elif chain rooted at *node*:
    ``([(test, body), ...], [chain If nodes])``."""
    chain, members = [], []
    while isinstance(node, ast.If):
        chain.append((node.test, node.body))
        members.append(node)
        node = node.orelse[0] \
            if len(node.orelse) == 1 and isinstance(node.orelse[0],
                                                    ast.If) else None
    return chain, members


def check_la022(project: Project):
    """No hand-rolled structure→driver routing ladders.  The front
    door's routing table is *derived* from the DriverSpec registry's
    declarative ``problem_kind``/``structure`` metadata
    (:func:`repro.specs.routing.routing_table`); a driver joins the
    routing by annotating its spec, never by editing a dispatch site.
    Two shapes are flagged outside the derivation home: a dict literal
    keyed by structure labels whose values name drivers, and an
    ``if``/``elif`` chain comparing against structure-label constants
    whose branches name drivers."""
    findings = []
    for mod in project.modules:
        if mod.is_substrate or _is_routing_home(mod):
            continue
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Dict):
                labels = [k for k in node.keys
                          if k is not None and _label_constants(k)]
                routed = [v for v in node.values
                          if any(_driver_ref(n) for n in ast.walk(v))]
                if len(labels) >= 2 and routed:
                    findings.append(_f(
                        "LA022",
                        "dict literal maps structure labels to drivers; "
                        "routing is derived from DriverSpec "
                        "problem_kind/structure metadata "
                        "(repro.specs.routing), not written by hand",
                        mod, node))
        seen = set()
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.If) or id(node) in seen:
                continue
            chain, members = _chain_of(node)
            seen.update(id(n) for n in members)
            labelled = [t for t, _ in chain
                        if any(_label_constants(c)
                               for c in ast.walk(t)
                               if isinstance(c, (ast.Constant, ast.Tuple,
                                                 ast.List)))]
            routed = any(_driver_ref(n)
                         for _, body in chain
                         for stmt in body
                         for n in ast.walk(stmt))
            if len(labelled) >= 2 and routed:
                findings.append(_f(
                    "LA022",
                    "if/elif ladder dispatches structure labels to "
                    "drivers; routing is derived from DriverSpec "
                    "problem_kind/structure metadata "
                    "(repro.specs.routing), not written by hand",
                    mod, node))
    return findings


from .flow import (check_la011, check_la012, check_la013,  # noqa: E402
                   check_la014, check_la017, check_la018, check_la020,
                   check_la023,
                   check_la024, check_la025, check_la026)

RULES = [
    ("LA001", "every public driver goes through the driver shell",
     check_la001),
    ("LA002", "LINFO codes match argument positions", check_la002),
    ("LA003", "drivers accept info=None", check_la003),
    ("LA005", "__all__ agrees with public drivers", check_la005),
    ("LA006", "s/d/c/z dispatch completeness", check_la006),
    ("LA007", "code-class literal discipline", check_la007),
    ("LA008", "no direct substrate imports in driver modules",
     check_la008),
    ("LA009", "driver specs agree with the live signatures",
     check_la009),
    ("LA010", "spec coverage of the core driver catalogue",
     check_la010),
    ("LA011", "derived dimensions conform to the spec formulas",
     check_la011),
    ("LA012", "declared outputs are written on the success path",
     check_la012),
    ("LA013", "no hard-coded dtype flows into the kernel", check_la013),
    ("LA014", "in-place writes only to intent(inout/out) arguments",
     check_la014),
    ("LA017", "every declared error exit is reachable, none shadowed",
     check_la017),
    ("LA018", "no aliased operands into distinct written kernel slots",
     check_la018),
    ("LA020", "deadline checkpoints between expert driver stages",
     check_la020),
    ("LA021", "no hand-rolled batch ladders outside the generator",
     check_la021),
    ("LA022", "no hand-rolled structure routing outside the derivation",
     check_la022),
    ("LA023", "guarded state named only by its owner, under its lock",
     check_la023),
    ("LA024", "no check-then-act split across lock regions",
     check_la024),
    ("LA025", "lock acquisition order is globally acyclic",
     check_la025),
    ("LA026", "thread-local state never escapes into shared containers",
     check_la026),
]


def rule_titles():
    return {code: title for code, title, _ in RULES}


def run_rules(project: Project, select=None):
    """Run the catalogue, honouring *select* exactly: ``None`` means
    every rule, and an (even empty) set means precisely those codes —
    an empty selection runs nothing rather than everything."""
    findings = []
    for code, _, check in RULES:
        if select is not None and code not in select:
            continue
        findings.extend(check(project))
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings
