"""The lalint rule catalogue (LA001–LA026; LA002, LA003, LA004, LA010,
LA015, LA016, LA017 and LA019 are retired).

Every rule is a function ``check(project) -> list[Finding]`` registered
in :data:`RULES`.  Rules only inspect the AST model — the analysed code
is never imported, and the rules in this module read no driver spec.
A body's agreement with its spec (argument positions, ``info=None``)
is checked by the driver shell itself (:mod:`repro.core.shell`), which
refuses a mismatched body when it decorates it; the dataflow rules
(:mod:`.flow`) read the spec registry as plain data.
"""

from __future__ import annotations

import ast
import os

from .findings import Finding
from .model import Project, call_name, neg_literal, shell_key

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

#: Named code-class constants (``repro.errors``) whose raw values must
#: not be spelled as literals inside driver modules.
CODE_CLASS_FLOOR = -100


def _f(code, message, mod, node, context=""):
    return Finding(code=code, message=message, path=mod.path,
                   line=getattr(node, "lineno", 1),
                   col=getattr(node, "col_offset", 0), context=context)


# ---------------------------------------------------------------------
# Validation-branch collection (LA009)
# ---------------------------------------------------------------------

def _reporter_codes(call):
    """Literal negative LINFO codes passed to a reporter call (``None``
    for a non-literal); an ``IfExp`` code argument contributes both
    arms."""
    if call_name(call) not in REPORTERS:
        return []
    for arg in call.args[:2]:
        if isinstance(arg, ast.IfExp):
            return [neg_literal(arg.body), neg_literal(arg.orelse)]
        code = neg_literal(arg)
        if code is not None:
            return [code]
    return []


def _validation_branches(func):
    """Yield ``(code, node)`` for every validation exit.

    A validation exit is a ``linfo = -k`` assignment or a reporter call
    with a literal argument-position code (``-99 <= -k <= -1``; the
    code classes below are LA007's), in the direct body of an ``if``.
    """
    for node in ast.walk(func):
        if not isinstance(node, ast.If):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and stmt.targets[0].id == "linfo":
                codes = [neg_literal(stmt.value)]
            elif isinstance(stmt, (ast.Expr, ast.Return)) \
                    and isinstance(stmt.value, ast.Call):
                codes = _reporter_codes(stmt.value)
            else:
                continue
            for code in codes:
                if code is not None and code > CODE_CLASS_FLOOR:
                    yield code, stmt


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
# LA009 — no literal validation ladder inside the driver shell
# ---------------------------------------------------------------------

def check_la009(project: Project):
    """No body running inside the driver shell keeps a literal
    validation ladder.  The shell runs the spec's ladder before the
    body, so a ``linfo = -k`` branch (or a reporter call with a literal
    negative code) in the body, or in the helper it delegates to, is a
    hand-written second copy of it.  The signature half of the contract
    needs no rule: the shell refuses, when it decorates, a body whose
    parameters disagree with its spec."""
    findings = []
    for impl in project.shell_impls():
        for code, node in _validation_branches(impl.func):
            findings.append(_f(
                "LA009",
                f"hand-rolled validation ladder (literal code {code}) in "
                f"{impl.driver}; emit the code through the spec engine "
                "(validate_args)", impl.impl_module, node,
                context=impl.driver))
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
                   check_la014, check_la018, check_la020, check_la023,
                   check_la024, check_la025, check_la026)

RULES = [
    ("LA001", "every public driver goes through the driver shell",
     check_la001),
    ("LA005", "__all__ agrees with public drivers", check_la005),
    ("LA007", "code-class literal discipline", check_la007),
    ("LA008", "no direct substrate imports in driver modules",
     check_la008),
    ("LA009", "no literal validation ladder inside the driver shell",
     check_la009),
    ("LA011", "derived dimensions conform to the spec formulas",
     check_la011),
    ("LA012", "declared outputs are written on the success path",
     check_la012),
    ("LA013", "no hard-coded dtype flows into the kernel", check_la013),
    ("LA014", "in-place writes only to intent(inout/out) arguments",
     check_la014),
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
