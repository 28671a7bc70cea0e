"""The laflow lock model and concurrency rules (LA023–LA026).

Lockset reasoning on top of the interprocedural interpreter: the
abstract environment carries the set of ``(lock, region)`` pairs held
at every point (:data:`~.interp.LOCKSET`), helper summaries record the
guarded state they touch and the locks they acquire, and replay unions
the caller's lockset on top — so a helper that *relies on* its caller's
lock (``faults._chaos_sync``) is clean at every locked call site while
still flagging an unlocked one.

The rules are driven by one declarative table, :data:`GUARDED_BY`:
every shared mutable name in the package — the policy object, backend
registry, selection and switch hooks, the block-size table, deadline
arming, the fault/chaos tables with their fast-path gates, and the
structure cache with its stats — mapped to its owner module and the
lock that owns it.  Instance state (``RateLimiter._seen``) is guarded
by a per-object lock discovered from the class ``__init__``.  A module
outside the shipped tree can declare its own table with a top-level
``_LAFLOW_GUARDED = {"_NAME": "LOCK"}`` literal (fixtures use this).

The four rules:

* **LA023 — guarded state.**  A :data:`GUARDED_BY` name may be named
  only in its owner module: an import, a bare name or an attribute
  chain anywhere else is a finding no pragma suppresses.  Inside the
  owner every read *and* write must happen with its lock in the
  current lockset, interprocedurally; a nested ``def`` runs later, so
  it is checked as its own entry point with no lock held.  Deliberate
  unlocked fast-path reads carry a ``# laflow: benign-race — <why>``
  pragma; the rule verifies each pragma has a justification and
  actually covers a reached access.
* **LA024 — atomicity.**  A read of a guarded name under one lock
  region followed by a write under a *disjoint* region is a split
  check-then-act (the classic cache lookup-then-insert race shape).
  Justified splits carry ``# laflow: atomic-split — <why>`` on either
  access line or on the root call site; generator bodies (save/restore
  context managers) are exempt — their two halves bracket the caller's
  code by design.
* **LA025 — lock order.**  The static acquisition graph (which locks
  are held when another is acquired, across ``with`` blocks,
  ``.acquire()`` calls and summary replay) must be acyclic;
  re-acquiring a held lock is fine for re-entrant locks (STATE_LOCK is
  an RLock) and a self-deadlock for plain ones.
* **LA026 — thread-local escape.**  A value derived from thread-local
  state (``_DEADLINES``, the calllog ``_FRAMES``) must not be stored
  into module globals or long-lived shared containers.

Pragma placement matters and is checked: a pragma on a line no guarded
access reaches is itself a finding, so stale suppressions cannot
accumulate.  Like every lalint rule, nothing here imports the analysed
code.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field

from ..findings import Finding
from ..model import Project, body_statements, call_name
from . import values as V
from .interp import FlowInterpreter
from .summaries import SummaryEngine

__all__ = ["GUARDED_BY", "GUARDED_ATTRS", "ConcurrencySummaryEngine",
           "check_la023", "check_la024", "check_la025", "check_la026"]


# ---------------------------------------------------------------------
# The GUARDED_BY state table
# ---------------------------------------------------------------------

#: The process-wide re-entrant lock, ``repro._sync.STATE_LOCK``.
STATE_LOCK = "STATE_LOCK"

#: The one guarded-state table: name -> (owner-path suffix, lock).
#: Outside its owner a listed name may not be named at all; inside it
#: every read and write holds the lock.  A lock of ``None`` marks an
#: owner-only ``threading.local`` or ``ContextVar`` (per-thread, or
#: per-context, by construction).
GUARDED_BY = {
    # exception policy, backend selection/registry, block sizes
    "_POLICY": ("repro/policy.py", STATE_LOCK),
    "_SELECTED": ("repro/backends/__init__.py", STATE_LOCK),
    "_REGISTRY": ("repro/backends/__init__.py", STATE_LOCK),
    "_RETIRED": ("repro/backends/__init__.py", STATE_LOCK),
    "_PINNED": ("repro/backends/__init__.py", None),
    "_BLOCK_SIZES": ("repro/config.py", STATE_LOCK),
    # deadline arming and the per-thread deadline stack
    "_ARMED": ("repro/resilience/deadlines.py", STATE_LOCK),
    "_DEADLINES": ("repro/resilience/deadlines.py", None),
    # fault-injection and chaos tables and their fast-path gates
    "_FAULTS": ("repro/faults.py", STATE_LOCK),
    "ACTIVE": ("repro/faults.py", STATE_LOCK),
    "_CHAOS": ("repro/faults.py", STATE_LOCK),
    "CHAOS_ACTIVE": ("repro/faults.py", STATE_LOCK),
    # the accelerated backend's typed-wrapper table, filled at first use
    "_WRAPPERS": ("repro/backends/accelerated.py", "_LOAD_LOCK"),
    "_LOADED": ("repro/backends/accelerated.py", "_LOAD_LOCK"),
    # the structure cache and its stats
    "_ENTRIES": ("repro/dispatch_front/cache.py", STATE_LOCK),
    "_STATS": ("repro/dispatch_front/cache.py", STATE_LOCK),
}

#: Instance state guarded by a per-object lock: ``"Class.attr" ->
#: "Class.lockattr"``.  The owner is wherever the class is defined; the
#: lock itself is discovered from ``self.<lockattr> = threading.Lock()``
#: in ``__init__`` (which also decides re-entrancy).
GUARDED_ATTRS = {
    "RateLimiter._seen": "RateLimiter._lock",   # warning windows
}

_PRAGMA_RE = re.compile(
    r"#\s*laflow:\s*(benign-race|atomic-split)\b[\s:—–-]*(.*)")


# ---------------------------------------------------------------------
# Per-module configuration
# ---------------------------------------------------------------------

def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


def _dirname(path: str) -> str:
    return path.rsplit("/", 1)[0] if "/" in path else ""


def _lock_ctor(node) -> str | None:
    """``'Lock' | 'RLock' | 'local'`` for a threading primitive call."""
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    name = f.id if isinstance(f, ast.Name) \
        else f.attr if isinstance(f, ast.Attribute) else None
    return name if name in ("Lock", "RLock", "local") else None


@dataclass
class ModuleConfig:
    """Everything the lock model knows about one module."""
    guarded: dict = field(default_factory=dict)
    lock_table: dict = field(default_factory=dict)
    reentrant: set = field(default_factory=set)
    tls_names: set = field(default_factory=set)
    module_globals: set = field(default_factory=set)
    class_locks: dict = field(default_factory=dict)
    class_guarded: dict = field(default_factory=dict)
    defines_lock: bool = False
    imports_state_lock: bool = False

    @property
    def relevant(self) -> bool:
        return bool(self.guarded or self.tls_names or self.class_locks
                    or self.defines_lock)


def _module_config(mod) -> ModuleConfig:
    p = _norm(mod.path)
    cfg = ModuleConfig()
    cfg.reentrant.add(STATE_LOCK)   # repro._sync.STATE_LOCK is an RLock
    for name, (owner, lock) in GUARDED_BY.items():
        if lock is not None and p.endswith(owner):
            cfg.guarded[name] = (name, lock)
    cfg.imports_state_lock = any(
        alias == "STATE_LOCK"
        for _lvl, _src, _orig, alias in mod.import_records)
    for node in mod.tree.body:
        if isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Name)]
            value = node.value
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            targets, value = [node.target], node.value
        else:
            continue
        cfg.module_globals.update(t.id for t in targets)
        ctor = _lock_ctor(value)
        if ctor == "local":
            cfg.tls_names.update(t.id for t in targets)
        elif ctor in ("Lock", "RLock"):
            cfg.defines_lock = True
            for t in targets:
                cfg.lock_table[t.id] = t.id
                if ctor == "RLock":
                    cfg.reentrant.add(t.id)
        if targets and targets[0].id == "_LAFLOW_GUARDED" \
                and isinstance(value, ast.Dict):
            for k, v in zip(value.keys, value.values):
                if isinstance(k, ast.Constant) \
                        and isinstance(k.value, str) \
                        and isinstance(v, ast.Constant) \
                        and isinstance(v.value, str):
                    cfg.guarded[k.value] = (k.value, v.value)
    cfg.lock_table.setdefault("STATE_LOCK", STATE_LOCK)
    for cname, cnode in mod.classes.items():
        locks: dict = {}
        for item in cnode.body:
            if not (isinstance(item, ast.FunctionDef)
                    and item.name == "__init__"):
                continue
            for n in ast.walk(item):
                if not isinstance(n, ast.Assign):
                    continue
                ctor = _lock_ctor(n.value)
                if ctor not in ("Lock", "RLock"):
                    continue
                for t in n.targets:
                    if isinstance(t, ast.Attribute) \
                            and isinstance(t.value, ast.Name) \
                            and t.value.id == "self":
                        lid = f"{cname}.{t.attr}"
                        locks[t.attr] = lid
                        if ctor == "RLock":
                            cfg.reentrant.add(lid)
        if locks:
            cfg.class_locks[cname] = locks
        attrs: dict = {}
        for qual, lockqual in GUARDED_ATTRS.items():
            qcls, attr = qual.split(".", 1)
            if qcls == cname:
                attrs[f"self.{attr}"] = (qual, lockqual)
        if attrs:
            cfg.class_guarded[cname] = attrs
    return cfg


def _local_shadows(func) -> set:
    """Names that are plain locals of ``func`` (assigned without a
    ``global`` declaration, or parameters) — these shadow any guarded
    module global of the same name inside this function."""
    declared: set = set()
    assigned: set = set()

    def targets_of(t):
        if isinstance(t, ast.Name):
            assigned.add(t.id)
        elif isinstance(t, (ast.Tuple, ast.List)):
            for e in t.elts:
                targets_of(e)
        elif isinstance(t, ast.Starred):
            targets_of(t.value)

    for node in ast.walk(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                targets_of(t)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For)):
            targets_of(node.target)
        elif isinstance(node, ast.With):
            for item in node.items:
                if item.optional_vars is not None:
                    targets_of(item.optional_vars)
        elif isinstance(node, ast.comprehension):
            targets_of(node.target)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            assigned.add(node.name)
    a = func.args
    for p in (list(a.posonlyargs) + list(a.args) + list(a.kwonlyargs)):
        assigned.add(p.arg)
    if a.vararg is not None:
        assigned.add(a.vararg.arg)
    if a.kwarg is not None:
        assigned.add(a.kwarg.arg)
    return assigned - declared


# ---------------------------------------------------------------------
# Import resolution (level-aware, unlike Module.imports)
# ---------------------------------------------------------------------

class _ImportResolver:
    """Resolve from-imports to project modules by actual file path."""

    def __init__(self, project):
        self.index = {_norm(m.path): m for m in project.modules}

    def module_for(self, importer, level, dotted):
        if level > 0:
            base = _dirname(_norm(importer.path))
            for _ in range(level - 1):
                base = _dirname(base)
            tail = dotted.replace(".", "/") if dotted else ""
            cand = f"{base}/{tail}" if tail else base
            if tail:
                m = self.index.get(cand + ".py")
                if m is not None:
                    return m
            return self.index.get(cand + "/__init__.py")
        tail = dotted.replace(".", "/") if dotted else ""
        if not tail:
            return None
        for path, m in self.index.items():
            if path.endswith(f"/{tail}.py") or path == f"{tail}.py" \
                    or path.endswith(f"/{tail}/__init__.py"):
                return m
        return None

    def function_target(self, importer, name):
        """``(module, func)`` for a name imported as a function."""
        for level, src, orig, alias in importer.import_records:
            if alias != name:
                continue
            m = self.module_for(importer, level, src)
            if m is not None:
                func = m.functions.get(orig)
                if func is not None:
                    return (m, func)
        return None

    def module_alias(self, importer, alias):
        """Project module bound to ``alias`` by ``from pkg import mod``."""
        for level, src, orig, asname in importer.import_records:
            if asname != alias:
                continue
            dotted = f"{src}.{orig}" if src else orig
            m = self.module_for(importer, level, dotted)
            if m is not None:
                return m
        return None


# ---------------------------------------------------------------------
# The concurrency summary engine
# ---------------------------------------------------------------------

class ConcurrencySummaryEngine(SummaryEngine):
    """A :class:`SummaryEngine` whose sub-interpreters carry the lock
    model, and whose resolution scope extends across modules into the
    state owners (``cache.lookup`` inlines into ``api._classify``)."""

    def __init__(self, project, configs, resolver):
        super().__init__(project)
        self.configs = configs          # norm path -> (Module, config)
        self.resolver = resolver

    def _config(self, mod):
        entry = self.configs.get(_norm(mod.path))
        return entry[1] if entry is not None else None

    def resolve(self, module, name):
        if module is None:
            return None
        func = module.functions.get(name)
        if func is not None:
            return (module, func)
        target = self.resolver.function_target(module, name)
        if target is not None and self._config(target[0]) is not None:
            return target
        return None

    def resolve_attr(self, module, alias, attr):
        if module is None:
            return None
        m = self.resolver.module_alias(module, alias)
        if m is None or self._config(m) is None:
            return None
        func = m.functions.get(attr)
        if func is None:
            return None
        return (m, func)

    def _make_interpreter(self, mod, func):
        sub = super()._make_interpreter(mod, func)
        self.configure(sub, mod, func)
        return sub

    def configure(self, interp, mod, func, cls=None, scope=None):
        """Install the lock model for one function (or method).  Locals
        of ``scope`` (default ``func``; a nested def passes its
        enclosing function) shadow guarded globals."""
        cfg = self._config(mod)
        if cfg is None:
            return
        shadows = _local_shadows(scope or func)
        interp.guarded = {k: v for k, v in cfg.guarded.items()
                          if k not in shadows}
        interp.lock_table = dict(cfg.lock_table)
        interp.reentrant_locks = set(cfg.reentrant)
        interp.tls_names = cfg.tls_names - shadows
        interp.module_globals = cfg.module_globals - shadows
        if cls is not None:
            for attr, lid in cfg.class_locks.get(cls, {}).items():
                interp.lock_table[f"self.{attr}"] = lid
            interp.guarded.update(cfg.class_guarded.get(cls, {}))


# ---------------------------------------------------------------------
# Root selection and the shared pass
# ---------------------------------------------------------------------

def _roots(mod):
    """Yield ``(display name, class or None, func)`` entry points.

    Public module functions and public methods are roots; private ones
    are only roots when nothing in the module calls them by name (a
    private callback registered elsewhere has no textual caller but
    runs on arbitrary threads).  ``__init__`` and other dunders are
    exempt: construction happens-before sharing.
    """
    called = {call_name(n) for n in ast.walk(mod.tree)
              if isinstance(n, ast.Call)}
    for fname, func in sorted(mod.functions.items()):
        if fname.startswith("_") and fname in called:
            continue
        yield fname, None, func
    for cname, cnode in sorted(mod.classes.items()):
        methods = {n.name: n for n in cnode.body
                   if isinstance(n, ast.FunctionDef)}
        self_called = set()
        for m in methods.values():
            for node in ast.walk(m):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and isinstance(node.func.value, ast.Name) \
                        and node.func.value.id == "self":
                    self_called.add(node.func.attr)
        for mname, m in sorted(methods.items()):
            if mname.startswith("__"):
                continue
            if mname.startswith("_") and mname in self_called:
                continue
            yield f"{cname}.{mname}", cname, m


def _nested_defs(mod):
    """Yield ``(display name, class or None, enclosing function, def)``
    for every function or lambda defined inside a module function or
    method.  A nested body runs later, after any lock its creator held
    is gone, so each one is an entry point of its own with an empty
    lockset.  A lambda is yielded as a def returning its body."""
    outers = [(fname, None, func)
              for fname, func in sorted(mod.functions.items())]
    for cname, cnode in sorted(mod.classes.items()):
        outers += [(f"{cname}.{n.name}", cname, n) for n in cnode.body
                   if isinstance(n, (ast.FunctionDef,
                                     ast.AsyncFunctionDef))]
    for oname, cls, outer in outers:
        for node in ast.walk(outer):
            if node is not outer and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{oname}.{node.name}", cls, outer, node
            elif isinstance(node, ast.Lambda):
                yield f"{oname}.<lambda>", cls, outer, _lambda_def(node)


def _lambda_def(node):
    """``lambda args: body`` as ``def <lambda>(args): return body``."""
    ret = ast.copy_location(ast.Return(value=node.body), node.body)
    return ast.copy_location(ast.FunctionDef(
        name="<lambda>", args=node.args, body=[ret], decorator_list=[],
        returns=None, type_params=[]), node)


def _is_generator(func) -> bool:
    return any(isinstance(n, (ast.Yield, ast.YieldFrom))
               for n in ast.walk(func))


@dataclass
class _Run:
    mod: object
    name: str
    interp: object
    generator: bool


def _scan_pragmas(mod) -> dict:
    out = {}
    for i, line in enumerate(mod.source_lines, 1):
        m = _PRAGMA_RE.search(line)
        if m is not None:
            out[i] = (m.group(1), m.group(2).strip())
    return out


def _concurrency(project: Project) -> dict:
    """The shared concurrency pass, computed once per project.

    Scope: modules that own guarded state, define locks or
    thread-locals, import STATE_LOCK, or import directly from such a
    module (the dispatch seam and front-door callers).  Everything
    else has no lock obligations and is skipped.
    """
    cache = getattr(project, "_laconc_cache", None)
    if cache is not None:
        return cache
    resolver = _ImportResolver(project)
    all_cfgs = {_norm(mod.path): (mod, _module_config(mod))
                for mod in project.modules}
    lock_defs = {p for p, (_m, c) in all_cfgs.items() if c.defines_lock}
    configs: dict = {}
    for p, (mod, cfg) in all_cfgs.items():
        # ``from .._sync import STATE_LOCK`` makes a module relevant,
        # but only when the source really defines the lock — the lint
        # rules themselves import the *name* as a string constant.
        if cfg.imports_state_lock and not cfg.relevant:
            for level, src, _orig, alias in mod.import_records:
                if alias != "STATE_LOCK":
                    continue
                hit = resolver.module_for(mod, level, src)
                if hit is not None and _norm(hit.path) in lock_defs:
                    configs[p] = (mod, cfg)
                    break
        elif cfg.relevant:
            configs[p] = (mod, cfg)
    base_paths = set(configs)
    for mod in project.modules:
        p = _norm(mod.path)
        if p in configs:
            continue
        for level, src, orig, _alias in mod.import_records:
            hit = resolver.module_for(mod, level, src)
            if hit is None or _norm(hit.path) not in base_paths:
                dotted = f"{src}.{orig}" if src else orig
                hit = resolver.module_for(mod, level, dotted)
            if hit is not None and _norm(hit.path) in base_paths:
                configs[p] = all_cfgs[p]
                break
    engine = ConcurrencySummaryEngine(project, configs, resolver)
    runs = []

    def run(mod, name, cls, func, scope=None):
        interp = FlowInterpreter(module=mod, func=func,
                                 substrate=frozenset(),
                                 summaries=engine, depth=0)
        engine.configure(interp, mod, func, cls=cls, scope=scope)
        env = {}
        a = func.args
        for par in (list(a.posonlyargs) + list(a.args)
                    + list(a.kwonlyargs)):
            env[par.arg] = V.UNKNOWN
        interp._exec_block(body_statements(func), env)
        runs.append(_Run(mod=mod, name=name, interp=interp,
                         generator=_is_generator(func)))

    for p in sorted(configs):
        mod, _cfg = configs[p]
        for name, cls, func in _roots(mod):
            run(mod, name, cls, func)
        for name, cls, outer, func in _nested_defs(mod):
            run(mod, name, cls, func, scope=outer)
    pragmas = {p: _scan_pragmas(mod) for p, (mod, _c) in configs.items()}
    cache = {"runs": runs, "pragmas": pragmas, "configs": configs,
             "engine": engine}
    project._laconc_cache = cache
    return cache


# ---------------------------------------------------------------------
# Pragma plumbing
# ---------------------------------------------------------------------

def _pragma_at(data, kind, path, lineno):
    entry = data["pragmas"].get(_norm(path), {}).get(lineno)
    if entry is not None and entry[0] == kind and entry[1]:
        return (_norm(path), lineno)
    return None


def _access_pragma(data, run, access, kind):
    """Pragma covering an access: on its own line, or on the call site
    it was first replayed through (the guarded API's invocation)."""
    hit = _pragma_at(data, kind, access.path,
                     getattr(access.node, "lineno", 0))
    if hit is None and access.site is not None:
        hit = _pragma_at(data, kind, access.site_path,
                         getattr(access.site, "lineno", 0))
    return hit


def _reached_lines(data) -> set:
    reached = data.get("_reached")
    if reached is not None:
        return reached
    reached = set()
    for run in data["runs"]:
        for a in run.interp.accesses:
            reached.add((_norm(a.path), getattr(a.node, "lineno", 0)))
            if a.site is not None:
                reached.add((_norm(a.site_path),
                             getattr(a.site, "lineno", 0)))
    data["_reached"] = reached
    return reached


def _pragma_findings(data, kind, code) -> list:
    """A pragma must justify itself and must be load-bearing: one with
    no justification text, or on a line no reached guarded access
    matches, is a finding under its own rule."""
    findings = []
    reached = _reached_lines(data)
    for path, table in sorted(data["pragmas"].items()):
        for lineno, (k, just) in sorted(table.items()):
            if k != kind:
                continue
            if not just:
                findings.append(Finding(
                    code=code,
                    message=f"`# laflow: {kind}` needs a justification "
                            "on the same line "
                            f"(`# laflow: {kind} — <why>`)",
                    path=path, line=lineno, col=0, context="pragma"))
            elif (path, lineno) not in reached:
                findings.append(Finding(
                    code=code,
                    message=f"unused `# laflow: {kind}` pragma: the "
                            "analysis reaches no guarded access on "
                            "this line",
                    path=path, line=lineno, col=0, context="pragma"))
    return findings


# ---------------------------------------------------------------------
# LA023 — guarded state: owner-only names, lockset consistency
# ---------------------------------------------------------------------

#: Builtins that reach a module attribute through a string: naming a
#: guarded row as their literal second argument names the row.
_REFLECTIVE = frozenset({"getattr", "setattr", "delattr", "hasattr"})


def _foreign_names(project: Project) -> list:
    """Every place a module names :data:`GUARDED_BY` state it does not
    own — by import, bare name, attribute chain, or as the string
    literal of a ``getattr``/``setattr``/``delattr``/``hasattr`` call.
    A substring prefilter skips the modules whose text never spells a
    foreign name, so only a handful are walked."""
    findings = []
    for mod in project.modules:
        p = _norm(mod.path)
        text = "\n".join(mod.source_lines)
        foreign = {name for name, (owner, _lock) in GUARDED_BY.items()
                   if name in text and not p.endswith(owner)}
        if not foreign:
            continue
        seen: set = set()
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ImportFrom):
                hits = [("import", a.name) for a in node.names
                        if a.name in foreign]
            elif isinstance(node, ast.Name) and node.id in foreign:
                hits = [("use", node.id)]
            elif isinstance(node, ast.Attribute) and node.attr in foreign:
                hits = [("use", node.attr)]
            elif isinstance(node, ast.Call) \
                    and call_name(node) in _REFLECTIVE \
                    and len(node.args) >= 2 \
                    and isinstance(node.args[1], ast.Constant) \
                    and node.args[1].value in foreign:
                hits = [(f"{call_name(node)}()", node.args[1].value)]
            else:
                continue
            for what, name in hits:
                key = (name, node.lineno)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(Finding(
                    code="LA023",
                    message=f"{what} of guarded state {name} outside its "
                            f"owner {GUARDED_BY[name][0]}; go through "
                            "that module's functions",
                    path=mod.path, line=node.lineno,
                    col=node.col_offset, context=name))
    return findings


def check_la023(project: Project):
    """Guarded state stays with its owner and its lock.  A
    :data:`GUARDED_BY` name may be named only in its owner module (no
    pragma suppresses a foreign import, name or attribute chain); there,
    every read and write happens with the owning lock held,
    interprocedurally, and nested defs start with no lock.  Deliberate
    unlocked fast-path reads carry a justified ``# laflow:
    benign-race`` pragma (verified to be load-bearing)."""
    data = _concurrency(project)
    findings = _foreign_names(project)
    seen: set = set()
    for run in data["runs"]:
        for a in run.interp.accesses:
            if a.lock in {l for l, _ in a.locks}:
                continue
            if _access_pragma(data, run, a, "benign-race") is not None:
                continue
            key = (a.name, _norm(a.path), getattr(a.node, "lineno", 0))
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                code="LA023",
                message=f"{a.kind} of {a.name} without holding "
                        f"{a.lock}; hold the lock or mark the line "
                        "`# laflow: benign-race — <why>`",
                path=a.path, line=getattr(a.node, "lineno", 1),
                col=getattr(a.node, "col_offset", 0),
                context=run.name))
    findings += _pragma_findings(data, "benign-race", "LA023")
    return findings


# ---------------------------------------------------------------------
# LA024 — atomicity of check-then-act
# ---------------------------------------------------------------------

def check_la024(project: Project):
    """A read of a guarded name in one lock region followed by a write
    in a disjoint region is a split check-then-act: the state can
    change between the two acquisitions.  Generator bodies are exempt
    (save/restore context managers bracket caller code by design), and
    a justified ``# laflow: atomic-split`` pragma on either access (or
    the root call site) accepts a verified-benign split."""
    data = _concurrency(project)
    findings = []
    seen: set = set()
    for run in data["runs"]:
        if run.generator:
            continue
        accs = run.interp.accesses
        for i, r in enumerate(accs):
            if r.kind != "read":
                continue
            r_regs = {reg for l, reg in r.locks if l == r.lock}
            if not r_regs:
                continue        # unlocked read: LA023's problem
            if _access_pragma(data, run, r, "atomic-split") is not None \
                    or _access_pragma(data, run, r,
                                      "benign-race") is not None:
                continue
            for w in accs[i + 1:]:
                if w.name != r.name or w.kind != "write":
                    continue
                w_regs = {reg for l, reg in w.locks if l == w.lock}
                if not w_regs or (r_regs & w_regs):
                    continue
                if _access_pragma(data, run, w,
                                  "atomic-split") is not None \
                        or _access_pragma(data, run, w,
                                          "benign-race") is not None:
                    continue
                key = (r.name, _norm(r.path),
                       getattr(r.node, "lineno", 0),
                       _norm(w.path), getattr(w.node, "lineno", 0))
                if key in seen:
                    continue
                seen.add(key)
                findings.append(Finding(
                    code="LA024",
                    message=f"check-then-act on {r.name} split across "
                            f"two {w.lock} regions (read at "
                            f"{os.path.basename(r.path)}:"
                            f"{getattr(r.node, 'lineno', 0)}): the "
                            "state can change between the regions; "
                            "merge them or mark "
                            "`# laflow: atomic-split — <why>`",
                    path=w.path, line=getattr(w.node, "lineno", 1),
                    col=getattr(w.node, "col_offset", 0),
                    context=run.name))
    findings += _pragma_findings(data, "atomic-split", "LA024")
    return findings


# ---------------------------------------------------------------------
# LA025 — lock-order cycles
# ---------------------------------------------------------------------

def check_la025(project: Project):
    """The static lock-acquisition graph must be acyclic, and a
    non-re-entrant lock may not be re-acquired while held.
    STATE_LOCK's RLock re-entrancy is modelled, so nested
    ``with STATE_LOCK:`` (a locked API calling another) stays clean."""
    data = _concurrency(project)
    findings = []
    seen: set = set()
    edges: dict = {}
    for run in data["runs"]:
        for q in run.interp.acquires:
            if q.lock in q.held:
                if not q.reentrant:
                    key = ("self", q.lock, _norm(q.path),
                           getattr(q.node, "lineno", 0))
                    if key in seen:
                        continue
                    seen.add(key)
                    findings.append(Finding(
                        code="LA025",
                        message=f"non-re-entrant lock {q.lock} "
                                "acquired while already held "
                                "(self-deadlock)",
                        path=q.path, line=getattr(q.node, "lineno", 1),
                        col=getattr(q.node, "col_offset", 0),
                        context=run.name))
                continue
            for h in sorted(q.held):
                edges.setdefault((h, q.lock), (q, run))
    graph: dict = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)

    def reaches(src, dst):
        stack, visited = [src], set()
        while stack:
            n = stack.pop()
            if n == dst:
                return True
            if n in visited:
                continue
            visited.add(n)
            stack.extend(graph.get(n, ()))
        return False

    for (a, b), (q, run) in sorted(edges.items()):
        if not reaches(b, a):
            continue
        comp = frozenset(n for n in graph
                         if reaches(a, n) and reaches(n, a)) | {a, b}
        if comp in seen:
            continue
        seen.add(comp)
        findings.append(Finding(
            code="LA025",
            message="lock-order cycle between "
                    f"{', '.join(sorted(comp))}: here {a} is held "
                    f"while acquiring {b}, elsewhere the order "
                    "reverses; pick one global acquisition order",
            path=q.path, line=getattr(q.node, "lineno", 1),
            col=getattr(q.node, "col_offset", 0),
            context=run.name))
    return findings


# ---------------------------------------------------------------------
# LA026 — thread-local escape
# ---------------------------------------------------------------------

def check_la026(project: Project):
    """Values derived from thread-local state (deadline stacks, calllog
    frames) must stay per-thread: storing one into a module global or a
    long-lived shared container leaks state across requests."""
    data = _concurrency(project)
    findings = []
    seen: set = set()
    for run in data["runs"]:
        for e in run.interp.escapes:
            key = (e.source, e.target, _norm(e.path),
                   getattr(e.node, "lineno", 0))
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                code="LA026",
                message=f"value derived from thread-local {e.source} "
                        f"is stored into module-level {e.target}; "
                        "thread-local state must not escape into "
                        "long-lived shared containers",
                path=e.path, line=getattr(e.node, "lineno", 1),
                col=getattr(e.node, "col_offset", 0),
                context=run.name))
    return findings
