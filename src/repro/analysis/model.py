"""AST project model for ``lalint``.

The model never imports the code under analysis.  It parses every
``*.py`` file it is pointed at and derives, per module:

* the top-level functions and which of them are public ``la_*`` drivers,
* per-function 1-based argument positions (the LINFO convention),
* helper delegation — ``la_sysv`` implemented as
  ``return _indef_driver("LA_SYSV", sysv, a, b, uplo, ipiv, info)``
  is analysed through the helper with positions remapped via the call
  site,
* which names come from the ``lapack77`` substrate, and
* which functions run inside the driver shell (``@driver_shell(name)``,
  :func:`shell_key`) and under which spec name.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

__all__ = ["Project", "Module", "DriverImpl", "neg_literal",
           "call_name"]

#: ``la_*`` helpers that are not drivers (workspace-size queries).
NON_DRIVER_LA = {"la_ws_gels", "la_ws_gelss"}

#: The decorator that runs a driver body inside the driver shell.
SHELL = "driver_shell"


def call_name(node: ast.AST) -> str | None:
    """Dotted-free name of a call target (``f(...)`` or ``m.f(...)``)."""
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


def neg_literal(node: ast.AST) -> int | None:
    """Value of a literal negative int (``-3`` parses as USub(3))."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) \
            and isinstance(node.operand, ast.Constant) \
            and isinstance(node.operand.value, int):
        return -node.operand.value
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and node.value < 0:
        return node.value
    return None


def shell_key(func: ast.FunctionDef):
    """``(spec name, decorator node)`` when *func* runs inside the
    driver shell — decorated ``@driver_shell("la_xxx", ...)`` — else
    ``None``."""
    for dec in func.decorator_list:
        if call_name(dec) == SHELL and dec.args \
                and isinstance(dec.args[0], ast.Constant) \
                and isinstance(dec.args[0].value, str):
            return dec.args[0].value, dec
    return None


@dataclass
class Module:
    path: str
    tree: ast.Module
    functions: dict = field(default_factory=dict)   # name -> FunctionDef
    classes: dict = field(default_factory=dict)     # name -> ClassDef
    imports: dict = field(default_factory=dict)     # name -> module str
    #: Raw ``from``-import records ``(level, module, name, asname)`` —
    #: unlike :attr:`imports` these keep the relative level, so the
    #: concurrency pass can resolve ``from . import cache`` to the
    #: actual project file instead of guessing by bare name.
    import_records: list = field(default_factory=list)
    source_lines: tuple = ()                        # for pragma scans
    all_literal: list | None = None                 # None = absent
    all_dynamic: bool = False
    all_node: ast.AST | None = None
    substrate_names: set = field(default_factory=set)

    @property
    def is_substrate(self) -> bool:
        p = self.path.replace(os.sep, "/")
        return "/lapack77/" in p or p.endswith("/lapack77")

    @property
    def is_f77_compat(self) -> bool:
        """The ``F77_LAPACK`` compatibility layer keeps the FORTRAN 77
        convention — ``info`` is the return value and argument errors
        raise through XERBLA — so the F90 wrapper-contract rules do not
        apply to its ``la_*`` functions."""
        p = self.path.replace(os.sep, "/")
        return "/f77/" in p or p.endswith("/f77")

    def public_functions(self):
        return {n: f for n, f in self.functions.items()
                if not n.startswith("_")}

    def drivers(self):
        if self.is_f77_compat:
            return {}
        return {n: f for n, f in self.functions.items()
                if n.startswith("la_") and n not in NON_DRIVER_LA}


@dataclass
class DriverImpl:
    """Where a driver's contract logic actually lives.

    For plain drivers ``func`` is the driver itself and ``posmap`` maps
    each of its own parameters to its 1-based position.  For delegating
    drivers ``func`` is the helper and ``posmap`` maps *helper*
    parameter names to positions in the public driver's signature.
    """

    driver: str
    module: Module
    func: ast.FunctionDef
    impl_module: Module
    posmap: dict            # impl param name -> 1-based driver position
    delegated: bool = False
    callmap: dict = field(default_factory=dict)
    # callmap: helper param name -> substrate kernel bound at the
    # delegation site (``_indef_expert(srname, sytrf, sytrs, ...)``),
    # so laflow can resolve calls through those parameters.


def param_positions(func: ast.FunctionDef) -> dict:
    """1-based positions of all positional/keyword parameters."""
    args = list(func.args.posonlyargs) + list(func.args.args)
    return {a.arg: i + 1 for i, a in enumerate(args)}


def body_statements(func: ast.FunctionDef):
    """Function body with a leading docstring stripped."""
    body = func.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        return body[1:]
    return body


class Project:
    """All parsed modules plus cross-module lookup tables."""

    def __init__(self):
        self.modules: list[Module] = []
        self.functions: dict = {}        # name -> (Module, FunctionDef)

    # -- loading ----------------------------------------------------

    @classmethod
    def load(cls, paths) -> "Project":
        proj = cls()
        for path in _expand(paths):
            proj._load_file(path)
        return proj

    def _load_file(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return
        mod = Module(path=path, tree=tree,
                     source_lines=tuple(source.splitlines()))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                mod.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                mod.classes[node.name] = node
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name) and t.id == "__all__":
                        mod.all_node = node
                        lits = _literal_strs(node.value)
                        if lits is None:
                            mod.all_dynamic = True
                        else:
                            mod.all_literal = lits
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                src = node.module or ""
                for alias in node.names:
                    name = alias.asname or alias.name
                    mod.imports[name] = src
                    mod.import_records.append(
                        (node.level, src, alias.name, name))
                    parts = src.split(".")
                    # Direct substrate imports and registry-dispatched
                    # proxies (repro.backends.kernels) both count as
                    # "the lapack77 call" for the catalogue rule
                    # (LA006) and the dataflow rules.
                    if "lapack77" in parts or \
                            ("backends" in parts and
                             parts[-1] == "kernels"):
                        mod.substrate_names.add(name)
        self.modules.append(mod)
        for name, func in mod.functions.items():
            self.functions.setdefault(name, (mod, func))

    # -- driver implementations ------------------------------------

    def driver_impls(self):
        """Yield a :class:`DriverImpl` for every public driver."""
        for mod in self.modules:
            for name, func in sorted(mod.drivers().items()):
                yield self._resolve_impl(name, func, mod)

    def shell_impls(self):
        """Yield a :class:`DriverImpl` for every function running inside
        the driver shell, named by the spec it is keyed to."""
        for mod in self.modules:
            for _, func in sorted(mod.functions.items()):
                key = shell_key(func)
                if key is not None:
                    yield self._resolve_impl(key[0], func, mod)

    def _resolve_impl(self, name, func, mod) -> DriverImpl:
        own = param_positions(func)
        body = body_statements(func)
        if len(body) == 1 and isinstance(body[0], ast.Return) \
                and isinstance(body[0].value, ast.Call):
            call = body[0].value
            helper = call_name(call)
            if helper and helper in self.functions \
                    and helper.startswith("_"):
                hmod, hfunc = self.functions[helper]
                posmap = self._map_call(call, hfunc, own)
                if posmap is not None:
                    callmap = self._map_callables(
                        call, hfunc, mod.substrate_names)
                    return DriverImpl(driver=name, module=mod, func=hfunc,
                                      impl_module=hmod, posmap=posmap,
                                      delegated=True, callmap=callmap)
        return DriverImpl(driver=name, module=mod, func=func,
                          impl_module=mod, posmap=own)

    @staticmethod
    def _map_call(call, hfunc, caller_positions) -> dict | None:
        """Map helper params to driver positions via the call site."""
        hparams = list(hfunc.args.posonlyargs) + list(hfunc.args.args)
        posmap = {}
        for i, arg in enumerate(call.args):
            if i >= len(hparams):
                return None
            if isinstance(arg, ast.Name) and arg.id in caller_positions:
                posmap[hparams[i].arg] = caller_positions[arg.id]
        for kw in call.keywords:
            if kw.arg and isinstance(kw.value, ast.Name) \
                    and kw.value.id in caller_positions:
                posmap[kw.arg] = caller_positions[kw.value.id]
        return posmap

    @staticmethod
    def _map_callables(call, hfunc, substrate_names) -> dict:
        """Map helper params to substrate kernels passed at the site."""
        hparams = list(hfunc.args.posonlyargs) + list(hfunc.args.args)
        callmap = {}
        for i, arg in enumerate(call.args):
            if i < len(hparams) and isinstance(arg, ast.Name) \
                    and arg.id in substrate_names:
                callmap[hparams[i].arg] = arg.id
        for kw in call.keywords:
            if kw.arg and isinstance(kw.value, ast.Name) \
                    and kw.value.id in substrate_names:
                callmap[kw.arg] = kw.value.id
        return callmap


def _literal_strs(node) -> list | None:
    if isinstance(node, (ast.List, ast.Tuple)):
        out = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.append(elt.value)
            else:
                return None
        return out
    return None


def _expand(paths):
    seen = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d not in ("__pycache__", ".git"))
                for name in sorted(files):
                    if name.endswith(".py"):
                        seen.append(os.path.join(root, name))
        elif path.endswith(".py"):
            seen.append(path)
    return seen
