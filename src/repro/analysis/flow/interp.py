"""Symbolic abstract interpreter over ``la_*`` driver bodies.

One :class:`DriverFlow` interprets one driver implementation (the
driver's own body, or its delegation helper with positions remapped via
the call site) against its :class:`~repro.specs.model.DriverSpec`.  The
environment is seeded from the spec's argument table — a ``matrix``
argument ``a`` enters as an abstract array of shape ``(rows(a),
cols(a))`` whose dtype *follows* ``a`` — and the interpreter then walks
the body tracking allocations, slicing, kernel calls and assignments.

The result is a set of recorded events the LA011–LA014, LA018 and LA020
rules consume:

* ``dim_defs`` — local bindings of spec-declared dimension variables
  (``n = a.shape[0]``) with their resolved symbolic value,
* ``allocs`` — array-allocation sites with symbolic shape and dtype,
* ``writes`` — in-place stores (``w[:] = ...``, ``_store(z, ...)``)
  with the driver arguments the target may alias,
* ``sinks`` — substrate/kernel calls (including calls through a
  helper's kernel-valued parameter or a kernel-valued local) with
  their abstract arguments, positional/keyword split, and the set of
  substrate kernels the callee may resolve to,
* ``checkpoints`` — ``deadlines.check(srname, stage, ...)`` calls with
  their stage label.

Interpretation is conservative: branches are walked with forked
environments and joined, unknown constructs evaluate to bottom, and no
rule reports anything derived from an unknown value.  When a
:class:`~.summaries.SummaryEngine` is attached, calls to same-module
helpers and ``core.auxmod`` helpers are interpreted through memoized
effect summaries instead of evaluating to bottom — their events are
replayed into the caller at ``depth + 1`` and their return value flows
back symbolically (see :mod:`.summaries`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..model import body_statements, call_name
from . import values as V

__all__ = ["FlowInterpreter", "DriverFlow", "Write", "Sink",
           "Checkpoint", "Access", "Acquire", "Escape", "TLSRef",
           "LOCKSET", "MUTATORS", "spec_dim_formulas"]

#: NumPy allocation calls with an explicit shape first argument.
ALLOCATORS = {"zeros", "empty", "ones", "full", "eye", "identity"}
LIKE_ALLOCATORS = {"zeros_like", "empty_like", "ones_like", "full_like"}

#: Calls that return (a view of) their first array argument unchanged
#: for provenance purposes.
PASSTHROUGH = {"asarray", "ascontiguousarray", "asfortranarray",
               "atleast_1d", "atleast_2d", "conj", "conjugate",
               "triu", "tril", "require"}

_DIM_ATOMS = {"rows2d": "rows", "cols2d": "cols", "len": "len",
              "tri": "tri"}

#: Reserved environment key holding the current *lockset*: a frozenset
#: of ``(lock, region)`` pairs.  Living in the environment (rather than
#: on the interpreter) makes branch joins do the right thing for free —
#: a lock acquired on only one arm of an ``if`` is dropped at the merge
#: (must-intersection by lock name; region ids of survivors union).
LOCKSET = "__lockset__"

#: Container-method names treated as writes to the receiver.
MUTATORS = {"update", "clear", "pop", "popitem", "setdefault",
            "append", "extend", "remove", "add", "discard"}


def spec_dim_formulas(spec) -> dict:
    """Resolve a spec's derived-dimension table to canonical Dims."""
    out: dict = {}
    for entry in spec.dims:
        var, source, refs = entry[0], entry[1], entry[2:]
        if source in _DIM_ATOMS:
            out[var] = V.atom((_DIM_ATOMS[source], refs[0]))
        elif source == "min":
            resolved = [out.get(r) for r in refs]
            dim = resolved[0]
            for r in resolved[1:]:
                dim = V.dim_min(dim, r)
            out[var] = dim
    return {k: v for k, v in out.items() if v is not None}


@dataclass(frozen=True)
class Write:
    """An in-place store whose target may alias driver arguments."""
    names: frozenset        # spec argument names the target may alias
    value: object           # abstract value stored
    node: object            # display position
    via: str                # "slice" | "store" | "aug"
    depth: int = 0          # 0 = driver body, >0 = inside a summary


@dataclass(frozen=True)
class Sink:
    """A substrate/kernel call with its abstract arguments.

    ``values`` keeps the flat positional-then-keyword value tuple the
    original LA011–LA014 rules consume; ``args``/``kwargs`` preserve the
    call structure for slot-aligned rules (LA018), and ``callees``
    is the set of substrate kernel names the call may resolve to (empty
    when the callee is an unresolved callable parameter).
    """
    callee: str
    values: tuple
    node: object
    args: tuple = ()
    kwargs: tuple = ()      # ((name, value), ...)
    callees: frozenset = frozenset()
    depth: int = 0


@dataclass(frozen=True)
class Checkpoint:
    """A ``deadlines.check(srname, stage, ...)`` call."""
    stage: str | None
    node: object
    depth: int = 0


@dataclass(frozen=True)
class Access:
    """One read or write of a guarded name, with the locks held.

    ``node``/``path`` locate the access in the module whose source
    textually contains it — for accesses replayed out of a helper
    summary that is the *helper's* file, so reports and pragma lookups
    land on the real line.  ``site``/``site_path`` name the *first*
    call expression the access was replayed through (``None`` for a
    function's own statements) — the line where the guarded module's
    API was invoked — letting a pragma at that call site cover
    cross-module check-then-act sequences.
    """
    name: str               # guarded name ("_FAULTS", "RateLimiter._seen")
    kind: str               # "read" | "write"
    lock: str               # lock the GUARDED_BY table requires
    locks: frozenset        # (lock, region) pairs held at the access
    node: object
    path: str
    site: object = None
    site_path: str = ""
    depth: int = 0


@dataclass(frozen=True)
class Acquire:
    """One lock acquisition (``with`` entry or ``.acquire()``) with the
    set of lock names already held when it happens."""
    lock: str
    held: frozenset         # lock names held on entry
    reentrant: bool
    node: object
    path: str
    site: object = None
    depth: int = 0


@dataclass(frozen=True)
class Escape:
    """A thread-local-derived value stored into long-lived state."""
    source: str             # thread-local name the value came from
    target: str             # module global / guarded name stored into
    node: object
    path: str
    site: object = None
    depth: int = 0


@dataclass(frozen=True)
class TLSRef:
    """Abstract value: derived from thread-local state ``source``."""
    source: str


class FlowInterpreter:
    """The spec-agnostic interpreter core over one function body.

    Subclasses (or the summary engine) seed ``env`` and drive
    :meth:`_exec_block`; events accumulate on the instance.
    """

    def __init__(self, module, func, substrate=frozenset(),
                 summaries=None, depth=0):
        self.module = module
        self.func = func
        self.substrate = set(substrate)
        self.summaries = summaries
        self.depth = depth
        self.allocs: list[V.AllocSite] = []
        self.writes: list[Write] = []
        self.sinks: list[Sink] = []
        self.checkpoints: list[Checkpoint] = []
        self.returns: list = []
        self.dim_defs: list[tuple] = []   # (var, Dim, node)
        self.spec_dims: dict = {}
        self.callable_params: set = set()
        # Concurrency model — inert defaults: driver flows never set
        # these, so the lock model costs the dataflow rules nothing.
        self.guarded: dict = {}          # access key -> (name, lock)
        self.lock_table: dict = {}       # "STATE_LOCK"/"self._lock" -> id
        self.reentrant_locks: set = set()
        self.module_globals: set = set()
        self.tls_names: set = set()
        self.accesses: list = []
        self.acquires: list = []
        self.escapes: list = []
        self._regions = 0

    # -- statements -------------------------------------------------

    def _exec_block(self, stmts, env):
        for stmt in stmts:
            self._exec(stmt, env)
        return env

    def _exec(self, stmt, env):
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, value, stmt, env)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(stmt.target, self._eval(stmt.value, env),
                         stmt, env)
        elif isinstance(stmt, ast.AugAssign):
            self._eval(stmt.value, env)
            # An augmented store is one locked RMW at the bytecode-free
            # level this model cares about: record a single "write" so
            # ``+= 1`` counters never pair into a split check-then-act.
            if isinstance(stmt.target, ast.Subscript):
                self._record_subscript_write(stmt.target, V.UNKNOWN,
                                             stmt, env, via="aug")
            elif isinstance(stmt.target, ast.Name):
                self._record_access(stmt.target.id, "write", stmt, env)
                env[stmt.target.id] = V.UNKNOWN
            elif isinstance(stmt.target, ast.Attribute) \
                    and isinstance(stmt.target.value, ast.Name):
                key = f"{stmt.target.value.id}.{stmt.target.attr}"
                if not self._record_access(key, "write", stmt, env):
                    self._record_access(stmt.target.value.id, "write",
                                        stmt, env)
                env[key] = V.UNKNOWN
        elif isinstance(stmt, ast.Return):
            value = self._eval(stmt.value, env) \
                if stmt.value is not None else V.UNKNOWN
            self.returns.append(value)
        elif isinstance(stmt, ast.Expr):
            if stmt.value is not None:
                self._eval(stmt.value, env)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, env)
            then_env = self._exec_block(stmt.body, dict(env))
            else_env = self._exec_block(stmt.orelse, dict(env))
            env.clear()
            env.update(self._merge_envs(then_env, else_env))
        elif isinstance(stmt, ast.With):
            pairs = []
            for item in stmt.items:
                lock = self._lock_id(item.context_expr)
                if lock is not None:
                    pairs.append(self._push_lock(lock, env,
                                                 item.context_expr))
                else:
                    self._eval(item.context_expr, env)
            self._exec_block(stmt.body, env)
            if pairs:
                env[LOCKSET] = env.get(LOCKSET, frozenset()) \
                    - frozenset(pairs)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                base = target.value \
                    if isinstance(target, ast.Subscript) else target
                if isinstance(target, ast.Subscript):
                    self._eval(target.slice, env)
                if isinstance(base, ast.Name):
                    self._record_access(base.id, "write", stmt, env)
                elif isinstance(base, ast.Attribute) \
                        and isinstance(base.value, ast.Name):
                    self._record_access(
                        f"{base.value.id}.{base.attr}", "write", stmt,
                        env)
        elif isinstance(stmt, (ast.For, ast.While)):
            fork = dict(env)
            if isinstance(stmt, ast.For):
                self._eval(stmt.iter, fork)
                self._assign(stmt.target, V.UNKNOWN, stmt, fork)
            else:
                self._eval(stmt.test, fork)
            body_env = self._exec_block(stmt.body, fork)
            body_env = self._exec_block(stmt.orelse, body_env)
            merged = self._merge_envs(env, body_env)
            env.clear()
            env.update(merged)
        elif isinstance(stmt, ast.Try):
            pre = dict(env)
            self._exec_block(stmt.body, env)
            merged = env
            for handler in stmt.handlers:
                h_env = self._exec_block(handler.body, dict(pre))
                merged = self._merge_envs(merged, h_env)
            env.clear()
            env.update(merged)
            self._exec_block(stmt.finalbody, env)
        # Raise / Pass / Global / etc.: nothing to track.

    @staticmethod
    def _merge_envs(e1, e2):
        out = {}
        for key in set(e1) | set(e2):
            if key == LOCKSET:
                s1 = e1.get(key, frozenset())
                s2 = e2.get(key, frozenset())
                names = {l for l, _ in s1} & {l for l, _ in s2}
                out[key] = frozenset(p for p in s1 | s2
                                     if p[0] in names)
                continue
            out[key] = V.merge_values(e1.get(key, V.UNKNOWN),
                                      e2.get(key, V.UNKNOWN))
        return out

    # -- lock model -------------------------------------------------

    def _lock_id(self, expr):
        """Lock id for a ``with``/.acquire() context expression."""
        if isinstance(expr, ast.Name):
            return self.lock_table.get(expr.id)
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name):
            return self.lock_table.get(f"{expr.value.id}.{expr.attr}")
        return None

    def _push_lock(self, lock, env, node):
        held = env.get(LOCKSET, frozenset())
        self.acquires.append(Acquire(
            lock=lock, held=frozenset(l for l, _ in held),
            reentrant=lock in self.reentrant_locks, node=node,
            path=self.module.path, depth=self.depth))
        self._regions += 1
        pair = (lock, self._regions)
        env[LOCKSET] = held | {pair}
        return pair

    def _record_access(self, key, kind, node, env) -> bool:
        entry = self.guarded.get(key)
        if entry is None:
            return False
        name, lock = entry
        self.accesses.append(Access(
            name=name, kind=kind, lock=lock,
            locks=env.get(LOCKSET, frozenset()),
            node=node, path=self.module.path, depth=self.depth))
        return True

    def _record_escape(self, value, target, node):
        if isinstance(value, TLSRef):
            self.escapes.append(Escape(
                source=value.source, target=target, node=node,
                path=self.module.path, depth=self.depth))

    def _assign(self, target, value, stmt, env):
        if isinstance(target, ast.Name):
            self._record_access(target.id, "write", stmt, env)
            if target.id in self.module_globals:
                self._record_escape(value, target.id, stmt)
            env[target.id] = value
            if target.id in self.spec_dims \
                    and isinstance(value, V.DimScalar):
                self.dim_defs.append((target.id, value.dim, stmt))
        elif isinstance(target, (ast.Tuple, ast.List)):
            items = value.items if isinstance(value, V.TupleVal) \
                and len(value.items) == len(target.elts) \
                else (V.UNKNOWN,) * len(target.elts)
            for elt, item in zip(target.elts, items):
                if not isinstance(elt, ast.Starred):
                    self._assign(elt, item, stmt, env)
        elif isinstance(target, ast.Subscript):
            self._record_subscript_write(target, value, stmt, env,
                                         via="slice")
        elif isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name):
            # ``res.af = ...`` — track the attribute as a pseudo-local
            # so later reads (``potrf(res.af)``) keep the value.
            key = f"{target.value.id}.{target.attr}"
            if not self._record_access(key, "write", stmt, env):
                self._record_access(target.value.id, "write", stmt, env)
            env[key] = value

    def _record_subscript_write(self, target, value, stmt, env, via):
        base = target.value
        if isinstance(base, ast.Attribute) \
                and isinstance(base.value, ast.Name):
            self._record_access(f"{base.value.id}.{base.attr}", "write",
                                stmt, env)
            return
        if not isinstance(base, ast.Name):
            return
        self._record_access(base.id, "write", stmt, env)
        if base.id in self.module_globals:
            self._record_escape(value, base.id, stmt)
        held = env.get(base.id, V.UNKNOWN)
        names = held.origins if isinstance(held, V.ArrayVal) \
            else frozenset()
        self.writes.append(Write(names=names, value=value, node=stmt,
                                 via=via, depth=self.depth))

    # -- expressions ------------------------------------------------

    def _eval(self, node, env):
        if isinstance(node, ast.Name):
            self._record_access(node.id, "read", node, env)
            if node.id in self.tls_names:
                return TLSRef(node.id)
            if node.id in env:
                return env[node.id]
            if node.id in self.substrate:
                return V.KernelRef(frozenset({node.id}))
            return V.UNKNOWN
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int) \
                    and not isinstance(node.value, bool):
                return V.DimScalar(V.const(node.value))
            return V.UNKNOWN
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, env)
        if isinstance(node, ast.UnaryOp):
            val = self._eval(node.operand, env)
            if isinstance(node.op, ast.USub) \
                    and isinstance(val, V.DimScalar):
                return V.DimScalar(V.scale(val.dim, -1))
            return V.UNKNOWN
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, env)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node, env)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env)
            return V.merge_values(self._eval(node.body, env),
                                  self._eval(node.orelse, env))
        if isinstance(node, (ast.Tuple, ast.List)):
            return V.TupleVal(tuple(self._eval(e, env)
                                    for e in node.elts))
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            for sub in ast.iter_child_nodes(node):
                if isinstance(sub, ast.expr):
                    self._eval(sub, env)
            return V.UNKNOWN
        return V.UNKNOWN

    def _eval_binop(self, node, env):
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        if isinstance(left, V.DimScalar) and isinstance(right, V.DimScalar):
            if isinstance(node.op, ast.Add):
                return V.DimScalar(V.add(left.dim, right.dim))
            if isinstance(node.op, ast.Sub):
                return V.DimScalar(V.sub(left.dim, right.dim))
            if isinstance(node.op, ast.Mult):
                k = V.as_const(left.dim)
                if k is not None:
                    return V.DimScalar(V.scale(right.dim, k))
                k = V.as_const(right.dim)
                if k is not None:
                    return V.DimScalar(V.scale(left.dim, k))
        return V.UNKNOWN

    def _eval_attribute(self, node, env):
        val = self._eval(node.value, env)
        if isinstance(val, TLSRef):
            return val
        if isinstance(node.value, ast.Name):
            self._record_access(f"{node.value.id}.{node.attr}", "read",
                                node, env)
        if isinstance(val, V.ArrayVal):
            if node.attr == "shape":
                if val.shape is None:
                    return V.UNKNOWN
                return V.TupleVal(tuple(V.DimScalar(d)
                                        for d in val.shape))
            if node.attr == "T":
                shape = tuple(reversed(val.shape)) \
                    if val.shape is not None else None
                return V.ArrayVal(shape=shape, dtype=val.dtype,
                                  origins=val.origins, allocs=val.allocs)
            if node.attr in ("real", "imag"):
                return V.ArrayVal(shape=val.shape, dtype=val.dtype,
                                  origins=val.origins, allocs=val.allocs)
        if isinstance(node.value, ast.Name):
            key = f"{node.value.id}.{node.attr}"
            if key in env:
                return env[key]
        return V.UNKNOWN

    def _eval_subscript(self, node, env):
        base = self._eval(node.value, env)
        if isinstance(base, V.TupleVal):
            idx = node.slice
            if isinstance(idx, ast.Constant) \
                    and isinstance(idx.value, int) \
                    and -len(base.items) <= idx.value < len(base.items):
                return base.items[idx.value]
            return V.UNKNOWN
        if isinstance(base, V.ArrayVal):
            # A slice/index view keeps provenance but loses exact shape.
            return V.ArrayVal(shape=None, dtype=base.dtype,
                              origins=base.origins, allocs=base.allocs)
        return V.UNKNOWN

    # -- calls ------------------------------------------------------

    def _eval_call(self, call, env):
        name = call_name(call)
        func = call.func

        if isinstance(func, ast.Attribute) and func.attr == "copy":
            base = self._eval(func.value, env)
            if isinstance(base, V.ArrayVal):
                site = self._alloc(call, base.shape, base.dtype)
                return V.ArrayVal(shape=base.shape, dtype=base.dtype,
                                  allocs=frozenset({site.index}))
            return V.UNKNOWN
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            base = self._eval(func.value, env)
            dtype = self._eval_dtype(call.args[0], env) if call.args \
                else V.DT_UNKNOWN
            if isinstance(base, V.ArrayVal):
                site = self._alloc(call, base.shape, dtype)
                return V.ArrayVal(shape=base.shape, dtype=dtype,
                                  allocs=frozenset({site.index}))
            return V.UNKNOWN

        # Explicit ``LOCK.acquire()`` / ``LOCK.release()`` — the
        # non-``with`` half of the lock model (joins at branch merges
        # are only interesting because these exist).
        if isinstance(func, ast.Attribute) \
                and func.attr in ("acquire", "release"):
            lock = self._lock_id(func.value)
            if lock is not None:
                if func.attr == "acquire":
                    self._push_lock(lock, env, call)
                else:
                    held = env.get(LOCKSET, frozenset())
                    env[LOCKSET] = frozenset(
                        p for p in held if p[0] != lock)
                return V.UNKNOWN

        # ``deadlines.check(srname, stage, ...)`` — a stage checkpoint.
        if isinstance(func, ast.Attribute) and func.attr == "check" \
                and isinstance(func.value, ast.Name) \
                and func.value.id == "deadlines":
            stage = None
            if len(call.args) >= 2 \
                    and isinstance(call.args[1], ast.Constant) \
                    and isinstance(call.args[1].value, str):
                stage = call.args[1].value
            self._eval_rest(call, env)
            self.checkpoints.append(Checkpoint(stage=stage, node=call,
                                               depth=self.depth))
            return V.UNKNOWN

        if name in ALLOCATORS:
            return self._eval_allocator(call, name, env)
        if name in LIKE_ALLOCATORS:
            base = self._eval(call.args[0], env) if call.args \
                else V.UNKNOWN
            dtype = self._dtype_kw(call, env)
            if isinstance(base, V.ArrayVal):
                if dtype is None:
                    dtype = base.dtype
                site = self._alloc(call, base.shape, dtype)
                return V.ArrayVal(shape=base.shape, dtype=dtype,
                                  allocs=frozenset({site.index}))
            site = self._alloc(call, None, dtype or V.DT_UNKNOWN)
            return V.ArrayVal(allocs=frozenset({site.index}),
                              dtype=dtype or V.DT_UNKNOWN)
        if name in PASSTHROUGH:
            self._eval_rest(call, env, skip=1)
            return self._eval(call.args[0], env) if call.args \
                else V.UNKNOWN

        if name in ("min", "max") and isinstance(func, ast.Name):
            dims = [self._as_dim(self._eval(a, env)) for a in call.args]
            if len(dims) == 2:
                joined = (V.dim_min if name == "min"
                          else V.dim_max)(dims[0], dims[1])
                if joined is not None:
                    return V.DimScalar(joined)
            return V.UNKNOWN
        if name == "len" and call.args:
            val = self._eval(call.args[0], env)
            if isinstance(val, V.ArrayVal) and val.shape:
                return V.DimScalar(val.shape[0])
            return V.UNKNOWN
        if name == "int" and call.args:
            val = self._eval(call.args[0], env)
            return val if isinstance(val, V.DimScalar) else V.UNKNOWN

        if name == "as_matrix" and call.args:
            val = self._eval(call.args[0], env)
            if isinstance(val, V.ArrayVal):
                mat = V.ArrayVal(shape=None, dtype=val.dtype,
                                 origins=val.origins, allocs=val.allocs)
                return V.TupleVal((mat, V.UNKNOWN))
            return V.TupleVal((V.UNKNOWN, V.UNKNOWN))
        if name == "_store" and len(call.args) >= 2:
            target = self._eval(call.args[0], env)
            value = self._eval(call.args[1], env)
            names = target.origins if isinstance(target, V.ArrayVal) \
                else frozenset()
            self.writes.append(Write(names=names, value=value,
                                     node=call, via="store",
                                     depth=self.depth))
            return V.merge_values(target, value)

        callees = frozenset()
        is_sink = False
        if name is not None and name in self.substrate:
            is_sink = True
            callees = frozenset({name})
        elif isinstance(func, ast.Name):
            held = env.get(func.id)
            if isinstance(held, V.KernelRef):
                is_sink = True
                callees = held.names
            elif func.id in self.callable_params:
                is_sink = True
        if is_sink:
            argvals = tuple(self._eval(a, env) for a in call.args)
            kwvals = tuple((kw.arg, self._eval(kw.value, env))
                           for kw in call.keywords
                           if kw.value is not None)
            self.sinks.append(Sink(
                callee=name or "?",
                values=argvals + tuple(v for _, v in kwvals),
                node=call, args=argvals, kwargs=kwvals,
                callees=callees, depth=self.depth))
            return V.UNKNOWN

        # Interprocedural step: same-module / auxmod helpers resolve
        # through the summary engine instead of poisoning the env.
        clean_call = not any(kw.arg is None for kw in call.keywords) \
            and not any(isinstance(a, ast.Starred) for a in call.args)
        if self.summaries is not None and isinstance(func, ast.Name) \
                and clean_call:
            target = self.summaries.resolve(self.module, func.id)
            if target is not None:
                return self._apply_summary(call, target, env)
        # Module-attribute calls (``cache.lookup(a)``) resolve through
        # the engine's import map when it provides one — the
        # concurrency pass inlines calls into state-owning modules.
        if self.summaries is not None \
                and isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) and clean_call:
            resolve_attr = getattr(self.summaries, "resolve_attr", None)
            if resolve_attr is not None:
                target = resolve_attr(self.module, func.value.id,
                                      func.attr)
                if target is not None:
                    return self._apply_summary(call, target, env)

        return self._eval_generic(call, env)

    def _apply_summary(self, call, target, env):
        argvals = [self._eval(a, env) for a in call.args]
        kwvals = {kw.arg: self._eval(kw.value, env)
                  for kw in call.keywords}
        # Call context for event replay: the caller's lockset (unioned
        # onto replayed accesses/acquires) and the call node (the
        # ``site`` stamped on events replayed into a root).
        self._call_node = call
        self._call_lockset = env.get(LOCKSET, frozenset())
        result = self.summaries.apply(self, target, argvals, kwvals)
        if result is not self.summaries.NO_SUMMARY:
            return result
        return V.UNKNOWN

    def _eval_generic(self, call, env):
        """Evaluate an unmodelled call: arguments for side effects,
        guarded receivers as reads/writes, thread-local provenance."""
        func = call.func
        argvals = [self._eval(a, env) for a in call.args]
        for kw in call.keywords:
            if kw.value is not None:
                self._eval(kw.value, env)
        if isinstance(func, ast.Name) and func.id == "getattr" \
                and argvals and isinstance(argvals[0], TLSRef):
            return argvals[0]
        if isinstance(func, ast.Attribute):
            base = func.value
            recv_key = None
            if isinstance(base, ast.Name):
                recv_key = base.id
            elif isinstance(base, ast.Attribute) \
                    and isinstance(base.value, ast.Name):
                recv_key = f"{base.value.id}.{base.attr}"
            if recv_key is not None:
                mutating = func.attr in MUTATORS
                if recv_key in self.guarded:
                    self._record_access(
                        recv_key, "write" if mutating else "read",
                        call, env)
                if mutating and (recv_key in self.module_globals
                                 or recv_key in self.guarded):
                    for v in argvals:
                        self._record_escape(v, recv_key, call)
                if recv_key not in self.guarded:
                    recv = self._eval(base, env)
                    if isinstance(recv, TLSRef):
                        return recv
        return V.UNKNOWN

    def _eval_rest(self, call, env, skip=0):
        """Evaluate remaining call arguments for their side effects
        (nested ``_store``/allocations) without modelling the call."""
        for a in call.args[skip:]:
            self._eval(a, env)
        for kw in call.keywords:
            if kw.value is not None:
                self._eval(kw.value, env)

    def _eval_allocator(self, call, name, env):
        shape = None
        if call.args:
            first = call.args[0]
            if isinstance(first, (ast.Tuple, ast.List)):
                shape = tuple(self._as_dim(self._eval(e, env))
                              for e in first.elts)
            else:
                shape = (self._as_dim(self._eval(first, env)),)
        dtype = self._dtype_kw(call, env)
        if dtype is None and name in ("zeros", "empty", "ones") \
                and len(call.args) >= 2:
            dtype = self._eval_dtype(call.args[1], env)
        if dtype is None:
            dtype = V.DT_DEFAULT
        site = self._alloc(call, shape, dtype)
        return V.ArrayVal(shape=shape, dtype=dtype,
                          allocs=frozenset({site.index}))

    def _dtype_kw(self, call, env):
        for kw in call.keywords:
            if kw.arg == "dtype":
                return self._eval_dtype(kw.value, env)
        return None

    def _alloc(self, node, shape, dtype) -> V.AllocSite:
        site = V.AllocSite(index=len(self.allocs), node=node,
                           shape=shape, dtype=dtype)
        self.allocs.append(site)
        return site

    @staticmethod
    def _as_dim(val):
        return val.dim if isinstance(val, V.DimScalar) else None

    # -- dtype expressions ------------------------------------------

    def _eval_dtype(self, node, env):
        if isinstance(node, ast.Name):
            return V.dt_fixed(node.id) if node.id in V.FIXED_INEXACT \
                or node.id in ("int", "bool") or "int" in node.id \
                else V.DT_UNKNOWN
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            label = node.value
            return V.dt_fixed(label)
        if isinstance(node, ast.Attribute):
            if node.attr == "dtype":
                base = self._eval(node.value, env)
                if isinstance(base, V.ArrayVal):
                    if base.dtype != V.DT_UNKNOWN:
                        return base.dtype
                    if base.origins:
                        return V.dt_follows(base.origins)
                return V.DT_UNKNOWN
            # np.float64 / np.intp / np.complex128 ...
            return V.dt_fixed(node.attr)
        if isinstance(node, ast.Call):
            if call_name(node) in ("result_type", "promote_types",
                                   "common_type"):
                origins = set()
                for a in node.args:
                    val = self._eval(a, env)
                    if isinstance(val, V.ArrayVal):
                        origins |= val.origins
                return V.dt_follows(origins) if origins else V.DT_UNKNOWN
            return V.DT_UNKNOWN
        if isinstance(node, ast.IfExp):
            d1 = self._eval_dtype(node.body, env)
            d2 = self._eval_dtype(node.orelse, env)
            return d1 if d1 == d2 else V.DT_UNKNOWN
        return V.DT_UNKNOWN


class DriverFlow(FlowInterpreter):
    """Interpret one driver implementation against its spec."""

    def __init__(self, impl, spec, summaries=None):
        super().__init__(module=impl.impl_module, func=impl.func,
                         substrate=impl.impl_module.substrate_names,
                         summaries=summaries, depth=0)
        self.impl = impl
        self.spec = spec
        self.spec_dims = spec_dim_formulas(spec)

        pos_to_arg = {a.position: a for a in spec.args}
        self.param_args = {}
        params = [a.arg for a in (list(impl.func.args.posonlyargs)
                                  + list(impl.func.args.args))]
        for pname in params:
            arg = pos_to_arg.get(impl.posmap.get(pname))
            if arg is not None:
                self.param_args[pname] = arg
        # Helper parameters with no spec mapping may hold the bound
        # kernel (``driver(ap, n, ...)``); calls through them are sinks.
        self.callable_params = {p for p in params
                                if p not in self.param_args}

    # -- driving ----------------------------------------------------

    def run(self) -> "DriverFlow":
        env = {}
        for pname, arg in self.param_args.items():
            env[pname] = self._seed(arg)
        # Delegation sites that pass substrate kernels by name bind the
        # receiving helper parameter to a kernel reference, so calls
        # through it resolve to the concrete kernel.
        for pname, kernel in getattr(self.impl, "callmap", {}).items():
            env[pname] = V.KernelRef(frozenset({kernel}))
        self._exec_block(body_statements(self.impl.func), env)
        return self

    @staticmethod
    def _seed(arg):
        origins = frozenset({arg.name})
        dtype = V.dt_follows({arg.name})
        if arg.kind == "matrix":
            return V.ArrayVal(shape=(V.atom(("rows", arg.name)),
                                     V.atom(("cols", arg.name))),
                              dtype=dtype, origins=origins)
        if arg.kind == "vector":
            return V.ArrayVal(shape=(V.atom(("len", arg.name)),),
                              dtype=dtype, origins=origins)
        if arg.kind == "rhs":
            return V.ArrayVal(shape=None, dtype=dtype, origins=origins)
        return V.UNKNOWN
