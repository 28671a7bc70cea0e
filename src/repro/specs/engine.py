"""Spec-driven argument validation, compiled.

Each :class:`~repro.specs.model.DriverSpec` is compiled, on first use,
into one straight-line Python function (:attr:`DriverSpec.validator`):
keyword parameters for every argument the ladder names (defaulting to
``None``, extras swallowed by ``**_extra``), each derived dimension as a
local, and each check as an inline predicate in its own ``try`` block.
The function returns the first violated check's negative ``LINFO`` code
(0 when the arguments conform).  The semantics of every check kind
reproduce the hand-written ladders the drivers used before the spec
layer existed — in particular the ladders are *first-failure-wins* and
never raise: a malformed argument (wrong type, empty option string)
maps to its negative code rather than an exception, which is the
wrapper contract's whole point.

The predicates below are written out here (the ``lsame`` test
included) instead of importing :mod:`repro.core.auxmod`, keeping
``repro.specs`` import-light and free of cycles with the driver layer.
The interpreter these validators replaced lives on in the test suite
as their oracle: for every registered spec, the compiled function must
return the interpreter's code on well-formed and malformed arguments
alike.
"""

from __future__ import annotations

import keyword

import numpy as np

from .model import DriverSpec
from .registry import SPECS

__all__ = ["validate", "validate_args", "validate_batch",
           "compile_validator"]


# -- helpers the generated code calls ----------------------------------

def _tri(ap):
    """Triangle order recovered from a packed length (``_packed_ev``)."""
    if not isinstance(ap, np.ndarray) or ap.ndim != 1:
        return -1
    ln = ap.shape[0]
    n = int((np.sqrt(8 * ln + 1) - 1) / 2 + 0.5)
    return n if n * (n + 1) // 2 == ln else -1


def _cu_gels_b(ctx):
    """``la_gels``: b rows must match op(A) — m for trans='N', n
    otherwise — or max(m, n) for the padded workspace form."""
    a, b, trans = ctx.get("a"), ctx.get("b"), ctx.get("trans")
    lsame_n = bool(trans) and trans[0].upper() == "N"
    rows = a.shape[0] if lsame_n else a.shape[1]
    return not isinstance(b, np.ndarray) or b.ndim not in (1, 2) \
        or b.shape[0] not in (rows, max(a.shape))


def _cu_ls_b(ctx):
    """``la_gelsx``/``la_gelss``: b rows in (m, max(m, n))."""
    a, b = ctx.get("a"), ctx.get("b")
    return not isinstance(b, np.ndarray) or b.ndim not in (1, 2) \
        or b.shape[0] not in (a.shape[0], max(a.shape))


def _cu_gglse_b(ctx):
    """``la_gglse``: B is p-by-n with p <= n <= m + p."""
    a, b = ctx.get("a"), ctx.get("b")
    if not isinstance(b, np.ndarray) or b.ndim != 2 \
            or b.shape[1] != a.shape[1]:
        return True
    m, n, p = a.shape[0], a.shape[1], b.shape[0]
    return not p <= n <= m + p


def _cu_glm_b(ctx):
    """``la_ggglm``: A n-by-m, B n-by-p with m <= n <= m + p."""
    a, b = ctx.get("a"), ctx.get("b")
    if not isinstance(b, np.ndarray) or b.ndim != 2 \
            or b.shape[0] != a.shape[0]:
        return True
    n, m, p = a.shape[0], a.shape[1], b.shape[1]
    return not m <= n <= m + p


def _cu_getrf_rcond(ctx):
    """``la_getrf``: a condition estimate needs a square matrix."""
    a = ctx.get("a")
    return bool(ctx.get("rcond")) and a.shape[0] != a.shape[1]


#: The names every generated validator sees as globals.
_NAMESPACE = {
    "_nd": np.ndarray,
    "_shape": np.shape,
    "_tri": _tri,
    "_cu_gels_b": _cu_gels_b,
    "_cu_ls_b": _cu_ls_b,
    "_cu_gglse_b": _cu_gglse_b,
    "_cu_glm_b": _cu_glm_b,
    "_cu_getrf_rcond": _cu_getrf_rcond,
}


# -- the compiler --------------------------------------------------------

def _square(x):
    return (f"isinstance({x}, _nd) and {x}.ndim == 2 "
            f"and {x}.shape[0] == {x}.shape[1]")


def _rhs(x, dim):
    return f"isinstance({x}, _nd) and {x}.ndim in (1, 2) " \
           f"and {x}.shape[0] == {dim}"


def _veclen(x):
    return f"({x}.shape[0] if isinstance({x}, _nd) and {x}.ndim >= 1 " \
           f"else -1)"


def _lsame_any(x, options):
    """``lsame(x, o)`` for some ``o`` in *options*, as one test."""
    firsts = tuple(dict.fromkeys(o[0].upper() for o in options if o))
    if not firsts:
        return "False"
    return f"({x} and {x}[0].upper() in {firsts!r})"


def _predicate(c, consts, ctx):
    """``(statements, violated-expression)`` for one check; *ctx* is
    the source of the bound-arguments dict a custom predicate reads."""
    p, dim = c.params, (c.dim or "None")
    x = c.args[0] if c.args else None
    k = c.kind
    if k == "square":
        return [], f"not ({_square(x)})"
    if k == "square_conform":
        return [], f"not ({_square(x)}) or {x}.shape[0] != {dim}"
    if k == "matrix2d":
        return [], f"not (isinstance({x}, _nd) and {x}.ndim == 2)"
    if k == "vector1d":
        return [], f"not (isinstance({x}, _nd) and {x}.ndim == 1)"
    if k == "rhs":
        return [], f"not ({_rhs(x, dim)})"
    if k == "rhs_same":
        return [], (f"not ({_rhs(x, dim)}) "
                    f"or {x}.shape != _shape({p['ref']})")
    if k == "nonneg":
        return [], f"{dim} < 0"
    if k == "offdiag":
        op = "<" if p.get("mode") == "min" else "!="
        return [], (f"not isinstance({x}, _nd) "
                    f"or {x}.shape[0] {op} max(0, {dim} - 1)")
    if k == "offdiag_pair":
        tests = " or ".join(f"not isinstance({v}, _nd) "
                            f"or {v}.shape[0] != _want" for v in c.args)
        return [f"_want = max(0, {dim} - 1)"], tests or "False"
    if k == "optlen":
        return [], f"{x} is not None and {_veclen(x)} != {dim}"
    if k == "reqlen":
        return [], f"{_veclen(x)} != {dim}"
    if k == "minlen":
        guard = f"{x} is not None and " if p.get("optional") else ""
        want = f"max(0, {dim} + {p.get('offset', 0)})"
        return [], (f"{guard}({x}.shape[0] if isinstance({x}, _nd) "
                    f"else len({x})) < {want}")
    if k == "packed":
        head = f"not isinstance({x}, _nd) or {x}.ndim != 1"
        if c.dim is None:           # self-sized: order from the length
            return [], f"{head} or _tri({x}) < 0"
        return [], (f"{head} or ({dim} >= 0 and "
                    f"{x}.shape[0] != {dim} * ({dim} + 1) // 2)")
    if k == "flag":
        options = tuple(p["options"])
        mode = p.get("mode", "lsame")
        if mode == "lsame":
            return [], f"not {_lsame_any(x, options)}"
        opts = _const(consts, options)
        first = "[0]" if mode == "first" else ""
        return [], f"str({x}).upper(){first} not in {opts}"
    if k == "intenum":
        values = tuple(p["values"])
        return [], f"{x} not in {_const(consts, values)}"
    if k == "band":
        if p.get("style") == "gbx":
            default, ku = "(_rows - 1) // 2", "_rows - _kl - 1"
        else:
            default, ku = "(_rows - 1) // 3", "_rows - 2 * _kl - 1"
        return [f"_rows = {dim}", f"_kl = {x}",
                f"if _kl is None: _kl = {default}",
                f"_ku = {ku}"], "_kl < 0 or _ku < 0"
    if k == "fact_requires":
        missing = " or ".join(f"{v} is None" for v in c.args[1:])
        return [], (f"{_lsame_any(x, ('F',))} "
                    f"and ({missing or 'False'})")
    if k == "range_pair":
        lo, hi = c.args[:2]
        return [], f"{lo} is not None and {hi} is not None and {lo} >= {hi}"
    if k == "index_pair":
        lo, hi = c.args[:2]
        return [], (f"{lo} is not None and {hi} is not None "
                    f"and not 0 <= {lo} <= {hi}")
    if k == "same_shape":
        return [], (f"not isinstance({x}, _nd) "
                    f"or {x}.shape != _shape({p['ref']})")
    if k == "cols_conform":
        ref = p["ref"]
        return [], (f"not (isinstance({x}, _nd) and {x}.ndim == 2) "
                    f"or not (isinstance({ref}, _nd) and {ref}.ndim == 2) "
                    f"or {x}.shape[1] != {ref}.shape[1]")
    if k == "square_same":
        return [], (f"not ({_square(x)}) "
                    f"or {x}.shape != _shape({p['ref']})")
    if k == "custom":
        fn = "_cu_" + p["name"]
        if fn not in _NAMESPACE:
            raise ValueError(f"unknown custom check {p['name']!r}")
        return [], f"{fn}({ctx})"
    raise ValueError(f"unknown check kind {k!r}")


def _const(consts, value):
    """Bind *value* as a global of the generated function; its name."""
    name = f"_k{len(consts)}"
    consts[name] = value
    return name


def _dim_expr(source, refs):
    r = refs[0] if refs else None
    if source == "rows2d":
        return f"{r}.shape[0] if isinstance({r}, _nd) and {r}.ndim == 2 " \
               f"else -1"
    if source == "cols2d":
        return f"{r}.shape[1] if isinstance({r}, _nd) and {r}.ndim == 2 " \
               f"else -1"
    if source == "len":
        return f"{r}.shape[0] if isinstance({r}, _nd) and {r}.ndim >= 1 " \
               f"else -1"
    if source == "tri":
        return f"_tri({r})"
    if source == "min":
        if len(refs) > 1:
            return f"min({', '.join(refs)})"
        return refs[0] if refs else "-1"
    raise ValueError(f"unknown dimension source {source!r}")


def _names(spec):
    """Every name the ladder reads, in first-use order: the spec's
    arguments, then dimensions, check operands and reference args."""
    seen = dict.fromkeys(a.name for a in spec.args)
    for var, _source, *refs in spec.dims:
        seen.update(dict.fromkeys([var, *refs]))
    for c in spec.checks:
        seen.update(dict.fromkeys(c.args))
        if c.dim is not None:
            seen[c.dim] = None
        if "ref" in c.params:
            seen[c.params["ref"]] = None
    for name in seen:
        if not name.isidentifier() or keyword.iskeyword(name) \
                or name.startswith("_"):
            raise ValueError(f"{spec.name}: cannot compile a validator "
                             f"over argument name {name!r}")
    return tuple(seen)


def _validator_source(spec: DriverSpec) -> tuple:
    """``(source, constants)`` of *spec*'s validator function."""
    names = _names(spec)
    consts: dict = {}
    params = ", ".join(f"{n}=None" for n in names)
    ctx = "{**_extra, " + ", ".join(f"{n!r}: {n}" for n in names) + "}"
    lines = [f"def _validator(*, {params}, **_extra):"]
    for var, source, *refs in spec.dims:
        lines.append(f"    {var} = {_dim_expr(source, refs)}")
    for c in spec.checks:
        stmts, expr = _predicate(c, consts, ctx)
        code = int(c.code)
        lines.append("    try:")
        lines.extend(f"        {s}" for s in stmts)
        lines += [f"        if {expr}:",
                  f"            return {code}",
                  "    except Exception:",
                  f"        return {code}"]
    lines.append("    return 0")
    return "\n".join(lines) + "\n", consts


def compile_validator(spec: DriverSpec):
    """Compile *spec*'s ladder into ``validator(**bound) -> LINFO``.

    Reached through the cached :attr:`DriverSpec.validator` attribute,
    so each spec compiles once, on first use.
    """
    source, consts = _validator_source(spec)
    namespace = dict(_NAMESPACE, **consts)
    exec(compile(source, f"<validator {spec.name}>", "exec"), namespace)
    fn = namespace["_validator"]
    fn.__qualname__ = fn.__name__ = f"validator[{spec.name}]"
    return fn


# -- entry points -----------------------------------------------------

def validate(spec: DriverSpec, bound: dict) -> int:
    """First violated check's ``LINFO`` code for *bound* args, else 0."""
    return spec.validator(**bound)


def validate_args(driver: str, **bound) -> int:
    """Validate *bound* arguments against *driver*'s registered spec."""
    return SPECS[driver].validator(**bound)


# -- amortized batch mode ---------------------------------------------

#: Expected ndim of a *stacked* operand, per argument kind.  A matrix
#: gains exactly one leading batch axis; an rhs may be a stack of
#: vectors ``(batch, n)`` or of matrices ``(batch, n, nrhs)``; a vector
#: stacks to 2-D.
_STACK_NDIM = {"matrix": (3,), "rhs": (2, 3), "vector": (2,)}


def validate_batch(spec: DriverSpec, bound: dict) -> tuple:
    """Amortized batch-mode validation: ``(code, batch)``.

    The per-problem check ladder is *not* replayed ``batch`` times.
    Because a stack is one contiguous ndarray, every problem in it has
    identical trailing shapes and dtype, so the structural screen splits
    into (a) a stack-level pass over the array operands — present when
    required, an ndarray, carrying exactly one leading batch axis of a
    size agreed by all operands, walked from the per-spec
    :attr:`~repro.specs.model.DriverSpec.batch_walk` — and (b) **one**
    run of the spec's compiled validator over the problem-0
    cross-section, whose verdict then holds for the whole batch.
    Per-problem *value* screens (NaN/Inf) stay vectorized in
    :func:`repro.policy.screen_stack`.

    Returns the first violated check's negative ``LINFO`` code and the
    batch size (0 when no stacked operand is present or the leading axis
    is empty; the code is authoritative, the batch only meaningful when
    the code is 0).
    """
    batch = None
    cross = dict(bound)
    for name, position, required, ndims in spec.batch_walk:
        val = bound.get(name)
        if val is None:
            if required:
                return -position, 0
            continue
        if not isinstance(val, np.ndarray) or val.ndim not in ndims:
            return -position, 0
        if batch is None:
            batch = val.shape[0]
        elif val.shape[0] != batch:
            return -position, 0
        if batch:
            cross[name] = val[0]
    if not batch:
        return 0, 0
    return spec.validator(**cross), batch
