"""The interpreted validation engine, kept as the test oracle.

Until the check ladders were compiled (``repro.specs.engine``), this
interpreter ran every ``la_*`` driver's argument ladder: it walks a
:class:`~repro.specs.model.DriverSpec`'s derived dimensions and ordered
checks and returns the first violated check's code.  It is kept here so
the parity suite (``test_validator_parity.py``) can hold every compiled
validator to the exact codes the interpreter produces.  Like the
compiled validators it never raises: a 0-d array under a ``len``
dimension derives -1, and a predicate whose truth cannot be taken
(array-valued ``vl``/``vu``) counts as violated.
"""

from __future__ import annotations

import numpy as np

from repro.specs.model import DriverSpec

__all__ = ["validate", "KINDS", "DIM_SOURCES"]

# -- primitive predicates (auxmod-equivalent) -------------------------

def _lsame(ca, cb) -> bool:
    return bool(ca) and bool(cb) and ca[0].upper() == cb[0].upper()


def _is2d(a) -> bool:
    return isinstance(a, np.ndarray) and a.ndim == 2


def _square_ok(a) -> bool:
    return _is2d(a) and a.shape[0] == a.shape[1]


def _rhs_ok(rows, b) -> bool:
    return isinstance(b, np.ndarray) and b.ndim in (1, 2) \
        and b.shape[0] == rows


def _veclen(v) -> int:
    return v.shape[0] if isinstance(v, np.ndarray) and v.ndim >= 1 else -1


# -- derived dimensions ----------------------------------------------

def _dim_rows2d(ctx, ref):
    a = ctx.get(ref)
    return a.shape[0] if _is2d(a) else -1


def _dim_cols2d(ctx, ref):
    a = ctx.get(ref)
    return a.shape[1] if _is2d(a) else -1


def _dim_len(ctx, ref):
    v = ctx.get(ref)
    return v.shape[0] if isinstance(v, np.ndarray) and v.ndim >= 1 else -1


def _dim_tri(ctx, ref):
    """Triangle order recovered from a packed length (``_packed_ev``)."""
    ap = ctx.get(ref)
    if not isinstance(ap, np.ndarray) or ap.ndim != 1:
        return -1
    ln = ap.shape[0]
    n = int((np.sqrt(8 * ln + 1) - 1) / 2 + 0.5)
    return n if n * (n + 1) // 2 == ln else -1


def _dim_min(ctx, *refs):
    vals = [ctx[r] for r in refs]
    return min(vals) if vals else -1


_DIM_SOURCES = {
    "rows2d": _dim_rows2d,
    "cols2d": _dim_cols2d,
    "len": _dim_len,
    "tri": _dim_tri,
    "min": _dim_min,
}


# -- check kinds ------------------------------------------------------
# Each evaluator returns True when the check is VIOLATED.

def _ck_square(c, ctx):
    return not _square_ok(ctx.get(c.args[0]))


def _ck_square_conform(c, ctx):
    x = ctx.get(c.args[0])
    return not _square_ok(x) or x.shape[0] != ctx[c.dim]


def _ck_matrix2d(c, ctx):
    return not _is2d(ctx.get(c.args[0]))


def _ck_vector1d(c, ctx):
    v = ctx.get(c.args[0])
    return not (isinstance(v, np.ndarray) and v.ndim == 1)


def _ck_rhs(c, ctx):
    return not _rhs_ok(ctx[c.dim], ctx.get(c.args[0]))


def _ck_rhs_same(c, ctx):
    x = ctx.get(c.args[0])
    ref = ctx.get(c.params["ref"])
    return not _rhs_ok(ctx[c.dim], x) or np.shape(x) != np.shape(ref)


def _ck_nonneg(c, ctx):
    return ctx[c.dim] < 0


def _ck_offdiag(c, ctx):
    n = ctx[c.dim]
    v = ctx.get(c.args[0])
    want = max(0, n - 1)
    if not isinstance(v, np.ndarray):
        return True
    if c.params.get("mode") == "min":
        return v.shape[0] < want
    return v.shape[0] != want


def _ck_offdiag_pair(c, ctx):
    want = max(0, ctx[c.dim] - 1)
    for name in c.args:
        v = ctx.get(name)
        if not isinstance(v, np.ndarray) or v.shape[0] != want:
            return True
    return False


def _ck_optlen(c, ctx):
    v = ctx.get(c.args[0])
    return v is not None and _veclen(v) != ctx[c.dim]


def _ck_reqlen(c, ctx):
    return _veclen(ctx.get(c.args[0])) != ctx[c.dim]


def _ck_minlen(c, ctx):
    v = ctx.get(c.args[0])
    if v is None and c.params.get("optional"):
        return False
    want = max(0, ctx[c.dim] + c.params.get("offset", 0))
    ln = v.shape[0] if isinstance(v, np.ndarray) else len(v)
    return ln < want


def _ck_packed(c, ctx):
    ap = ctx.get(c.args[0])
    if not isinstance(ap, np.ndarray) or ap.ndim != 1:
        return True
    if c.dim is None:       # self-sized (order recovered from length)
        return _dim_tri(ctx, c.args[0]) < 0
    n = ctx[c.dim]
    return n >= 0 and ap.shape[0] != n * (n + 1) // 2


def _ck_flag(c, ctx):
    value = ctx.get(c.args[0])
    options = c.params["options"]
    mode = c.params.get("mode", "lsame")
    if mode == "exact":
        return str(value).upper() not in options
    if mode == "first":
        return str(value).upper()[0] not in options
    return not any(_lsame(value, o) for o in options)


def _ck_intenum(c, ctx):
    return ctx.get(c.args[0]) not in c.params["values"]


def _ck_band(c, ctx):
    """Band-width consistency for ``2*kl + ku + 1``-row (gb) or
    ``kl + ku + 1``-row (gbx) general band storage; ``kl`` defaults the
    LAPACK90 way when omitted."""
    rows = ctx[c.dim]
    kl = ctx.get(c.args[0])
    if c.params.get("style") == "gbx":
        if kl is None:
            kl = (rows - 1) // 2
        ku = rows - kl - 1
    else:
        if kl is None:
            kl = (rows - 1) // 3
        ku = rows - 2 * kl - 1
    return kl < 0 or ku < 0


def _ck_fact_requires(c, ctx):
    if not _lsame(ctx.get(c.args[0]), "F"):
        return False
    return any(ctx.get(name) is None for name in c.args[1:])


def _ck_range_pair(c, ctx):
    vl, vu = ctx.get(c.args[0]), ctx.get(c.args[1])
    return vl is not None and vu is not None and vl >= vu


def _ck_index_pair(c, ctx):
    il, iu = ctx.get(c.args[0]), ctx.get(c.args[1])
    return il is not None and iu is not None and not 0 <= il <= iu


def _ck_same_shape(c, ctx):
    x = ctx.get(c.args[0])
    ref = ctx.get(c.params["ref"])
    return not isinstance(x, np.ndarray) or x.shape != np.shape(ref)


def _ck_cols_conform(c, ctx):
    x = ctx.get(c.args[0])
    ref = ctx.get(c.params["ref"])
    return not _is2d(x) or not _is2d(ref) or x.shape[1] != ref.shape[1]


def _ck_square_same(c, ctx):
    x = ctx.get(c.args[0])
    ref = ctx.get(c.params["ref"])
    return not _square_ok(x) or x.shape != np.shape(ref)


def _ck_custom(c, ctx):
    return _CUSTOM[c.params["name"]](c, ctx)


# -- named one-off predicates ----------------------------------------

def _cu_gels_b(c, ctx):
    """``la_gels``: b rows must match op(A) — m for trans='N', n
    otherwise — or max(m, n) for the padded workspace form."""
    a, b, trans = ctx.get("a"), ctx.get("b"), ctx.get("trans")
    rows = a.shape[0] if _lsame(trans, "N") else a.shape[1]
    return not isinstance(b, np.ndarray) or b.ndim not in (1, 2) \
        or b.shape[0] not in (rows, max(a.shape))


def _cu_ls_b(c, ctx):
    """``la_gelsx``/``la_gelss``: b rows in (m, max(m, n))."""
    a, b = ctx.get("a"), ctx.get("b")
    return not isinstance(b, np.ndarray) or b.ndim not in (1, 2) \
        or b.shape[0] not in (a.shape[0], max(a.shape))


def _cu_gglse_b(c, ctx):
    """``la_gglse``: B is p-by-n with p <= n <= m + p."""
    a, b = ctx.get("a"), ctx.get("b")
    if not _is2d(b) or b.shape[1] != a.shape[1]:
        return True
    m, n, p = a.shape[0], a.shape[1], b.shape[0]
    return not p <= n <= m + p


def _cu_glm_b(c, ctx):
    """``la_ggglm``: A n-by-m, B n-by-p with m <= n <= m + p."""
    a, b = ctx.get("a"), ctx.get("b")
    if not _is2d(b) or b.shape[0] != a.shape[0]:
        return True
    n, m, p = a.shape[0], a.shape[1], b.shape[1]
    return not m <= n <= m + p


def _cu_getrf_rcond(c, ctx):
    """``la_getrf``: a condition estimate needs a square matrix."""
    a = ctx.get("a")
    return bool(ctx.get("rcond")) and a.shape[0] != a.shape[1]


_CUSTOM = {
    "gels_b": _cu_gels_b,
    "ls_b": _cu_ls_b,
    "gglse_b": _cu_gglse_b,
    "glm_b": _cu_glm_b,
    "getrf_rcond": _cu_getrf_rcond,
}

_KINDS = {
    "square": _ck_square,
    "square_conform": _ck_square_conform,
    "matrix2d": _ck_matrix2d,
    "vector1d": _ck_vector1d,
    "rhs": _ck_rhs,
    "rhs_same": _ck_rhs_same,
    "nonneg": _ck_nonneg,
    "offdiag": _ck_offdiag,
    "offdiag_pair": _ck_offdiag_pair,
    "optlen": _ck_optlen,
    "reqlen": _ck_reqlen,
    "minlen": _ck_minlen,
    "packed": _ck_packed,
    "flag": _ck_flag,
    "intenum": _ck_intenum,
    "band": _ck_band,
    "fact_requires": _ck_fact_requires,
    "range_pair": _ck_range_pair,
    "index_pair": _ck_index_pair,
    "same_shape": _ck_same_shape,
    "cols_conform": _ck_cols_conform,
    "square_same": _ck_square_same,
    "custom": _ck_custom,
}


# -- entry points -----------------------------------------------------

def validate(spec: DriverSpec, bound: dict) -> int:
    """First violated check's ``LINFO`` code for *bound* args, else 0."""
    ctx = dict(bound)
    for var, source, *refs in spec.dims:
        ctx[var] = _DIM_SOURCES[source](ctx, *refs)
    for check in spec.checks:
        try:
            bad = bool(_KINDS[check.kind](check, ctx))
        except Exception:
            bad = True      # malformed argument: report, never raise
        if bad:
            return check.code
    return 0


KINDS = _KINDS
DIM_SOURCES = _DIM_SOURCES
