"""The ``accelerated`` substrate: adapters over ``scipy.linalg.lapack``.

Each adapter presents the exact Python signature, in-place semantics and
``info`` conventions of its reference twin in :mod:`repro.lapack77`, so
the :mod:`repro.core` drivers cannot tell the substrates apart:

* the operands LAPACK overwrites (factors, solutions) are handed to
  the typed wrapper with their ``overwrite_*`` flags set when every one
  of them is writeable (f2py would write into a read-only array).  f2py
  then passes a native-dtype Fortran-contiguous operand straight to
  LAPACK, which works in place, and hands any other operand to LAPACK
  as a private Fortran-ordered copy.  The adapter writes an output back only when f2py handed back a
  new array, so a read-only operand raises on its write-back after
  LAPACK worked on copies only.  The ``*_stack`` adapters follow the
  same rule on one private copy per stack (:func:`_in_place`);
* f2py raises only before LAPACK runs (argument conversion and shape
  checks), so a failed adapter call leaves its operands untouched:
  every adapter is declared :attr:`~repro.backends.Backend.write_back`
  and a failure escalates once to the reference kernel;
* SciPy's LU pivots are already 0-based like ours; the Bunch–Kaufman
  ``ipiv`` from ``?sysv``/``?hesv`` is 1-based for interchanges and is
  shifted down (negative 2x2-block entries already match our encoding);
* on a positive ``info`` the right-hand side is left unsolved, matching
  LAPACK (and the reference kernels).  LAPACK itself skips the solve
  there; the NaN-pivot check this SciPy build needs (:func:`posv`)
  restores a right-hand side it solved in place;
* argument errors raise through :func:`repro.errors.xerbla` with the
  reference kernels' positions.

Only simple dense/band/tridiagonal drivers plus the dense symmetric
eigensolvers, SVD and GELS are adapted.  The computational kernels the
expert drivers build on (``sytrf``/``sytrs``, condition estimators,
refinement loops) stay on the reference substrate — their factored forms
and ``ipiv`` encodings would otherwise mix between substrates mid-driver.

``build_accelerated_backend`` returns ``None`` when SciPy is absent; the
registry then leaves the backend unregistered and selection degrades to
``reference`` per routine.
"""

from __future__ import annotations

import numpy as np

from ..errors import xerbla

try:
    from scipy.linalg import lapack as _scipy_lapack
except Exception:  # pragma: no cover - exercised on the no-SciPy CI leg
    _scipy_lapack = None

#: NumPy dtype char -> LAPACK precision prefix.
_PREFIX = {"f": "s", "d": "d", "F": "c", "D": "z"}

#: ``(routine, dtype char) -> typed SciPy wrapper`` (``("gesv", "d")``
#: -> ``dgesv``), filled once by :func:`build_accelerated_backend` and
#: only read afterwards.
_WRAPPERS = {}


def _flavor(name, dtype):
    """The typed SciPy wrapper (e.g. ``dgesv``) for ``name`` and the
    NumPy ``dtype`` of its operands."""
    return _WRAPPERS[name, dtype.char]


def _as2d(b):
    """View ``b`` as a 2-D right-hand-side block (LAPACK's NRHS shape)."""
    return b if b.ndim == 2 else b[:, None]


def _as3d(b):
    """View a ``(batch, n)`` right-hand-side stack as ``(batch, n, 1)``."""
    return b if b.ndim == 3 else b[:, :, None]


def _in_place(f, operands, **flags):
    """Run the typed wrapper ``f`` on every slice of the ``(batch, ·, ·)``
    stacks in ``operands``, in place on private copies.

    Each copy is made once per stack, in the kernel's dtype (the first
    operand's), with Fortran-contiguous slices; ``overwrite_a``/
    ``overwrite_b`` then hand a slice straight to LAPACK, which is the
    same call on the same layout as the scalar adapter makes after
    f2py's hidden copy, so every slice's outputs are byte-identical to
    it.  Returns the copies and each slice's output tuple, in stack
    order.  Nothing the caller owns is written here: the stack adapter
    writes the copies back after the last slice returns, which is what
    lets it stay declared :attr:`~repro.backends.Backend.write_back`.
    """
    dtype = operands[0].dtype.char          # native byte order
    copies = tuple(x.transpose(0, 2, 1).astype(dtype, order="C")
                   .transpose(0, 2, 1) for x in operands)
    flags.update(zip(("overwrite_a", "overwrite_b"), (1,) * len(copies)))
    return copies, [f(*slices, **flags) for slices in zip(*copies)]


def _infos(outs):
    """The int64 info vector of :func:`_in_place`'s per-slice outputs."""
    return np.array([out[-1] for out in outs], dtype=np.int64)


def _rows(vectors, dtype, shape):
    """Stack per-slice output vectors (pivots, eigenvalues) into a
    ``shape`` array of ``dtype``."""
    if not vectors:
        return np.empty(shape, dtype=dtype)
    return np.concatenate(vectors).astype(dtype, copy=False).reshape(shape)


def _bk_ipiv(piv):
    """Map SciPy's 1-based Bunch-Kaufman interchange indices onto the
    reference kernels' 0-based encoding (negatives already agree)."""
    piv = piv.astype(np.int64)
    return np.where(piv > 0, piv - 1, piv)


def _nan_diag_info(diag):
    """LAPACK's ``DISNAN`` pivot check, which some SciPy builds omit:
    the 1-based index of the first NaN factor diagonal, or 0.  Infinite
    pivots pass (``AJJ <= 0 .OR. DISNAN(AJJ)``) and propagate.  A sum
    that is not NaN holds no NaN term, which settles the common case in
    one pass over Python floats."""
    values = diag.tolist()
    total = sum(values)
    if total == total:
        return 0
    return next((j for j, x in enumerate(values, 1) if x != x), 0)


def gesv(a, b):
    n = a.shape[0]
    if a.shape[1] != n:
        xerbla("GESV", 1, "matrix must be square")
    if b.shape[0] != n:
        xerbla("GESV", 2, "dimension mismatch between A and B")
    bm = _as2d(b)
    w = a.flags.writeable and bm.flags.writeable
    lu, piv, x, info = _flavor("gesv", a.dtype)(a, bm, w, w)
    if lu is not a:
        a[...] = lu
    if info == 0 and x is not bm:
        bm[...] = x
    return piv.astype(np.int64), int(info)


def gesv_stack(a, b):
    """Natively batched ``gesv``: one seam crossing for a whole
    ``(batch, n, n)`` / ``(batch, n, nrhs)`` stack.

    The typed SciPy wrapper is resolved once and the scalar adapter's
    per-call overhead (flavor lookup, shape checks) is hoisted out of
    the loop; each slice then runs the very same ``?gesv`` call as a
    scalar :func:`gesv`, in place on a private Fortran-ordered copy
    (:func:`_in_place`), so per-problem factors, pivots and info codes
    stay bit-identical to the scalar path (the parity suite pins this).
    The copies are written back only after the last slice returns, so
    a failure mid-stack leaves the operands untouched.
    """
    n = a.shape[1]
    if a.shape[2] != n:
        xerbla("GESV_STACK", 1, "matrices must be square")
    if b.shape[1] != n:
        xerbla("GESV_STACK", 2, "dimension mismatch between A and B")
    b3 = _as3d(b)
    (at, bt), outs = _in_place(_flavor("gesv", a.dtype), (a, b3))
    infos = _infos(outs)
    a[...] = at
    ok = infos == 0
    b3[ok] = bt[ok]
    pivs = _rows([out[1] for out in outs], np.int64, (a.shape[0], n))
    return pivs, infos


def getrf(a):
    lu, piv, info = _flavor("getrf", a.dtype)(a, a.flags.writeable)
    if lu is not a:
        a[...] = lu
    return piv.astype(np.int64), int(info)


def getrs(a, ipiv, b, trans="N"):
    t = trans.upper()
    if t not in ("N", "T", "C"):
        xerbla("GETRS", 4, f"trans={trans!r}")
    bm = _as2d(b)
    x, info = _flavor("getrs", a.dtype)(
        a, ipiv, bm, {"N": 0, "T": 1, "C": 2}[t], bm.flags.writeable)
    if x is not bm:
        bm[...] = x
    return int(info)


def posv(a, b, uplo="U"):
    if uplo.upper() not in ("U", "L"):
        xerbla("POSV", 3, f"uplo={uplo!r}")
    bm = _as2d(b)
    # ?posv solves before the NaN-pivot check below can refuse the
    # factor: keep what an in-place solve would overwrite.
    w = a.flags.writeable and bm.flags.writeable
    saved = bm.copy() if w and bm.flags.f_contiguous else None
    c, x, info = _flavor("posv", a.dtype)(
        a, bm, uplo.upper() == "L", w, w)
    if c is not a:
        a[...] = c
    info = int(info)
    if info == 0:
        info = _nan_diag_info(c.diagonal().real)
    if info == 0:
        if x is not bm:
            bm[...] = x
    elif x is bm:
        bm[...] = saved
    return info


def posv_stack(a, b, uplo="U"):
    """Natively batched ``posv``: one seam crossing per SPD stack.

    Mirrors :func:`gesv_stack` — the typed wrapper is resolved once and
    each ``(n, n)`` / ``(n, nrhs)`` slice runs the very same ``?posv``
    call as the scalar :func:`posv` adapter, in place on a private
    Fortran-ordered copy.  The NaN-diagonal pivot check then runs once
    over the stacked factors: a slice SciPy passed gets the 1-based
    index of its first NaN diagonal, as the scalar adapter's
    :func:`_nan_diag_info` would give it.  Per-problem factors and info
    codes stay bit-identical to the scalar path, a failed slice's B is
    left unsolved, and nothing is written back before the last slice
    returns.
    """
    n = a.shape[1]
    if a.shape[2] != n:
        xerbla("POSV_STACK", 1, "matrices must be square")
    if b.shape[1] != n:
        xerbla("POSV_STACK", 2, "dimension mismatch between A and B")
    if uplo.upper() not in ("U", "L"):
        xerbla("POSV_STACK", 3, f"uplo={uplo!r}")
    b3 = _as3d(b)
    (at, bt), outs = _in_place(_flavor("posv", a.dtype), (a, b3),
                               lower=uplo.upper() == "L")
    infos = _infos(outs)
    nan = np.isnan(np.diagonal(at, axis1=1, axis2=2).real)
    late = (infos == 0) & nan.any(axis=1)
    if late.any():
        infos[late] = nan[late].argmax(axis=1) + 1
    a[...] = at
    ok = infos == 0
    b3[ok] = bt[ok]
    return infos


def gels_stack(a, b, trans="N"):
    """Natively batched ``gels`` over a least-squares problem stack.

    Same hoisting as :func:`gesv_stack`: one typed-wrapper resolution
    and one trans validation for the whole ``(batch, m, n)`` stack, with
    each slice running the scalar adapter's exact ``?gels`` call
    (complex ``T`` promoted to ``C`` the same way) in place on a
    private copy, and every slice written back only after the last one
    returns.
    """
    t = trans.upper()
    if t not in ("N", "T", "C"):
        xerbla("GELS_STACK", 1, f"trans={trans!r}")
    if np.iscomplexobj(a) and t == "T":
        t = "C"
    m, n = a.shape[1], a.shape[2]
    if b.shape[1] < max(m, n):
        xerbla("GELS_STACK", 3, "b must have max(m, n) rows")
    b3 = _as3d(b)
    (at, bt), outs = _in_place(_flavor("gels", a.dtype), (a, b3),
                               trans=t)
    a[...] = at
    b3[...] = bt
    return _infos(outs)


def trtrs(a, b, uplo="U", trans="N", diag="N"):
    t = trans.upper()
    if uplo.upper() not in ("U", "L"):
        xerbla("TRTRS", 1, f"uplo={uplo!r}")
    if t not in ("N", "T", "C"):
        xerbla("TRTRS", 2, f"trans={trans!r}")
    if diag.upper() not in ("N", "U"):
        xerbla("TRTRS", 3, f"diag={diag!r}")
    n = a.shape[0]
    if b.shape[0] != n:
        xerbla("TRTRS", 5, "dimension mismatch")
    bm = _as2d(b)
    x, info = _flavor("trtrs", a.dtype)(
        a, bm, lower=uplo.upper() == "L",
        trans={"N": 0, "T": 1, "C": 2}[t],
        unitdiag=diag.upper() == "U", overwrite_b=bm.flags.writeable)
    info = int(info)
    if info == 0 and x is not bm:
        bm[...] = x
    return info


def potrf(a, uplo="U"):
    if uplo.upper() not in ("U", "L"):
        xerbla("POTRF", 2, f"uplo={uplo!r}")
    # clean=0: leave the unreferenced triangle untouched, like LAPACK.
    c, info = _flavor("potrf", a.dtype)(
        a, uplo.upper() == "L", 0, a.flags.writeable)
    if c is not a:
        a[...] = c
    info = int(info)
    if info == 0:
        info = _nan_diag_info(c.diagonal().real)
    return info


def potrs(a, b, uplo="U"):
    if uplo.upper() not in ("U", "L"):
        xerbla("POTRS", 3, f"uplo={uplo!r}")
    bm = _as2d(b)
    x, info = _flavor("potrs", a.dtype)(
        a, bm, uplo.upper() == "L", bm.flags.writeable)
    if x is not bm:
        bm[...] = x
    return int(info)


def sysv(a, b, uplo="U"):
    if uplo.upper() not in ("U", "L"):
        xerbla("SYSV", 3, f"uplo={uplo!r}")
    bm = _as2d(b)
    w = a.flags.writeable and bm.flags.writeable
    udut, piv, x, info = _flavor("sysv", a.dtype)(
        a, bm, lower=uplo.upper() == "L", overwrite_a=w, overwrite_b=w)
    if udut is not a:
        a[...] = udut
    if info == 0 and x is not bm:
        bm[...] = x
    return _bk_ipiv(piv), int(info)


def hesv(a, b, uplo="U"):
    if uplo.upper() not in ("U", "L"):
        xerbla("HESV", 3, f"uplo={uplo!r}")
    bm = _as2d(b)
    w = a.flags.writeable and bm.flags.writeable
    udut, piv, x, info = _flavor("hesv", a.dtype)(
        a, bm, lower=uplo.upper() == "L", overwrite_a=w, overwrite_b=w)
    if udut is not a:
        a[...] = udut
    if info == 0 and x is not bm:
        bm[...] = x
    return _bk_ipiv(piv), int(info)


def gtsv(dl, d, du, b):
    bm = _as2d(b)
    dl2, d2, du2, x, info = _flavor("gtsv", d.dtype)(dl, d, du, bm)
    dl[...] = dl2
    d[...] = d2
    du[...] = du2
    if info == 0:
        bm[...] = x
    return int(info)


def ptsv(d, e, b):
    bm = _as2d(b)
    # LAPACK's D is REAL even in the complex flavors.
    d_in = np.ascontiguousarray(d.real)
    d2, e2, x, info = _flavor("ptsv", e.dtype)(d_in, e, bm)
    d[...] = d2
    e[...] = e2
    if info == 0:
        bm[...] = x
    return int(info)


def gbsv(ab, kl, ku, b):
    bm = _as2d(b)
    lub, piv, x, info = _flavor("gbsv", ab.dtype)(kl, ku, ab, bm)
    ab[...] = lub
    if info == 0:
        bm[...] = x
    return piv.astype(np.int64), int(info)


def pbsv(ab, b, uplo="U"):
    if uplo.upper() not in ("U", "L"):
        xerbla("PBSV", 3, f"uplo={uplo!r}")
    bm = _as2d(b)
    c, x, info = _flavor("pbsv", ab.dtype)(
        ab, bm, lower=uplo.upper() == "L")
    ab[...] = c
    info = int(info)
    if info == 0:
        diag = c[0] if uplo.upper() == "L" else c[-1]
        info = _nan_diag_info(diag.real)
    if info == 0:
        bm[...] = x
    return info


def _dense_eig(srname, name, a, jobz, uplo):
    if jobz.upper() not in ("N", "V"):
        xerbla(srname, 1, f"jobz={jobz!r}")
    if uplo.upper() not in ("U", "L"):
        xerbla(srname, 2, f"uplo={uplo!r}")
    wantz = jobz.upper() == "V"
    w, v, info = _flavor(name, a.dtype)(
        a, compute_v=1 if wantz else 0, lower=uplo.upper() == "L")
    if wantz and info == 0:
        a[...] = v
    return w, int(info)


def syev(a, jobz="N", uplo="U"):
    return _dense_eig("SYEV", "syev", a, jobz, uplo)


def heev(a, jobz="N", uplo="U"):
    return _dense_eig("HEEV", "heev", a, jobz, uplo)


def _dense_eig_stack(srname, name, a, jobz, uplo):
    """Natively batched :func:`_dense_eig` over a ``(batch, n, n)``
    stack: one typed-wrapper resolution and one flag check, then each
    slice runs the scalar adapter's exact ``?syev``/``?heev`` call in
    place on a private copy.  Returns the ``(batch, n)`` real eigenvalue
    stack and the info vector; with ``jobz='V'`` the eigenvectors
    overwrite the slices whose info is 0, and only after the last slice
    returns."""
    if jobz.upper() not in ("N", "V"):
        xerbla(srname, 1, f"jobz={jobz!r}")
    if uplo.upper() not in ("U", "L"):
        xerbla(srname, 2, f"uplo={uplo!r}")
    wantz = 1 if jobz.upper() == "V" else 0
    (at,), outs = _in_place(_flavor(name, a.dtype), (a,),
                            compute_v=wantz, lower=uplo.upper() == "L")
    infos = _infos(outs)
    if wantz:
        ok = infos == 0
        a[ok] = at[ok]
    ws = _rows([out[0] for out in outs], a.real.dtype, a.shape[:2])
    return ws, infos


def syev_stack(a, jobz="N", uplo="U"):
    return _dense_eig_stack("SYEV_STACK", "syev", a, jobz, uplo)


def heev_stack(a, jobz="N", uplo="U"):
    return _dense_eig_stack("HEEV_STACK", "heev", a, jobz, uplo)


def gesvd(a, jobu="N", jobvt="N", superdiag=None):
    s, u, vt, info = _gesvd(a, jobu, jobvt)
    # SciPy's gesvd does not expose the bidiagonal work array; the
    # superdiagonal output is defined (all zero) only on convergence,
    # and LAPACK overwrites it before any info > 0 return anyway.
    if superdiag is not None:
        superdiag[:] = 0
    return s, u, vt, info


def _gesvd(a, jobu, jobvt):
    ju, jvt = jobu.upper(), jobvt.upper()
    if ju not in ("N", "S", "A"):
        xerbla("GESVD", 2, f"jobu={jobu!r}")
    if jvt not in ("N", "S", "A"):
        xerbla("GESVD", 3, f"jobvt={jobvt!r}")
    m, n = a.shape
    k = min(m, n)
    rdtype = np.float32 if a.dtype.char in "fF" else np.float64
    if k == 0:
        s = np.zeros(0, dtype=rdtype)
        u = np.eye(m, dtype=a.dtype) if ju == "A" else None
        vt = np.eye(n, dtype=a.dtype) if jvt == "A" else None
        return s, u, vt, 0
    f = _flavor("gesvd", a.dtype)
    if ju == "N" and jvt == "N":
        _, s, _, info = f(a, compute_uv=0)
        return s, None, None, int(info)
    full = 1 if "A" in (ju, jvt) else 0
    u, s, vt, info = f(a, compute_uv=1, full_matrices=full)
    u_out = None if ju == "N" else (u if ju == "A" else u[:, :k])
    vt_out = None if jvt == "N" else (vt if jvt == "A" else vt[:k, :])
    return s, u_out, vt_out, int(info)


def gels(a, b, trans="N"):
    t = trans.upper()
    if t not in ("N", "T", "C"):
        xerbla("GELS", 1, f"trans={trans!r}")
    if np.iscomplexobj(a) and t == "T":
        t = "C"
    m, n = a.shape
    bm = _as2d(b)
    if bm.shape[0] < max(m, n):
        xerbla("GELS", 3, "b must have max(m, n) rows")
    w = a.flags.writeable and bm.flags.writeable
    lqr, x, info = _flavor("gels", a.dtype)(
        a, bm, trans=t, overwrite_a=w, overwrite_b=w)
    if lqr is not a:
        a[...] = lqr
    if x is not bm:
        bm[...] = x
    return int(info)


#: routine name -> accepted NumPy dtype chars (default "fdFD").
_DTYPES = {
    "syev": "fd",
    "heev": "FD",
    "hesv": "FD",
    "syev_stack": "fd",
    "heev_stack": "FD",
}

_ADAPTERS = (gesv, gesv_stack, getrf, getrs, posv, posv_stack, trtrs,
             potrf, potrs, sysv, hesv, gtsv, ptsv, gbsv, pbsv, syev,
             syev_stack, heev, heev_stack, gesvd, gels, gels_stack)


def build_accelerated_backend():
    if _scipy_lapack is None:
        return None
    from . import Backend
    table = {fn.__name__: fn for fn in _ADAPTERS}
    _WRAPPERS.update(
        ((name, char), getattr(_scipy_lapack, prefix + name))
        for name in table if not name.endswith("_stack")
        for char, prefix in _PREFIX.items()
        if hasattr(_scipy_lapack, prefix + name))
    chars = {name: _DTYPES.get(name, "fdFD") for name in table}
    return Backend("accelerated", table, dtype_chars=chars,
                   write_back=table)
