"""The ``accelerated`` substrate: adapters over ``scipy.linalg.lapack``.

Each adapter presents the exact Python signature, in-place semantics and
``info`` conventions of its reference twin in :mod:`repro.lapack77`, so
the :mod:`repro.core` drivers cannot tell the substrates apart:

* every typed wrapper is called positionally, with f2py's own default
  for each optional argument before the last one passed written out
  (``lwork``, ``lda``, ``ldab``): keyword parsing costs 0.3-0.6 us a
  call, and LAPACK gets the very call the defaults would make;
* the operands LAPACK overwrites (factors, solutions, the workspace
  ``?syev``/``?heev``/``?gesvd`` destroy) are handed to the typed
  wrapper with their ``overwrite_*`` flags set when every one of them
  is writeable (f2py would write into a read-only array).  f2py then
  passes a native-dtype Fortran-contiguous operand straight to LAPACK,
  which works in place, and hands any other operand to LAPACK as a
  private Fortran-ordered copy.  An output is written back only when
  f2py handed back a new array (:func:`_put`).  With a read-only
  operand LAPACK works on copies only, and the adapter raises
  ``ValueError`` before its first write-back (:func:`_refuse`), so no
  operand changes.  The ``*_stack`` adapters follow the same rule on
  one private copy per stack (:func:`_in_place`);
* f2py raises only before LAPACK runs (argument conversion and shape
  checks), so a failed adapter call leaves its operands untouched:
  every adapter is declared :attr:`~repro.backends.Backend.write_back`
  and a failure escalates once to the reference kernel;
* SciPy's LU pivots are already 0-based like ours; the Bunch–Kaufman
  ``ipiv`` from ``?sysv``/``?hesv`` is 1-based for interchanges and is
  shifted down (negative 2x2-block entries already match our encoding);
* on a positive ``info`` the right-hand side is left unsolved, matching
  LAPACK (and the reference kernels).  LAPACK skips the solve there,
  except that ``?gtsv`` eliminates into B as it factors, and the
  NaN-pivot check this SciPy build needs (:func:`posv`, :func:`pbsv`)
  refuses a factor after the solve: those adapters save a right-hand
  side LAPACK solves in place and restore it (:func:`_settle`);
* argument errors raise through :func:`repro.errors.xerbla` with the
  reference kernels' positions.

Only simple dense/band/tridiagonal drivers plus the dense symmetric
eigensolvers, SVD and GELS are adapted.  The computational kernels the
expert drivers build on (``sytrf``/``sytrs``, condition estimators,
refinement loops) stay on the reference substrate — their factored forms
and ``ipiv`` encodings would otherwise mix between substrates mid-driver.

SciPy loads on the first adapter call, not at import: ``import repro``
loads no SciPy, and neither does a process that only ever calls the
reference backend.  :func:`build_accelerated_backend` asks
``importlib.util.find_spec`` whether SciPy is installed, which imports
nothing, and returns ``None`` when it is not; the registry then leaves
the backend unregistered and selection degrades to ``reference`` per
routine.  The typed-wrapper table fills on the first lookup that
misses (:func:`_flavor`, :func:`_load_wrappers`), once, under a lock.
When SciPy is installed but its import fails there, the backend leaves
the registry (the selection stays) and the import error propagates
into the dispatch seam, which serves that call once from reference;
every later call falls back per routine with a
:class:`~repro.errors.BackendFallbackWarning`, as when SciPy is absent.
"""

from __future__ import annotations

import functools
import importlib.util
import threading

import numpy as np

from ..errors import xerbla

#: NumPy dtype char -> LAPACK precision prefix.
_PREFIX = {"f": "s", "d": "d", "F": "c", "D": "z"}

#: ``(routine, dtype char) -> typed SciPy wrapper`` (``("gesv", "d")``
#: -> ``dgesv``), filled once by :func:`_load_wrappers` and only read
#: afterwards.  A plain ``dict``: a clean call is one subscript, which
#: CPython specialises for exact dicts only.
_WRAPPERS = {}
#: Set once ``_WRAPPERS`` holds every typed wrapper SciPy provides.
_LOADED = False
_LOAD_LOCK = threading.Lock()


def _flavor(name, dtype):
    """The typed SciPy wrapper (e.g. ``dgesv``) for ``name`` and the
    NumPy ``dtype`` of its operands.  The first miss loads SciPy
    (:func:`_load_wrappers`) and looks again; a pair SciPy lacks still
    raises ``KeyError``."""
    try:
        return _WRAPPERS[name, dtype.char]  # laflow: benign-race — filled once under _LOAD_LOCK, entry by entry; a miss takes the lock
    except KeyError:
        _load_wrappers()
        return _WRAPPERS[name, dtype.char]  # laflow: benign-race — read after _load_wrappers returned, which filled the table under _LOAD_LOCK


def _load_wrappers():
    """Import ``scipy.linalg.lapack`` and fill ``_WRAPPERS`` from the
    adapter names and the s/d/c/z prefixes, once.  When the import
    fails, drop ``accelerated`` from the registry (the selection stays,
    so later calls fall back per routine with a warning) and re-raise:
    the dispatch seam serves the failed call from reference."""
    global _LOADED
    with _LOAD_LOCK:
        if _LOADED:
            return
        try:
            from scipy.linalg import lapack
        except Exception:
            from . import _retire
            _retire("accelerated")
            raise
        # The *_stack adapters call their scalar routine's wrapper.
        _WRAPPERS.update(
            ((fn.__name__, char), getattr(lapack, prefix + fn.__name__))
            for fn in _ADAPTERS if not fn.__name__.endswith("_stack")
            for char, prefix in _PREFIX.items()
            if hasattr(lapack, prefix + fn.__name__))
        _LOADED = True


def _as2d(b):
    """View ``b`` as a 2-D right-hand-side block (LAPACK's NRHS shape)."""
    return b if b.ndim == 2 else b[:, None]


def _as3d(b):
    """View a ``(batch, n)`` right-hand-side stack as ``(batch, n, 1)``."""
    return b if b.ndim == 3 else b[:, :, None]


def _in_place(f, operands, *tail):
    """Run the typed wrapper ``f`` on every slice of the ``(batch, ·, ·)``
    stacks in ``operands``, in place on private copies.

    Each copy is made once per stack, in the kernel's dtype (the first
    operand's), with Fortran-contiguous slices.  ``f`` is called
    positionally, ``f(*slices, *tail)``, where ``tail`` holds every
    optional argument up to and including the ``overwrite_*`` flags
    (set): f2py then hands a slice straight to LAPACK, which is the same
    call on the same layout as the scalar adapter makes after f2py's
    hidden copy, so every slice's outputs are byte-identical to it.  A
    positional call skips f2py's keyword parsing (0.3-0.6 us a slice on
    a 2-vCPU x86 host, by the number of keywords).  Returns the copies and each slice's output
    tuple, in stack order.  Nothing the caller owns is written here:
    the stack adapter writes the copies back after the last slice
    returns, which is what lets it stay declared
    :attr:`~repro.backends.Backend.write_back`.
    """
    dtype = operands[0].dtype.char          # native byte order
    copies = tuple(x.transpose(0, 2, 1).astype(dtype, order="C")
                   .transpose(0, 2, 1) for x in operands)
    return copies, [f(*slices, *tail) for slices in zip(*copies)]


def _stacked(rows, dtype, shape):
    """Stack the per-slice output vectors ``rows`` (pivots, eigenvalues)
    into a ``shape`` array of ``dtype``.  f2py hands each one back as a
    fresh contiguous vector, so one join of their bytes gathers the
    stack at about a third of what ``np.array`` over the list costs."""
    if not rows:
        return np.empty(shape, dtype=dtype)
    return np.frombuffer(b"".join(rows), dtype=rows[0].dtype) \
        .astype(dtype).reshape(shape)


def _write_ok(dst, src, infos):
    """Write the private copies ``src`` back into ``dst`` for the slices
    whose info is 0 (a failed slice's right-hand side stays unsolved):
    in one assignment when every slice succeeded, the common case.
    (``np.count_nonzero`` reads a small vector in a fraction of the
    time ``ndarray.any``'s reduction takes.)"""
    if np.count_nonzero(infos):
        ok = infos == 0
        dst[ok] = src[ok]
    else:
        dst[...] = src


def _put(dst, src):
    """Write the output ``src`` into the operand ``dst`` unless f2py
    handed ``dst`` itself to LAPACK, which wrote there (f2py then
    returns the same object)."""
    if src is not dst:
        dst[...] = src


def _refuse(bm, info, *factors):
    """Raise ``ValueError`` when an operand about to be written back is
    read-only: the ``factors`` always, the right-hand side ``bm`` when
    ``info`` is 0.  An adapter calls it, when its overwrite flags were
    off, before its first write-back, so a refused call leaves every
    operand untouched (LAPACK worked on f2py's copies only)."""
    for x in (*factors, bm) if info == 0 else factors:
        if not x.flags.writeable:
            raise ValueError("assignment destination is read-only")


def _saved(bm, w):
    """A copy of a right-hand side LAPACK is about to solve in place
    (``w`` set and ``bm`` Fortran-contiguous), for :func:`_settle` to
    restore; ``None`` otherwise."""
    return bm.copy() if w and bm.flags.f_contiguous else None


def _settle(bm, x, info, saved):
    """Leave the solution ``x`` in ``bm`` when ``info`` is 0; otherwise
    leave ``bm`` unsolved, restoring ``saved`` when LAPACK had already
    written into it (``?gtsv`` eliminates into B as it factors, and the
    NaN-pivot check refuses a factor after ``?posv``/``?pbsv`` solved)."""
    if info == 0:
        _put(bm, x)
    elif x is bm:
        bm[...] = saved


def _bk_ipiv(piv):
    """Map SciPy's 1-based Bunch-Kaufman interchange indices onto the
    reference kernels' 0-based encoding (negatives already agree): one
    gather from :func:`_bk_table`.  At n=8 that is about a third of
    what a compare, a shift and a select cost (each ufunc pays a fixed
    microsecond or so, and comparing an int32 array with a Python int
    more)."""
    return _bk_table(piv.shape[0]).take(piv)


@functools.lru_cache(maxsize=64)
def _bk_table(n):
    """``t`` with ``t[p] = p - 1`` for ``p`` in ``1..n`` and ``t[p] =
    p`` for ``p`` in ``-n..-1`` (a negative index counts from the end),
    in int64: every entry of an order-``n`` Bunch-Kaufman ``ipiv``."""
    return np.concatenate([np.arange(-1, n, dtype=np.int64),
                           np.arange(-n, 0, dtype=np.int64)])


#: ``trans`` flag -> the typed wrappers' integer code.
_TRANS = {"N": 0, "T": 1, "C": 2}


def _nan_diag_info(diag):
    """LAPACK's ``DISNAN`` pivot check, which some SciPy builds omit:
    the 1-based index of the first NaN factor diagonal, or 0.  Infinite
    pivots pass (``AJJ <= 0 .OR. DISNAN(AJJ)``) and propagate.  A sum
    that is not NaN holds no NaN term, which settles the common case in
    one pass: over Python floats up to 64 pivots, in one NumPy
    reduction beyond (at n=500 the Python floats cost about 12 us, the
    reduction under 2 us)."""
    total = sum(diag.tolist()) if len(diag) <= 64 else diag.sum()
    if total == total:
        return 0
    return next((j for j, x in enumerate(diag.tolist(), 1) if x != x), 0)


def gesv(a, b):
    n = a.shape[0]
    if a.shape[1] != n:
        xerbla("GESV", 1, "matrix must be square")
    if b.shape[0] != n:
        xerbla("GESV", 2, "dimension mismatch between A and B")
    bm = _as2d(b)
    w = a.flags.writeable and bm.flags.writeable
    lu, piv, x, info = _flavor("gesv", a.dtype)(a, bm, w, w)
    if not w:
        _refuse(bm, info, a)
    # The write-back rule of _put/_settle, inline: this adapter and
    # posv's serve every general and SPD solve, and each helper call
    # costs about 50 ns, 1-2% of an n=8 ?gesv/?posv.
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
    (at, bt), outs = _in_place(_flavor("gesv", a.dtype), (a, b3), 1, 1)
    _, pivs, _, infos = zip(*outs) if outs else ((), (), (), ())
    infos = np.array(infos, dtype=np.int64)
    a[...] = at
    _write_ok(b3, bt, infos)
    return _stacked(pivs, np.int64, a.shape[:2]), infos


def getrf(a):
    lu, piv, info = _flavor("getrf", a.dtype)(a, a.flags.writeable)
    _put(a, lu)
    return piv.astype(np.int64), int(info)


def getrs(a, ipiv, b, trans="N"):
    t = trans.upper()
    if t not in ("N", "T", "C"):
        xerbla("GETRS", 4, f"trans={trans!r}")
    bm = _as2d(b)
    x, info = _flavor("getrs", a.dtype)(a, ipiv, bm, _TRANS[t],
                                        bm.flags.writeable)
    _put(bm, x)
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
    info = int(info)
    if info == 0:
        info = _nan_diag_info(c.diagonal().real)
    if not w:
        _refuse(bm, info, a)
    if c is not a:                  # _put/_settle inline, as in gesv
        a[...] = c
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
                               uplo.upper() == "L", 1, 1)
    infos = np.array([out[2] for out in outs], dtype=np.int64)
    nan = np.isnan(at.diagonal(0, 1, 2).real)
    if np.count_nonzero(nan):
        late = (infos == 0) & nan.any(axis=1)
        infos[late] = nan[late].argmax(axis=1) + 1
    a[...] = at
    _write_ok(b3, bt, infos)
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
    k = min(m, n)
    lwork = max(k + max(k, b3.shape[2]), 1)     # f2py's default
    (at, bt), outs = _in_place(_flavor("gels", a.dtype), (a, b3),
                               t, lwork, 1, 1)
    a[...] = at
    b3[...] = bt
    return np.array([out[2] for out in outs], dtype=np.int64)


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
    x, info = _flavor("trtrs", a.dtype)(    # lda: f2py's default
        a, bm, uplo.upper() == "L", _TRANS[t], diag.upper() == "U", n,
        bm.flags.writeable)
    info = int(info)
    if info == 0:
        _put(bm, x)
    return info


def potrf(a, uplo="U"):
    if uplo.upper() not in ("U", "L"):
        xerbla("POTRF", 2, f"uplo={uplo!r}")
    # clean=0: leave the unreferenced triangle untouched, like LAPACK.
    c, info = _flavor("potrf", a.dtype)(
        a, uplo.upper() == "L", 0, a.flags.writeable)
    _put(a, c)
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
    _put(bm, x)
    return int(info)


def _indefinite(srname, name, a, b, uplo):
    """``?sysv``/``?hesv``: Bunch-Kaufman factor and solve."""
    u = uplo.upper()
    if u not in ("U", "L"):
        xerbla(srname, 3, f"uplo={uplo!r}")
    bm = _as2d(b)
    w = a.flags.writeable and bm.flags.writeable
    udut, piv, x, info = _flavor(name, a.dtype)(    # lwork: f2py's default
        a, bm, max(a.shape[0], 1), u == "L", w, w)
    if not w:
        _refuse(bm, info, a)
    _put(a, udut)
    if info == 0:
        _put(bm, x)
    return _bk_ipiv(piv), int(info)


def sysv(a, b, uplo="U"):
    return _indefinite("SYSV", "sysv", a, b, uplo)


def hesv(a, b, uplo="U"):
    return _indefinite("HESV", "hesv", a, b, uplo)


def gtsv(dl, d, du, b):
    bm = _as2d(b)
    w = (dl.flags.writeable and d.flags.writeable and du.flags.writeable
         and bm.flags.writeable)
    saved = _saved(bm, w)
    dl2, d2, du2, x, info = _flavor("gtsv", d.dtype)(
        dl, d, du, bm, w, w, w, w)
    if not w:
        _refuse(bm, info, dl, d, du)
    _put(dl, dl2)
    _put(d, d2)
    _put(du, du2)
    info = int(info)
    _settle(bm, x, info, saved)
    return info


def ptsv(d, e, b):
    bm = _as2d(b)
    w = d.flags.writeable and e.flags.writeable and bm.flags.writeable
    # LAPACK's D is REAL even in the complex flavors; a complex ``d``
    # reaches it as f2py's copy of its real part.
    d2, e2, x, info = _flavor("ptsv", e.dtype)(d.real, e, bm, w, w, w)
    if not w:
        _refuse(bm, info, d, e)
    _put(d, d2)
    _put(e, e2)
    info = int(info)
    if info == 0:
        _put(bm, x)
    return info


def gbsv(ab, kl, ku, b):
    bm = _as2d(b)
    w = ab.flags.writeable and bm.flags.writeable
    lub, piv, x, info = _flavor("gbsv", ab.dtype)(kl, ku, ab, bm, w, w)
    if not w:
        _refuse(bm, info, ab)
    _put(ab, lub)
    if info == 0:
        _put(bm, x)
    return piv.astype(np.int64), int(info)


def pbsv(ab, b, uplo="U"):
    u = uplo.upper()
    if u not in ("U", "L"):
        xerbla("PBSV", 3, f"uplo={uplo!r}")
    lower = u == "L"
    bm = _as2d(b)
    w = ab.flags.writeable and bm.flags.writeable
    saved = _saved(bm, w)
    c, x, info = _flavor("pbsv", ab.dtype)(    # ldab: f2py's default
        ab, bm, lower, ab.shape[0], w, w)
    info = int(info)
    if info == 0:
        info = _nan_diag_info((c[0] if lower else c[-1]).real)
    if not w:
        _refuse(bm, info, ab)
    _put(ab, c)
    _settle(bm, x, info, saved)
    return info


def _dense_eig(srname, name, a, jobz, uplo):
    j, u = jobz.upper(), uplo.upper()
    if j not in ("N", "V"):
        xerbla(srname, 1, f"jobz={jobz!r}")
    if u not in ("U", "L"):
        xerbla(srname, 2, f"uplo={uplo!r}")
    wantz = j == "V"
    n = a.shape[0]
    lwork = max((3 if name == "syev" else 2) * n - 1, 1)   # f2py's default
    w, v, info = _flavor(name, a.dtype)(
        a, wantz, u == "L", lwork, a.flags.writeable)
    if wantz and info == 0:
        _put(a, v)
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
    n = a.shape[1]
    lwork = max((3 if name == "syev" else 2) * n - 1, 1)   # f2py's default
    (at,), outs = _in_place(_flavor(name, a.dtype), (a,),
                            wantz, uplo.upper() == "L", lwork, 1)
    ws, _, infos = zip(*outs) if outs else ((), (), ())
    infos = np.array(infos, dtype=np.int64)
    if wantz:
        _write_ok(a, at, infos)
    return _stacked(ws, a.real.dtype, a.shape[:2]), infos


def syev_stack(a, jobz="N", uplo="U"):
    return _dense_eig_stack("SYEV_STACK", "syev", a, jobz, uplo)


def heev_stack(a, jobz="N", uplo="U"):
    return _dense_eig_stack("HEEV_STACK", "heev", a, jobz, uplo)


def gesvd(a, jobu="N", jobvt="N", superdiag=None):
    ju, jvt = jobu.upper(), jobvt.upper()
    if ju not in ("N", "S", "A"):
        xerbla("GESVD", 2, f"jobu={jobu!r}")
    if jvt not in ("N", "S", "A"):
        xerbla("GESVD", 3, f"jobvt={jobvt!r}")
    m, n = a.shape
    k = min(m, n)
    if k == 0:
        rdtype = np.float32 if a.dtype.char in "fF" else np.float64
        s, info = np.zeros(0, dtype=rdtype), 0
        u = np.eye(m, dtype=a.dtype) if ju == "A" else None
        vt = np.eye(n, dtype=a.dtype) if jvt == "A" else None
    else:
        if a.dtype.kind == "c":                # f2py's default lwork
            lwork = 2 * k + max(m, n)
        else:
            lwork = max(3 * k + max(m, n), 5 * k)
        f = _flavor("gesvd", a.dtype)
        if ju == "N" and jvt == "N":
            _, s, _, info = f(a, 0, 1, lwork, a.flags.writeable)
            u = vt = None
        else:
            u, s, vt, info = f(a, 1, 1 if "A" in (ju, jvt) else 0, lwork,
                               a.flags.writeable)
            u = None if ju == "N" else (u if ju == "A" else u[:, :k])
            vt = None if jvt == "N" else (vt if jvt == "A" else vt[:k, :])
    # SciPy's gesvd does not expose the bidiagonal work array; the
    # superdiagonal output is defined (all zero) only on convergence,
    # and LAPACK overwrites it before any info > 0 return anyway.
    if superdiag is not None:
        superdiag[:] = 0
    return s, u, vt, int(info)


def gels(a, b, trans="N"):
    t = trans.upper()
    if t not in ("N", "T", "C"):
        xerbla("GELS", 1, f"trans={trans!r}")
    if t == "T" and a.dtype.kind == "c":
        t = "C"
    m, n = a.shape
    bm = _as2d(b)
    if bm.shape[0] < max(m, n):
        xerbla("GELS", 3, "b must have max(m, n) rows")
    w = a.flags.writeable and bm.flags.writeable
    k = min(m, n)
    lwork = k + max(k, bm.shape[1], 1)          # f2py's default
    lqr, x, info = _flavor("gels", a.dtype)(a, bm, t, lwork, w, w)
    if not w:
        _refuse(bm, 0, a)
    _put(a, lqr)
    _put(bm, x)
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
    """The ``accelerated`` :class:`~repro.backends.Backend`, or ``None``
    when SciPy is not installed.  Nothing is imported here: SciPy loads
    on the first adapter call (:func:`_load_wrappers`)."""
    if importlib.util.find_spec("scipy") is None:
        return None
    from . import Backend
    table = {fn.__name__: fn for fn in _ADAPTERS}
    chars = {name: _DTYPES.get(name, "fdFD") for name in table}
    return Backend("accelerated", table, dtype_chars=chars,
                   write_back=table)
