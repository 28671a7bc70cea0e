"""Layout parity: a kernel's bytes do not depend on its operands' layout.

The accelerated adapters hand a writeable native-dtype
Fortran-contiguous operand straight to LAPACK, which works on it in
place; any other operand reaches LAPACK as f2py's private
Fortran-ordered copy and is written back.  The reference backend copies
a Fortran-ordered operand to C order for the call.  So for every
adapter that runs in place, on both backends, a C-ordered and a
Fortran-ordered operand (and a 1-D, C-ordered or Fortran-ordered
right-hand side) must come out byte for byte the same: factors,
pivots, solutions (or the right-hand side left unsolved) and info.

On accelerated the outputs must also equal the copy-back adapters',
in which LAPACK never touched a caller's array: the typed SciPy
wrapper is handed private copies, so every output reaches the caller
through the write-back.  Singular, indefinite and NaN-pivot operands
check that a failed factorization leaves the right-hand side unsolved
(``?gtsv`` eliminates into B before it meets a zero pivot, and the
NaN-pivot check refuses a ``posv``/``pbsv`` factor after the solve).
A read-only operand, or a typed wrapper that raises, must leave every
operand untouched; no adapter may pass its typed wrapper a keyword;
and what a documented "destroyed" ``a`` holds after ``syev``/``heev``
(``jobz='N'``) and ``gesvd`` is pinned per backend and layout.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import Info, la_gesv, la_posv, use_backend
from repro.backends import available_backends, get_backend

BACKENDS = [b for b in ("reference", "accelerated")
            if b in available_backends()]
DTYPES = ["f", "d", "F", "D"]
N, NRHS = 6, 3
SINGULAR, INDEFINITE, NAN_PIVOT = "singular", "indefinite", "nan_pivot"


def _random(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


def _general(rng, dtype, case=None):
    a = _random(rng, (N, N), dtype) + N * np.eye(N, dtype=dtype)
    if case == SINGULAR:
        a[:, 2] = 0
    return (a,)


def _spd(rng, dtype, case=None):
    g = _random(rng, (N, N), dtype)
    a = g @ g.conj().T + N * np.eye(N, dtype=dtype)
    if case == INDEFINITE:
        a[3, 3] = -1
    elif case == NAN_PIVOT:
        a[2, 2] = np.nan
    return (a,)


def _symmetric(rng, dtype, case=None):
    s = _random(rng, (N, N), dtype)
    return (s + s.T,)


def _hermitian(rng, dtype, case=None):
    s = _random(rng, (N, N), dtype)
    return (s + s.conj().T,)


def _triangular(rng, dtype, case=None):
    return (np.triu(_random(rng, (N, N), dtype))
            + N * np.eye(N, dtype=dtype),)


def _lu(rng, dtype, case=None):
    """An LU factor and its pivots, made on a C copy, so ``getrs``
    starts from the same factor in every layout."""
    (a,) = _general(rng, dtype)
    ipiv, _ = get_backend("reference").get("getrf")(a)
    return a, ipiv


def _cholesky(rng, dtype, case=None):
    (a,) = _spd(rng, dtype)
    get_backend("reference").get("potrf")(a, "U")
    return (a,)


def _tall(rng, dtype, case=None):
    return (_random(rng, (N + 2, N), dtype),)


def _wide(rng, dtype, case=None):
    return (_random(rng, (N - 2, N), dtype),)


def _tridiagonal(rng, dtype, case=None):
    """``(dl, d, du)`` of a diagonally dominant tridiagonal matrix;
    singular: column 2 zeroed."""
    dl, du = (_random(rng, (N - 1,), dtype) for _ in range(2))
    d = _random(rng, (N,), dtype) + 4
    if case == SINGULAR:
        dl[2] = d[2] = du[1] = 0
    return dl, d, du


def _positive_tridiagonal(rng, dtype, case=None):
    """``(d, e)``, ``d`` real, of a positive definite tridiagonal
    matrix; indefinite: ``d[3] = -1``."""
    d = (np.abs(rng.standard_normal(N)) + 4).astype(dtype.lower())
    if case == INDEFINITE:
        d[3] = -1
    return d, _random(rng, (N - 1,), dtype)


#: ``gbsv``'s band widths in the CASES below.
KL, KU = 1, 2


def _band(rng, dtype, case=None):
    """A general band matrix in ``gbsv``'s factored-band storage
    (``2·KL + KU + 1`` rows); singular: column 2 zeroed."""
    ab = _random(rng, (2 * KL + KU + 1, N), dtype)
    ab[:KL] = 0
    ab[KL + KU] += 4
    if case == SINGULAR:
        ab[:, 2] = 0
    return (ab,)


def _spd_band(rng, dtype, case=None):
    """An SPD band matrix (``KD = 2``) in lower band storage, row 0 its
    diagonal; indefinite: a negative pivot at row 3, NaN: a NaN one at
    row 2."""
    ab = 0.1 * _random(rng, (3, N), dtype)
    ab[0] = 4
    if case == INDEFINITE:
        ab[0, 3] = -1
    elif case == NAN_PIVOT:
        ab[0, 2] = np.nan
    return (ab,)


#: routine -> (kernel, operand maker, args after the operands,
#: right-hand-side rows or None, dtype chars served)
CASES = {
    "gesv": ("gesv", _general, (), N, "fdFD"),
    "getrf": ("getrf", _general, (), None, "fdFD"),
    "getrs": ("getrs", _lu, ("N",), N, "fdFD"),
    "posv": ("posv", _spd, ("U",), N, "fdFD"),
    "potrf": ("potrf", _spd, ("L",), None, "fdFD"),
    "potrs": ("potrs", _cholesky, ("U",), N, "fdFD"),
    "sysv": ("sysv", _symmetric, ("L",), N, "fdFD"),
    "hesv": ("hesv", _hermitian, ("U",), N, "FD"),
    "trtrs": ("trtrs", _triangular, ("U", "N", "N"), N, "fdFD"),
    "gels-tall": ("gels", _tall, ("N",), N + 2, "fdFD"),
    "gels-wide": ("gels", _wide, ("N",), N, "fdFD"),
    "gtsv": ("gtsv", _tridiagonal, (), N, "fdFD"),
    "ptsv": ("ptsv", _positive_tridiagonal, (), N, "fdFD"),
    "gbsv": ("gbsv", _band, (), N, "fdFD"),
    "pbsv": ("pbsv", _spd_band, ("L",), N, "fdFD"),
    "syev": ("syev", _symmetric, ("V", "U"), None, "fd"),
    "heev": ("heev", _hermitian, ("V", "L"), None, "FD"),
}

#: The adapters that run LAPACK in place on every operand they write
#: and write each back under one read-only rule (every CASES kernel
#: with a right-hand side but ``getrs``/``potrs``/``trtrs``, which
#: write ``b`` only).
WRITING = ("gels-tall", "gels-wide", "gbsv", "gesv", "gtsv", "hesv",
           "pbsv", "posv", "ptsv", "sysv")


def _operands_first(kernel, routine):
    """``kernel`` taking its operands first: ``gbsv`` takes its band
    widths between ``ab`` and ``b``."""
    if routine == "gbsv":
        return lambda ab, b: kernel(ab, KL, KU, b)
    return kernel


def _kernel(backend, routine):
    """The backend's kernel, operands first."""
    return _operands_first(get_backend(backend).get(routine), routine)


LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray}


def _run(kernel, operands, args):
    """``(outputs, operands after)``, every one as bytes."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = kernel(*operands, *args)
    got = got if isinstance(got, tuple) else (got,)
    return ([np.asarray(r).tobytes() for r in got],
            [x.tobytes() for x in operands])


def _copying(wrapper):
    """The typed SciPy wrapper handed private copies of its arrays, so
    LAPACK never works on a caller's array: the copy-back adapter."""
    def call(*args, **kwargs):
        return wrapper(*(x.copy() if isinstance(x, np.ndarray) else x
                         for x in args), **kwargs)
    return call


def _layouts(operands, rhs):
    """``(layout, operands)`` for every (matrix layout, right-hand-side
    layout) pair, all-C first; a 1-D right-hand side has one layout."""
    b_layouts = ["C", "F"] if rhs is not None and rhs.ndim == 2 else ["C"]
    for la in ("C", "F"):
        for lb in b_layouts:
            ops = [LAYOUTS[la](x.copy()) if x.ndim == 2 else x.copy()
                   for x in operands]
            if rhs is not None:
                ops.append(LAYOUTS[lb](rhs.copy()))
            yield (la, lb), ops


def _check(monkeypatch, backend, case_name, dtype, nrhs, case=None):
    """Run one kernel in every layout; all must agree byte for byte,
    and on accelerated with the copy-back adapter too.  Returns the
    outputs and the operands as they went in."""
    routine, make, args, rows, chars = CASES[case_name]
    if dtype not in chars:
        pytest.skip(f"{routine} serves {chars}")
    if rows is None and nrhs is not None:
        pytest.skip("no right-hand side")
    rng = np.random.default_rng(sum(map(ord, case_name + dtype)))
    operands = make(rng, dtype, case)
    rhs = None if rows is None else _random(
        rng, (rows,) if nrhs is None else (rows, nrhs), dtype)
    kernel = _kernel(backend, routine)
    runs = {layout: _run(kernel, ops, args)
            for layout, ops in _layouts(operands, rhs)}
    first = runs["C", "C"]
    for layout, got in runs.items():
        assert got == first, f"{backend} {case_name}: layout {layout}"
    if backend == "accelerated":
        from repro.backends import accelerated
        key = routine, dtype
        monkeypatch.setitem(accelerated._WRAPPERS, key,
                            _copying(accelerated._WRAPPERS[key]))
        for layout, ops in _layouts(operands, rhs):
            assert _run(kernel, ops, args) == runs[layout], \
                f"{case_name}: copy-back adapter, layout {layout}"
    return first, rhs


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case_name", sorted(CASES))
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("nrhs", [None, NRHS], ids=["vector", "matrix"])
def test_in_place_kernels_are_layout_independent(monkeypatch, backend,
                                                 case_name, dtype, nrhs):
    _check(monkeypatch, backend, case_name, dtype, nrhs)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("nrhs", [None, NRHS], ids=["vector", "matrix"])
@pytest.mark.parametrize("routine, case, info", [
    ("gesv", SINGULAR, 3),
    ("posv", INDEFINITE, 4),
    ("posv", NAN_PIVOT, 3),
    ("gtsv", SINGULAR, 3),
    ("gbsv", SINGULAR, 3),
    ("ptsv", INDEFINITE, 4),
    ("pbsv", INDEFINITE, 4),
    ("pbsv", NAN_PIVOT, 3),
])
def test_a_failed_factorization_leaves_b_unsolved(monkeypatch, backend,
                                                  dtype, nrhs, routine,
                                                  case, info):
    (outputs, after), rhs = _check(monkeypatch, backend, routine, dtype,
                                   nrhs, case)
    assert np.frombuffer(outputs[-1], dtype=np.int64)[0] == info
    assert after[-1] == rhs.tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("driver, make, case", [
    (la_gesv, _general, None),
    (la_gesv, _general, SINGULAR),
    (la_posv, _spd, None),
    (la_posv, _spd, INDEFINITE),
    (la_posv, _spd, NAN_PIVOT),
])
@pytest.mark.parametrize("nrhs", [None, NRHS], ids=["vector", "matrix"])
def test_drivers_are_layout_independent(backend, dtype, driver, make, case,
                                        nrhs):
    """The ``la_*`` drivers end to end: operands and ``Info``."""
    rng = np.random.default_rng(11)
    (a,) = make(rng, dtype, case)
    b = _random(rng, (N,) if nrhs is None else (N, nrhs), dtype)
    seen = []
    with use_backend(backend), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _, (ac, bc) in _layouts([a], b):
            info = Info()
            driver(ac, bc, info=info)
            seen.append((ac.tobytes(), bc.tobytes(), info.value,
                         info.fallback, info.attempts))
    assert all(s == seen[0] for s in seen)
    assert (seen[0][2] == 0) == (case is None)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case_name",
                         ["gels-tall", "gels-wide", "gesv", "hesv", "posv",
                          "sysv"])
@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("through", ["kernel", "seam"])
def test_a_read_only_matrix_raises_and_leaves_b_untouched(backend,
                                                          case_name,
                                                          layout, through):
    """A kernel that writes a read-only matrix raises ``ValueError`` in
    either layout, with a writeable 1-D ``b`` beside it left untouched:
    the accelerated adapters work in place only when every operand they
    write is writeable, and the reference backend's C-ordered copy of a
    read-only operand is read-only too.  Through the dispatch seam an
    accelerated failure escalates once, and reference raises the same
    way."""
    from repro.backends import kernels
    routine, make, args, rows, chars = CASES[case_name]
    dtype = "D" if routine == "hesv" else "d"
    rng = np.random.default_rng(17)
    (a,) = make(rng, dtype)
    a = LAYOUTS[layout](a)
    a.flags.writeable = False
    b = _random(rng, (rows,), dtype)
    a0, b0 = a.tobytes(), b.tobytes()
    kernel = get_backend(backend).get(routine)
    with use_backend(backend), warnings.catch_warnings(), \
            pytest.raises(ValueError):
        warnings.simplefilter("ignore")
        (kernel if through == "kernel" else getattr(kernels, routine))(
            a, b, *args)
    assert (a.tobytes(), b.tobytes()) == (a0, b0)


class _Broken(Exception):
    pass


@pytest.mark.parametrize("case_name", sorted(CASES))
def test_a_raising_wrapper_leaves_fortran_operands_untouched(monkeypatch,
                                                             case_name):
    """f2py raises before LAPACK runs, so an in-place adapter whose
    typed wrapper fails has not touched the caller's Fortran-ordered
    operands, and the dispatch seam's one escalation gives reference's
    answer on a C-ordered copy."""
    if "accelerated" not in BACKENDS:
        pytest.skip("the accelerated backend needs SciPy")
    from repro.backends import accelerated, kernels
    routine, make, args, rows, chars = CASES[case_name]
    dtype = "d" if "d" in chars else "D"

    def broken(*args, **kwargs):
        raise _Broken(routine)

    monkeypatch.setitem(accelerated._WRAPPERS, (routine, dtype), broken)
    rng = np.random.default_rng(13)
    operands = list(make(rng, dtype))
    if rows is not None:
        operands.append(_random(rng, (rows, NRHS), dtype))
    fortran = [np.asfortranarray(x) for x in operands]
    with pytest.raises(_Broken):
        _kernel("accelerated", routine)(*fortran, *args)
    assert [x.tobytes() for x in fortran] == \
        [x.tobytes() for x in operands]

    want = _run(_kernel("reference", routine),
                [x.copy() for x in operands], args)
    with use_backend("accelerated"):
        got = _run(_operands_first(getattr(kernels, routine), routine),
                   fortran, args)
    assert got == want
    assert all(x.flags.f_contiguous for x in fortran)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [1, 5, 300])
@pytest.mark.parametrize("dense", [True, False], ids=["dense", "diagonal"])
def test_every_nan_pivot_position_is_reported(backend, dtype, n, dense):
    """The accelerated adapters add the NaN-pivot check this SciPy
    build's ``?potrf`` omits.  A NaN at any diagonal position, or off
    the diagonal, of a dense or a diagonal SPD matrix must give
    ``posv`` and ``potrf`` the same info on both backends: the first
    NaN pivot, 1-based."""
    rng = np.random.default_rng(n)
    g = _random(rng, (n, n), dtype)
    spd = (g @ g.conj().T if dense else 0 * g) + n * np.eye(n, dtype=dtype)
    kernels = get_backend(backend)
    for i, j in {(0, 0), (n // 2, n // 2), (n - 1, n - 1), (0, n - 1),
                 (n // 2, n - 1)}:
        for uplo in "UL":
            a = spd.copy()
            a[i, j] = a[j, i] = np.nan
            first = min(i, j) if i == j else max(i, j)
            want = first + 1
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ac = a.copy()
                assert kernels.get("potrf")(ac, uplo) == want
                ac, b = a.copy(), _random(rng, (n,), dtype)
                assert kernels.get("posv")(ac, b.copy(), uplo) == want


@pytest.mark.parametrize("case_name", WRITING)
@pytest.mark.parametrize("layout", ["C", "F"])
def test_a_read_only_operand_raises_with_every_operand_untouched(case_name,
                                                                 layout):
    """Any one read-only operand turns every overwrite flag off, and the
    adapter raises ``ValueError`` before its first write-back: LAPACK
    worked on f2py's copies only, so no operand changed, the writeable
    ones beside the read-only one included."""
    if "accelerated" not in BACKENDS:
        pytest.skip("the accelerated backend needs SciPy")
    routine, make, args, rows, chars = CASES[case_name]
    dtype = "d" if "d" in chars else "D"
    kernel = _kernel("accelerated", routine)
    rng = np.random.default_rng(19)
    operands = [LAYOUTS[layout](x) if x.ndim == 2 else x
                for x in make(rng, dtype)]
    operands.append(LAYOUTS[layout](_random(rng, (rows, NRHS), dtype)))
    for k in range(len(operands)):
        ops = [x.copy(order="K") for x in operands]
        ops[k].flags.writeable = False
        with warnings.catch_warnings(), pytest.raises(ValueError):
            warnings.simplefilter("ignore")
            kernel(*ops, *args)
        assert [x.tobytes() for x in ops] == \
            [x.tobytes() for x in operands], f"operand {k} read-only"


def _every_adapter_call():
    """Call every accelerated adapter over its flags: each CASES kernel
    in every served dtype, ``syev``/``heev`` with ``jobz='N'``,
    ``gesvd`` over every job pair on a tall and a wide matrix, and the
    stack adapters."""
    backend = get_backend("accelerated")
    rng = np.random.default_rng(23)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for routine, make, args, rows, chars in CASES.values():
            for dtype in chars:
                ops = list(make(rng, dtype))
                if rows is not None:
                    ops.append(_random(rng, (rows,), dtype))
                _kernel("accelerated", routine)(*ops, *args)
        for dtype in DTYPES:
            name = "syev" if dtype in "fd" else "heev"
            (h,) = _hermitian(rng, dtype)
            backend.get(name)(h, "N", "L")
            backend.get(name + "_stack")(np.stack([h, h]), "V", "U")
            for shape in ((N + 2, N), (N - 2, N)):
                for jobs in ("NN", "SN", "NA", "SS", "AA"):
                    backend.get("gesvd")(_random(rng, shape, dtype), *jobs,
                                         np.zeros(min(shape) - 1))
            (g,) = _general(rng, dtype)
            (p,) = _spd(rng, dtype)
            b = _random(rng, (2, N), dtype)
            backend.get("gesv_stack")(np.stack([g, g]), b.copy())
            backend.get("posv_stack")(np.stack([p, p]), b.copy(), "L")
            backend.get("gels_stack")(np.stack([g, g]), b.copy(), "T")


def test_no_adapter_passes_a_keyword(monkeypatch):
    """Every adapter calls its typed wrapper positionally, with f2py's
    own defaults written out: a keyword costs f2py's keyword parsing on
    every call.  Each ``_WRAPPERS`` entry is wrapped to refuse
    keywords, and every routine in the table must have been called."""
    if "accelerated" not in BACKENDS:
        pytest.skip("the accelerated backend needs SciPy")
    from repro.backends import accelerated
    accelerated._load_wrappers()        # SciPy loads at the first call
    called = set()

    def positional(key, wrapper):
        def call(*args, **kwargs):
            assert not kwargs, f"{key}: keywords {sorted(kwargs)}"
            called.add(key[0])
            return wrapper(*args)
        return call

    for key, wrapper in list(accelerated._WRAPPERS.items()):
        monkeypatch.setitem(accelerated._WRAPPERS, key,
                            positional(key, wrapper))
    _every_adapter_call()
    assert called == {name for name, _ in accelerated._WRAPPERS}


def _raw_destroyed(name, a, *flags):
    """What the typed wrapper leaves in a Fortran-ordered copy of ``a``
    when it runs in place (``flags`` up to and including
    ``overwrite_a``)."""
    from repro.backends import accelerated
    af = np.asfortranarray(a)
    accelerated._flavor(name, a.dtype)(af, *flags)
    return af.tobytes()


@pytest.fixture
def no_chaos():
    """Disarm the chaos profile, which would escalate the accelerated
    kernel to reference and so leave reference's bytes."""
    from repro import faults
    faults.chaos_clear()
    yield


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(N, N), (N + 2, N), (N - 2, N)])
def test_what_a_destroyed_a_holds(no_chaos, backend, dtype, shape):
    """``la_syev``/``la_heev`` with ``jobz='N'`` and ``la_gesvd``
    document ``a`` as destroyed; this pins what each backend leaves.
    Reference computes on C order, so both layouts hold the same bytes:
    the reduced matrix, except that its ``gesvd`` reduces the adjoint
    of a wide matrix and leaves ``a`` intact.  Accelerated runs LAPACK
    in place on a writeable Fortran-ordered ``a``, which then holds
    what the typed wrapper leaves there; any other ``a`` reaches LAPACK
    as f2py's copy and is left intact.  Outputs never depend on the
    layout."""
    from repro import la_gesvd, la_heev, la_syev
    rng = np.random.default_rng(29)
    a0 = _random(rng, shape, dtype)
    square = shape[0] == shape[1]
    if square:
        a0 = a0 + a0.conj().T
        driver = la_syev if dtype in "fd" else la_heev
        name, flags = driver.__name__[3:], (0, 0, max(3 * N - 1, 1), 1)
        if name == "heev":
            flags = (0, 0, max(2 * N - 1, 1), 1)
    else:
        driver, name = la_gesvd, "gesvd"
        k, mx = min(shape), max(shape)
        lwork = max(2 * k + mx, 1) if dtype in "FD" \
            else max(3 * k + mx, 5 * k, 1)
        flags = (0, 1, lwork, 1)
    left, outputs = {}, {}
    with use_backend(backend), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for layout, fn in LAYOUTS.items():
            a = fn(a0.copy())
            outputs[layout] = np.asarray(driver(a)).tobytes()
            left[layout] = a.tobytes()
    assert outputs["C"] == outputs["F"]
    if backend == "reference":
        assert left["C"] == left["F"]
        assert (left["C"] == a0.tobytes()) == (shape[0] < shape[1])
    else:
        assert left["C"] == a0.tobytes()
        assert left["F"] == _raw_destroyed(name, a0, *flags)
        assert left["F"] != np.asfortranarray(a0).tobytes()
