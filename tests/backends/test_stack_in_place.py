"""The accelerated ``*_stack`` adapters against the scalar adapters.

Each stack adapter runs LAPACK in place on one private Fortran-ordered
copy of every operand stack and writes the copies back after the last
slice returns.  Whatever the caller's layout (C- or F-ordered stack, a
strided view), right-hand-side shape or dtype, every slice must come
out byte-identical to the scalar adapter run on that slice alone:
factors, pivots, solutions (or the right-hand side left unsolved),
eigenvalues/vectors and info.  A kernel that raises mid-stack must
leave the caller's operands untouched, which is what keeps the stack
entries declared write-back.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.backends import available_backends, get_backend

pytestmark = pytest.mark.skipif(
    "accelerated" not in available_backends(),
    reason="accelerated backend needs SciPy")

DTYPES = ["f", "d", "F", "D"]
BATCH, N = 6, 5
SINGULAR, NAN_PIVOT = 2, 3


def _random(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


def _general(rng, dtype, batch=BATCH):
    a = _random(rng, (batch, N, N), dtype) + N * np.eye(N, dtype=dtype)
    a[SINGULAR] = 0
    return a


def _spd(rng, dtype, batch=BATCH):
    g = _random(rng, (batch, N, N), dtype)
    a = g @ g.conj().transpose(0, 2, 1) + N * np.eye(N, dtype=dtype)
    a[NAN_PIVOT, 2, 2] = np.nan
    a[SINGULAR] = np.diag([1.0, 2.0, -3.0, 4.0, 5.0])      # indefinite
    return a


def _every_other(x):
    """``x`` as the even slices of a stack twice its length."""
    out = np.zeros((2 * len(x),) + x.shape[1:], dtype=x.dtype)
    out[::2] = x
    return out[::2]


LAYOUTS = {"C": lambda x: x, "F": np.asfortranarray,
           "strided": _every_other}


def _laid_out(layout, x):
    """``x`` in the given memory layout, values unchanged."""
    out = LAYOUTS[layout](x.copy())
    np.testing.assert_array_equal(out, x)
    return out


def _check(routine, stack, scalar, operands, *args):
    """Run the stack adapter on ``operands`` and the scalar one on each
    slice; compare every output byte for byte."""
    kernels = get_backend("accelerated")
    pristine = [x.copy() for x in operands]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = kernels.get(stack)(*operands, *args)
        got = got if isinstance(got, tuple) else (got,)
        for k in range(len(pristine[0])):
            slices = [x[k].copy() for x in pristine]
            want = kernels.get(scalar)(*slices, *args)
            want = want if isinstance(want, tuple) else (want,)
            for g, w in zip(got, want):
                w = np.asarray(w)
                assert g[k].dtype == w.dtype or w.ndim == 0, routine
                assert np.asarray(g[k], dtype=w.dtype).tobytes() \
                    == w.tobytes(), f"{routine} output, slice {k}"
            for x, s in zip(operands, slices):
                assert x[k].tobytes() == s.tobytes(), \
                    f"{routine} operand, slice {k}"
    return got


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("nrhs", [None, 2], ids=["vector", "matrix"])
def test_gesv_stack_matches_scalar_gesv(dtype, layout, nrhs):
    rng = np.random.default_rng(1)
    a = _laid_out(layout, _general(rng, dtype))
    shape = (BATCH, N) if nrhs is None else (BATCH, N, nrhs)
    b = _laid_out(layout, _random(rng, shape, dtype))
    _, infos = _check("gesv", "gesv_stack", "gesv", [a, b])
    assert infos[0] == 0 and infos[SINGULAR] > 0


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("nrhs", [None, 2], ids=["vector", "matrix"])
@pytest.mark.parametrize("uplo", ["U", "L"])
def test_posv_stack_matches_scalar_posv(dtype, layout, nrhs, uplo):
    rng = np.random.default_rng(2)
    a = _laid_out(layout, _spd(rng, dtype))
    shape = (BATCH, N) if nrhs is None else (BATCH, N, nrhs)
    b = _laid_out(layout, _random(rng, shape, dtype))
    (infos,) = _check("posv", "posv_stack", "posv", [a, b], uplo)
    assert infos[0] == 0 and infos[SINGULAR] > 0
    assert infos[NAN_PIVOT] == 3                    # the NaN pivot check


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("jobz", ["N", "V"])
@pytest.mark.parametrize("uplo", ["U", "L"])
def test_eig_stack_matches_scalar_eig(dtype, layout, jobz, uplo):
    rng = np.random.default_rng(3)
    a = _laid_out(layout, _random(rng, (BATCH, N, N), dtype))
    name = "heev" if np.dtype(dtype).kind == "c" else "syev"
    _, infos = _check(name, name + "_stack", name, [a], jobz, uplo)
    assert not infos.any()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("m, n", [(7, 4), (4, 7)],
                         ids=["overdetermined", "underdetermined"])
@pytest.mark.parametrize("trans", ["N", "T"])
@pytest.mark.parametrize("nrhs", [None, 2], ids=["vector", "matrix"])
def test_gels_stack_matches_scalar_gels(dtype, layout, m, n, trans, nrhs):
    rng = np.random.default_rng(4)
    a = _laid_out(layout, _random(rng, (BATCH, m, n), dtype))
    rows = max(m, n)
    shape = (BATCH, rows) if nrhs is None else (BATCH, rows, nrhs)
    b = _laid_out(layout, _random(rng, shape, dtype))
    (infos,) = _check("gels", "gels_stack", "gels", [a, b], trans)
    assert not infos.any()


class _Broken(Exception):
    pass


@pytest.mark.parametrize("stack, name, args", [
    ("gesv_stack", "gesv", ()),
    ("posv_stack", "posv", ("L",)),
    ("gels_stack", "gels", ("N",)),
    ("syev_stack", "syev", ("V", "U")),
])
@pytest.mark.parametrize("fail_at", [0, BATCH - 1])
def test_a_raising_slice_leaves_the_operands_untouched(monkeypatch, stack,
                                                       name, args, fail_at):
    from repro.backends import accelerated
    real = accelerated._flavor(name, np.dtype("d"))
    calls = []

    def flaky(*a, **kw):
        calls.append(1)
        if len(calls) > fail_at:
            raise _Broken(name)
        return real(*a, **kw)

    monkeypatch.setitem(accelerated._WRAPPERS, (name, "d"), flaky)
    rng = np.random.default_rng(5)
    a = _spd(rng, "d")
    a[NAN_PIVOT] = a[0]
    operands = [a] if name == "syev" else [a, _random(rng, (BATCH, N), "d")]
    pristine = [x.copy() for x in operands]
    with pytest.raises(_Broken):
        get_backend("accelerated").get(stack)(*operands, *args)
    assert len(calls) == fail_at + 1
    for x, p in zip(operands, pristine):
        assert x.tobytes() == p.tobytes()


# -- positional typed-wrapper calls ------------------------------------
# The stack adapters call the typed wrapper positionally, passing
# f2py's documented default ``lwork`` for ?syev/?heev/?gels, so LAPACK
# gets the very call the scalar adapters make by keyword.

def _hermitian_stack(rng, dtype, batch, n):
    g = _random(rng, (batch, n, n), dtype)
    return g + g.conj().transpose(0, 2, 1)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [1, 2, 8, 33])
@pytest.mark.parametrize("jobz", ["N", "V"])
@pytest.mark.parametrize("uplo", ["U", "L"])
def test_eig_stack_positional_lwork_matches_scalar(dtype, n, jobz, uplo):
    rng = np.random.default_rng(n)
    a = _hermitian_stack(rng, dtype, 3, n)
    name = "heev" if np.dtype(dtype).kind == "c" else "syev"
    ws, infos = _check(name, name + "_stack", name, [a], jobz, uplo)
    assert ws.shape == (3, n) and ws.dtype == a.real.dtype
    assert not infos.any()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("m, n, nrhs", [(7, 4, 6), (4, 7, 6), (3, 3, 5)],
                         ids=["tall", "wide", "square"])
@pytest.mark.parametrize("trans", ["N", "T"])
def test_gels_stack_positional_lwork_matches_scalar(dtype, m, n, nrhs,
                                                    trans):
    """More right-hand sides than ``min(m, n)``, where ``nrhs`` sets
    ``?gels``'s default ``lwork``."""
    rng = np.random.default_rng(m * 10 + n)
    a = _random(rng, (BATCH, m, n), dtype)
    b = _random(rng, (BATCH, max(m, n), nrhs), dtype)
    (infos,) = _check("gels", "gels_stack", "gels", [a, b], trans)
    assert not infos.any()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("routine", ["gesv", "posv", "gels", "eig"])
def test_a_batch_of_one_matches_scalar(dtype, routine):
    rng = np.random.default_rng(6)
    if routine == "eig":
        name = "heev" if np.dtype(dtype).kind == "c" else "syev"
        a = _hermitian_stack(rng, dtype, 1, N)
        _check(name, name + "_stack", name, [a], "V", "U")
        return
    a = (_spd(rng, dtype, BATCH) if routine == "posv"
         else _general(rng, dtype, BATCH))[:1].copy()
    b = _random(rng, (1, N, 2), dtype)
    args = ("N",) if routine == "gels" else ()
    out = _check(routine, routine + "_stack", routine, [a, b], *args)
    assert not out[-1].any()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("nrhs", [None, 2], ids=["vector", "matrix"])
def test_a_stack_where_every_slice_fails(dtype, nrhs):
    rng = np.random.default_rng(7)
    shape = (BATCH, N) if nrhs is None else (BATCH, N, nrhs)
    a = np.zeros((BATCH, N, N), dtype=dtype)              # all singular
    b = _random(rng, shape, dtype)
    pristine = b.copy()
    _, infos = _check("gesv", "gesv_stack", "gesv", [a, b])
    assert (infos > 0).all()
    assert b.tobytes() == pristine.tobytes()              # all unsolved
    a = np.stack([np.diag([1.0, -2.0, 3.0, 4.0, 5.0])] * BATCH) \
        .astype(dtype)                                    # all indefinite
    b = _random(rng, shape, dtype)
    pristine = b.copy()
    (infos,) = _check("posv", "posv_stack", "posv", [a, b], "U")
    assert (infos == 2).all()
    assert b.tobytes() == pristine.tobytes()


# -- the batch wrapper's clean stack path ------------------------------

@pytest.fixture
def no_chaos():
    from repro import faults
    faults.chaos_clear()
    yield


def _wrapper_stack(rng, routine, dtype="d", batch=BATCH):
    a = _spd(rng, dtype, batch) if routine == "posv" \
        else _general(rng, dtype, batch)
    a[SINGULAR] = a[0]
    a[NAN_PIVOT] = a[0]
    return a, _random(rng, (batch, N, 2), dtype)


@pytest.mark.parametrize("routine", ["gesv", "posv", "syev"])
def test_a_clean_stack_call_builds_no_problems(no_chaos, routine):
    import repro
    from repro.batch import BatchInfo
    rng = np.random.default_rng(8)
    a, b = _wrapper_stack(rng, routine)
    info = BatchInfo(value=5)
    with repro.use_backend("accelerated"):
        if routine == "syev":
            w = repro.batch_syev(_hermitian_stack(rng, "d", BATCH, N),
                                 info=info)
            assert w.shape == (BATCH, N)
        else:
            getattr(repro, "batch_" + routine)(a, b, info=info)
    assert info._problems is None
    assert info.value == 0 and info.first_failure == -1
    assert info.codes() == (0,) * BATCH and info.batch == BATCH


def _run_wrapper(routine, a, b, info):
    import repro
    return getattr(repro, "batch_" + routine)(a, b, info=info)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("routine", ["gesv", "posv"])
@pytest.mark.parametrize("armed", ["deadline", "chaos", "fallbacks"])
def test_armed_calls_give_the_stack_paths_bytes(no_chaos, dtype, routine,
                                                armed):
    """A deadline or chaos sends every problem through the parent body,
    and ``fallbacks=True`` snapshots the stack first: the bytes match
    the clean stack path's all the same."""
    import contextlib

    import repro
    from repro import faults
    from repro.batch import BatchInfo
    rng = np.random.default_rng(9)
    a, b = _wrapper_stack(rng, routine, dtype)
    clean = [a.copy(), b.copy()]
    with repro.use_backend("accelerated"):
        _run_wrapper(routine, *clean, BatchInfo())
        ctx = {"deadline": lambda: repro.deadline(3600.0),
               "chaos": lambda: faults.chaos("getrs", latency=0.0),
               "fallbacks": lambda: repro.exception_policy(
                   fallbacks=True)}[armed]
        armed_run = [a.copy(), b.copy()]
        info = BatchInfo()
        with ctx(), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _run_wrapper(routine, *armed_run, info)
    assert info.first_failure == -1
    for got, want in zip(armed_run, clean):
        assert got.tobytes() == want.tobytes()
