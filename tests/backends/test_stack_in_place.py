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
    real = accelerated._WRAPPERS[name, "d"]
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
