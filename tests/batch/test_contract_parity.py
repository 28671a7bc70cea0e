"""Contract parity for every batchable spec: a ``batch_*`` call must
agree with looping the scalar ``la_*`` driver over the slices.

For each case the batched wrapper and the looped scalar driver run on
copies of the same stacks, under the same exception policy, and must
agree on

* the returned array, slice by slice, for every problem the scalar
  driver computed (a refused problem returns the scalar driver's
  refusal value, which has no batched counterpart);
* every in-place operand (``a``, ``b``) and every given output stack
  (``ipiv``, ``w``), for every problem;
* each problem's ``Info.value``, ``Info.fallback`` and ``Info.rcond``;
* the aggregate verdict: ``BatchInfo.value``/``first_failure`` are the
  first failing problem's, and without a handle the call raises the
  scalar driver's exception class carrying that problem's index.

The solver NaN cases poison the right-hand side of one problem; the
eigen and least-squares ones poison an off-diagonal pair of its matrix
(``A[0, n-1]`` and its mirror, so a symmetric operand stays symmetric).
A NaN reaching the Bunch–Kaufman pivot search is pinned by
``tests/lapack77/test_sym_indef_nonfinite.py``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro import (Info, LinAlgError, available_backends, exception_policy,
                   faults, use_backend)
from repro.batch import BatchInfo
from repro.errors import is_error_code

BACKENDS = [n for n in ("reference", "accelerated")
            if n in available_backends()]

BATCH, N, NRHS = 4, 5, 2
FAILING = 2            # the problem the failure cases break


def _general(rng, batch, m, n, dtype=np.float64):
    a = rng.standard_normal((batch, m, n))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal((batch, m, n))
    if m == n:
        a = a + n * np.eye(n)
    return a.astype(dtype)


def _symmetric(rng, batch, n, dtype=np.float64):
    g = _general(rng, batch, n, n, dtype)
    return (g + np.swapaxes(g, 1, 2).conj()).astype(dtype)


def _spd(rng, batch, n):
    g = rng.standard_normal((batch, n, n))
    return g @ np.swapaxes(g, 1, 2) + n * np.eye(n)


def _rhs(rng, batch, rows, vector, dtype=np.float64):
    shape = (batch, rows) if vector else (batch, rows, NRHS)
    b = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        b = b + 1j * rng.standard_normal(shape)
    return b.astype(dtype)


def _break(name, a, b):
    """Make problem ``FAILING`` fail the primary factorization."""
    if name == "la_posv":       # indefinite, nonsingular
        a[FAILING] = np.diag(np.arange(1.0, N + 1) * [1, -1, 1, 1, 1])
    elif name == "la_gesv":     # exactly singular: zero last column
        a[FAILING][:, -1] = 0.0
    else:                       # la_sysv / la_hesv: zero matrix
        a[FAILING] = 0.0


def _poison(a):
    a[FAILING, 0, -1] = np.nan
    a[FAILING, -1, 0] = np.nan


def _poison_rhs(name, a, b):
    b[FAILING, 0] = np.nan


def _solver_cases():
    makers = {
        "la_gesv": lambda rng: _general(rng, BATCH, N, N),
        "la_posv": lambda rng: _spd(rng, BATCH, N),
        "la_sysv": lambda rng: _symmetric(rng, BATCH, N),
        "la_hesv": lambda rng: _symmetric(rng, BATCH, N, np.complex128),
    }
    cases = []
    for name, make in makers.items():
        pivoted = name != "la_posv"
        for tag, vector, ipiv, policy, edit in (
                ("clean-matrix", False, pivoted, {}, None),
                ("clean-vector", True, False, {}, None),
                ("fail-fallbacks-off", False, pivoted,
                 {"fallbacks": False}, _break),
                ("fail-fallbacks-on", True, pivoted,
                 {"fallbacks": True}, _break),
                ("nan-check", False, pivoted,
                 {"nonfinite": "check"}, _poison_rhs),
                ("nan-warn", True, False,
                 {"nonfinite": "warn"}, _poison_rhs)):
            cases.append(pytest.param(name, make, vector, ipiv, policy, edit,
                                      id=f"{name}-{tag}"))
    return cases


def _assert_parity(name, stacks, kwargs, policy, backend):
    """Run ``batch_*`` and the looped ``la_*`` on copies of ``stacks``
    (a dict of stacked operands, outputs included) and compare."""
    scalar = getattr(repro, name)
    batched = getattr(repro.batch, "batch_" + name[3:])
    outputs = {k: v for k, v in stacks.items() if k not in ("a", "b")}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with exception_policy(**policy), use_backend(backend):
            bstacks = {k: v.copy() for k, v in stacks.items()}
            binfo = BatchInfo()
            x = batched(*(bstacks[k] for k in ("a", "b") if k in bstacks),
                        info=binfo, **kwargs,
                        **{k: bstacks[k] for k in outputs})
            infos, results, slices = [], [], []
            for k in range(stacks["a"].shape[0]):
                sk = {n: v[k].copy() for n, v in stacks.items()}
                pinfo = Info()
                out = scalar(*(sk[n] for n in ("a", "b") if n in sk),
                             info=pinfo, **kwargs,
                             **{n: sk[n] for n in outputs})
                infos.append(pinfo)
                results.append(out)
                slices.append(sk)

            # the aggregate verdict, and the raise path without a handle
            failing = [k for k, p in enumerate(infos)
                       if p.fallback is None and is_error_code(p.value)]
            kf = failing[0] if failing else -1
            assert binfo.first_failure == kf
            assert binfo.value == (infos[kf].value if failing else 0)
            fresh = {k: v.copy() for k, v in stacks.items()}
            if failing:
                sk = {n: v[kf].copy() for n, v in stacks.items()}
                with pytest.raises(LinAlgError) as scalar_err:
                    scalar(*(sk[n] for n in ("a", "b") if n in sk),
                           **kwargs, **{n: sk[n] for n in outputs})
                with pytest.raises(type(scalar_err.value)) as batch_err:
                    batched(*(fresh[n] for n in ("a", "b") if n in fresh),
                            **kwargs, **{n: fresh[n] for n in outputs})
                assert batch_err.value.batch_index == kf
            else:
                batched(*(fresh[n] for n in ("a", "b") if n in fresh),
                        **kwargs, **{n: fresh[n] for n in outputs})

    assert len(binfo.problems) == len(infos)
    for k, (pinfo, got) in enumerate(zip(infos, binfo.problems)):
        assert (got.value, got.fallback, got.rcond) \
            == (pinfo.value, pinfo.fallback, pinfo.rcond), k
        for n in stacks:
            np.testing.assert_array_equal(bstacks[n][k], slices[k][n],
                                          err_msg=f"{n}[{k}]")
        if pinfo.value >= 0:
            np.testing.assert_array_equal(x[k], results[k],
                                          err_msg=f"result[{k}]")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name, make, vector, ipiv, policy, edit",
                         _solver_cases())
def test_solver_batch_matches_scalar_loop(backend, name, make, vector, ipiv,
                                          policy, edit):
    rng = np.random.default_rng(20261017)
    a = make(rng)
    b = _rhs(rng, BATCH, N, vector, a.dtype)
    if edit is not None:
        edit(name, a, b)
    stacks = {"a": a, "b": b}
    if ipiv:
        stacks["ipiv"] = np.zeros((BATCH, N), dtype=np.int64)
    _assert_parity(name, stacks, {}, policy, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("m, n", [(7, 4), (4, 7)],
                         ids=["overdetermined", "underdetermined"])
@pytest.mark.parametrize("trans", ["N", "T"])
@pytest.mark.parametrize("vector", [False, True], ids=["matrix", "vector"])
def test_gels_batch_matches_scalar_loop(backend, m, n, trans, vector):
    rng = np.random.default_rng(20261018)
    a = _general(rng, BATCH, m, n)
    rows = m if trans == "N" else n
    stacks = {"a": a, "b": _rhs(rng, BATCH, rows, vector)}
    _assert_parity("la_gels", stacks, {"trans": trans}, {}, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("nonfinite", ["check", "warn"])
def test_gels_nan_problem_matches_scalar_loop(backend, nonfinite):
    rng = np.random.default_rng(20261019)
    a = _general(rng, BATCH, 7, 4)
    _poison(a[:, :4])
    stacks = {"a": a, "b": _rhs(rng, BATCH, 7, False)}
    _assert_parity("la_gels", stacks, {}, {"nonfinite": nonfinite},
                   backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name, dtype", [("la_syev", np.float64),
                                         ("la_heev", np.complex128)])
@pytest.mark.parametrize("jobz", ["N", "V"])
@pytest.mark.parametrize("with_w", [False, True], ids=["w-omitted",
                                                       "w-given"])
def test_eigen_batch_matches_scalar_loop(backend, name, dtype, jobz, with_w):
    rng = np.random.default_rng(20261020)
    stacks = {"a": _symmetric(rng, BATCH, N, dtype)}
    if with_w:
        stacks["w"] = np.zeros((BATCH, N))
    _assert_parity(name, stacks, {"jobz": jobz}, {}, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name, dtype", [("la_syev", np.float64),
                                         ("la_heev", np.complex128)])
@pytest.mark.parametrize("nonfinite", ["check", "warn"])
def test_eigen_nan_problem_matches_scalar_loop(backend, name, dtype,
                                               nonfinite):
    rng = np.random.default_rng(20261021)
    a = _symmetric(rng, BATCH, N, dtype)
    _poison(a)
    _assert_parity(name, {"a": a}, {"jobz": "V"}, {"nonfinite": nonfinite},
                   backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["la_gesv", "la_posv", "la_sysv",
                                  "la_hesv"])
def test_empty_problems_return_before_the_alloc_fault(backend, name):
    """``screen="nonempty"`` specs: at n = 0 the quick return comes
    before the entry gate, batched as in the scalar driver, so an armed
    allocation fault is not consumed and nothing reports -100."""
    dtype = np.complex128 if name == "la_hesv" else np.float64
    scalar = getattr(repro, name)
    batched = getattr(repro.batch, "batch_" + name[3:])
    a = np.zeros((3, 0, 0), dtype=dtype)
    b = np.zeros((3, 0, 2), dtype=dtype)
    with use_backend(backend):
        sinfo, binfo = Info(), BatchInfo()
        with faults.injected(name, alloc=True):
            scalar(a[0].copy(), b[0].copy(), info=sinfo)
        with faults.injected("batch_" + name[3:], alloc=True):
            x = batched(a.copy(), b.copy(), info=binfo)
            batched(a.copy(), b.copy())         # and nothing raises
    assert sinfo.value == 0
    assert binfo.value == 0
    assert x.shape == b.shape
