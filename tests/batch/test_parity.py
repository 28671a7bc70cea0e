"""Property-based parity: ``batch_gesv`` over a stack is elementwise
identical to looping ``la_gesv`` — same solutions bit-for-bit, same
pivots, same per-problem ``Info`` codes, same componentwise backward
error — on every registered backend and under the chaos profile.

Both runs share one dispatch seam, so parity is the strongest possible
statement that the generated wrapper adds *nothing* numerically: it
only amortizes validation and aggregates the error contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Info, available_backends, faults, la_gesv, use_backend
from repro.batch import BatchInfo, batch_gesv

SETTINGS = dict(max_examples=15, deadline=None)

BACKENDS = [n for n in ("reference", "accelerated")
            if n in available_backends()]


def _problems(seed, batch, n, nrhs, n_singular=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((batch, n, n)) + n * np.eye(n)
    if n_singular:
        # zero out a deterministic subset so failure codes get exercised
        for k in rng.choice(batch, size=min(n_singular, batch),
                            replace=False):
            a[k] = 0.0
    b = rng.standard_normal((batch, n, nrhs))
    return a, b


def _componentwise_backward_error(a, x, b):
    """max_i |b - Ax|_i / (|A||x| + |b|)_i — the Appendix F metric."""
    r = np.abs(b - a @ x)
    scale = np.abs(a) @ np.abs(x) + np.abs(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.where(scale > 0, r / scale, 0.0)
    return float(np.nanmax(eta)) if eta.size else 0.0


def _assert_parity(a, b, backend):
    batch, n, _ = a.shape
    ab, bb = a.copy(), b.copy()
    bipiv = np.zeros((batch, n), dtype=np.int64)
    binfo = BatchInfo()
    with use_backend(backend):
        x = batch_gesv(ab, bb, bipiv, info=binfo)
    for k in range(batch):
        ak, bk = a[k].copy(), b[k].copy()
        pk = np.zeros(n, dtype=np.int64)
        pinfo = Info()
        with use_backend(backend):
            la_gesv(ak, bk, pk, info=pinfo)
        assert binfo.problems[k].value == int(pinfo), k
        if int(pinfo) == 0:
            np.testing.assert_array_equal(x[k], bk, err_msg=f"problem {k}")
            np.testing.assert_array_equal(bipiv[k], pk,
                                          err_msg=f"problem {k}")
            assert _componentwise_backward_error(a[k], x[k], b[k]) \
                == _componentwise_backward_error(a[k], bk, b[k])


@pytest.mark.parametrize("backend", BACKENDS)
@given(batch=st.integers(1, 6), n=st.integers(1, 10),
       nrhs=st.integers(1, 3), seed=st.integers(0, 2**31))
@settings(**SETTINGS)
def test_batch_gesv_elementwise_identical_to_loop(backend, batch, n,
                                                  nrhs, seed):
    a, b = _problems(seed, batch, n, nrhs)
    _assert_parity(a, b, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@given(batch=st.integers(2, 6), n=st.integers(2, 8),
       seed=st.integers(0, 2**31))
@settings(**SETTINGS)
def test_parity_holds_through_failures(backend, batch, n, seed):
    """Singular problems must carry the same per-problem Info codes as
    the scalar driver, and the healthy problems stay bit-identical."""
    a, b = _problems(seed, batch, n, nrhs=2, n_singular=1)
    _assert_parity(a, b, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@given(batch=st.integers(1, 5), n=st.integers(1, 8),
       seed=st.integers(0, 2**31))
@settings(**SETTINGS)
def test_parity_under_chaos(backend, batch, n, seed):
    """The CI chaos profile's accelerated rung (every accelerated
    ``gesv`` fails and escalates once to reference) must not open a gap
    between the batched and looped paths: both escalate every problem
    alike and land on identical reference-served results.  On reference
    nothing fires."""
    a, b = _problems(seed, batch, n, nrhs=2)
    batch_, n_ = a.shape[0], a.shape[1]
    ab, bb = a.copy(), b.copy()
    bipiv = np.zeros((batch_, n_), dtype=np.int64)
    binfo = BatchInfo()
    escalated = (("accelerated:gesv#1:error=InjectedFault",
                  "reference:gesv#2") if backend == "accelerated" else None)
    with faults.chaos("gesv", flaky_every=1, backend="accelerated"):
        with use_backend(backend):
            x = batch_gesv(ab, bb, bipiv, info=binfo)
        for k in range(batch_):
            ak, bk = a[k].copy(), b[k].copy()
            pk = np.zeros(n_, dtype=np.int64)
            pinfo = Info()
            with use_backend(backend):
                la_gesv(ak, bk, pk, info=pinfo)
            assert binfo.problems[k].value == int(pinfo), k
            assert binfo.problems[k].attempts == escalated, k
            assert pinfo.attempts == escalated, k
            np.testing.assert_array_equal(x[k], bk, err_msg=f"problem {k}")
            np.testing.assert_array_equal(bipiv[k], pk,
                                          err_msg=f"problem {k}")
