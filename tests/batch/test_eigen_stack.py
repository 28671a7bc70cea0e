"""``batch_syev``/``batch_heev`` on the stack path against the looped
scalar drivers, and the calls that must stay per-problem.

With nothing armed, an eigen stack crosses the dispatch seam once (the
accelerated substrate's native ``syev_stack``/``heev_stack``, the
grafted loop-mode entry on reference).  Each problem must still get
exactly what ``la_syev``/``la_heev`` give it alone: the same eigenvalue
bytes and dtype, the same eigenvector bytes under ``jobz='V'`` (and an
untouched slice where the problem failed), the same ``Info``.  An armed
deadline or fault keeps the per-problem path: a mid-batch
``DeadlineExceeded`` leaves the completed prefix written, and a forced
code reaches only the problems it was armed for.

Each test clears the chaos profile first (it forces the per-problem
path, which is what the stack path is compared against).
"""

from __future__ import annotations

import contextlib
import time
import warnings

import numpy as np
import pytest

import repro
from repro import DeadlineExceeded, Info, deadline, faults, use_backend
from repro.backends import available_backends, get_backend
from repro.batch import BatchInfo
from repro.errors import DEADLINE

BACKENDS = [n for n in ("reference", "accelerated")
            if n in available_backends()]

BATCH, N = 6, 5
POISONED = 2


@contextlib.contextmanager
def _spied(backend, routine, delay=0.0):
    """Count the calls ``backend`` serves for ``routine`` (sleeping
    ``delay`` seconds in each) for the duration of the block."""
    table = get_backend(backend)
    real = table.get(routine)
    calls = []

    def spy(*args, **kwargs):
        calls.append(routine)
        time.sleep(delay)
        return real(*args, **kwargs)

    table.extend({routine: spy})
    try:
        yield calls
    finally:
        table.extend({routine: real})


def _operands(rng, batch, dtype):
    """Unsymmetric slices: each kernel reads only its ``uplo``
    triangle, so a wrong ``uplo`` shows in the output."""
    a = rng.standard_normal((batch, N, N))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal((batch, N, N))
    return a.astype(dtype)


def _looped(name, a, with_w, **kwargs):
    scalar = getattr(repro, name)
    out, infos = [], []
    for k in range(a.shape[0]):
        ak, pinfo = a[k].copy(), Info()
        wk = np.zeros(N, a.real.dtype) if with_w else None
        out.append((scalar(ak, wk, info=pinfo, **kwargs), ak))
        infos.append(pinfo.value)
    return out, infos


CASES = [("la_syev", "f"), ("la_syev", "d"), ("la_heev", "F"),
         ("la_heev", "D")]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name, dtype", CASES)
@pytest.mark.parametrize("uplo", ["U", "L"])
@pytest.mark.parametrize("jobz", ["N", "V"])
@pytest.mark.parametrize("with_w", [False, True],
                         ids=["w-omitted", "w-given"])
@pytest.mark.parametrize("poisoned", [False, True],
                         ids=["finite", "nan-slice"])
def test_stack_path_matches_looped_driver(backend, name, dtype, uplo, jobz,
                                          with_w, poisoned):
    faults.chaos_clear()
    rng = np.random.default_rng(20261017)
    a = _operands(rng, BATCH, dtype)
    if poisoned:             # propagates under the default policy
        a[POISONED, 0, 0] = np.nan
    batched = getattr(repro.batch, "batch_" + name[3:])
    kernel = name[3:] + "_stack"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with use_backend(backend), _spied(backend, kernel) as calls:
            ab, binfo = a.copy(), BatchInfo()
            wb = np.zeros((BATCH, N), a.real.dtype) if with_w else None
            w = batched(ab, wb, jobz=jobz, uplo=uplo, info=binfo)
            looped, infos = _looped(name, a, with_w, jobz=jobz, uplo=uplo)
    assert calls == [kernel]                  # one seam crossing
    if with_w:
        assert w is wb
    assert list(binfo.codes()) == infos
    for k, (wk, ak) in enumerate(looped):
        assert w.dtype == wk.dtype
        assert w[k].tobytes() == wk.tobytes(), f"w[{k}]"
        assert ab[k].tobytes() == ak.tobytes(), f"a[{k}]"


@pytest.mark.parametrize("backend", BACKENDS)
def test_deadline_keeps_the_per_problem_path(backend):
    """An armed deadline runs each problem through the body: the one
    that trips leaves the problems before it written."""
    faults.chaos_clear()
    batch = 40
    a = _operands(np.random.default_rng(7), batch, "d")
    ab, wb, binfo = a.copy(), np.zeros((batch, N)), BatchInfo()
    with use_backend(backend), _spied(backend, "syev_stack") as calls, \
            _spied(backend, "syev", delay=0.004):
        with pytest.raises(DeadlineExceeded) as excinfo:
            with deadline(0.06):
                repro.batch.batch_syev(ab, wb, jobz="V", info=binfo)
        looped, _ = _looped("la_syev", a, True, jobz="V")
    assert calls == []
    assert excinfo.value.partial is binfo
    codes = np.asarray(binfo.codes())
    cut = int(np.argmax(codes != 0))
    assert cut >= 1 and np.all(codes[:cut] == 0)
    assert np.all(codes[cut:] == DEADLINE)
    for k in range(batch):
        wk, ak = looped[k] if k < cut else (np.zeros(N), a[k])
        assert wb[k].tobytes() == wk.tobytes(), f"w[{k}]"
        assert ab[k].tobytes() == ak.tobytes(), f"a[{k}]"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name, dtype", [("la_syev", "d"),
                                         ("la_heev", "D")])
def test_armed_fault_keeps_the_per_problem_path(backend, name, dtype):
    """A forced code reaches the problems it was armed for (the first
    two) and no others, as in the looped driver."""
    faults.chaos_clear()
    a = _operands(np.random.default_rng(8), BATCH, dtype)
    kernel = name[3:]
    ab, binfo = a.copy(), BatchInfo()
    with use_backend(backend), \
            _spied(backend, kernel + "_stack") as calls, \
            _spied("reference", kernel + "_stack") as ref_calls:
        with faults.injected(kernel, linfo=4, count=2):
            w = getattr(repro.batch, "batch_" + kernel)(
                ab, jobz="V", info=binfo)
        with faults.injected(kernel, linfo=4, count=2):
            looped, infos = _looped(name, a, False, jobz="V")
    assert calls == [] and ref_calls == []
    assert list(binfo.codes()) == infos == [4, 4] + [0] * (BATCH - 2)
    for k, (wk, ak) in enumerate(looped):
        assert w[k].tobytes() == wk.tobytes(), f"w[{k}]"
        assert ab[k].tobytes() == ak.tobytes(), f"a[{k}]"
