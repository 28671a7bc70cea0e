"""XB4 — batched drivers vs the per-problem loop.

Throughput (solves/sec) of ``batch_gesv``, ``batch_posv`` and
``batch_syev`` over a ``(batch, n, n)`` stack against looping the
scalar ``la_gesv``/``la_posv``/``la_syev``, at batch ∈ {1, 16, 256} on
every registered backend.  The batched wrapper amortizes validation
(one ladder per stack), ERINFO (one verdict) and — through the
``<kernel>_stack`` entries — the dispatch-seam crossing itself, so
throughput must scale with batch while the loop pays full driver
overhead per problem.

Results land in ``BENCH_batch.json`` (see conftest), in the ``change``
block when ``repro`` is this checkout's and in the ``parent`` block
otherwise, so the same file run with ``PYTHONPATH=<other checkout>/src``
records the comparison rows.  The floor tests pin the acceptance
criteria at batch=256 on the accelerated backend: ≥ 3× the looped
driver's throughput for ``batch_gesv``, ≥ 1.5× for ``batch_syev``.

The problems are small (n=8) on purpose: that is the regime batched
interfaces exist for — per-problem overhead rivals the numerical work.

    PYTHONPATH=src python -m pytest benchmarks/test_batch_throughput.py -q
"""

import warnings

import numpy as np
import pytest

from repro import backends, la_gesv, la_posv, la_syev
from repro.batch import batch_gesv, batch_posv, batch_syev

from .conftest import best_of, record_batch_timing

N = 8
BATCHES = (1, 16, 256)
BACKENDS = ("reference", "accelerated")
ROUTINES = ("gesv", "posv", "syev")


def _stack(rng, routine, batch, n=N):
    g = rng.standard_normal((batch, n, n))
    if routine == "gesv":
        a = g + n * np.eye(n)
    elif routine == "posv":
        a = g @ np.swapaxes(g, 1, 2) + n * np.eye(n)
    else:
        a = g + np.swapaxes(g, 1, 2)
    return a, rng.standard_normal((batch, n, 1))


def _batched(routine, a, b):
    if routine == "syev":
        return lambda: batch_syev(a.copy())
    wrapper = batch_gesv if routine == "gesv" else batch_posv
    return lambda: wrapper(a.copy(), b.copy())


def _looped(routine, a, b):
    def loop():
        for k in range(a.shape[0]):
            if routine == "syev":
                la_syev(a[k].copy())
            else:
                driver = la_gesv if routine == "gesv" else la_posv
                driver(a[k].copy(), b[k].copy())
    return loop


def _bench(benchmark, rng, routine, backend, batch, mode):
    if backend not in backends.available_backends():
        pytest.skip("backend {!r} not registered".format(backend))
    a, b = _stack(rng, routine, batch)
    make = _batched if mode == "batched" else _looped
    benchmark.extra_info.update(routine=routine, backend=backend,
                                batch=batch, mode=mode)
    with backends.use_backend(backend):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            benchmark(make(routine, a, b))
    if benchmark.stats is not None:
        record_batch_timing(routine, backend, batch, N, mode,
                            benchmark.stats.stats)


@pytest.mark.parametrize("routine", ROUTINES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("batch", BATCHES)
class TestBatchThroughput:
    def test_batched(self, benchmark, rng, routine, backend, batch):
        _bench(benchmark, rng, routine, backend, batch, "batched")

    def test_looped(self, benchmark, rng, routine, backend, batch):
        _bench(benchmark, rng, routine, backend, batch, "looped")


def _speedup_at_256(rng, routine):
    """Looped over batched wall time at batch=256 on the accelerated
    backend (best of 15 interleaved rounds each, measured directly so
    the gate holds even under --benchmark-disable)."""
    if "accelerated" not in backends.available_backends():
        pytest.skip("accelerated backend not registered")
    a, b = _stack(rng, routine, 256)
    batched, looped = _batched(routine, a, b), _looped(routine, a, b)
    with backends.use_backend("accelerated"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            best_of(batched, looped, rounds=2)          # warm up
            t_batched, t_looped = best_of(batched, looped, rounds=15)
    return t_looped / t_batched, t_batched, t_looped


def test_batched_speedup_floor_at_256(rng):
    """Acceptance floor: ``batch_gesv`` ≥ 3× the looped ``la_gesv``."""
    ratio, t_batched, t_looped = _speedup_at_256(rng, "gesv")
    assert ratio >= 3.0, (
        f"batched gesv only {ratio:.2f}x looped at batch=256 "
        f"({256 / t_batched:,.0f} vs {256 / t_looped:,.0f} solves/s)")


def test_batched_syev_speedup_floor_at_256(rng):
    """Acceptance floor: ``batch_syev`` ≥ 1.5× the looped ``la_syev``
    (its stack crosses the seam once, through ``syev_stack``)."""
    ratio, t_batched, t_looped = _speedup_at_256(rng, "syev")
    assert ratio >= 1.5, (
        f"batched syev only {ratio:.2f}x looped at batch=256 "
        f"({256 / t_batched:,.0f} vs {256 / t_looped:,.0f} solves/s)")
