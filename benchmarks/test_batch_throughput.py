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
records the comparison rows.  Each row pair times the batched call and
the looped driver in the same interleaved rounds (``conftest.best_of``),
so a burst of host load moves both sides alike.  The floor tests pin
the acceptance criteria at batch=256 on the accelerated backend:
``batch_gesv`` and ``batch_posv`` at most 2× one raw ``dgesv``/``dposv``
call per problem, and ``batch_syev`` ≥ 1.5× the looped ``la_syev``'s
throughput.

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


def _interleaved(routine, backend, batch, rng, rounds, *extra):
    """Best wall time of the batched call, the looped driver and each
    of ``extra(a, b)`` over ``rounds`` interleaved rounds (after two
    warm-up rounds) on one ``(batch, N, N)`` stack."""
    if backend not in backends.available_backends():
        pytest.skip("backend {!r} not registered".format(backend))
    a, b = _stack(rng, routine, batch)
    fns = [_batched(routine, a, b), _looped(routine, a, b)]
    fns += [make(a, b) for make in extra]
    with backends.use_backend(backend):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            best_of(*fns, rounds=2)
            return best_of(*fns, rounds=rounds)


@pytest.mark.parametrize("routine", ROUTINES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("batch", BATCHES)
def test_batched_vs_looped(rng, routine, backend, batch):
    """One ``BENCH_batch.json`` row pair: both sides timed in the same
    interleaved rounds, so host noise moves them alike."""
    rounds = max(15, 4096 // batch)
    times = _interleaved(routine, backend, batch, rng, rounds)
    for mode, best in zip(("batched", "looped"), times):
        record_batch_timing(routine, backend, batch, N, mode, best,
                            rounds)


def _raw(routine):
    """The per-slice floor: one f2py ``d<routine>`` call per problem on
    the caller's C-ordered slice, the loop a caller would write by
    hand over ``scipy.linalg.lapack``."""
    from scipy.linalg import lapack
    f = getattr(lapack, "d" + routine)

    def make(a, b):
        def loop():
            for k in range(a.shape[0]):
                f(a[k], b[k])
        return loop
    return make


@pytest.mark.parametrize("routine", ["gesv", "posv"])
def test_batched_overhead_over_raw_lapack_at_256(rng, routine):
    """Acceptance floor: at batch=256 on the accelerated backend,
    ``batch_gesv``/``batch_posv`` cost at most 2× one raw
    ``dgesv``/``dposv`` call per problem.

    The stack adapters run LAPACK in place on one private
    Fortran-ordered copy per stack, so a slice costs about what the raw
    call costs (which makes its own hidden copy).  On a 2-vCPU host
    both read 1.2–1.4× (the batched side also copies its operands
    first); before the in-place adapters they read 2.0–2.4×.  Measured
    against that floor in the same interleaved rounds, a cheaper scalar
    driver never reads as a slower batched one.
    """
    t_batched, t_looped, t_raw = _interleaved(
        routine, "accelerated", 256, rng, 15, _raw(routine))
    ratio = t_batched / t_raw
    assert ratio <= 2.0, (
        f"batched {routine} costs {ratio:.2f}x raw d{routine} per "
        f"problem at batch=256 ({t_batched / 256 * 1e6:.2f} vs "
        f"{t_raw / 256 * 1e6:.2f} us; looped la_{routine} "
        f"{t_looped / 256 * 1e6:.2f} us)")


def test_batched_syev_speedup_floor_at_256(rng):
    """Acceptance floor: ``batch_syev`` ≥ 1.5× the looped ``la_syev``
    (its stack crosses the seam once, through ``syev_stack``)."""
    t_batched, t_looped = _interleaved("syev", "accelerated", 256, rng, 15)
    ratio = t_looped / t_batched
    assert ratio >= 1.5, (
        f"batched syev only {ratio:.2f}x looped at batch=256 "
        f"({256 / t_batched:,.0f} vs {256 / t_looped:,.0f} solves/s)")
