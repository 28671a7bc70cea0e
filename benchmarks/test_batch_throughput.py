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
so a burst of host load moves both sides alike.  The gate tests pin
the acceptance criteria on the accelerated backend, each as the median
of paired per-round ratios (``conftest.paired_ratios``, recorded with
its quartiles under the block's ``gates``): at batch=256
``batch_gesv`` and ``batch_posv`` at most :data:`FLOOR_GATE` times one
raw ``dgesv``/``dposv`` call per problem and ``batch_syev`` ≥ 1.5× the
looped ``la_syev``'s throughput; at batch=1 ``batch_gesv`` at most
:data:`FIXED_COST_GATE` times ``la_gesv``, the wrapper's fixed cost.

The problems are small (n=8) on purpose: that is the regime batched
interfaces exist for — per-problem overhead rivals the numerical work.

    PYTHONPATH=src python -m pytest benchmarks/test_batch_throughput.py -q
"""

import warnings

import numpy as np
import pytest

from repro import backends, la_gesv, la_posv, la_syev
from repro.batch import batch_gesv, batch_posv, batch_syev

from .conftest import (BATCH_GATES, best_of, paired_ratios,
                       record_batch_timing, spread)

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


def _paired(routine, batch, rng, rounds, *extra):
    """:func:`conftest.paired_ratios` of the batched call, and of each
    ``extra(a, b)``, over the looped driver on one accelerated
    ``(batch, N, N)`` stack (after a few warm-up rounds)."""
    if "accelerated" not in backends.available_backends():
        pytest.skip("the accelerated backend needs SciPy")
    a, b = _stack(rng, routine, batch)
    calls = {"looped": _looped(routine, a, b),
             "batched": _batched(routine, a, b)}
    calls.update((f"extra{i}", make(a, b)) for i, make in enumerate(extra))
    with backends.use_backend("accelerated"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            paired_ratios(calls, "looped", 5)
            return paired_ratios(calls, "looped", rounds)


def _gate(name, ratios, bound, passed):
    BATCH_GATES[name] = {"ratio": spread(ratios), "bound": bound,
                         "pass": bool(passed)}


#: ``batch_gesv`` over ``la_gesv`` on one 8x8 problem (batch=1), the
#: batch wrapper's fixed cost per call, as the median of paired rounds.
#: On a 2-vCPU x86 host the clean stack path read 2.43-2.59 in fifteen
#: runs; its parent, which built a handle, an outcome list and a
#: slicing table per call, read 4.17-4.64.
FIXED_COST_GATE = 3.0

#: ``batch_gesv``/``batch_posv`` over one raw ``dgesv``/``dposv`` call
#: per problem at batch=256, as the median of paired rounds.  With the
#: positional stack calls the same host read 1.03-1.22 (gesv) and
#: 0.92-1.14 (posv) in twenty-one runs, the high readings in bursts of
#: host load; their parent read 1.29-1.46 and 1.21-1.44.  The bound
#: was 2 (best of rounds) before.
FLOOR_GATE = 1.35


def test_batch_fixed_cost_at_batch_1(rng):
    """Acceptance gate: at batch=1 on the accelerated backend,
    ``batch_gesv`` costs at most :data:`FIXED_COST_GATE` times
    ``la_gesv`` on the same problem (median of paired rounds).  A clean
    stack crosses the seam once and builds nothing per problem, so what
    is left over ``la_gesv`` is the stack's own bookkeeping: the
    stack-level validation walk, one private copy per operand stack,
    the gather of the per-slice outputs."""
    ratios = _paired("gesv", 1, rng, 3000)["batched"]
    ratio = float(np.median(ratios))
    _gate("gesv/batch=1/batched_over_la_gesv", ratios, FIXED_COST_GATE,
          ratio <= FIXED_COST_GATE)
    assert ratio <= FIXED_COST_GATE, (
        f"batch_gesv at batch=1 costs {ratio:.2f}x la_gesv "
        f"(median of paired rounds; gate {FIXED_COST_GATE})")


@pytest.mark.parametrize("routine", ["gesv", "posv"])
def test_batched_overhead_over_raw_lapack_at_256(rng, routine):
    """Acceptance floor: at batch=256 on the accelerated backend,
    ``batch_gesv``/``batch_posv`` cost at most :data:`FLOOR_GATE` times
    one raw ``dgesv``/``dposv`` call per problem (median of paired
    rounds).

    The stack adapters run LAPACK in place on one private
    Fortran-ordered copy per stack and call the typed wrapper
    positionally, so a slice costs about what the raw call costs (which
    makes its own hidden copy and parses its keywords).  Measured
    against that floor in the same interleaved rounds, a cheaper scalar
    driver never reads as a slower batched one.
    """
    ratios = _paired(routine, 256, rng, 150, _raw(routine))
    ratio = float(np.median(ratios["batched"] / ratios["extra0"]))
    _gate(f"{routine}/batch=256/batched_over_raw",
          ratios["batched"] / ratios["extra0"], FLOOR_GATE,
          ratio <= FLOOR_GATE)
    assert ratio <= FLOOR_GATE, (
        f"batched {routine} costs {ratio:.2f}x raw d{routine} per "
        f"problem at batch=256 (median of paired rounds; looped "
        f"la_{routine} reads "
        f"{float(np.median(1 / ratios['extra0'])):.2f}x raw)")


def test_batched_syev_speedup_floor_at_256(rng):
    """Acceptance floor: ``batch_syev`` ≥ 1.5× the looped ``la_syev``
    (its stack crosses the seam once, through ``syev_stack``), as the
    median of paired rounds."""
    ratios = 1 / _paired("syev", 256, rng, 30)["batched"]
    speedup = float(np.median(ratios))
    _gate("syev/batch=256/looped_over_batched", ratios, 1.5,
          speedup >= 1.5)
    assert speedup >= 1.5, (
        f"batched syev only {speedup:.2f}x looped at batch=256 "
        "(median of paired rounds)")
