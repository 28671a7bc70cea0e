"""Dispatch-seam overhead on the la_gesv hot loop (reference backend).

Times the dispatching kernel proxy, whose ``__call__`` is the seam that
escalates a failed kernel once, against the directly resolved kernel
with no deadline armed and no chaos, over interleaved rounds, and
writes BENCH_resilience.json: the median and quartiles of the per-round
ratio (``conftest.paired_ratios``), which the gate reads, and the best
single call of each side in seconds.  It lives here, not in the test
suite, because it rewrites that tracked file.

    PYTHONPATH=src python -m pytest benchmarks/test_resilience_overhead.py -q
"""

import json
import os

import numpy as np

from repro import la_gesv

from .conftest import best_of, paired_times, spread

ROUNDS = 600


def test_resilience_overhead_on_undeadlined_hot_loop():
    """The acceptance bound: with no deadline armed and no chaos, the
    resilient seam must cost ~nothing on the la_gesv hot loop (target
    <1%).  Isolated by timing the dispatching kernel proxy
    (``KernelProxy.__call__``: resolve, the chaos gate, the escalation
    ``try``) against the directly-resolved kernel on a size where the
    kernel dominates.
    The measured numbers land in BENCH_resilience.json; the assertion is
    lenient (<15%) so CI stays immune to scheduler noise."""
    rng = np.random.default_rng(7)
    n = 50
    a0 = rng.standard_normal((n, n)) + n * np.eye(n)
    b0 = rng.standard_normal((n, 1))

    from repro.backends import kernels, resolve

    def pre_resilience_seam(*args, **kwargs):
        # KernelProxy.__call__ without its escalation seam: dtype scan
        # + per-call resolve + kernel invocation.
        dtype = None
        for value in args:
            if isinstance(value, np.ndarray):
                dtype = value.dtype
                break
        return resolve("gesv", dtype)(*args, **kwargs)

    def timed(fn):
        # Fresh operands every call (gesv overwrites them in place);
        # the copy is part of the timed call on both sides alike.
        return lambda: fn(a0.copy(), b0.copy())

    calls = {"seam": timed(kernels.gesv),
             "base": timed(pre_resilience_seam)}
    paired_times(calls, 20)                 # warm both paths
    times = paired_times(calls, ROUNDS)
    ratio = spread(times["seam"] / times["base"])
    overhead = ratio["median"] - 1.0
    (driver,) = best_of(lambda: la_gesv(a0.copy(), b0.copy()),
                        rounds=ROUNDS // 10)
    out = {"n": n, "rounds": ROUNDS,
           "proxy_seam_s": float(times["seam"].min()),
           "pre_resilience_seam_s": float(times["base"].min()),
           "driver_call_s": driver,
           "seam_over_base": ratio,
           "relative_seam_overhead": overhead,
           "gate": "relative_seam_overhead < 0.15 (median of paired "
                   "rounds)"}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "..", "BENCH_resilience.json")
    with open(os.path.abspath(path), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
    assert overhead < 0.15, out
