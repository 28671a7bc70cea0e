"""Resilience-seam overhead on the la_gesv hot loop (reference backend).

Times the dispatching kernel proxy, which runs the resilience seam,
against the directly resolved kernel with no deadline armed, no chaos
and no tracked breakers, and writes BENCH_resilience.json.  It lives
here, not in the test suite, because it rewrites that tracked file.

    PYTHONPATH=src python -m pytest benchmarks/test_resilience_overhead.py -q
"""

import json
import os
import time

import numpy as np

from repro import la_gesv


def test_resilience_overhead_on_undeadlined_hot_loop():
    """The acceptance bound: with no deadline armed, no chaos and no
    tracked breakers, the resilient seam must cost ~nothing on the
    la_gesv hot loop (target <1%).  Isolated by timing the dispatching
    kernel proxy (which now runs ``resilience.dispatch.call``) against
    the directly-resolved kernel on a size where the kernel dominates.
    The measured numbers land in BENCH_resilience.json; the assertion is
    lenient (<15%) so CI stays immune to scheduler noise."""
    rng = np.random.default_rng(7)
    n = 50
    a0 = rng.standard_normal((n, n)) + n * np.eye(n)
    b0 = rng.standard_normal((n, 1))
    n_iter = 60

    from repro.backends import kernels, resolve

    def pre_resilience_seam(*args, **kwargs):
        # Exactly what KernelProxy.__call__ did before the resilience
        # layer: dtype scan + per-call resolve + kernel invocation.
        dtype = None
        for value in args:
            if isinstance(value, np.ndarray):
                dtype = value.dtype
                break
        return resolve("gesv", dtype)(*args, **kwargs)

    def loop(fn):
        t0 = time.perf_counter()
        for _ in range(n_iter):
            fn(a0.copy(), b0.copy())
        return time.perf_counter() - t0

    loop(kernels.gesv)  # warm both paths
    loop(pre_resilience_seam)
    # Interleave the rounds so background load hits both paths alike,
    # and let min-of-many converge on the unloaded time for each.
    seam = base = float("inf")
    for _ in range(10):
        seam = min(seam, loop(kernels.gesv))
        base = min(base, loop(pre_resilience_seam))
    overhead = (seam - base) / base if base > 0 else 0.0

    def driver_loop():
        t0 = time.perf_counter()
        for _ in range(n_iter):
            la_gesv(a0.copy(), b0.copy())
        return time.perf_counter() - t0

    driver_loop()
    driver = min(driver_loop() for _ in range(3))
    out = {"n": n, "iters": n_iter, "proxy_seam_s": seam,
           "pre_resilience_seam_s": base, "driver_loop_s": driver,
           "relative_seam_overhead": overhead}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "..", "BENCH_resilience.json")
    with open(os.path.abspath(path), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
    assert overhead < 0.15, out
