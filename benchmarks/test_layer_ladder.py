"""XB6 — the layer ladder: what each layer of the call stack costs.

For ``gesv``, ``posv`` and ``syev`` this times one call at every rung,
innermost first, and writes µs per call to ``BENCH_layers.json``:

``raw``
    the typed SciPy LAPACK routine (``dgesv``, ``dposv``, ``dsyev``);
``adapter``
    the backend's kernel, called directly (on ``reference`` that is the
    pure-NumPy ``repro.lapack77`` kernel);
``proxy_seam``
    the dispatching kernel proxy (``repro.backends.kernels``), which
    resolves the backend and escalates a failed kernel once;
``driver``
    the ``la_*`` driver: validation, guard, kernel, report;
``front_door``
    ``repro.solve`` / ``repro.eig``: probe, route, driver.  The
    structure cache is cleared before each call, so ``posv`` climbs the
    same rungs as a fresh operand does.

Every rung pays one copy of each operand (the drivers overwrite their
arguments), and ``copies`` times those copies alone.  The rungs run
interleaved, one call of each per round (:func:`conftest.best_of`), and
each figure is the best call over the rounds.  Sizes: n in {8, 64, 200,
1000} on ``accelerated``, n in {8, 64} on ``reference`` (a reference
``syev`` at n=1000 takes seconds per call).

The file holds two blocks.  A run of this checkout rewrites ``change``;
the same file run against another checkout's sources
(``PYTHONPATH=<other checkout>/src python -m pytest
benchmarks/test_layer_ladder.py``) rewrites ``parent``.  The gate is
``la_gesv`` over raw ``dgesv`` at n=8 on ``accelerated``; each block
records its ratio and whether it passes.

    PYTHONPATH=src python -m pytest benchmarks/test_layer_ladder.py -q
"""

import json
import pathlib
import warnings

import numpy as np
import pytest

from repro import backends, eig, la_gesv, la_posv, la_syev, solve
from repro.backends import kernels
from repro.dispatch_front import cache

from .conftest import best_of, checkout_block

scipy_lapack = pytest.importorskip("scipy.linalg.lapack")

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = ROOT / "BENCH_layers.json"

#: ``la_gesv`` / raw ``dgesv`` at n=8 on accelerated must stay under
#: this.  Eight runs of the change read 3.94-4.15, and four of its
#: parent 5.46-6.02 (all over the bound), on a 2-vCPU x86 host.
GATE = 4.8

#: Rounds per (backend, n): enough for a stable best call at small n.
ROUNDS = {("accelerated", 8): 3000, ("accelerated", 64): 400,
          ("accelerated", 200): 60, ("accelerated", 1000): 5,
          ("reference", 8): 500, ("reference", 64): 30}

RUNGS = ("copies", "raw", "adapter", "proxy_seam", "driver", "front_door")


def _operands(routine, n):
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n))
    if routine == "gesv":
        a = g + n * np.eye(n)
    else:
        a = g @ g.T + n * np.eye(n) if routine == "posv" else (g + g.T) / 2
    return a, rng.standard_normal(n)


def _rungs(routine, backend, a, b):
    """``{rung: zero-argument call}`` for one routine on one backend."""
    adapter = backends.get_backend(backend).get(routine)
    proxy = getattr(kernels, routine)
    if routine == "syev":
        raw = scipy_lapack.dsyev
        return {
            "copies": lambda: a.copy(),
            "raw": lambda: raw(a.copy(), compute_v=0),
            "adapter": lambda: adapter(a.copy(), "N", "U"),
            "proxy_seam": lambda: proxy(a.copy(), "N", "U"),
            "driver": lambda: la_syev(a.copy()),
            "front_door": lambda: (cache.clear(), eig(a)),
        }
    raw = getattr(scipy_lapack, "d" + routine)
    driver = la_gesv if routine == "gesv" else la_posv
    return {
        "copies": lambda: (a.copy(), b.copy()),
        "raw": lambda: raw(a.copy(), b.copy()),
        "adapter": lambda: adapter(a.copy(), b.copy()),
        "proxy_seam": lambda: proxy(a.copy(), b.copy()),
        "driver": lambda: driver(a.copy(), b.copy()),
        "front_door": lambda: (cache.clear(), solve(a, b)),
    }


def _measure():
    rows = {}
    for (backend, n), rounds in ROUNDS.items():
        for routine in ("gesv", "posv", "syev"):
            a, b = _operands(routine, n)
            with backends.use_backend(backend):
                calls = _rungs(routine, backend, a, b)
                fns = [calls[r] for r in RUNGS]
                best_of(*fns, rounds=max(2, rounds // 20))    # warm up
                best = best_of(*fns, rounds=rounds)
            rows[f"{backend}/n={n}/{routine}"] = {
                r: round(t * 1e6, 3) for r, t in zip(RUNGS, best)}
    return rows


def test_layer_ladder():
    if "accelerated" not in backends.available_backends():
        pytest.skip("the accelerated backend needs SciPy")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = _measure()
    gesv8 = rows["accelerated/n=8/gesv"]
    ratio = gesv8["driver"] / gesv8["raw"]
    report = json.loads(OUT.read_text()) if OUT.exists() else {}
    report.update({
        "experiment": "XB6-layers",
        "description": "Best-of-rounds us per call at each rung of the "
                       "call stack (raw SciPy LAPACK, backend adapter, "
                       "kernel proxy (dispatch seam), la_* driver, "
                       "front door), every rung paying one copy of each "
                       "operand; 'parent' and 'change' are the same "
                       "file run on two checkouts",
        "rungs": list(RUNGS),
        "gate": {"ratio": "la_gesv / raw dgesv, n=8, accelerated",
                 "bound": GATE},
    })
    report[checkout_block(ROOT)] = {
        "us": rows,
        "gate_ratio": round(ratio, 3),
        "gate_pass": ratio <= GATE,
        "driver_over_raw": {k: round(v["driver"] / v["raw"], 2)
                            for k, v in rows.items()},
        "front_door_over_raw": {k: round(v["front_door"] / v["raw"], 2)
                                for k, v in rows.items()},
    }
    OUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    assert ratio <= GATE, (
        f"la_gesv costs {ratio:.2f}x raw dgesv at n=8 "
        f"({gesv8['driver']:.2f} us vs {gesv8['raw']:.2f} us)")
