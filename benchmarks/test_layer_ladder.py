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

The ``/F`` rows (``gesv`` and ``posv`` at n in {200, 1000} on
``accelerated``) copy each operand in Fortran order, which the adapters
hand to LAPACK in place; their ``raw`` rung is the typed wrapper with
its ``overwrite_a``/``overwrite_b`` flags set on those copies, the
paper's Fig. 3 setting of an F77 call with no copy of its own.  The
front door there is handed the Fortran-ordered operand.

The file holds two blocks.  A run of this checkout rewrites ``change``;
the same file run against another checkout's sources
(``PYTHONPATH=<other checkout>/src python -m pytest
benchmarks/test_layer_ladder.py``) rewrites ``parent``.  The gate is
``la_gesv`` over raw ``dgesv`` at n=8 on ``accelerated``; each block
records its ratio and whether it passes.  A second gate holds the
``/F`` rows at n=1000 to :data:`F_GATE`: adapter and ``la_*`` driver
over raw, each the median over rounds of one call's time over the raw
call beside it (at 15-30 ms a call, the best call of each rung moves a
few percent from run to run on a shared host; the paired ratio does
not).

    PYTHONPATH=src python -m pytest benchmarks/test_layer_ladder.py -q
"""

import json
import pathlib
import time
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
#: this.  With the shell's inert seams, ten runs read 2.84-3.12 on a
#: 2-vCPU x86 host, where the frame that ran every seam read 3.94.
GATE = 3.5

#: Rung over raw on the ``/F`` rows at n=1000 must stay under these,
#: as the median paired ratio over ``F_GATE_ROUNDS`` rounds.
F_GATE = {"adapter": 1.02, "driver": 1.05}
F_GATE_ROUNDS = 80

#: Rounds per (backend, n): enough for a stable best call at small n.
ROUNDS = {("accelerated", 8): 3000, ("accelerated", 64): 400,
          ("accelerated", 200): 60, ("accelerated", 1000): 5,
          ("reference", 8): 500, ("reference", 64): 30}

#: Rounds per n of the Fortran-ordered ``gesv``/``posv`` rows.
F_ROUNDS = {200: 100, 1000: 25}

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
    if a.flags.f_contiguous:
        return _fortran_rungs(routine, a, b)
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


def _fortran_rungs(routine, a, b):
    """The rungs of a ``/F`` row: every operand copied in Fortran order,
    raw LAPACK overwriting those copies."""
    adapter = backends.get_backend("accelerated").get(routine)
    proxy = getattr(kernels, routine)
    raw = getattr(scipy_lapack, "d" + routine)
    flags = (1, 1) if routine == "gesv" else (0, 1, 1)   # posv: lower=0
    driver = la_gesv if routine == "gesv" else la_posv

    def fcopies():
        return a.copy(order="F"), b.copy()

    return {
        "copies": fcopies,
        "raw": lambda: raw(*fcopies(), *flags),
        "adapter": lambda: adapter(*fcopies()),
        "proxy_seam": lambda: proxy(*fcopies()),
        "driver": lambda: driver(*fcopies()),
        "front_door": lambda: (cache.clear(), solve(a, b)),
    }


def _time(rows, key, backend, routine, a, b, rounds):
    with backends.use_backend(backend):
        calls = _rungs(routine, backend, a, b)
        fns = [calls[r] for r in RUNGS]
        best_of(*fns, rounds=max(2, rounds // 20))    # warm up
        best = best_of(*fns, rounds=rounds)
    rows[key] = {r: round(t * 1e6, 3) for r, t in zip(RUNGS, best)}


def _paired_over_raw(routine, n, rounds):
    """``{rung: ratio}`` for the F_GATE rungs of a ``/F`` row: the median
    over interleaved rounds of each rung's call time over raw's.  Each
    round starts at a different rung, so no rung always runs first."""
    a, b = _operands(routine, n)
    with backends.use_backend("accelerated"):
        calls = _rungs(routine, "accelerated", np.asfortranarray(a), b)
        names = ["raw", *F_GATE]
        times = np.empty((rounds, len(names)))
        for i in range(rounds):
            for k in range(len(names)):
                j = (i + k) % len(names)
                t0 = time.perf_counter()
                calls[names[j]]()
                times[i, j] = time.perf_counter() - t0
    return {f"{routine}/{name}": round(float(np.median(
        times[:, j] / times[:, 0])), 3)
        for j, name in enumerate(names) if j}


def _measure():
    rows = {}
    for (backend, n), rounds in ROUNDS.items():
        for routine in ("gesv", "posv", "syev"):
            a, b = _operands(routine, n)
            _time(rows, f"{backend}/n={n}/{routine}", backend, routine, a,
                  b, rounds)
    for n, rounds in F_ROUNDS.items():
        for routine in ("gesv", "posv"):
            a, b = _operands(routine, n)
            _time(rows, f"accelerated/n={n}/{routine}/F", "accelerated",
                  routine, np.asfortranarray(a), b, rounds)
    return rows


def test_layer_ladder():
    if "accelerated" not in backends.available_backends():
        pytest.skip("the accelerated backend needs SciPy")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = _measure()
    gesv8 = rows["accelerated/n=8/gesv"]
    ratio = gesv8["driver"] / gesv8["raw"]
    f_ratios = {}
    for routine in ("gesv", "posv"):
        f_ratios.update(_paired_over_raw(routine, 1000, F_GATE_ROUNDS))
    f_pass = all(v <= F_GATE[k.split("/")[1]] for k, v in f_ratios.items())
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
        "f_gate": {"ratio": "adapter and la_* over raw (overwrite flags "
                            "on Fortran-ordered copies), gesv and posv, "
                            "n=1000, accelerated",
                   "bound": F_GATE},
    })
    report[checkout_block(ROOT)] = {
        "us": rows,
        "gate_ratio": round(ratio, 3),
        "gate_pass": ratio <= GATE,
        "f_gate_ratios": f_ratios,
        "f_gate_pass": f_pass,
        "driver_over_raw": {k: round(v["driver"] / v["raw"], 2)
                            for k, v in rows.items()},
        "front_door_over_raw": {k: round(v["front_door"] / v["raw"], 2)
                                for k, v in rows.items()},
    }
    OUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    assert ratio <= GATE, (
        f"la_gesv costs {ratio:.2f}x raw dgesv at n=8 "
        f"({gesv8['driver']:.2f} us vs {gesv8['raw']:.2f} us)")
    assert f_pass, f"Fortran-ordered rows at n=1000 over raw: {f_ratios}"
