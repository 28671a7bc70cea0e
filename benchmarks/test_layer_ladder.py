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

The ``catalogue`` block (:func:`test_catalogue_ladder`) extends the
ladder to every plain driver (Appendix G's "Driver Routines" sections)
whose spec kernel the accelerated backend serves, one row each, read
off the DriverSpec registry.  Its rungs are the raw typed wrapper
(called positionally, its ``overwrite_*`` flags set, on
Fortran-ordered copies), the adapter, the kernel proxy and the ``la_*``
driver, every rung handed fresh Fortran-ordered copies of the same
operands (``copies`` times those alone), at n=8 and n=500.  Each row
records the median µs of every rung and the median and quartiles of
its per-round ratios over raw (:func:`conftest.paired_times`); the
rows are sorted by driver/raw, worst first.  The worst row's
driver/raw at n=500 is gated at :data:`CATALOGUE_GATE`.  Run on its
own with ``-k catalogue``.

    PYTHONPATH=src python -m pytest benchmarks/test_layer_ladder.py -q
"""

import json
import pathlib
import warnings

import numpy as np
import pytest

import repro
from repro import backends, eig, la_gesv, la_posv, la_syev, solve
from repro.backends import kernels
from repro.dispatch_front import cache
from repro.specs import all_specs

from .conftest import (best_of, checkout_block, paired_ratios,
                       paired_times, spread)

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
    over interleaved rounds of each rung's call time over raw's
    (:func:`conftest.paired_ratios`)."""
    a, b = _operands(routine, n)
    with backends.use_backend("accelerated"):
        calls = _rungs(routine, "accelerated", np.asfortranarray(a), b)
        ratios = paired_ratios({name: calls[name]
                                for name in ("raw", *F_GATE)},
                               "raw", rounds)
    return {f"{routine}/{name}": round(float(np.median(r)), 3)
            for name, r in ratios.items()}


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
    report.setdefault(checkout_block(ROOT), {}).update({
        "us": rows,
        "gate_ratio": round(ratio, 3),
        "gate_pass": ratio <= GATE,
        "f_gate_ratios": f_ratios,
        "f_gate_pass": f_pass,
        "driver_over_raw": {k: round(v["driver"] / v["raw"], 2)
                            for k, v in rows.items()},
        "front_door_over_raw": {k: round(v["front_door"] / v["raw"], 2)
                                for k, v in rows.items()},
    })
    OUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    assert ratio <= GATE, (
        f"la_gesv costs {ratio:.2f}x raw dgesv at n=8 "
        f"({gesv8['driver']:.2f} us vs {gesv8['raw']:.2f} us)")
    assert f_pass, f"Fortran-ordered rows at n=1000 over raw: {f_ratios}"


# -- the catalogue: every plain driver over its accelerated kernel ----

#: Sizes of the catalogue rows.
CATALOGUE_SIZES = (8, 500)

#: Band widths of the ``gbsv``/``pbsv`` rows.
BAND = 2


def _random(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if dtype == "D":
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


def _general(rng, n, dtype):
    return _random(rng, (n, n), dtype) + n * np.eye(n)


def _hermitian(rng, n, dtype):
    g = _random(rng, (n, n), dtype)
    return g + g.conj().T


def _spd(rng, n, dtype):
    g = _random(rng, (n, n), dtype)
    return g @ g.conj().T + n * np.eye(n)


def _general_band(rng, n, dtype):
    """``gbsv``'s factored-band storage: ``BAND`` sub- and
    superdiagonals, ``BAND`` fill-in rows above them."""
    ab = _random(rng, (3 * BAND + 1, n), dtype)
    ab[:BAND] = 0
    ab[2 * BAND] += 2 * BAND + 2
    return ab


def _spd_band(rng, n, dtype):
    """Upper SPD band storage, ``BAND`` superdiagonals, the diagonal in
    the last row."""
    ab = 0.5 * _random(rng, (BAND + 1, n), dtype)
    ab[BAND] = 2 * BAND + 2
    return ab


def _rhs(rng, n, dtype):
    return _random(rng, (n,), dtype)


#: kernel -> (dtype char, operands(rng, n, dtype), raw(f, n, *ops),
#: kernel(k, *ops), driver(la, *ops)).  ``raw`` calls the typed
#: wrapper ``f`` positionally with every ``overwrite_*`` flag set and
#: f2py's defaults written out; ``kernel`` calls the adapter or the
#: proxy ``k`` and ``driver`` the ``la_*`` driver the way the drivers
#: and callers do.  Eigen and SVD rows ask for values only.
RECIPES = {
    "gesv": ("d", lambda r, n, t: (_general(r, n, t), _rhs(r, n, t)),
             lambda f, n, a, b: f(a, b, 1, 1),
             lambda k, a, b: k(a, b),
             lambda la, a, b: la(a, b)),
    "gbsv": ("d", lambda r, n, t: (_general_band(r, n, t), _rhs(r, n, t)),
             lambda f, n, ab, b: f(BAND, BAND, ab, b, 1, 1),
             lambda k, ab, b: k(ab, BAND, BAND, b),
             lambda la, ab, b: la(ab, b, kl=BAND)),
    "gtsv": ("d", lambda r, n, t: (_rhs(r, n - 1, t), _rhs(r, n, t) + 4,
                                   _rhs(r, n - 1, t), _rhs(r, n, t)),
             lambda f, n, dl, d, du, b: f(dl, d, du, b, 1, 1, 1, 1),
             lambda k, dl, d, du, b: k(dl, d, du, b),
             lambda la, dl, d, du, b: la(dl, d, du, b)),
    "posv": ("d", lambda r, n, t: (_spd(r, n, t), _rhs(r, n, t)),
             lambda f, n, a, b: f(a, b, 0, 1, 1),
             lambda k, a, b: k(a, b, "U"),
             lambda la, a, b: la(a, b)),
    "pbsv": ("d", lambda r, n, t: (_spd_band(r, n, t), _rhs(r, n, t)),
             lambda f, n, ab, b: f(ab, b, 0, BAND + 1, 1, 1),
             lambda k, ab, b: k(ab, b, "U"),
             lambda la, ab, b: la(ab, b)),
    "ptsv": ("d", lambda r, n, t: (np.abs(_rhs(r, n, t)) + 4,
                                   0.5 * _rhs(r, n - 1, t), _rhs(r, n, t)),
             lambda f, n, d, e, b: f(d, e, b, 1, 1, 1),
             lambda k, d, e, b: k(d, e, b),
             lambda la, d, e, b: la(d, e, b)),
    "sysv": ("d", lambda r, n, t: (_hermitian(r, n, t), _rhs(r, n, t)),
             lambda f, n, a, b: f(a, b, max(n, 1), 0, 1, 1),
             lambda k, a, b: k(a, b, "U"),
             lambda la, a, b: la(a, b)),
    "hesv": ("D", lambda r, n, t: (_hermitian(r, n, t), _rhs(r, n, t)),
             lambda f, n, a, b: f(a, b, max(n, 1), 0, 1, 1),
             lambda k, a, b: k(a, b, "U"),
             lambda la, a, b: la(a, b)),
    "gels": ("d", lambda r, n, t: (_random(r, (2 * n, n), t),
                                   _rhs(r, 2 * n, t)),
             lambda f, n, a, b: f(a, b, "N", max(n + n, 1), 1, 1),
             lambda k, a, b: k(a, b, "N"),
             lambda la, a, b: la(a, b)),
    "syev": ("d", lambda r, n, t: (_hermitian(r, n, t),),
             lambda f, n, a: f(a, 0, 0, max(3 * n - 1, 1), 1),
             lambda k, a: k(a, "N", "U"),
             lambda la, a: la(a)),
    "heev": ("D", lambda r, n, t: (_hermitian(r, n, t),),
             lambda f, n, a: f(a, 0, 0, max(2 * n - 1, 1), 1),
             lambda k, a: k(a, "N", "U"),
             lambda la, a: la(a)),
    "gesvd": ("d", lambda r, n, t: (_general(r, n, t),),
              lambda f, n, a: f(a, 0, 1, max(4 * n, 5 * n, 1), 1),
              lambda k, a: k(a, "N", "N"),
              lambda la, a: la(a)),
}

#: Seconds of rounds each catalogue row gets per size (each round runs
#: every rung once); at least 9 and at most 3000 rounds.
CATALOGUE_BUDGET = 0.5

#: The worst plain driver's driver/raw at n=500 must stay under this.
#: Ten runs on a 2-vCPU x86 host read 1.38-1.63 (median 1.54), always
#: ``la_gtsv`` or ``la_ptsv``: an O(n) kernel of 10-15 us under the
#: driver's fixed cost of about 5 us.
CATALOGUE_GATE = 1.8


def _catalogue_specs():
    """The plain drivers whose spec kernel the accelerated backend
    serves, from the DriverSpec registry."""
    served = backends.get_backend("accelerated")
    return [s for s in all_specs()
            if s.section.startswith("Driver Routines") and s.kernel
            and served.get(s.kernel) is not None]


def _catalogue_row(spec, n):
    """One catalogue row: median µs per rung and each rung's per-round
    ratio over raw."""
    char, make, raw, call, drive = RECIPES[spec.kernel]
    from scipy.linalg import lapack
    f = getattr(lapack, {"d": "d", "D": "z"}[char] + spec.kernel)
    adapter = backends.get_backend("accelerated").get(spec.kernel)
    proxy = getattr(kernels, spec.kernel)
    driver = getattr(repro, spec.name)
    operands = make(np.random.default_rng(n), n, char)

    def fresh():
        return [x.copy(order="F") for x in operands]

    calls = {"copies": fresh,
             "raw": lambda: raw(f, n, *fresh()),
             "adapter": lambda: call(adapter, *fresh()),
             "proxy": lambda: call(proxy, *fresh()),
             "driver": lambda: drive(driver, *fresh())}
    paired_times(calls, 3)                              # warm up
    once = min(paired_times(calls, 3)["driver"])
    rounds = int(min(3000, max(9, CATALOGUE_BUDGET / (4 * once))))
    times = paired_times(calls, rounds)
    return {"driver": spec.name, "kernel": spec.kernel, "rounds": rounds,
            "us": {name: round(float(np.median(t)) * 1e6, 3)
                   for name, t in times.items()},
            "over_raw": {name: spread(times[name] / times["raw"])
                         for name in ("adapter", "proxy", "driver")}}


def test_catalogue_ladder():
    if "accelerated" not in backends.available_backends():
        pytest.skip("the accelerated backend needs SciPy")
    rows = _catalogue_specs()
    assert {s.kernel for s in rows} <= set(RECIPES), (
        "a served plain driver has no catalogue recipe")
    catalogue = {}
    with backends.use_backend("accelerated"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in CATALOGUE_SIZES:
            measured = [_catalogue_row(spec, n) for spec in rows]
            measured.sort(key=lambda r: -r["over_raw"]["driver"]["median"])
            catalogue[f"n={n}"] = measured
    report = json.loads(OUT.read_text()) if OUT.exists() else {}
    worst = catalogue["n=500"][0]
    ratio = worst["over_raw"]["driver"]["median"]
    report["catalogue"] = {
        "description": "every plain driver whose spec kernel the "
                       "accelerated backend serves: median us per call "
                       "of each rung on fresh Fortran-ordered copies "
                       "('copies' times those alone), and each rung's "
                       "per-round ratio over the raw typed wrapper "
                       "(positional, overwrite flags set); rows sorted "
                       "by driver/raw, worst first",
        "rungs": ["copies", "raw", "adapter", "proxy", "driver"],
        "gate": {"ratio": "the worst row's driver/raw (median of paired "
                          "rounds), n=500",
                 "bound": CATALOGUE_GATE},
    }
    block = report.setdefault(checkout_block(ROOT), {})
    block["catalogue"] = catalogue
    block["catalogue_gate"] = {"driver": worst["driver"], "ratio": ratio,
                               "pass": ratio <= CATALOGUE_GATE}
    OUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    assert ratio <= CATALOGUE_GATE, (
        f"{worst['driver']} costs {ratio:.2f}x its raw typed wrapper at "
        f"n=500 (median of paired rounds; gate {CATALOGUE_GATE})")
