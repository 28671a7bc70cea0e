"""XB7-import — what ``import repro`` and the first accelerated call
cost a fresh process.

Each round starts one fresh interpreter per backend selection
(``REPRO_BACKEND`` unset, then ``=accelerated``), which imports NumPy,
then times ``import repro`` alone, and reports its peak RSS
(``ru_maxrss``), whether any ``scipy`` module got loaded, and
``sys.dont_write_bytecode``.  A third child (``first_call``) times from
before ``import repro`` until one ``la_gesv`` pinned to the accelerated
backend returns, and reports its peak RSS, whether the ``scipy.linalg``
package got loaded and whether the accelerated backend served the call
itself.  The three alternate within each round.  One discarded child
first writes ``repro``'s bytecode, with ``PYTHONDONTWRITEBYTECODE``
cleared, so the timed children import ``repro`` rather than compile it
whatever the environment says (each reports ``bytecode_cached``).  The
record holds the median and quartiles over the rounds; nothing is
gated here (CI gates ``first_call``'s ``scipy_linalg_loaded``).

Each child is started by a bare interpreter (:data:`_LAUNCH`), not by
this process: Linux carries the peak RSS of the process that forks a
child into the child's ``ru_maxrss`` across ``exec``, so a child forked
from pytest would report pytest's peak whenever it is the larger.

The children import the ``repro`` this process imports, so the same
file run with ``PYTHONPATH=<other checkout>/src`` measures that
checkout and writes its ``parent`` block (:func:`conftest.checkout_block`).
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

from .conftest import checkout_block

REPO = pathlib.Path(__file__).resolve().parents[1]
BENCH_PATH = REPO / "BENCH_import.json"
ROUNDS = 15

#: Runs the child program ``sys.argv[1]`` and relays its output.
_LAUNCH = ("import subprocess, sys; sys.stdout.write(subprocess.run("
           "[sys.executable, '-c', sys.argv[1]], capture_output=True, "
           "text=True, check=True).stdout)")

#: The fields every child reports after its timed window.
_REPORT = """
print(json.dumps({
    "elapsed_s": elapsed,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "scipy_loaded": any(m == "scipy" or m.startswith("scipy.")
                        for m in sys.modules),
    "scipy_linalg_loaded": "scipy.linalg" in sys.modules,
    "dont_write_bytecode": sys.dont_write_bytecode,
    "bytecode_cached": os.path.exists(repro.__spec__.cached),
    "backend": repro.get_backend_name(),
    "served": served,
}))
"""

_IMPORT_CHILD = """
import json, os, resource, sys, time
import numpy
t0 = time.perf_counter()
import repro
elapsed = time.perf_counter() - t0
served = None
""" + _REPORT

_FIRST_CALL_CHILD = """
import json, os, resource, sys, time
import numpy as np
a = 4 * np.eye(8) + np.tri(8, 8, -1) / 8
b = a @ np.arange(1.0, 9.0)
t0 = time.perf_counter()
import repro
info = repro.Info()
repro.la_gesv(a, b, info=info, backend="accelerated")
elapsed = time.perf_counter() - t0
served = int(info) == 0 and info.attempts is None
""" + _REPORT

#: Child kind -> (program, ``REPRO_BACKEND``), timed in this order in
#: every round.
CHILDREN = {"default": (_IMPORT_CHILD, None),
            "accelerated": (_IMPORT_CHILD, "accelerated"),
            "first_call": (_FIRST_CALL_CHILD, None)}


def _child(src, kind, write_bytecode=False):
    code, backend = CHILDREN[kind]
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_BACKEND", "REPRO_CHAOS")}
    if backend is not None:
        env["REPRO_BACKEND"] = backend
    if write_bytecode:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    proc = subprocess.run([sys.executable, "-c", _LAUNCH, code],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout)


def _spread(values, digits):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), digits),
            "q1": round(float(q1), digits), "q3": round(float(q3), digits)}


def test_import_cost_in_fresh_processes():
    import repro
    src = str(pathlib.Path(repro.__file__).parents[1])
    _child(src, "first_call", write_bytecode=True)
    runs = {kind: [] for kind in CHILDREN}
    for _ in range(ROUNDS):
        for kind in CHILDREN:
            runs[kind].append(_child(src, kind))
    block = {}
    for kind, rows in runs.items():
        assert all(r["backend"] == (CHILDREN[kind][1] or "reference")
                   for r in rows)
        block[kind] = {
            "rounds": len(rows),
            "first_call_s" if kind == "first_call" else "import_s":
                _spread([r["elapsed_s"] for r in rows], 4),
            "maxrss_mb": _spread([r["maxrss_mb"] for r in rows], 1),
        }
        for flag in ("scipy_loaded", "scipy_linalg_loaded",
                     "dont_write_bytecode", "bytecode_cached", "served"):
            block[kind][flag] = sorted({r[flag] for r in rows},
                                       key=repr)
    # The first call must have been the accelerated backend's own.
    assert block["first_call"]["served"] == [True]
    out = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() \
        else {}
    out.update({
        "experiment": "XB7-import",
        "description": "Wall time of 'import repro' after 'import numpy' "
                       "in a fresh process, with REPRO_BACKEND unset "
                       "('default') and =accelerated, and of 'import "
                       "repro' plus one la_gesv(backend='accelerated') "
                       "('first_call'); each with its peak RSS "
                       "(ru_maxrss), whether any scipy module and the "
                       "scipy.linalg package got loaded, "
                       "sys.dont_write_bytecode and whether repro's "
                       "bytecode was cached: median and quartiles over "
                       "alternating rounds; 'parent' and 'change' are "
                       "the same file run on two checkouts",
    })
    out[checkout_block(REPO)] = block
    BENCH_PATH.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
