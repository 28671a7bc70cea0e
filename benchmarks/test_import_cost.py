"""XB7-import — what ``import repro`` costs a fresh process.

Each round starts one fresh interpreter per backend selection
(``REPRO_BACKEND`` unset, then ``=accelerated``, alternating), which
imports NumPy, then times ``import repro`` alone, and reports its peak
RSS (``ru_maxrss``), whether any ``scipy`` module got loaded, and
``sys.dont_write_bytecode``: with bytecode writing off, every child
compiles ``repro`` from source, and the wall time includes that.  One
discarded child first writes the bytecode when it may.  The record
holds the median and quartiles over the rounds; nothing is gated.

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
SELECTIONS = {"default": None, "accelerated": "accelerated"}

#: Runs the child program ``sys.argv[1]`` and relays its output.
_LAUNCH = ("import subprocess, sys; sys.stdout.write(subprocess.run("
           "[sys.executable, '-c', sys.argv[1]], capture_output=True, "
           "text=True, check=True).stdout)")

_CHILD = """
import json, resource, sys, time
import numpy
t0 = time.perf_counter()
import repro
elapsed = time.perf_counter() - t0
print(json.dumps({
    "import_s": elapsed,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "scipy_loaded": any(m == "scipy" or m.startswith("scipy.")
                        for m in sys.modules),
    "dont_write_bytecode": sys.dont_write_bytecode,
    "backend": repro.get_backend_name(),
}))
"""


def _child(src, backend):
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_BACKEND", "REPRO_CHAOS")}
    if backend is not None:
        env["REPRO_BACKEND"] = backend
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    proc = subprocess.run([sys.executable, "-c", _LAUNCH, _CHILD],
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
    _child(src, None)                   # writes bytecode where allowed
    runs = {name: [] for name in SELECTIONS}
    for _ in range(ROUNDS):
        for name, backend in SELECTIONS.items():
            runs[name].append(_child(src, backend))
    block = {}
    for name, rows in runs.items():
        assert all(r["backend"] == (SELECTIONS[name] or "reference")
                   for r in rows)
        block[name] = {
            "rounds": len(rows),
            "import_s": _spread([r["import_s"] for r in rows], 4),
            "maxrss_mb": _spread([r["maxrss_mb"] for r in rows], 1),
            "scipy_loaded": sorted({r["scipy_loaded"] for r in rows}),
            "dont_write_bytecode": sorted(
                {r["dont_write_bytecode"] for r in rows}),
        }
    out = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() \
        else {}
    out.update({
        "experiment": "XB7-import",
        "description": "Wall time of 'import repro' after 'import numpy' "
                       "in a fresh process, its peak RSS (ru_maxrss), "
                       "whether any scipy module got loaded, and "
                       "sys.dont_write_bytecode, with REPRO_BACKEND "
                       "unset ('default') and =accelerated: median and "
                       "quartiles over alternating rounds; 'parent' and "
                       "'change' are the same file run on two checkouts",
    })
    out[checkout_block(REPO)] = block
    BENCH_PATH.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
