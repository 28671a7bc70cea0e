"""SciPy loads at the accelerated backend's first kernel call, not at
``import repro``.

Every case runs in a fresh child process (``sys.modules`` is the thing
under test), with ``REPRO_BACKEND`` and ``REPRO_CHAOS`` cleared unless
the case sets them:

* the reference backend never loads SciPy, through any entry point;
* each way into the accelerated backend loads it exactly once, and
  gives the same bytes as a process that imported SciPy before repro;
* eight threads making their first accelerated call at once all
  succeed, with the bytes of a serial run;
* a SciPy that is found but fails to import serves its first call from
  reference (recorded in ``Info.attempts``), leaves the registry, and
  later calls fall back per routine with a warning.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

needs_scipy = pytest.mark.skipif(importlib.util.find_spec("scipy") is None,
                                 reason="SciPy is not installed")


def _child(code, **env):
    """Run ``code`` in a fresh interpreter with ``src`` on the path and
    return the JSON its last output line holds."""
    environ = {k: v for k, v in os.environ.items()
               if k not in ("REPRO_BACKEND", "REPRO_CHAOS")}
    environ.update(env)
    path = environ.get("PYTHONPATH")
    environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=environ, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: Loaded modules named ``scipy`` or ``scipy.*``.
_SCIPY_MODULES = """
def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))
"""

#: A small fixed workload through the drivers; ``digest()`` hashes its
#: solutions, factors, pivots and ``Info`` fields.
_WORKLOAD = """
import hashlib
import numpy as np

def problems(seed):
    rng = np.random.default_rng(seed)
    g = rng.random((6, 6)) + 6 * np.eye(6)
    s = g @ g.T
    return g, s, rng.random((6, 2))

def info_fields(info):
    return [int(info), info.attempts, info.fallback]

def run(seed=3, **kw):
    from repro import Info, la_gesv, la_posv, la_syev
    g, s, b = problems(seed)
    out = []
    a, x, ipiv, info = g.copy(), b.copy(), np.zeros(6, np.int64), Info()
    la_gesv(a, x, ipiv, info=info, **kw)
    out += [a, x, ipiv, info_fields(info)]
    a, x, info = s.copy(), b.copy(), Info()
    la_posv(a, x, info=info, **kw)
    out += [a, x, info_fields(info)]
    a, info = s.copy(), Info()
    w = la_syev(a, jobz="V", info=info, **kw)
    out += [a, w, info_fields(info)]
    return out

def digest(out):
    h = hashlib.sha256()
    for item in out:
        h.update(item.tobytes() if isinstance(item, np.ndarray)
                 else repr(item).encode())
    return h.hexdigest()
"""

#: Counts the imports of ``scipy.linalg.lapack`` (a finder is asked only
#: while a module is not yet in ``sys.modules``) and the calls to the
#: accelerated backend's one-time load.
_COUNTERS = """
class _Counter:
    loads = 0
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.linalg.lapack":
            _Counter.loads += 1
        return None
sys.meta_path.insert(0, _Counter())

from repro.backends import accelerated
_fill = accelerated._load_wrappers
fills = []
def _counting():
    fills.append(1)
    return _fill()
accelerated._load_wrappers = _counting
"""


def test_the_reference_backend_loads_no_scipy():
    got = _child("import json, sys\n" + _SCIPY_MODULES + _WORKLOAD + """
import repro
at_import = scipy_modules()
run()
g, s, b = problems(4)
repro.solve(g, b[:, 0])
repro.solve(s, b)
repro.batch_gesv(np.stack([g, g]), np.stack([b, b]))
print(json.dumps({"backend": repro.get_backend_name(),
                  "at_import": at_import, "after": scipy_modules()}))
""")
    assert got == {"backend": "reference", "at_import": [], "after": []}


#: Each way into the accelerated backend: code that makes the backend
#: serve ``run()``, and the environment it needs.
ENTRIES = {
    "set_backend": ("repro.set_backend('accelerated'); out = run()", {}),
    "use_backend": ("with repro.use_backend('accelerated'):\n"
                    "    out = run()", {}),
    "backend=": ("out = run(backend='accelerated')", {}),
    "REPRO_BACKEND": ("out = run()", {"REPRO_BACKEND": "accelerated"}),
    "healthcheck": ("report = repro.healthcheck()\n"
                    "assert report['backends']['accelerated']['ok'], "
                    "report\n"
                    "out = run(backend='accelerated')", {}),
    "adapter": ("g, s, b = problems(3)\n"
                "adapter = repro.backends.get_backend('accelerated')"
                ".get('gesv')\n"
                "a, x = g.copy(), b.copy()\n"
                "ipiv, code = adapter(a, x)\n"
                "out = [a, x, ipiv, code] + run(backend='accelerated')",
                {}),
}


def _entry_child(entry, preload):
    body, env = ENTRIES[entry]
    head = "import scipy.linalg.lapack\n" if preload else ""
    return _child(head + "import json, sys\n" + _SCIPY_MODULES + _WORKLOAD
                  + """
import repro
""" + _COUNTERS + """
before = scipy_modules()
""" + body + """
again = run(seed=5, backend="accelerated")
print(json.dumps({
    "backend": repro.get_backend_name(),
    "before": before, "after": scipy_modules(),
    "loads": _Counter.loads, "fills": len(fills),
    "digest": digest(out), "again": digest(again),
    "attempts": [o for o in out + again if isinstance(o, list)],
}))
""", **env)


@needs_scipy
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_each_entry_loads_scipy_once_with_preloaded_bytes(entry):
    lazy = _entry_child(entry, preload=False)
    eager = _entry_child(entry, preload=True)
    assert lazy["before"] == []
    assert "scipy.linalg.lapack" in lazy["after"]
    assert lazy["loads"] == 1 and lazy["fills"] == 1
    assert eager["before"] != [] and eager["loads"] == 0
    assert (lazy["digest"], lazy["again"]) == \
        (eager["digest"], eager["again"])
    # Served by accelerated itself: no call escalated or fell back.
    assert all(a[1] is None and a[2] is None for a in lazy["attempts"])
    assert lazy["attempts"] == eager["attempts"]


@needs_scipy
def test_eight_threads_racing_the_first_call_agree_with_a_serial_run():
    got = _child("import json, sys, threading\n" + _WORKLOAD + """
import repro
""" + _COUNTERS + """
barrier = threading.Barrier(8)
results = [None] * 8
errors = []

def worker(k):
    try:
        barrier.wait()
        results[k] = digest(run(seed=10 + k, backend="accelerated"))
    except BaseException as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join()
serial = [digest(run(seed=10 + k, backend="accelerated"))
          for k in range(8)]
print(json.dumps({"errors": errors, "threads": results, "serial": serial,
                  "loads": _Counter.loads,
                  "attempts": [run(seed=10 + k, backend="accelerated")[3]
                               for k in range(8)]}))
""")
    assert got["errors"] == []
    assert got["threads"] == got["serial"]
    assert got["loads"] == 1
    assert all(a == [0, None, None] for a in got["attempts"])


#: A finder that finds ``scipy`` (so the backend registers) whose
#: loader then fails, as a broken SciPy install does.
_BROKEN_SCIPY = """
import importlib.machinery

class _Broken:
    def create_module(self, spec):
        return None
    def exec_module(self, module):
        raise ImportError("this SciPy is broken")

class _FindsBroken:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            return importlib.machinery.ModuleSpec(name, _Broken())
        return None

sys.meta_path.insert(0, _FindsBroken())
"""


def test_a_scipy_that_fails_to_import_falls_back_to_reference():
    got = _child("import json, sys, warnings\n" + _BROKEN_SCIPY + _WORKLOAD
                 + """
import repro
from repro import BackendFallbackWarning, Info, la_gesv, la_posv
registered = repro.available_backends()
g, s, b = problems(3)
expected = b.copy()
la_gesv(g.copy(), expected, backend="reference")

repro.set_backend("accelerated")
with warnings.catch_warnings(record=True) as first_warnings:
    warnings.simplefilter("always")
    first, x = Info(), b.copy()
    la_gesv(g.copy(), x, info=first)
after = repro.available_backends()

repro.backends.reset_fallback_announcements()
with warnings.catch_warnings(record=True) as later_warnings:
    warnings.simplefilter("always")
    later, y = Info(), b.copy()
    la_gesv(g.copy(), y, info=later)
    la_posv(s.copy(), b.copy())
    la_gesv(g.copy(), b.copy())

def fallbacks(caught):
    return [str(w.message) for w in caught
            if issubclass(w.category, BackendFallbackWarning)]

print(json.dumps({
    "registered": registered, "after": after,
    "selected": repro.get_backend_name(),
    "first": [int(first), first.attempts],
    "first_warnings": fallbacks(first_warnings),
    "later": [int(later), later.attempts],
    "later_warnings": fallbacks(later_warnings),
    "same_x": [x.tobytes() == expected.tobytes(),
               y.tobytes() == expected.tobytes()],
}))
""")
    assert got["registered"] == ["reference", "accelerated"]
    assert got["after"] == ["reference"]
    assert got["selected"] == "accelerated"
    assert got["first"] == [0, ["accelerated:gesv#1:error=ImportError",
                                "reference:gesv#2"]]
    assert got["first_warnings"] == []
    assert got["later"] == [0, None]
    assert len(got["later_warnings"]) == 2
    assert "'gesv'" in got["later_warnings"][0]
    assert "'posv'" in got["later_warnings"][1]
    assert all("backend not registered" in w
               for w in got["later_warnings"])
    assert got["same_x"] == [True, True]
