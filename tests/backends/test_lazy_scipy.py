"""SciPy loads at the accelerated backend's first kernel call, not at
``import repro``, and without the ``scipy.linalg`` package.

Every case runs in a fresh child process (``sys.modules`` is the thing
under test), with ``REPRO_BACKEND`` and ``REPRO_CHAOS`` cleared unless
the case sets them:

* the reference backend never loads SciPy, through any entry point;
* each way into the accelerated backend fills its wrapper table once,
  from one load of SciPy's ``_flapack`` extension, leaves the
  ``scipy.linalg`` package unloaded, and gives the same bytes as a
  process that imported ``scipy.linalg.lapack`` before repro; a later
  ``import scipy.linalg`` works and re-exports the backend's wrappers;
* with the extension hidden (not found, or failing to load) the backend
  imports ``scipy.linalg.lapack`` instead, with the same bytes;
* eight threads making their first accelerated call at once all
  succeed, with the bytes of a serial run;
* a SciPy that is found but fails to import serves its first call from
  reference (recorded in ``Info.attempts``), leaves the registry, and
  later calls fall back per routine with a warning; ``healthcheck()``
  reports it not ok, with that trail.
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

#: Counts the imports of the ``scipy.linalg`` package (a finder is asked
#: only while a module is not yet in ``sys.modules``), the loads of the
#: ``_flapack`` extension (each creates the module anew) and the calls
#: to the accelerated backend's one-time table fill.
_COUNTERS = """
class _Counter:
    linalg = 0
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.linalg":
            _Counter.linalg += 1
        return None
sys.meta_path.insert(0, _Counter())

from importlib import machinery
_create = machinery.ExtensionFileLoader.create_module
extension_loads = []
def _counting_create(self, spec):
    if spec.name == "scipy.linalg._flapack":
        extension_loads.append(1)
    return _create(self, spec)
machinery.ExtensionFileLoader.create_module = _counting_create

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


#: Run first in :func:`_entry_child`: SciPy imported eagerly.
_PRELOAD = "import scipy.linalg.lapack\n"

#: Run first in :func:`_entry_child`: the ``_flapack`` extension hidden
#: from the backend's direct load, as not found or as failing to load.
#: Only the backend's own reference to ``importlib.machinery`` is
#: replaced; the import system keeps its classes.
_HIDDEN = {
    "not-found": """
class _Blind(machinery.FileFinder):
    def find_spec(self, fullname, target=None):
        return None
hidden = {"FileFinder": _Blind}
""",
    "fails-to-load": """
class _Failing(machinery.ExtensionFileLoader):
    def create_module(self, spec):
        raise ImportError("this extension does not load")
hidden = {"ExtensionFileLoader": _Failing}
""",
}


def _hiding(hide):
    return "import types\nfrom importlib import machinery\n" \
        + _HIDDEN[hide] + """
from repro.backends import accelerated
accelerated.machinery = types.SimpleNamespace(**{
    name: hidden.get(name, getattr(machinery, name))
    for name in ("FileFinder", "ExtensionFileLoader", "EXTENSION_SUFFIXES")})
"""


def _entry_child(entry, head=""):
    body, env = ENTRIES[entry]
    return _child(head + "import json, sys\n" + _SCIPY_MODULES + _WORKLOAD
                  + """
import repro
""" + _COUNTERS + """
before = scipy_modules()
""" + body + """
again = run(seed=5, backend="accelerated")
after = scipy_modules()
linalg_imports, loads = _Counter.linalg, len(extension_loads)
import scipy.linalg
wrapper = accelerated._WRAPPERS["gesv", "d"]
print(json.dumps({
    "backend": repro.get_backend_name(),
    "before": before, "after": after,
    "linalg_imports": linalg_imports, "loads": loads,
    "fills": len(fills),
    "digest": digest(out), "again": digest(again),
    "attempts": [o for o in out + again if isinstance(o, list)],
    "reexported": [scipy.linalg._flapack.dgesv is wrapper,
                   scipy.linalg.lapack.dgesv is wrapper],
}))
""", **env)


@needs_scipy
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_each_entry_loads_scipy_once_with_preloaded_bytes(entry):
    lazy = _entry_child(entry)
    eager = _entry_child(entry, head=_PRELOAD)
    assert lazy["before"] == []
    # One load of the extension, without the scipy.linalg package.
    assert "scipy" in lazy["after"]
    assert "scipy.linalg" not in lazy["after"]
    assert lazy["linalg_imports"] == 0
    assert lazy["loads"] == 1 and lazy["fills"] == 1
    # A later import of the package shares the backend's wrappers.
    assert lazy["reexported"] == [True, True]
    assert "scipy.linalg" in eager["before"]
    assert eager["loads"] == 0 and eager["fills"] == 1
    assert eager["reexported"] == [True, True]
    assert (lazy["digest"], lazy["again"]) == \
        (eager["digest"], eager["again"])
    # Served by accelerated itself: no call escalated or fell back.
    assert all(a[1] is None and a[2] is None for a in lazy["attempts"])
    assert lazy["attempts"] == eager["attempts"]


@needs_scipy
@pytest.mark.parametrize("hide", sorted(_HIDDEN))
def test_a_hidden_extension_falls_back_to_the_package_import(hide):
    hidden = _entry_child("set_backend", head=_hiding(hide))
    eager = _entry_child("set_backend", head=_PRELOAD)
    assert hidden["before"] == []
    assert "scipy.linalg.lapack" in hidden["after"]
    assert hidden["linalg_imports"] == 1 and hidden["fills"] == 1
    assert hidden["reexported"] == [True, True]
    assert (hidden["digest"], hidden["again"]) == \
        (eager["digest"], eager["again"])
    assert all(a[1] is None and a[2] is None for a in hidden["attempts"])


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
                  "loads": len(extension_loads), "fills": len(fills),
                  "attempts": [run(seed=10 + k, backend="accelerated")[3]
                               for k in range(8)]}))
""")
    assert got["errors"] == []
    assert got["threads"] == got["serial"]
    # Each thread that missed the table asked for the fill; the
    # extension loaded once.
    assert got["loads"] == 1 and 1 <= got["fills"] <= 8
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


def test_healthcheck_reports_a_scipy_that_fails_to_import_as_not_ok():
    got = _child("import json, sys, warnings\n" + _BROKEN_SCIPY + """
import repro
registered = repro.available_backends()
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    report = repro.healthcheck()
print(json.dumps({"registered": registered,
                  "after": repro.available_backends(),
                  "accelerated": report["backends"]["accelerated"],
                  "reference": report["backends"]["reference"]}))
""")
    assert got["registered"] == ["reference", "accelerated"]
    assert got["after"] == ["reference"]
    sick = got["accelerated"]
    # Reference served the probe correctly, but accelerated did not.
    assert sick["ok"] is False and sick["residual"] < 1e-10
    assert "accelerated:gesv#1:error=ImportError" in sick["error"]
    assert "reference:gesv#2" in sick["error"]
    assert got["reference"]["ok"] is True
    assert got["reference"]["error"] is None
