"""Backend registry semantics: selection (global / context / per-call /
environment), per-routine fallback with announcement, and the fault
seam that keeps injection tests backend-agnostic."""

import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro import (BackendFallbackWarning, backends, exception_policy,
                   la_gesv, la_posv, use_backend)
from repro.backends import kernels
from repro.errors import SingularMatrix
from repro.testing import faultinject

HAVE_ACCELERATED = "accelerated" in backends.available_backends()

needs_accelerated = pytest.mark.skipif(
    not HAVE_ACCELERATED, reason="SciPy (accelerated backend) not available")


@pytest.fixture(autouse=True)
def _pin_reference():
    # The process-global selection may have been initialised from
    # REPRO_BACKEND (the CI matrix runs the whole suite that way); pin
    # the documented default for the test body and restore after.
    before = backends.set_backend("reference")
    yield
    backends.set_backend(before)


def _system(n=6, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)).astype(dtype)
    a += n * np.eye(n, dtype=dtype)
    b = a.sum(axis=1)
    return a, b


class TestSelection:
    def test_reference_is_always_registered_and_first(self):
        assert backends.available_backends()[0] == "reference"
        assert "reference" in backends.KNOWN_BACKENDS

    def test_default_selection_is_reference(self):
        # in a fresh process with no REPRO_BACKEND the default is
        # reference (the in-process global may differ; see _pin_reference)
        env = dict(os.environ)
        env.pop("REPRO_BACKEND", None)
        repo = pathlib.Path(__file__).parents[2]
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(repo / "src") + (
            os.pathsep + existing if existing else "")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import repro, sys;"
             "sys.exit(0 if repro.get_backend_name() == 'reference'"
             " else 1)"], env=env, cwd=str(repo))
        assert proc.returncode == 0

    def test_set_backend_returns_previous(self):
        prev = backends.set_backend("accelerated")
        try:
            assert prev == "reference"
            assert backends.get_backend_name() == "accelerated"
        finally:
            backends.set_backend(prev)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            backends.set_backend("cuda")
        with pytest.raises(ValueError):
            with use_backend("nosuch"):
                pass

    def test_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_backend("accelerated"):
                assert backends.get_backend_name() == "accelerated"
                raise RuntimeError("boom")
        assert backends.get_backend_name() == "reference"

    @staticmethod
    def _subprocess(code, backend):
        env = dict(os.environ)
        repo = pathlib.Path(__file__).parents[2]
        src = str(repo / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing
                                   if existing else "")
        env["REPRO_BACKEND"] = backend
        return subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=str(repo))

    def test_env_var_initialises_selection(self):
        proc = self._subprocess(
            "import repro, sys;"
            "sys.exit(0 if repro.get_backend_name() == 'accelerated'"
            " else 1)", "accelerated")
        assert proc.returncode == 0

    def test_env_var_unknown_name_warns_not_raises(self):
        proc = self._subprocess(
            "import warnings\n"
            "with warnings.catch_warnings(record=True) as rec:\n"
            "    warnings.simplefilter('always')\n"
            "    import repro\n"
            "bad = [w for w in rec if 'REPRO_BACKEND' in str(w.message)]\n"
            "assert bad, rec\n"
            "assert repro.get_backend_name() == 'reference'\n", "sparc")
        assert proc.returncode == 0


class TestDispatch:
    @needs_accelerated
    def test_proxy_routes_by_selection(self):
        a, b = _system()
        ref = backends.get_backend("reference").get("gesv")
        acc = backends.get_backend("accelerated").get("gesv")
        assert backends.resolve("gesv", a.dtype) is ref
        with use_backend("accelerated"):
            assert backends.resolve("gesv", a.dtype) is acc

    @needs_accelerated
    def test_driver_backend_kwarg(self):
        a, b = _system()
        x_ref = la_gesv(a.copy(), b.copy())
        x_acc = la_gesv(a.copy(), b.copy(), backend="accelerated")
        np.testing.assert_allclose(x_acc, x_ref, rtol=1e-12)

    def test_driver_backend_kwarg_rejects_unknown(self):
        a, b = _system()
        with pytest.raises(ValueError):
            la_gesv(a.copy(), b.copy(), backend="nosuch")

    def test_unknown_routine_raises_lookup(self):
        with pytest.raises(LookupError):
            backends.resolve("nosuchkernel")


class TestFallback:
    def test_unserved_routine_falls_back_with_warning(self):
        backends.reset_fallback_announcements()
        a = np.triu(_system()[0])
        with use_backend("accelerated"):
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                # trtri is reference-only in every configuration
                info = kernels.trtri(a)
        assert info == 0
        got = [w for w in rec
               if issubclass(w.category, BackendFallbackWarning)]
        assert got and "trtri" in str(got[0].message)

    def test_fallback_announced_once_per_routine(self):
        backends.reset_fallback_announcements()
        with use_backend("accelerated"):
            for _ in range(3):
                with warnings.catch_warnings(record=True) as rec:
                    warnings.simplefilter("always")
                    kernels.trcon(np.eye(4))
        later = [w for w in rec
                 if issubclass(w.category, BackendFallbackWarning)]
        assert later == []

    def test_fallback_warning_names_the_caller(self):
        """Announced from inside a driver, the fallback names the
        caller's line, not the driver body's kernel call."""
        from repro import la_geev
        backends.reset_fallback_announcements()
        with use_backend("accelerated"):
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                la_geev(np.eye(3) + 0.1)
        got = [w for w in rec
               if issubclass(w.category, BackendFallbackWarning)]
        assert got and [w.filename for w in got] == [__file__] * len(got)

    @needs_accelerated
    def test_unsupported_dtype_falls_back(self):
        backends.reset_fallback_announcements()
        acc = backends.get_backend("accelerated")
        assert acc.supports("syev", np.float64)
        assert not acc.supports("syev", np.complex128)
        ref = backends.get_backend("reference").get("syev")
        with use_backend("accelerated"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BackendFallbackWarning)
                assert backends.resolve("syev", np.complex128) is ref


class TestFaultSeam:
    @needs_accelerated
    def test_armed_faults_route_to_reference(self):
        with use_backend("accelerated"):
            with faultinject.injected("getf2", zero_pivot=2):
                ref = backends.get_backend("reference").get("gesv")
                assert backends.resolve("gesv", np.float64) is ref
            acc = backends.get_backend("accelerated").get("gesv")
            assert backends.resolve("gesv", np.float64) is acc

    @needs_accelerated
    def test_injected_fault_fires_under_accelerated(self):
        a, b = _system()
        with use_backend("accelerated"):
            with faultinject.injected("getf2", zero_pivot=2):
                with pytest.raises(SingularMatrix) as e:
                    la_gesv(a.copy(), b.copy())
        assert e.value.info == 3


class TestAdapterContracts:
    @needs_accelerated
    def test_positive_info_leaves_b_unsolved(self):
        a = np.zeros((3, 3))
        b = np.arange(3.0)
        b0 = b.copy()
        with use_backend("accelerated"):
            with pytest.raises(SingularMatrix):
                la_gesv(a, b)
        np.testing.assert_array_equal(b, b0)

    @needs_accelerated
    def test_nan_cholesky_pivot_reported(self):
        a = np.diag([np.nan, 1.0])
        with use_backend("accelerated"):
            info = kernels.potrf(a.copy())
        assert info == 1

    @needs_accelerated
    def test_posv_fallback_ladder_runs_accelerated(self):
        # indefinite but symmetric: posv fails, the policy ladder
        # retries through sysv — all dispatched to the same backend
        rng = np.random.default_rng(3)
        s = rng.standard_normal((5, 5))
        s = s + s.T
        b = s.sum(axis=1)
        with exception_policy(fallbacks=True):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                x = la_posv(s.copy(), b.copy(), backend="accelerated")
        np.testing.assert_allclose(x, np.ones(5), atol=1e-8)
