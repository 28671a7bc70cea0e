"""The dispatch seam's contract: resolve once, call, and escalate a
failure once to reference only from a declared write-back entry."""

import gc
import weakref

import numpy as np
import pytest

import repro
from repro import Info, available_backends, la_gesv
from repro.backends import (Backend, get_backend, kernels,
                            register_backend, unregister_backend,
                            use_backend)
from repro.errors import SingularMatrix
from repro.testing import faultinject as fi

from .test_chaos import seam_attempts

needs_accelerated = pytest.mark.skipif(
    "accelerated" not in available_backends(),
    reason="needs the accelerated backend registered")


@pytest.fixture(autouse=True)
def _clean_harness():
    # Each test arms exactly the faults it describes, also under
    # REPRO_CHAOS.
    fi.chaos_clear()
    yield
    fi.chaos_clear()


def _system(n=4, seed=3):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    return a, a @ np.arange(1.0, n + 1)


@needs_accelerated
def test_accelerated_failure_escalates_once_bit_identical():
    a, b = _system()
    ar, br = a.copy(), b.copy()
    la_gesv(ar, br, backend="reference")
    info = Info()
    with fi.chaos("gesv", flaky_every=1, backend="accelerated"):
        la_gesv(a, b, info=info, backend="accelerated")
    assert info.attempts == ("accelerated:gesv#1:error=InjectedFault",
                             "reference:gesv#2")
    assert int(info) == 0
    np.testing.assert_array_equal(b, br)
    np.testing.assert_array_equal(a, ar)


@needs_accelerated
@pytest.mark.parametrize("entry", [la_gesv, repro.solve],
                         ids=["la_gesv", "solve"])
def test_escalated_failure_frees_the_operands_without_the_gc(entry):
    # The chaos fault's traceback must not tie the call's frames (and
    # with them the operands) into a reference cycle: the operand is
    # freed as soon as the caller drops it, with the cyclic GC off.
    a, b = _system()
    gc.disable()
    try:
        info = Info()
        with use_backend("accelerated"), \
                fi.chaos("gesv", flaky_every=1, backend="accelerated"):
            entry(a, b, info=info)
        assert "reference:gesv#2" in info.attempts
        ref = weakref.ref(a)
        del a
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("backend", available_backends())
def test_linalg_error_never_escalates(backend):
    # A contract verdict is the input's fault, not the kernel's: it
    # propagates unchanged from any entry, declared write-back or not,
    # and the reference kernel never sees the operands.
    def verdict(a, b):
        raise SingularMatrix("GESV", 1)

    register_backend(Backend("verdict", {"gesv": verdict},
                             write_back={"gesv"}))
    try:
        a, b = _system()
        a0 = a.copy()
        exc, attempts = seam_attempts("verdict", "gesv", a, b)
        assert isinstance(exc, SingularMatrix)
        assert attempts == []
        np.testing.assert_array_equal(a, a0)
    finally:
        unregister_backend("verdict")
    # A real singular system reports through INFO on either backend.
    info = Info()
    la_gesv(np.zeros((3, 3)), np.ones(3), info=info, backend=backend)
    assert int(info) > 0 and info.attempts is None


@pytest.mark.parametrize("backend", available_backends())
def test_clean_call_resolves_once(backend, monkeypatch):
    calls = []
    real = kernels.resolve

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "resolve", counting)
    a, b = _system()
    exc, attempts = seam_attempts(backend, "gesv", a, b)
    assert exc is None and attempts == []
    assert calls == [("gesv", a.dtype)]


@needs_accelerated
def test_accelerated_entries_are_declared_write_back():
    accelerated = get_backend("accelerated")
    assert {"gesv", "posv", "gesv_stack", "posv_stack",
            "gels_stack"} <= accelerated.write_back
    # Loop-mode stack entries grafted on later write slice by slice and
    # are not declared; neither is anything on reference.
    assert "sysv_stack" not in accelerated.write_back
    assert get_backend("reference").write_back == frozenset()


def _stack_operands(routine, batch=3, n=4, seed=5):
    rng = np.random.default_rng(seed)
    m = n + 2 if routine == "gels" else n
    a = rng.standard_normal((batch, m, n))
    if routine == "posv":
        a = a @ a.transpose(0, 2, 1) + n * np.eye(n)
    elif routine == "gesv":
        a += n * np.eye(n)
    b = rng.standard_normal((batch, m, 2))
    return a, b


@needs_accelerated
@pytest.mark.parametrize("routine", ["gesv", "posv", "gels"])
def test_stack_adapter_failure_mid_stack_leaves_operands_untouched(
        routine, monkeypatch):
    from repro.backends import accelerated

    real = accelerated._flavor

    def flavor(name, dtype):
        f = real(name, dtype)
        served = []

        def dies_at_second_slice(*args, **kwargs):
            if served:
                raise RuntimeError("SciPy wrapper died at slice 1")
            served.append(True)
            return f(*args, **kwargs)
        return dies_at_second_slice

    monkeypatch.setattr(accelerated, "_flavor", flavor)
    a, b = _stack_operands(routine)
    a0, b0 = a.tobytes(), b.tobytes()
    adapter = getattr(accelerated, routine + "_stack")
    with pytest.raises(RuntimeError, match="slice 1"):
        adapter(a, b)
    assert a.tobytes() == a0 and b.tobytes() == b0
    # Through the seam the declared entry escalates once, and reference
    # serves the untouched stack.
    ar, br = a.copy(), b.copy()
    get_backend("reference").get(routine + "_stack")(ar, br)
    exc, attempts = seam_attempts("accelerated", routine + "_stack", a, b)
    assert exc is None
    assert attempts == [
        f"accelerated:{routine}_stack#1:error=RuntimeError",
        f"reference:{routine}_stack#2"]
    np.testing.assert_array_equal(a, ar)
    np.testing.assert_array_equal(b, br)
