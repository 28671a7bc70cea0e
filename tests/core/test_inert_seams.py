"""Inert seams: what a clean call leaves behind, and what an armed seam
still does.

A seam that is inert in the default state costs a flag read on a clean
call: the shell runs the entry gate only while a deadline or a fault is
armed or the policy screens non-finite input, the call-log frame stays
``None`` until a kernel attempt is recorded, and a clean outcome stores
``info.value = 0`` without the report.  These tests pin both halves:

* every clean call leaves ``Info.attempts`` at ``None`` (no trail is
  built, so there is none to read, not even an empty one);
* under each armed seam (an expired deadline, an allocation fault,
  ``nonfinite="check"`` and ``nonfinite="warn"``) every screened driver
  refuses, raises or warns;
* a chaos-escalated call still drains its trail into ``Info.attempts``;
* the call-log stack is back at its depth after clean, refused, raising
  and deadline-exceeded calls of drivers and batch wrappers.
"""

import time
import warnings

import numpy as np
import pytest

import repro
from repro import (BatchInfo, DeadlineExceeded, Info, NonFiniteWarning,
                   WorkspaceError, available_backends, batch, core, f77)
from repro.errors import ALLOC_FAILED, DEADLINE, NONFINITE, NonFiniteInput
from repro.policy import exception_policy
from repro.resilience import calllog
from repro.specs import SPECS
from repro.testing import faultinject as fi

from .driver_calls import COMPLEX, first_operand, well_formed_call
from .test_entry_gate import SCREENED

BACKENDS = [b for b in ("reference", "accelerated")
            if b in available_backends()]


@pytest.fixture(autouse=True)
def _clean_harness():
    # Under REPRO_CHAOS every test starts with the chaos profile armed:
    # a clean call here must be clean on every leg.
    fi.chaos_clear()
    yield
    fi.chaos_clear()


def _args(name, n=3, poison=False):
    dtype = np.complex128 if name in COMPLEX else np.float64
    args, kwargs = well_formed_call(name, n, dtype)
    if poison:
        args[first_operand(name).position - 1].flat[0] = np.nan
    return args, kwargs


def _quiet(fn):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn()


def _system(n=4, dtype=np.float64):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((n, n)).astype(dtype)
    a = a @ a.conj().T + n * np.eye(n, dtype=dtype)
    return a, rng.standard_normal(n).astype(dtype)


# -- a clean call builds no attempt trail ------------------------------

def _clean_front_door(verb, backend):
    a, b = _system()
    info = Info()
    with repro.use_backend(backend):
        if verb == "solve_cold":
            repro.solve(a.copy(), b, info=info)
        elif verb == "solve_warm":
            warm = a.copy()
            repro.solve(warm, b)
            repro.solve(warm, b, info=info)
            assert info.probe_cost == 0.0       # the cache served it
        elif verb == "lstsq":
            repro.lstsq(np.vstack([a, a]), np.hstack([b, b]), info=info)
        else:
            repro.eig(a, info=info)
    return info


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("entry", sorted(SPECS) + [
    "solve_cold", "solve_warm", "lstsq", "eig"] + sorted(batch._GENERATED))
def test_a_clean_call_leaves_attempts_unset(entry, backend):
    if entry in SPECS:
        args, kwargs = _args(entry)
        info = Info()
        _quiet(lambda: getattr(core, entry)(*args, **kwargs, info=info,
                                            backend=backend))
    elif entry.startswith("batch_"):
        spec = getattr(batch, entry).spec
        args, kwargs = _args(spec.name)
        stacked = set(spec.batch_stacked)
        names = [a.name for a in spec.args if a.kind != "info"]
        args = [np.stack([x, x]) if n in stacked else x
                for n, x in zip(names, args)]
        info = BatchInfo()
        _quiet(lambda: getattr(batch, entry)(*args, **kwargs, info=info,
                                             backend=backend))
        assert all(p.attempts is None for p in info.problems)
    else:
        info = _clean_front_door(entry, backend)
    assert info.value == 0
    assert info.attempts is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_clean_f77_call_records_nothing(backend):
    a, b = _system()
    n = a.shape[0]
    frames, depth = calllog.push()
    try:
        with repro.use_backend(backend):
            assert f77.la_gesv(n, 1, a, n, np.zeros(n, np.int64),
                               b.reshape(n, 1), n) == 0
            assert f77.la_posv("U", n, 1, _system()[0], n,
                               b.reshape(n, 1), n) == 0
        assert frames[depth] is None          # the frame was never built
    finally:
        assert calllog.drain() == {"attempts": []}


# -- armed seams, over every screened driver ---------------------------

SCREENED_NAMES = sorted(SCREENED)


def test_the_screened_set_is_the_specs_screen_field():
    assert SCREENED == {s.name for s in SPECS.values() if s.screen}


@pytest.mark.parametrize("name", SCREENED_NAMES)
def test_an_expired_deadline_refuses_at_entry(name):
    args, kwargs = _args(name)
    info = Info()
    with pytest.raises(DeadlineExceeded) as exc:
        with repro.deadline(1e-6):
            time.sleep(1e-4)
            getattr(core, name)(*args, **kwargs, info=info)
    assert exc.value.stage == "entry"
    assert exc.value.partial.value == DEADLINE
    assert info.value == 0                    # the call never reached it
    assert calllog.depth() == 0


@pytest.mark.parametrize("name", SCREENED_NAMES)
def test_an_armed_alloc_fault_refuses(name):
    args, kwargs = _args(name)
    info = Info()
    with fi.injected(name, alloc=True):
        getattr(core, name)(*args, **kwargs, info=info)
    assert info.value == ALLOC_FAILED and info.attempts is None
    args, kwargs = _args(name)
    with fi.injected(name, alloc=True), pytest.raises(WorkspaceError):
        getattr(core, name)(*args, **kwargs)
    assert calllog.depth() == 0


@pytest.mark.parametrize("name", SCREENED_NAMES)
def test_check_mode_refuses_a_nonfinite_operand(name):
    position = first_operand(name).position
    args, kwargs = _args(name, poison=True)
    info = Info()
    with exception_policy(nonfinite="check"):
        getattr(core, name)(*args, **kwargs, info=info)
        assert info.value == NONFINITE - position
        args, kwargs = _args(name, poison=True)
        with pytest.raises(NonFiniteInput):
            getattr(core, name)(*args, **kwargs)
    assert calllog.depth() == 0


@pytest.mark.parametrize("name", SCREENED_NAMES)
def test_warn_mode_announces_a_nonfinite_operand(name):
    position = first_operand(name).position
    args, kwargs = _args(name, poison=True)
    with exception_policy(nonfinite="warn"), \
            warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        try:
            getattr(core, name)(*args, **kwargs, info=Info())
        except Exception:                 # noqa: BLE001 — the NaN may
            pass                          # trip the kernel afterwards
    got = [str(w.message) for w in rec
           if issubclass(w.category, NonFiniteWarning)]
    assert got == [f"{SPECS[name].srname}: argument {position} contains "
                   "non-finite entries; they will propagate through the "
                   "computation"]
    assert calllog.depth() == 0


@pytest.mark.parametrize("name", SCREENED_NAMES)
def test_a_clean_operand_passes_every_armed_screen(name):
    for mode in ("check", "warn"):
        args, kwargs = _args(name)
        info = Info()
        with exception_policy(nonfinite=mode), \
                warnings.catch_warnings():
            warnings.simplefilter("error", NonFiniteWarning)
            getattr(core, name)(*args, **kwargs, info=info)
        assert info.value == 0


@pytest.mark.skipif("accelerated" not in available_backends(),
                    reason="needs the accelerated backend registered")
def test_a_chaos_escalated_call_drains_its_trail():
    a, b = _system()
    info = Info()
    with fi.chaos("gesv", flaky_every=1, backend="accelerated"):
        core.la_gesv(a.copy(), b.copy(), info=info, backend="accelerated")
    assert info.value == 0
    assert info.attempts == ("accelerated:gesv#1:error=InjectedFault",
                             "reference:gesv#2")
    binfo = BatchInfo()
    with fi.chaos("gesv", flaky_every=1, backend="accelerated"):
        batch.batch_gesv(np.stack([a, a]), np.stack([b, b]), info=binfo,
                         backend="accelerated")
    assert [p.attempts for p in binfo.problems] == [
        ("accelerated:gesv#1:error=InjectedFault", "reference:gesv#2")] * 2


# -- the call-log stack is balanced however a call exits -----------------

def _singular():
    return np.zeros((3, 3)), np.ones(3)


CALLS = {
    "clean": lambda f: f(*_system()),
    "refused": lambda f: f(np.ones((3, 4)), np.ones(3), info=Info()),
    "raising": lambda f: f(*_singular()),
    "deadline": lambda f: f(*_system()),
}


def _stacked(fn):
    """``batch_gesv`` called like ``la_gesv``, on a stack of two."""
    def call(a, b, **kwargs):
        if "info" in kwargs:
            kwargs["info"] = BatchInfo()
        return fn(np.stack([a, a]), np.stack([b, b]), **kwargs)
    return call


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("how", sorted(CALLS))
@pytest.mark.parametrize("entry", ["la_gesv", "batch_gesv"])
def test_the_calllog_depth_is_restored(entry, how, backend):
    fn = core.la_gesv if entry == "la_gesv" else _stacked(batch.batch_gesv)
    call = CALLS[how]
    before = calllog.depth()
    with repro.use_backend(backend):
        try:
            if how == "deadline":
                with repro.deadline(1e-6):
                    time.sleep(1e-4)
                    call(fn)
            else:
                call(fn)
        except (DeadlineExceeded, repro.LinAlgError):
            assert how in ("raising", "deadline")
        else:
            assert how in ("clean", "refused")
    assert calllog.depth() == before == 0
