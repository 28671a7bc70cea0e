"""The one-lookup ``resolve`` against the ``Backend.get`` ladder.

With no fault armed, :func:`repro.backends.resolve` serves a pair the
selected backend serves from :attr:`Backend.served` in one lookup.
These tests pin that it returns the very kernel the ladder would (the
backend's own entry, else reference's, announced), for every registered
backend, routine and dtype, and that the per-call pin, an armed fault,
an unregistered backend, an unsupported dtype and an entry added by
:meth:`Backend.extend` after registration keep their behaviour.
"""

import warnings

import numpy as np
import pytest

from repro import BackendFallbackWarning, backends, use_backend
from repro.backends import Backend, _pinned, resolve
from repro.testing import faultinject

#: Every LAPACK type, a type no backend restricts a routine to, and no
#: dtype at all.
DTYPES = [np.dtype(c) for c in "fdFD"] + [np.dtype(np.int64), None]


def _ladder(name, routine, dtype):
    """What the ``Backend.get`` ladder serves ``(routine, dtype)`` with
    ``name`` selected and no fault armed: ``(kernel, announced)``."""
    kernel = backends.get_backend(name).get(routine, dtype)
    if kernel is not None:
        return kernel, False
    return backends.get_backend("reference").get(routine, dtype), True


def _resolved(routine, dtype, **kwargs):
    """``(kernel, announced)`` from :func:`resolve`."""
    backends.reset_fallback_announcements()
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        kernel = resolve(routine, dtype, **kwargs)
    return kernel, any(issubclass(w.category, BackendFallbackWarning)
                       for w in rec)


@pytest.fixture(autouse=True)
def _no_faults():
    # Under REPRO_CHAOS the chaos profile is armed; it never changes
    # what resolve returns, but the substrate faults would.
    faultinject.clear()
    backends.reset_fallback_announcements()
    yield
    backends.reset_fallback_announcements()


@pytest.mark.parametrize("name", backends.available_backends())
def test_every_served_pair_matches_the_ladder(name):
    routines = sorted(backends.get_backend(name).routines())
    with use_backend(name):
        for routine in routines:
            for dtype in DTYPES:
                assert _resolved(routine, dtype) == \
                    _ladder(name, routine, dtype), (routine, dtype)
            # the same pairs spelled as a dtype char
            for char in "fdFD":
                assert _resolved(routine, char)[0] is \
                    _ladder(name, routine, np.dtype(char))[0]


@pytest.mark.parametrize("name", backends.available_backends())
def test_the_table_holds_exactly_what_get_serves(name):
    backend = backends.get_backend(name)
    for (routine, char), kernel in backend.served.items():
        dtype = None if char is None else np.dtype(char)
        assert backend.get(routine, dtype) is kernel


def test_a_pin_and_the_backend_argument_win_over_the_selection():
    ref = backends.get_backend("reference").get("gesv")
    ghost_gesv = lambda a, b: None        # noqa: E731
    backends.register_backend(Backend("ghost", {"gesv": ghost_gesv}))
    try:
        with _pinned("ghost"):
            assert resolve("gesv", np.dtype("d")) is ghost_gesv
            assert resolve("gesv", np.dtype("d"),
                           backend="reference") is ref
        with use_backend("ghost"):
            with _pinned("reference"):
                assert resolve("gesv", np.dtype("d")) is ref
            assert resolve("gesv", np.dtype("d")) is ghost_gesv
    finally:
        backends.unregister_backend("ghost")


@pytest.mark.parametrize("name", backends.available_backends())
def test_an_armed_fault_forces_reference(name):
    ref = backends.get_backend("reference")
    with use_backend(name), faultinject.injected("getf2", zero_pivot=2):
        for routine in ("gesv", "posv", "syev", "gels"):
            for dtype in DTYPES:
                assert _resolved(routine, dtype) == \
                    (ref.get(routine), False), (routine, dtype)


def test_an_unregistered_backend_is_announced():
    ref = backends.get_backend("reference").get("gesv")
    backends.register_backend(Backend("ghost", {"gesv": lambda a, b: 0}))
    try:
        with _pinned("ghost"):
            backends.unregister_backend("ghost")
            assert _resolved("gesv", np.dtype("d")) == (ref, True)
    finally:
        backends.unregister_backend("ghost")


def test_an_unsupported_dtype_is_announced():
    ref = backends.get_backend("reference")
    only_double = lambda a: 0              # noqa: E731
    backends.register_backend(Backend("ghost", {"syev": only_double},
                                      dtype_chars={"syev": "d"}))
    try:
        with _pinned("ghost"):
            assert _resolved("syev", np.dtype("d")) == (only_double, False)
            for char in "fFD":
                assert _resolved("syev", np.dtype(char)) == \
                    (ref.get("syev"), True)
            assert _resolved("gesv", np.dtype("d")) == \
                (ref.get("gesv"), True)
    finally:
        backends.unregister_backend("ghost")


def test_an_entry_extended_after_registration_is_served():
    ref = backends.get_backend("reference")
    first, second, added = (lambda *a: 1), (lambda *a: 2), (lambda *a: 3)
    ghost = Backend("ghost", {"gesv": first})
    backends.register_backend(ghost)
    try:
        with _pinned("ghost"):
            assert _resolved("gesv", np.dtype("d")) == (first, False)
            assert _resolved("gels", np.dtype("d")) == \
                (ref.get("gels"), True)
            ghost.extend({"gesv": second, "gels": added},
                         dtype_chars={"gels": "f"})
            assert _resolved("gesv", np.dtype("d")) == (second, False)
            assert _resolved("gels", np.dtype("f")) == (added, False)
            assert _resolved("gels", np.dtype("d")) == \
                (ref.get("gels"), True)
    finally:
        backends.unregister_backend("ghost")
