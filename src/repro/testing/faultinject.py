"""Fault-injection harness for exercising ERINFO's unreachable branches.

Thin user-facing wrapper over the package-root registry
(:mod:`repro.faults` — placed there so the substrate can consult it
without importing the test layer).  Adds :func:`inject_nonfinite`, the
input-corruption side of the harness: the registry covers faults that
arise *inside* a routine (zero pivots, allocation failures, forced
status codes), while NaN/Inf corruption happens to the *arguments*
before the call.

Typical use::

    from repro.testing import faultinject as fi

    with fi.injected("getf2", zero_pivot=1):
        la_gesv(a, b)          # -> SingularMatrix, info = 2

    bad = fi.inject_nonfinite(a.copy())   # a[0, 0] = NaN
    with exception_policy(nonfinite="check"):
        la_gesv(bad, b)        # -> NonFiniteInput, info = -1001

The chaos harness (dispatch-seam faults driving the resilience layer's
escalation) is re-exported here too::

    with fi.chaos("gesv", flaky_every=1, backend="accelerated"):
        la_gesv(a, b)          # fails on accelerated, served by reference
"""

from __future__ import annotations

import numpy as np

from ..faults import (InjectedFault, active, alloc_fault, chaos,
                      chaos_active, chaos_clear, chaos_install,
                      chaos_remove, clear, default_chaos_profile,
                      injected, install, linfo_fault, pivot_fault, remove)

__all__ = ["install", "remove", "clear", "injected", "active",
           "pivot_fault", "alloc_fault", "linfo_fault",
           "inject_nonfinite", "InjectedFault", "chaos", "chaos_install",
           "chaos_remove", "chaos_clear", "chaos_active",
           "default_chaos_profile"]


def inject_nonfinite(a: np.ndarray, value: float = np.nan,
                     index: tuple | int | None = None) -> np.ndarray:
    """Corrupt ``a`` in place with a non-finite entry and return it.

    ``value`` is the poison (``np.nan``, ``np.inf``, ``-np.inf``);
    ``index`` picks the entry (default: the first, i.e. ``(0, ..., 0)``).
    Deterministic on purpose — reproducibility beats coverage breadth
    for regression tests.
    """
    if np.isfinite(value):
        raise ValueError("value must be non-finite (NaN or +/-Inf)")
    if index is None:
        index = (0,) * a.ndim
    a[index] = value
    return a
