"""The driver entry gate, pinned over the whole catalogue.

The entry gate — the ``"entry"`` deadline checkpoint, the non-finite
screen and the simulated workspace-allocation fault — runs for a fixed
set of drivers: the simple and expert linear-equation drivers (§1,
§2), the least-squares drivers (§3), the standard eigen/SVD drivers
(§5) and four of the divide-and-conquer drivers (§6).  Every other
driver reaches its kernel unscreened.  These tests call each of the 77
drivers with well-formed operands on every available backend and pin
which ones answer ``NONFINITE - position`` for a NaN in their first
required array operand, which ones answer ``ALLOC_FAILED`` under an
armed allocation fault, and which screened drivers skip the gate
altogether at n = 0.
"""

import warnings

import numpy as np
import pytest

from repro import Info, available_backends
from repro import core
from repro.errors import ALLOC_FAILED, NONFINITE
from repro.policy import exception_policy
from repro.specs import SPECS
from repro.testing import faultinject as fi

from .driver_calls import COMPLEX, first_operand, well_formed_call

BACKENDS = [b for b in ("reference", "accelerated")
            if b in available_backends()]

#: Drivers that run the entry gate.
SCREENED = frozenset({
    # §1
    "la_gesv", "la_gbsv", "la_gtsv", "la_posv", "la_ppsv", "la_pbsv",
    "la_ptsv", "la_sysv", "la_hesv", "la_spsv", "la_hpsv",
    # §2
    "la_gesvx", "la_gbsvx", "la_gtsvx", "la_posvx", "la_ppsvx",
    "la_pbsvx", "la_ptsvx", "la_sysvx", "la_hesvx", "la_spsvx",
    "la_hpsvx",
    # §3
    "la_gels", "la_gelsx", "la_gelss",
    # §5
    "la_syev", "la_heev", "la_spev", "la_hpev", "la_sbev", "la_hbev",
    "la_stev", "la_gees", "la_geev", "la_gesvd",
    # §6: the packed and band siblings only
    "la_spevd", "la_hpevd", "la_sbevd", "la_hbevd",
})

#: Screened drivers whose n = 0 quick return comes before the gate.
SKIP_AT_ZERO = frozenset({
    "la_gesv", "la_gtsv", "la_posv", "la_ppsv", "la_pbsv", "la_ptsv",
    "la_sysv", "la_hesv", "la_spsv", "la_hpsv",
})

def _code(name, backend, n=3, poison=False):
    dtype = np.complex128 if name in COMPLEX else np.float64
    args, kwargs = well_formed_call(name, n, dtype)
    if poison:
        first = first_operand(name)
        args[first.position - 1].flat[0] = np.nan
    info = Info()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            getattr(core, name)(*args, **kwargs, info=info,
                                backend=backend)
        except Exception as exc:      # noqa: BLE001 — an unscreened
            return type(exc).__name__  # kernel may trip on the NaN
    return info.value


def test_catalogue_is_covered():
    assert SCREENED <= set(SPECS) and len(SPECS) == 77
    assert len(SCREENED) == 39


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_well_formed_calls_succeed(name, backend):
    # Without this, a malformed call would pass the "not screened"
    # assertions below vacuously (a validation code is not NONFINITE).
    fi.chaos_clear()
    assert _code(name, backend) == 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_nonfinite_screen_runs_for_exactly_the_screened_drivers(name,
                                                                backend):
    fi.chaos_clear()
    with exception_policy(nonfinite="check"):
        code = _code(name, backend, poison=True)
    want = NONFINITE - first_operand(name).position
    assert (code == want) == (name in SCREENED), code


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_alloc_fault_fires_for_exactly_the_screened_drivers(name,
                                                            backend):
    fi.chaos_clear()
    with fi.injected(name, alloc=True):
        code = _code(name, backend)
    assert (code == ALLOC_FAILED) == (name in SCREENED), code


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(SCREENED))
def test_order_zero_skips_the_gate_for_the_quick_return_drivers(
        name, backend):
    fi.chaos_clear()
    with fi.injected(name, alloc=True):
        code = _code(name, backend, n=0)
    want = 0 if name in SKIP_AT_ZERO else ALLOC_FAILED
    assert code == want
