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

#: Drivers whose operands are complex (Hermitian / unitary families).
COMPLEX = frozenset({
    "la_hesv", "la_hpsv", "la_hesvx", "la_hpsvx", "la_heev", "la_hpev",
    "la_hbev", "la_heevd", "la_hpevd", "la_hbevd", "la_heevx",
    "la_hpevx", "la_hbevx", "la_hegv", "la_hpgv", "la_hbgv", "la_hegst",
    "la_hetrd", "la_ungtr",
})


def _mat(n, dtype, m=None):
    """A well-conditioned ``(m, n)`` matrix (square by default)."""
    m = n if m is None else m
    rng = np.random.default_rng(7)
    a = rng.uniform(-1, 1, (m, n))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.uniform(-1, 1, (m, n))
    a[np.arange(min(m, n)), np.arange(min(m, n))] += 4.0
    return a.astype(dtype)


def _spd(n, dtype):
    a = _mat(n, dtype)
    return (a @ a.conj().T + n * np.eye(n)).astype(dtype)


def _packed(a):
    """Upper-triangle packed storage of a symmetric/Hermitian matrix."""
    n = a.shape[0]
    return np.concatenate([a[:j + 1, j] for j in range(n)]) if n \
        else np.zeros(0, a.dtype)


def _band(a, kd):
    """Upper symmetric band storage, ``(kd + 1, n)``."""
    n = a.shape[0]
    ab = np.zeros((kd + 1, n), a.dtype)
    for j in range(n):
        for i in range(max(0, j - kd), j + 1):
            ab[kd + i - j, j] = a[i, j]
    return ab


def _vec(n, dtype, shift=0.0):
    return (np.arange(1, n + 1) + shift).astype(dtype)


def _call(name, n, dtype):
    """``(args, kwargs)`` of a well-formed ``name`` call of order n."""
    m = n + 1                       # rows of a least-squares matrix
    a, b = _mat(n, dtype), _vec(n, dtype)
    spd = _spd(n, dtype)
    off = _vec(max(n - 1, 0), dtype, 0.5)
    stem = name[3:]
    if stem in ("gesv", "sysv", "hesv", "gesvx"):
        return (a if stem in ("gesv", "gesvx") else spd, b), {}
    if stem in ("sysvx", "hesvx", "posv", "posvx"):
        return (spd, b), {}
    if stem in ("spsv", "hpsv", "ppsv", "spsvx", "hpsvx", "ppsvx"):
        return (_packed(spd), b), {}
    if stem == "gbsv":
        ab = np.zeros((4, n), dtype)        # kl = ku = 1, fill row 0
        ab[1, 1:], ab[2, :], ab[3, :-1] = 1.0, 4.0, 1.0
        return (ab, b), {"kl": 1}
    if stem == "gbsvx":
        ab = np.zeros((3, n), dtype)        # kl = ku = 1
        ab[0, 1:], ab[1, :], ab[2, :-1] = 1.0, 4.0, 1.0
        return (ab, b), {"kl": 1}
    if stem in ("pbsv", "pbsvx"):
        return (_band(spd, 1), b), {}
    if stem in ("gtsv", "gtsvx"):
        return (off, _vec(n, dtype, 4.0), off.copy(), b), {}
    if stem in ("ptsv", "ptsvx"):
        return (_vec(n, dtype, 4.0).real, off, b), {}
    if stem in ("gels", "gelsx", "gelss"):
        return (_mat(n, dtype, m), _vec(m, dtype)), {}
    if stem == "gglse":
        return (_mat(n, dtype, m), _mat(n, dtype, 1), _vec(m, dtype),
                _vec(1, dtype)), {}
    if stem == "ggglm":
        return (_mat(n, dtype, m), _mat(2, dtype, m), _vec(m, dtype)), {}
    if stem in ("syev", "heev", "syevd", "heevd", "syevx", "heevx",
                "sytrd", "hetrd", "potrf"):
        return (spd,), {}
    if stem in ("spev", "hpev", "spevd", "hpevd", "spevx", "hpevx"):
        return (_packed(spd),), {}
    if stem in ("sbev", "hbev", "sbevd", "hbevd", "sbevx", "hbevx"):
        return (_band(spd, 1),), {}
    if stem in ("stev", "stevd", "stevx"):
        return (_vec(n, dtype, 4.0), off), {}
    if stem in ("gees", "geev", "gesvd", "geesx", "geevx", "getrf",
                "geequ", "lange", "lagge"):
        return (a,), {}
    if stem in ("sygv", "hegv", "sygst", "hegst"):
        return (spd, _spd(n, dtype)), {}
    if stem in ("spgv", "hpgv"):
        return (_packed(spd), _packed(_spd(n, dtype))), {}
    if stem in ("sbgv", "hbgv"):
        return (_band(spd, 1), _band(_spd(n, dtype), 1)), {}
    if stem in ("gegs", "gegv", "ggsvd"):
        return (a, _mat(n, dtype)), {}
    ipiv = np.arange(n, dtype=np.int64)
    if stem == "getrs":
        return (a, ipiv, b), {}
    if stem == "trtrs":
        return (np.triu(a), b), {}
    if stem == "getri":
        return (a, ipiv), {}
    if stem == "gerfs":
        return (a, a.copy(), ipiv, b, b.copy()), {}
    if stem in ("orgtr", "ungtr"):
        return (spd, off), {}
    raise KeyError(name)


def _first_operand(name):
    spec = SPECS[name]
    return min((a for a in spec.args if a.required
                and a.kind in ("matrix", "rhs", "vector")),
               key=lambda a: a.position)


def _code(name, backend, n=3, poison=False):
    dtype = np.complex128 if name in COMPLEX else np.float64
    args, kwargs = _call(name, n, dtype)
    if poison:
        first = _first_operand(name)
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
    want = NONFINITE - _first_operand(name).position
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
