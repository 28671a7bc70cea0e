"""Functional contract of the spec-generated batched drivers:
amortized validation, per-problem BatchInfo telemetry, batch-indexed
(and rate-limited) warnings, fallback replay, deadline prefixes and the
per-backend capability report."""

import warnings

import numpy as np
import pytest

import repro
from repro import faults
from repro import (DeadlineExceeded, DriverFallbackWarning, Info,
                   NonFiniteWarning, SingularMatrix, deadline,
                   exception_policy, la_geev, la_gesv, la_posv)
from repro.batch import (BatchInfo, batch_geev, batch_gels, batch_gesv,
                         batch_posv, batch_syev, batchable_specs,
                         make_batched, reset_batch_announcements)
from repro.backends.batched import batch_capability
from repro.specs import SPECS, validate_batch

from ..conftest import well_conditioned, spd_matrix


def _stack(rng, batch, n, nrhs=2):
    a = np.stack([well_conditioned(rng, n, np.float64)
                  for _ in range(batch)])
    b = rng.standard_normal((batch, n, nrhs))
    return a, b


# -- derivation -------------------------------------------------------

def test_registry_opt_in_drives_generation():
    names = {s.name for s in batchable_specs()}
    assert names == {"la_gesv", "la_posv", "la_sysv", "la_hesv",
                     "la_gels", "la_syev", "la_heev", "la_geev"}
    for spec in batchable_specs():
        assert hasattr(repro, "batch_" + spec.name[3:])


def test_make_batched_carries_spec():
    spec = SPECS["la_gesv"]
    fn = make_batched(spec)
    assert fn.__name__ == "batch_gesv"
    assert fn.spec is spec


# -- amortized validation ---------------------------------------------

def test_validate_batch_codes(rng):
    a, b = _stack(rng, 4, 5)
    assert validate_batch(SPECS["la_gesv"], {"a": a, "b": b}) == (0, 4)
    # leading-dim mismatch flags the offending argument's position
    assert validate_batch(SPECS["la_gesv"],
                          {"a": a, "b": b[:3]}) == (-2, 0)
    # an unstacked matrix cannot start a batch
    assert validate_batch(SPECS["la_gesv"],
                          {"a": a[0], "b": b}) == (-1, 0)


def test_batch_validation_reports_like_scalar(rng):
    a, b = _stack(rng, 3, 4)
    info = BatchInfo()
    batch_gesv(a, b[:, :2, :], info=info)     # rhs rows != n
    assert int(info) == -2


# -- solve paths ------------------------------------------------------

def test_batch_gesv_solves_stack(rng):
    a, b = _stack(rng, 6, 5)
    a0, b0 = a.copy(), b.copy()
    info = BatchInfo()
    x = batch_gesv(a, b, info=info)
    assert info.first_failure == -1
    assert info.codes() == (0,) * 6
    # x aliases b (in-place contract, like the scalar driver)
    assert x is b
    assert np.abs(np.einsum("kij,kjr->kir", a0, x) - b0).max() < 1e-9


def test_batch_gesv_vector_rhs(rng):
    a, _ = _stack(rng, 4, 6)
    b = rng.standard_normal((4, 6))
    a0, b0 = a.copy(), b.copy()
    x = batch_gesv(a, b)
    assert x.shape == (4, 6)
    assert np.abs(np.einsum("kij,kj->ki", a0, x) - b0).max() < 1e-9


def test_batch_syev_matches_numpy(rng):
    a = np.stack([spd_matrix(rng, 5, np.float64) for _ in range(3)])
    info = BatchInfo()
    w = batch_syev(a.copy(), info=info)
    assert info.first_failure == -1
    for k in range(3):
        np.testing.assert_allclose(w[k], np.linalg.eigvalsh(a[k]),
                                   atol=1e-9)


def test_batch_geev_matches_looped_scalar(rng):
    a = rng.standard_normal((3, 4, 4))
    vl = np.zeros((3, 4, 4), dtype=complex)
    vr = np.zeros((3, 4, 4), dtype=complex)
    info = BatchInfo()
    w, vl_out, vr_out = batch_geev(a.copy(), vl=vl, vr=vr, info=info)
    assert vl_out is vl and vr_out is vr
    assert info.codes() == (0, 0, 0)
    for k in range(3):
        wk, lk, rk = la_geev(a[k].copy(), vl=True, vr=True)
        np.testing.assert_array_equal(w[k], wk)
        np.testing.assert_array_equal(vl[k], lk)
        np.testing.assert_array_equal(vr[k], rk)


def test_batch_gels_least_squares(rng):
    a = rng.standard_normal((3, 7, 4))
    b = rng.standard_normal((3, 7, 2))
    info = BatchInfo()
    x = batch_gels(a.copy(), b.copy(), info=info)
    assert x.shape == (3, 4, 2)
    assert info.codes() == (0, 0, 0)
    for k in range(3):
        ref, *_ = np.linalg.lstsq(a[k], b[k], rcond=None)
        np.testing.assert_allclose(x[k], ref, atol=1e-8)


# -- error contract ---------------------------------------------------

def test_singular_problem_indexed_in_info(rng):
    a, b = _stack(rng, 5, 4)
    a[2] = 0.0
    info = BatchInfo()
    batch_gesv(a, b, info=info)
    assert info.first_failure == 2
    assert info.problems[2].value > 0
    assert all(info.problems[k].value == 0 for k in (0, 1, 3, 4))
    assert int(info) == info.problems[2].value


def test_raise_path_names_the_problem(rng):
    a, b = _stack(rng, 4, 3)
    a[1] = 0.0
    with pytest.raises(SingularMatrix) as excinfo:
        batch_gesv(a, b)
    assert excinfo.value.batch_index == 1
    assert "[batch problem 1]" in str(excinfo.value)


def test_nonfinite_screen_is_batch_indexed(rng):
    a, b = _stack(rng, 5, 3)
    a[3, 0, 0] = np.nan
    info = BatchInfo()
    with exception_policy(nonfinite="check"):
        batch_gesv(a, b, info=info)
    codes = info.codes()
    assert codes[3] <= -1000          # NONFINITE - position
    assert all(codes[k] == 0 for k in (0, 1, 2, 4))


def test_nonfinite_warning_rate_limited(rng):
    reset_batch_announcements()
    a, b = _stack(rng, 4, 3)
    a[2, 0, 0] = np.inf
    with exception_policy(nonfinite="warn"):
        with warnings.catch_warnings(record=True) as first:
            warnings.simplefilter("always")
            batch_gesv(a.copy(), b.copy())
        with warnings.catch_warnings(record=True) as second:
            warnings.simplefilter("always")
            batch_gesv(a.copy(), b.copy())
    hits = [w for w in first if issubclass(w.category, NonFiniteWarning)]
    assert len(hits) == 1
    assert "BATCH_GESV[batch problem 2]" in str(hits[0].message)
    assert not [w for w in second
                if issubclass(w.category, NonFiniteWarning)]
    reset_batch_announcements()


def test_posv_fallback_replays_batch_indexed(rng):
    reset_batch_announcements()
    a = np.stack([spd_matrix(rng, 4, np.float64) for _ in range(4)])
    a[2] = np.diag([1.0, -1.0, 2.0, 3.0])   # indefinite, nonsingular
    b = rng.standard_normal((4, 4, 2))
    a0, b0 = a.copy(), b.copy()
    info = BatchInfo()
    with exception_policy(fallbacks=True):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x = batch_posv(a, b, info=info)
    assert info.first_failure == -1
    assert info.problems[2].fallback is not None
    hits = [w for w in caught
            if issubclass(w.category, DriverFallbackWarning)]
    assert len(hits) == 1
    assert "[batch problem 2]" in str(hits[0].message)
    # the fallback problem still solves its system
    assert np.abs(np.einsum("kij,kjr->kir", a0, x) - b0).max() < 1e-8
    reset_batch_announcements()


@pytest.mark.parametrize("routine", ["gesv", "syev"])
def test_escaped_kernel_failure_closes_the_frame(rng, routine):
    """A kernel failure escaping a ``batch_*`` call (reference does not
    retry) must not leave the wrapper's call-log frame open."""
    from repro.resilience import calllog
    a, b = _stack(rng, 3, 4)
    call = (lambda: batch_gesv(a, b)) if routine == "gesv" \
        else (lambda: batch_syev(a + np.swapaxes(a, 1, 2)))
    before = calllog.depth()
    with faults.chaos(routine, flaky_every=1, backend="reference"):
        with repro.use_backend("reference"):
            with pytest.raises(faults.InjectedFault):
                call()
    assert calllog.depth() == before


def test_mid_batch_deadline_keeps_prefix(rng):
    a, b = _stack(rng, 32, 8)
    # latency injection makes each kernel call cost ~20ms, so the
    # 0.1s deadline reliably trips between problems, not at entry
    with pytest.raises(DeadlineExceeded) as excinfo:
        with faults.chaos("gesv", latency=0.02):
            with deadline(0.1):
                batch_gesv(a, b)
    partial = excinfo.value.partial
    assert isinstance(partial, BatchInfo)
    assert int(partial) == partial.problems[-1].value  # DEADLINE class
    codes = np.asarray(partial.codes())
    # a (possibly empty) completed prefix, then DEADLINE markers
    cut = int(np.argmax(codes != 0))
    assert np.all(codes[:cut] == 0)
    assert np.all(codes[cut:] <= -3000)


# -- parity with the scalar drivers (spot check; the property suite
#    in test_parity.py covers this exhaustively) -----------------------

def test_batch_matches_looped_scalar(rng):
    a, b = _stack(rng, 5, 6, nrhs=3)
    ab, bb = a.copy(), b.copy()
    ipiv = np.zeros((5, 6), dtype=np.int64)
    info = BatchInfo()
    x = batch_gesv(ab, bb, ipiv, info=info)
    for k in range(5):
        ak, bk = a[k].copy(), b[k].copy()
        pk = np.zeros(6, dtype=np.int64)
        pinfo = Info()
        la_gesv(ak, bk, pk, info=pinfo)
        assert info.problems[k].value == int(pinfo)
        np.testing.assert_array_equal(x[k], bk)
        np.testing.assert_array_equal(ipiv[k], pk)


# -- capability report ------------------------------------------------

def test_batch_capability_shape():
    caps = batch_capability()
    assert "reference" in caps
    for name, modes in caps.items():
        assert modes["gesv"] in ("native", "stack", "loop")
        # symmetric/Hermitian eigen stacks cross the seam once; the
        # general eigensolver stays per-problem
        eig = {"accelerated": "native", "reference": "stack"}.get(name)
        if eig is not None:
            assert modes["syev"] == eig
            assert modes["heev"] == eig
        assert modes["geev"] == "loop"


def test_accelerated_ships_native_stack_entries():
    """The accelerated substrate registers true stack-forwarding
    kernels for the solve/lstsq families; the grafted loop-mode entry
    must not shadow them."""
    if "accelerated" not in batch_capability():
        pytest.skip("accelerated backend not registered")
    modes = batch_capability()["accelerated"]
    for kernel in ("gesv", "posv", "gels"):
        assert modes[kernel] == "native", (kernel, modes[kernel])
    for kernel in ("sysv", "hesv"):
        assert modes[kernel] == "stack", (kernel, modes[kernel])
    # reference has no native batched primitive: always the graft
    assert all(m == "stack" for k, m in
               batch_capability()["reference"].items()
               if k not in ("syev", "heev", "geev"))


def test_healthcheck_reports_batch():
    report = repro.healthcheck()
    for entry in report["backends"].values():
        assert "batch" in entry
        assert set(entry["batch"]) == {"ok", "error", "modes"}
    ref = report["backends"]["reference"]
    assert ref["batch"]["ok"] is True
    assert ref["batch"]["modes"]["gesv"] in ("native", "stack", "loop")
