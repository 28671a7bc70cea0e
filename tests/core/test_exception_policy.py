"""The numerical-exception policy: NaN/Inf screening modes, scoping,
reference-LAPACK propagate semantics, and the RCOND guard."""

import warnings

import numpy as np
import pytest

from repro import (Info, NonFiniteInput, exception_policy, get_policy,
                   la_gesv, la_posv, set_policy)
from repro.core import (la_gbsv, la_gels, la_gesvd, la_gesvx, la_gtsv,
                        la_posvx, la_syev)
from repro.errors import (NONFINITE, IllConditionedWarning,
                          NonFiniteWarning, NotPositiveDefinite)

from ..conftest import spd_matrix, well_conditioned


@pytest.fixture(autouse=True)
def _restore_policy():
    yield
    set_policy(nonfinite="propagate", rcond_guard="silent", fallbacks=False)


def _poisoned(rng, n=4, where="a", value=np.nan):
    a = well_conditioned(rng, n, np.float64)
    b = np.ones(n)
    if where == "a":
        a[0, 0] = value
    else:
        b[0] = value
    return a, b


class TestPolicyObject:
    def test_default_is_propagate(self):
        pol = get_policy()
        assert pol.nonfinite == "propagate"
        assert pol.rcond_guard == "silent"
        assert pol.fallbacks is False

    def test_set_policy_validates_modes(self):
        with pytest.raises(ValueError):
            set_policy(nonfinite="explode")
        with pytest.raises(ValueError):
            set_policy(rcond_guard="loud")

    def test_context_manager_restores(self):
        set_policy(nonfinite="warn")
        with exception_policy(nonfinite="check", fallbacks=True):
            assert get_policy().nonfinite == "check"
            assert get_policy().fallbacks is True
        assert get_policy().nonfinite == "warn"
        assert get_policy().fallbacks is False

    def test_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with exception_policy(nonfinite="check"):
                raise RuntimeError("boom")
        assert get_policy().nonfinite == "propagate"

    def test_config_reexports_policy(self):
        from repro import config
        assert config.get_policy() is get_policy()
        with config.exception_policy(nonfinite="check"):
            assert get_policy().nonfinite == "check"


class TestCheckMode:
    def test_gesv_nan_in_a(self, rng):
        a, b = _poisoned(rng, where="a")
        with exception_policy(nonfinite="check"):
            with pytest.raises(NonFiniteInput) as e:
                la_gesv(a, b)
        assert e.value.info == NONFINITE - 1
        assert e.value.position == 1

    def test_gesv_inf_in_b_position_two(self, rng):
        a, b = _poisoned(rng, where="b", value=np.inf)
        with exception_policy(nonfinite="check"):
            with pytest.raises(NonFiniteInput) as e:
                la_gesv(a, b)
        assert e.value.info == NONFINITE - 2

    def test_info_handle_records_instead_of_raising(self, rng):
        a, b = _poisoned(rng, where="a")
        info = Info()
        with exception_policy(nonfinite="check"):
            la_gesv(a, b, info=info)
        assert info.value == NONFINITE - 1

    def test_gtsv_positions_follow_argument_order(self, rng):
        n = 5
        dl = np.ones(n - 1)
        d = np.full(n, 4.0)
        du = np.ones(n - 1)
        du[0] = np.nan
        b = np.ones(n)
        with exception_policy(nonfinite="check"):
            with pytest.raises(NonFiniteInput) as e:
                la_gtsv(dl, d, du, b)
        assert e.value.position == 3

    def test_expert_driver_screens_too(self, rng):
        a, b = _poisoned(rng, where="a")
        with exception_policy(nonfinite="check"):
            with pytest.raises(NonFiniteInput):
                la_gesvx(a, b)

    def test_clean_inputs_unaffected(self, rng):
        n = 6
        a0 = well_conditioned(rng, n, np.float64)
        x_true = np.linspace(1, 2, n)
        b = a0 @ x_true
        with exception_policy(nonfinite="check"):
            la_gesv(a0.copy(), b)
        np.testing.assert_allclose(b, x_true, rtol=1e-10)


class TestWarnMode:
    def test_warns_and_proceeds(self, rng):
        a, b = _poisoned(rng, where="a")
        with exception_policy(nonfinite="warn"):
            with pytest.warns(NonFiniteWarning):
                la_gesv(a, b)
        # The computation ran: the poison propagated into the solution.
        assert not np.all(np.isfinite(b))

    def test_no_warning_for_clean_input(self, rng):
        a = well_conditioned(rng, 4, np.float64)
        b = np.ones(4)
        with exception_policy(nonfinite="warn"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", NonFiniteWarning)
                la_gesv(a, b)


class TestPropagateMode:
    def test_nan_flows_through_gesv(self, rng):
        a, b = _poisoned(rng, where="a")
        la_gesv(a, b)  # no raise, no warning
        assert not np.all(np.isfinite(b))

    def test_infinite_cholesky_pivot_propagates(self):
        # Reference xPOTF2 tests AJJ <= 0 .OR. DISNAN(AJJ): an infinite
        # pivot is NOT "not positive definite" — it propagates.  The old
        # ad-hoc `isfinite` check mislabelled this case.
        a = np.diag([np.inf, 1.0])
        b = np.ones(2)
        la_posv(a, b)  # must not raise
        assert b[0] == 0.0  # 1/inf

    def test_nan_cholesky_pivot_still_fails(self):
        a = np.diag([np.nan, 1.0])
        with pytest.raises(NotPositiveDefinite) as e:
            la_posv(a, np.ones(2))
        assert e.value.info == 1

    def test_nrm2_returns_nonfinite_unchanged(self):
        from repro.blas import nrm2
        assert np.isinf(nrm2(np.array([1.0, np.inf])))
        assert np.isnan(nrm2(np.array([1.0, np.nan])))


class TestRcondGuard:
    def _illconditioned(self):
        return np.diag([1.0, 1.0, 1.0, 1e-18])

    def test_silent_default_sets_info_only(self):
        a = self._illconditioned()
        info = Info()
        with warnings.catch_warnings():
            warnings.simplefilter("error", IllConditionedWarning)
            res = la_gesvx(a, np.ones(4), info=info)
        assert info.value == 5  # n + 1
        assert res.rcond < np.finfo(np.float64).eps

    def test_warn_mode_announces(self):
        a = self._illconditioned()
        info = Info()
        with exception_policy(rcond_guard="warn"):
            with pytest.warns(IllConditionedWarning):
                la_gesvx(a, np.ones(4), info=info)
        assert info.value == 5

    def test_warn_mode_spd_family(self):
        a = np.diag([1.0, 1.0, 1e-18])
        info = Info()
        with exception_policy(rcond_guard="warn"):
            with pytest.warns(IllConditionedWarning):
                la_posvx(a, np.ones(3), info=info)
        assert info.value == 4


class TestScreeningAcrossFamilies:
    """Check-mode coverage for the remaining acceptance families."""

    def test_posv(self, rng):
        a = spd_matrix(rng, 4, np.float64)
        a[0, 0] = np.nan
        with exception_policy(nonfinite="check"):
            with pytest.raises(NonFiniteInput):
                la_posv(a, np.ones(4))

    def test_gbsv(self):
        n, kl, ku = 5, 1, 1
        ab = np.zeros((2 * kl + ku + 1, n))
        ab[kl + ku, :] = 4.0
        ab[kl + ku - 1, 1:] = 1.0
        ab[kl + ku + 1, :-1] = np.nan
        with exception_policy(nonfinite="check"):
            with pytest.raises(NonFiniteInput) as e:
                la_gbsv(ab, np.ones(n), kl=kl)
        assert e.value.position == 1

    def test_gels(self, rng):
        a = well_conditioned(rng, 5, np.float64)[:, :3].copy()
        a[2, 1] = np.inf
        with exception_policy(nonfinite="check"):
            with pytest.raises(NonFiniteInput):
                la_gels(a, np.ones(5))

    def test_syev(self, rng):
        a = spd_matrix(rng, 4, np.float64)
        a[1, 1] = np.nan
        with exception_policy(nonfinite="check"):
            with pytest.raises(NonFiniteInput):
                la_syev(a)

    def test_gesvd(self, rng):
        a = well_conditioned(rng, 4, np.float64)
        a[3, 0] = -np.inf
        with exception_policy(nonfinite="check"):
            with pytest.raises(NonFiniteInput):
                la_gesvd(a)


class TestWarningLocation:
    """A policy warning names the caller's line, not a library frame:
    the driver shell's compiled frame, an expert driver's helper or the
    batch wrapper's own frames sit between the warning and the call."""

    def _caught(self, call, category):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        hits = [w for w in caught if issubclass(w.category, category)]
        assert hits, f"no {category.__name__} raised"
        return hits

    def test_nonfinite_warning_names_the_scalar_caller(self, rng):
        a, b = _poisoned(rng)
        with exception_policy(nonfinite="warn"):
            hits = self._caught(lambda: la_gesv(a, b, info=Info()),
                                NonFiniteWarning)
        assert hits[0].filename == __file__

    def test_nonfinite_warning_names_the_batch_caller(self, rng):
        from repro.batch import BatchInfo, batch_gesv
        from repro.batch.report import reset_batch_announcements
        reset_batch_announcements()
        a, b = _poisoned(rng)
        with exception_policy(nonfinite="warn"):
            hits = self._caught(
                lambda: batch_gesv(a[None].copy(), b[None].copy(),
                                   info=BatchInfo()),
                NonFiniteWarning)
        assert hits[0].filename == __file__

    def test_warnings_name_the_caller_through_a_backend_pin(self, rng):
        """``backend=`` runs the wrapper a second time inside the first,
        one more library frame to skip."""
        from repro.batch import BatchInfo, batch_gesv, batch_posv
        from repro.batch.report import reset_batch_announcements
        from repro.errors import DriverFallbackWarning
        reset_batch_announcements()
        a, b = _poisoned(rng)
        ind = np.diag([1.0, -1.0, 2.0, 3.0])
        with exception_policy(nonfinite="warn"):
            hits = self._caught(
                lambda: la_gesv(a.copy(), b.copy(), info=Info(),
                                backend="reference"), NonFiniteWarning)
            hits += self._caught(
                lambda: batch_gesv(a[None].copy(), b[None].copy(),
                                   info=BatchInfo(), backend="reference"),
                NonFiniteWarning)
        with exception_policy(fallbacks=True):
            hits += self._caught(
                lambda: la_posv(ind.copy(), np.ones(4), info=Info(),
                                backend="reference"),
                DriverFallbackWarning)
            hits += self._caught(
                lambda: batch_posv(ind[None].copy(), np.ones((1, 4)),
                                   info=BatchInfo(), backend="reference"),
                DriverFallbackWarning)
        assert [w.filename for w in hits] == [__file__] * len(hits)

    @pytest.mark.parametrize("driver", ["la_gesvx", "la_sysvx"])
    def test_illconditioned_warning_names_the_caller(self, driver):
        import repro.core
        a = np.diag([1.0, 1.0, 1.0, 1e-18])
        call = getattr(repro.core, driver)
        with exception_policy(rcond_guard="warn"):
            hits = self._caught(
                lambda: call(a.copy(), np.ones(4), info=Info()),
                IllConditionedWarning)
        assert hits[0].filename == __file__
