"""The ERINFO protocol (paper Section 4 and Appendix D), plus the
Section 6 test-program machinery."""

import numpy as np
import pytest

from repro import (ComputationalError, IllegalArgument, Info, LinAlgError,
                   NonFiniteInput, SingularMatrix, la_gesv)
from repro.errors import (ALLOC_FAILED, DEADLINE, NONFINITE, WORK_REDUCED,
                          WorkspaceError, erinfo, is_error_code)
from repro.testing import (GesvTestProgram, residual_ratio,
                           run_gesv_error_exits)
from repro.testing.ratios import (lu_reconstruction_ratio,
                                  orthogonality_ratio)


CODES = [0, 1, -1, -99, -100, -200, -201, -999, NONFINITE, DEADLINE]


def test_is_error_code_is_one_predicate_for_scalars_and_arrays():
    scalar = [is_error_code(c) for c in CODES]
    assert scalar == [False, True, True, True, True, False, False, False,
                      True, True]
    assert all(type(v) is bool for v in scalar)
    vector = is_error_code(np.array(CODES, dtype=np.int64))
    assert vector.dtype == bool and vector.tolist() == scalar
    assert [is_error_code(c) for c in np.array(CODES)] == scalar


class TestErinfo:
    def test_success_sets_zero(self):
        info = Info(99)
        erinfo(0, "LA_TEST", info)
        assert info.value == 0

    def test_error_without_info_raises(self):
        with pytest.raises(ComputationalError):
            erinfo(3, "LA_TEST")
        with pytest.raises(IllegalArgument):
            erinfo(-2, "LA_TEST")

    def test_error_with_info_records(self):
        info = Info()
        erinfo(3, "LA_TEST", info)
        assert info.value == 3
        erinfo(-2, "LA_TEST", info)
        assert info.value == -2

    def test_allocation_failure_code(self):
        with pytest.raises(WorkspaceError):
            erinfo(ALLOC_FAILED, "LA_TEST")

    def test_warning_code_never_raises(self):
        # The paper's ERINFO: LINFO <= -200 is a warning, stored only.
        info = Info()
        erinfo(WORK_REDUCED, "LA_TEST", info)
        assert info.value == WORK_REDUCED
        erinfo(WORK_REDUCED, "LA_TEST")  # no raise even without info

    def test_warning_band_interior_never_raises(self):
        # Regression: the docstring and code must agree that every code
        # in -200 >= linfo > -1000 is warning-class.  -300 once fell in a
        # gap between the documented rule and the is_error test.
        info = Info(123)
        erinfo(-300, "LA_TEST", info)
        assert info.value == -300
        erinfo(-300, "LA_TEST")  # stored-only: no raise without info
        erinfo(-999, "LA_TEST")

    def test_nonfinite_class_is_error(self):
        # NONFINITE - i sits below the warning band and must raise.
        with pytest.raises(NonFiniteInput) as e:
            erinfo(NONFINITE - 1, "LA_TEST")
        assert e.value.info == NONFINITE - 1
        assert e.value.position == 1
        info = Info()
        erinfo(NONFINITE - 2, "LA_TEST", info)
        assert info.value == NONFINITE - 2

    def test_specific_exception_passthrough(self):
        exc = SingularMatrix("LA_GESV", 4)
        with pytest.raises(SingularMatrix) as e:
            erinfo(4, "LA_GESV", exc=exc)
        assert e.value.info == 4

    def test_exception_carries_routine_name(self):
        try:
            la_gesv(np.ones((3, 3)), np.ones(3))
        except LinAlgError as e:
            assert e.srname == "LA_GESV"
            assert e.info > 0
        else:
            pytest.fail("expected SingularMatrix")


class TestInfoObject:
    def test_truthiness(self):
        assert not Info(0)
        assert Info(2)
        assert Info(-1)

    def test_int_conversion_and_equality(self):
        i = Info(5)
        assert int(i) == 5
        assert i == 5
        assert i == Info(5)
        assert i != 4

    def test_hashable_consistent_with_eq(self):
        # Regression: defining __eq__ without __hash__ silently made
        # Info unhashable; equal handles must hash equally.
        assert hash(Info(3)) == hash(Info(3))
        assert Info(3) in {Info(3), Info(4)}
        assert len({Info(0), Info(0), Info(2)}) == 2

    def test_fallback_fields_default_clear(self):
        i = Info(0)
        assert i.fallback is None
        assert i.rcond is None
        assert repr(Info(2)) == "Info(2)"
        j = Info(0)
        j.fallback = "LA_SYSV"
        assert "LA_SYSV" in repr(j)

    def test_repr_shows_fallback_and_rcond(self):
        j = Info(0)
        j.fallback = "LA_SYSV"
        j.rcond = 0.25
        assert repr(j) == "Info(0, fallback='LA_SYSV', rcond=0.25)"
        k = Info(3)
        k.rcond = 0.5
        assert repr(k) == "Info(3, rcond=0.5)"


class TestErrorExits:
    def test_all_nine_pass(self):
        ran, passed = run_gesv_error_exits()
        assert ran == 9
        assert passed == 9


class TestHarness:
    def test_report_matches_appendix_f_shape(self):
        rep = GesvTestProgram(threshold=10.0, sizes=(20, 40, 60)).run()
        text = rep.format()
        assert "SGESV Test Example Program Results." in text
        assert "Threshold value of test ratio = 10.00" in text
        assert "the machine eps = 1.19209E-07" in text
        assert "3 matrices were tested with 4 tests. NRHS was 50 and one." \
            in text
        assert "The biggest tested matrix was 60 x 60" in text
        assert "12 tests passed." in text
        assert "0 tests failed." in text
        assert "9 error exits tests were ran" in text
        assert "9 tests passed." in text

    def test_partial_failure_report(self):
        # A threshold below the hardest case's ratio reproduces the
        # "Test Partly Fails" outcome shape: failures concentrate on the
        # largest matrix.
        rep = GesvTestProgram(threshold=10.0).run()
        worst = max(c.ratio for c in rep.cases)
        tight = GesvTestProgram(threshold=worst * 0.999).run()
        assert tight.failed >= 1
        failing = [c for c in tight.cases if not c.passed]
        assert all(c.n == max(tight.cases, key=lambda q: q.n).n
                   for c in failing)
        text = tight.format()
        assert "Failed." in text
        assert "ratio = || B - AX || / ( || A ||*|| X ||*eps )" in text

    def test_ratio_scales_like_backward_error(self):
        rng = np.random.default_rng(0)
        n = 30
        a = rng.standard_normal((n, n)) + np.eye(n) * n
        x = rng.standard_normal((n, 2))
        b = a @ x
        # Exact solution: tiny ratio.
        assert residual_ratio(a, x, b) < 1.0
        # Perturbed solution: ratio grows accordingly.
        assert residual_ratio(a, x + 1e-3, b) > 1e8


def test_lu_reconstruction_ratio(rng):
    from repro.lapack77 import getrf
    n = 12
    a0 = rng.standard_normal((n, n))
    a = a0.copy()
    ipiv, _ = getrf(a)
    assert lu_reconstruction_ratio(a0, a, ipiv) < 10


def test_orthogonality_ratio(rng):
    from repro.lapack77 import laror
    q = laror(10, rng=rng)
    assert orthogonality_ratio(q) < 10
    assert orthogonality_ratio(q * 1.5) > 1e10


@pytest.fixture
def rng():
    return np.random.default_rng(11)
