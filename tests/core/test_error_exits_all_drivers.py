"""Error-exit sweep across the whole linear-equation catalogue — the
Section 6 methodology generalized beyond LA_GESV: every driver reports
a negative code through info= and raises IllegalArgument without it.

A refused call returns ``None`` and leaves its operands as passed,
pinned for all 77 drivers and every ``batch_*`` wrapper at the end.

Expected codes come from :data:`repro.testing.ERROR_EXIT_CODES`, the
(driver, argument, code) table derived from the driver specs; the
driver shell checks each spec against its body's signature when it
decorates it, so the codes name the arguments the drivers really take.
"""

import numpy as np
import pytest

from repro import (Info, IllegalArgument, la_gbsv, la_gels, la_gesv,
                   la_gtsv, la_hbevx, la_heev, la_heevx, la_hesv,
                   la_hpevx, la_pbsv, la_posv, la_ppsv, la_ptsv, la_sbevx,
                   la_spevx, la_spsv, la_stevx, la_syev, la_syevx, la_sysv,
                   la_sygv)
from repro import batch, core
from repro.batch.generator import batchable_specs
from repro.errors import ALLOC_FAILED
from repro.specs import SPECS
from repro.testing import ERROR_EXIT_CODES
from repro.testing import faultinject as fi

from .driver_calls import COMPLEX, first_operand, well_formed_call


def _code(driver, arg):
    return ERROR_EXIT_CODES[driver][arg]


# (description, call, driver, flagged argument)
CASES = [
    ("gesv: A not square",
     lambda: la_gesv(np.ones((2, 3)), np.ones(2)), "la_gesv", "a"),
    ("gesv: B row mismatch",
     lambda: la_gesv(np.eye(3), np.ones(4)), "la_gesv", "b"),
    ("gesv: ipiv wrong length",
     lambda: la_gesv(np.eye(3), np.ones(3), ipiv=np.zeros(2, np.int64)),
     "la_gesv", "ipiv"),
    ("gbsv: ab not 2-D",
     lambda: la_gbsv(np.ones(4), np.ones(4)), "la_gbsv", "ab"),
    ("gbsv: b mismatch",
     lambda: la_gbsv(np.ones((4, 5)), np.ones(3), kl=1), "la_gbsv", "b"),
    ("gtsv: dl wrong length",
     lambda: la_gtsv(np.ones(3), np.ones(3), np.ones(2), np.ones(3)),
     "la_gtsv", "dl"),
    ("gtsv: du wrong length",
     lambda: la_gtsv(np.ones(2), np.ones(3), np.ones(3), np.ones(3)),
     "la_gtsv", "du"),
    ("gtsv: b mismatch",
     lambda: la_gtsv(np.ones(2), np.ones(3), np.ones(2), np.ones(4)),
     "la_gtsv", "b"),
    ("posv: bad uplo",
     lambda: la_posv(np.eye(3), np.ones(3), uplo="X"), "la_posv", "uplo"),
    ("posv: A not square",
     lambda: la_posv(np.ones((3, 2)), np.ones(3)), "la_posv", "a"),
    ("ppsv: packed length wrong",
     lambda: la_ppsv(np.ones(5), np.ones(3)), "la_ppsv", "ap"),
    ("ppsv: bad uplo",
     lambda: la_ppsv(np.ones(6), np.ones(3), uplo="Q"), "la_ppsv", "uplo"),
    ("pbsv: ab not 2-D",
     lambda: la_pbsv(np.ones(3), np.ones(3)), "la_pbsv", "ab"),
    ("pbsv: b mismatch",
     lambda: la_pbsv(np.ones((2, 5)), np.ones(4)), "la_pbsv", "b"),
    ("ptsv: e wrong length",
     lambda: la_ptsv(np.ones(4), np.ones(4), np.ones(4)), "la_ptsv", "e"),
    ("ptsv: b mismatch",
     lambda: la_ptsv(np.ones(4), np.ones(3), np.ones(5)), "la_ptsv", "b"),
    ("sysv: bad uplo",
     lambda: la_sysv(np.eye(3), np.ones(3), uplo="Z"), "la_sysv", "uplo"),
    ("sysv: ipiv wrong",
     lambda: la_sysv(np.eye(3), np.ones(3), ipiv=np.zeros(9, np.int64)),
     "la_sysv", "ipiv"),
    ("hesv: A not square",
     lambda: la_hesv(np.ones((2, 3), complex), np.ones(2, complex)),
     "la_hesv", "a"),
    ("spsv: packed length",
     lambda: la_spsv(np.ones(4), np.ones(3)), "la_spsv", "ap"),
    ("syev: bad jobz",
     lambda: la_syev(np.eye(3) * 1.0, jobz="Q"), "la_syev", "jobz"),
    ("syev: bad uplo",
     lambda: la_syev(np.eye(3) * 1.0, uplo="Q"), "la_syev", "uplo"),
    ("syev: w wrong length",
     lambda: la_syev(np.eye(3) * 1.0, w=np.zeros(2)), "la_syev", "w"),
    ("heev: A not square",
     lambda: la_heev(np.ones((2, 3), complex)), "la_heev", "a"),
    ("sygv: bad itype",
     lambda: la_sygv(np.eye(3), np.eye(3), itype=4), "la_sygv", "itype"),
    ("gels: bad trans",
     lambda: la_gels(np.ones((4, 2)), np.ones(4), trans="Q"),
     "la_gels", "trans"),
    # A 0-d d derives no order: the order check reports it.
    ("gtsv: 0-d d",
     lambda: la_gtsv(np.ones(0), np.array(1.0), np.ones(0), np.ones(1)),
     "la_gtsv", "d"),
    ("ptsv: 0-d d",
     lambda: la_ptsv(np.array(1.0), np.ones(0), np.ones(1)),
     "la_ptsv", "d"),
]


#: The selected-eigenvalue drivers: ``vl`` is argument 5 of each.
EVX = (
    lambda vl, vu: la_syevx(np.eye(3), vl=vl, vu=vu),
    lambda vl, vu: la_heevx(np.eye(3, dtype=complex), vl=vl, vu=vu),
    lambda vl, vu: la_spevx(np.ones(6), vl=vl, vu=vu),
    lambda vl, vu: la_hpevx(np.ones(6, complex), vl=vl, vu=vu),
    lambda vl, vu: la_sbevx(np.ones((2, 3)), vl=vl, vu=vu),
    lambda vl, vu: la_hbevx(np.ones((2, 3), complex), vl=vl, vu=vu),
    lambda vl, vu: la_stevx(np.ones(3), np.ones(2), vl=vl, vu=vu),
)


@pytest.mark.parametrize("call", EVX,
                         ids=["syevx", "heevx", "spevx", "hpevx", "sbevx",
                              "hbevx", "stevx"])
@pytest.mark.parametrize("vl,vu", [(np.array([0.0, 1.0]), 2.0),
                                   (0.0, np.array([1.0, 2.0])),
                                   (2.0, 1.0)])
def test_evx_value_range_error_exit(call, vl, vu):
    """An array-valued bound is reported like an inverted range."""
    with pytest.raises(IllegalArgument) as e:
        call(vl, vu)
    assert e.value.info == -5


@pytest.mark.parametrize("desc,call,driver,arg",
                         CASES, ids=[c[0] for c in CASES])
def test_error_exit_raises(desc, call, driver, arg):
    with pytest.raises(IllegalArgument) as e:
        call()
    assert e.value.info == _code(driver, arg)


def test_info_records_for_each_family():
    """Representative info= path per driver family."""
    info = Info()
    la_gesv(np.ones((2, 3)), np.ones(2), info=info)
    assert info == _code("la_gesv", "a")
    la_gbsv(np.ones(4), np.ones(4), info=info)
    assert info == _code("la_gbsv", "ab")
    la_gtsv(np.ones(3), np.ones(3), np.ones(2), np.ones(3), info=info)
    assert info == _code("la_gtsv", "dl")
    la_posv(np.eye(3), np.ones(3), uplo="X", info=info)
    assert info == _code("la_posv", "uplo")
    la_ppsv(np.ones(5), np.ones(3), info=info)
    assert info == _code("la_ppsv", "ap")
    la_pbsv(np.ones(3), np.ones(3), info=info)
    assert info == _code("la_pbsv", "ab")
    la_ptsv(np.ones(4), np.ones(4), np.ones(4), info=info)
    assert info == _code("la_ptsv", "e")
    la_sysv(np.eye(3), np.ones(3), uplo="Z", info=info)
    assert info == _code("la_sysv", "uplo")
    la_spsv(np.ones(4), np.ones(3), info=info)
    assert info == _code("la_spsv", "ap")
    la_syev(np.eye(3) * 1.0, jobz="Q", info=info)
    assert info == _code("la_syev", "jobz")
    la_sygv(np.eye(3), np.eye(3), itype=9, info=info)
    assert info == _code("la_sygv", "itype")


# -- the refused-call contract, over the whole catalogue ---------------
# A refused call returns None, stores its code on ``info`` and leaves
# every operand byte-for-byte as passed (``ERINFO``: INFO is set and
# control returns); without ``info=`` it raises.

def _refusable(name, stack=None):
    """A well-formed call of *name* (a stack of ``stack`` problems when
    given) whose first required operand is made 0-d, which every
    spec's validator refuses.  (A 3-D ``d`` is not refused by the
    tridiagonal eigen drivers, whose order is ``d.shape[0]``.)"""
    dtype = np.complex128 if name in COMPLEX else np.float64
    args, kwargs = well_formed_call(name, 3, dtype)
    spec = SPECS[name]
    stacked = {a.position - 1 for a in spec.args
               if stack and a.name in spec.batch_stacked}
    args = [np.stack([x] * stack) if i in stacked else x
            for i, x in enumerate(args)]
    first = first_operand(name).position - 1
    args[first] = np.array(args[first].ravel()[0])
    return args, kwargs


def _assert_refused(call, args, kwargs):
    arrays = [x for x in [*args, *kwargs.values()]
              if isinstance(x, np.ndarray)]
    before = [(x.dtype, x.shape, x.tobytes()) for x in arrays]
    info = Info()
    assert call(*args, **kwargs, info=info) is None
    assert info.value < 0
    assert [(x.dtype, x.shape, x.tobytes()) for x in arrays] == before
    with pytest.raises(IllegalArgument):
        call(*args, **kwargs)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_a_refused_call_returns_none_and_leaves_its_operands(name):
    _assert_refused(getattr(core, name), *_refusable(name))


@pytest.mark.parametrize("name", sorted(s.name for s in batchable_specs()))
def test_a_refused_batch_call_returns_none_and_leaves_its_operands(name):
    _assert_refused(getattr(batch, "batch_" + name[3:]),
                    *_refusable(name, stack=2))


@pytest.mark.parametrize("name,call,stack", [
    ("la_gesv", la_gesv, None), ("batch_gesv", batch.batch_gesv, 2)],
    ids=["la_gesv", "batch_gesv"])
def test_an_allocation_fault_returns_none_and_leaves_its_operands(
        name, call, stack):
    args, _ = well_formed_call("la_gesv", 3, np.float64)
    if stack:
        args = [np.stack([x] * stack) for x in args]
    before = [x.tobytes() for x in args]
    info = Info()
    with fi.injected(name, alloc=True):
        assert call(*args, info=info) is None
    assert info.value == ALLOC_FAILED
    assert [x.tobytes() for x in args] == before
