"""Front-door behavior beyond bit-identity: the explain plan, pinned
assumptions, stacked routing through the ``batch_*`` wrappers, the
non-mutation contract, and the Info/BatchInfo telemetry."""

import numpy as np
import pytest

from repro import (Explanation, batch, eig, la_posv, lstsq, solve)
from repro.batch import BatchInfo
from repro.dispatch_front import cache
from repro.errors import Info
from repro.specs.routing import route


@pytest.fixture(autouse=True)
def _fresh_cache():
    cache.clear()
    cache.reset_stats()
    yield
    cache.clear()


def _spd(n, seed=0):
    g = np.random.default_rng(seed).standard_normal((n, n))
    a = g @ g.T + n * np.eye(n)
    return (a + a.T) / 2


def _sym_indefinite(n, seed=0):
    g = np.random.default_rng(seed).standard_normal((n, n))
    a = g + g.T
    np.fill_diagonal(a, a.diagonal() - 5.0 * n)
    return a


def test_explain_returns_the_plan_without_executing():
    a = _spd(6)
    b = np.ones(6)
    plan = solve(a, b, explain=True)
    assert isinstance(plan, Explanation)
    assert plan.kind == "solve"
    assert plan.structure == "spd"
    assert plan.chosen_driver == "la_posv"
    # The refinement ladder, most specific first.
    assert plan.candidates == ("la_posv", "la_sysv", "la_gesv")
    assert plan.chosen_driver == route("solve", "spd", False).name
    assert not plan.batch
    assert plan.probe_cost > 0.0
    # explain never executes, so it caches nothing: only a successful
    # la_posv stores an entry, and then a plan reads it.
    plan2 = solve(a, b, explain=True)
    assert not plan2.cached and plan2.probe_cost > 0.0
    assert cache.stats()["entries"] == 0
    solve(a, b)
    plan3 = solve(a, b, explain=True)
    assert plan3.cached and plan3.probe_cost == 0.0
    assert cache.stats()["entries"] == 1


def test_explain_matches_execution_choice():
    a = _sym_indefinite(7, seed=1)
    b = a @ np.ones(7)
    plan = solve(a, b, explain=True)
    info = Info()
    solve(a, b, info=info)
    assert plan.chosen_driver == info.chosen_driver == "la_sysv"


def test_assume_pins_the_route_and_skips_probing():
    a = _spd(5, seed=2)
    b = a @ np.ones(5)
    info = Info()
    x = solve(a, b, assume="spd", info=info)
    assert info.chosen_driver == "la_posv"
    assert info.probe_cost == 0.0
    assert cache.stats()["entries"] == 0      # assumption bypasses cache
    want = b.copy()
    la_posv(a.copy(), want, uplo="U")
    np.testing.assert_array_equal(x, want)


def test_wrong_assumption_fails_like_the_driver():
    a = _sym_indefinite(5, seed=3)
    b = a @ np.ones(5)
    winfo = Info()
    with np.errstate(invalid="ignore"):
        la_posv(a.copy(), b.copy(), info=winfo)
        info = Info()
        solve(a, b, assume="spd", info=info)
    assert int(winfo) > 0
    assert int(info) == int(winfo)


def test_assume_rejects_unknown_labels():
    with pytest.raises(ValueError, match="not a structure label"):
        solve(np.eye(2), np.ones(2), assume="sparse")


def test_solve_never_mutates_its_operands():
    a = _spd(6, seed=4)
    b = a @ np.arange(1.0, 7.0)
    a0, b0 = a.copy(), b.copy()
    solve(a, b)
    solve(a, b)                   # cached potrs path
    np.testing.assert_array_equal(a, a0)
    np.testing.assert_array_equal(b, b0)


def test_complex_matrix_real_rhs_promotes_a_fresh_copy():
    g = np.random.default_rng(5).standard_normal((4, 4))
    a = g + 1j * np.eye(4)
    a = a + a.conj().T
    b = np.ones(4)                # real: the driver could not overwrite
    x = solve(a, b)
    assert np.iscomplexobj(x)
    assert b.dtype == np.float64  # untouched


def test_stacked_spd_routes_to_batch_posv():
    a = np.stack([_spd(4, seed=s) for s in (6, 7, 8)])
    b = np.einsum("kij,j->ki", a, np.ones(4))
    plan = solve(a, b, explain=True)
    assert plan.batch
    assert plan.chosen_driver == "la_posv"
    binfo = BatchInfo()
    x = solve(a, b, info=binfo)
    want = batch.batch_posv(a.copy(), b.copy(), uplo="U")
    np.testing.assert_array_equal(x, want)
    assert binfo.first_failure == -1      # every problem succeeded
    assert binfo.structure == "spd"
    assert binfo.chosen_driver == "la_posv"


def test_stacked_general_routes_to_batch_gesv():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 5, 5)) + 5 * np.eye(5)
    b = np.einsum("kij,j->ki", a, np.ones(5))
    info = BatchInfo()
    x = solve(a, b, info=info)
    want = batch.batch_gesv(a.copy(), b.copy())
    np.testing.assert_array_equal(x, want)
    assert info.chosen_driver == "la_gesv"


def test_stacked_eig_symmetric_uses_batch_syev():
    rng = np.random.default_rng(10)
    g = rng.standard_normal((3, 4, 4))
    a = g + g.transpose(0, 2, 1) - 8 * np.eye(4)
    plan = eig(a, explain=True)
    assert plan.batch and plan.chosen_driver == "la_syev"
    w, v = eig(a, vectors=True)
    want = batch.batch_syev(a.copy(), jobz="V")
    np.testing.assert_array_equal(w, want)
    for k in range(3):
        resid = np.linalg.norm(a[k] @ v[k] - v[k] * w[k])
        assert resid < 1e-10 * max(1.0, np.abs(w[k]).max())


def test_stacked_eig_general_loops_with_batch_codes():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 3, 3))
    binfo = BatchInfo()
    w = eig(a, info=binfo)
    assert w.shape == (4, 3)
    assert np.iscomplexobj(w)
    assert binfo.codes() == (0, 0, 0, 0)
    assert binfo.first_failure == -1
    assert binfo.chosen_driver == "la_geev"


def test_lstsq_explain_names_the_qr_route():
    a = np.random.default_rng(12).standard_normal((8, 5))
    plan = lstsq(a, np.ones(8), explain=True)
    assert plan.kind == "lstsq"
    assert plan.chosen_driver == "la_gels"
    assert plan.structure == "general"


def test_eig_banded_symmetric_still_routes_symmetric():
    """The eig verb refines on the symmetry flags, not the band label:
    a symmetric tridiagonal operand solves via la_gtsv but its
    eigenproblem belongs to la_syev."""
    n = 8
    d = np.arange(1.0, n + 1)
    e = np.ones(n - 1)
    a = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    splan = solve(a, np.ones(n), explain=True)
    assert splan.chosen_driver == "la_gtsv"
    eplan = eig(a, explain=True)
    assert eplan.chosen_driver == "la_syev"
