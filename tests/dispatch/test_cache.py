"""The exact factor cache: probe-once semantics for SPD operands,
bitwise revalidation on mutation (no edit, however small, returns a
stale answer), one factorization per cold SPD solve, FIFO bounding, and
backend invalidation (a factor computed by another substrate must never
be reused, and a call pinned to another backend must not drop it)."""

import numpy as np
import pytest

from repro import (backends, faults, invalidate_structure_cache, la_gesv,
                   la_posv, solve, structure_cache_stats, use_backend)
from repro.backends import kernels
from repro.dispatch_front import cache
from repro.dispatch_front.probe import probe
from repro.errors import Info
from repro.testing import faultinject as fi


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


def test_repeat_solve_probes_once():
    a = _spd(6)
    b = a @ np.arange(1.0, 7.0)
    solve(a, b)
    solve(a, b)
    stats = structure_cache_stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 1
    assert stats["entries"] == 1


def test_cache_hit_reports_zero_probe_cost():
    from repro.errors import Info
    a = _spd(5, seed=1)
    b = a @ np.ones(5)
    first, second = Info(), Info()
    solve(a, b, info=first)
    solve(a, b, info=second)
    assert first.probe_cost > 0.0
    assert second.probe_cost == 0.0
    assert first.structure == second.structure == "spd"


def test_mutation_is_detected_and_reclassified():
    a = _spd(4, seed=2)
    b = a @ np.ones(4)
    solve(a, b)
    assert structure_cache_stats()["entries"] == 1
    a[0, 1] += 1.0                # break symmetry in place
    st = cache.lookup(a)
    assert st is None             # changed bits evict the entry
    assert structure_cache_stats()["invalidated"] >= 1
    from repro.errors import Info
    info = Info()
    solve(a, a @ np.ones(4), info=info)
    assert info.chosen_driver == "la_gesv"


def test_store_is_fifo_bounded():
    keep = []                     # hold references so ids stay unique
    for k in range(cache.MAX_ENTRIES + 8):
        a = np.diag(np.full(2, float(k + 1)))
        keep.append(a)
        cache.store(a, probe(a), cache.snapshot(a))
    assert structure_cache_stats()["entries"] == cache.MAX_ENTRIES
    # The oldest entries were evicted, the newest survive.
    assert cache.lookup(keep[0]) is None
    assert cache.lookup(keep[-1]) is not None


def test_invalidate_one_array_and_all():
    a, b = _spd(3, seed=3), _spd(3, seed=4)
    cache.store(a, probe(a), cache.snapshot(a))
    cache.store(b, probe(b), cache.snapshot(b))
    assert invalidate_structure_cache(a) == 1
    assert structure_cache_stats()["entries"] == 1
    assert invalidate_structure_cache() == 1
    assert structure_cache_stats()["entries"] == 0


def _other_backend():
    names = backends.available_backends()
    if len(names) < 2:
        pytest.skip("only one backend registered")
    return [n for n in names if n != backends.get_backend_name()][0]


def test_backend_switch_makes_cached_entries_stale():
    other = _other_backend()
    a = _spd(5, seed=5)
    cache.store(a, probe(a), cache.snapshot(a))
    previous = backends.set_backend(other)
    try:
        # The entry names the backend it was stored under: a lookup
        # under another one is stale and drops it, like an edit.
        assert cache.lookup(a) is None
        stats = structure_cache_stats()
        assert stats["entries"] == 0 and stats["invalidated"] == 1
    finally:
        backends.set_backend(previous)


def test_use_backend_round_trip_also_invalidates():
    other = _other_backend()
    a = _spd(5, seed=6)
    cache.store(a, probe(a), cache.snapshot(a))
    with backends.use_backend(other):
        assert cache.lookup(a) is None
        assert structure_cache_stats()["entries"] == 0
        solve(a, a @ np.ones(5))        # cached under ``other``
        assert structure_cache_stats()["entries"] == 1
    # Back on the original backend, the factor ``other`` computed is
    # stale too: the next lookup refactors instead of reusing it.
    assert cache.lookup(a) is None
    assert structure_cache_stats()["entries"] == 0


def _seam_routines(monkeypatch):
    """The routines every kernel call through the dispatch seam names,
    in call order."""
    routines = []
    real_call = kernels.KernelProxy.__call__

    def counting(self, *args, **kwargs):
        routines.append(self.routine)
        return real_call(self, *args, **kwargs)

    monkeypatch.setattr(kernels.KernelProxy, "__call__", counting)
    return routines


def test_pinned_call_keeps_the_factor_and_a_switch_drops_it(monkeypatch):
    """A per-call ``backend=`` on an unrelated operand switches nothing:
    the cached SPD factor stays, and the next solve only substitutes.
    After a process switch the factor is stale: the next solve runs
    ``posv`` on the new backend, and its bytes equal a direct
    ``la_posv`` there."""
    other = _other_backend()
    a = _spd(12, seed=19)
    b = a @ np.linspace(1.0, 2.0, 12)
    solve(a, b)
    routines = _seam_routines(monkeypatch)
    la_gesv(np.eye(3) * 2, np.ones(3), backend=other)
    assert structure_cache_stats()["entries"] == 1
    del routines[:]
    solve(a, b)
    assert routines == ["potrs"]
    assert structure_cache_stats()["hits"] == 1
    del routines[:]
    previous = backends.set_backend(other)
    try:
        x = solve(a, b)
        assert routines == ["posv"]
        want = la_posv(a.copy(), b.copy(), uplo="U")
    finally:
        backends.set_backend(previous)
    assert x.tobytes() == want.tobytes()


# -- in-place edits between solves: the second answer must be the one
# the routed driver gives for the edited operand, bit for bit ---------

def _solve_edit_solve(a, edit):
    b = a @ np.linspace(1.0, 2.0, a.shape[0])
    solve(a, b)
    edit(a)
    info = Info()
    x = solve(a, b, info=info)
    return x, b, info


def test_off_triangle_edit_is_not_answered_from_the_stale_factor():
    # n=100, then A[3, 7] += 50: an entry a 16-element sampled
    # fingerprint never looks at, and A is no longer symmetric.
    a = _spd(100, seed=10)
    x, b, info = _solve_edit_solve(
        a, lambda m: m.__setitem__((3, 7), m[3, 7] + 50.0))
    want = la_gesv(a.copy(), b.copy())
    np.testing.assert_array_equal(x, want)
    assert info.chosen_driver == "la_gesv"
    assert info.probe_cost > 0.0


def test_symmetric_conductance_stamp_refactors():
    a = _spd(100, seed=11)
    i, j, g = 3, 7, 1.25

    def stamp(m):
        m[i, i] += g
        m[j, j] += g
        m[i, j] -= g
        m[j, i] -= g

    x, b, info = _solve_edit_solve(a, stamp)
    want = la_posv(a.copy(), b.copy(), uplo="U")
    np.testing.assert_array_equal(x, want)
    assert info.chosen_driver == "la_posv"
    assert info.probe_cost > 0.0


def test_one_ulp_edit_refactors():
    a = _spd(100, seed=12)
    x, b, info = _solve_edit_solve(
        a, lambda m: m.__setitem__((5, 5), np.nextafter(m[5, 5], np.inf)))
    want = la_posv(a.copy(), b.copy(), uplo="U")
    np.testing.assert_array_equal(x, want)
    assert info.chosen_driver == "la_posv"
    assert info.probe_cost > 0.0


def test_signed_zero_flip_is_an_edit():
    # -0.0 == 0.0 as values, but not as bits: the cache compares bits.
    a = _spd(100, seed=13)
    a[3, 7] = a[7, 3] = 0.0
    x, b, info = _solve_edit_solve(
        a, lambda m: m.__setitem__((3, 7), -0.0))
    want = la_posv(a.copy(), b.copy(), uplo="U")
    np.testing.assert_array_equal(x, want)
    assert info.chosen_driver == "la_posv"
    assert info.probe_cost > 0.0
    assert structure_cache_stats()["hits"] == 0


def test_only_successful_spd_solves_are_cached():
    g = np.random.default_rng(14).standard_normal((6, 6))
    solve(g + 6 * np.eye(6), np.ones(6))                 # general
    solve(g + g.T - 30 * np.eye(6), np.ones(6))          # indefinite
    solve(2 * np.ones((4, 4)) - np.eye(4), np.ones(4))   # posv fails
    assert structure_cache_stats()["entries"] == 0
    a = _spd(6, seed=15)          # an entry lives as long as its operand
    solve(a, np.ones(6))
    assert structure_cache_stats()["entries"] == 1


@pytest.mark.parametrize("name", backends.available_backends())
def test_cold_spd_solve_factors_once_warm_solve_only_substitutes(
        monkeypatch, name):
    """Kernel calls at the dispatch seam: a cold SPD solve is one
    ``posv`` (one ``potrf`` plus its ``potrs``), a warm one a single
    ``potrs``."""
    routines = _seam_routines(monkeypatch)
    a = _spd(12, seed=16)
    b = a @ np.ones(12)
    with use_backend(name):
        solve(a, b)
        assert routines == ["posv"]
        del routines[:]
        solve(a, b)
        assert routines == ["potrs"]


def test_fresh_operands_leave_no_dead_entries():
    """An entry goes with its operand: fresh SPD operands that land on
    a freed one's ``id`` find no entry to compare bits against, and no
    dead factor stays alive."""
    rng = np.random.default_rng(17)
    names = backends.available_backends()
    with use_backend("accelerated" if "accelerated" in names
                     else "reference"):
        for _ in range(2000):
            g = rng.standard_normal((8, 8))
            b = rng.standard_normal(8)
            solve(g @ g.T + 8 * np.eye(8), b)
            solve(g + 8 * np.eye(8), b)
        stats = structure_cache_stats()
    assert stats["invalidated"] == 0
    assert stats["hits"] == 0 and stats["misses"] == 4000
    assert stats["entries"] <= 1


def test_an_entry_answers_only_its_own_array():
    """Identical bits in another array are not a hit: the entry's weak
    reference names the array it was stored for."""
    a = _spd(5, seed=18)
    cache.store(a, probe(a), cache.snapshot(a))
    twin = a.copy()
    cache._ENTRIES[id(twin)] = cache._ENTRIES[id(a)]
    assert cache.lookup(twin) is None
    assert cache.lookup(a) is not None
    del a
    assert structure_cache_stats()["entries"] == 0


def _accelerated_only():
    if "accelerated" not in backends.available_backends():
        pytest.skip("the accelerated backend needs SciPy")


def test_a_failed_over_cold_solve_is_not_reused_under_accelerated():
    """A cold solve whose trial ``la_posv`` failed over to reference
    records that reference made its factor.  Once the fault is gone the
    warm ``potrs`` is served by accelerated, so the solve drops the
    entry and refactors instead of answering from it, and equals a
    direct accelerated ``la_posv``."""
    _accelerated_only()
    faults.chaos_clear()
    a = _spd(12, seed=5)
    b = a @ np.ones(12)
    with use_backend("accelerated"):
        cold = Info()
        with fi.chaos("posv", flaky_every=1, backend="accelerated"):
            solve(a, b, info=cold)
        assert cold.attempts == ("accelerated:posv#1:error=InjectedFault",
                                 "reference:posv#2")
        warm = Info()
        x = solve(a, b, info=warm)
        want = b.copy()
        la_posv(a.copy(), want)
    assert x.tobytes() == want.tobytes()
    assert warm.attempts is None and warm.probe_cost > 0.0
    assert structure_cache_stats()["invalidated"] == 1


def test_a_failed_over_factor_is_reused_while_every_potrs_fails_over():
    """While every accelerated ``potrs`` fails over as well, the warm
    solve's substitution runs on reference, the backend that made the
    factor, so the entry stays exact and hits."""
    _accelerated_only()
    faults.chaos_clear()
    a = _spd(12, seed=5)
    b = a @ np.ones(12)
    with use_backend("accelerated"), \
            fi.chaos("posv", flaky_every=1, backend="accelerated"), \
            fi.chaos("potrs", flaky_every=1, backend="accelerated"):
        x_cold = solve(a, b)
        warm = Info()
        x_warm = solve(a, b, info=warm)
    assert warm.probe_cost == 0.0
    assert warm.attempts == ("accelerated:potrs#1:error=InjectedFault",
                             "reference:potrs#2")
    assert x_warm.tobytes() == x_cold.tobytes()


@pytest.mark.parametrize("backend, layout", [("accelerated", "f_contiguous"),
                                             ("reference", "c_contiguous")])
def test_the_cached_factor_is_laid_out_for_its_backend(backend, layout):
    """Off reference the working copy, and so the cached factor, is
    Fortran-ordered: a warm accelerated ``potrs`` reads it without a
    copy.  On reference it stays C-ordered, as its kernels compute."""
    if backend not in backends.available_backends():
        pytest.skip(f"{backend} is not registered")
    faults.chaos_clear()
    a = _spd(6, seed=9)
    with use_backend(backend):
        solve(a, a @ np.ones(6))
        assert getattr(cache.lookup(a).cholesky.flags, layout)


def test_a_warm_potrs_served_elsewhere_refactors():
    """An entry is answered only by a ``potrs`` from the backend that
    made its factor.  A factor made by accelerated is dropped when a
    fault armed after the cold solve sends the warm ``potrs`` to
    reference: the solve refactors, and equals a cold solve under the
    same fault (an accelerated ``la_posv``)."""
    _accelerated_only()
    faults.chaos_clear()
    a = _spd(12, seed=5)
    b = a @ np.ones(12)
    with use_backend("accelerated"):
        solve(a, b)
        warm = Info()
        with fi.chaos("potrs", flaky_every=1, backend="accelerated"):
            x = solve(a, b, info=warm)
        want = b.copy()
        la_posv(a.copy(), want)
    assert x.tobytes() == want.tobytes()
    assert warm.attempts is None and warm.probe_cost > 0.0
    assert structure_cache_stats()["invalidated"] == 1
