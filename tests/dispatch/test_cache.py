"""The exact factor cache: probe-once semantics for SPD operands,
bitwise revalidation on mutation (no edit, however small, returns a
stale answer), one factorization per cold SPD solve, FIFO bounding, and
backend-switch invalidation (a factor computed by the departed
substrate must never be reused)."""

import numpy as np
import pytest

from repro import (backends, invalidate_structure_cache, la_gesv, la_posv,
                   solve, structure_cache_stats, use_backend)
from repro.dispatch_front import cache
from repro.dispatch_front.probe import probe
from repro.errors import Info
from repro.resilience import dispatch


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


def test_backend_switch_clears_cache_and_bumps_epoch():
    names = backends.available_backends()
    if len(names) < 2:
        pytest.skip("only one backend registered")
    other = [n for n in names if n != backends.get_backend_name()][0]
    a = _spd(5, seed=5)
    cache.store(a, probe(a), cache.snapshot(a))
    epoch = structure_cache_stats()["epoch"]
    previous = backends.set_backend(other)
    try:
        stats = structure_cache_stats()
        assert stats["entries"] == 0
        assert stats["epoch"] == epoch + 1
    finally:
        backends.set_backend(previous)


def test_use_backend_round_trip_also_invalidates():
    names = backends.available_backends()
    if len(names) < 2:
        pytest.skip("only one backend registered")
    other = [n for n in names if n != backends.get_backend_name()][0]
    a = _spd(5, seed=6)
    cache.store(a, probe(a), cache.snapshot(a))
    epoch = structure_cache_stats()["epoch"]
    with backends.use_backend(other):
        assert structure_cache_stats()["entries"] == 0
    # Entry and restore are both effective switches: two epoch bumps,
    # and anything cached inside the block is dropped on the way out.
    assert structure_cache_stats()["epoch"] == epoch + 2


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
    routines = []
    real_call = dispatch.call
    monkeypatch.setattr(dispatch, "call", lambda routine, *rest: (
        routines.append(routine), real_call(routine, *rest))[1])
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
