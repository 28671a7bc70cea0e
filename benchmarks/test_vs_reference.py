"""XB3 — this substrate vs the scipy/LAPACK reference.

The paper's numbers come from vendor-tuned FORTRAN; ours from pure
NumPy.  The reference must win (it is compiled LAPACK), but the blocked
Level-3 organization keeps the gap to a modest constant factor on the
matmul-dominated routines — the *shape* that transfers from the paper's
performance story.  Accuracy agreement is asserted alongside.

The backend sweep and the reference solve-phase rows land in this
checkout's block of ``BENCH_backends.json``; the same file run with
``PYTHONPATH=<other checkout>/src`` writes its ``parent`` block
(:func:`conftest.checkout_block`).  No timing is gated.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from repro import backends, la_gesv, la_posv, la_syev, la_sysv
from repro.lapack77 import (gesvd, getrf, getrs, potrf, potrs, sytrf,
                            sytrs)

from .conftest import record_backend_timing

N = 200


@pytest.fixture
def workloads(rng):
    a = rng.standard_normal((N, N)) + np.eye(N) * N
    g = rng.standard_normal((N, N))
    spd = g @ g.T + np.eye(N) * N
    sym = g + g.T
    b = rng.standard_normal(N)
    return a, spd, sym, b


class TestSolve:
    def test_repro_gesv(self, benchmark, workloads):
        a, _, _, b = workloads
        benchmark(lambda: la_gesv(a.copy(), b.copy()))

    def test_scipy_solve(self, benchmark, workloads):
        a, _, _, b = workloads
        benchmark(lambda: sla.solve(a, b))

    def test_agreement(self, workloads):
        a, _, _, b = workloads
        x1 = b.copy()
        la_gesv(a.copy(), x1)
        x2 = sla.solve(a, b)
        np.testing.assert_allclose(x1, x2, atol=1e-10)


class TestCholeskySolve:
    def test_repro_posv(self, benchmark, workloads):
        _, spd, _, b = workloads
        benchmark(lambda: la_posv(spd.copy(), b.copy()))

    def test_scipy_posv(self, benchmark, workloads):
        _, spd, _, b = workloads
        benchmark(lambda: sla.solve(spd, b, assume_a="pos"))


class TestSymmetricEigen:
    def test_repro_syev(self, benchmark, workloads):
        _, _, sym, _ = workloads
        benchmark(lambda: la_syev(sym.copy()))

    def test_scipy_eigvalsh(self, benchmark, workloads):
        _, _, sym, _ = workloads
        benchmark(lambda: sla.eigvalsh(sym))

    def test_agreement(self, workloads):
        _, _, sym, _ = workloads
        w1 = la_syev(sym.copy())
        w2 = sla.eigvalsh(sym)
        np.testing.assert_allclose(w1, w2, atol=1e-8 * np.abs(sym).max())


class TestBackendSweep:
    """XB3-backends — the same LA_* drivers timed under every registered
    backend; results land in ``BENCH_backends.json`` (see conftest)."""

    DRIVERS = {
        "gesv": lambda w: la_gesv(w["a"].copy(), w["b"].copy()),
        "posv": lambda w: la_posv(w["spd"].copy(), w["b"].copy()),
        "sysv": lambda w: la_sysv(w["sym"].copy() + np.eye(N) * N,
                                  w["b"].copy()),
        "syev": lambda w: la_syev(w["sym"].copy()),
    }

    @pytest.fixture
    def named_workloads(self, workloads):
        a, spd, sym, b = workloads
        return {"a": a, "spd": spd, "sym": sym, "b": b}

    @pytest.mark.parametrize("backend", ["reference", "accelerated"])
    @pytest.mark.parametrize("routine", sorted(DRIVERS))
    def test_driver(self, benchmark, named_workloads, routine, backend):
        if backend not in backends.available_backends():
            pytest.skip("backend {!r} not registered".format(backend))
        call = self.DRIVERS[routine]
        benchmark.extra_info["backend"] = backend
        with backends.use_backend(backend):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                benchmark(call, named_workloads)
        if benchmark.stats is not None:  # absent under --benchmark-disable
            record_backend_timing(routine, backend, N,
                                  benchmark.stats.stats)


class TestSolvePhases:
    """XB3-solve — the reference solve phase alone, factors made once and
    one right-hand side: ``getrs`` and ``potrs`` are two triangular
    sweeps each, ``sytrs`` the Bunch–Kaufman pair of sweeps (its
    indefinite operand mixes 1×1 and 2×2 pivots).  Rows land in
    ``BENCH_backends.json`` beside the drivers."""

    @pytest.fixture
    def solves(self, workloads):
        a, spd, sym, b = workloads
        lu, chol, bk = a.copy(), spd.copy(), sym.copy()
        piv, info = getrf(lu)
        assert info == 0 and potrf(chol, "U") == 0
        bkpiv, info = sytrf(bk, "U")
        assert info == 0
        return {"getrs": lambda: getrs(lu, piv, b.copy()),
                "potrs": lambda: potrs(chol, b.copy(), "U"),
                "sytrs": lambda: sytrs(bk, bkpiv, b.copy(), "U")}

    @pytest.mark.parametrize("routine", ["getrs", "potrs", "sytrs"])
    def test_solve_phase(self, benchmark, solves, routine):
        benchmark(solves[routine])
        if benchmark.stats is not None:  # absent under --benchmark-disable
            record_backend_timing(routine, "reference", N,
                                  benchmark.stats.stats)


class TestSVD:
    def test_repro_gesvd(self, benchmark, workloads):
        a, *_ = workloads
        benchmark(lambda: gesvd(a.copy(), jobu="N", jobvt="N"))

    def test_scipy_svdvals(self, benchmark, workloads):
        a, *_ = workloads
        benchmark(lambda: sla.svdvals(a))

    def test_agreement(self, workloads):
        a, *_ = workloads
        s1, *_rest = gesvd(a.copy(), jobu="N", jobvt="N")
        s2 = sla.svdvals(a)
        np.testing.assert_allclose(s1, s2, atol=1e-8 * s2[0])
