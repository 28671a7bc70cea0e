"""The benchmark's workloads: seeded inputs, the timed program calls,
their raw-LAPACK floors and their correctness oracles.

A workload is a list of call *kinds*; one round calls each kind once.
A kind has two halves, so inputs are made before the program is even
imported (``setup_s`` starts before ``import repro``):

* ``make(rng)`` builds the arrays with NumPy alone;
* ``bind(env, arrays)`` returns a :class:`Call` — the program call, the
  raw floor for the same problem, and the oracle — once ``repro`` is
  loaded.  Copies the in-place drivers consume are made here, outside
  the timed region.

The program receives only arrays.  Nothing here reaches into ``repro``
internals, calls ``invalidate_structure_cache`` or passes ``assume=``:
the benchmark records what a caller sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Largest normwise backward error (or scaled eigenvalue / normal-equation
#: residual) a float64 answer may have.  Stable LAPACK answers sit near
#: 1e-16; a stale factor after a stamp reads near 1e-2.
TOL = 1e-10

#: SciPy wrappers the floors call, by the name the adapters look up.
RAW_ROUTINES = ("dgesv", "dposv", "dsysv", "dgtsv", "dgels", "dsyev")


@dataclass
class Call:
    """One bound program call: ``run()`` is timed, ``floor()`` is timed
    interleaved with it, ``check(result)`` runs after both."""

    run: Callable
    floor: Callable
    check: Callable
    info: object


#: Routines whose reference kernels are the floors on ``reference_n128``.
REFERENCE_FLOORS = ("gesv", "posv", "sysv", "syev")


class Env:
    """What ``bind`` needs once the program is loaded: the ``repro``
    package, the raw SciPy wrappers and the reference kernels, all
    captured before any tracing."""

    def __init__(self, repro, raw=None):
        self.repro = repro
        self.raw = raw or {}
        self.reference = {r: repro.backends.resolve(r, np.float64,
                                                    backend="reference")
                          for r in REFERENCE_FLOORS}


def raw_lapack():
    """The raw ``scipy.linalg.lapack`` wrappers the floors call."""
    from scipy.linalg import lapack
    return {name: getattr(lapack, name) for name in RAW_ROUTINES}


# -- oracles ----------------------------------------------------------

def backward_error(a, b, x):
    """Normwise backward error ``‖b − A x‖ / (‖A‖ ‖x‖ + ‖b‖)`` in the
    infinity norm, for one system (``b`` of shape ``(n,)``) or a stack
    of them (``(batch, n)``)."""
    r = b - np.einsum("...ij,...j->...i", a, x)
    an = np.abs(a).sum(axis=-1).max(axis=-1)
    return np.abs(r).max(axis=-1) / (an * np.abs(x).max(axis=-1)
                                     + np.abs(b).max(axis=-1))


def solve_ok(a, b, x):
    err = backward_error(a, b, x)
    return bool(np.all(np.isfinite(err)) and np.all(err <= TOL))


def eig_ok(a, w):
    ref = np.linalg.eigvalsh(a)
    scale = np.maximum(np.abs(ref).max(axis=-1), 1.0)
    dev = np.abs(np.asarray(w) - ref).max(axis=-1) / scale
    return bool(np.all(np.isfinite(dev)) and np.all(dev <= TOL))


def lstsq_ok(a, b, x):
    """Normal-equation residual ``‖Aᵀ(b − A x)‖ / (‖A‖ (‖A‖ ‖x‖ + ‖b‖))``."""
    r = a.T @ (b - a @ x)
    an = np.abs(a).sum(axis=1).max()
    err = np.abs(r).max() / (an * (an * np.abs(x).max() + np.abs(b).max()))
    return bool(np.isfinite(err) and err <= TOL)


def info_ok(info):
    return info is None or int(info.value) == 0


# -- input generators -------------------------------------------------

def general(rng, n, *lead):
    return rng.standard_normal(lead + (n, n))


def spd(rng, n, *lead):
    m = rng.standard_normal(lead + (n, n))
    a = m @ np.swapaxes(m, -1, -2) / n + np.eye(n)
    return (a + np.swapaxes(a, -1, -2)) / 2          # bitwise symmetric


def symmetric(rng, n):
    s = rng.standard_normal((n, n))
    s = (s + s.T) / 2
    s[0, 0] = -abs(s[0, 0]) - 1.0                    # surely indefinite
    return s


def tridiagonal(rng, n):
    return (np.diag(rng.standard_normal(n) + 4.0)
            + np.diag(rng.standard_normal(n - 1), -1)
            + np.diag(rng.standard_normal(n - 1), 1))


# -- call kinds -------------------------------------------------------

def _info(env):
    return env.repro.Info()


class FrontSolve:
    """``repro.solve`` on a fresh operand of one structure class."""

    def __init__(self, name, gen, n, floor):
        self.name, self.gen, self.n, self.floor = name, gen, n, floor

    def make(self, rng):
        return self.gen(rng, self.n), rng.standard_normal(self.n)

    def bind(self, env, arrays):
        a, b = arrays
        info = _info(env)
        solve = env.repro.solve
        raw = env.raw.get(self.floor)
        if self.floor == "dgtsv":
            dl, d, du = (a.diagonal(-1).copy(), a.diagonal().copy(),
                         a.diagonal(1).copy())
            floor = lambda: raw(dl, d, du, b)            # noqa: E731
        else:
            floor = lambda: raw(a, b)                    # noqa: E731
        return Call(lambda: solve(a, b, info=info), floor,
                    lambda x: info_ok(info) and solve_ok(a, b, x), info)


class FrontLstsq:
    name = "lstsq"

    def __init__(self, m, n):
        self.m, self.n = m, n

    def make(self, rng):
        return (rng.standard_normal((self.m, self.n)),
                rng.standard_normal(self.m))

    def bind(self, env, arrays):
        a, b = arrays
        info = _info(env)
        lstsq, raw = env.repro.lstsq, env.raw.get("dgels")
        return Call(lambda: lstsq(a, b, info=info), lambda: raw(a, b),
                    lambda x: info_ok(info) and lstsq_ok(a, b, x), info)


class FrontEig:
    name = "eig_symmetric"

    def __init__(self, n):
        self.n = n

    def make(self, rng):
        s = rng.standard_normal((self.n, self.n))
        return (s + s.T) / 2

    def bind(self, env, a):
        info = _info(env)
        eig, raw = env.repro.eig, env.raw.get("dsyev")
        return Call(lambda: eig(a, info=info),
                    lambda: raw(a, compute_v=0),
                    lambda w: info_ok(info) and eig_ok(a, w), info)


class Driver:
    """An in-place ``la_*`` driver on a fresh operand.  ``floor`` is a
    SciPy wrapper name on the accelerated backend, or a routine name
    resolved on the reference backend."""

    def __init__(self, name, gen, n, floor, reference=False):
        self.name, self.gen, self.n = name, gen, n
        self.floor, self.reference = floor, reference

    def make(self, rng):
        return self.gen(rng, self.n), rng.standard_normal(self.n)

    def _floor(self, env, a, b):
        if not self.reference:
            raw = env.raw.get(self.floor)
            if self.floor == "dsyev":
                return lambda: raw(a, compute_v=0)
            return lambda: raw(a, b)
        kernel = env.reference[self.floor]
        ac, bc = a.copy(), b[:, None].copy()
        if self.floor == "syev":
            return lambda: kernel(ac, "N", "U")
        if self.floor == "gesv":
            return lambda: kernel(ac, bc)
        return lambda: kernel(ac, bc, "U")

    def bind(self, env, arrays):
        a, b = arrays
        info = _info(env)
        ac, bc = a.copy(), b.copy()
        floor = self._floor(env, a, b)
        r = env.repro
        if self.name.endswith("syev"):
            return Call(lambda: r.la_syev(ac, jobz="N", info=info), floor,
                        lambda w: info_ok(info) and eig_ok(a, w), info)
        if self.name.startswith("f77"):
            n = a.shape[0]
            ipiv = np.zeros(n, dtype=np.int64)
            return Call(lambda: r.f77.la_gesv(n, 1, ac, n, ipiv, bc, n),
                        floor, lambda code: code == 0 and solve_ok(a, b, bc),
                        None)
        driver = getattr(r, self.name)
        return Call(lambda: driver(ac, bc, info=info), floor,
                    lambda x: info_ok(info) and solve_ok(a, b, x), info)


class Stream:
    """Repeated ``repro.solve`` against one long-lived operand, a new
    right-hand side per call.  Every ``every``-th call first applies a
    stamp in place: ``"symmetric"`` is a conductance stamp
    (``A[i,i]+=g, A[j,j]+=g, A[i,j]-=g, A[j,i]-=g``), ``"entry"`` adds
    ``g`` to one entry, ``None`` leaves the operand alone.  ``refill``
    overwrites the whole operand before every call, as a Newton step
    refills its Jacobian buffer."""

    def __init__(self, name, gen, n, floor, stamp=None, every=8,
                 refill=False):
        self.name, self.gen, self.n, self.floor = name, gen, n, floor
        self.stamp, self.every, self.refill = stamp, every, refill
        self.a = None
        self.calls = 0

    def make(self, rng):
        self.calls += 1
        if self.a is None:
            self.a = self.gen(rng, self.n)
        fill = self.gen(rng, self.n) if self.refill else None
        stamp = None
        if self.stamp and self.calls % self.every == 0:
            i, j = rng.choice(self.n, size=2, replace=False)
            stamp = (int(i), int(j), float(rng.uniform(0.5, 2.0)))
        return fill, stamp, rng.standard_normal(self.n)

    def bind(self, env, arrays):
        fill, stamp, b = arrays
        a = self.a
        if fill is not None:
            a[...] = fill
        if stamp is not None:
            i, j, g = stamp
            if self.stamp == "symmetric":
                a[i, i] += g
                a[j, j] += g
                a[i, j] -= g
                a[j, i] -= g
            else:
                a[i, j] += g
        info = _info(env)
        solve, raw = env.repro.solve, env.raw.get(self.floor)
        return Call(lambda: solve(a, b, info=info), lambda: raw(a, b),
                    lambda x: info_ok(info) and solve_ok(a, b, x), info)


class Batched:
    """A ``batch_*`` wrapper, or ``repro.solve`` on a stack, over
    ``batch`` problems of order ``n``; the floor loops the raw SciPy
    call over the slices."""

    def __init__(self, name, gen, n, batch, floor):
        self.name, self.gen, self.n = name, gen, n
        self.batch, self.floor = batch, floor

    def make(self, rng):
        if self.name == "batch_syev":
            s = rng.standard_normal((self.batch, self.n, self.n))
            return s + np.swapaxes(s, -1, -2), None
        return (self.gen(rng, self.n, self.batch),
                rng.standard_normal((self.batch, self.n)))

    def bind(self, env, arrays):
        a, b = arrays
        r = env.repro
        info = r.BatchInfo()
        raw = env.raw.get(self.floor)
        if self.name == "batch_syev":
            ac = a.copy()
            return Call(lambda: r.batch_syev(ac, jobz="N", info=info),
                        lambda: [raw(ak, compute_v=0) for ak in a],
                        lambda w: info_ok(info) and eig_ok(a, w), info)
        floor = lambda: [raw(ak, bk) for ak, bk in zip(a, b)]  # noqa: E731
        if self.name == "solve_stack":
            return Call(lambda: r.solve(a, b, info=info), floor,
                        lambda x: info_ok(info) and solve_ok(a, b, x), info)
        ac, bc = a.copy(), b.copy()
        wrapper = getattr(r, self.name)
        return Call(lambda: wrapper(ac, bc, info=info), floor,
                    lambda x: info_ok(info) and solve_ok(a, b, x), info)


# -- workloads --------------------------------------------------------

@dataclass
class Workload:
    """A named mix on one backend; why each exists is in README.md."""

    name: str
    backend: str
    kinds: Callable          # () -> fresh list of kinds (streams hold state)


def _small_fresh():
    n = 8
    return [
        FrontSolve("solve_general", general, n, "dgesv"),
        FrontSolve("solve_spd", spd, n, "dposv"),
        FrontSolve("solve_symmetric", symmetric, n, "dsysv"),
        FrontSolve("solve_tridiagonal", tridiagonal, n, "dgtsv"),
        FrontLstsq(2 * n, n),
        FrontEig(n),
        Driver("la_gesv", general, n, "dgesv"),
        Driver("la_posv", spd, n, "dposv"),
        Driver("la_syev", symmetric, n, "dsyev"),
    ]


def _mid_reuse(spd_stamp):
    n = 200
    return [
        Stream("spd_stream", spd, n, "dposv", stamp=spd_stamp),
        Stream("general_stream", general, n, "dgesv", stamp="entry"),
        Stream("refill", general, n, "dgesv", refill=True),
        Driver("la_gesv", general, n, "dgesv"),
        Driver("la_posv", spd, n, "dposv"),
    ]


def _reference_n128():
    n = 128
    return [
        Driver("la_gesv", general, n, "gesv", reference=True),
        Driver("f77_la_gesv", general, n, "gesv", reference=True),
        Driver("la_posv", spd, n, "posv", reference=True),
        Driver("la_sysv", symmetric, n, "sysv", reference=True),
        Driver("la_syev", symmetric, n, "syev", reference=True),
    ]


def _batched_n8():
    n, batch = 8, 64
    return [
        Batched("batch_gesv", general, n, batch, "dgesv"),
        Batched("batch_posv", spd, n, batch, "dposv"),
        Batched("batch_syev", None, n, batch, "dsyev"),
        Batched("solve_stack", spd, n, batch, "dposv"),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("small_fresh", "accelerated", _small_fresh),
    Workload("mid_reuse", "accelerated", lambda: _mid_reuse(None)),
    Workload("reference_n128", "reference", _reference_n128),
    Workload("batched_n8", "accelerated", _batched_n8),
    # Not run by default: in-place conductance stamps on the SPD stream
    # slip past the structure cache's sampled fingerprint, so stamped
    # solves return the stale cached factor's answer and count as failed.
    Workload("mid_reuse_stamped", "accelerated",
             lambda: _mid_reuse("symmetric")),
)}
