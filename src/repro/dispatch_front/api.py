"""The front door: ``repro.solve`` / ``repro.lstsq`` / ``repro.eig``.

Callers who know their matrix call ``la_posv``; callers who don't call
:func:`solve` and get the same driver chosen for them.  The flow is

1. **classify** — the exact factor cache
   (:mod:`repro.dispatch_front.cache`) answers for a repeat SPD/HPD
   operand whose bytes are unchanged; otherwise
   :func:`~repro.dispatch_front.probe.probe` runs (it never factors).
2. **route** — :func:`repro.specs.routing.route` walks the refinement
   lattice over the DriverSpec registry's declarative
   ``problem_kind``/``structure`` metadata.  There is no structure→
   driver ladder in this module (lalint rule LA022): what is written by
   hand here is only the per-kernel *calling convention* — how the
   routed driver wants its operands shaped — keyed by ``spec.kernel``.
   Each convention takes the driver it runs as an argument.
3. **execute** — the routed ``la_*`` driver runs with the caller's
   ``info`` handle, through the ordinary backend/resilience/deadline
   seams, *on copies*: unlike the drivers, the front door never
   overwrites its operands.  A probed ``spd``/``hpd`` operand (Hermitian,
   strictly positive real diagonal) runs ``la_posv`` as a trial: its
   ``potrf`` is the only definiteness test.  On success the factor it
   left in the working copy is cached, so a cold SPD solve factors
   once and a repeat one goes straight to ``potrs`` inside the same
   ``LA_POSV`` contract (spec validation, driver guard, ERINFO
   report).  On a positive INFO the call re-solves
   through the next route on the refinement chain
   (``la_sysv``/``la_hesv``) on fresh copies, bit-identical to what a
   symmetric/hermitian verdict would have routed.

Stacked operands (``a.ndim == 3``) run through the same conventions,
handed the spec-derived ``batch_*`` wrapper of the first candidate on
the ladder with ``spec.batchable`` instead of the ``la_*`` driver (so
``info=BatchInfo()`` collects per-problem codes, and a plain ``Info``
or no handle gets the wrapper's aggregate verdict); they are never
cached, and :func:`~repro.dispatch_front.probe.probe_stack` has already
tried the Cholesky factorization a definite stack route depends on.

``explain=True`` returns the :class:`Explanation` — classification,
candidate ladder and chosen driver — *without executing* (so it caches
nothing; an ``spd`` plan may still fall back when executed).
``assume=`` skips probing and the cache and pins the structure label
(trusted, not verified: an ``assume="spd"`` on an indefinite matrix
fails exactly like calling ``la_posv`` yourself, with no fallback).
When an :class:`~repro.errors.Info` handle is passed, the verdict comes
back with ``info.structure``, ``info.chosen_driver`` and
``info.probe_cost`` telemetry (``probe_cost == 0.0`` on a cache hit).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .. import batch, core
from ..backends import working_order
from ..backends.kernels import potrs
from ..core.auxmod import as_matrix
from ..core.shell import driver_shell
from ..errors import Info, erinfo
from ..specs.routing import REFINEMENTS, STRUCTURES, candidates, route
from . import cache
from .probe import Structure, probe, probe_stack

__all__ = ["solve", "lstsq", "eig", "Explanation"]


@dataclass(frozen=True)
class Explanation:
    """What the front door *would* do — returned by ``explain=True``.

    ``candidates`` is the full refinement ladder the router considered,
    most specific first; ``chosen_driver`` is its head.  ``cached`` says
    whether the operand hit the factor cache (so no probe ran);
    ``probe_cost`` is the probe's wall-clock seconds (0.0 when cached
    or assumed).
    """

    kind: str
    structure: str
    chosen_driver: str
    candidates: tuple
    batch: bool = False
    cached: bool = False
    probe_cost: float = 0.0


def _classify(a, assume):
    """``(Structure, cached)`` for ``a`` — cache, probe, or assumption."""
    if assume is not None:
        if assume not in STRUCTURES:
            raise ValueError(
                "assume={!r} is not a structure label; expected one of "
                "{}".format(assume, ", ".join(STRUCTURES)))
        sym = assume in ("spd", "symmetric")
        herm = assume in ("spd", "hpd", "symmetric", "hermitian")
        return Structure(assume, symmetric=sym, hermitian=herm), False
    st = cache.lookup(a)
    if st is not None:
        return st, True
    return (probe_stack(a) if a.ndim == 3 else probe(a)), False


def _note(info, st, driver, cached):
    """Attach routing telemetry to the caller's ``Info`` handle."""
    if isinstance(info, Info):
        info.structure = st.label
        info.chosen_driver = driver
        info.probe_cost = 0.0 if cached else st.probe_cost


def _copy(a):
    """The front door's working copy of ``a``, in the memory order the
    serving backend computes in (:func:`repro.backends.working_order`),
    so an accelerated adapter hands it to LAPACK with no copy of its
    own.  A stack stays C-ordered: the stack adapters copy it once per
    stack."""
    return a.copy(order=working_order() if a.ndim == 2 else "C")


def _rhs_copy(a, b):
    """The working copy of the right-hand side, in ``b``'s layout (a
    1-D one reaches LAPACK in place on any backend).  The drivers'
    in-place contract forbids them from promoting a real ``b`` against
    a complex ``A``; the front door returns a fresh array, so it can."""
    if a.dtype is b.dtype and b.dtype.isnative:
        return b.copy(order="K")        # np.result_type(a, b) is b.dtype
    return b.astype(np.result_type(a, b), copy=True)


def _routed(verb, label, iscomplex, stacked):
    """``(spec, driver)`` for one verb: the head of the refinement
    ladder and its ``la_*`` driver, or for a stack the first candidate
    with a batched wrapper and that ``batch_*`` wrapper.  The driver is
    read from its module on each call, where a tracer may rebind it."""
    spec, module, name = _route(verb, label, iscomplex, stacked)
    return spec, getattr(module, name)


@functools.cache
def _route(verb, label, iscomplex, stacked):
    """``(spec, module, driver name)`` behind :func:`_routed`, derived
    once per quadruple like :func:`repro.specs.routing.candidates`."""
    if not stacked:
        spec = route(verb, label, iscomplex)
        return spec, core, spec.name
    spec = next(s for s in candidates(verb, label, iscomplex)
                if s.batchable)
    return spec, batch, "batch_" + spec.name[3:]


def _explain(verb, st, label, iscomplex, spec, stacked, cached):
    """The plan ``explain=True`` returns instead of executing."""
    return Explanation(
        verb, st.label, spec.name,
        tuple(s.name for s in candidates(verb, label, iscomplex)),
        batch=stacked, cached=cached,
        probe_cost=0.0 if cached else st.probe_cost)


# -- per-kernel calling conventions (the hand-written residue) --------
# Each executor receives the *original* operands plus the probe verdict
# and runs the routed driver on copies, returning the solution.  The
# ``cached`` flag lets the posv convention reuse the cached factor.

def _band_storage(a, kl, ku):
    """Pack a dense band matrix into ``la_gbsv``'s ``2·kl+ku+1``-row
    factored-band layout (``A[i, j]`` at ``ab[kl+ku+i-j, j]``), in the
    serving backend's memory order like :func:`_copy`."""
    n = a.shape[0]
    ab = np.zeros((2 * kl + ku + 1, n), dtype=a.dtype,
                  order=working_order())
    for d in range(-kl, ku + 1):
        lo = max(0, d)
        ab[kl + ku - d, lo:lo + n - abs(d)] = np.diagonal(a, d)
    return ab


@driver_shell("la_posv")
def _posv_from_factor(a, b, uplo="U", info=None, cholesky=None):
    """Repeat SPD solve: the cached ``la_posv`` factor goes straight
    to ``potrs``, inside the full ``LA_POSV`` shell (spec validation,
    entry gate, ERINFO report) — the refactorization is what the cache
    exists to skip."""
    if a.shape[0] == 0:
        return b, 0, None
    bmat, _ = as_matrix(b)
    return b, potrs(cholesky, bmat, uplo), None


def _exec_dense(st, a, bc, info, cached, driver):
    return driver(_copy(a), bc, info=info)


def _exec_posv(st, a, bc, info, cached, driver):
    return driver(_copy(a), bc, uplo=st.uplo, info=info)


def _served_by(info):
    """The backend a failed-over shell call's last kernel attempt names
    (``"reference:posv#2"``), or ``None`` when nothing failed over."""
    return info.attempts[-1].split(":", 1)[0] if info.attempts else None


#: What :func:`_solve_from_factor` answers after dropping a stale
#: entry (``None`` is the answer of a refused call).
_STALE = object()


def _solve_from_factor(st, a, b, info):
    """A warm SPD solve: the cached factor's ``potrs``, or ``_STALE``
    after dropping the entry when that ``potrs`` was served by another
    backend than the one that made the factor (a fault came or went
    since), so that a warm answer always equals a cold one.  Runs on
    the caller's ``Info`` with ``attempts`` cleared, or a private one.
    """
    trial = Info() if info is None else info
    trial.attempts = None
    x = _posv_from_factor(a, _rhs_copy(a, b), uplo=st.uplo, info=trial,
                          cholesky=st.cholesky)
    if _served_by(trial) != st.maker:
        cache.invalidate(a)
        return _STALE
    if info is None:
        erinfo(trial.value, "LA_POSV")
    return x


def _solve_probed_definite(st, a, b, iscomplex, info, spec, driver):
    """``(x, structure, spec)`` for a cold probed ``spd``/``hpd`` solve.

    ``la_posv`` runs on the caller's ``Info`` (a private one when there
    is none, so a positive INFO is caught instead of raised) after its
    ``fallback``/``rcond``/``attempts`` are cleared, so the handle ends
    up as a direct ``la_posv`` call on a fresh one would leave it.  A
    positive INFO (or its own fallback ladder firing) re-solves through
    the next structure on the refinement chain on fresh copies, with
    those slots restored first.  Otherwise the factor left in the
    working copy is attached to the probe's verdict — fresh from this
    call, never shared — and cached against the bits it was computed
    from, naming the backend that made it when the trial failed over.
    """
    trial = Info() if info is None else info
    saved = trial.fallback, trial.rcond, trial.attempts
    trial.fallback = trial.rcond = trial.attempts = None
    ac, bc = _copy(a), _rhs_copy(a, b)
    snap = cache.snapshot(ac)
    driver(ac, bc, uplo=st.uplo, info=trial)
    if trial.value > 0 or trial.fallback is not None:
        trial.fallback, trial.rcond, trial.attempts = saved
        st = replace(st, label=REFINEMENTS[st.label][0])
        spec, driver = _routed("solve", st.label, iscomplex, False)
        return (_SOLVERS[spec.kernel](st, a, _rhs_copy(a, b), info, False,
                                      driver), st, spec)
    if trial.value == 0:
        st.cholesky, st.maker = ac, _served_by(trial)
        cache.store(a, st, snap)  # laflow: atomic-split — the factor is computed unlocked by design; a racing store for the same operand carries its own snapshot
    if info is None:
        erinfo(trial.value, "LA_POSV")
    return (None if trial.value else bc), st, spec


def _exec_gtsv(st, a, bc, info, cached, driver):
    return driver(a.diagonal(-1).copy(), a.diagonal().copy(),
                  a.diagonal(1).copy(), bc, info=info)


def _exec_gbsv(st, a, bc, info, cached, driver):
    return driver(_band_storage(a, st.kl, st.ku), bc, kl=st.kl, info=info)


def _exec_trtrs(st, a, bc, info, cached, driver):
    return driver(a, bc, uplo=st.uplo, info=info)


_SOLVERS = {
    "gesv": _exec_dense,
    "posv": _exec_posv,
    "sysv": _exec_dense,
    "hesv": _exec_dense,
    "gtsv": _exec_gtsv,
    "gbsv": _exec_gbsv,
    "trtrs": _exec_trtrs,
}


def _exec_syev(st, a, info, vectors, driver):
    ac = _copy(a)
    w = driver(ac, jobz="V" if vectors else "N", info=info)
    return (w, ac) if vectors and w is not None else w


def _exec_geev(st, a, info, vectors, driver):
    if vectors:
        return driver(a.copy(), vr=np.empty(a.shape, dtype=complex),
                      info=info)
    return driver(a.copy(), info=info)


_EIG_CONVENTIONS = {"syev": _exec_syev, "heev": _exec_syev,
                    "geev": _exec_geev}


def _eig_label(st, iscomplex):
    """The eig verb cares about symmetry, not band shape: a banded or
    tridiagonal operand that is also (Hermitian-)symmetric still routes
    to the symmetric eigensolver."""
    if iscomplex and st.hermitian:
        return "hermitian"
    if st.symmetric:
        return "symmetric"
    return st.label


# -- the three verbs --------------------------------------------------

def solve(a, b, *, info=None, explain=False, assume=None):
    """Solve ``A x = b`` through the structure-routed front door.

    Returns the solution with ``b``'s shape; ``a`` and ``b`` are never
    overwritten.  ``info``/``explain``/``assume`` per the module
    docstring; a ``(batch, n, n)`` stack routes to the ``batch_*``
    wrappers (pass ``info=BatchInfo()`` for per-problem codes).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    st, cached = _classify(a, assume)
    iscomplex = a.dtype.kind == "c"
    stacked = a.ndim == 3
    spec, driver = _routed("solve", st.label, iscomplex, stacked)
    if explain:
        return _explain("solve", st, st.label, iscomplex, spec, stacked,
                        cached)
    if spec.kernel == "posv" and cached:
        x = _solve_from_factor(st, a, b, info)
        if x is _STALE:
            return solve(a, b, info=info)
    elif spec.kernel == "posv" and not stacked and assume is None:
        x, st, spec = _solve_probed_definite(st, a, b, iscomplex, info,
                                             spec, driver)
    else:
        x = _SOLVERS[spec.kernel](st, a, _rhs_copy(a, b), info, cached,
                                  driver)
    _note(info, st, spec.name, cached)
    return x


def lstsq(a, b, *, trans="N", info=None, explain=False):
    """Least-squares solve ``min ‖A x − b‖₂`` through the front door.

    The routing metadata resolves every structure to the QR/LQ driver
    today (``la_gels``); classification still runs so the telemetry and
    the routing table stay honest when a specialised least-squares
    driver is registered.  Returns the solution (``n`` rows for
    ``trans="N"``); never overwrites ``a``/``b``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    st, cached = _classify(a, None)
    iscomplex = a.dtype.kind == "c"
    stacked = a.ndim == 3
    spec, driver = _routed("lstsq", st.label, iscomplex, stacked)
    if explain:
        return _explain("lstsq", st, st.label, iscomplex, spec, stacked,
                        cached)
    x = driver(_copy(a), _rhs_copy(a, b), trans=trans, info=info)
    _note(info, st, spec.name, cached)
    return x


def eig(a, *, vectors=False, info=None, explain=False, assume=None):
    """Eigenvalues (and optionally eigenvectors) through the front door.

    Symmetric/Hermitian operands route to ``la_syev``/``la_heev`` and
    return real eigenvalues ascending (plus the orthonormal eigenvector
    matrix when ``vectors=True``); everything else routes to ``la_geev``
    and returns complex eigenvalues (plus right eigenvectors).  ``a`` is
    never overwritten.  A ``(batch, n, n)`` stack runs the same route
    through ``batch_syev``/``batch_heev``/``batch_geev``.
    """
    a = np.asarray(a)
    st, cached = _classify(a, assume)
    iscomplex = a.dtype.kind == "c"
    label = _eig_label(st, iscomplex)
    stacked = a.ndim == 3
    spec, driver = _routed("eig", label, iscomplex, stacked)
    if explain:
        return _explain("eig", st, label, iscomplex, spec, stacked, cached)
    out = _EIG_CONVENTIONS[spec.kernel](st, a, info, vectors, driver)
    _note(info, st, spec.name, cached)
    return out
