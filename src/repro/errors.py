"""Error-handling machinery mirroring LAPACK90's ``ERINFO`` conventions.

LAPACK90 (Waśniewski & Dongarra, 1998) funnels every driver's status through
one routine, ``ERINFO(LINFO, SRNAME, INFO, ISTAT)``:

* If the caller did **not** supply the optional ``INFO`` argument and the
  local status ``LINFO`` signals an error, the program terminates with a
  message naming the routine and the code.
* If the caller **did** supply ``INFO``, the code is stored there and control
  returns normally.
* Codes follow the LAPACK convention: ``-i`` (for small *i*) means the
  *i*-th argument is illegal, positive codes are computational failures
  (e.g. a zero pivot), ``-100`` is an internal/allocation-class error
  (workspace allocation failed), codes in the warning band
  ``-200 >= linfo > -1000`` (e.g. ``-200`` = a reduced-size workspace was
  used) are stored but never terminate, and codes at or below ``-1000``
  form the non-finite-input error class added by the exception policy:
  ``NONFINITE - i`` flags NaN/Inf entries in argument *i*.

In Python, "terminate with a message" becomes raising an exception, and the
``INFO`` output argument becomes the mutable :class:`Info` handle.
"""

from __future__ import annotations

__all__ = [
    "Info",
    "LinAlgError",
    "IllegalArgument",
    "ComputationalError",
    "SingularMatrix",
    "NotPositiveDefinite",
    "NoConvergence",
    "WorkspaceError",
    "NonFiniteInput",
    "DeadlineExceeded",
    "NumericalWarning",
    "NonFiniteWarning",
    "IllConditionedWarning",
    "DriverFallbackWarning",
    "BackendFallbackWarning",
    "erinfo",
    "is_error_code",
    "xerbla",
    "ALLOC_FAILED",
    "WORK_REDUCED",
    "NONFINITE",
    "DEADLINE",
]

#: LINFO code used by LAPACK90 when workspace allocation fails.
ALLOC_FAILED = -100
#: LINFO warning code used when a reduced (unblocked) workspace is used.
WORK_REDUCED = -200
#: Base of the non-finite-input error class: ``NONFINITE - i`` means
#: argument *i* contained NaN or Inf entries (screened by
#: :mod:`repro.policy` in ``"check"`` mode).
NONFINITE = -1000
#: Code class for an exceeded :func:`repro.deadline` time budget.  The
#: class sits below the non-finite band (which only ever reaches
#: ``NONFINITE - position``) so the three error families stay disjoint.
DEADLINE = -3000


class LinAlgError(Exception):
    """Base class for every error raised by the repro library.

    Carries the LAPACK ``info`` code and the name of the routine that
    detected the condition, mirroring the message ``ERINFO`` prints before
    terminating.
    """

    def __init__(self, srname: str, info: int, message: str | None = None):
        self.srname = srname
        self.info = info
        if message is None:
            message = f"Terminated in subroutine {srname}: INFO = {info}"
        super().__init__(message)


class IllegalArgument(LinAlgError, ValueError):
    """An argument had an illegal value (``info = -i`` for argument *i*)."""

    def __init__(self, srname: str, position: int, detail: str = ""):
        info = -abs(position)
        msg = f"{srname}: argument {abs(position)} had an illegal value"
        if detail:
            msg += f" ({detail})"
        super().__init__(srname, info, msg)


class ComputationalError(LinAlgError):
    """The computation failed with a positive ``info`` code."""


class SingularMatrix(ComputationalError):
    """``U(i,i)`` (or ``D(i,i)``) is exactly zero; the factor is singular."""

    def __init__(self, srname: str, index: int):
        super().__init__(
            srname,
            index,
            f"{srname}: U({index},{index}) is exactly zero; "
            "the matrix is singular and the solution could not be computed",
        )


class NotPositiveDefinite(ComputationalError):
    """A leading minor was not positive definite (Cholesky-family failure)."""

    def __init__(self, srname: str, order: int):
        super().__init__(
            srname,
            order,
            f"{srname}: the leading minor of order {order} is not positive "
            "definite; the factorization could not be completed",
        )


class NoConvergence(ComputationalError):
    """An iterative eigen/SVD process failed to converge."""

    def __init__(self, srname: str, info: int, detail: str = ""):
        msg = f"{srname}: the algorithm failed to converge (INFO = {info})"
        if detail:
            msg += f"; {detail}"
        super().__init__(srname, info, msg)


class WorkspaceError(LinAlgError):
    """Workspace could not be allocated (LAPACK90's ``LINFO = -100``)."""

    def __init__(self, srname: str):
        super().__init__(srname, ALLOC_FAILED, f"{srname}: workspace allocation failed")


class NonFiniteInput(LinAlgError, ValueError):
    """An input array contained NaN or Inf entries.

    Raised (or reported through ``info``) only when the exception policy
    is in ``"check"`` mode; the dedicated code class is ``NONFINITE - i``
    for the *i*-th argument, keeping it disjoint from both the argument
    errors (``-i``) and the warning band (``-200`` … ``> -1000``).
    """

    def __init__(self, srname: str, position: int, detail: str = ""):
        self.position = abs(position)
        info = NONFINITE - self.position
        msg = (f"{srname}: argument {self.position} contains "
               "non-finite (NaN or Inf) entries")
        if detail:
            msg += f" ({detail})"
        super().__init__(srname, info, msg)


class DeadlineExceeded(LinAlgError):
    """A :func:`repro.deadline` time budget ran out mid-solve.

    Unlike every other ``LinAlgError`` this is a *control-flow
    interruption*, not a status: it is raised even when the caller
    supplied an ``info=`` handle, because a deadline exists precisely so
    the caller regains control.  What the driver had established by the
    time the budget expired travels on :attr:`partial` — an
    :class:`Info` whose ``value`` is :data:`DEADLINE` and whose
    ``attempts``/``fallback`` fields hold the resilience
    telemetry collected so far.

    ``stage`` names the checkpoint that noticed the expiry (``"entry"``,
    ``"factor"``, ``"solve"``, ``"refine"``).
    """

    def __init__(self, srname: str, stage: str = "entry",
                 partial: "Info | None" = None):
        self.stage = stage
        self.partial = partial if partial is not None else Info(DEADLINE)
        super().__init__(
            srname, DEADLINE,
            f"{srname}: deadline exceeded at the {stage!r} checkpoint; "
            f"partial status: {self.partial!r}")


class NumericalWarning(RuntimeWarning):
    """Base class for the structured warnings the exception policy emits."""


class NonFiniteWarning(NumericalWarning):
    """Non-finite entries were detected while the policy is in
    ``"warn"`` mode; the computation proceeds (and will propagate them)."""


class IllConditionedWarning(NumericalWarning):
    """An expert driver's RCOND estimate flags the matrix as singular to
    working precision (the ``info = n+1`` condition)."""


class DriverFallbackWarning(NumericalWarning):
    """A driver degraded gracefully onto its fallback path (e.g.
    ``LA_POSV`` retrying through the symmetric-indefinite solver)."""


class BackendFallbackWarning(NumericalWarning):
    """The selected compute backend could not serve a routine (substrate
    not registered, routine missing, or dtype unsupported) and the call
    fell back to the ``reference`` kernels.  Announced once per
    (backend, routine) pair per process."""


class Info:
    """Mutable stand-in for FORTRAN's optional ``INTEGER, INTENT(OUT) :: INFO``.

    Passing an :class:`Info` instance to a driver suppresses the raise and
    records the status code instead, exactly like supplying the optional
    ``INFO`` argument in LAPACK90::

        info = Info()
        la_gesv(a, b, info=info)
        if info:            # truthy when info.value != 0
            handle(info.value)

    Beyond the raw code, the handle records graceful-degradation events:
    ``fallback`` names the substitute path a driver took (``None`` when the
    primary path succeeded) and ``rcond`` carries the reciprocal condition
    estimate when the fallback route computed one.  The resilience layer
    (:mod:`repro.resilience`) adds one more telemetry field: ``attempts``
    is the per-call kernel attempt trail (a tuple of
    ``"backend:routine#n:outcome"`` strings — only populated when a
    kernel failed, e.g. ``("accelerated:gesv#1:error=InjectedFault",
    "reference:gesv#2")`` for a failure served once by reference).

    The dispatch front end (:mod:`repro.dispatch_front`) adds three
    more: ``structure`` is the probed structure class the routing
    decision was based on, ``chosen_driver`` names the ``la_*`` /
    ``batch_*`` wrapper the call was routed to, and ``probe_cost`` is
    the wall-clock seconds the structure probe took (``0.0`` on a
    structure-cache hit).  All three stay ``None`` on direct driver
    calls.
    """

    __slots__ = ("value", "fallback", "rcond", "attempts", "structure",
                 "chosen_driver", "probe_cost")

    def __init__(self, value: int = 0):
        self.value = int(value)
        self.fallback: str | None = None
        self.rcond: float | None = None
        self.attempts: tuple | None = None
        self.structure: str | None = None
        self.chosen_driver: str | None = None
        self.probe_cost: float | None = None

    def __bool__(self) -> bool:
        return self.value != 0

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value

    def __eq__(self, other) -> bool:
        if isinstance(other, Info):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    # Equality is by code, so hash by code too (defining __eq__ alone
    # would have left the class silently unhashable).  Equality and hash
    # deliberately ignore the telemetry fields (fallback, rcond,
    # attempts): those depend on which backend happened to be healthy
    # and whether a call escalated — environment-dependent facts that
    # would make otherwise-identical outcomes compare unequal.  The
    # handle is mutable, so hash-based collections are only safe once a
    # driver has finished writing to it — the same caveat LAPACK's
    # INTENT(OUT) arguments carry.
    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        extras = []
        if self.fallback is not None:
            extras.append(f"fallback={self.fallback!r}")
        if self.rcond is not None:
            extras.append(f"rcond={self.rcond!r}")
        if self.attempts is not None:
            extras.append(f"attempts={self.attempts!r}")
        if self.structure is not None:
            extras.append(f"structure={self.structure!r}")
        if self.chosen_driver is not None:
            extras.append(f"chosen_driver={self.chosen_driver!r}")
        if self.probe_cost is not None:
            extras.append(f"probe_cost={self.probe_cost:.2e}")
        tail = "".join(", " + e for e in extras)
        return f"Info({self.value}{tail})"


def is_error_code(linfo):
    """True when *linfo* is error-class under the ``ERINFO`` contract.

    Error-class: positive computational failures, argument errors
    ``-1 … -99``, the allocation failure ``-100``, and the non-finite /
    deadline classes at or below ``NONFINITE``.  The warning band
    ``WORK_REDUCED >= linfo > NONFINITE`` and 0 are not errors.

    Elementwise on an integer array (a batch's code vector), so the
    scalar and vectorized verdicts come from the same predicate.
    """
    return ((linfo > 0) | ((linfo < 0) & (linfo > WORK_REDUCED))
            | (linfo <= NONFINITE))


def _error_for(srname: str, linfo: int) -> LinAlgError:
    """Build the most specific exception class for a raw ``linfo`` code."""
    if linfo <= DEADLINE:
        return DeadlineExceeded(srname)
    if linfo <= NONFINITE:
        return NonFiniteInput(srname, NONFINITE - linfo)
    if linfo == ALLOC_FAILED:
        return WorkspaceError(srname)
    if linfo < 0:
        return IllegalArgument(srname, -linfo)
    return ComputationalError(srname, linfo)


def erinfo(
    linfo: int,
    srname: str,
    info: Info | None = None,
    istat: int = 0,
    exc: LinAlgError | None = None,
    batch_index: int | None = None,
) -> None:
    """Python rendering of LAPACK90's ``ERINFO`` subroutine.

    Parameters
    ----------
    linfo
        The local status code computed by the driver.
    srname
        Name of the LAPACK90 routine, e.g. ``'LA_GESV'``.
    info
        The caller's optional :class:`Info` handle. When ``None`` and
        ``linfo`` signals an error, an exception is raised (the analogue of
        ``STOP`` after the error message). When supplied, the code is stored
        and no exception escapes.
    istat
        Allocation status, reported in the message for ``linfo = -100``.
    exc
        A pre-built specific exception to raise instead of the generic one
        (lets drivers raise :class:`SingularMatrix` etc. while still
        honouring the ``info=`` contract).
    batch_index
        For batched wrappers: the index of the problem within the stack
        that produced ``linfo``.  Recorded on the raised exception as
        ``exc.batch_index`` and appended to its message, so a failure in
        problem *k* of a ``batch_*`` call names *k* and the routine.

    Notes
    -----
    Warning-class codes — the band ``WORK_REDUCED >= linfo > NONFINITE``,
    i.e. ``-200 >= linfo > -1000`` (so ``-200``, ``-300``, …) — never
    terminate: they are stored in ``info`` when present, matching the
    paper's ``ERINFO`` listing.  Everything else that is nonzero is
    error-class: positive computational failures, argument errors
    ``-1 … -99``, the allocation failure ``-100``, and the non-finite
    input codes at or below ``NONFINITE`` (``-1000``).
    """
    if is_error_code(linfo) and info is None:
        err = exc if exc is not None else _error_for(srname, linfo)
        if batch_index is not None:
            err.batch_index = batch_index
            err.args = (f"{err.args[0] if err.args else ''}"
                        f" [batch problem {batch_index}]",)
        raise err
    if info is not None:
        info.value = int(linfo)


def xerbla(srname: str, position: int, detail: str = "") -> None:
    """LAPACK77's argument-error handler: always raises.

    The substrate layer (``repro.lapack77``) validates like the reference
    F77 code and calls ``xerbla`` on the first bad argument; there is no
    optional-INFO escape hatch at that level, exactly as in LAPACK77 where
    ``XERBLA`` stops the program.
    """
    raise IllegalArgument(srname.upper(), position, detail)
