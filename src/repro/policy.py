"""Process-global numerical-exception policy (check / warn / propagate).

LAPACK90 funnels every driver's status through one routine (``ERINFO``,
see :mod:`repro.errors`), but the reference contract only covers argument
errors and exact computational failures.  Non-finite inputs (NaN/Inf)
either propagate silently or surface as a misleading
``SingularMatrix``/``NotPositiveDefinite`` — the inconsistency catalogued
by Demmel et al., *Proposed Consistent Exception Handling for the BLAS
and LAPACK* (arXiv:2207.09281).  This module makes the behaviour a
uniform, explicit policy:

* ``nonfinite="check"`` — drivers screen their array arguments and
  report :class:`repro.errors.NonFiniteInput` (code ``NONFINITE - i``)
  through the normal ERINFO channel;
* ``nonfinite="warn"`` — a :class:`repro.errors.NonFiniteWarning` is
  emitted and the computation proceeds;
* ``nonfinite="propagate"`` (default) — no screening; NaN/Inf flow
  through arithmetic exactly as in reference LAPACK.

Two further knobs complete the policy:

* ``rcond_guard`` — ``"warn"`` makes the expert drivers emit a
  :class:`repro.errors.IllConditionedWarning` alongside their uniform
  ``info = n+1`` verdict when RCOND drops below machine epsilon
  (``"silent"``, the default, keeps today's store-only behaviour);
* ``fallbacks`` — enables the graceful-degradation ladder in the simple
  drivers (``la_posv`` → symmetric-indefinite retry, ``la_gesv`` /
  ``la_gbsv`` → expert equilibrate-and-refine retry), each retry being
  recorded on the caller's :class:`repro.errors.Info` handle and
  announced with a :class:`repro.errors.DriverFallbackWarning`.

The policy is process-global and mutable (like the block-size table in
:mod:`repro.config`); :func:`exception_policy` scopes a change to a
``with`` block.

This module also owns the shared finiteness predicates so the substrate
kernels agree with reference LAPACK in ``"propagate"`` mode: reference
``xPOTF2``/``xPBTRF`` test ``AJJ <= 0 .OR. DISNAN(AJJ)`` — an infinite
pivot is *not* a failure there, it propagates — and ``xNRM2`` returns the
non-finite magnitude unchanged.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ._sync import STATE_LOCK
from .errors import (NONFINITE, IllConditionedWarning, NonFiniteInput,
                     NonFiniteWarning, warn_at_caller)

__all__ = ["ExceptionPolicy", "get_policy", "set_policy",
           "exception_policy", "screening", "screen", "screen_stack",
           "illcond_event", "disnan", "notfinite", "has_nonfinite"]

_NONFINITE_MODES = ("check", "warn", "propagate")
_RCOND_MODES = ("warn", "silent")


@dataclass
class ExceptionPolicy:
    """The three knobs described in the module docstring."""
    nonfinite: str = "propagate"
    rcond_guard: str = "silent"
    fallbacks: bool = False


_POLICY = ExceptionPolicy()


def get_policy() -> ExceptionPolicy:
    """The live process-global policy object."""
    return _POLICY  # laflow: benign-race — stable object identity; knob reads are word-sized and tear-free


def set_policy(nonfinite: str | None = None, rcond_guard: str | None = None,
               fallbacks: bool | None = None) -> ExceptionPolicy:
    """Mutate the process-global policy; ``None`` leaves a knob alone."""
    if nonfinite is not None and nonfinite not in _NONFINITE_MODES:
        raise ValueError(f"nonfinite mode must be one of "
                         f"{_NONFINITE_MODES}, got {nonfinite!r}")
    if rcond_guard is not None and rcond_guard not in _RCOND_MODES:
        raise ValueError(f"rcond_guard must be one of {_RCOND_MODES}, "
                         f"got {rcond_guard!r}")
    with STATE_LOCK:
        if nonfinite is not None:
            _POLICY.nonfinite = nonfinite
        if rcond_guard is not None:
            _POLICY.rcond_guard = rcond_guard
        if fallbacks is not None:
            _POLICY.fallbacks = bool(fallbacks)
        return _POLICY


@contextmanager
def exception_policy(nonfinite: str | None = None,
                     rcond_guard: str | None = None,
                     fallbacks: bool | None = None):
    """Scope a policy change to a ``with`` block::

        with exception_policy(nonfinite="check", fallbacks=True):
            la_gesv(a, b)
    """
    with STATE_LOCK:
        old = (_POLICY.nonfinite, _POLICY.rcond_guard, _POLICY.fallbacks)
        set_policy(nonfinite, rcond_guard, fallbacks)
    try:
        yield _POLICY
    finally:
        set_policy(nonfinite=old[0], rcond_guard=old[1],
                   fallbacks=old[2])


# ---------------------------------------------------------------------------
# Shared finiteness predicates (the one home for what used to be ad-hoc
# checks in blas.level1, lapack77.chol and lapack77.banded).

def disnan(x) -> bool:
    """Scalar NaN test — LAPACK's ``DISNAN``.  A pivot test must use this
    (not ``isfinite``): reference ``xPOTF2`` lets an infinite pivot
    propagate rather than mislabel it *not positive definite*."""
    return bool(np.isnan(x))


def notfinite(x) -> bool:
    """Scalar NaN-or-Inf test (``.NOT. ISFINITE`` in the proposed
    consistent-exception-handling BLAS)."""
    return not np.isfinite(x)


def has_nonfinite(a: np.ndarray) -> bool:
    """True when the array holds at least one NaN or Inf entry."""
    return a.size > 0 and not bool(np.all(np.isfinite(a)))


# ---------------------------------------------------------------------------
# Driver-side hooks.

def screening() -> bool:
    """True unless the non-finite mode is ``"propagate"``: whether
    :func:`screen` can return anything but ``(0, None)``."""
    return _POLICY.nonfinite != "propagate"  # laflow: benign-race — one tear-free knob read; screen() re-reads the mode


def screen(srname: str, *args):
    """Screen driver inputs per the active policy.

    ``args`` are ``(position, array)`` pairs, 1-based positions matching
    the driver's documented argument order.  Returns ``(linfo, exc)`` —
    ``(0, None)`` when nothing (or nothing actionable) was found, else
    the ``NONFINITE - i`` code with a pre-built
    :class:`repro.errors.NonFiniteInput` for ERINFO to raise or store.
    """
    mode = _POLICY.nonfinite  # laflow: benign-race — one tear-free knob read snapshots the mode for this screen
    if mode == "propagate":
        return 0, None
    for position, arr in args:
        if not isinstance(arr, np.ndarray) or arr.dtype.kind not in "fc":
            continue
        if has_nonfinite(arr):
            if mode == "check":
                return NONFINITE - position, NonFiniteInput(srname, position)
            warn_at_caller(
                f"{srname}: argument {position} contains non-finite "
                "entries; they will propagate through the computation",
                NonFiniteWarning)
    return 0, None


def screen_stack(srname: str, batch: int, *args):
    """Vectorized batch-mode screen: one pass per stacked operand.

    ``args`` are ``(position, stack)`` pairs whose stacks carry a
    leading batch axis of size *batch*.  Returns ``(codes, warned)``:

    * ``codes`` — int64 array of length *batch*; in ``"check"`` mode
      problem *k*'s entry is the ``NONFINITE - i`` code of its first
      offending argument (argument order wins, matching the per-problem
      :func:`screen` ladder), 0 when clean;
    * ``warned`` — in ``"warn"`` mode, a list of
      ``(position, indices)`` pairs naming the offending problems per
      argument, for the caller to announce batch-indexed (the policy
      layer does not know the batch wrapper's rate-limit windows).

    ``"propagate"`` mode returns all-zero codes and no warnings, like
    the scalar screen.
    """
    codes = np.zeros(batch, dtype=np.int64)
    mode = _POLICY.nonfinite  # laflow: benign-race — one tear-free knob read snapshots the mode for this screen
    if mode == "propagate":
        return codes, []
    warned = []
    for position, stack in args:
        if not isinstance(stack, np.ndarray) \
                or stack.dtype.kind not in "fc" or stack.size == 0:
            continue
        bad = ~np.all(np.isfinite(stack.reshape(batch, -1)), axis=1)
        if not bad.any():
            continue
        if mode == "check":
            hit = bad & (codes == 0)
            codes[hit] = NONFINITE - position
        else:
            warned.append((position, np.nonzero(bad)[0]))
    return codes, warned


def illcond_event(srname: str, rcond: float) -> None:
    """Report an ill-conditioning verdict (RCOND below machine epsilon)
    per the active policy.  The caller still sets ``info = n+1``; this
    hook only decides whether the condition is also announced."""
    if _POLICY.rcond_guard == "warn":  # laflow: benign-race — one tear-free knob read; worst case one warning under the departing mode
        warn_at_caller(
            f"{srname}: matrix is singular to working precision "
            f"(RCOND = {rcond:.3e}); results carry info = n+1",
            IllConditionedWarning)

