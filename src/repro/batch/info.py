"""Batched rendering of the ``INFO`` contract.

A batched call is many problems behind one ``ERINFO`` funnel, so the
handle must answer two questions the scalar :class:`repro.errors.Info`
cannot: *which* problem failed, and what happened to *each* problem.
:class:`BatchInfo` keeps the scalar surface (``value``/``bool``/``int``
compare on the aggregate code, telemetry excluded — so existing
``if info:`` call sites keep working) and adds per-problem codes
underneath: an int64 code vector, the per-entry status vector of the
Demmel et al. consistent-exception-handling proposal
(arXiv:2207.09281), with a per-problem ``Info`` tuple built from it
only when read.
"""

from __future__ import annotations

import numpy as np

from ..errors import Info, is_error_code

__all__ = ["BatchInfo"]


class BatchInfo(Info):
    """An :class:`~repro.errors.Info` aggregating one handle per problem.

    ``value`` carries the aggregate verdict the wrapper reported through
    ``erinfo`` (the first failing problem's code, or 0); ``problems`` is
    one scalar ``Info`` per problem in stack order, each carrying its
    own code plus fallback/attempts telemetry::

        info = BatchInfo()
        batch_gesv(a, b, info=info)
        if info:                      # aggregate, like scalar Info
            k = info.first_failure    # which problem
            codes = info.codes()      # every per-problem code

    ``problems`` is built from the code vector on first access (the
    per-problem paths read it to record telemetry) and is the source of
    truth from then on, so a stack that crossed the seam once and
    nobody asks about costs no per-problem objects.

    A problem that degraded through a driver fallback is *not* a
    failure: its ``Info.fallback`` names the substitute path and its
    code may legitimately sit at the warning-ish ``n+1`` verdict, the
    same contract the scalar drivers honour by returning without
    raising after a recorded fallback.
    """

    __slots__ = ("_codes", "_problems")

    def __init__(self, value: int = 0):
        super().__init__(value)
        self._codes = np.zeros(0, dtype=np.int64)
        self._problems: tuple | None = ()

    def _arm(self, batch: int, codes=None) -> None:
        """Take ``codes``, an int64 vector of ``batch`` codes the batch
        wrapper hands over, as the code vector, or start from all zeros;
        the per-problem handles wait for a reader."""
        self._codes = np.zeros(batch, dtype=np.int64) if codes is None \
            else codes
        self._problems = None

    @property
    def problems(self) -> tuple:
        """One scalar ``Info`` per problem, in stack order (built from
        the code vector on first access, the same tuple after)."""
        if self._problems is None:
            self._problems = tuple(map(Info, self._codes.tolist()))
        return self._problems

    @property
    def batch(self) -> int:
        """Number of problems this handle was armed for."""
        return len(self._codes)

    @property
    def first_failure(self) -> int:
        """Index of the first problem whose code is error-class (and not
        a recorded fallback), or -1 when every problem succeeded."""
        if self._problems is None:
            if not self._codes.any():
                return -1
            failed = is_error_code(self._codes)
        else:
            failed = [p.fallback is None and is_error_code(p.value)
                      for p in self._problems]
        hits = np.flatnonzero(failed)
        return int(hits[0]) if hits.size else -1

    def codes(self) -> tuple:
        """Every per-problem code, in stack order."""
        if self._problems is None:
            return tuple(self._codes.tolist())
        return tuple(p.value for p in self._problems)

    def __repr__(self) -> str:
        base = super().__repr__()
        if not self.batch:
            return "Batch" + base
        nonzero = sum(1 for code in self.codes() if code != 0)
        return ("Batch{} <{} problems, {} nonzero, first_failure={}>"
                .format(base, self.batch, nonzero, self.first_failure))
