"""Batched rendering of the ``INFO`` contract.

A batched call is many problems behind one ``ERINFO`` funnel, so the
handle must answer two questions the scalar :class:`repro.errors.Info`
cannot: *which* problem failed, and what happened to *each* problem.
:class:`BatchInfo` keeps the scalar surface (``value``/``bool``/``int``
compare on the aggregate code, telemetry excluded — so existing
``if info:`` call sites keep working) and adds a per-problem ``Info``
tuple underneath, following the per-entry status vector of the Demmel
et al. consistent-exception-handling proposal (arXiv:2207.09281).
"""

from __future__ import annotations

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

    A problem that degraded through a driver fallback is *not* a
    failure: its ``Info.fallback`` names the substitute path and its
    code may legitimately sit at the warning-ish ``n+1`` verdict, the
    same contract the scalar drivers honour by returning without
    raising after a recorded fallback.
    """

    __slots__ = ("problems",)

    def __init__(self, value: int = 0):
        super().__init__(value)
        self.problems: tuple = ()

    def _arm(self, batch: int) -> None:
        """Size the per-problem handles (called by the batch wrappers)."""
        self.problems = tuple(Info() for _ in range(batch))

    @property
    def batch(self) -> int:
        """Number of problems this handle was armed for."""
        return len(self.problems)

    @property
    def first_failure(self) -> int:
        """Index of the first problem whose code is error-class (and not
        a recorded fallback), or -1 when every problem succeeded."""
        for k, p in enumerate(self.problems):
            if p.fallback is None and is_error_code(p.value):
                return k
        return -1

    def codes(self) -> tuple:
        """Every per-problem code, in stack order."""
        return tuple(p.value for p in self.problems)

    def __repr__(self) -> str:
        base = super().__repr__()
        if not self.problems:
            return "Batch" + base
        nonzero = sum(1 for p in self.problems if p.value != 0)
        return ("Batch{} <{} problems, {} nonzero, first_failure={}>"
                .format(base, self.batch, nonzero, self.first_failure))
