"""Driver Routines for generalized Linear Least Squares Problems
(Appendix G, §4): the LSE and GLM problems."""

from __future__ import annotations

import numpy as np

from ..errors import Info
from ..backends.kernels import gglse, ggglm
from .shell import _unchanged, driver_shell

__all__ = ["la_gglse", "la_ggglm"]


@driver_shell("la_gglse", refused=_unchanged("x"))
def la_gglse(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray,
             x: np.ndarray | None = None,
             info: Info | None = None) -> np.ndarray:
    """Solves the linear equality-constrained least squares (LSE)
    problem: minimize ``‖c − A x‖₂`` subject to ``B x = d``
    (paper: ``CALL LA_GGLSE( A, B, C, D, X, INFO=info )``).

    ``a`` (m×n), ``b`` (p×n) with ``p ≤ n ≤ m+p``; all inputs are
    destroyed.  The solution is returned (and written into ``x`` when
    supplied).
    """
    sol, linfo = gglse(a, b, c, d)
    if x is not None:
        x[:] = sol
    return sol, linfo, None


@driver_shell("la_ggglm", refused=lambda linfo, x=None, y=None, **_: (x, y))
def la_ggglm(a: np.ndarray, b: np.ndarray, d: np.ndarray,
             x: np.ndarray | None = None, y: np.ndarray | None = None,
             info: Info | None = None):
    """Solves a general Gauss–Markov linear model (GLM) problem:
    minimize ``‖y‖₂`` subject to ``d = A x + B y``
    (paper: ``CALL LA_GGGLM( A, B, D, X, Y, INFO=info )``).

    ``a`` (n×m), ``b`` (n×p) with ``m ≤ n ≤ m+p``.  Returns ``(x, y)``.
    """
    xs, ys, linfo = ggglm(a, b, d)
    if x is not None:
        x[:] = xs
    if y is not None:
        y[:] = ys
    return (xs, ys), linfo, None
