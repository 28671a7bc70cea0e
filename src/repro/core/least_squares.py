"""Driver Routines for Linear Least Squares Problems (Appendix G, §3)."""

from __future__ import annotations

import numpy as np

from ..errors import Info
from ..backends.kernels import gels, gelss, gelsx
from .auxmod import as_matrix
from .shell import _unchanged, driver_shell

__all__ = ["la_gels", "la_gelsx", "la_gelss"]


def _ls_rhs(a, b):
    """Pad the RHS to ``max(m, n)`` rows (LAPACK's B layout) when needed.

    Returns ``(b_work, was_vec)``.
    """
    m, n = a.shape
    bmat, was_vec = as_matrix(b)
    rows = max(m, n)
    if bmat.shape[0] == rows:
        return bmat, was_vec
    bw = np.zeros((rows, bmat.shape[1]), dtype=np.result_type(a, bmat))
    bw[:bmat.shape[0]] = bmat
    return bw, was_vec


@driver_shell("la_gels", refused=_unchanged("b"))
def la_gels(a: np.ndarray, b: np.ndarray, trans: str = "N",
            info: Info | None = None) -> np.ndarray:
    """Solves over-determined or under-determined full-rank linear
    systems using a QR or LQ factorization of A
    (paper: ``CALL LA_GELS( A, B, TRANS=trans, INFO=info )``).

    ``b`` may have ``m`` rows (it is padded internally) or the LAPACK
    ``max(m, n)`` rows.  Returns the solution (the leading rows of the
    padded RHS):

    * ``trans='N'``: minimize ``‖A x − b‖`` (m ≥ n) or minimum-norm
      solution of ``A x = b`` (m < n);
    * ``trans='T'/'C'``: the same problems for ``op(A)``.
    """
    m, n = a.shape
    bw, was_vec = _ls_rhs(a, b)
    linfo = gels(a, bw, trans=trans)
    out_rows = n if trans.upper() == "N" else m
    return (bw[:out_rows, 0] if was_vec else bw[:out_rows]), linfo, None


@driver_shell("la_gelsx", refused=lambda linfo, b, **_: (b, 0))
def la_gelsx(a: np.ndarray, b: np.ndarray, rcond: float = -1.0,
             jpvt: np.ndarray | None = None,
             info: Info | None = None):
    """Computes the minimum-norm solution to a least squares problem
    using a complete orthogonal factorization (paper: ``CALL LA_GELSX(
    A, B, RANK=rank, JPVT=jpvt, RCOND=rcond, INFO=info )``).

    Returns ``(x, rank)``; ``jpvt`` on entry marks fixed columns
    (LAPACK-style), on exit holds the permutation.
    """
    n = a.shape[1]
    bw, was_vec = _ls_rhs(a, b)
    rank, perm, linfo = gelsx(a, bw, rcond=rcond, jpvt=jpvt)
    if jpvt is not None:
        jpvt[:] = perm
    return ((bw[:n, 0] if was_vec else bw[:n]), rank), linfo, None


@driver_shell("la_gelss",
              refused=lambda linfo, b, **_: (b, 0, np.zeros(0)))
def la_gelss(a: np.ndarray, b: np.ndarray, rcond: float = -1.0,
             info: Info | None = None):
    """Computes the minimum norm solution to a least squares problem
    using the singular value decomposition of A (paper: ``CALL LA_GELSS(
    A, B, RANK=rank, S=s, RCOND=rcond, INFO=info )``).

    Returns ``(x, rank, s)`` — solution, effective rank at threshold
    ``rcond·s₁``, and the singular values (descending).
    """
    n = a.shape[1]
    bw, was_vec = _ls_rhs(a, b)
    s, rank, linfo = gelss(a, bw, rcond=rcond)
    return ((bw[:n, 0] if was_vec else bw[:n]), rank, s), linfo, None
