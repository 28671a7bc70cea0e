"""Driver Routines for Linear Equations (paper Appendix G, §1).

Each wrapper follows the code shape of the paper's Appendix C listings:
initialize a local ``LINFO``, test the arguments (negative codes keyed to
argument positions), allocate any omitted workspace output, call the
LAPACK77 substrate, and report through ``ERINFO``.

All drivers overwrite ``a`` with its factorization and ``b`` with the
solution (the LAPACK90 in-place contract) and also *return* the solution
array for Pythonic chaining.  ``b`` may be shape ``(n,)`` or
``(n, nrhs)`` — the paper's ``xGESV1_F90`` vs ``xGESV_F90`` generic
resolution.

Every driver runs in the driver shell (:mod:`repro.core.shell`), whose
entry gate screens the operands for NaN/Inf per the active exception
policy and simulates the allocation fault; at n = 0 every driver here
but ``la_gbsv`` returns before the gate.  With ``fallbacks=True`` in
:func:`repro.policy.exception_policy` the three drivers with a natural
escape hatch degrade gracefully instead of failing:

========== ==============================  ===============================
driver     primary failure                 fallback
========== ==============================  ===============================
la_posv    Cholesky not positive definite  Bunch–Kaufman (``LA_SYSV`` /
                                           ``LA_HESV``) on the original A
la_gesv    zero pivot in the LU factor     expert ``LA_GESVX(FACT='E')``
                                           equilibrate-and-refine path
la_gbsv    zero pivot in the band factor   expert ``LA_GBSVX`` refine path
========== ==============================  ===============================

A taken fallback is announced with
:class:`repro.errors.DriverFallbackWarning` and recorded on the caller's
:class:`~repro.errors.Info` handle (``info.fallback``/``info.rcond``);
after a fallback the contents of ``a``/``ab`` (the abandoned partial
factor) are unspecified while ``b`` holds the fallback solution.
"""

from __future__ import annotations

import numpy as np

from ..errors import (Info, LinAlgError, NotPositiveDefinite,
                      SingularMatrix)
from ..backends.kernels import (gbsv, gtsv, gesv, hesv, hpsv, pbsv, posv,
                                ppsv, ptsv, spsv, sysv)
from ..policy import get_policy, has_nonfinite
from .auxmod import as_matrix
from .expert_linear import la_gbsvx, la_gesvx
from .shell import Fallback, driver_shell

__all__ = ["la_gesv", "la_gbsv", "la_gtsv", "la_posv", "la_ppsv",
           "la_pbsv", "la_ptsv", "la_sysv", "la_hesv", "la_spsv",
           "la_hpsv"]


def _fallback_posv(a_orig, bmat, uplo):
    """``la_posv``'s ladder: retry the (possibly indefinite) system
    through the Bunch–Kaufman symmetric/Hermitian-indefinite path."""
    solver, via = (hesv, "LA_HESV") if np.iscomplexobj(a_orig) \
        else (sysv, "LA_SYSV")
    b_try = bmat.copy()
    try:
        _, linfo2 = solver(a_orig, b_try, uplo)
    except LinAlgError:
        return None
    if linfo2 != 0 or has_nonfinite(b_try):
        return None
    bmat[:] = b_try
    return Fallback(via, None, 0)


def _expert_fallback(expert, via, a_orig, bmat, n, **options):
    """``la_gesv``/``la_gbsv``'s ladder: escalate to the expert
    driver's condition-estimate-and-refine path."""
    sub = Info()
    try:
        res = expert(a_orig, bmat.copy(), **options, info=sub)
    except LinAlgError:
        return None
    if sub.value not in (0, n + 1) or res.x is None:
        return None
    x2d, _ = as_matrix(res.x)
    if has_nonfinite(x2d):
        return None
    bmat[:] = x2d
    return Fallback(via, res.rcond, sub.value)


def _fallback_gesv(a_orig, bmat, n):
    return _expert_fallback(la_gesvx, "LA_GESVX(FACT='E')", a_orig, bmat,
                            n, fact="E")


@driver_shell("la_gesv")
def la_gesv(a: np.ndarray, b: np.ndarray, ipiv: np.ndarray | None = None,
            info: Info | None = None) -> np.ndarray:
    """Solves a general system of linear equations ``A X = B``
    (paper: ``CALL LA_GESV( A, B, IPIV=ipiv, INFO=info )``).

    Gaussian elimination with row interchanges factors ``A = Pᵀ L U``;
    the factored form then solves the system.

    Parameters
    ----------
    a : (n, n) array, REAL or COMPLEX
        On entry the matrix A; on exit the factors L and U (unit diagonal
        of L not stored).
    b : (n,) or (n, nrhs) array
        On entry the right-hand side(s); on exit the solution X.
    ipiv : optional (n,) integer array, output
        Pivot indices: row i was interchanged with row ``ipiv[i]``
        (0-based; the paper's 1-based values are these plus one).
    info : optional :class:`repro.errors.Info`
        LAPACK status. ``info = i > 0`` means ``U[i-1, i-1]`` is exactly
        zero (singular). Omit to have errors raised instead.

    Returns
    -------
    The solution array ``b``.
    """
    n = a.shape[0]
    if n == 0:
        return b, 0, None
    bmat, _ = as_matrix(b)
    pol = get_policy()
    a_orig = a.copy() if pol.fallbacks else None
    lpiv, linfo = gesv(a, bmat)
    if ipiv is not None:
        ipiv[:] = lpiv
    if linfo > 0 and pol.fallbacks:
        fallback = _fallback_gesv(a_orig, bmat, n)
        if fallback:
            return b, fallback.linfo, fallback
    return b, linfo, SingularMatrix


@driver_shell("la_gbsv")
def la_gbsv(ab: np.ndarray, b: np.ndarray, kl: int | None = None,
            ipiv: np.ndarray | None = None,
            info: Info | None = None) -> np.ndarray:
    """Solves a general band system of linear equations ``A X = B``
    (paper: ``CALL LA_GBSV( AB, B, KL=kl, IPIV=ipiv, INFO=info )``).

    ``ab`` uses LAPACK's factored-band layout with ``2·kl + ku + 1``
    rows (the input matrix in rows ``kl``..; fill-in space above).  When
    ``kl`` is omitted it defaults to ``(rows − 1) // 3`` — the LAPACK90
    convention covering the common ``kl = ku`` case.
    """
    n = ab.shape[1]
    rows = ab.shape[0]
    if kl is None:
        kl = (rows - 1) // 3
    ku = rows - 2 * kl - 1
    bmat, _ = as_matrix(b)
    pol = get_policy()
    ab_orig = ab[kl:, :].copy() if pol.fallbacks else None
    lpiv, linfo = gbsv(ab, kl, ku, bmat)
    if ipiv is not None:
        ipiv[:] = lpiv
    if linfo > 0 and pol.fallbacks:
        fallback = _expert_fallback(la_gbsvx, "LA_GBSVX", ab_orig, bmat, n,
                                    kl=kl)
        if fallback:
            return b, fallback.linfo, fallback
    return b, linfo, SingularMatrix


@driver_shell("la_gtsv")
def la_gtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray,
            info: Info | None = None) -> np.ndarray:
    """Solves a general tridiagonal system of linear equations ``A X = B``
    (paper: ``CALL LA_GTSV( DL, D, DU, B, INFO=info )``).

    ``dl``/``d``/``du`` are the sub-, main and superdiagonal; all three
    (and ``b``) are overwritten.
    """
    if d.shape[0] == 0:
        return b, 0, None
    bmat, _ = as_matrix(b)
    return b, gtsv(dl, d, du, bmat), SingularMatrix


@driver_shell("la_posv")
def la_posv(a: np.ndarray, b: np.ndarray, uplo: str = "U",
            info: Info | None = None) -> np.ndarray:
    """Solves a symmetric/Hermitian positive definite system ``A X = B``
    (paper: ``CALL LA_POSV( A, B, UPLO=uplo, INFO=info )``).

    Only the ``uplo`` triangle of ``a`` is referenced; on exit it holds
    the Cholesky factor.
    """
    if a.shape[0] == 0:
        return b, 0, None
    bmat, _ = as_matrix(b)
    pol = get_policy()
    a_orig = a.copy() if pol.fallbacks else None
    linfo = posv(a, bmat, uplo)
    if linfo > 0 and pol.fallbacks:
        fallback = _fallback_posv(a_orig, bmat, uplo)
        if fallback:
            return b, fallback.linfo, fallback
    return b, linfo, NotPositiveDefinite


@driver_shell("la_ppsv")
def la_ppsv(ap: np.ndarray, b: np.ndarray, uplo: str = "U",
            info: Info | None = None) -> np.ndarray:
    """Solves a symmetric/Hermitian positive definite system with A in
    packed storage (paper: ``CALL LA_PPSV( AP, B, UPLO=uplo,
    INFO=info )``)."""
    if b.shape[0] == 0:
        return b, 0, None
    bmat, _ = as_matrix(b)
    return b, ppsv(ap, bmat, uplo), NotPositiveDefinite


@driver_shell("la_pbsv")
def la_pbsv(ab: np.ndarray, b: np.ndarray, uplo: str = "U",
            info: Info | None = None) -> np.ndarray:
    """Solves a symmetric/Hermitian positive definite band system
    (paper: ``CALL LA_PBSV( AB, B, UPLO=uplo, INFO=info )``).

    ``ab`` has ``kd + 1`` rows in LAPACK symmetric band storage.
    """
    if ab.shape[1] == 0:
        return b, 0, None
    bmat, _ = as_matrix(b)
    return b, pbsv(ab, bmat, uplo), NotPositiveDefinite


@driver_shell("la_ptsv")
def la_ptsv(d: np.ndarray, e: np.ndarray, b: np.ndarray,
            info: Info | None = None) -> np.ndarray:
    """Solves a symmetric/Hermitian positive definite tridiagonal system
    (paper: ``CALL LA_PTSV( D, E, B, INFO=info )``).

    ``d`` is the (real) diagonal, ``e`` the subdiagonal; both receive the
    ``L D Lᴴ`` factors.
    """
    if d.shape[0] == 0:
        return b, 0, None
    bmat, _ = as_matrix(b)
    return b, ptsv(d, e, bmat), NotPositiveDefinite


def _indef_driver(solver, a, b, uplo, ipiv):
    if b.shape[0] == 0:
        return b, 0, None
    bmat, _ = as_matrix(b)
    lpiv, linfo = solver(a, bmat, uplo)
    if ipiv is not None:
        ipiv[:] = lpiv
    return b, linfo, SingularMatrix


@driver_shell("la_sysv")
def la_sysv(a: np.ndarray, b: np.ndarray, uplo: str = "U",
            ipiv: np.ndarray | None = None,
            info: Info | None = None) -> np.ndarray:
    """Solves a symmetric (possibly complex symmetric) indefinite system
    by Bunch–Kaufman diagonal pivoting (paper: ``CALL LA_SYSV( A, B,
    UPLO=uplo, IPIV=ipiv, INFO=info )``)."""
    return _indef_driver(sysv, a, b, uplo, ipiv)


@driver_shell("la_hesv")
def la_hesv(a: np.ndarray, b: np.ndarray, uplo: str = "U",
            ipiv: np.ndarray | None = None,
            info: Info | None = None) -> np.ndarray:
    """Solves a complex Hermitian indefinite system (``LA_HESV``)."""
    return _indef_driver(hesv, a, b, uplo, ipiv)


@driver_shell("la_spsv")
def la_spsv(ap: np.ndarray, b: np.ndarray, uplo: str = "U",
            ipiv: np.ndarray | None = None,
            info: Info | None = None) -> np.ndarray:
    """Solves a symmetric indefinite system in packed storage
    (``LA_SPSV``)."""
    return _indef_driver(spsv, ap, b, uplo, ipiv)


@driver_shell("la_hpsv")
def la_hpsv(ap: np.ndarray, b: np.ndarray, uplo: str = "U",
            ipiv: np.ndarray | None = None,
            info: Info | None = None) -> np.ndarray:
    """Solves a complex Hermitian indefinite system in packed storage
    (``LA_HPSV``)."""
    return _indef_driver(hpsv, ap, b, uplo, ipiv)
