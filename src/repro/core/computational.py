"""Some Computational Routines for Linear Equations and Eigenproblems
(Appendix G, §9) — the non-driver routines LAPACK90 exposes with full
generic interfaces, including the ``LA_GETRI`` of the paper's Appendix C
listing (workspace sizing via ``ilaenv`` and the −200 reduced-workspace
warning path)."""

from __future__ import annotations

import numpy as np

from ..config import ilaenv
from ..errors import Info, SingularMatrix, NotPositiveDefinite
from ..backends.kernels import (gecon, geequ, gerfs, getrf, getri, getrs,
                                hegst, hetrd, lange, lanhe, lansy, orgtr,
                                pocon, potrf, sygst, sytrd, trtrs, ungtr)
from .auxmod import as_matrix
from .shell import driver_shell

__all__ = ["la_getrf", "la_getrs", "la_trtrs", "la_getri", "la_gerfs",
           "la_geequ", "la_potrf", "la_sygst", "la_hegst", "la_sytrd",
           "la_hetrd", "la_orgtr", "la_ungtr"]


@driver_shell("la_getrf")
def la_getrf(a: np.ndarray, ipiv: np.ndarray | None = None,
             rcond: bool = False, norm: str = "1",
             info: Info | None = None):
    """Computes an LU factorization of a general rectangular matrix using
    partial pivoting with row interchanges; optionally estimates the
    reciprocal condition number when A is square (paper: ``CALL LA_GETRF(
    A, IPIV, RCOND=rcond, NORM=norm, INFO=info )``).

    Returns ``(ipiv, rcond_value)`` — ``rcond_value`` is ``None`` unless
    requested with ``rcond=True``.
    """
    rc = None
    anorm = lange(norm, a) if rcond else 0.0
    lpiv, linfo = getrf(a)
    if ipiv is not None:
        ipiv[:] = lpiv
    if linfo > 0:
        rc = 0.0 if rcond else None
    elif rcond:
        rc, _ = gecon(a, anorm, norm=norm)
        rc = min(rc, 1.0)
    return ((ipiv if ipiv is not None else lpiv), rc), linfo, \
        SingularMatrix


@driver_shell("la_getrs")
def la_getrs(a: np.ndarray, ipiv: np.ndarray, b: np.ndarray,
             trans: str = "N", info: Info | None = None) -> np.ndarray:
    """Solves a general system using the LU factorization computed by
    :func:`la_getrf` (paper: ``CALL LA_GETRS( A, IPIV, B, TRANS=trans,
    INFO=info )``)."""
    bmat, _ = as_matrix(b)
    return b, getrs(a, ipiv, bmat, trans=trans), None


@driver_shell("la_trtrs")
def la_trtrs(a: np.ndarray, b: np.ndarray, uplo: str = "U",
             trans: str = "N", diag: str = "N",
             info: Info | None = None) -> np.ndarray:
    """Solves a triangular system ``op(A) X = B`` by forward or backward
    substitution (``CALL LA_TRTRS( A, B, UPLO=uplo, TRANS=trans,
    DIAG=diag, INFO=info )``).

    Only the ``uplo`` triangle of ``a`` is referenced; a positive
    ``info = i`` reports an exactly zero ``A(i,i)`` (the solve is not
    performed then, matching LAPACK).
    """
    bmat, _ = as_matrix(b)
    return b, trtrs(a, bmat, uplo=uplo, trans=trans, diag=diag), \
        SingularMatrix


@driver_shell("la_getri")
def la_getri(a: np.ndarray, ipiv: np.ndarray,
             info: Info | None = None) -> np.ndarray:
    """Computes the inverse of a matrix from its LU factorization
    (paper Appendix C: ``LA_GETRI``).

    Mirrors the listing's workspace logic: size ``n·nb`` from ``ilaenv``,
    with the −200 warning path (reduced workspace → unblocked updates)
    reproduced through the substrate's ``lwork`` handling.
    """
    n = a.shape[0]
    if n == 0:
        return a, 0, None
    nb = ilaenv(1, "getri", "", n)
    if nb < 1 or nb >= n:
        nb = 1
    lwork = max(n * nb, 1)
    return a, getri(a, ipiv, lwork=lwork), SingularMatrix


@driver_shell("la_gerfs")
def la_gerfs(a: np.ndarray, af: np.ndarray, ipiv: np.ndarray,
             b: np.ndarray, x: np.ndarray, trans: str = "N",
             info: Info | None = None):
    """Improves the computed solution of ``A X = B`` (or ``AᵀX = B``) and
    provides forward/backward error bounds (paper: ``CALL LA_GERFS( A,
    AF, IPIV, B, X, TRANS=trans, FERR=ferr, BERR=berr, INFO=info )``).

    ``x`` is refined in place; returns ``(ferr, berr)``.
    """
    bmat, _ = as_matrix(b)
    xmat, _ = as_matrix(x)
    ferr, berr, linfo = gerfs(a, af, ipiv, bmat, xmat, trans=trans)
    return (ferr, berr), linfo, None


@driver_shell("la_geequ")
def la_geequ(a: np.ndarray, info: Info | None = None):
    """Computes row and column scalings intended to equilibrate a
    rectangular matrix and reduce its condition number (paper: ``CALL
    LA_GEEQU( A, R, C, ROWCND=rowcnd, COLCND=colcnd, AMAX=amax,
    INFO=info )``).

    Returns ``(r, c, rowcnd, colcnd, amax)``.
    """
    r, c, rowcnd, colcnd, amax, linfo = geequ(a)
    return (r, c, rowcnd, colcnd, amax), linfo, None


@driver_shell("la_potrf")
def la_potrf(a: np.ndarray, uplo: str = "U", rcond: bool = False,
             norm: str = "1", info: Info | None = None):
    """Computes the Cholesky factorization and optionally estimates the
    reciprocal condition number of a positive definite matrix (paper:
    ``CALL LA_POTRF( A, UPLO=uplo, RCOND=rcond, NORM=norm,
    INFO=info )``).

    Returns the condition estimate (``None`` unless requested).
    """
    rc = None
    hermitian = np.iscomplexobj(a)
    anorm = (lanhe(norm, a, uplo) if hermitian
             else lansy(norm, a, uplo)) if rcond else 0.0
    linfo = potrf(a, uplo)
    if linfo > 0:
        rc = 0.0 if rcond else None
    elif rcond:
        rc, _ = pocon(a, anorm, uplo)
        rc = min(rc, 1.0)
    return rc, linfo, NotPositiveDefinite


@driver_shell("la_sygst")
def la_sygst(a: np.ndarray, b: np.ndarray, itype: int = 1,
             uplo: str = "U", info: Info | None = None) -> np.ndarray:
    """Reduces a real symmetric-definite generalized eigenproblem to
    standard form, with B already Cholesky-factored by :func:`la_potrf`
    (paper: ``CALL LA_SYGST( A, B, ITYPE=itype, UPLO=uplo,
    INFO=info )``)."""
    return a, sygst(a, b, itype=itype, uplo=uplo), None


@driver_shell("la_hegst")
def la_hegst(a: np.ndarray, b: np.ndarray, itype: int = 1,
             uplo: str = "U", info: Info | None = None) -> np.ndarray:
    """Hermitian-definite analogue of :func:`la_sygst`
    (paper ``LA_HEGST``)."""
    return a, hegst(a, b, itype=itype, uplo=uplo), None


def _tridiagonal(reduce, a, tau, uplo):
    d, e, tau_out = reduce(a, uplo)
    if tau is not None:
        tau[:] = tau_out
        tau_out = tau
    return (d, e, tau_out), 0, None


@driver_shell("la_sytrd")
def la_sytrd(a: np.ndarray, tau: np.ndarray | None = None,
             uplo: str = "U", info: Info | None = None):
    """Reduces a real symmetric matrix to tridiagonal form
    ``Qᴴ A Q = T`` (paper: ``CALL LA_SYTRD( A, TAU, UPLO=uplo,
    INFO=info )``).

    Returns ``(d, e, tau)`` — the tridiagonal and the reflector scalars
    (the reflector vectors overwrite ``a``'s triangle).
    """
    return _tridiagonal(sytrd, a, tau, uplo)


@driver_shell("la_hetrd")
def la_hetrd(a: np.ndarray, tau: np.ndarray | None = None,
             uplo: str = "U", info: Info | None = None):
    """Hermitian tridiagonal reduction (paper ``LA_HETRD``); ``d``/``e``
    are real."""
    return _tridiagonal(hetrd, a, tau, uplo)


@driver_shell("la_orgtr")
def la_orgtr(a: np.ndarray, tau: np.ndarray, uplo: str = "U",
             info: Info | None = None) -> np.ndarray:
    """Generates the orthogonal matrix Q of the tridiagonal reduction
    from its reflectors (paper: ``CALL LA_ORGTR( A, TAU, UPLO=uplo,
    INFO=info )``)."""
    orgtr(a, tau, uplo)
    return a, 0, None


@driver_shell("la_ungtr")
def la_ungtr(a: np.ndarray, tau: np.ndarray, uplo: str = "U",
             info: Info | None = None) -> np.ndarray:
    """Unitary analogue of :func:`la_orgtr` (paper ``LA_UNGTR``)."""
    ungtr(a, tau, uplo)
    return a, 0, None
