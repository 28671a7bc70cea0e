"""Driver Routines for Generalized Eigenvalue and Singular Value Problems
(Appendix G, §8)."""

from __future__ import annotations

import numpy as np

from ..errors import Info, NoConvergence, NotPositiveDefinite
from ..backends.kernels import (gegs, gegv, ggsvd, hbgv, hegv, hpgv, sbgv,
                                spgv, sygv)
from .eigen import _jobz, _store, _want, _no_values, _no_values_z
from .shell import driver_shell

__all__ = ["la_sygv", "la_hegv", "la_spgv", "la_hpgv", "la_sbgv",
           "la_hbgv", "la_gegs", "la_gegv", "la_ggsvd"]


def _definite(srname, linfo, n):
    """``info = n + i``: B is not positive definite at minor *i*."""
    if linfo > n:
        return NotPositiveDefinite(srname, linfo - n)
    return NoConvergence(srname, linfo) if linfo > 0 else None


def _gv(srname, driver, a, b, w, itype, jobz, uplo):
    wout, linfo = driver(a, b, itype=itype, jobz=jobz, uplo=uplo)
    return _store(w, wout), linfo, _definite(srname, linfo, a.shape[0])


@driver_shell("la_sygv", refused=_no_values)
def la_sygv(a: np.ndarray, b: np.ndarray, w: np.ndarray | None = None,
            itype: int = 1, jobz: str = "N", uplo: str = "U",
            info: Info | None = None) -> np.ndarray:
    """Computes all eigenvalues (and optionally eigenvectors) of a real
    generalized symmetric-definite eigenproblem (paper: ``CALL LA_SYGV(
    A, B, W, ITYPE=itype, JOBZ=jobz, UPLO=uplo, INFO=info )``).

    itype 1: ``A x = λ B x``; 2: ``A B x = λ x``; 3: ``B A x = λ x``.
    With ``jobz='V'`` the eigenvectors overwrite ``a``; ``b`` receives
    the Cholesky factor of B.  ``info = n + i`` flags B not positive
    definite at minor *i*.
    """
    return _gv("LA_SYGV", sygv, a, b, w, itype, jobz, uplo)


@driver_shell("la_hegv", refused=_no_values)
def la_hegv(a: np.ndarray, b: np.ndarray, w: np.ndarray | None = None,
            itype: int = 1, jobz: str = "N", uplo: str = "U",
            info: Info | None = None) -> np.ndarray:
    """Complex Hermitian-definite generalized eigen driver
    (paper ``LA_HEGV``)."""
    return _gv("LA_HEGV", hegv, a, b, w, itype, jobz, uplo)


def _packed_gv(srname, driver, ap, bp, w, itype, uplo, z):
    ln = ap.shape[0]
    n = int((np.sqrt(8.0 * ln + 1.0) - 1.0) / 2.0 + 0.5)
    wout, zv, linfo = driver(ap, bp, n, itype=itype, jobz=_jobz(z),
                             uplo=uplo)
    wout = _store(w, wout)
    out = (wout, _store(z, zv)) if _want(z) else wout
    return out, linfo, _definite(srname, linfo, n)


@driver_shell("la_spgv", refused=_no_values_z)
def la_spgv(ap, bp, w=None, itype: int = 1, uplo: str = "U", z=None,
            info: Info | None = None):
    """Packed generalized symmetric-definite driver (paper ``LA_SPGV``)."""
    return _packed_gv("LA_SPGV", spgv, ap, bp, w, itype, uplo, z)


@driver_shell("la_hpgv", refused=_no_values_z)
def la_hpgv(ap, bp, w=None, itype: int = 1, uplo: str = "U", z=None,
            info: Info | None = None):
    """Packed generalized Hermitian-definite driver (paper ``LA_HPGV``)."""
    return _packed_gv("LA_HPGV", spgv, ap, bp, w, itype, uplo, z)


def _band_gv(srname, driver, ab, bb, w, uplo, z):
    n = ab.shape[1]
    wout, zv, linfo = driver(ab, bb, n, jobz=_jobz(z), uplo=uplo)
    wout = _store(w, wout)
    out = (wout, _store(z, zv)) if _want(z) else wout
    return out, linfo, _definite(srname, linfo, n)


@driver_shell("la_sbgv", refused=_no_values_z)
def la_sbgv(ab, bb, w=None, uplo: str = "U", z=None,
            info: Info | None = None):
    """Band generalized symmetric-definite driver (paper ``LA_SBGV``)."""
    return _band_gv("LA_SBGV", sbgv, ab, bb, w, uplo, z)


@driver_shell("la_hbgv", refused=_no_values_z)
def la_hbgv(ab, bb, w=None, uplo: str = "U", z=None,
            info: Info | None = None):
    """Band generalized Hermitian-definite driver (paper ``LA_HBGV``)."""
    return _band_gv("LA_HBGV", sbgv, ab, bb, w, uplo, z)


def _no_pencil(linfo, **_):
    return np.zeros(0, complex), np.zeros(0, complex)


@driver_shell("la_gegs", refused=_no_pencil)
def la_gegs(a: np.ndarray, b: np.ndarray, vsl=None, vsr=None,
            info: Info | None = None):
    """Generalized Schur factorization of a nonsymmetric pencil (A, B)
    (paper: ``CALL LA_GEGS( A, B, α=alpha, BETA=beta, VSL=vsl,
    VSR=vsr, INFO=info )``).

    ``a``/``b`` are replaced by the (complex) triangular Schur pair; the
    generalized eigenvalues are the returned ``(alpha, beta)`` pairs (the
    paper's ``α ::= ALPHAR, ALPHAI | ALPHA`` collapses to complex
    ``alpha``).  Returns ``(alpha, beta[, vsl][, vsr])``.
    """
    alpha, beta, s, t, q, z, linfo = gegs(a, b)
    if np.iscomplexobj(a):
        a[...] = s
        b[...] = t
    out = [alpha, beta]
    if _want(vsl):
        out.append(_store(vsl, q))
    if _want(vsr):
        out.append(_store(vsr, z))
    if not _want(vsl) and not _want(vsr):
        out.extend([s, t])
    return tuple(out), linfo, NoConvergence


@driver_shell("la_gegv", refused=_no_pencil)
def la_gegv(a: np.ndarray, b: np.ndarray, vl=None, vr=None,
            info: Info | None = None):
    """Generalized eigenvalues (and optionally eigenvectors) of a pair of
    nonsymmetric matrices (paper: ``CALL LA_GEGV( A, B, α=alpha,
    BETA=beta, VL=vl, VR=vr, INFO=info )``).

    Returns ``(alpha, beta[, vl][, vr])``; eigenvalue *i* is
    ``alpha[i]/beta[i]`` (``beta ≈ 0`` flags an infinite eigenvalue).
    """
    alpha, beta, vlv, vrv, linfo = gegv(a, b, want_vl=_want(vl),
                                        want_vr=_want(vr))
    out = [alpha, beta]
    if _want(vl):
        out.append(_store(vl, vlv))
    if _want(vr):
        out.append(_store(vr, vrv))
    return tuple(out), linfo, NoConvergence


@driver_shell("la_ggsvd")
def la_ggsvd(a: np.ndarray, b: np.ndarray, info: Info | None = None):
    """Computes the generalized singular value decomposition
    (paper: ``CALL LA_GGSVD( A, B, ALPHA, BETA, K=k, L=l, U=u, V=v,
    Q=q, INFO=info )``).

    Returns ``(alpha, beta, k, l, u, v, q, r)`` with
    ``A = U·D1·R·Qᴴ``, ``B = V·D2·R·Qᴴ`` (see
    :func:`repro.lapack77.gsvd.ggsvd` for the D1/D2 layout).
    """
    alpha, beta, k, l, u, v, q, r, linfo = ggsvd(a, b)
    return (alpha, beta, k, l, u, v, q, r), linfo, NoConvergence
