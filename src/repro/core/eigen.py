"""Driver Routines for Standard Eigenvalue and Singular Value Problems
(Appendix G, §5).

Optional-output conventions (the Python rendering of F90 optional
arguments):

* ``jobz``/vector requests — passing an output array (or ``True``) for
  ``z``/``vs``/``vl``/``vr``/``u``/``vt`` requests that quantity, exactly
  like supplying the optional argument in LAPACK90.
* Eigenvalues are returned (``w``; complex for the nonsymmetric drivers —
  the paper's ``ω ::= WR, WI | W`` collapses to one complex array).
"""

from __future__ import annotations

import numpy as np

from ..errors import Info, NoConvergence
from ..backends.kernels import (gees, geev, gesvd, hbev, heev, hpev, sbev,
                                spev, stev, syev)
from .shell import driver_shell

__all__ = ["la_syev", "la_heev", "la_spev", "la_hpev", "la_sbev",
           "la_hbev", "la_stev", "la_gees", "la_geev", "la_gesvd"]


def _want(flag) -> bool:
    return flag is not None and flag is not False


def _store(target, value):
    if isinstance(target, np.ndarray):
        target[...] = value
        return target
    return value


def _jobz(flag) -> str:
    return "V" if _want(flag) else "N"


def _dense_ev(driver, a, w, jobz, uplo):
    wout, linfo = driver(a, jobz=jobz, uplo=uplo)
    return _store(w, wout), linfo, NoConvergence


@driver_shell("la_syev")
def la_syev(a: np.ndarray, w: np.ndarray | None = None, jobz: str = "N",
            uplo: str = "U", info: Info | None = None) -> np.ndarray:
    """Computes all eigenvalues and, optionally, eigenvectors of a real
    symmetric matrix A (paper: ``CALL LA_SYEV( A, W, JOBZ=jobz,
    UPLO=uplo, INFO=info )``).

    With ``jobz='V'`` the eigenvectors overwrite ``a`` (column *i* pairs
    with ``w[i]``).  Returns the ascending eigenvalues.
    """
    return _dense_ev(syev, a, w, jobz, uplo)


@driver_shell("la_heev")
def la_heev(a: np.ndarray, w: np.ndarray | None = None, jobz: str = "N",
            uplo: str = "U", info: Info | None = None) -> np.ndarray:
    """Hermitian analogue of :func:`la_syev` (paper ``LA_HEEV``);
    eigenvalues are real."""
    return _dense_ev(heev, a, w, jobz, uplo)


def _values_z(w, z, wout, zv):
    """``w`` (or ``(w, z)`` when eigenvectors were requested)."""
    wout = _store(w, wout)
    return (wout, _store(z, zv)) if _want(z) else wout


def _packed_ev(driver, ap, w, uplo, z):
    ln = ap.shape[0]
    n = int((np.sqrt(8.0 * ln + 1.0) - 1.0) / 2.0 + 0.5)
    wout, zv, linfo = driver(ap, n, jobz=_jobz(z), uplo=uplo)
    return _values_z(w, z, wout, zv), linfo, NoConvergence


@driver_shell("la_spev")
def la_spev(ap: np.ndarray, w: np.ndarray | None = None, uplo: str = "U",
            z=None, info: Info | None = None):
    """Computes all eigenvalues and, optionally, eigenvectors of a real
    symmetric matrix A in packed storage (paper ``LA_SPEV``).

    Pass ``z=True`` (or an output array) to request eigenvectors; then
    ``(w, z)`` is returned.
    """
    return _packed_ev(spev, ap, w, uplo, z)


@driver_shell("la_hpev")
def la_hpev(ap: np.ndarray, w: np.ndarray | None = None, uplo: str = "U",
            z=None, info: Info | None = None):
    """Packed Hermitian eigen driver (paper ``LA_HPEV``)."""
    return _packed_ev(hpev, ap, w, uplo, z)


def _band_ev(driver, ab, w, uplo, z):
    wout, zv, linfo = driver(ab, ab.shape[1], jobz=_jobz(z), uplo=uplo)
    return _values_z(w, z, wout, zv), linfo, NoConvergence


@driver_shell("la_sbev")
def la_sbev(ab: np.ndarray, w: np.ndarray | None = None, uplo: str = "U",
            z=None, info: Info | None = None):
    """Symmetric band eigen driver (paper ``LA_SBEV``); ``ab`` is the
    ``(kd+1, n)`` symmetric band storage."""
    return _band_ev(sbev, ab, w, uplo, z)


@driver_shell("la_hbev")
def la_hbev(ab: np.ndarray, w: np.ndarray | None = None, uplo: str = "U",
            z=None, info: Info | None = None):
    """Hermitian band eigen driver (paper ``LA_HBEV``)."""
    return _band_ev(hbev, ab, w, uplo, z)


def _tridiag_ev(driver, d, e, z):
    if not _want(z):
        return d, driver(d, e, jobz="N"), NoConvergence
    n = d.shape[0]
    zbuf = z if isinstance(z, np.ndarray) else np.empty((n, n), d.dtype)
    return (d, zbuf), driver(d, e, zbuf, jobz="V"), NoConvergence


@driver_shell("la_stev")
def la_stev(d: np.ndarray, e: np.ndarray, z=None,
            info: Info | None = None):
    """Computes all eigenvalues (and optionally eigenvectors) of a real
    symmetric tridiagonal matrix (paper: ``CALL LA_STEV( D, E, Z=z,
    INFO=info )``).

    Eigenvalues overwrite ``d`` (ascending); ``e`` is destroyed.
    """
    return _tridiag_ev(stev, d, e, z)


@driver_shell("la_gees")
def la_gees(a: np.ndarray, w: np.ndarray | None = None, vs=None,
            select=None, info: Info | None = None):
    """Computes the eigenvalues and Schur form of a nonsymmetric matrix,
    and optionally the Schur vectors (paper: ``CALL LA_GEES( A, ω,
    VS=vs, SELECT=select, SDIM=sdim, INFO=info )``).

    ``a`` is overwritten with the (quasi-)triangular Schur form T.  The
    paper's ``ω`` (WR/WI or W) is the returned complex ``w``.  With a
    ``select`` callable the chosen eigenvalues are moved to the leading
    block.  Returns ``(w, sdim)`` — or ``(w, vs, sdim)`` when Schur
    vectors were requested.
    """
    wout, vsv, sdim, linfo = gees(a, jobvs=_jobz(vs), select=select)
    wout = _store(w, wout)
    out = (wout, _store(vs, vsv), sdim) if _want(vs) else (wout, sdim)
    return out, linfo, NoConvergence


@driver_shell("la_geev")
def la_geev(a: np.ndarray, w: np.ndarray | None = None, vl=None, vr=None,
            info: Info | None = None):
    """Computes the eigenvalues and, optionally, left/right eigenvectors
    of a nonsymmetric matrix (paper: ``CALL LA_GEEV( A, ω, VL=vl,
    VR=vr, INFO=info )``).

    Returns ``w`` (complex), plus ``vl``/``vr`` (complex unit-norm
    columns) in the order requested: ``(w[, vl][, vr])``.
    """
    wout, vlv, vrv, linfo = geev(a, jobvl=_jobz(vl), jobvr=_jobz(vr))
    out = [_store(w, wout)]
    if _want(vl):
        out.append(_store(vl, vlv))
    if _want(vr):
        out.append(_store(vr, vrv))
    return (out[0] if len(out) == 1 else tuple(out)), linfo, NoConvergence


@driver_shell("la_gesvd")
def la_gesvd(a: np.ndarray, s: np.ndarray | None = None, u=None, vt=None,
             ww: np.ndarray | None = None, job: str = "N",
             info: Info | None = None):
    """Computes the singular value decomposition ``A = U Σ Vᴴ``
    (paper: ``CALL LA_GESVD( A, S, U=u, VT=vt, WW=ww, JOB=job,
    INFO=info )``).

    Request factors by passing ``u=True``/``vt=True`` (economy size) or
    preallocated arrays (square m×m / n×n arrays select the full
    factors).  ``a`` is destroyed.  Returns ``s`` (descending), plus the
    requested factors: ``(s[, u][, vt])``.
    """
    m, n = a.shape
    jobu = "N"
    if _want(u):
        # A square preallocated array requests the full factor.
        jobu = "A" if (isinstance(u, np.ndarray) and u.shape == (m, m)
                       and m > min(m, n)) else "S"
    jobvt = "N"
    if _want(vt):
        jobvt = "A" if (isinstance(vt, np.ndarray)
                        and vt.shape == (n, n) and n > min(m, n)) else "S"
    # WW receives the superdiagonal of the intermediate bidiagonal
    # form: zeros on convergence, the unconverged elements when
    # linfo > 0 (paper Appendix G, LA_GESVD).
    ev = np.zeros(max(min(m, n) - 1, 0), dtype=a.real.dtype)
    sout, uv, vtv, linfo = gesvd(a, jobu=jobu, jobvt=jobvt, superdiag=ev)
    if ww is not None:
        ww[:] = ev
    out = [_store(s, sout)]
    if _want(u):
        out.append(_store(u, uv))
    if _want(vt):
        out.append(_store(vt, vtv))
    exc = NoConvergence("LA_GESVD", linfo,
                        "bidiagonal QR failed to converge") \
        if linfo > 0 else None
    return (out[0] if len(out) == 1 else tuple(out)), linfo, exc
