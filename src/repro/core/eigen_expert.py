"""Expert Driver Routines for Standard Eigenvalue Problems
(Appendix G, §7): selected eigenvalues by value range ``(vl, vu]`` or
0-based index range ``[il, iu]``, plus condition-number variants of the
Schur/eigen drivers."""

from __future__ import annotations

import numpy as np

from ..errors import Info, NoConvergence
from ..backends.kernels import (geesx, geevx, hbevx, heevx, hpevx, sbevx,
                                spevx, stevx, syevx)
from .eigen import _jobz, _store, _want
from .shell import driver_shell

__all__ = ["la_syevx", "la_heevx", "la_spevx", "la_hpevx", "la_sbevx",
           "la_hbevx", "la_stevx", "la_geesx", "la_geevx"]


def _selected(w, z, wout, zv, m, ifail):
    """``(w[, z], m, ifail)``, the ``m`` found eigenvalues also copied
    into the caller's ``w``."""
    if w is not None:
        w[:m] = wout
    head = (wout, _store(z, zv)) if _want(z) else (wout,)
    return head + (m, ifail)


def _dense_evx(srname, driver, a, w, uplo, z, vl, vu, il, iu, abstol):
    wout, zv, m, ifail, linfo = driver(a, jobz=_jobz(z), uplo=uplo, vl=vl,
                                       vu=vu, il=il, iu=iu, abstol=abstol)
    exc = NoConvergence(srname, linfo, f"{linfo} eigenvector(s) failed") \
        if linfo > 0 else None
    return _selected(w, z, wout, zv, m, ifail), linfo, exc


@driver_shell("la_syevx")
def la_syevx(a, w=None, uplo="U", z=None, vl=None, vu=None, il=None,
             iu=None, abstol=0.0, info: Info | None = None):
    """Selected eigenvalues/vectors of a real symmetric matrix by
    bisection + inverse iteration (paper: ``CALL LA_SYEVX( A, W,
    UPLO=uplo, VL=vl, VU=vu, IL=il, IU=iu, M=m, IFAIL=ifail,
    ABSTOL=abstol, INFO=info )``).

    Returns ``(w, m, ifail)`` — or ``(w, z, m, ifail)`` with vectors.
    """
    return _dense_evx("LA_SYEVX", syevx, a, w, uplo, z, vl, vu, il, iu,
                      abstol)


@driver_shell("la_heevx")
def la_heevx(a, w=None, uplo="U", z=None, vl=None, vu=None, il=None,
             iu=None, abstol=0.0, info: Info | None = None):
    """Hermitian expert eigen driver (paper ``LA_HEEVX``)."""
    return _dense_evx("LA_HEEVX", heevx, a, w, uplo, z, vl, vu, il, iu,
                      abstol)


def _structured_evx(driver, data, n, w, uplo, z, vl, vu, il, iu, abstol):
    wout, zv, m, ifail, linfo = driver(data, n, jobz=_jobz(z), uplo=uplo,
                                       vl=vl, vu=vu, il=il, iu=iu,
                                       abstol=abstol)
    return _selected(w, z, wout, zv, m, ifail), linfo, NoConvergence


def _packed_order(ap):
    ln = ap.shape[0]
    return int((np.sqrt(8.0 * ln + 1.0) - 1.0) / 2.0 + 0.5)


@driver_shell("la_spevx")
def la_spevx(ap, w=None, uplo="U", z=None, vl=None, vu=None, il=None,
             iu=None, abstol=0.0, info: Info | None = None):
    """Packed symmetric expert driver (paper ``LA_SPEVX``)."""
    return _structured_evx(spevx, ap, _packed_order(ap), w, uplo, z, vl,
                           vu, il, iu, abstol)


@driver_shell("la_hpevx")
def la_hpevx(ap, w=None, uplo="U", z=None, vl=None, vu=None, il=None,
             iu=None, abstol=0.0, info: Info | None = None):
    """Packed Hermitian expert driver (paper ``LA_HPEVX``)."""
    return _structured_evx(hpevx, ap, _packed_order(ap), w, uplo, z, vl,
                           vu, il, iu, abstol)


@driver_shell("la_sbevx")
def la_sbevx(ab, w=None, uplo="U", z=None, vl=None, vu=None, il=None,
             iu=None, abstol=0.0, info: Info | None = None):
    """Symmetric band expert driver (paper ``LA_SBEVX``)."""
    return _structured_evx(sbevx, ab, ab.shape[1], w, uplo, z, vl, vu, il,
                           iu, abstol)


@driver_shell("la_hbevx")
def la_hbevx(ab, w=None, uplo="U", z=None, vl=None, vu=None, il=None,
             iu=None, abstol=0.0, info: Info | None = None):
    """Hermitian band expert driver (paper ``LA_HBEVX``)."""
    return _structured_evx(hbevx, ab, ab.shape[1], w, uplo, z, vl, vu, il,
                           iu, abstol)


@driver_shell("la_stevx")
def la_stevx(d, e, w=None, z=None, vl=None, vu=None, il=None, iu=None,
             abstol=0.0, info: Info | None = None):
    """Tridiagonal expert driver (paper: ``CALL LA_STEVX( D, E, W, Z=z,
    VL=vl, VU=vu, IL=il, IU=iu, M=m, IFAIL=ifail, ABSTOL=abstol,
    INFO=info )``).

    Returns ``(w, m, ifail)`` or ``(w, z, m, ifail)``.
    """
    wout, zv, m, ifail, linfo = stevx(d, e, jobz=_jobz(z), vl=vl, vu=vu,
                                      il=il, iu=iu, abstol=abstol)
    return _selected(w, z, wout, zv, m, ifail), linfo, NoConvergence


@driver_shell("la_geesx")
def la_geesx(a, w=None, vs=None, select=None, sense: str = "B",
             info: Info | None = None):
    """Expert Schur driver: ordered Schur form plus reciprocal condition
    numbers for the selected cluster and its invariant subspace (paper:
    ``CALL LA_GEESX( A, ω, VS=vs, SELECT=select, SDIM=sdim,
    RCONDE=rconde, RCONDV=rcondv, INFO=info )``).

    Returns ``(w, sdim, rconde, rcondv)`` — with ``vs`` inserted after
    ``w`` when Schur vectors were requested.
    """
    wout, vsv, sdim, rconde, rcondv, linfo = geesx(
        a, jobvs=_jobz(vs), select=select, sense=sense)
    wout = _store(w, wout)
    head = (wout, _store(vs, vsv)) if _want(vs) else (wout,)
    return head + (sdim, rconde, rcondv), linfo, NoConvergence


@driver_shell("la_geevx")
def la_geevx(a, w=None, vl=None, vr=None, balanc: str = "B",
             sense: str = "B", info: Info | None = None):
    """Expert eigen driver: eigenvalues/vectors plus balancing data and
    per-eigenvalue condition numbers (paper: ``CALL LA_GEEVX( A, ω,
    VL=vl, VR=vr, BALANC=balanc, ILO=ilo, IHI=ihi, SCALE=scale,
    ABNRM=abnrm, RCONDE=rconde, RCONDV=rcondv, INFO=info )``).

    Returns ``(w, vl, vr, ilo, ihi, scale, abnrm, rconde, rcondv)``
    (``vl``/``vr`` are ``None`` when not requested).
    """
    (wout, vlv, vrv, ilo, ihi, scale, abnrm, rconde, rcondv,
     linfo) = geevx(a, jobvl=_jobz(vl), jobvr=_jobz(vr), balanc=balanc,
                    sense=sense)
    vlout = _store(vl, vlv) if _want(vl) else None
    vrout = _store(vr, vrv) if _want(vr) else None
    return ((_store(w, wout), vlout, vrout, ilo, ihi, scale, abnrm, rconde,
             rcondv), linfo, NoConvergence)
