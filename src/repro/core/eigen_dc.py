"""Divide and Conquer Driver Routines for Standard Eigenvalue Problems
(Appendix G, §6): same interfaces as the §5 drivers, but eigenvectors
come from the Cuppen divide-and-conquer algorithm (``stedc``)."""

from __future__ import annotations

import numpy as np

from ..errors import Info
from ..backends.kernels import (hbevd, heevd, hpevd, sbevd, spevd, stevd,
                                syevd)
from .eigen import (_band_ev, _dense_ev, _no_values, _no_values_z,
                    _packed_ev, _tridiag_ev, _tridiag_refused)
from .shell import driver_shell

__all__ = ["la_syevd", "la_heevd", "la_spevd", "la_hpevd", "la_sbevd",
           "la_hbevd", "la_stevd"]


@driver_shell("la_syevd", refused=_no_values)
def la_syevd(a: np.ndarray, w: np.ndarray | None = None, jobz: str = "N",
             uplo: str = "U", info: Info | None = None) -> np.ndarray:
    """Divide-and-conquer eigensolver for a real symmetric matrix
    (paper: ``CALL LA_SYEVD( A, W, JOBZ=jobz, UPLO=uplo, INFO=info )``).

    With ``jobz='V'`` the eigenvectors overwrite ``a``.
    """
    return _dense_ev(syevd, a, w, jobz, uplo)


@driver_shell("la_heevd", refused=_no_values)
def la_heevd(a: np.ndarray, w: np.ndarray | None = None, jobz: str = "N",
             uplo: str = "U", info: Info | None = None) -> np.ndarray:
    """Divide-and-conquer Hermitian eigensolver (paper ``LA_HEEVD``)."""
    return _dense_ev(heevd, a, w, jobz, uplo)


@driver_shell("la_spevd", refused=_no_values_z)
def la_spevd(ap: np.ndarray, w: np.ndarray | None = None,
             uplo: str = "U", z=None, info: Info | None = None):
    """Packed symmetric divide-and-conquer driver (paper ``LA_SPEVD``)."""
    return _packed_ev(spevd, ap, w, uplo, z)


@driver_shell("la_hpevd", refused=_no_values_z)
def la_hpevd(ap: np.ndarray, w: np.ndarray | None = None,
             uplo: str = "U", z=None, info: Info | None = None):
    """Packed Hermitian divide-and-conquer driver (paper ``LA_HPEVD``)."""
    return _packed_ev(hpevd, ap, w, uplo, z)


@driver_shell("la_sbevd", refused=_no_values_z)
def la_sbevd(ab: np.ndarray, w: np.ndarray | None = None,
             uplo: str = "U", z=None, info: Info | None = None):
    """Symmetric band divide-and-conquer driver (paper ``LA_SBEVD``)."""
    return _band_ev(sbevd, ab, w, uplo, z)


@driver_shell("la_hbevd", refused=_no_values_z)
def la_hbevd(ab: np.ndarray, w: np.ndarray | None = None,
             uplo: str = "U", z=None, info: Info | None = None):
    """Hermitian band divide-and-conquer driver (paper ``LA_HBEVD``)."""
    return _band_ev(hbevd, ab, w, uplo, z)


@driver_shell("la_stevd", refused=_tridiag_refused)
def la_stevd(d: np.ndarray, e: np.ndarray, z=None,
             info: Info | None = None):
    """Divide-and-conquer tridiagonal driver (paper: ``CALL LA_STEVD( D,
    E, Z=z, INFO=info )``): eigenvalues overwrite ``d``."""
    return _tridiag_ev(stevd, d, e, z)
