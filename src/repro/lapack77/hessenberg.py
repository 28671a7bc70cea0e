"""Hessenberg reduction and balancing: ``xGEBAL``, ``xGEBAK``,
``xGEHRD``, ``xORGHR`` — the front end of the nonsymmetric eigensolvers.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import xerbla
from .householder import larf_left, larf_right, larfg
from .machine import lamch

__all__ = ["gebal", "gebak", "gehd2", "gehrd", "orghr", "unghr"]


def gebal(a: np.ndarray, job: str = "B"):
    """Balance a general matrix (``xGEBAL``): permute to isolate
    eigenvalues, then diagonally scale to equalize row/column norms.

    ``job``: 'N' none, 'P' permute only, 'S' scale only, 'B' both.
    ``a`` is transformed in place.  Returns ``(ilo, ihi, scale)``
    (0-based: rows/cols outside ``ilo..ihi`` are already triangular;
    ``scale`` records the permutations and scalings for ``gebak``).
    """
    j = job.upper()
    if j not in ("N", "P", "S", "B"):
        xerbla("GEBAL", 1, f"job={job!r}")
    n = a.shape[0]
    scale = np.ones(n)
    ilo, ihi = 0, n - 1
    if n == 0:
        return 0, -1, scale
    if j in ("P", "B"):
        # Push rows with zero off-diagonals to the bottom, columns to top.
        changed = True
        while changed:
            changed = False
            # Row search: a row i (ilo<=i<=ihi) with zeros off-diagonal in
            # columns ilo..ihi can be moved to position ihi.
            for i in range(ihi, ilo - 1, -1):
                row = a[i, ilo:ihi + 1]
                if np.all(row[np.arange(ihi - ilo + 1) != (i - ilo)] == 0):
                    _swap_rc(a, i, ihi)
                    scale[ihi] = i  # record permutation
                    ihi -= 1
                    changed = True
                    break
        changed = True
        while changed:
            changed = False
            for jcol in range(ilo, ihi + 1):
                col = a[ilo:ihi + 1, jcol]
                if np.all(col[np.arange(ihi - ilo + 1) != (jcol - ilo)] == 0):
                    _swap_rc(a, jcol, ilo)
                    scale[ilo] = jcol
                    ilo += 1
                    changed = True
                    break
    if j in ("S", "B") and ihi > ilo:
        # Iterative scaling to balance 1-norms of rows and columns, with
        # the guards of LAPACK >= 3.5: a non-finite norm ends the scaling
        # (xGEBAL's DISNAN exit, widened to Inf), and both power-of-two
        # searches stop before a factor or a scaled norm leaves
        # [sfmin2, sfmax2].
        sclfac, factor = 2.0, 0.95
        sfmin2 = lamch("S", a.dtype) / lamch("P", a.dtype) * sclfac
        sfmax2 = 1.0 / sfmin2
        converged = False
        while not converged:
            converged = True
            for i in range(ilo, ihi + 1):
                c = float(np.sum(np.abs(a[ilo:ihi + 1, i]))) - abs(a[i, i])
                r = float(np.sum(np.abs(a[i, ilo:ihi + 1]))) - abs(a[i, i])
                ca = float(np.max(np.abs(a[:ihi + 1, i])))
                ra = float(np.max(np.abs(a[i, ilo:])))
                if c == 0 or r == 0:
                    continue
                if not math.isfinite(c + ca + r + ra):
                    return ilo, ihi, scale
                g = r / sclfac
                f = 1.0
                s = c + r
                while (c < g and max(f, c, ca) < sfmax2
                       and min(r, g, ra) > sfmin2):
                    f *= sclfac
                    c *= sclfac
                    ca *= sclfac
                    g /= sclfac
                    ra /= sclfac
                g = c / sclfac
                while (g >= r and max(r, ra) < sfmax2
                       and min(f, c, g, ca) > sfmin2):
                    f /= sclfac
                    c /= sclfac
                    g /= sclfac
                    ca /= sclfac
                    ra *= sclfac
                if (c + r) < factor * s and f != 1.0:
                    scale[i] *= f
                    a[i, :] /= f
                    a[:, i] *= f
                    converged = False
    return ilo, ihi, scale


def _swap_rc(a: np.ndarray, i: int, j: int) -> None:
    if i != j:
        a[[i, j], :] = a[[j, i], :]
        a[:, [i, j]] = a[:, [j, i]]


def gebak(v: np.ndarray, ilo: int, ihi: int, scale: np.ndarray,
          job: str = "B", side: str = "R") -> np.ndarray:
    """Back-transform eigenvectors for the balancing (``xGEBAK``).

    ``v`` holds eigenvectors as columns (in place).
    """
    j = job.upper()
    n = v.shape[0]
    if n == 0:
        return v
    if j in ("S", "B") and ihi > ilo:
        for i in range(ilo, ihi + 1):
            s = scale[i]
            if side.upper() == "R":
                v[i, :] *= s
            else:
                v[i, :] /= s
    if j in ("P", "B"):
        # Undo permutations: order matters (reverse of gebal's recording).
        for i in list(range(ilo - 1, -1, -1)) + list(range(ihi + 1, n)):
            k = int(scale[i].real)
            if k != i:
                v[[i, k], :] = v[[k, i], :]
    return v


def gehd2(a: np.ndarray, ilo: int = 0, ihi: int | None = None):
    """Unblocked Hessenberg reduction ``Qᴴ A Q = H`` (in place).

    Reflector *i* is stored below the first subdiagonal of column *i*.
    Returns ``tau``.
    """
    n = a.shape[0]
    if ihi is None:
        ihi = n - 1
    tau = np.zeros(max(n - 1, 0), dtype=a.dtype)
    for i in range(ilo, ihi):
        beta, taui = larfg(a[i + 1, i], a[i + 2: ihi + 1, i])
        tau[i] = taui
        if taui != 0:
            a[i + 1, i] = 1
            v = a[i + 1: ihi + 1, i].copy()
            # Apply H from the right to rows 0..ihi, columns i+1..ihi.
            larf_right(v, taui, a[: ihi + 1, i + 1: ihi + 1])
            # Apply Hᴴ from the left to rows i+1..ihi, columns i+1..n-1.
            larf_left(v, np.conj(taui), a[i + 1: ihi + 1, i + 1:])
        a[i + 1, i] = beta
    return tau


def gehrd(a: np.ndarray, ilo: int = 0, ihi: int | None = None):
    """Hessenberg reduction (``xGEHRD``); delegates to the unblocked
    kernel (blocked ``xLAHRD`` is a performance variant)."""
    return gehd2(a, ilo, ihi)


def orghr(a: np.ndarray, tau: np.ndarray, ilo: int = 0,
          ihi: int | None = None) -> np.ndarray:
    """Generate the unitary Q of the Hessenberg reduction.

    Returns a new n×n array (does not modify ``a``).
    """
    n = a.shape[0]
    if ihi is None:
        ihi = n - 1
    q = np.eye(n, dtype=a.dtype)
    for i in range(ihi - 1, ilo - 1, -1):
        if tau[i] == 0:
            continue
        v = np.empty(ihi - i, dtype=a.dtype)
        v[0] = 1
        v[1:] = a[i + 2: ihi + 1, i]
        larf_left(v, tau[i], q[i + 1: ihi + 1, :])
    return q


def unghr(a, tau, ilo=0, ihi=None):
    """Complex alias of :func:`orghr`."""
    return orghr(a, tau, ilo, ihi)
