"""Householder reflector kernels: ``xLARFG``, ``xLARF``, ``xLARFT``,
``xLARFB``.

The whole orthogonal-factorization substrate (QR/LQ, Hessenberg and
bidiagonal reductions, tridiagonalization) is built from these four.
A reflector is ``H = I − tau · v vᴴ`` with ``v[0] = 1`` implicit, exactly
LAPACK's representation, so factored forms stored in the lower/upper
triangles of the output arrays match LAPACK's layout.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["larfg", "larf_left", "larf_right", "larft", "larfb"]


def larfg(alpha, x: np.ndarray):
    """Generate an elementary reflector annihilating the vector below
    ``alpha``.

    Given the (n)-vector ``[alpha; x]``, find ``tau`` and ``v = [1; v2]``
    with ``H = I − tau v vᴴ`` such that ``H [alpha; x] = [beta; 0]`` and
    ``beta`` real for the complex case.

    ``x`` is overwritten with ``v2``; returns ``(beta, tau)``.

    A real double-precision reflector does its scalar arithmetic on
    Python floats and hands back NumPy float64 scalars, so callers see
    the bytes and types of NumPy scalar arithmetic.  float32 keeps NumPy
    scalars, which carry its rounding, and so does the complex case.
    """
    cplx = x.dtype.kind == "c" or isinstance(alpha, (complex,
                                                     np.complexfloating))
    # ‖x‖₂ as np.linalg.norm forms it, without its dispatch.
    xr = x.ravel(order="K")
    if x.dtype.kind == "c":
        sq = xr.real.dot(xr.real) + xr.imag.dot(xr.imag)
    else:
        sq = xr.dot(xr)
    single = x.dtype.char in "fF"
    xnorm = float(np.sqrt(sq)) if single else math.sqrt(sq)
    if xnorm == 0.0 and (not cplx or alpha.imag == 0.0):
        return (alpha.real if cplx else alpha), 0.0
    if cplx:
        alphr, alphi = np.real(alpha), np.imag(alpha)
        beta = -np.sign(alphr if alphr != 0 else 1.0) * _lapy3(alphr, alphi,
                                                                xnorm)
        tau = complex((beta - alphr) / beta, -alphi / beta)
        x /= alpha - beta
        return beta, tau
    a, sign = (alpha, np.sign) if single else (float(alpha), _sign)
    beta = -sign(a if a != 0 else 1.0) * float(np.hypot(alpha, xnorm))
    tau = (beta - a) / beta
    x /= a - beta
    if single:
        return beta, tau
    return np.float64(beta), np.float64(tau)


def _sign(v: float) -> float:
    """``np.sign`` of a nonzero Python float; a NaN passes through."""
    return 1.0 if v > 0 else (-1.0 if v < 0 else v)


def _lapy3(x, y, z):
    w = max(abs(x), abs(y), abs(z))
    if w == 0:
        return 0.0
    return w * float(np.sqrt((x / w) ** 2 + (y / w) ** 2 + (z / w) ** 2))


def larf_left(v: np.ndarray, tau, c: np.ndarray) -> np.ndarray:
    """Apply ``H = I − tau v vᴴ`` from the left: ``C := H C`` (in place).

    ``v`` is the full reflector vector including the leading 1.
    """
    if tau != 0:
        w = np.conj(v) @ c          # w = vᴴ C
        c -= tau * np.outer(v, w)
    return c


def larf_right(v: np.ndarray, tau, c: np.ndarray) -> np.ndarray:
    """Apply ``H`` from the right: ``C := C H`` (in place)."""
    if tau != 0:
        w = c @ v                   # w = C v
        c -= tau * np.outer(w, np.conj(v))
    return c


def larft(direct: str, storev: str, v: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Form the triangular factor T of a block reflector
    ``H = I − V T Vᴴ`` from k reflectors.

    Only the combination used by this package is implemented:
    ``direct='F'`` (H = H_0 H_1 ··· H_{k-1}) with ``storev='C'``
    (reflector j is column j of V, unit lower-trapezoidal).
    """
    if direct.upper() != "F" or storev.upper() != "C":
        raise NotImplementedError("only direct='F', storev='C' is used")
    n, k = v.shape
    t = np.zeros((k, k), dtype=v.dtype)
    for j in range(k):
        if tau[j] == 0:
            continue
        t[j, j] = tau[j]
        if j > 0:
            # t(0:j, j) = -tau_j * T(0:j,0:j) * V(:,0:j)ᴴ * V(:,j)
            w = np.conj(v[:, :j]).T @ v[:, j]
            t[:j, j] = -tau[j] * (t[:j, :j] @ w)
    return t


def larfb(side: str, trans: str, v: np.ndarray, t: np.ndarray,
          c: np.ndarray) -> np.ndarray:
    """Apply a block reflector ``H = I − V T Vᴴ`` (or ``Hᴴ``) to C in place.

    ``direct='F'``, ``storev='C'`` layout assumed (V is n×k unit
    lower-trapezoidal).  ``side='L'``: C := op(H) C; ``side='R'``:
    C := C op(H).
    """
    tt = t if trans.upper() == "N" else np.conj(t).T
    if side.upper() == "L":
        # W = Vᴴ C ; C -= V (op(T) W)
        w = np.conj(v).T @ c
        c -= v @ (tt @ w)
    else:
        # W = C V ; C -= (W op(T)) Vᴴ
        w = c @ v
        c -= (w @ tt) @ np.conj(v).T
    return c
