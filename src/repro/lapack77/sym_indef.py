"""Symmetric/Hermitian indefinite solvers: Bunch–Kaufman diagonal pivoting
(``xSYTRF/xSYTRS/xSYSV`` and ``xHETRF/xHETRS/xHESV``) with condition
estimation (``xSYCON/xHECON``) and refinement (``xSYRFS/xHERFS``).

Substrate for the paper's ``LA_SYSV``/``LA_HESV`` drivers and their expert
variants.  The factorization is ``A = U D Uᵀ`` (or ``Uᴴ`` for Hermitian)
with D block diagonal (1×1 and 2×2 blocks) chosen by the Bunch–Kaufman
criterion with ``alpha = (1+√17)/8``.

Pivot encoding matches LAPACK (0-based): ``ipiv[k] >= 0`` marks a 1×1 block
with rows/columns ``k`` and ``ipiv[k]`` interchanged; a 2×2 block stores
``ipiv[k] = ipiv[k∓1] = -(p+1)`` where ``p`` is the interchanged index.
"""

from __future__ import annotations

import numpy as np

from ..errors import xerbla
from .lacon import lacon
from .lautil import lansy, lanhe
from .machine import lamch

__all__ = ["sytf2", "sytrf", "sytrs", "sysv", "sycon", "syrfs",
           "hetf2", "hetrf", "hetrs", "hesv", "hecon", "herfs"]

_ALPHA = (1.0 + np.sqrt(17.0)) / 8.0


def _cabs1(z):
    """``|Re z| + |Im z|`` of a complex scalar or array."""
    return abs(z.real) + abs(z.imag)


def _outer_real(x, y):
    return x[:, None] * y


def _kernels_for(a):
    """``(cabs1, outer)`` for ``a``'s dtype, chosen once per
    factorization.  Real: builtin ``abs`` (``np.abs`` on arrays, the
    same ``fabs`` on scalars without a ufunc call) and a broadcast
    product, which is ``np.outer`` without its wrapper.  Complex keeps
    ``np.outer``: NumPy's complex multiply may round differently by
    operand shape (DESIGN §7)."""
    if np.iscomplexobj(a):
        return _cabs1, np.outer
    return abs, _outer_real


def _diag_entry(a, k, hermitian):
    return a[k, k].real if hermitian else a[k, k]


def _sytf2_upper(a: np.ndarray, ipiv: np.ndarray, hermitian: bool) -> int:
    n = a.shape[0]
    cabs1, outer = _kernels_for(a)
    info = 0
    k = n - 1
    while k >= 0:
        kstep = 1
        absakk = abs(a[k, k].real) if hermitian else cabs1(a[k, k])
        if k > 0:
            col = a[:k, k]
            imax = int(cabs1(col).argmax())
            colmax = float(cabs1(col[imax]))
        else:
            imax, colmax = 0, 0.0
        if max(absakk, colmax) == 0.0 or absakk != absakk:  # DISNAN
            if info == 0:
                info = k + 1
            kp = k
            if hermitian:
                a[k, k] = a[k, k].real
        else:
            if absakk >= _ALPHA * colmax:
                kp = k
            else:
                rowmax = float(cabs1(a[imax, imax + 1: k + 1]).max())
                if imax > 0:
                    rowmax = max(rowmax, float(cabs1(a[:imax, imax]).max()))
                dmag = abs(a[imax, imax].real) if hermitian \
                    else cabs1(a[imax, imax])
                if absakk >= _ALPHA * colmax * (colmax / rowmax):
                    kp = k
                elif dmag >= _ALPHA * rowmax:
                    kp = imax
                else:
                    kp = imax
                    kstep = 2
            kk = k - kstep + 1
            if kp != kk:
                # Interchange rows/columns kk and kp of the leading block.
                tmp = a[:kp, kk].copy()
                a[:kp, kk] = a[:kp, kp]
                a[:kp, kp] = tmp
                seg = a[kp + 1: kk, kk].copy()
                if hermitian:
                    a[kp + 1: kk, kk] = np.conj(a[kp, kp + 1: kk])
                    a[kp, kp + 1: kk] = np.conj(seg)
                    a[kp, kk] = np.conj(a[kp, kk])
                    dkk, dkp = a[kk, kk].real, a[kp, kp].real
                    a[kk, kk], a[kp, kp] = dkp, dkk
                else:
                    a[kp + 1: kk, kk] = a[kp, kp + 1: kk]
                    a[kp, kp + 1: kk] = seg
                    a[kk, kk], a[kp, kp] = a[kp, kp], a[kk, kk]
                if kstep == 2:
                    a[kk, k], a[kp, k] = a[kp, k], a[kk, k]
            elif hermitian:
                a[kk, kk] = a[kk, kk].real
                if kstep == 2:
                    a[k, k] = a[k, k].real
            if kstep == 1:
                # 1x1 pivot: rank-1 update of the leading (k)x(k) block.
                if k > 0:
                    if hermitian:
                        r1 = 1.0 / a[k, k].real
                        x = a[:k, k]
                        upd = r1 * np.outer(x, np.conj(x))
                        blk = a[:k, :k]
                        blk -= upd
                        np.fill_diagonal(blk, blk.diagonal().real)
                        a[:k, k] *= r1
                    else:
                        r1 = 1.0 / a[k, k]
                        x = a[:k, k]
                        upd = r1 * outer(x, x)
                        a[:k, :k] -= upd
                        a[:k, k] *= r1
            else:
                # 2x2 pivot in columns (k-1, k).
                if k > 1:
                    if hermitian:
                        dd = float(np.hypot(a[k - 1, k].real,
                                            a[k - 1, k].imag))
                        d22 = a[k - 1, k - 1].real / dd
                        d11 = a[k, k].real / dd
                        tt = 1.0 / (d11 * d22 - 1.0)
                        d12 = a[k - 1, k] / dd
                        dsc = tt / dd
                        colk = a[:k - 1, k].copy()
                        colkm1 = a[:k - 1, k - 1].copy()
                        wkm1 = dsc * (d11 * colkm1 - colk * np.conj(d12))
                        wk = dsc * (d22 * colk - colkm1 * d12)
                        upd = (np.outer(colk, np.conj(wk))
                               + np.outer(colkm1, np.conj(wkm1)))
                        blk = a[:k - 1, :k - 1]
                        blk -= upd
                        np.fill_diagonal(blk, blk.diagonal().real)
                        a[:k - 1, k] = wk
                        a[:k - 1, k - 1] = wkm1
                    else:
                        d12 = a[k - 1, k]
                        d22 = a[k - 1, k - 1] / d12
                        d11 = a[k, k] / d12
                        tt = 1.0 / (d11 * d22 - 1.0)
                        d12 = tt / d12
                        colk = a[:k - 1, k].copy()
                        colkm1 = a[:k - 1, k - 1].copy()
                        wkm1 = d12 * (d11 * colkm1 - colk)
                        wk = d12 * (d22 * colk - colkm1)
                        upd = outer(colk, wk) + outer(colkm1, wkm1)
                        a[:k - 1, :k - 1] -= upd
                        a[:k - 1, k] = wk
                        a[:k - 1, k - 1] = wkm1
        if kstep == 1:
            ipiv[k] = kp
        else:
            ipiv[k] = -(kp + 1)
            ipiv[k - 1] = -(kp + 1)
        k -= kstep
    return info


def _sytf2_lower(a: np.ndarray, ipiv: np.ndarray, hermitian: bool) -> int:
    n = a.shape[0]
    cabs1, outer = _kernels_for(a)
    info = 0
    k = 0
    while k < n:
        kstep = 1
        absakk = abs(a[k, k].real) if hermitian else cabs1(a[k, k])
        if k < n - 1:
            col = a[k + 1:, k]
            imax = k + 1 + int(cabs1(col).argmax())
            colmax = float(cabs1(a[imax, k]))
        else:
            imax, colmax = k, 0.0
        if max(absakk, colmax) == 0.0 or absakk != absakk:  # DISNAN
            if info == 0:
                info = k + 1
            kp = k
            if hermitian:
                a[k, k] = a[k, k].real
        else:
            if absakk >= _ALPHA * colmax:
                kp = k
            else:
                rowmax = float(cabs1(a[imax, k:imax]).max()) \
                    if imax > k else 0.0
                if imax < n - 1:
                    rowmax = max(rowmax,
                                 float(cabs1(a[imax + 1:, imax]).max()))
                dmag = abs(a[imax, imax].real) if hermitian \
                    else cabs1(a[imax, imax])
                if absakk >= _ALPHA * colmax * (colmax / rowmax):
                    kp = k
                elif dmag >= _ALPHA * rowmax:
                    kp = imax
                else:
                    kp = imax
                    kstep = 2
            kk = k + kstep - 1
            if kp != kk:
                if kp < n - 1:
                    tmp = a[kp + 1:, kk].copy()
                    a[kp + 1:, kk] = a[kp + 1:, kp]
                    a[kp + 1:, kp] = tmp
                seg = a[kk + 1: kp, kk].copy()
                if hermitian:
                    a[kk + 1: kp, kk] = np.conj(a[kp, kk + 1: kp])
                    a[kp, kk + 1: kp] = np.conj(seg)
                    a[kp, kk] = np.conj(a[kp, kk])
                    dkk, dkp = a[kk, kk].real, a[kp, kp].real
                    a[kk, kk], a[kp, kp] = dkp, dkk
                else:
                    a[kk + 1: kp, kk] = a[kp, kk + 1: kp]
                    a[kp, kk + 1: kp] = seg
                    a[kk, kk], a[kp, kp] = a[kp, kp], a[kk, kk]
                if kstep == 2:
                    a[kk, k], a[kp, k] = a[kp, k], a[kk, k]
            elif hermitian:
                a[kk, kk] = a[kk, kk].real
                if kstep == 2:
                    a[k, k] = a[k, k].real
            if kstep == 1:
                if k < n - 1:
                    if hermitian:
                        r1 = 1.0 / a[k, k].real
                        x = a[k + 1:, k]
                        upd = r1 * np.outer(x, np.conj(x))
                        blk = a[k + 1:, k + 1:]
                        blk -= upd
                        np.fill_diagonal(blk, blk.diagonal().real)
                        a[k + 1:, k] *= r1
                    else:
                        r1 = 1.0 / a[k, k]
                        x = a[k + 1:, k]
                        upd = r1 * outer(x, x)
                        a[k + 1:, k + 1:] -= upd
                        a[k + 1:, k] *= r1
            else:
                if k < n - 2:
                    if hermitian:
                        dd = float(np.hypot(a[k + 1, k].real,
                                            a[k + 1, k].imag))
                        d11 = a[k + 1, k + 1].real / dd
                        d22 = a[k, k].real / dd
                        tt = 1.0 / (d11 * d22 - 1.0)
                        d21 = a[k + 1, k] / dd
                        dsc = tt / dd
                        colk = a[k + 2:, k].copy()
                        colkp1 = a[k + 2:, k + 1].copy()
                        wk = dsc * (d11 * colk - colkp1 * d21)
                        wkp1 = dsc * (d22 * colkp1 - colk * np.conj(d21))
                        upd = (np.outer(colk, np.conj(wk))
                               + np.outer(colkp1, np.conj(wkp1)))
                        blk = a[k + 2:, k + 2:]
                        blk -= upd
                        np.fill_diagonal(blk, blk.diagonal().real)
                        a[k + 2:, k] = wk
                        a[k + 2:, k + 1] = wkp1
                    else:
                        d21 = a[k + 1, k]
                        d11 = a[k + 1, k + 1] / d21
                        d22 = a[k, k] / d21
                        tt = 1.0 / (d11 * d22 - 1.0)
                        d21 = tt / d21
                        colk = a[k + 2:, k].copy()
                        colkp1 = a[k + 2:, k + 1].copy()
                        wk = d21 * (d11 * colk - colkp1)
                        wkp1 = d21 * (d22 * colkp1 - colk)
                        upd = outer(colk, wk) + outer(colkp1, wkp1)
                        a[k + 2:, k + 2:] -= upd
                        a[k + 2:, k] = wk
                        a[k + 2:, k + 1] = wkp1
        if kstep == 1:
            ipiv[k] = kp
        else:
            ipiv[k] = -(kp + 1)
            ipiv[k + 1] = -(kp + 1)
        k += kstep
    return info


def sytf2(a: np.ndarray, uplo: str = "U", hermitian: bool = False):
    """Unblocked Bunch–Kaufman factorization (in place).

    Returns ``(ipiv, info)``.
    """
    if uplo.upper() not in ("U", "L"):
        xerbla("SYTF2", 1, f"uplo={uplo!r}")
    n = a.shape[0]
    if a.shape[1] != n:
        xerbla("SYTF2", 2, "matrix must be square")
    ipiv = np.zeros(n, dtype=np.int64)
    up = uplo.upper() == "U"
    tri = np.triu if up else np.tril
    # The kernels read only the referenced triangle, so their rank-1/2
    # updates run unmasked on a working copy whose other triangle starts
    # at zero; only the referenced triangle is stored back, bit for bit,
    # and the other triangle of ``a`` is never written.
    w = tri(a)
    info = (_sytf2_upper if up else _sytf2_lower)(w, ipiv, hermitian)
    np.copyto(a, w, where=tri(np.ones((n, n), dtype=bool)))
    return ipiv, info


def sytrf(a: np.ndarray, uplo: str = "U"):
    """Bunch–Kaufman factorization of a symmetric matrix, ``A = U D Uᵀ``.

    (Delegates to the unblocked kernel; LAPACK's ``xLASYF`` blocking is a
    pure performance refinement with identical output.)
    Returns ``(ipiv, info)``.
    """
    return sytf2(a, uplo, hermitian=False)


def hetf2(a: np.ndarray, uplo: str = "U"):
    """Unblocked Hermitian Bunch–Kaufman factorization (``xHETF2``)."""
    return sytf2(a, uplo, hermitian=True)


def hetrf(a: np.ndarray, uplo: str = "U"):
    """Bunch–Kaufman factorization of a Hermitian matrix, ``A = U D Uᴴ``.

    Returns ``(ipiv, info)``.
    """
    return sytf2(a, uplo, hermitian=True)


def _rows(a, b):
    """The rows the first phase of ``sytrs`` updates: the scalars of
    B's column, as a 1-D view, when B is one float64 column and A is
    float64; else the rows of the 2-D B."""
    if b.shape[1] == 1 and b.dtype == np.float64 and a.dtype == np.float64:
        return b[:, 0]
    return b


def _swap(r, i, j):
    """Interchange rows ``i`` and ``j`` of :func:`_rows`'s ``r``."""
    if r.ndim == 1:
        r[i], r[j] = r[j], r[i]
    else:
        r[[i, j]] = r[[j, i]]


def _axpy(r, x, s):
    """``r -= x ⊗ s`` for rows ``r`` of :func:`_rows`: a broadcast
    product on a column's scalars, ``np.outer`` on a 2-D B."""
    if r.ndim == 1:
        r -= x * s
    else:
        r -= np.outer(x, s)


def _sytrs_upper(a, ipiv, b, hermitian):
    n = a.shape[0]
    conj = np.conj if hermitian else (lambda z: z)
    r = _rows(a, b)
    ipiv = np.asarray(ipiv).tolist()
    # Solve U D x = b (descending).
    k = n - 1
    while k >= 0:
        if ipiv[k] >= 0:
            kp = ipiv[k]
            if kp != k:
                _swap(r, k, kp)
            if k > 0:
                _axpy(r[:k], a[:k, k], r[k])
            r[k] = r[k] / (a[k, k].real if hermitian else a[k, k])
            k -= 1
        else:
            kp = -ipiv[k] - 1
            if kp != k - 1:
                _swap(r, k - 1, kp)
            if k > 1:
                _axpy(r[:k - 1], a[:k - 1, k], r[k])
                _axpy(r[:k - 1], a[:k - 1, k - 1], r[k - 1])
            akm1k = a[k - 1, k]
            akm1 = a[k - 1, k - 1] / akm1k
            ak = a[k, k] / (conj(akm1k) if hermitian else akm1k)
            denom = akm1 * ak - 1.0
            bkm1 = r[k - 1] / akm1k
            bk = r[k] / (conj(akm1k) if hermitian else akm1k)
            r[k - 1] = (ak * bkm1 - bk) / denom
            r[k] = (akm1 * bk - bkm1) / denom
            k -= 2
    # Solve (op(U)) x = b, op = transpose or conjugate transpose
    # (ascending).  The products stay on the 2-D B: their BLAS call fixes
    # the summation order.
    k = 0
    while k < n:
        if ipiv[k] >= 0:
            if k > 0:
                b[k] -= conj(a[:k, k]) @ b[:k]
            kp = ipiv[k]
            if kp != k:
                _swap(r, k, kp)
            k += 1
        else:
            if k > 0:
                b[k] -= conj(a[:k, k]) @ b[:k]
                b[k + 1] -= conj(a[:k, k + 1]) @ b[:k]
            kp = -ipiv[k] - 1
            if kp != k:
                _swap(r, k, kp)
            k += 2
    return 0


def _sytrs_lower(a, ipiv, b, hermitian):
    n = a.shape[0]
    conj = np.conj if hermitian else (lambda z: z)
    r = _rows(a, b)
    ipiv = np.asarray(ipiv).tolist()
    # Solve L D x = b (ascending).
    k = 0
    while k < n:
        if ipiv[k] >= 0:
            kp = ipiv[k]
            if kp != k:
                _swap(r, k, kp)
            if k < n - 1:
                _axpy(r[k + 1:], a[k + 1:, k], r[k])
            r[k] = r[k] / (a[k, k].real if hermitian else a[k, k])
            k += 1
        else:
            kp = -ipiv[k] - 1
            if kp != k + 1:
                _swap(r, k + 1, kp)
            if k < n - 2:
                _axpy(r[k + 2:], a[k + 2:, k], r[k])
                _axpy(r[k + 2:], a[k + 2:, k + 1], r[k + 1])
            akm1k = a[k + 1, k]
            akm1 = a[k, k] / (conj(akm1k) if hermitian else akm1k)
            ak = a[k + 1, k + 1] / akm1k
            denom = akm1 * ak - 1.0
            bkm1 = r[k] / (conj(akm1k) if hermitian else akm1k)
            bk = r[k + 1] / akm1k
            r[k] = (ak * bkm1 - bk) / denom
            r[k + 1] = (akm1 * bk - bkm1) / denom
            k += 2
    # Solve op(L) x = b (descending), the products on the 2-D B.
    k = n - 1
    while k >= 0:
        if ipiv[k] >= 0:
            if k < n - 1:
                b[k] -= conj(a[k + 1:, k]) @ b[k + 1:]
            kp = ipiv[k]
            if kp != k:
                _swap(r, k, kp)
            k -= 1
        else:
            if k < n - 1:
                b[k] -= conj(a[k + 1:, k]) @ b[k + 1:]
                b[k - 1] -= conj(a[k + 1:, k - 1]) @ b[k + 1:]
            kp = -ipiv[k] - 1
            if kp != k:
                _swap(r, k, kp)
            k -= 2
    return 0


def sytrs(a: np.ndarray, ipiv: np.ndarray, b: np.ndarray, uplo: str = "U",
          hermitian: bool = False) -> int:
    """Solve from the Bunch–Kaufman factors (B in place).

    When B is one float64 column and A is float64, the D-scaled
    triangular phase (``U D`` or ``L D``) works on the column's scalars
    through a 1-D view: scalar pivot swaps, a broadcast axpy in place of
    ``np.outer`` and the 2×2 solve on NumPy scalars, the same operations
    in the same order, so the bytes match the 2-D path
    (``tests/lapack77/test_sym_indef_parity.py``).  The transposed phase
    keeps its ``a[:k, k] @ b[:k]`` products on the 2-D column, because
    their BLAS call fixes the summation order.  Complex, float32 and
    multi-column B run the 2-D path throughout.
    """
    n = a.shape[0]
    bmat = b if b.ndim == 2 else b[:, None]
    if bmat.shape[0] != n:
        xerbla("SYTRS", 4, "dimension mismatch")
    if uplo.upper() == "U":
        return _sytrs_upper(a, ipiv, bmat, hermitian)
    return _sytrs_lower(a, ipiv, bmat, hermitian)


def hetrs(a, ipiv, b, uplo="U"):
    """Hermitian variant of :func:`sytrs`."""
    return sytrs(a, ipiv, b, uplo=uplo, hermitian=True)


def sysv(a: np.ndarray, b: np.ndarray, uplo: str = "U"):
    """Solve a symmetric indefinite system (``xSYSV``).

    Returns ``(ipiv, info)``.
    """
    ipiv, info = sytrf(a, uplo)
    if info == 0:
        sytrs(a, ipiv, b, uplo)
    return ipiv, info


def hesv(a: np.ndarray, b: np.ndarray, uplo: str = "U"):
    """Solve a Hermitian indefinite system (``xHESV``).

    Returns ``(ipiv, info)``.
    """
    ipiv, info = hetrf(a, uplo)
    if info == 0:
        hetrs(a, ipiv, b, uplo)
    return ipiv, info


def _indef_con(a, ipiv, anorm, uplo, hermitian):
    n = a.shape[0]
    if n == 0:
        return 1.0, 0
    if anorm == 0:
        return 0.0, 0

    def solve(x):
        y = x.copy()
        sytrs(a, ipiv, y, uplo=uplo, hermitian=hermitian)
        return y

    if hermitian or not np.iscomplexobj(a):
        # inv(A) Hermitian ⇒ matvec == rmatvec.
        est = lacon(n, solve, solve, dtype=a.dtype)
    else:
        # Complex symmetric: inv(A)ᴴ = conj(inv(A)).
        def solve_h(x):
            y = np.conj(x)
            sytrs(a, ipiv, y, uplo=uplo, hermitian=False)
            return np.conj(y)

        est = lacon(n, solve, solve_h, dtype=a.dtype)
    return (1.0 / (est * anorm) if est else 0.0), 0


def sycon(a, ipiv, anorm, uplo="U"):
    """Reciprocal condition estimate from ``sytrf`` factors."""
    return _indef_con(a, ipiv, anorm, uplo, hermitian=False)


def hecon(a, ipiv, anorm, uplo="U"):
    """Reciprocal condition estimate from ``hetrf`` factors."""
    return _indef_con(a, ipiv, anorm, uplo, hermitian=True)


def _indef_rfs(a, af, ipiv, b, x, uplo, hermitian, itmax=5):
    n = a.shape[0]
    if uplo.upper() == "U":
        full = np.triu(a) + (np.conj(np.triu(a, 1)).T if hermitian
                             else np.triu(a, 1).T)
    else:
        full = np.tril(a) + (np.conj(np.tril(a, -1)).T if hermitian
                             else np.tril(a, -1).T)
    if hermitian:
        np.fill_diagonal(full, full.diagonal().real)
    bmat = b if b.ndim == 2 else b[:, None]
    xmat = x if x.ndim == 2 else x[:, None]
    nrhs = bmat.shape[1]
    ferr = np.zeros(nrhs)
    berr = np.zeros(nrhs)
    if n == 0 or nrhs == 0:
        return ferr, berr, 0
    eps = lamch("E", a.dtype)
    safmin = lamch("S", a.dtype)
    safe1 = (n + 1) * safmin
    safe2 = safe1 / eps
    absa = np.abs(full)
    for j in range(nrhs):
        count, lstres = 1, 3.0
        while True:
            r = bmat[:, j] - full @ xmat[:, j]
            denom = absa @ np.abs(xmat[:, j]) + np.abs(bmat[:, j])
            num = np.abs(r)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(denom > safe2, num / denom,
                                  (num + safe1) / (denom + safe1))
            berr[j] = float(np.max(ratios))
            if berr[j] > eps and berr[j] <= 0.5 * lstres and count <= itmax:
                dx = r.copy()
                sytrs(af, ipiv, dx, uplo=uplo, hermitian=hermitian)
                xmat[:, j] += dx
                lstres = berr[j]
                count += 1
            else:
                break
        r = bmat[:, j] - full @ xmat[:, j]
        f = np.abs(r) + (n + 1) * eps * (absa @ np.abs(xmat[:, j])
                                         + np.abs(bmat[:, j]))
        f = np.where(f > safe2, f, f + safe1)

        def mv(v):
            w = f * v
            sytrs(af, ipiv, w, uplo=uplo, hermitian=hermitian)
            return w

        def rmv(v):
            if hermitian or not np.iscomplexobj(a):
                return mv(v)
            w = np.conj(v)
            sytrs(af, ipiv, w, uplo=uplo, hermitian=False)
            return f * np.conj(w)

        est = lacon(n, mv, rmv, dtype=a.dtype)
        xnorm = float(np.max(np.abs(xmat[:, j])))
        ferr[j] = est / xnorm if xnorm > 0 else est
    return ferr, berr, 0


def syrfs(a, af, ipiv, b, x, uplo="U", itmax=5):
    """Refinement + error bounds for symmetric indefinite systems."""
    return _indef_rfs(a, af, ipiv, b, x, uplo, hermitian=False, itmax=itmax)


def herfs(a, af, ipiv, b, x, uplo="U", itmax=5):
    """Refinement + error bounds for Hermitian indefinite systems."""
    return _indef_rfs(a, af, ipiv, b, x, uplo, hermitian=True, itmax=itmax)
