"""Level-3 BLAS: O(n³) matrix-matrix kernels.

These are the kernels whose "coarse granularity … promotes high efficiency"
(paper §1.1).  NumPy's ``@`` (vendor GEMM underneath) plays the role the
manufacturer-tuned BLAS plays for FORTRAN LAPACK; the triangular solve and
multiply are built as blocked column sweeps on top of it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gemm", "symm", "hemm", "syrk", "herk", "syr2k", "her2k",
           "trmm", "trsm"]


def _op(a: np.ndarray, trans: str) -> np.ndarray:
    t = trans.upper()
    if t == "N":
        return a
    if t == "T":
        return a.T
    if t == "C":
        return np.conj(a.T)
    raise ValueError(f"illegal trans option {trans!r}")


def gemm(alpha, a: np.ndarray, b: np.ndarray, beta, c: np.ndarray,
         transa: str = "N", transb: str = "N") -> np.ndarray:
    """``C := alpha*op(A)*op(B) + beta*C`` (in place). Returns ``C``."""
    prod = _op(a, transa) @ _op(b, transb)
    if beta == 0:
        c[...] = alpha * prod
    else:
        c *= beta
        c += alpha * prod
    return c


def _sym_full(a: np.ndarray, uplo: str, hermitian: bool) -> np.ndarray:
    if uplo.upper() == "U":
        full = np.triu(a) + (np.conj(np.triu(a, 1)).T if hermitian
                             else np.triu(a, 1).T)
    else:
        full = np.tril(a) + (np.conj(np.tril(a, -1)).T if hermitian
                             else np.tril(a, -1).T)
    if hermitian:
        np.fill_diagonal(full, full.diagonal().real)
    return full


def symm(alpha, a: np.ndarray, b: np.ndarray, beta, c: np.ndarray,
         side: str = "L", uplo: str = "U") -> np.ndarray:
    """``C := alpha*A*B + beta*C`` (side='L') with A symmetric, only the
    ``uplo`` triangle referenced."""
    full = _sym_full(a, uplo, False)
    prod = full @ b if side.upper() == "L" else b @ full
    if beta == 0:
        c[...] = alpha * prod
    else:
        c *= beta
        c += alpha * prod
    return c


def hemm(alpha, a, b, beta, c, side="L", uplo="U"):
    """Hermitian variant of :func:`symm`."""
    full = _sym_full(a, uplo, True)
    prod = full @ b if side.upper() == "L" else b @ full
    if beta == 0:
        c[...] = alpha * prod
    else:
        c *= beta
        c += alpha * prod
    return c


def _rank_k_store(c: np.ndarray, upd: np.ndarray, beta, uplo: str,
                  real_diag: bool) -> np.ndarray:
    if uplo.upper() == "U":
        idx = np.triu_indices_from(c)
    else:
        idx = np.tril_indices_from(c)
    if beta == 0:
        c[idx] = upd[idx]
    else:
        c[idx] = beta * c[idx] + upd[idx]
    if real_diag:
        d = c.diagonal().real.copy()
        np.fill_diagonal(c, d)
    return c


def syrk(alpha, a: np.ndarray, beta, c: np.ndarray, uplo: str = "U",
         trans: str = "N") -> np.ndarray:
    """Symmetric rank-k update: ``C := alpha*A*Aᵀ + beta*C`` (trans='N') or
    ``alpha*Aᵀ*A + beta*C`` (trans='T'); only the ``uplo`` triangle of C is
    updated."""
    if trans.upper() == "N":
        upd = alpha * (a @ a.T)
    else:
        upd = alpha * (a.T @ a)
    return _rank_k_store(c, upd, beta, uplo, False)


def herk(alpha, a: np.ndarray, beta, c: np.ndarray, uplo: str = "U",
         trans: str = "N") -> np.ndarray:
    """Hermitian rank-k update (alpha, beta real)."""
    if trans.upper() == "N":
        upd = alpha * (a @ np.conj(a.T))
    else:
        upd = alpha * (np.conj(a.T) @ a)
    return _rank_k_store(c, upd, beta, uplo, True)


def syr2k(alpha, a, b, beta, c, uplo="U", trans="N"):
    """Symmetric rank-2k update."""
    if trans.upper() == "N":
        upd = alpha * (a @ b.T)
        upd = upd + upd.T
    else:
        upd = alpha * (a.T @ b)
        upd = upd + upd.T
    return _rank_k_store(c, upd, beta, uplo, False)


def her2k(alpha, a, b, beta, c, uplo="U", trans="N"):
    """Hermitian rank-2k update (beta real)."""
    if trans.upper() == "N":
        upd = alpha * (a @ np.conj(b.T))
        upd = upd + np.conj(upd.T)
    else:
        upd = alpha * (np.conj(a.T) @ b)
        upd = upd + np.conj(upd.T)
    return _rank_k_store(c, upd, beta, uplo, True)


def _tri(a: np.ndarray, uplo: str, diag: str) -> np.ndarray:
    t = np.triu(a) if uplo.upper() == "U" else np.tril(a)
    if diag.upper() == "U":
        np.fill_diagonal(t, 1)
    return t


def trmm(alpha, a: np.ndarray, b: np.ndarray, side: str = "L",
         uplo: str = "U", transa: str = "N", diag: str = "N") -> np.ndarray:
    """Triangular matrix-matrix product ``B := alpha*op(A)*B`` (side='L')
    or ``alpha*B*op(A)`` (side='R'), in place."""
    t = _op(_tri(a, uplo, diag), transa)
    if side.upper() == "L":
        b[...] = alpha * (t @ b)
    else:
        b[...] = alpha * (b @ t)
    return b


def _sweep_floats(blk, col, unit, backward):
    """Substitute one float64 column ``col`` through ``blk``, the
    diagonal block of op(A) (upper when ``backward``, else lower), on
    Python floats, in place.  Row ``i`` subtracts ``blk[i, j] * x[j]``
    for ``j`` in the order the NumPy sweep in :func:`_sweep` updates it,
    each product and difference rounded on its own, then divides, so
    the bytes are the same.  Returns False, touching nothing, when a
    diagonal entry it would divide by is zero (Python raises there where
    NumPy gives ±inf or NaN) or when the result holds a NaN: CPython and
    NumPy keep different operands' NaN for NaN × NaN and NaN − NaN, and
    a NaN met on the way always reaches the result."""
    if backward:
        # Reversed rows and columns turn the upper sweep into a lower one.
        blk, col = blk[::-1, ::-1], col[::-1]
    if not unit:
        d = blk.diagonal().tolist()
        if 0.0 in d:
            return False
    x = col.tolist()
    for i, row in enumerate(blk.tolist()):
        acc = x[i]
        for mij, xj in zip(row, x[:i]):
            acc -= mij * xj
        x[i] = acc if unit else acc / d[i]
    total = sum(x)
    if total != total:
        return False
    col[:] = x
    return True


def _sweep(blk, b, unit, backward):
    """Substitute ``b`` through ``blk``, the diagonal block of op(A)
    (upper when ``backward``, else lower), with one broadcast update of
    ``b`` per step, in place."""
    # Each step multiplies a column of blk as a contiguous row of one
    # C-ordered copy, the operand np.outer makes: NumPy's float32 loops
    # keep a different operand's NaN for NaN × NaN on a strided column.
    cols = np.ascontiguousarray(blk.T)
    nb = blk.shape[0]
    for k in range(nb - 1, -1, -1) if backward else range(nb):
        if not unit:
            b[k] = b[k] / blk[k, k]
        if backward:
            b[:k] -= cols[k, :k, None] * b[k]
        else:
            b[k + 1:] -= cols[k, k + 1:, None] * b[k]


def trsm(alpha, a: np.ndarray, b: np.ndarray, side: str = "L",
         uplo: str = "U", transa: str = "N", diag: str = "N") -> np.ndarray:
    """Triangular solve with multiple right-hand sides, in place:

    * side='L': solve ``op(A) X = alpha B``  → ``B := X``
    * side='R': solve ``X op(A) = alpha B``  → ``B := X``

    Blocked substitution: a sweep inside each 32-row diagonal block, one
    GEMM update of the remaining rows between blocks, so multiple RHS
    stay fully vectorized.  When B is one float64 column (a one-row B on
    the right, through its transpose) and A is float64, the in-block
    sweep runs on Python floats (:func:`_sweep_floats`): the same
    divide, multiply and subtract in the same order, each rounded on
    its own as NumPy rounds it, so the bytes match the NumPy sweep
    (``tests/lapack77/test_lu_parity.py::test_trsm_bit_identical``).  A
    block with an exact zero on a diagonal entry it divides by runs the
    NumPy sweep, which gives ±inf/NaN where Python would raise, and so
    does a block whose result holds a NaN, whose sign bit only the NumPy
    sweep pins.  Complex, float32 and multi-column B always run the
    NumPy sweep; the block size and the GEMM between blocks, which fix
    the summation order, are the same on both paths.
    """
    up = uplo.upper() == "U"
    unit = diag.upper() == "U"
    ta = transa.upper()
    if alpha != 1:
        b *= alpha
    if ta == "C":
        mat = np.conj(a) if a.dtype.kind == "c" else a
        ta = "T"
    else:
        mat = a
    n = mat.shape[0]
    left = side.upper() == "L"
    if left:
        # Solve op(A) X = B by blocked substitution: scalar sweeps inside
        # nb-sized diagonal blocks, GEMM updates between blocks — the
        # Level-3 organization that keeps Python-loop overhead O(n).
        nb = 32
        backward = (ta == "N") == up
        blocks = list(range(0, n, nb))
        if backward:
            blocks = blocks[::-1]
        floats = b.shape[1] == 1 and b.dtype == np.float64 \
            and mat.dtype == np.float64
        for j0 in blocks:
            j1 = min(j0 + nb, n)
            # In-block substitution (rows j0..j1-1).
            blk = mat[j0:j1, j0:j1]
            if ta != "N":
                blk = blk.T
            if not (floats and _sweep_floats(blk, b[j0:j1, 0], unit,
                                             backward)):
                _sweep(blk, b[j0:j1], unit, backward)
            # Rank-update the remaining rows with one GEMM.
            if ta == "N":
                if up and j0 > 0:
                    b[:j0] -= mat[:j0, j0:j1] @ b[j0:j1]
                elif not up and j1 < n:
                    b[j1:] -= mat[j1:, j0:j1] @ b[j0:j1]
            else:
                if up and j1 < n:
                    b[j1:] -= mat[j0:j1, j1:].T @ b[j0:j1]
                elif not up and j0 > 0:
                    b[:j0] -= mat[j0:j1, :j0].T @ b[j0:j1]
    else:
        # Solve X op(A) = B, columns of B updated.
        # X op(A) = B  ⇔  op(A)ᵀ Xᵀ = Bᵀ; reuse the left sweep on B.T views.
        bt = b.T
        flip = {"N": "T", "T": "N"}[ta]
        # op(A)ᵀ: if ta == 'N', we need Aᵀ solve == trans solve on A.
        trsm(1, mat, bt, side="L", uplo=uplo, transa=flip, diag=diag)
    return b
