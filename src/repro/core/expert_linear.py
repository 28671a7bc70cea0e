"""Expert Driver Routines for Linear Equations (paper Appendix G, §2).

Each ``la_xxsvx`` driver reproduces the full LAPACK expert pipeline:

1. optionally **equilibrate** (``fact='E'``, where the family supports it),
2. **factor** (or reuse supplied factors with ``fact='F'``),
3. estimate the **reciprocal condition number**,
4. **solve**, then run **iterative refinement**,
5. return per-column **forward/backward error bounds**,
6. set ``info = n+1`` when the matrix is singular to working precision.

Outputs are collected in :class:`ExpertResult`; the solution is *not*
written into ``b`` (matching LAPACK, which returns X separately and
preserves B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import Info, SingularMatrix, NotPositiveDefinite
from ..backends.kernels import (gbcon, gbequ, gbrfs, gbtrf, gbtrs, gecon,
                                geequ, gerfs, getrf, getrs, gtcon, gtrfs,
                                gttrf, gttrs, hecon, herfs, hetrf, hetrs,
                                hpcon, hptrf, lamch, langb, lange, langt,
                                lanhe, lansb, lansp, lansy, lanst, laqge,
                                laqsy, pbcon, pbequ, pbrfs, pbtrf, pbtrs,
                                pocon, poequ, porfs, potrf, potrs, ppcon,
                                pprfs, pptrf, pptrs, ptcon, ptrfs, pttrf,
                                pttrs, spcon, sptrf, sptrs, sycon, syrfs,
                                sytrf, sytrs)
from ..policy import illcond_event
from ..resilience import deadlines
from .auxmod import as_matrix, lsame
from .shell import driver_shell

__all__ = ["ExpertResult", "la_gesvx", "la_gbsvx", "la_gtsvx", "la_posvx",
           "la_ppsvx", "la_pbsvx", "la_ptsvx", "la_sysvx", "la_hesvx",
           "la_spsvx", "la_hpsvx"]


@dataclass
class ExpertResult:
    """Everything an expert driver reports.

    Attributes mirror the paper's optional output arguments: the solution
    ``x``, condition estimate ``rcond``, error bounds ``ferr``/``berr``
    (one entry per right-hand side), the applied equilibration ``equed``
    and scalings (``r``/``c`` or ``s``), the reciprocal pivot growth
    ``rpvgrw`` (GE/GB only), and the factorization (``af``/``ipiv`` or
    family-specific factors) for reuse with ``fact='F'``.
    """
    x: np.ndarray | None = None
    rcond: float = 0.0
    ferr: np.ndarray | None = None
    berr: np.ndarray | None = None
    equed: str = "N"
    r: np.ndarray | None = None
    c: np.ndarray | None = None
    s: np.ndarray | None = None
    rpvgrw: float | None = None
    af: np.ndarray | None = None
    ipiv: np.ndarray | None = None
    factors: tuple = field(default_factory=tuple)
    info_value: int = 0


def _refused(linfo, **_):
    return ExpertResult(info_value=linfo)


def _failed(res, linfo, exc):
    """The factorization failed at minor/pivot ``linfo``."""
    res.rcond = 0.0
    res.info_value = linfo
    return res, linfo, exc


def _solved(srname, res, x, x2d, was_vec, n, dtype):
    """Hand the refined solution out (``res.x`` shaped like ``b``, and
    into ``x`` when supplied) with the catalogue-wide ill-conditioning
    verdict: ``info = n+1`` when RCOND is below machine epsilon (the
    matrix is singular to working precision), with the policy's RCOND
    guard deciding whether an
    :class:`repro.errors.IllConditionedWarning` accompanies it."""
    res.x = x2d[:, 0] if was_vec else x2d
    if x is not None:
        xv, _ = as_matrix(x)
        xv[:] = x2d
    linfo = 0
    if n > 0 and res.rcond < lamch("E", dtype):
        illcond_event(srname, res.rcond)
        linfo = n + 1
    res.info_value = linfo
    return res, linfo, None


@driver_shell("la_gesvx", refused=_refused)
def la_gesvx(a: np.ndarray, b: np.ndarray, x: np.ndarray | None = None,
             af: np.ndarray | None = None, ipiv: np.ndarray | None = None,
             fact: str = "N", trans: str = "N", equed: str | None = None,
             r: np.ndarray | None = None, c: np.ndarray | None = None,
             info: Info | None = None) -> ExpertResult:
    """Solves ``A X = B`` (or ``AᵀX = B`` / ``AᴴX = B``) with
    equilibration, condition estimation, iterative refinement and error
    bounds (paper: ``CALL LA_GESVX( A, B, X, … )``).

    ``fact``: 'N' factor A; 'E' equilibrate then factor; 'F' reuse the
    supplied ``af``/``ipiv`` (and ``equed``/``r``/``c``).
    """
    srname = "LA_GESVX"
    res = ExpertResult()
    n = a.shape[0]
    bmat, was_vec = as_matrix(b)
    nrhs = bmat.shape[1]
    equed_out = "N" if equed is None else equed
    a_work = a
    b_work = bmat.astype(a.dtype, copy=True)
    if lsame(fact, "E"):
        rr, cc, rowcnd, colcnd, amax, ieq = geequ(a)
        if ieq == 0:
            equed_out = laqge(a, rr, cc, rowcnd, colcnd, amax)
            res.r, res.c = rr, cc
    elif lsame(fact, "F") and equed is not None and r is not None \
            and c is not None:
        res.r, res.c = r, c
    # Scale the RHS to match the equilibrated system.
    row_scaled = equed_out in ("R", "B")
    col_scaled = equed_out in ("C", "B")
    t = trans.upper()
    if row_scaled and t == "N" and res.r is not None:
        b_work *= res.r[:, None]
    if col_scaled and t != "N" and res.c is not None:
        b_work *= res.c[:, None]
    # Factor.
    if lsame(fact, "F"):
        res.af, res.ipiv = af, ipiv
        linfo = 0
    else:
        res.af = a.copy()
        res.ipiv, linfo = getrf(res.af)
    if linfo > 0:
        return _failed(res, linfo, SingularMatrix)
    deadlines.check(srname, "factor", info)
    # Reciprocal pivot growth: max|A| / max|U| (LAPACK's convention).
    umax = float(np.abs(np.triu(res.af)).max()) if n else 0.0
    amax_ = float(np.abs(a).max()) if n else 0.0
    res.rpvgrw = (amax_ / umax) if umax > 0 else 1.0
    # Condition estimate (of the equilibrated matrix).
    norm = "1" if t == "N" else "I"
    anorm = lange(norm, a)
    res.rcond, _ = gecon(res.af, anorm, norm=norm)
    res.rcond = min(res.rcond, 1.0)
    # Solve + refine.
    deadlines.check(srname, "solve", info)
    x2d = b_work.copy()
    getrs(res.af, res.ipiv, x2d, trans=t)
    deadlines.check(srname, "refine", info)
    res.ferr, res.berr, _ = gerfs(a, res.af, res.ipiv, b_work, x2d,
                                  trans=t)
    # Undo equilibration on the solution.
    if t == "N" and col_scaled and res.c is not None:
        x2d *= res.c[:, None]
    if t != "N" and row_scaled and res.r is not None:
        x2d *= res.r[:, None]
    res.equed = equed_out
    return _solved(srname, res, x, x2d, was_vec, n, a.dtype)


@driver_shell("la_gbsvx", refused=_refused)
def la_gbsvx(ab: np.ndarray, b: np.ndarray, x: np.ndarray | None = None,
             kl: int | None = None, abf: np.ndarray | None = None,
             ipiv: np.ndarray | None = None, fact: str = "N",
             trans: str = "N", info: Info | None = None) -> ExpertResult:
    """Expert band solver (paper ``LA_GBSVX``): factor + condition +
    refinement for a band system.  ``ab`` is the *plain* band storage
    ``(kl+ku+1, n)`` here (the expert driver keeps A and its factor
    separately, as LAPACK does)."""
    srname = "LA_GBSVX"
    res = ExpertResult()
    n = ab.shape[1]
    rows = ab.shape[0]
    if kl is None:
        kl = (rows - 1) // 2
    ku = rows - kl - 1
    t = trans.upper()
    bmat, was_vec = as_matrix(b)
    if lsame(fact, "F"):
        res.af, res.ipiv = abf, ipiv
        linfo = 0
    else:
        res.af = np.zeros((2 * kl + ku + 1, n), dtype=ab.dtype)
        res.af[kl:, :] = ab
        res.ipiv, linfo = gbtrf(res.af, kl, ku)
    if linfo > 0:
        return _failed(res, linfo, SingularMatrix)
    deadlines.check(srname, "factor", info)
    norm = "1" if t == "N" else "I"
    anorm = langb(norm, ab, kl, ku)
    res.rcond, _ = gbcon(res.af, kl, ku, res.ipiv, anorm, norm=norm)
    res.rcond = min(res.rcond, 1.0)
    deadlines.check(srname, "solve", info)
    x2d = bmat.astype(ab.dtype, copy=True)
    gbtrs(res.af, kl, ku, res.ipiv, x2d, trans=t)
    deadlines.check(srname, "refine", info)
    res.ferr, res.berr, _ = gbrfs(ab, res.af, kl, ku, res.ipiv, bmat, x2d,
                                  trans=t)
    return _solved(srname, res, x, x2d, was_vec, n, ab.dtype)


@driver_shell("la_gtsvx", refused=_refused)
def la_gtsvx(dl, d, du, b, x=None, trans: str = "N",
             info: Info | None = None) -> ExpertResult:
    """Expert tridiagonal solver (paper ``LA_GTSVX``)."""
    srname = "LA_GTSVX"
    res = ExpertResult()
    n = d.shape[0]
    t = trans.upper()
    bmat, was_vec = as_matrix(b)
    dlf, df, duf = dl.copy(), d.copy(), du.copy()
    du2, ipiv, linfo = gttrf(dlf, df, duf)
    res.factors = (dlf, df, duf, du2)
    res.ipiv = ipiv
    if linfo > 0:
        return _failed(res, linfo, SingularMatrix)
    deadlines.check(srname, "factor", info)
    norm = "1" if t == "N" else "I"
    anorm = langt(norm, dl, d, du)
    res.rcond, _ = gtcon(dlf, df, duf, du2, ipiv, anorm, norm=norm)
    res.rcond = min(res.rcond, 1.0)
    deadlines.check(srname, "solve", info)
    x2d = bmat.astype(d.dtype, copy=True)
    gttrs(dlf, df, duf, du2, ipiv, x2d, trans=t)
    deadlines.check(srname, "refine", info)
    res.ferr, res.berr, _ = gtrfs(dl, d, du, dlf, df, duf, du2, ipiv,
                                  bmat, x2d, trans=t)
    return _solved(srname, res, x, x2d, was_vec, n, d.dtype)


@driver_shell("la_posvx", refused=_refused)
def la_posvx(a: np.ndarray, b: np.ndarray, x: np.ndarray | None = None,
             uplo: str = "U", af: np.ndarray | None = None,
             fact: str = "N", s: np.ndarray | None = None,
             info: Info | None = None) -> ExpertResult:
    """Expert SPD/HPD solver with equilibration (paper ``LA_POSVX``)."""
    srname = "LA_POSVX"
    res = ExpertResult()
    n = a.shape[0]
    bmat, was_vec = as_matrix(b)
    b_work = bmat.astype(a.dtype, copy=True)
    equed_out = "N"
    if lsame(fact, "E"):
        ss, scond, amax, ieq = poequ(a)
        if ieq == 0:
            equed_out = laqsy(a, ss, scond, amax, uplo)
            if equed_out == "Y":
                res.s = ss
                b_work *= ss[:, None]
    if lsame(fact, "F"):
        res.af = af
        linfo = 0
    else:
        res.af = a.copy()
        linfo = potrf(res.af, uplo)
    if linfo > 0:
        return _failed(res, linfo, NotPositiveDefinite)
    deadlines.check(srname, "factor", info)
    hermitian = np.iscomplexobj(a)
    anorm = lanhe("1", a, uplo) if hermitian else lansy("1", a, uplo)
    res.rcond, _ = pocon(res.af, anorm, uplo)
    res.rcond = min(res.rcond, 1.0)
    deadlines.check(srname, "solve", info)
    x2d = b_work.copy()
    potrs(res.af, x2d, uplo)
    deadlines.check(srname, "refine", info)
    res.ferr, res.berr, _ = porfs(a, res.af, b_work, x2d, uplo)
    if equed_out == "Y" and res.s is not None:
        x2d *= res.s[:, None]
    res.equed = equed_out
    return _solved(srname, res, x, x2d, was_vec, n, a.dtype)


@driver_shell("la_ppsvx", refused=_refused)
def la_ppsvx(ap: np.ndarray, b: np.ndarray, x: np.ndarray | None = None,
             uplo: str = "U", afp: np.ndarray | None = None,
             fact: str = "N", info: Info | None = None) -> ExpertResult:
    """Expert packed SPD/HPD solver (paper ``LA_PPSVX``)."""
    srname = "LA_PPSVX"
    res = ExpertResult()
    n = b.shape[0]
    bmat, was_vec = as_matrix(b)
    if lsame(fact, "F"):
        res.af = afp
        linfo = 0
    else:
        res.af = ap.copy()
        linfo = pptrf(res.af, uplo)
    if linfo > 0:
        return _failed(res, linfo, NotPositiveDefinite)
    deadlines.check(srname, "factor", info)
    hermitian = np.iscomplexobj(ap)
    anorm = lansp("1", ap, n, uplo, hermitian=hermitian)
    res.rcond, _ = ppcon(res.af, anorm, uplo)
    res.rcond = min(res.rcond, 1.0)
    deadlines.check(srname, "solve", info)
    x2d = bmat.astype(ap.dtype, copy=True)
    pptrs(res.af, x2d, uplo)
    deadlines.check(srname, "refine", info)
    res.ferr, res.berr, _ = pprfs(ap, res.af, bmat, x2d, uplo)
    return _solved(srname, res, x, x2d, was_vec, n, ap.dtype)


@driver_shell("la_pbsvx", refused=_refused)
def la_pbsvx(ab: np.ndarray, b: np.ndarray, x: np.ndarray | None = None,
             uplo: str = "U", afb: np.ndarray | None = None,
             fact: str = "N", info: Info | None = None) -> ExpertResult:
    """Expert SPD/HPD band solver (paper ``LA_PBSVX``)."""
    srname = "LA_PBSVX"
    res = ExpertResult()
    n = ab.shape[1]
    bmat, was_vec = as_matrix(b)
    if lsame(fact, "F"):
        res.af = afb
        linfo = 0
    else:
        res.af = ab.copy()
        linfo = pbtrf(res.af, uplo)
    if linfo > 0:
        return _failed(res, linfo, NotPositiveDefinite)
    deadlines.check(srname, "factor", info)
    hermitian = np.iscomplexobj(ab)
    anorm = lansb("1", ab, n, uplo, hermitian=hermitian)
    res.rcond, _ = pbcon(res.af, anorm, uplo)
    res.rcond = min(res.rcond, 1.0)
    deadlines.check(srname, "solve", info)
    x2d = bmat.astype(ab.dtype, copy=True)
    pbtrs(res.af, x2d, uplo)
    deadlines.check(srname, "refine", info)
    res.ferr, res.berr, _ = pbrfs(ab, res.af, bmat, x2d, uplo)
    return _solved(srname, res, x, x2d, was_vec, n, ab.dtype)


@driver_shell("la_ptsvx", refused=_refused)
def la_ptsvx(d: np.ndarray, e: np.ndarray, b: np.ndarray,
             x: np.ndarray | None = None, fact: str = "N",
             info: Info | None = None) -> ExpertResult:
    """Expert SPD tridiagonal solver (paper ``LA_PTSVX``)."""
    srname = "LA_PTSVX"
    res = ExpertResult()
    n = d.shape[0]
    bmat, was_vec = as_matrix(b)
    df, ef = d.copy(), e.copy()
    linfo = pttrf(df, ef)
    res.factors = (df, ef)
    if linfo > 0:
        return _failed(res, linfo, NotPositiveDefinite)
    deadlines.check(srname, "factor", info)
    anorm = lanst("1", d, np.abs(e))
    res.rcond, _ = ptcon(df, ef, anorm)
    res.rcond = min(res.rcond, 1.0)
    deadlines.check(srname, "solve", info)
    x2d = bmat.astype(np.result_type(d.dtype, e.dtype), copy=True)
    pttrs(df, ef, x2d)
    deadlines.check(srname, "refine", info)
    res.ferr, res.berr, _ = ptrfs(d, e, df, ef, bmat, x2d)
    return _solved(srname, res, x, x2d, was_vec, n, e.dtype)


def _indef_expert(srname, trf, trs, con, rfs, a, b, x, uplo, af, ipiv,
                  fact, info, hermitian):
    res = ExpertResult()
    n = a.shape[0]
    bmat, was_vec = as_matrix(b)
    if lsame(fact, "F"):
        res.af, res.ipiv = af, ipiv
        linfo = 0
    else:
        res.af = a.copy()
        res.ipiv, linfo = trf(res.af, uplo)
    if linfo > 0:
        return _failed(res, linfo, SingularMatrix)
    deadlines.check(srname, "factor", info)
    anorm = lanhe("1", a, uplo) if hermitian else lansy("1", a, uplo)
    res.rcond, _ = con(res.af, res.ipiv, anorm, uplo)
    res.rcond = min(res.rcond, 1.0)
    deadlines.check(srname, "solve", info)
    x2d = bmat.astype(a.dtype, copy=True)
    trs(res.af, res.ipiv, x2d, uplo)
    deadlines.check(srname, "refine", info)
    res.ferr, res.berr, _ = rfs(a, res.af, res.ipiv, bmat, x2d, uplo)
    return _solved(srname, res, x, x2d, was_vec, n, a.dtype)


@driver_shell("la_sysvx", refused=_refused)
def la_sysvx(a, b, x=None, uplo="U", af=None, ipiv=None, fact="N",
             info: Info | None = None) -> ExpertResult:
    """Expert symmetric indefinite solver (paper ``LA_SYSVX``)."""
    return _indef_expert("LA_SYSVX", sytrf, sytrs, sycon, syrfs, a, b, x,
                         uplo, af, ipiv, fact, info, hermitian=False)


@driver_shell("la_hesvx", refused=_refused)
def la_hesvx(a, b, x=None, uplo="U", af=None, ipiv=None, fact="N",
             info: Info | None = None) -> ExpertResult:
    """Expert Hermitian indefinite solver (paper ``LA_HESVX``)."""
    return _indef_expert("LA_HESVX", hetrf, hetrs, hecon, herfs, a, b, x,
                         uplo, af, ipiv, fact, info, hermitian=True)


def _packed_indef_expert(srname, hermitian, ap, b, x, uplo, afp, ipiv,
                         fact, info):
    res = ExpertResult()
    n = b.shape[0]
    bmat, was_vec = as_matrix(b)
    if lsame(fact, "F"):
        res.af, res.ipiv = afp, ipiv
        linfo = 0
    else:
        res.af = ap.copy()
        if hermitian:
            res.ipiv, linfo = hptrf(res.af, uplo)
        else:
            res.ipiv, linfo = sptrf(res.af, uplo)
    if linfo > 0:
        return _failed(res, linfo, SingularMatrix)
    deadlines.check(srname, "factor", info)
    anorm = lansp("1", ap, n, uplo, hermitian=hermitian)
    if hermitian:
        res.rcond, _ = hpcon(res.af, res.ipiv, anorm, uplo)
    else:
        res.rcond, _ = spcon(res.af, res.ipiv, anorm, uplo)
    res.rcond = min(res.rcond, 1.0)
    deadlines.check(srname, "solve", info)
    x2d = bmat.astype(ap.dtype, copy=True)
    sptrs(res.af, res.ipiv, x2d, uplo, hermitian=hermitian)
    deadlines.check(srname, "refine", info)
    # Refinement via the dense machinery on the unpacked matrix.
    from ..storage import unpack
    full = unpack(ap, n, uplo=uplo, symmetric=not hermitian,
                  hermitian=hermitian)
    fullf = unpack(res.af, n, uplo=uplo)
    rfs = herfs if hermitian else syrfs
    res.ferr, res.berr, _ = rfs(full, fullf, res.ipiv, bmat, x2d, uplo)
    return _solved(srname, res, x, x2d, was_vec, n, ap.dtype)


@driver_shell("la_spsvx", refused=_refused)
def la_spsvx(ap, b, x=None, uplo="U", afp=None, ipiv=None, fact="N",
             info: Info | None = None) -> ExpertResult:
    """Expert packed symmetric indefinite solver (paper ``LA_SPSVX``)."""
    return _packed_indef_expert("LA_SPSVX", False, ap, b, x, uplo, afp,
                                ipiv, fact, info)


@driver_shell("la_hpsvx", refused=_refused)
def la_hpsvx(ap, b, x=None, uplo="U", afp=None, ipiv=None, fact="N",
             info: Info | None = None) -> ExpertResult:
    """Expert packed Hermitian indefinite solver (paper ``LA_HPSVX``)."""
    return _packed_indef_expert("LA_HPSVX", True, ap, b, x, uplo, afp,
                                ipiv, fact, info)
