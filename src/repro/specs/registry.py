"""The declarative registry of all 77 ``la_*`` drivers.

Each :class:`~repro.specs.model.DriverSpec` is the single source of
truth for one wrapper: the Appendix-G catalogue entry, the argument
positions that negative ``LINFO`` codes are keyed to, the ordered
validation ladder replayed by :mod:`repro.specs.engine`, the derived
error-exit table row (``in_table`` arguments), the bound backend kernel,
and the dtype/generic-dispatch metadata.

The check ladders below are transcriptions of the hand-written
``linfo = -k`` ladders the ``core/*`` drivers shipped with; the frozen
pre-refactor table in ``tests/core/fixtures/error_exit_codes_v0.json``
pins the derived view to that history.
"""

from __future__ import annotations

from .model import ArgSpec, Check, DriverSpec

__all__ = ["SPECS", "error_exit_codes"]

C = Check

# Shared flag domains / check parameters.
_UL = {"options": ("U", "L")}
_NV = {"options": ("N", "V")}
_NEF = {"options": ("N", "E", "F")}
_NTC = {"options": ("N", "T", "C"), "mode": "exact"}
_NORM1OI = {"options": ("1", "O", "I")}
_ITYPE = {"values": (1, 2, 3)}

# Appendix-G section titles (must match the catalogue inventory).
_S1 = "Driver Routines for Linear Equations"
_S2 = "Expert Driver Routines for Linear Equations"
_S3 = "Driver Routines for Linear Least Squares Problems"
_S4 = "Driver Routines for generalized Linear Least Squares Problems"
_S5 = "Driver Routines for Standard Eigenvalue and Singular Value Problems"
_S6 = "Divide and Conquer Driver Routines"
_S7 = "Expert Driver Routines for Standard Eigenvalue Problems"
_S8 = "Driver Routines for Generalized Eigenvalue and SVD Problems"
_S9 = "Some Computational Routines"
_S10 = "Matrix Manipulation Routines"

_KINDS = ("matrix", "rhs", "vector", "flag", "scalar", "info")


def _args(*defs):
    """Build the ArgSpec tuple from ``"name[:kind][:mods]"`` strings.

    Positions are assigned from signature order (1-based).  Mods:
    ``opt`` (optional), ``in``/``inout``/``out`` (intent), ``ws``
    (wrapper-allocated workspace output), ``tbl`` (row of the shared
    error-exit table).
    """
    out = []
    for pos, text in enumerate(defs, 1):
        name, *mods = text.split(":")
        kind, kw = "matrix", {}
        for m in mods:
            if m in _KINDS:
                kind = m
            elif m == "opt":
                kw["required"] = False
            elif m in ("in", "inout", "out"):
                kw["intent"] = m
            elif m == "ws":
                kw["workspace"] = True
            elif m == "tbl":
                kw["in_table"] = True
            else:
                raise ValueError(f"unknown arg modifier {m!r} in {text!r}")
        if kind == "info":
            kw.setdefault("required", False)
            kw.setdefault("intent", "out")
        out.append(ArgSpec(name, pos, kind, **kw))
    return tuple(out)


_SPEC_LIST = [
    # -- §1: simple linear-equation drivers ---------------------------
    DriverSpec(
        "la_gesv", _S1, "General system A X = B via LU with partial "
        "pivoting",
        screen="nonempty",
        args=_args("a:inout:tbl", "b:rhs:inout:tbl",
                   "ipiv:vector:opt:out:ws:tbl", "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "rhs", ("b",), "n"),
                C(-3, "optlen", ("ipiv",), "n")),
        kernel="gesv", reference_only=False, batchable=True,
        problem_kind="solve", structure=("general",),
        positive_info="i: U(i,i) is exactly zero — the factor U is "
        "singular and no solution was computed"),
    DriverSpec(
        "la_gbsv", _S1, "General band system via band LU with partial "
        "pivoting",
        screen="always",
        args=_args("ab:inout:tbl", "b:rhs:inout:tbl",
                   "kl:scalar:opt:tbl", "ipiv:vector:opt:out:ws:tbl",
                   "info:info"),
        dims=(("rows", "rows2d", "ab"), ("n", "cols2d", "ab")),
        checks=(C(-1, "matrix2d", ("ab",)),
                C(-3, "band", ("kl",), "rows"),
                C(-2, "rhs", ("b",), "n"),
                C(-4, "optlen", ("ipiv",), "n")),
        kernel="gbsv", reference_only=False,
        problem_kind="solve", structure=("banded",),
        positive_info="i: U(i,i) is exactly zero — no solution"),
    DriverSpec(
        "la_gtsv", _S1, "General tridiagonal system via Gaussian "
        "elimination with partial pivoting",
        screen="nonempty",
        args=_args("dl:vector:inout:tbl", "d:vector:inout:tbl",
                   "du:vector:inout:tbl", "b:rhs:inout:tbl",
                   "info:info"),
        dims=(("n", "len", "d"),),
        checks=(C(-1, "offdiag", ("dl",), "n"),
                C(-2, "nonneg", (), "n"),
                C(-3, "offdiag", ("du",), "n"),
                C(-4, "rhs", ("b",), "n")),
        kernel="gtsv", reference_only=False,
        problem_kind="solve", structure=("tridiagonal",),
        positive_info="i: U(i,i) is exactly zero — no solution"),
    DriverSpec(
        "la_posv", _S1, "Symmetric/Hermitian positive definite system "
        "via Cholesky",
        screen="nonempty",
        args=_args("a:inout:tbl", "b:rhs:inout:tbl", "uplo:flag:opt:tbl",
                   "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "rhs", ("b",), "n"),
                C(-3, "flag", ("uplo",), params=_UL)),
        kernel="posv", reference_only=False, batchable=True,
        problem_kind="solve", structure=("spd", "hpd"),
        positive_info="i: the leading minor of order i is not positive "
        "definite"),
    DriverSpec(
        "la_ppsv", _S1, "Positive definite system, packed storage",
        screen="nonempty",
        args=_args("ap:vector:inout:tbl", "b:rhs:inout:tbl",
                   "uplo:flag:opt:tbl", "info:info"),
        dims=(("n", "len", "b"),),
        checks=(C(-1, "packed", ("ap",), "n"),
                C(-2, "nonneg", (), "n"),
                C(-3, "flag", ("uplo",), params=_UL)),
        kernel="ppsv",
        positive_info="i: the leading minor of order i is not positive "
        "definite"),
    DriverSpec(
        "la_pbsv", _S1, "Positive definite band system via band "
        "Cholesky",
        screen="nonempty",
        args=_args("ab:inout:tbl", "b:rhs:inout:tbl", "uplo:flag:opt:tbl",
                   "info:info"),
        dims=(("n", "cols2d", "ab"),),
        checks=(C(-1, "matrix2d", ("ab",)),
                C(-2, "rhs", ("b",), "n"),
                C(-3, "flag", ("uplo",), params=_UL)),
        kernel="pbsv", reference_only=False,
        positive_info="i: the leading minor of order i is not positive "
        "definite"),
    DriverSpec(
        "la_ptsv", _S1, "Positive definite tridiagonal system via "
        "L D L^H",
        screen="nonempty",
        args=_args("d:vector:inout:tbl", "e:vector:inout:tbl",
                   "b:rhs:inout:tbl", "info:info"),
        dims=(("n", "len", "d"),),
        checks=(C(-1, "nonneg", (), "n"),
                C(-2, "offdiag", ("e",), "n"),
                C(-3, "rhs", ("b",), "n")),
        kernel="ptsv", reference_only=False,
        positive_info="i: the leading minor of order i is not positive "
        "definite"),
    DriverSpec(
        "la_sysv", _S1, "Symmetric indefinite system via diagonal "
        "pivoting",
        screen="nonempty",
        args=_args("a:inout:tbl", "b:rhs:inout:tbl", "uplo:flag:opt:tbl",
                   "ipiv:vector:opt:out:ws:tbl", "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "rhs", ("b",), "n"),
                C(-3, "flag", ("uplo",), params=_UL),
                C(-4, "optlen", ("ipiv",), "n")),
        kernel="sysv", reference_only=False, pair="la_hesv",
        batchable=True, problem_kind="solve", structure=("symmetric",),
        positive_info="i: D(i,i) is exactly zero — the block diagonal "
        "factor is singular"),
    DriverSpec(
        "la_hesv", _S1, "Hermitian indefinite system via diagonal "
        "pivoting",
        screen="nonempty",
        args=_args("a:inout:tbl", "b:rhs:inout:tbl", "uplo:flag:opt:tbl",
                   "ipiv:vector:opt:out:ws:tbl", "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "rhs", ("b",), "n"),
                C(-3, "flag", ("uplo",), params=_UL),
                C(-4, "optlen", ("ipiv",), "n")),
        kernel="hesv", reference_only=False, dtypes="complex",
        pair="la_sysv", batchable=True,
        problem_kind="solve", structure=("hermitian",),
        positive_info="i: D(i,i) is exactly zero — the block diagonal "
        "factor is singular"),
    DriverSpec(
        "la_spsv", _S1, "Symmetric indefinite system, packed storage",
        screen="nonempty",
        args=_args("ap:vector:inout:tbl", "b:rhs:inout:tbl",
                   "uplo:flag:opt:tbl", "ipiv:vector:opt:out:ws:tbl",
                   "info:info"),
        dims=(("n", "len", "b"),),
        checks=(C(-1, "packed", ("ap",), "n"),
                C(-2, "nonneg", (), "n"),
                C(-3, "flag", ("uplo",), params=_UL),
                C(-4, "optlen", ("ipiv",), "n")),
        kernel="spsv", pair="la_hpsv",
        positive_info="i: D(i,i) is exactly zero — the block diagonal "
        "factor is singular"),
    DriverSpec(
        "la_hpsv", _S1, "Hermitian indefinite system, packed storage",
        screen="nonempty",
        args=_args("ap:vector:inout:tbl", "b:rhs:inout:tbl",
                   "uplo:flag:opt:tbl", "ipiv:vector:opt:out:ws:tbl",
                   "info:info"),
        dims=(("n", "len", "b"),),
        checks=(C(-1, "packed", ("ap",), "n"),
                C(-2, "nonneg", (), "n"),
                C(-3, "flag", ("uplo",), params=_UL),
                C(-4, "optlen", ("ipiv",), "n")),
        kernel="hpsv", dtypes="complex", pair="la_spsv",
        positive_info="i: D(i,i) is exactly zero — the block diagonal "
        "factor is singular"),

    # -- §2: expert drivers (factor + refine + condition estimate) ----
    DriverSpec(
        "la_gesvx", _S2, "Expert LU solve: equilibrate, factor, refine, "
        "estimate RCOND",
        screen="always",
        args=_args("a:inout:tbl", "b:rhs:inout:tbl", "x:rhs:opt:out:ws",
                   "af:opt:inout:tbl", "ipiv:vector:opt:inout:ws",
                   "fact:flag:opt:tbl", "trans:flag:opt:tbl",
                   "equed:flag:opt", "r:vector:opt:inout",
                   "c:vector:opt:inout", "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "rhs", ("b",), "n"),
                C(-6, "flag", ("fact",), params=_NEF),
                C(-7, "flag", ("trans",), params=_NTC),
                C(-4, "fact_requires", ("fact", "af", "ipiv"))),
        kernel="getrf", reference_only=False,
        positive_info="i <= n: U(i,i) is exactly zero",
        warn="n+1: RCOND is below machine epsilon — the solution may "
        "be inaccurate"),
    DriverSpec(
        "la_gbsvx", _S2, "Expert band solve with refinement and RCOND",
        screen="always",
        args=_args("ab:inout:tbl", "b:rhs:inout:tbl", "x:rhs:opt:out:ws",
                   "kl:scalar:opt:tbl", "abf:opt:inout:tbl",
                   "ipiv:vector:opt:inout:ws", "fact:flag:opt",
                   "trans:flag:opt:tbl", "info:info"),
        dims=(("rows", "rows2d", "ab"), ("n", "cols2d", "ab")),
        checks=(C(-1, "matrix2d", ("ab",)),
                C(-4, "band", ("kl",), "rows", {"style": "gbx"}),
                C(-2, "rhs", ("b",), "n"),
                C(-8, "flag", ("trans",), params=_NTC),
                C(-5, "fact_requires", ("fact", "abf", "ipiv"))),
        kernel="gbtrf",
        positive_info="i <= n: U(i,i) is exactly zero",
        warn="n+1: RCOND is below machine epsilon — the solution may "
        "be inaccurate"),
    DriverSpec(
        "la_gtsvx", _S2, "Expert tridiagonal solve with refinement and "
        "RCOND",
        screen="always",
        args=_args("dl:vector:tbl", "d:vector:tbl", "du:vector",
                   "b:rhs:tbl", "x:rhs:opt:out:ws", "trans:flag:opt:tbl",
                   "info:info"),
        dims=(("n", "len", "d"),),
        checks=(C(-2, "nonneg", (), "n"),
                C(-1, "offdiag_pair", ("dl", "du"), "n"),
                C(-4, "rhs", ("b",), "n"),
                C(-6, "flag", ("trans",), params=_NTC)),
        kernel="gttrf",
        positive_info="i <= n: U(i,i) is exactly zero",
        warn="n+1: RCOND is below machine epsilon — the solution may "
        "be inaccurate"),
    DriverSpec(
        "la_posvx", _S2, "Expert Cholesky solve with refinement and "
        "RCOND",
        screen="always",
        args=_args("a:inout:tbl", "b:rhs:inout:tbl", "x:rhs:opt:out:ws",
                   "uplo:flag:opt:tbl", "af:opt:inout:tbl",
                   "fact:flag:opt", "s:vector:opt:inout", "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "rhs", ("b",), "n"),
                C(-4, "flag", ("uplo",), params=_UL),
                C(-5, "fact_requires", ("fact", "af"))),
        kernel="potrf", reference_only=False,
        positive_info="i <= n: the leading minor of order i is not "
        "positive definite",
        warn="n+1: RCOND is below machine epsilon — the solution may "
        "be inaccurate"),
    DriverSpec(
        "la_ppsvx", _S2, "Expert packed Cholesky solve with refinement "
        "and RCOND",
        screen="always",
        args=_args("ap:vector:inout:tbl", "b:rhs:inout:tbl",
                   "x:rhs:opt:out:ws", "uplo:flag:opt:tbl",
                   "afp:vector:opt:inout:tbl", "fact:flag:opt",
                   "info:info"),
        dims=(("n", "len", "b"),),
        checks=(C(-1, "packed", ("ap",), "n"),
                C(-2, "nonneg", (), "n"),
                C(-4, "flag", ("uplo",), params=_UL),
                C(-5, "fact_requires", ("fact", "afp"))),
        kernel="pptrf",
        positive_info="i <= n: the leading minor of order i is not "
        "positive definite",
        warn="n+1: RCOND is below machine epsilon — the solution may "
        "be inaccurate"),
    DriverSpec(
        "la_pbsvx", _S2, "Expert band Cholesky solve with refinement "
        "and RCOND",
        screen="always",
        args=_args("ab:inout:tbl", "b:rhs:inout:tbl", "x:rhs:opt:out:ws",
                   "uplo:flag:opt:tbl", "afb:opt:inout:tbl",
                   "fact:flag:opt", "info:info"),
        dims=(("n", "cols2d", "ab"),),
        checks=(C(-1, "matrix2d", ("ab",)),
                C(-2, "rhs", ("b",), "n"),
                C(-4, "flag", ("uplo",), params=_UL),
                C(-5, "fact_requires", ("fact", "afb"))),
        kernel="pbtrf",
        positive_info="i <= n: the leading minor of order i is not "
        "positive definite",
        warn="n+1: RCOND is below machine epsilon — the solution may "
        "be inaccurate"),
    DriverSpec(
        "la_ptsvx", _S2, "Expert positive definite tridiagonal solve "
        "with refinement and RCOND",
        screen="always",
        args=_args("d:vector:tbl", "e:vector:tbl", "b:rhs:tbl",
                   "x:rhs:opt:out:ws", "fact:flag:opt", "info:info"),
        dims=(("n", "len", "d"),),
        checks=(C(-1, "nonneg", (), "n"),
                C(-2, "offdiag", ("e",), "n"),
                C(-3, "rhs", ("b",), "n")),
        kernel="pttrf",
        positive_info="i <= n: the leading minor of order i is not "
        "positive definite",
        warn="n+1: RCOND is below machine epsilon — the solution may "
        "be inaccurate"),
    DriverSpec(
        "la_sysvx", _S2, "Expert symmetric indefinite solve with "
        "refinement and RCOND",
        screen="always",
        args=_args("a:tbl", "b:rhs:tbl", "x:rhs:opt:out:ws",
                   "uplo:flag:opt:tbl", "af:opt:inout:tbl",
                   "ipiv:vector:opt:inout:ws:tbl", "fact:flag:opt",
                   "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "rhs", ("b",), "n"),
                C(-4, "flag", ("uplo",), params=_UL),
                C(-5, "fact_requires", ("fact", "af", "ipiv"))),
        kernel="sytrf", pair="la_hesvx",
        positive_info="i <= n: D(i,i) is exactly zero",
        warn="n+1: RCOND is below machine epsilon — the solution may "
        "be inaccurate"),
    DriverSpec(
        "la_hesvx", _S2, "Expert Hermitian indefinite solve with "
        "refinement and RCOND",
        screen="always",
        args=_args("a:tbl", "b:rhs:tbl", "x:rhs:opt:out:ws",
                   "uplo:flag:opt:tbl", "af:opt:inout:tbl",
                   "ipiv:vector:opt:inout:ws:tbl", "fact:flag:opt",
                   "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "rhs", ("b",), "n"),
                C(-4, "flag", ("uplo",), params=_UL),
                C(-5, "fact_requires", ("fact", "af", "ipiv"))),
        kernel="hetrf", dtypes="complex", pair="la_sysvx",
        positive_info="i <= n: D(i,i) is exactly zero",
        warn="n+1: RCOND is below machine epsilon — the solution may "
        "be inaccurate"),
    DriverSpec(
        "la_spsvx", _S2, "Expert packed symmetric indefinite solve "
        "with refinement and RCOND",
        screen="always",
        args=_args("ap:vector:tbl", "b:rhs:tbl", "x:rhs:opt:out:ws",
                   "uplo:flag:opt:tbl", "afp:vector:opt:inout:tbl",
                   "ipiv:vector:opt:inout:ws:tbl", "fact:flag:opt",
                   "info:info"),
        dims=(("n", "len", "b"),),
        checks=(C(-1, "packed", ("ap",), "n"),
                C(-2, "rhs", ("b",), "n"),
                C(-4, "flag", ("uplo",), params=_UL),
                C(-5, "fact_requires", ("fact", "afp", "ipiv"))),
        kernel="sptrf", pair="la_hpsvx",
        positive_info="i <= n: D(i,i) is exactly zero",
        warn="n+1: RCOND is below machine epsilon — the solution may "
        "be inaccurate"),
    DriverSpec(
        "la_hpsvx", _S2, "Expert packed Hermitian indefinite solve "
        "with refinement and RCOND",
        screen="always",
        args=_args("ap:vector:tbl", "b:rhs:tbl", "x:rhs:opt:out:ws",
                   "uplo:flag:opt:tbl", "afp:vector:opt:inout:tbl",
                   "ipiv:vector:opt:inout:ws:tbl", "fact:flag:opt",
                   "info:info"),
        dims=(("n", "len", "b"),),
        checks=(C(-1, "packed", ("ap",), "n"),
                C(-2, "rhs", ("b",), "n"),
                C(-4, "flag", ("uplo",), params=_UL),
                C(-5, "fact_requires", ("fact", "afp", "ipiv"))),
        kernel="hptrf", dtypes="complex", pair="la_spsvx",
        positive_info="i <= n: D(i,i) is exactly zero",
        warn="n+1: RCOND is below machine epsilon — the solution may "
        "be inaccurate"),

    # -- §3: least squares --------------------------------------------
    DriverSpec(
        "la_gels", _S3, "Full-rank least squares via QR or LQ "
        "factorization",
        screen="always",
        args=_args("a:inout:tbl", "b:rhs:inout:tbl", "trans:flag:opt:tbl",
                   "info:info"),
        checks=(C(-1, "matrix2d", ("a",)),
                C(-2, "custom", ("b",), params={"name": "gels_b"}),
                C(-3, "flag", ("trans",), params=_NTC)),
        kernel="gels", reference_only=False, batchable=True,
        problem_kind="lstsq", structure=("general",)),
    DriverSpec(
        "la_gelsx", _S3, "Rank-deficient least squares via complete "
        "orthogonal factorization",
        screen="always",
        args=_args("a:inout", "b:rhs:inout", "rcond:scalar:opt",
                   "jpvt:vector:opt:inout", "info:info"),
        checks=(C(-1, "matrix2d", ("a",)),
                C(-2, "custom", ("b",), params={"name": "ls_b"})),
        kernel="gelsx"),
    DriverSpec(
        "la_gelss", _S3, "Minimum-norm least squares via the singular "
        "value decomposition",
        screen="always",
        args=_args("a:inout", "b:rhs:inout", "rcond:scalar:opt",
                   "info:info"),
        checks=(C(-1, "matrix2d", ("a",)),
                C(-2, "custom", ("b",), params={"name": "ls_b"})),
        kernel="gelss",
        positive_info="i: the SVD failed to converge (i off-diagonals "
        "did not reduce to zero)"),

    # -- §4: generalized least squares --------------------------------
    DriverSpec(
        "la_gglse", _S4, "Equality-constrained least squares (LSE) via "
        "generalized RQ",
        args=_args("a:inout", "b:inout", "c:vector:inout",
                   "d:vector:inout", "x:vector:opt:out:ws", "info:info"),
        dims=(("m", "rows2d", "a"), ("nn", "cols2d", "a"),
              ("p", "rows2d", "b")),
        checks=(C(-1, "matrix2d", ("a",)),
                C(-2, "custom", ("b",), params={"name": "gglse_b"}),
                C(-3, "reqlen", ("c",), "m"),
                C(-4, "reqlen", ("d",), "p"),
                C(-5, "optlen", ("x",), "nn")),
        kernel="gglse"),
    DriverSpec(
        "la_ggglm", _S4, "Gauss-Markov linear model (GLM) via "
        "generalized QR",
        args=_args("a:inout", "b:inout", "d:vector:inout",
                   "x:vector:opt:out:ws", "y:vector:opt:out:ws",
                   "info:info"),
        dims=(("n", "rows2d", "a"), ("m", "cols2d", "a"),
              ("p", "cols2d", "b")),
        checks=(C(-1, "matrix2d", ("a",)),
                C(-2, "custom", ("b",), params={"name": "glm_b"}),
                C(-3, "reqlen", ("d",), "n"),
                C(-4, "optlen", ("x",), "m"),
                C(-5, "optlen", ("y",), "p")),
        kernel="ggglm"),

    # -- §5: standard eigenvalue / SVD drivers ------------------------
    DriverSpec(
        "la_syev", _S5, "All eigenvalues and optionally eigenvectors of "
        "a real symmetric matrix",
        screen="always",
        args=_args("a:inout:tbl", "w:vector:opt:out:ws:tbl",
                   "jobz:flag:opt:tbl", "uplo:flag:opt:tbl",
                   "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "optlen", ("w",), "n"),
                C(-3, "flag", ("jobz",), params=_NV),
                C(-4, "flag", ("uplo",), params=_UL)),
        kernel="syev", reference_only=False, dtypes="real",
        pair="la_heev", batchable=True,
        problem_kind="eig", structure=("symmetric",),
        positive_info="i: i off-diagonal elements failed to converge "
        "to zero"),
    DriverSpec(
        "la_heev", _S5, "All eigenvalues and optionally eigenvectors of "
        "a complex Hermitian matrix",
        screen="always",
        args=_args("a:inout:tbl", "w:vector:opt:out:ws:tbl",
                   "jobz:flag:opt:tbl", "uplo:flag:opt:tbl",
                   "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "optlen", ("w",), "n"),
                C(-3, "flag", ("jobz",), params=_NV),
                C(-4, "flag", ("uplo",), params=_UL)),
        kernel="heev", reference_only=False, dtypes="complex",
        pair="la_syev", batchable=True,
        problem_kind="eig", structure=("hermitian",),
        positive_info="i: i off-diagonal elements failed to converge "
        "to zero"),
    DriverSpec(
        "la_spev", _S5, "Eigenvalues of a symmetric matrix in packed "
        "storage",
        screen="always",
        args=_args("ap:vector:inout", "w:vector:opt:out:ws",
                   "uplo:flag:opt", "z:opt:out", "info:info"),
        dims=(("n", "tri", "ap"),),
        checks=(C(-1, "packed", ("ap",)),
                C(-2, "optlen", ("w",), "n"),
                C(-3, "flag", ("uplo",), params=_UL)),
        kernel="spev", dtypes="real", pair="la_hpev",
        positive_info="i: i off-diagonal elements failed to converge"),
    DriverSpec(
        "la_hpev", _S5, "Eigenvalues of a Hermitian matrix in packed "
        "storage",
        screen="always",
        args=_args("ap:vector:inout", "w:vector:opt:out:ws",
                   "uplo:flag:opt", "z:opt:out", "info:info"),
        dims=(("n", "tri", "ap"),),
        checks=(C(-1, "packed", ("ap",)),
                C(-2, "optlen", ("w",), "n"),
                C(-3, "flag", ("uplo",), params=_UL)),
        kernel="hpev", dtypes="complex", pair="la_spev",
        positive_info="i: i off-diagonal elements failed to converge"),
    DriverSpec(
        "la_sbev", _S5, "Eigenvalues of a symmetric band matrix",
        screen="always",
        args=_args("ab:inout", "w:vector:opt:out:ws", "uplo:flag:opt",
                   "z:opt:out", "info:info"),
        dims=(("n", "cols2d", "ab"),),
        checks=(C(-1, "matrix2d", ("ab",)),
                C(-2, "optlen", ("w",), "n"),
                C(-3, "flag", ("uplo",), params=_UL)),
        kernel="sbev", dtypes="real", pair="la_hbev",
        positive_info="i: i off-diagonal elements failed to converge"),
    DriverSpec(
        "la_hbev", _S5, "Eigenvalues of a Hermitian band matrix",
        screen="always",
        args=_args("ab:inout", "w:vector:opt:out:ws", "uplo:flag:opt",
                   "z:opt:out", "info:info"),
        dims=(("n", "cols2d", "ab"),),
        checks=(C(-1, "matrix2d", ("ab",)),
                C(-2, "optlen", ("w",), "n"),
                C(-3, "flag", ("uplo",), params=_UL)),
        kernel="hbev", dtypes="complex", pair="la_sbev",
        positive_info="i: i off-diagonal elements failed to converge"),
    DriverSpec(
        "la_stev", _S5, "Eigenvalues of a real symmetric tridiagonal "
        "matrix",
        screen="always",
        args=_args("d:vector:inout", "e:vector:inout", "z:opt:out",
                   "info:info"),
        dims=(("n", "len", "d"),),
        checks=(C(-1, "nonneg", (), "n"),
                C(-2, "offdiag", ("e",), "n", {"mode": "min"})),
        kernel="stev", dtypes="real",
        positive_info="i: i off-diagonal elements failed to converge"),
    DriverSpec(
        "la_gees", _S5, "Schur factorization of a general matrix",
        screen="always",
        args=_args("a:inout", "w:vector:opt:out:ws", "vs:opt:out",
                   "select:scalar:opt", "info:info"),
        checks=(C(-1, "square", ("a",)),),
        kernel="gees",
        positive_info="i: the QR algorithm failed to compute all Schur "
        "eigenvalues"),
    DriverSpec(
        "la_geev", _S5, "Eigenvalues and optionally eigenvectors of a "
        "general matrix; `batch_geev` takes `vl`/`vr` only as output "
        "stacks (`True` is refused with -3/-4)",
        screen="always",
        args=_args("a:inout", "w:vector:opt:out:ws", "vl:opt:out",
                   "vr:opt:out", "info:info"),
        checks=(C(-1, "square", ("a",)),),
        kernel="geev", batchable=True,
        problem_kind="eig", structure=("general",),
        positive_info="i: the QR algorithm failed; elements i+1:n of w "
        "contain converged eigenvalues"),
    DriverSpec(
        "la_gesvd", _S5, "Singular value decomposition of a general "
        "matrix",
        screen="always",
        args=_args("a:inout", "s:vector:opt:out:ws", "u:opt:out",
                   "vt:opt:out", "ww:vector:opt:out", "job:flag:opt",
                   "info:info"),
        checks=(C(-1, "matrix2d", ("a",)),),
        kernel="gesvd", reference_only=False,
        positive_info="i: i superdiagonals of the bidiagonal form did "
        "not converge"),

    # -- §6: divide and conquer ---------------------------------------
    DriverSpec(
        "la_syevd", _S6, "Symmetric eigenproblem (divide and conquer)",
        args=_args("a:inout", "w:vector:opt:out:ws", "jobz:flag:opt",
                   "uplo:flag:opt", "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "optlen", ("w",), "n"),
                C(-3, "flag", ("jobz",), params=_NV),
                C(-4, "flag", ("uplo",), params=_UL)),
        kernel="syevd", dtypes="real", pair="la_heevd",
        positive_info="i: the algorithm failed to converge"),
    DriverSpec(
        "la_heevd", _S6, "Hermitian eigenproblem (divide and conquer)",
        args=_args("a:inout", "w:vector:opt:out:ws", "jobz:flag:opt",
                   "uplo:flag:opt", "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "optlen", ("w",), "n"),
                C(-3, "flag", ("jobz",), params=_NV),
                C(-4, "flag", ("uplo",), params=_UL)),
        kernel="heevd", dtypes="complex", pair="la_syevd",
        positive_info="i: the algorithm failed to converge"),
    DriverSpec(
        "la_spevd", _S6, "Packed symmetric eigenproblem (divide and "
        "conquer)",
        screen="always",
        args=_args("ap:vector:inout", "w:vector:opt:out:ws",
                   "uplo:flag:opt", "z:opt:out", "info:info"),
        dims=(("n", "tri", "ap"),),
        checks=(C(-1, "packed", ("ap",)),
                C(-2, "optlen", ("w",), "n"),
                C(-3, "flag", ("uplo",), params=_UL)),
        kernel="spevd", dtypes="real", pair="la_hpevd",
        positive_info="i: the algorithm failed to converge"),
    DriverSpec(
        "la_hpevd", _S6, "Packed Hermitian eigenproblem (divide and "
        "conquer)",
        screen="always",
        args=_args("ap:vector:inout", "w:vector:opt:out:ws",
                   "uplo:flag:opt", "z:opt:out", "info:info"),
        dims=(("n", "tri", "ap"),),
        checks=(C(-1, "packed", ("ap",)),
                C(-2, "optlen", ("w",), "n"),
                C(-3, "flag", ("uplo",), params=_UL)),
        kernel="hpevd", dtypes="complex", pair="la_spevd",
        positive_info="i: the algorithm failed to converge"),
    DriverSpec(
        "la_sbevd", _S6, "Symmetric band eigenproblem (divide and "
        "conquer)",
        screen="always",
        args=_args("ab:inout", "w:vector:opt:out:ws", "uplo:flag:opt",
                   "z:opt:out", "info:info"),
        dims=(("n", "cols2d", "ab"),),
        checks=(C(-1, "matrix2d", ("ab",)),
                C(-2, "optlen", ("w",), "n"),
                C(-3, "flag", ("uplo",), params=_UL)),
        kernel="sbevd", dtypes="real", pair="la_hbevd",
        positive_info="i: the algorithm failed to converge"),
    DriverSpec(
        "la_hbevd", _S6, "Hermitian band eigenproblem (divide and "
        "conquer)",
        screen="always",
        args=_args("ab:inout", "w:vector:opt:out:ws", "uplo:flag:opt",
                   "z:opt:out", "info:info"),
        dims=(("n", "cols2d", "ab"),),
        checks=(C(-1, "matrix2d", ("ab",)),
                C(-2, "optlen", ("w",), "n"),
                C(-3, "flag", ("uplo",), params=_UL)),
        kernel="hbevd", dtypes="complex", pair="la_sbevd",
        positive_info="i: the algorithm failed to converge"),
    DriverSpec(
        "la_stevd", _S6, "Tridiagonal eigenproblem (divide and conquer)",
        args=_args("d:vector:inout", "e:vector:inout", "z:opt:out",
                   "info:info"),
        dims=(("n", "len", "d"),),
        checks=(C(-1, "nonneg", (), "n"),
                C(-2, "offdiag", ("e",), "n", {"mode": "min"})),
        kernel="stevd", dtypes="real",
        positive_info="i: the algorithm failed to converge"),

    # -- §7: expert eigenvalue drivers --------------------------------
    DriverSpec(
        "la_syevx", _S7, "Selected eigenvalues of a symmetric matrix "
        "(by value range or index)",
        args=_args("a:inout", "w:vector:opt:out:ws", "uplo:flag:opt",
                   "z:opt:out", "vl:scalar:opt", "vu:scalar:opt",
                   "il:scalar:opt", "iu:scalar:opt", "abstol:scalar:opt",
                   "info:info"),
        checks=(C(-1, "square", ("a",)),
                C(-5, "range_pair", ("vl", "vu")),
                C(-7, "index_pair", ("il", "iu"))),
        kernel="syevx", dtypes="real", pair="la_heevx",
        positive_info="i: i eigenvectors failed to converge"),
    DriverSpec(
        "la_heevx", _S7, "Selected eigenvalues of a Hermitian matrix "
        "(by value range or index)",
        args=_args("a:inout", "w:vector:opt:out:ws", "uplo:flag:opt",
                   "z:opt:out", "vl:scalar:opt", "vu:scalar:opt",
                   "il:scalar:opt", "iu:scalar:opt", "abstol:scalar:opt",
                   "info:info"),
        checks=(C(-1, "square", ("a",)),
                C(-5, "range_pair", ("vl", "vu")),
                C(-7, "index_pair", ("il", "iu"))),
        kernel="heevx", dtypes="complex", pair="la_syevx",
        positive_info="i: i eigenvectors failed to converge"),
    DriverSpec(
        "la_spevx", _S7, "Selected eigenvalues, packed symmetric "
        "storage",
        args=_args("ap:vector:inout", "w:vector:opt:out:ws",
                   "uplo:flag:opt", "z:opt:out", "vl:scalar:opt",
                   "vu:scalar:opt", "il:scalar:opt", "iu:scalar:opt",
                   "abstol:scalar:opt", "info:info"),
        dims=(("n", "tri", "ap"),),
        checks=(C(-1, "packed", ("ap",)),
                C(-5, "range_pair", ("vl", "vu")),
                C(-7, "index_pair", ("il", "iu"))),
        kernel="spevx", dtypes="real", pair="la_hpevx",
        positive_info="i: i eigenvectors failed to converge"),
    DriverSpec(
        "la_hpevx", _S7, "Selected eigenvalues, packed Hermitian "
        "storage",
        args=_args("ap:vector:inout", "w:vector:opt:out:ws",
                   "uplo:flag:opt", "z:opt:out", "vl:scalar:opt",
                   "vu:scalar:opt", "il:scalar:opt", "iu:scalar:opt",
                   "abstol:scalar:opt", "info:info"),
        dims=(("n", "tri", "ap"),),
        checks=(C(-1, "packed", ("ap",)),
                C(-5, "range_pair", ("vl", "vu")),
                C(-7, "index_pair", ("il", "iu"))),
        kernel="hpevx", dtypes="complex", pair="la_spevx",
        positive_info="i: i eigenvectors failed to converge"),
    DriverSpec(
        "la_sbevx", _S7, "Selected eigenvalues of a symmetric band "
        "matrix",
        args=_args("ab:inout", "w:vector:opt:out:ws", "uplo:flag:opt",
                   "z:opt:out", "vl:scalar:opt", "vu:scalar:opt",
                   "il:scalar:opt", "iu:scalar:opt", "abstol:scalar:opt",
                   "info:info"),
        checks=(C(-1, "matrix2d", ("ab",)),
                C(-5, "range_pair", ("vl", "vu")),
                C(-7, "index_pair", ("il", "iu"))),
        kernel="sbevx", dtypes="real", pair="la_hbevx",
        positive_info="i: i eigenvectors failed to converge"),
    DriverSpec(
        "la_hbevx", _S7, "Selected eigenvalues of a Hermitian band "
        "matrix",
        args=_args("ab:inout", "w:vector:opt:out:ws", "uplo:flag:opt",
                   "z:opt:out", "vl:scalar:opt", "vu:scalar:opt",
                   "il:scalar:opt", "iu:scalar:opt", "abstol:scalar:opt",
                   "info:info"),
        checks=(C(-1, "matrix2d", ("ab",)),
                C(-5, "range_pair", ("vl", "vu")),
                C(-7, "index_pair", ("il", "iu"))),
        kernel="hbevx", dtypes="complex", pair="la_sbevx",
        positive_info="i: i eigenvectors failed to converge"),
    DriverSpec(
        "la_stevx", _S7, "Selected eigenvalues of a tridiagonal matrix",
        args=_args("d:vector:inout", "e:vector:inout",
                   "w:vector:opt:out:ws", "z:opt:out", "vl:scalar:opt",
                   "vu:scalar:opt", "il:scalar:opt", "iu:scalar:opt",
                   "abstol:scalar:opt", "info:info"),
        dims=(("n", "len", "d"),),
        checks=(C(-1, "nonneg", (), "n"),
                C(-2, "offdiag", ("e",), "n", {"mode": "min"}),
                C(-5, "range_pair", ("vl", "vu")),
                C(-7, "index_pair", ("il", "iu"))),
        kernel="stevx", dtypes="real",
        positive_info="i: i eigenvectors failed to converge"),
    DriverSpec(
        "la_geesx", _S7, "Schur factorization with condition estimates",
        args=_args("a:inout", "w:vector:opt:out:ws", "vs:opt:out",
                   "select:scalar:opt", "sense:flag:opt", "info:info"),
        checks=(C(-1, "square", ("a",)),),
        kernel="geesx",
        positive_info="i: the QR algorithm failed to compute all Schur "
        "eigenvalues"),
    DriverSpec(
        "la_geevx", _S7, "General eigenproblem with balancing and "
        "condition estimates",
        args=_args("a:inout", "w:vector:opt:out:ws", "vl:opt:out",
                   "vr:opt:out", "balanc:flag:opt", "sense:flag:opt",
                   "info:info"),
        checks=(C(-1, "square", ("a",)),),
        kernel="geevx",
        positive_info="i: the QR algorithm failed; elements i+1:n of w "
        "contain converged eigenvalues"),

    # -- §8: generalized eigenvalue / SVD -----------------------------
    DriverSpec(
        "la_sygv", _S8, "Symmetric-definite generalized eigenproblem",
        args=_args("a:inout:tbl", "b:inout:tbl", "w:vector:opt:out:ws:tbl",
                   "itype:scalar:opt:tbl", "jobz:flag:opt:tbl",
                   "uplo:flag:opt:tbl", "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "square_conform", ("b",), "n"),
                C(-3, "optlen", ("w",), "n"),
                C(-4, "intenum", ("itype",), params=_ITYPE),
                C(-5, "flag", ("jobz",), params=_NV),
                C(-6, "flag", ("uplo",), params=_UL)),
        kernel="sygv", dtypes="real", pair="la_hegv",
        positive_info="i <= n: the eigensolver failed; n+i: the leading "
        "minor of order i of B is not positive definite"),
    DriverSpec(
        "la_hegv", _S8, "Hermitian-definite generalized eigenproblem",
        args=_args("a:inout", "b:inout", "w:vector:opt:out:ws",
                   "itype:scalar:opt", "jobz:flag:opt",
                   "uplo:flag:opt", "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "square_conform", ("b",), "n"),
                C(-3, "optlen", ("w",), "n"),
                C(-4, "intenum", ("itype",), params=_ITYPE),
                C(-5, "flag", ("jobz",), params=_NV),
                C(-6, "flag", ("uplo",), params=_UL)),
        kernel="hegv", dtypes="complex", pair="la_sygv",
        positive_info="i <= n: the eigensolver failed; n+i: the leading "
        "minor of order i of B is not positive definite"),
    DriverSpec(
        "la_spgv", _S8, "Packed symmetric-definite generalized "
        "eigenproblem",
        args=_args("ap:vector:inout", "bp:vector:inout",
                   "w:vector:opt:out:ws", "itype:scalar:opt",
                   "uplo:flag:opt", "z:opt:out", "info:info"),
        checks=(C(-1, "packed", ("ap",)),
                C(-2, "same_shape", ("bp",), params={"ref": "ap"})),
        kernel="spgv", dtypes="real", pair="la_hpgv",
        positive_info="i <= n: the eigensolver failed; n+i: B is not "
        "positive definite"),
    DriverSpec(
        "la_hpgv", _S8, "Packed Hermitian-definite generalized "
        "eigenproblem",
        args=_args("ap:vector:inout", "bp:vector:inout",
                   "w:vector:opt:out:ws", "itype:scalar:opt",
                   "uplo:flag:opt", "z:opt:out", "info:info"),
        checks=(C(-1, "packed", ("ap",)),
                C(-2, "same_shape", ("bp",), params={"ref": "ap"})),
        kernel="spgv", dtypes="complex", pair="la_spgv",
        positive_info="i <= n: the eigensolver failed; n+i: B is not "
        "positive definite"),
    DriverSpec(
        "la_sbgv", _S8, "Banded symmetric-definite generalized "
        "eigenproblem",
        args=_args("ab:inout", "bb:inout", "w:vector:opt:out:ws",
                   "uplo:flag:opt", "z:opt:out", "info:info"),
        checks=(C(-1, "matrix2d", ("ab",)),
                C(-2, "cols_conform", ("bb",), params={"ref": "ab"})),
        kernel="sbgv", dtypes="real", pair="la_hbgv",
        positive_info="i <= n: the eigensolver failed; n+i: B is not "
        "positive definite"),
    DriverSpec(
        "la_hbgv", _S8, "Banded Hermitian-definite generalized "
        "eigenproblem",
        args=_args("ab:inout", "bb:inout", "w:vector:opt:out:ws",
                   "uplo:flag:opt", "z:opt:out", "info:info"),
        checks=(C(-1, "matrix2d", ("ab",)),
                C(-2, "cols_conform", ("bb",), params={"ref": "ab"})),
        kernel="sbgv", dtypes="complex", pair="la_sbgv",
        positive_info="i <= n: the eigensolver failed; n+i: B is not "
        "positive definite"),
    DriverSpec(
        "la_gegs", _S8, "Generalized Schur factorization of a matrix "
        "pencil",
        args=_args("a:inout", "b:inout", "vsl:opt:out", "vsr:opt:out",
                   "info:info"),
        checks=(C(-1, "square", ("a",)),
                C(-2, "square_same", ("b",), params={"ref": "a"})),
        kernel="gegs",
        positive_info="i: the QZ iteration failed"),
    DriverSpec(
        "la_gegv", _S8, "Generalized eigenvalues of a matrix pencil",
        args=_args("a:inout", "b:inout", "vl:opt:out", "vr:opt:out",
                   "info:info"),
        checks=(C(-1, "square", ("a",)),
                C(-2, "square_same", ("b",), params={"ref": "a"})),
        kernel="gegv",
        positive_info="i: the QZ iteration failed"),
    DriverSpec(
        "la_ggsvd", _S8, "Generalized singular value decomposition",
        args=_args("a:inout", "b:inout", "info:info"),
        checks=(C(-1, "matrix2d", ("a",)),
                C(-2, "cols_conform", ("b",), params={"ref": "a"})),
        kernel="ggsvd",
        positive_info="1: the Jacobi-type procedure failed to converge"),

    # -- §9: computational routines -----------------------------------
    DriverSpec(
        "la_getrf", _S9, "LU factorization with partial pivoting and "
        "optional condition estimate",
        args=_args("a:inout", "ipiv:vector:opt:out:ws",
                   "rcond:scalar:opt", "norm:flag:opt", "info:info"),
        dims=(("m", "rows2d", "a"), ("nc", "cols2d", "a"),
              ("mn", "min", "m", "nc")),
        checks=(C(-1, "matrix2d", ("a",)),
                C(-2, "optlen", ("ipiv",), "mn"),
                C(-3, "custom", ("rcond",), params={"name":
                                                    "getrf_rcond"}),
                C(-4, "flag", ("norm",), params=_NORM1OI)),
        kernel="getrf", reference_only=False,
        positive_info="i: U(i,i) is exactly zero — the factor U is "
        "singular"),
    DriverSpec(
        "la_getrs", _S9, "Solve a general system from its LU "
        "factorization",
        args=_args("a", "ipiv:vector", "b:rhs:inout", "trans:flag:opt",
                   "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "reqlen", ("ipiv",), "n"),
                C(-3, "rhs", ("b",), "n"),
                C(-4, "flag", ("trans",), params=_NTC)),
        kernel="getrs", reference_only=False),
    DriverSpec(
        "la_trtrs", _S9, "Solve a triangular system by forward or "
        "backward substitution",
        # No in_table args: the driver postdates the frozen pre-refactor
        # error-exit fixture, which pins only the original hand-written
        # table rows byte-for-byte.
        args=_args("a", "b:rhs:inout", "uplo:flag:opt", "trans:flag:opt",
                   "diag:flag:opt", "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "rhs", ("b",), "n"),
                C(-3, "flag", ("uplo",), params=_UL),
                C(-4, "flag", ("trans",), params=_NTC),
                C(-5, "flag", ("diag",), params={"options": ("N", "U")})),
        kernel="trtrs", reference_only=False,
        problem_kind="solve", structure=("triangular",),
        positive_info="i: A(i,i) is exactly zero — the matrix is "
        "singular and the solve was not performed"),
    DriverSpec(
        "la_getri", _S9, "Matrix inverse from the LU factorization "
        "(Appendix C listing)",
        args=_args("a:inout", "ipiv:vector", "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "reqlen", ("ipiv",), "n")),
        kernel="getri",
        positive_info="i: U(i,i) is exactly zero — the matrix is "
        "singular",
        warn="-200: workspace reduced below the blocked optimum "
        "(unblocked updates used)"),
    DriverSpec(
        "la_gerfs", _S9, "Iterative refinement with forward/backward "
        "error bounds",
        args=_args("a", "af", "ipiv:vector", "b:rhs", "x:rhs:inout",
                   "trans:flag:opt", "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "square_conform", ("af",), "n"),
                C(-3, "reqlen", ("ipiv",), "n"),
                C(-4, "rhs", ("b",), "n"),
                C(-5, "rhs_same", ("x",), "n", {"ref": "b"}),
                C(-6, "flag", ("trans",), params=_NTC)),
        kernel="gerfs"),
    DriverSpec(
        "la_geequ", _S9, "Row and column equilibration scalings",
        args=_args("a", "info:info"),
        checks=(C(-1, "matrix2d", ("a",)),),
        kernel="geequ"),
    DriverSpec(
        "la_potrf", _S9, "Cholesky factorization with optional "
        "condition estimate",
        args=_args("a:inout", "uplo:flag:opt", "rcond:scalar:opt",
                   "norm:flag:opt", "info:info"),
        checks=(C(-1, "square", ("a",)),
                C(-2, "flag", ("uplo",), params=_UL)),
        kernel="potrf", reference_only=False,
        positive_info="i: the leading minor of order i is not positive "
        "definite"),
    DriverSpec(
        "la_sygst", _S9, "Reduce a symmetric-definite generalized "
        "eigenproblem to standard form",
        args=_args("a:inout", "b", "itype:scalar:opt", "uplo:flag:opt",
                   "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "square_conform", ("b",), "n"),
                C(-3, "intenum", ("itype",), params=_ITYPE),
                C(-4, "flag", ("uplo",), params=_UL)),
        kernel="sygst", dtypes="real", pair="la_hegst"),
    DriverSpec(
        "la_hegst", _S9, "Reduce a Hermitian-definite generalized "
        "eigenproblem to standard form",
        args=_args("a:inout", "b", "itype:scalar:opt", "uplo:flag:opt",
                   "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "square_conform", ("b",), "n"),
                C(-3, "intenum", ("itype",), params=_ITYPE),
                C(-4, "flag", ("uplo",), params=_UL)),
        kernel="hegst", dtypes="complex", pair="la_sygst"),
    DriverSpec(
        "la_sytrd", _S9, "Reduce a symmetric matrix to tridiagonal form",
        args=_args("a:inout", "tau:vector:opt:out:ws", "uplo:flag:opt",
                   "info:info"),
        checks=(C(-1, "square", ("a",)),
                C(-3, "flag", ("uplo",), params=_UL)),
        kernel="sytrd", dtypes="real", pair="la_hetrd"),
    DriverSpec(
        "la_hetrd", _S9, "Reduce a Hermitian matrix to tridiagonal form",
        args=_args("a:inout", "tau:vector:opt:out:ws", "uplo:flag:opt",
                   "info:info"),
        checks=(C(-1, "square", ("a",)),
                C(-3, "flag", ("uplo",), params=_UL)),
        kernel="hetrd", dtypes="complex", pair="la_sytrd"),
    DriverSpec(
        "la_orgtr", _S9, "Generate the orthogonal matrix Q of the "
        "tridiagonal reduction",
        args=_args("a:inout", "tau:vector", "uplo:flag:opt",
                   "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "minlen", ("tau",), "n", {"offset": -1}),
                C(-3, "flag", ("uplo",), params=_UL)),
        kernel="orgtr", dtypes="real", pair="la_ungtr"),
    DriverSpec(
        "la_ungtr", _S9, "Generate the unitary matrix Q of the "
        "tridiagonal reduction",
        args=_args("a:inout", "tau:vector", "uplo:flag:opt",
                   "info:info"),
        dims=(("n", "rows2d", "a"),),
        checks=(C(-1, "square", ("a",)),
                C(-2, "minlen", ("tau",), "n", {"offset": -1}),
                C(-3, "flag", ("uplo",), params=_UL)),
        kernel="ungtr", dtypes="complex", pair="la_orgtr"),

    # -- §10: matrix manipulation -------------------------------------
    DriverSpec(
        "la_lange", _S10, "Matrix norm (one, infinity, Frobenius, or "
        "max-abs)",
        args=_args("a", "norm:flag:opt", "info:info"),
        checks=(C(-1, "matrix2d", ("a",)),
                C(-2, "flag", ("norm",),
                  params={"options": ("M", "1", "O", "I", "F", "E"),
                          "mode": "first"})),
        kernel="lange"),
    DriverSpec(
        "la_lagge", _S10, "Generate a random general matrix with given "
        "singular values and bandwidth",
        args=_args("a:inout", "kl:scalar:opt", "ku:scalar:opt",
                   "d:vector:opt", "iseed:scalar:opt", "info:info"),
        dims=(("m", "rows2d", "a"), ("nc", "cols2d", "a"),
              ("mn", "min", "m", "nc")),
        checks=(C(-1, "matrix2d", ("a",)),
                C(-4, "minlen", ("d",), "mn", {"optional": True})),
        kernel="lagge"),
]

#: Driver name -> spec, in Appendix-G catalogue order.
SPECS = {spec.name: spec for spec in _SPEC_LIST}

if len(SPECS) != len(_SPEC_LIST):
    raise RuntimeError("duplicate driver name in the spec registry")


def error_exit_codes():
    """The shared error-exit table, derived from the ``in_table`` flags.

    This is the single source of
    :data:`repro.testing.error_exits.ERROR_EXIT_CODES`; the frozen
    fixture ``tests/core/fixtures/error_exit_codes_v0.json`` pins it to
    the pre-refactor hand-written table.
    """
    return {spec.name: spec.table_codes for spec in SPECS.values()
            if any(a.in_table for a in spec.args)}
