"""Well-formed calls of every driver in the catalogue, shared by the
tests that sweep all 77 drivers (the entry gate, the refused-call
contract)."""

import numpy as np

from repro.specs import SPECS


#: Drivers whose operands are complex (Hermitian / unitary families).
COMPLEX = frozenset({
    "la_hesv", "la_hpsv", "la_hesvx", "la_hpsvx", "la_heev", "la_hpev",
    "la_hbev", "la_heevd", "la_hpevd", "la_hbevd", "la_heevx",
    "la_hpevx", "la_hbevx", "la_hegv", "la_hpgv", "la_hbgv", "la_hegst",
    "la_hetrd", "la_ungtr",
})


def _mat(n, dtype, m=None):
    """A well-conditioned ``(m, n)`` matrix (square by default)."""
    m = n if m is None else m
    rng = np.random.default_rng(7)
    a = rng.uniform(-1, 1, (m, n))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.uniform(-1, 1, (m, n))
    a[np.arange(min(m, n)), np.arange(min(m, n))] += 4.0
    return a.astype(dtype)


def _spd(n, dtype):
    a = _mat(n, dtype)
    return (a @ a.conj().T + n * np.eye(n)).astype(dtype)


def _packed(a):
    """Upper-triangle packed storage of a symmetric/Hermitian matrix."""
    n = a.shape[0]
    return np.concatenate([a[:j + 1, j] for j in range(n)]) if n \
        else np.zeros(0, a.dtype)


def _band(a, kd):
    """Upper symmetric band storage, ``(kd + 1, n)``."""
    n = a.shape[0]
    ab = np.zeros((kd + 1, n), a.dtype)
    for j in range(n):
        for i in range(max(0, j - kd), j + 1):
            ab[kd + i - j, j] = a[i, j]
    return ab


def _vec(n, dtype, shift=0.0):
    return (np.arange(1, n + 1) + shift).astype(dtype)


def well_formed_call(name, n, dtype):
    """``(args, kwargs)`` of a well-formed ``name`` call of order n."""
    m = n + 1                       # rows of a least-squares matrix
    a, b = _mat(n, dtype), _vec(n, dtype)
    spd = _spd(n, dtype)
    off = _vec(max(n - 1, 0), dtype, 0.5)
    stem = name[3:]
    if stem in ("gesv", "sysv", "hesv", "gesvx"):
        return (a if stem in ("gesv", "gesvx") else spd, b), {}
    if stem in ("sysvx", "hesvx", "posv", "posvx"):
        return (spd, b), {}
    if stem in ("spsv", "hpsv", "ppsv", "spsvx", "hpsvx", "ppsvx"):
        return (_packed(spd), b), {}
    if stem == "gbsv":
        ab = np.zeros((4, n), dtype)        # kl = ku = 1, fill row 0
        ab[1, 1:], ab[2, :], ab[3, :-1] = 1.0, 4.0, 1.0
        return (ab, b), {"kl": 1}
    if stem == "gbsvx":
        ab = np.zeros((3, n), dtype)        # kl = ku = 1
        ab[0, 1:], ab[1, :], ab[2, :-1] = 1.0, 4.0, 1.0
        return (ab, b), {"kl": 1}
    if stem in ("pbsv", "pbsvx"):
        return (_band(spd, 1), b), {}
    if stem in ("gtsv", "gtsvx"):
        return (off, _vec(n, dtype, 4.0), off.copy(), b), {}
    if stem in ("ptsv", "ptsvx"):
        return (_vec(n, dtype, 4.0).real, off, b), {}
    if stem in ("gels", "gelsx", "gelss"):
        return (_mat(n, dtype, m), _vec(m, dtype)), {}
    if stem == "gglse":
        return (_mat(n, dtype, m), _mat(n, dtype, 1), _vec(m, dtype),
                _vec(1, dtype)), {}
    if stem == "ggglm":
        return (_mat(n, dtype, m), _mat(2, dtype, m), _vec(m, dtype)), {}
    if stem in ("syev", "heev", "syevd", "heevd", "syevx", "heevx",
                "sytrd", "hetrd", "potrf"):
        return (spd,), {}
    if stem in ("spev", "hpev", "spevd", "hpevd", "spevx", "hpevx"):
        return (_packed(spd),), {}
    if stem in ("sbev", "hbev", "sbevd", "hbevd", "sbevx", "hbevx"):
        return (_band(spd, 1),), {}
    if stem in ("stev", "stevd", "stevx"):
        return (_vec(n, dtype, 4.0), off), {}
    if stem in ("gees", "geev", "gesvd", "geesx", "geevx", "getrf",
                "geequ", "lange", "lagge"):
        return (a,), {}
    if stem in ("sygv", "hegv", "sygst", "hegst"):
        return (spd, _spd(n, dtype)), {}
    if stem in ("spgv", "hpgv"):
        return (_packed(spd), _packed(_spd(n, dtype))), {}
    if stem in ("sbgv", "hbgv"):
        return (_band(spd, 1), _band(_spd(n, dtype), 1)), {}
    if stem in ("gegs", "gegv", "ggsvd"):
        return (a, _mat(n, dtype)), {}
    ipiv = np.arange(n, dtype=np.int64)
    if stem == "getrs":
        return (a, ipiv, b), {}
    if stem == "trtrs":
        return (np.triu(a), b), {}
    if stem == "getri":
        return (a, ipiv), {}
    if stem == "gerfs":
        return (a, a.copy(), ipiv, b, b.copy()), {}
    if stem in ("orgtr", "ungtr"):
        return (spd, off), {}
    raise KeyError(name)


#: Operands of the wrong rank for the tridiagonal eigen drivers, whose
#: order is ``d.shape[0]``: ``(driver, operand, shape, code)``.  Each is
#: refused with its operand's code, ``d`` -1 and ``e`` -2.
NON_VECTOR_OPERANDS = [
    (name, arg, shape, code)
    for name in ("la_stev", "la_stevd", "la_stevx")
    for arg, shape, code in (("d", (1, 3), -1), ("d", (1, 1, 3), -1),
                             ("d", (), -1), ("e", (1, 2), -2),
                             ("e", (2, 1), -2), ("e", (), -2))
]


def first_operand(name):
    spec = SPECS[name]
    return min((a for a in spec.args if a.required
                and a.kind in ("matrix", "rhs", "vector")),
               key=lambda a: a.position)
