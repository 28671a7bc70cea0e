"""Structure probing: which matrix class is this, cheaply and exactly.

:func:`probe` classifies a square operand into one of the
:data:`repro.specs.routing.STRUCTURES` labels.  Every test is *exact*
(element-wise equality, exact zeros, no tolerance): the front door
guarantees the routed driver returns bit-identical results to calling it
directly, and an almost-symmetric matrix handed to ``la_sysv`` (which
reads one triangle) would silently solve a different system.
Near-misses therefore probe as ``general`` — the adversarial suite in
``tests/dispatch`` pins this.

Equality is value equality, not bit equality: ``-0.0`` equals ``0.0``,
so a matrix whose mirrored entries differ only in the sign of a zero
probes as symmetric (the triangle a symmetric driver does not read holds
equal values), and a NaN equals nothing, so a NaN anywhere — the
diagonal included, where it meets itself — makes a matrix
non-symmetric.  The tests are an element-wise ``x == y`` on equal
shapes, reduced with ``np.count_nonzero`` (``.all()`` for a stack):
what ``np.array_equal`` computes, without its per-call Python overhead.

The probe never factors.  A Hermitian operand with a strictly positive
real diagonal is labelled ``spd``/``hpd`` — a necessary condition for
definiteness, not a sufficient one — and the routed ``la_posv``'s own
``potrf`` is the definiteness test: when it reports a positive INFO the
front door re-solves through ``la_sysv``/``la_hesv``.

Band widths are extracted vectorized (one ``nonzero`` sweep); a matrix
only probes as ``banded`` when band storage actually pays,
``2·kl + ku + 1 < n`` — so bandwidth ``n−1`` routes as ``general``.
The common dense case exits early on both O(n²) tests without changing
a verdict: two nonzero off-diagonal corners already fix the bandwidths
at ``(n−1, n−1)``, and a mirrored pair ``a[1, 0]``/``a[0, 1]`` that
differs (by value, conjugated for the Hermitian test) already rules
out symmetry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..specs.routing import STRUCTURES

__all__ = ["Structure", "probe", "probe_stack", "bandwidths"]


@dataclass(slots=True)
class Structure:
    """One probe verdict.

    ``label`` is the routing-table key; ``kl``/``ku`` the extracted
    band widths (dense fallback: ``n-1``); ``uplo`` the triangle a
    triangular/Cholesky route should reference; ``cholesky`` the
    Cholesky factor a successful ``la_posv`` left in the front door's
    working copy, set only on cached ``spd``/``hpd`` entries (the
    caller's array is never touched), and ``maker`` the backend that
    computed it when that ``la_posv`` failed over (``None``: the
    backend the entry is filed under); ``probe_cost`` the wall-clock
    seconds the probe took.
    """

    label: str
    kl: int = 0
    ku: int = 0
    uplo: str = "U"
    symmetric: bool = False
    hermitian: bool = False
    cholesky: np.ndarray | None = field(default=None, repr=False)
    maker: str | None = field(default=None, repr=False)
    probe_cost: float = 0.0

    def __post_init__(self):
        if self.label not in STRUCTURES:
            raise ValueError(f"unknown structure label {self.label!r}")


def bandwidths(a):
    """Exact ``(kl, ku)`` of a 2-D matrix.  Two nonzero off-diagonal
    corners are the widest possible band; anything else takes one
    nonzero sweep."""
    m, n = a.shape
    if m and n and a[m - 1, 0] != 0 and a[0, n - 1] != 0:
        return m - 1, n - 1
    rows, cols = np.nonzero(a)
    if rows.size == 0:
        return 0, 0
    offsets = cols - rows
    return (max(0, -int(np.minimum.reduce(offsets))),
            max(0, int(np.maximum.reduce(offsets))))


def _equals_adjoint(a, conj):
    """``a == a.T`` (``a == a.conj().T`` with ``conj``) element-wise, for
    a square ``a``; the mirrored pair ``a[1, 0]``/``a[0, 1]`` first, so
    most non-symmetric matrices exit on two scalar reads."""
    if a.shape[0] > 1 and a[1, 0] != (a[0, 1].conjugate() if conj
                                      else a[0, 1]):
        return False
    return np.count_nonzero(a == (a.conj().T if conj else a.T)) == a.size


def _positive_diagonal(a):
    """A strictly positive real diagonal: necessary for definiteness.
    A ``float32``/``float64`` diagonal is tested as Python floats, which
    hold its values exactly and compare as NumPy does (``NaN > 0`` is
    false), at a fraction of a ufunc call's cost."""
    diag = a.diagonal()
    if diag.dtype.kind == "c":
        if np.count_nonzero(diag.imag):
            return False
        diag = diag.real
    if diag.dtype.char in "fd":
        return all(map(_POSITIVE, diag.tolist()))
    return np.count_nonzero(diag > 0) == diag.size


#: ``_POSITIVE(x)`` is ``x > 0`` for a Python float ``x``.
_POSITIVE = (0.0).__lt__


def _trial_cholesky(a, uplo="U"):
    """``potrf`` on a copy through the dispatch seam; ``None`` unless
    positive definite.  Obviously indefinite operands (diagonal not
    strictly positive and real) skip the kernel."""
    if not _positive_diagonal(a):
        return None
    from ..backends.kernels import potrf
    factor = a.copy()
    if int(potrf(factor, uplo)) != 0:
        return None
    return factor


def probe(a) -> Structure:
    """Classify one 2-D operand; non-square probes as ``general``.

    The ``symmetric``/``hermitian`` flags are recorded for *every*
    square operand, including ones whose routing label is a band shape:
    the solve route for a symmetric tridiagonal matrix is still
    ``la_gtsv``, but the eig front door uses the flags to stay on the
    symmetric eigensolver.
    """
    start = time.perf_counter()
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return Structure("general",
                         probe_cost=time.perf_counter() - start)
    n = a.shape[0]
    kl, ku = bandwidths(a)
    iscomplex = a.dtype.kind == "c"
    symmetric = _equals_adjoint(a, conj=False)
    hermitian = _equals_adjoint(a, conj=True) if iscomplex else symmetric
    label, uplo = "general", "U"
    if kl == 0 and ku == 0:
        label = "diagonal"
    elif ku == 0:
        label, uplo = "triangular", "L"
    elif kl == 0:
        label = "triangular"
    elif kl <= 1 and ku <= 1:
        label = "tridiagonal"
    elif 2 * kl + ku + 1 < n:
        label = "banded"
    elif hermitian:
        if _positive_diagonal(a):
            label = "hpd" if iscomplex else "spd"
        else:
            label = "hermitian" if iscomplex else "symmetric"
    elif symmetric:
        label = "symmetric"          # complex symmetric, non-Hermitian
    # Positional: the dataclass's keyword matching costs more than the
    # rest of the constructor on a small operand.
    return Structure(label, kl, ku, uplo, symmetric, hermitian, None, None,
                     time.perf_counter() - start)


def probe_stack(a) -> Structure:
    """Classify a ``(batch, n, n)`` stack for the ``batch_*`` routes.

    Stacked structure checks are vectorized over the whole stack, with
    the same value equality as :func:`probe`.  Only the structures with
    batched drivers are distinguished (``spd``/``hpd``, ``symmetric``,
    ``hermitian``, ``general``): there is no batched band or tridiagonal
    solver to route to.

    Unlike :func:`probe`, definiteness is decided by a trial Cholesky
    of a representative slice (the first).  A scalar route can afford
    to guess from the diagonal because the front door re-solves a
    failed ``la_posv`` through ``la_sysv``/``la_hesv``; a batch route
    has no per-slice re-solve, so a stack that is not definite must
    not be routed to ``batch_posv`` in the first place.  One slice is
    enough to catch the common case of an indefinite symmetric stack;
    a later slice that turns out indefinite reports through
    ``BatchInfo`` exactly as a direct ``batch_posv`` call would.
    """
    start = time.perf_counter()
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[0] == 0:
        return Structure("general",
                         probe_cost=time.perf_counter() - start)
    iscomplex = a.dtype.kind == "c"
    swapped = a.transpose(0, 2, 1)
    symmetric = bool((a == swapped).all())
    hermitian = bool((a == swapped.conj()).all()) if iscomplex \
        else symmetric
    label = "general"
    if hermitian:
        label = "hermitian" if iscomplex else "symmetric"
        if _trial_cholesky(a[0]) is not None:
            label = "hpd" if iscomplex else "spd"
    elif symmetric:
        label = "symmetric"
    return Structure(label, kl=max(0, a.shape[1] - 1),
                     ku=max(0, a.shape[1] - 1),
                     symmetric=symmetric, hermitian=hermitian,
                     probe_cost=time.perf_counter() - start)
