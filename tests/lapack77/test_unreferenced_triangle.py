"""The unreferenced-triangle contract of the symmetric/Hermitian kernels.

LAPACK's ``uplo`` routines read and write only the triangle ``uplo``
names.  Each kernel here runs on a matrix whose other strict triangle
holds NaN sentinels; it must succeed, and that triangle must come back
bit for bit as it went in.
"""

import numpy as np
import pytest

from repro.lapack77 import heev, hesv, hetrd, syev, sysv, sytrd

from ..conftest import rand_matrix, rand_vector

N = 9


def _call_sytrd(a, uplo):
    sytrd(a, uplo)


def _call_hetrd(a, uplo):
    hetrd(a, uplo)


def _call_sysv(a, uplo):
    b = rand_vector(np.random.default_rng(5), a.shape[0], a.dtype)
    _, info = sysv(a, b, uplo)
    assert info == 0


def _call_hesv(a, uplo):
    b = rand_vector(np.random.default_rng(5), a.shape[0], a.dtype)
    _, info = hesv(a, b, uplo)
    assert info == 0


def _call_syev(a, uplo):
    w, info = syev(a, "N", uplo)
    assert info == 0 and np.all(np.isfinite(w))


def _call_heev(a, uplo):
    w, info = heev(a, "N", uplo)
    assert info == 0 and np.all(np.isfinite(w))


REAL = [_call_sytrd, _call_sysv, _call_syev]
COMPLEX = [_call_hetrd, _call_hesv, _call_heev]


def _poisoned(rng, dtype, uplo, hermitian):
    """An indefinite symmetric/Hermitian matrix stored in ``uplo``, with
    NaN sentinels in the other strict triangle."""
    g = rand_matrix(rng, N, N, dtype)
    a = g + (np.conj(g.T) if hermitian else g.T)
    a[np.diag_indices(N)] += (np.arange(N) - N / 2.0).astype(a.dtype)
    if hermitian:
        np.fill_diagonal(a, a.diagonal().real)
    other = (np.tril_indices(N, -1) if uplo == "U"
             else np.triu_indices(N, 1))
    a[other] = complex(np.nan, np.nan) if hermitian else np.nan
    return a, other


def _check(call, a, other, uplo):
    sentinels = a[other].tobytes()
    call(a, uplo)
    assert a[other].tobytes() == sentinels
    ref = np.triu(a) if uplo == "U" else np.tril(a)
    assert np.all(np.isfinite(ref))


@pytest.mark.parametrize("uplo", ["U", "L"])
@pytest.mark.parametrize("call", REAL, ids=lambda f: f.__name__[6:])
def test_real_kernels_leave_the_other_triangle_alone(rng, real_dtype, uplo,
                                                    call):
    a, other = _poisoned(rng, real_dtype, uplo, hermitian=False)
    _check(call, a, other, uplo)


@pytest.mark.parametrize("uplo", ["U", "L"])
@pytest.mark.parametrize("call", COMPLEX, ids=lambda f: f.__name__[6:])
def test_hermitian_kernels_leave_the_other_triangle_alone(rng, complex_dtype,
                                                         uplo, call):
    a, other = _poisoned(rng, complex_dtype, uplo, hermitian=True)
    _check(call, a, other, uplo)
