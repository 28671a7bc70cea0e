"""``posv_stack`` against the scalar ``posv`` kernel, on every backend.

The stacked entry must give each slice exactly what the scalar kernel
gives it alone: the same factor bytes, the same solution bytes (or the
right-hand side left unsolved on a failure) and the same info code.
The stack mixes clean SPD slices with the cases whose codes come from
the NaN-pivot check (a NaN on the diagonal at several positions), with
non-finite off-diagonal entries, with indefinite slices, and with a NaN
that only one triangle holds, so the ``uplo`` argument decides whether
the kernel sees it.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.backends import available_backends, get_backend

BACKENDS = [n for n in ("reference", "accelerated")
            if n in available_backends()]

N = 5


def _spd(rng, dtype):
    g = rng.standard_normal((N, N))
    if np.dtype(dtype).kind == "c":
        g = g + 1j * rng.standard_normal((N, N))
    return (g @ g.conj().T + N * np.eye(N)).astype(dtype)


def _mirror(a, i, j, value):
    a[i, j] = value
    a[j, i] = value


def _stack(rng, dtype):
    """Ten slices; each edit names the case it covers."""
    slices = [_spd(rng, dtype) for _ in range(10)]
    slices[1][0, 0] = np.nan                      # NaN pivot, first
    slices[2][2, 2] = np.nan                      # NaN pivot, interior
    slices[3][N - 1, N - 1] = np.nan              # NaN pivot, last
    _mirror(slices[4], 0, N - 1, np.nan)          # NaN off the diagonal
    _mirror(slices[5], 1, 3, np.inf)              # +Inf off the diagonal
    _mirror(slices[6], 2, 4, -np.inf)             # -Inf off the diagonal
    slices[7] = np.diag([1.0, 2.0, -3.0, 4.0, 5.0]).astype(dtype)
    slices[8][N - 1, 0] = np.nan                  # lower triangle only
    slices[9][1, 1] = np.inf                      # infinite pivot
    return np.stack(slices)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", ["f", "d", "F", "D"])
@pytest.mark.parametrize("uplo", ["U", "L"])
@pytest.mark.parametrize("nrhs", [None, 2], ids=["vector", "matrix"])
def test_posv_stack_matches_scalar_posv(backend, dtype, uplo, nrhs):
    rng = np.random.default_rng(20261017)
    a = _stack(rng, dtype)
    shape = (a.shape[0], N) if nrhs is None else (a.shape[0], N, nrhs)
    b = rng.standard_normal(shape).astype(dtype)
    kernels = get_backend(backend)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sa, sb = a.copy(), b.copy()
        infos = kernels.get("posv_stack")(sa, sb, uplo)
        for k in range(a.shape[0]):
            ak, bk = a[k].copy(), b[k].copy()
            info = kernels.get("posv")(ak, bk, uplo)
            assert int(infos[k]) == info, k
            assert sa[k].tobytes() == ak.tobytes(), f"a[{k}]"
            assert sb[k].tobytes() == bk.tobytes(), f"b[{k}]"
    assert infos[0] == 0 and infos[7] > 0     # both outcomes occur
