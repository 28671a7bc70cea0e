"""A NaN or infinity reaching the Bunch–Kaufman pivot search reports
through ``INFO`` instead of raising.

LAPACK 3.2 and later guard the pivot test of ``xSYTF2``/``xHETF2`` with
``MAX(ABSAKK, COLMAX) .EQ. ZERO .OR. DISNAN(ABSAKK)``: a NaN diagonal
candidate sets ``INFO = k`` and the factorization continues.  Without
the ``DISNAN`` half the reference kernel took the max of an empty slice
or divided by a zero ``ROWMAX``.  Every placement of one non-finite
entry (plus its mirror) must come back from the four Bunch–Kaufman
drivers without a Python exception, under the default ``propagate``
policy, on every backend.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import (Info, available_backends, la_hesv, la_hpsv, la_spsv,
                   la_sysv, use_backend)
from repro.storage import pack

BACKENDS = [n for n in ("reference", "accelerated")
            if n in available_backends()]

DRIVERS = [(la_sysv, False, False), (la_hesv, True, False),
           (la_spsv, False, True), (la_hpsv, True, True)]


def _operand(rng, n, hermitian):
    g = rng.standard_normal((n, n))
    if hermitian:
        g = g + 1j * rng.standard_normal((n, n))
        return g + g.conj().T
    return g + g.T


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("driver, hermitian, packed", DRIVERS,
                         ids=[d[0].__name__ for d in DRIVERS])
@pytest.mark.parametrize("uplo", ["U", "L"])
@pytest.mark.parametrize("n", [3, 6])
def test_nonfinite_entry_reports_instead_of_raising(backend, driver,
                                                    hermitian, packed,
                                                    uplo, n):
    rng = np.random.default_rng(100 + n)
    base = _operand(rng, n, hermitian)
    b = rng.standard_normal(n).astype(base.dtype)
    for value in (np.nan, np.inf, -np.inf):
        for i in range(n):
            for j in range(i, n):
                a = base.copy()
                a[i, j] = value
                a[j, i] = value
                operand = pack(a, uplo) if packed else a
                info = Info()
                with warnings.catch_warnings(), np.errstate(all="ignore"):
                    warnings.simplefilter("ignore")
                    with use_backend(backend):
                        driver(operand, b.copy(), uplo=uplo, info=info)
                assert isinstance(info.value, int), (value, i, j)
