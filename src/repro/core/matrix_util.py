"""Matrix Manipulation Routines (Appendix G, §10): ``LA_LANGE`` (norms)
and ``LA_LAGGE`` (random test-matrix generation)."""

from __future__ import annotations

import numpy as np

from ..errors import Info
from ..backends.kernels import lagge, lange
from .shell import driver_shell

__all__ = ["la_lange", "la_lagge"]


@driver_shell("la_lange")
def la_lange(a: np.ndarray, norm: str = "1",
             info: Info | None = None) -> float:
    """Returns the value of the one norm, the Frobenius norm, the
    infinity norm, or the element of largest absolute value of a matrix
    (paper: ``VNORM = LA_ANGE( A, NORM=norm, INFO=info )``).

    ``norm`` ∈ {'M', '1'/'O', 'I', 'F'/'E'}.
    """
    return float(lange(norm, a)), 0, None


@driver_shell("la_lagge")
def la_lagge(a: np.ndarray, kl: int | None = None, ku: int | None = None,
             d: np.ndarray | None = None, iseed: int | None = None,
             info: Info | None = None) -> np.ndarray:
    """Generates a general rectangular matrix by pre- and post-multiplying
    a diagonal matrix D with random orthogonal matrices: ``A = U D V``
    (paper: ``CALL LA_LAGGE( A, KL=kl, KU=ku, D=d, ISEED=iseed,
    INFO=info )``).

    Fills ``a`` in place; ``d`` defaults to uniform(0, 1] singular values.
    ``kl``/``ku`` bound the generated bandwidth.
    """
    m, n = a.shape
    rng = np.random.default_rng(iseed)
    if d is None:
        d = rng.uniform(1e-3, 1.0, min(m, n))
    a[...] = lagge(m, n, np.asarray(d), kl=kl, ku=ku, dtype=a.dtype,
                   rng=rng)
    return a, 0, None
