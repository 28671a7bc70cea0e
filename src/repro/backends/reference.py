"""The ``reference`` substrate: today's pure-NumPy lapack77 kernels.

Built straight from the explicit export catalogue in
``repro/lapack77/__init__.py`` — every public kernel is served, for any
dtype the kernel itself accepts.  This backend is always registered and
is the fallback target for every other substrate.

The kernels' bytes depend on the memory layout of their operands
(NumPy's BLAS calls round differently on a transposed layout), while
callers, and accelerated calls that escalate here, may hand
Fortran-ordered arrays through the seam.  So every entry computes on
C-ordered data: a Fortran-contiguous operand is copied to C order for
the call and the copy is written back afterwards (:func:`_c_ordered`).
C-ordered operands, and strided views of them, reach the kernel as
they are.  The backend is declared with ``order="C"``
(:attr:`repro.backends.Backend.order`), so the front door makes its
working copies in the order these kernels compute in.
"""

from __future__ import annotations

import functools

import numpy as np

from .. import lapack77


def _fortran(x):
    """True for an array laid out in Fortran order only."""
    return isinstance(x, np.ndarray) and x.flags.f_contiguous \
        and not x.flags.c_contiguous


def _c_ordered(kernel):
    """``kernel`` with every Fortran-ordered array argument replaced by a
    C-ordered copy, which is written back into the argument when the
    kernel returns or raises (so a writing kernel keeps its in-place
    contract).  The copy of a read-only argument is read-only too: a
    kernel that writes it raises as it would on the argument itself,
    and nothing is written back.  An array passed twice gets one
    copy."""

    @functools.wraps(kernel)
    def run(*args, **kwargs):
        if not any(map(_fortran, args)) \
                and not (kwargs and any(map(_fortran, kwargs.values()))):
            return kernel(*args, **kwargs)
        copies = {}

        def c(x):
            if not _fortran(x):
                return x
            if id(x) not in copies:
                xc = np.ascontiguousarray(x)
                xc.flags.writeable = x.flags.writeable
                copies[id(x)] = (x, xc)
            return copies[id(x)][1]

        try:
            return kernel(*map(c, args),
                          **{k: c(v) for k, v in kwargs.items()})
        finally:
            for x, xc in copies.values():
                if x.flags.writeable:
                    x[...] = xc

    return run


def build_reference_backend():
    from . import Backend
    table = {name: _c_ordered(getattr(lapack77, name))
             for name in lapack77.__all__}
    return Backend("reference", table, order="C")
