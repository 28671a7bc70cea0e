"""Tuning parameters: the Python analogue of LAPACK's ``ILAENV``.

LAPACK77 centralizes machine-dependent algorithm parameters (block sizes,
crossover points, minimum block sizes) in the integer function ``ILAENV``.
The LAPACK90 wrappers consult it to size workspaces, e.g. ``LA_GETRI``
calls ``ILAENV(1, 'SGETRI', ...)`` before allocating ``N*NB`` reals.

This module keeps the same shape: a process-global, mutable table of block
sizes consulted by the blocked factorizations, so benchmarks can ablate
blocked vs. unblocked execution by flipping one knob.

The numerical-exception policy (NaN/Inf screening modes, the RCOND
guard, driver fallbacks) follows the same process-global/context-scoped
pattern; it lives in :mod:`repro.policy` and its API is re-exported here
for discoverability.  So does the compute-backend selection
(``reference`` vs ``accelerated`` substrates): it lives in
:mod:`repro.backends` and is re-exported at the bottom of this module
(the backend registry imports the substrate, whose kernels consult
:func:`ilaenv`, so the re-export must follow the definitions here).
"""

from __future__ import annotations

from contextlib import contextmanager
from types import MappingProxyType

from ._sync import STATE_LOCK
from .policy import (exception_policy, get_policy,  # noqa: F401
                     set_policy)

__all__ = ["ilaenv", "get_block_size", "set_block_size",
           "block_size_override", "exception_policy", "get_policy",
           "set_policy", "use_backend", "set_backend",
           "get_backend_name", "available_backends"]

# ISPEC=1 block sizes per routine family (values follow LAPACK's defaults
# for "generic" machines; NumPy-matmul-backed updates favour larger blocks).
_BLOCK_SIZES: dict[str, int] = {
    "getrf": 64,
    "getri": 64,
    "potrf": 64,
    "sytrf": 64,
    "hetrf": 64,
    "geqrf": 32,
    "gelqf": 32,
    "orgqr": 32,
    "ormqr": 32,
    "gehrd": 32,
    "sytrd": 32,
    "hetrd": 32,
    "gebrd": 32,
    "gbtrf": 32,
}

# ISPEC=2: minimum block size for which blocking pays off at all (the
# same for every family).
_MIN_BLOCK = 2

# ISPEC=3: crossover point below which the unblocked routine is used.
# Fixed at import; unknown routines answer 0.
_CROSSOVER = MappingProxyType({**{name: 128 for name in _BLOCK_SIZES},
                               "getrf": 96, "potrf": 96})


def _family(name: str) -> str:
    """Strip the precision prefix: ``'SGETRI'`` → ``'getri'``."""
    name = name.lower()
    if name and name[0] in "sdcz" and name[1:] in _BLOCK_SIZES:  # laflow: benign-race — membership probe against a stable key set; values never leave the dict
        return name[1:]
    return name


def ilaenv(ispec: int, name: str, opts: str = "", n1: int = -1,
           n2: int = -1, n3: int = -1, n4: int = -1) -> int:
    """Return algorithm tuning parameters, LAPACK ``ILAENV`` style.

    Supported ``ispec`` values:

    * ``1`` — optimal block size,
    * ``2`` — minimum block size,
    * ``3`` — crossover point (problem size below which unblocked code runs).

    Unknown routine names return the conservative answer ``1`` (unblocked),
    like the reference implementation.
    """
    fam = _family(name)
    if ispec == 1:
        return _BLOCK_SIZES.get(fam, 1)  # laflow: benign-race — single tear-free dict read of an int tuning knob
    if ispec == 2:
        return _MIN_BLOCK
    if ispec == 3:
        return _CROSSOVER.get(fam, 0)
    # Other ISPEC values exist in LAPACK (environmental enquiries); nothing
    # in this package consults them.
    return -1


def get_block_size(family: str) -> int:
    """Current block size for a routine family, e.g. ``'getrf'``."""
    return _BLOCK_SIZES.get(_family(family), 1)  # laflow: benign-race — single tear-free dict read of an int tuning knob


def set_block_size(family: str, nb: int) -> None:
    """Set the block size for a routine family (``nb=1`` forces unblocked)."""
    if nb < 1:
        raise ValueError("block size must be >= 1")
    with STATE_LOCK:
        _BLOCK_SIZES[_family(family)] = int(nb)


@contextmanager
def block_size_override(family: str, nb: int):
    """Temporarily override one family's block size (used by the ablation
    benchmarks to compare blocked vs. unblocked execution)."""
    fam = _family(family)
    with STATE_LOCK:
        old = _BLOCK_SIZES.get(fam, 1)
        set_block_size(fam, nb)
    try:
        yield
    finally:
        set_block_size(fam, old)


# Backend selection (process-global + context-scoped, like the exception
# policy above).  Imported last: repro.backends registers the reference
# substrate at import time, and those kernels consult ilaenv.
from .backends import (available_backends, get_backend_name,  # noqa: E402,F401
                       set_backend, use_backend)
