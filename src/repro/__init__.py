"""repro — a reproduction of LAPACK90 (Waśniewski & Dongarra, IPPS 1998).

Three layers, mirroring the paper's architecture:

* :mod:`repro.core` (the ``F90_LAPACK`` module) — the paper's
  contribution: generic high-level drivers with assumed-shape arrays,
  optional arguments and uniform ERINFO error handling.  Re-exported
  here: ``la_gesv``, ``la_posv``, ``la_syev``, … (Appendix G catalogue).
* :mod:`repro.f77` (the ``F77_LAPACK`` module) — the same routines with
  explicit FORTRAN 77 argument lists (paper Example 1/3).
* :mod:`repro.lapack77` — the from-scratch pure-NumPy LAPACK substrate
  both interfaces sit on (factorizations, eigensolvers, SVD…), with
  :mod:`repro.blas` underneath.

Both interface layers reach the substrate through the pluggable backend
registry (:mod:`repro.backends`): ``reference`` is the lapack77 package
itself, ``accelerated`` adapts the typed wrappers of SciPy's compiled
``_flapack`` extension (the objects ``scipy.linalg.lapack`` re-exports)
when SciPy is installed.  ``import repro`` loads no SciPy: the
extension loads at the accelerated backend's first kernel call, without
the ``scipy.linalg`` package, and a process that stays on the default
backend never loads it.  If it then fails to import, that
call is served by the reference substrate and ``accelerated`` leaves
the registry.  Select with :func:`set_backend` / ``use_backend`` / the
``REPRO_BACKEND`` environment variable, or per call via the drivers'
``backend=`` keyword (which pins that one call, not the process).

The dispatch seam (:class:`repro.backends.kernels.KernelProxy`) serves
a failed accelerated kernel call once from the reference substrate (its
adapters write operands back only after SciPy returns, so a failure
leaves them untouched), and any other kernel failure is reported, never
retried.  ``repro.deadline(seconds)``
bounds driver wall-clock at stage checkpoints, and
``repro.healthcheck()`` probes every registered backend.  Setting
``REPRO_CHAOS=1`` arms the chaos profile
(:func:`repro.faults.default_chaos_profile`): every accelerated call of
a hot kernel fails, so a test run exercises the escalation path.

Quickstart (paper Fig. 2, the LAPACK90 interface)::

    import numpy as np
    from repro import la_gesv

    rng = np.random.default_rng()
    a = rng.random((5, 5))
    b = a.sum(axis=1)           # exact solution: all ones
    la_gesv(a, b)               # b now holds the solution
"""

import os as _os

from . import (backends, batch, blas, config, core, f77, faults, lapack77,
               policy, resilience, storage, testing)
from .batch import BatchInfo
from .batch import __all__ as _batch_all
from .batch import *  # noqa: F401,F403 — the derived batch_* wrappers
from .backends import (available_backends, get_backend_name, set_backend,
                       use_backend)
from .errors import (BackendFallbackWarning, ComputationalError,
                     DeadlineExceeded, DriverFallbackWarning,
                     IllConditionedWarning, IllegalArgument, Info,
                     LinAlgError, NoConvergence, NonFiniteInput,
                     NonFiniteWarning, NotPositiveDefinite,
                     NumericalWarning, SingularMatrix, WorkspaceError)
from .policy import exception_policy, get_policy, set_policy
from .resilience import deadline, healthcheck
from .core import *  # noqa: F401,F403 — the Appendix G catalogue
from .core import __all__ as _core_all
from . import dispatch_front
from .dispatch_front import (Explanation, eig, lstsq, solve,
                             invalidate_structure_cache,
                             structure_cache_stats)

__version__ = "1.0.0"

__all__ = list(_core_all) + list(_batch_all) + [
    "Info", "LinAlgError", "IllegalArgument", "ComputationalError",
    "SingularMatrix", "NotPositiveDefinite", "NoConvergence",
    "WorkspaceError", "NonFiniteInput", "NumericalWarning",
    "NonFiniteWarning", "IllConditionedWarning", "DriverFallbackWarning",
    "BackendFallbackWarning", "DeadlineExceeded",
    "exception_policy", "get_policy", "set_policy",
    "deadline", "healthcheck",
    "available_backends", "get_backend_name", "set_backend",
    "use_backend",
    "solve", "lstsq", "eig", "Explanation",
    "invalidate_structure_cache", "structure_cache_stats",
    "backends", "batch", "blas", "config", "core", "dispatch_front",
    "f77", "faults", "lapack77", "policy", "resilience", "storage",
    "testing",
]

# CI chaos leg: REPRO_CHAOS=1 arms the default chaos profile before any
# driver runs, so every hot accelerated call escalates to reference.
_chaos_env = _os.environ.get("REPRO_CHAOS", "").strip()
if _chaos_env and _chaos_env != "0":
    faults.default_chaos_profile()
del _chaos_env
