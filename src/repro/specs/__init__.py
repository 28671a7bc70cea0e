"""Declarative driver-spec layer: one machine-readable description per
``la_*`` wrapper, from which the other layers are derived —

* argument validation (:func:`validate` / :func:`validate_args`,
  used by every ``repro.core`` driver),
* the shared error-exit table (:func:`error_exit_codes`, re-exported
  as :data:`repro.testing.error_exits.ERROR_EXIT_CODES`),
* the backend kernel binding (``repro.backends.bound_kernel``),
* the driver shell (:mod:`repro.core.shell`), which checks each
  body's signature against its spec when it decorates it, and
* the Appendix-G routine catalogue
  (``python -m repro.specs --catalogue``).

Importing :mod:`repro.specs` pulls in numpy (for the validation
engine) but none of the driver or backend modules, so tooling can load
the registry without touching the numerical stack.
"""

from __future__ import annotations

from .model import ArgSpec, Check, DriverSpec, CHECK_KINDS, DIM_SOURCES
from .engine import validate, validate_args, validate_batch
from .registry import SPECS, error_exit_codes
from .routing import (STRUCTURES, PROBLEM_KINDS, REFINEMENTS,
                      refinement_chain, routing_table, candidates, route)

__all__ = [
    "ArgSpec", "Check", "DriverSpec", "CHECK_KINDS", "DIM_SOURCES",
    "SPECS", "all_specs", "get_spec", "validate", "validate_args",
    "validate_batch", "error_exit_codes",
    "STRUCTURES", "PROBLEM_KINDS", "REFINEMENTS", "refinement_chain",
    "routing_table", "candidates", "route",
]


def get_spec(name: str) -> DriverSpec:
    """The registered spec for driver *name* (KeyError when unknown)."""
    return SPECS[name]


def all_specs():
    """All registered specs, in Appendix-G catalogue order."""
    return list(SPECS.values())
