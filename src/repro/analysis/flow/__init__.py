"""laflow — spec-driven shape/dtype dataflow analysis for lalint.

The package splits into four layers:

* :mod:`.values` — the abstract domain (symbolic dimensions, the dtype
  lattice, array provenance, kernel references),
* :mod:`.interp` — the symbolic interpreter over one driver body,
* :mod:`.summaries` — the interprocedural layer: kernel effect
  signatures derived from the spec registry, and memoized helper
  summaries (dims in, events out) replayed into callers,
* :mod:`.rules` — the LA011–LA014, LA018 and LA020 checks
  registered in the main lalint catalogue (:mod:`repro.analysis.rules`),
* :mod:`.locks` — the lock model: the ``GUARDED_BY`` state table,
  lockset tracking through summaries, and the LA023–LA026 concurrency
  checks.
"""

from .interp import DriverFlow, FlowInterpreter, spec_dim_formulas
from .summaries import KernelEffect, SummaryEngine, kernel_effects
from .rules import (check_la011, check_la012, check_la013, check_la014,
                    check_la018, check_la020)
from .locks import (GUARDED_BY, GUARDED_ATTRS, ConcurrencySummaryEngine,
                    check_la023, check_la024, check_la025, check_la026)

__all__ = ["DriverFlow", "FlowInterpreter", "spec_dim_formulas",
           "KernelEffect", "SummaryEngine", "kernel_effects",
           "GUARDED_BY", "GUARDED_ATTRS", "ConcurrencySummaryEngine",
           "check_la011", "check_la012", "check_la013", "check_la014",
           "check_la018", "check_la020", "check_la023", "check_la024",
           "check_la025", "check_la026"]
