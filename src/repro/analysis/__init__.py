"""``repro.analysis`` — lalint, the LAPACK90 wrapper-contract checker.

A self-contained, AST-based lint pass over the ``la_*`` driver catalogue
(the code under analysis is parsed, never imported).  See
``docs/USERS_GUIDE.md`` for the rule catalogue LA001–LA026 and the
baseline workflow.  Run it with::

    PYTHONPATH=src python -m repro.analysis src/repro
"""

from .findings import Baseline, Finding
from .model import Project
from .rules import RULES, run_rules
from .cli import main

__all__ = ["Baseline", "Finding", "Project", "RULES", "run_rules",
           "main"]
