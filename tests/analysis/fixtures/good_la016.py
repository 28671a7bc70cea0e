"""LA016 clean fixture: the resilience state only through its APIs."""

from repro import deadline, healthcheck
from repro.faults import chaos, chaos_active, chaos_clear
from repro.resilience import remaining


def scoped_solve(run):
    with deadline(5.0):
        return run(), remaining()


def drill(run):
    with chaos("gesv", flaky_every=2, backend="accelerated"):
        run()
    chaos_clear()
    return healthcheck(), chaos_active()
