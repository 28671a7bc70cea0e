"""Seeded LA005 violations: stale export and missing driver."""

from repro.core.shell import driver_shell

__all__ = ["la_gesv", "la_nothere"]             # lint: LA005


@driver_shell("la_gesv")
def la_gesv(a, b, ipiv=None, info=None):
    return b, 0, None


@driver_shell("la_posv")
def la_posv(a, b, uplo="U", info=None):         # lint: LA005
    return b, 0, None
