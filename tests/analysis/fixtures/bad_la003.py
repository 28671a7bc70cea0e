"""Seeded LA003 violations: missing info, bad default."""

from repro.core.shell import driver_shell


@driver_shell("la_gesv")
def la_gesv(a, b, ipiv=None):                    # lint: LA003
    return b, 0, None


@driver_shell("la_posv")
def la_posv(a, b, uplo="U", info=0):            # lint: LA003
    return b, 0, None
