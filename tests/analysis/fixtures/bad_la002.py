"""Seeded LA002 violations: position drift in codes, check helpers,
and the shared error-exit table."""

from repro.errors import erinfo
from repro.core.auxmod import check_rhs, check_square, lsame

ERROR_EXIT_CODES = {
    "la_posv": {
        "b": -3,                                # lint: LA002
        "nosuch": -9,                           # lint: LA002
    },
}


def la_posv(a, b, uplo="U", info=None):
    srname = "LA_POSV"
    linfo = 0
    if check_square(a, 2):                      # lint: LA002
        linfo = -1
    elif check_rhs(a.shape[0], b, 2):
        linfo = -2
    elif not lsame(uplo, "U"):
        linfo = -5                              # lint: LA002
    erinfo(linfo, srname, info)
    return b
