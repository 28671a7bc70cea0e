"""Seeded LA001 violations: a driver that bypasses the driver shell,
plus a bare except and a direct raise in its body."""

from repro.errors import SingularMatrix, erinfo


def la_gesv(a, b, info=None):                   # lint: LA001
    srname = "LA_GESV"
    linfo = 0
    if a.ndim != 2:
        return b
    try:
        linfo = int(b.shape[0])
    except:                                     # lint: LA001
        pass
    if linfo > 0:
        raise SingularMatrix(srname, linfo)     # lint: LA001
    erinfo(linfo, srname, info)
    return b
