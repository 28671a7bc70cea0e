"""LA014 fixture: an in-place store mutates the factored matrix ``a``,
which the ``la_getrs`` spec declares intent(in), and an augmented
assignment mutates a view of ``b``, which ``la_gerfs`` declares
intent(in)."""

from repro.errors import Info
from repro.backends.kernels import gerfs, getrs
from repro.core.auxmod import as_matrix
from repro.core.shell import driver_shell

__all__ = ["la_getrs", "la_gerfs"]


@driver_shell("la_getrs")
def la_getrs(a, ipiv, b, trans="N", info=None):
    a[0, 0] = a[0, 0] + 0.0                 # lint: LA014
    linfo = getrs(a, ipiv, b, trans=trans)
    return b, linfo, None


@driver_shell("la_gerfs")
def la_gerfs(a, af, ipiv, b, x, trans="N", info=None):
    bmat, _ = as_matrix(b)
    bmat *= 1                               # lint: LA014
    xmat, _ = as_matrix(x)
    ferr, berr, linfo = gerfs(a, af, ipiv, bmat, xmat, trans=trans)
    return (ferr, berr), linfo, None
