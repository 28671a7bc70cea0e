"""LA017 seeded violation: a solve path running inside ``la_gesv``'s
shell takes no ``ipiv``, so the shell never hands ``ipiv`` to the spec's
ladder, its ``optlen`` check for error exit -3 sees ``None`` forever,
and that documented exit is dead code on this path."""

from repro.backends.kernels import gesv
from repro.core.shell import driver_shell


@driver_shell("la_gesv")                             # lint: LA017
def _solve(a, b, info=None):
    _, linfo = gesv(a, b)
    return b, linfo, None
