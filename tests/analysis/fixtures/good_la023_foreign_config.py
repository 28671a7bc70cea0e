"""LA023 clean twin: the global knobs only through their owners'
functions."""

from repro import config
from repro.backends import set_backend, use_backend
from repro.policy import exception_policy, get_policy, set_policy


def flip(name):
    return set_backend(name)


def scoped():
    with use_backend("reference"):
        with exception_policy(nonfinite="check"):
            return get_policy().nonfinite


def tune(nb):
    config.set_block_size("getrf", nb)
    return set_policy(fallbacks=False)
