"""The driver shell checks each body against its spec when it decorates
it: every spec argument is the body's parameter at its declared
1-based position, and ``info`` defaults to ``None``.  A body that
disagrees never becomes a driver."""

import pytest

import repro.core as core
from repro.core.shell import driver_shell
from repro.dispatch_front.api import _posv_from_factor
from repro.specs import SPECS


def _shells():
    """``(spec name, body)`` for every shell the package builds."""
    out = [(name, getattr(core, name).__wrapped__) for name in sorted(SPECS)]
    out.append(("la_posv", _posv_from_factor.__wrapped__))
    return out


def test_every_shipped_shell_passes_its_decoration_check():
    shells = _shells()
    assert len(shells) == 78
    for name, body in shells:
        driver_shell(name)(body)


def _gesv_swapped(b, a, ipiv=None, info=None):
    return b, 0, None


def _gesv_no_info(a, b, ipiv=None):
    return b, 0, None


def _gesv_info_zero(a, b, ipiv=None, info=0):
    return b, 0, None


def _gesv_short(a, b, info=None):
    return b, 0, None


@pytest.mark.parametrize("body, message", [
    (_gesv_swapped, "spec argument 'a' is not parameter 1"),
    (_gesv_short, "spec argument 'ipiv' is not parameter 3"),
    (_gesv_no_info, "info"),
    (_gesv_info_zero, "info=None"),
], ids=["argument-swapped", "argument-missing", "info-dropped",
        "info-zero"])
def test_a_body_that_disagrees_with_its_spec_is_refused(body, message):
    with pytest.raises(TypeError, match=message):
        driver_shell("la_gesv")(body)


def test_a_shell_without_a_spec_is_refused():
    with pytest.raises(KeyError):
        driver_shell("la_frobnicate")
