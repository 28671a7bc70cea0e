"""LA023 fixture: a foreign module naming the process-global policy,
backend-selection and block-size state its owners guard."""

from repro.policy import _POLICY                # lint: LA023

from repro import backends, config


def force_propagate():
    _POLICY.nonfinite = "propagate"             # lint: LA023


def flip_backend(name):
    backends._SELECTED = name                   # lint: LA023


def tune(nb):
    config._BLOCK_SIZES["getrf"] = nb           # lint: LA023
