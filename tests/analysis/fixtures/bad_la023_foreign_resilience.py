"""LA023 fixture: a foreign module naming the deadline arming and stack
and the chaos-fault table their owners guard."""

from repro.faults import _CHAOS  # lint: LA023

from repro import faults
from repro.resilience import deadlines


def silence_chaos(routine):
    _CHAOS.pop(routine, None)                   # lint: LA023


def disarm_deadlines():
    deadlines._ARMED = 0                        # lint: LA023


def drop_budgets():
    deadlines._DEADLINES.stack = []             # lint: LA023


def reset_counters(routine):
    faults._CHAOS[routine]["calls"] = 0         # lint: LA023
