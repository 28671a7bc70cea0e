"""LA016 fixture: reaching around the resilience APIs into the deadline
arming and stack and the chaos-fault table."""

from repro.faults import _CHAOS  # lint: LA016

from repro import faults
from repro.resilience import deadlines


def silence_chaos(routine):
    _CHAOS.pop(routine, None)                   # lint: LA016


def disarm_deadlines():
    deadlines._ARMED = 0                        # lint: LA016


def drop_budgets():
    deadlines._DEADLINES.stack = []             # lint: LA016


def reset_counters(routine):
    faults._CHAOS[routine]["calls"] = 0         # lint: LA016
