"""Compiled validators against the interpreter they replaced.

Every :class:`~repro.specs.model.DriverSpec` compiles its check ladder
into one straight-line function (``spec.validator``).  The interpreter
that ran the ladders before (``validation_oracle``, kept unchanged) is
the oracle: for every registered spec, on well-formed and malformed
bound arguments alike — wrong types, missing required arguments,
empty or non-string flags, 0-d/3-D/empty arrays, lists, ints where
arrays belong, mismatched lengths — the compiled validator returns the
identical code, and neither of them ever raises.  The batch entry
point is held to the same oracle on stacked operands.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.specs import (SPECS, ArgSpec, Check, DriverSpec, validate,
                         validate_args, validate_batch)

from . import validation_oracle as oracle

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SETTINGS = dict(max_examples=25, deadline=None, derandomize=True)

ALL = sorted(SPECS)
BATCHABLE = sorted(name for name, s in SPECS.items() if s.batchable)

#: Extents the arrays draw from: few enough that shapes collide often,
#: so the ladders run past their first checks; 3 and 6 are the packed
#: lengths of orders 2 and 3.
EXTENTS = (0, 1, 2, 3, 3, 4, 6)
DTYPES = (np.float64, np.float64, np.complex128, np.int64)

#: Values that are never a well-formed argument of any kind.
JUNK = (0, 1, -1, 3, 2.5, "", "x", "?", [], [1, 2], [[1.0, 2.0]], ["U"],
        ("N",), b"N", object(), True, np.float64(1.0), np.array(2.0),
        np.zeros((2, 2, 2)), np.zeros(0), np.zeros((0, 0)),
        np.array([1.0, 2.0]))

#: Scalar arguments (band widths, index and value ranges, ...).
SCALARS = frozenset({"kl", "ku", "il", "iu", "vl", "vu", "itype",
                     "rcond", "abstol"})

#: Array ranks per argument kind: (conforming, malformed).
RANKS = {"matrix": ((2,), (0, 1, 3)), "rhs": ((1, 2), (0, 3)),
         "vector": ((1,), (0, 2))}
BAD_FLAGS = ("", "Q", "z", None, 1, ["U"], "1", "0")
BAD_SCALARS = (np.array([1.0, 2.0]), np.array(1.0), "3", [1])


def _array(rnd, ranks, n):
    """Extents mostly *n* (the call's common order) or the off-diagonal
    length ``n - 1``, sometimes any."""
    near = (n, n, n, n, max(n - 1, 0))
    shape = tuple(rnd.choice(near) if rnd.randrange(3)
                  else rnd.choice(EXTENTS)
                  for _ in range(rnd.choice(ranks)))
    return np.ones(shape, dtype=rnd.choice(DTYPES))


def _value(rnd, kind, options, n):
    """One argument of *kind*: conforming three times in five (so later
    checks run), otherwise malformed for its kind or plain junk."""
    pick = rnd.randrange(5)
    if pick == 4:
        return rnd.choice(JUNK)
    good = pick < 3
    if kind == "flag":
        if not good:
            return rnd.choice(BAD_FLAGS)
        letter = rnd.choice(list(options) or ["N"])
        return rnd.choice([letter, letter.lower(), letter + "X"])
    if kind == "scalar":
        if not good:
            return rnd.choice(BAD_SCALARS)
        return rnd.choice([None, True, False, 1, 2, 3,
                           rnd.randint(-2, 5), rnd.uniform(-2, 5)])
    if kind == "info":
        return rnd.choice([None, object()])
    return _array(rnd, RANKS[kind][0 if good else 1], n)


def random_bound(rnd, spec):
    """A bound-argument dict for *spec*: each argument present or
    absent, conforming or malformed, plus an occasional stray key."""
    flags = {}
    for c in spec.checks:
        if c.kind == "flag":
            flags[c.args[0]] = c.params.get("options", ())
        elif c.kind == "fact_requires":
            flags.setdefault(c.args[0], ("F", "N"))
    bound, n = {}, rnd.choice(EXTENTS)
    for a in spec.args:
        if rnd.randrange(10) < (1 if a.required else 3):
            continue                        # missing, required or not
        if a.name in flags or a.kind == "flag":
            kind = "flag"
        else:
            kind = "scalar" if a.name in SCALARS else a.kind
        bound[a.name] = _value(rnd, kind, flags.get(a.name, ()), n)
    if rnd.randrange(4) == 0:
        bound["stray"] = rnd.choice(JUNK)
    return bound


@pytest.mark.parametrize("name", ALL)
def test_compiled_validator_matches_interpreter(name):
    spec = SPECS[name]

    @settings(**SETTINGS)
    @given(rnd=st.randoms(use_true_random=False))
    def check(rnd):
        bound = random_bound(rnd, spec)
        want = oracle.validate(spec, bound)
        assert validate(spec, bound) == want, bound
        assert validate_args(name, **bound) == want, bound

    check()


def test_sweep_matches_interpreter_and_reaches_the_ladders():
    """A seeded volume sweep (800 argument sets per spec) beside the
    hypothesis runs, with a non-vacuity guard: the sweep must reach
    nearly every code of every ladder, and code 0, so that a dropped
    check or a wrong code in the generated text is seen."""
    ladder, reached = set(), set()
    for name, spec in SPECS.items():
        rnd = random.Random(name)
        ladder |= {(name, c.code) for c in spec.checks} | {(name, 0)}
        for _ in range(800):
            bound = random_bound(rnd, spec)
            want = oracle.validate(spec, bound)
            assert validate(spec, bound) == want, (name, bound)
            reached.add((name, want))
    missed = sorted(ladder - reached)
    assert len(missed) <= len(ladder) // 50, missed


def test_spec_outside_the_registry_validates():
    spec = DriverSpec(
        "la_x", "§T", "synthetic",
        args=(ArgSpec("a", 1),
              ArgSpec("ipiv", 3, kind="vector", required=False)),
        dims=(("n", "rows2d", "a"),),
        checks=(Check(-1, "square", ("a",)),
                Check(-3, "optlen", ("ipiv",), "n"),
                # names outside the args and a dim the spec never
                # derives behave as the interpreter's dict lookups did
                Check(-4, "optlen", ("w",), "m"),
                Check(-5, "flag", ("trans",),
                      params={"options": ("N", "T"), "mode": "first"})))
    for bound in ({"a": np.eye(2)}, {"a": np.ones((2, 3))},
                  {"a": np.eye(2), "ipiv": np.zeros(1)},
                  {"a": np.eye(2), "w": np.zeros(2)},
                  {"a": np.eye(2), "trans": ""},
                  {"a": np.eye(2), "trans": "t", "other": 1}):
        assert validate(spec, bound) == oracle.validate(spec, bound)
    assert spec.validator is spec.validator       # compiled once


def test_every_kind_and_dim_source_compiles():
    used = {c.kind for s in SPECS.values() for c in s.checks}
    sources = {d[1] for s in SPECS.values() for d in s.dims}
    assert used == set(oracle.KINDS)
    assert sources == set(oracle.DIM_SOURCES)
    for spec in SPECS.values():
        assert callable(spec.validator)


# -- batch mode -----------------------------------------------------------

def _interpreted(spec):
    """A copy of *spec* whose validator is the interpreter."""
    twin = dataclasses.replace(spec)
    twin.__dict__["validator"] = \
        lambda **bound: oracle.validate(spec, bound)
    return twin


def random_stacked(rnd, spec):
    """:func:`random_bound` with most array operands stacked, some on a
    disagreeing batch size."""
    bound = random_bound(rnd, spec)
    batch = rnd.randint(0, 3)
    for name in spec.batch_stacked:
        val = bound.get(name)
        if isinstance(val, np.ndarray) and rnd.randrange(6):
            size = batch if rnd.randrange(6) else batch + 1
            bound[name] = np.broadcast_to(val, (size,) + val.shape).copy()
    return bound


@pytest.mark.parametrize("name", BATCHABLE)
def test_validate_batch_matches_interpreter(name):
    spec = SPECS[name]
    twin = _interpreted(spec)

    @settings(**SETTINGS)
    @given(rnd=st.randoms(use_true_random=False))
    def check(rnd):
        bound = random_stacked(rnd, spec)
        want = validate_batch(twin, bound)
        assert validate_batch(spec, bound) == want, bound

    check()
