"""Spec-consistency suite for the declarative driver-spec layer.

Cross-checks the registry (:mod:`repro.specs`) against every layer that
is derived from it: the live driver signatures, the frozen pre-refactor
error-exit table, the backend kernel pool, and the validation engine
itself.
"""

import inspect
import json
import os
from dataclasses import replace

import numpy as np
import pytest

import repro.core as core
from repro.backends import bound_kernel, driver_kernel, get_backend
from repro.specs import SPECS, error_exit_codes, validate_args
from repro.specs.model import Check
from repro.testing.error_exits import ERROR_EXIT_CODES

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "fixtures", "error_exit_codes_v0.json")

#: ``la_*`` exports that are not drivers (workspace-size queries).
NON_DRIVERS = {"la_ws_gels", "la_ws_gelss"}


def _core_drivers():
    return sorted(n for n in core.__all__
                  if n.startswith("la_") and n not in NON_DRIVERS)


class TestCoverage:
    def test_every_core_driver_has_a_spec(self):
        missing = [n for n in _core_drivers() if n not in SPECS]
        assert missing == []

    def test_every_spec_names_a_core_driver(self):
        ghosts = sorted(set(SPECS) - set(_core_drivers()))
        assert ghosts == []

    def test_registry_covers_all_77_drivers(self):
        assert len(SPECS) == 77


class TestSignatures:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_positions_match_live_signature(self, name):
        spec = SPECS[name]
        func = getattr(core, name)
        params = [p for p in inspect.signature(func).parameters
                  if p not in ("args", "kwargs", "backend")]
        positions = {p: i + 1 for i, p in enumerate(params)}
        for a in spec.args:
            assert a.name in positions, \
                f"{name}: spec argument {a.name!r} not in signature"
            assert positions[a.name] == a.position, \
                f"{name}: {a.name} declared at {a.position}, " \
                f"signature has it at {positions[a.name]}"

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_check_codes_point_at_declared_positions(self, name):
        spec = SPECS[name]
        declared = {a.position for a in spec.args}
        for c in spec.checks:
            assert -c.code in declared, \
                f"{name}: check code {c.code} names no argument"


def _check_inputs(check, spec):
    """Argument names one check reads: its args, its ``ref`` and the
    arguments its derived dimension comes from (through ``min``)."""
    dims = {entry[0]: entry[1:] for entry in spec.dims}

    def sources(dim):
        source, *refs = dims[dim]
        for ref in refs:
            yield from sources(ref) if source == "min" else (ref,)

    names = set(check.args)
    if "ref" in check.params:
        names.add(check.params["ref"])
    if check.dim is not None:
        names.update(sources(check.dim))
    return names


def _duplicate_checks(spec):
    """Codes of checks identical to an earlier one: never reachable."""
    seen, out = set(), []
    for c in spec.checks:
        key = (c.kind, c.args, c.dim, repr(sorted(c.params.items())))
        if key in seen:
            out.append(c.code)
        seen.add(key)
    return out


class TestCheckData:
    """The ladder is first-violation-wins and reads only the arguments
    the shell binds, which are exactly the spec's arguments."""

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_no_check_duplicates_an_earlier_one(self, name):
        assert _duplicate_checks(SPECS[name]) == []

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_every_check_input_is_a_spec_argument(self, name):
        spec = SPECS[name]
        declared = {a.name for a in spec.args}
        for c in spec.checks:
            missing = _check_inputs(c, spec) - declared
            assert not missing, \
                f"{name}: the check for {c.code} reads {sorted(missing)}"

    def test_a_duplicate_and_a_stray_input_are_seen(self):
        spec = SPECS["la_gesv"]
        first = spec.checks[0]
        dup = replace(spec, checks=spec.checks + (
            replace(first, code=-9),))
        assert _duplicate_checks(dup) == [-9]
        stray = Check(-3, "optlen", ("piv",), "n")
        assert _check_inputs(stray, spec) == {"piv", "a"}


class TestErrorExitTable:
    def test_derived_table_matches_frozen_fixture_bytes(self):
        derived = json.dumps(error_exit_codes(), indent=2,
                             sort_keys=True) + "\n"
        with open(FIXTURE, "r", encoding="utf-8") as fh:
            assert fh.read() == derived

    def test_testing_module_reexports_the_derived_view(self):
        assert ERROR_EXIT_CODES == error_exit_codes()


class TestKernelBindings:
    def test_every_spec_kernel_resolves_in_reference(self):
        reference = get_backend("reference")
        for name, spec in SPECS.items():
            assert spec.kernel is not None, name
            assert spec.kernel in reference.routines(), \
                f"{name}: kernel {spec.kernel!r} not in reference"

    def test_reference_only_flags_are_honest(self):
        try:
            accelerated = get_backend("accelerated")
        except ValueError:
            pytest.skip("accelerated backend not registered")
        for name, spec in SPECS.items():
            served = spec.kernel in accelerated.routines()
            assert served != spec.reference_only, \
                f"{name}: reference_only={spec.reference_only} but " \
                f"accelerated {'serves' if served else 'lacks'} " \
                f"{spec.kernel!r}"

    def test_bound_kernel_and_driver_kernel(self):
        assert bound_kernel("la_gesv") == SPECS["la_gesv"].kernel
        kernel = driver_kernel("la_gesv", np.float64)
        assert callable(kernel)
        with pytest.raises(LookupError):
            bound_kernel("la_nosuchdriver")


class TestEngineSmoke:
    """The engine reproduces the table codes for seeded violations."""

    def test_gesv_ladder(self):
        codes = ERROR_EXIT_CODES["la_gesv"]
        assert validate_args("la_gesv", a=np.ones((3, 4)), b=np.ones(3),
                             ipiv=None) == codes["a"]
        assert validate_args("la_gesv", a=np.eye(3), b=np.ones(4),
                             ipiv=None) == codes["b"]
        assert validate_args("la_gesv", a=np.eye(3), b=np.ones(3),
                             ipiv=np.zeros(2, np.int64)) == codes["ipiv"]
        assert validate_args("la_gesv", a=np.eye(3), b=np.ones(3),
                             ipiv=None) == 0

    def test_first_failure_wins(self):
        codes = ERROR_EXIT_CODES["la_gesv"]
        assert validate_args("la_gesv", a=np.ones((3, 4)), b=np.ones(9),
                             ipiv=np.zeros(1, np.int64)) == codes["a"]

    def test_flag_domain(self):
        codes = ERROR_EXIT_CODES["la_posv"]
        assert validate_args("la_posv", a=np.eye(3), b=np.ones(3),
                             uplo="Q") == codes["uplo"]
        assert validate_args("la_posv", a=np.eye(3), b=np.ones(3),
                             uplo="L") == 0
