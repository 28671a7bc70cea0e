"""laflow self-tests: LA011–LA014, LA018 and LA020 fire on their
seeded fixtures (exact marker lines), stay quiet on the conforming
twins, LA023's guarded-state encapsulation fires on foreign modules
and its owner-module lock discipline is checked against synthesized
owners, and the interprocedural machinery (summary memoization, helper-call
value threading, allocation-site remapping, checkpoint replay) is
exercised against a driver that routes its work through helpers.

The dataflow fixtures live under ``fixtures/flow/repro/core/`` so the
spec-bound rules (which only police the core driver package) pick them
up; the LA023 encapsulation fixtures sit at the fixtures top level
because the foreign-name ban scans every module.  ``fixtures/flow/repro/lapack77/stub.py``
is the substrate stub whose ``def`` signatures give the LA018
effect signatures their kernel parameter order — the fixtures that need
effects are loaded together with it.
"""

import os
import textwrap

from repro.analysis import Project, run_rules
from repro.analysis.flow import (DriverFlow, SummaryEngine, check_la023,
                                 kernel_effects, spec_dim_formulas)
from repro.analysis.flow import values as V
from repro.specs.registry import SPECS

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
FLOW = os.path.join(FIXTURES, "flow", "repro", "core")
STUB = os.path.join(FIXTURES, "flow", "repro", "lapack77", "stub.py")
REPO = os.path.dirname(os.path.dirname(HERE))


def _findings(paths, code=None):
    found = run_rules(Project.load(paths))
    if code is not None:
        found = [f for f in found if f.code == code]
    return found


def _marked_lines(path, code):
    with open(path, "r", encoding="utf-8") as fh:
        return sorted(i for i, line in enumerate(fh, 1)
                      if f"lint: {code}" in line)


def _assert_matches_markers(path, code, extra=()):
    found = _findings([path, *extra], code)
    got = sorted(f.line for f in found)
    want = _marked_lines(path, code)
    assert got == want, f"{code}: findings at {got}, markers at {want}"
    return found


def _flow_fixture(name):
    return os.path.join(FLOW, name)


# -- the abstract interpreter itself ----------------------------------

def test_interpreter_seeds_and_tracks_the_gesv_body():
    path = _flow_fixture("good_la011.py")
    project = Project.load([path])
    (impl,) = [i for i in project.driver_impls()
               if i.driver == "la_gesv"]
    flow = DriverFlow(impl, SPECS["la_gesv"]).run()
    # n = a.shape[0] resolves to the spec's rows2d(a) formula.
    assert ("n", V.atom(("rows", "a")), flow.dim_defs[0][2]) \
        in flow.dim_defs
    assert spec_dim_formulas(SPECS["la_gesv"])["n"] \
        == V.atom(("rows", "a"))
    # The pivot buffer allocation is recorded with symbolic length n
    # and an integer dtype.
    (site,) = flow.allocs
    assert site.shape == (V.atom(("rows", "a")),)
    assert site.dtype == V.DT_INT
    # gesv(a, b) is a sink receiving both caller arrays.
    (sink,) = flow.sinks
    assert sink.callee == "gesv"
    origins = set()
    for val in sink.values:
        if isinstance(val, V.ArrayVal):
            origins |= val.origins
    assert origins == {"a", "b"}
    # ipiv[:] = buf is a write aliasing the declared output.
    assert any(w.names == frozenset({"ipiv"}) for w in flow.writes)


# -- rule true positives (marker-pinned) and clean twins --------------

def test_la011_fires_on_seeded_violations():
    found = _assert_matches_markers(_flow_fixture("bad_la011.py"),
                                    "LA011")
    messages = " | ".join(f.message for f in found)
    assert "cols(a)" in messages and "rows(a)" in messages
    assert "allocation stored into ipiv" in messages


def test_la012_fires_on_seeded_violations():
    found = _assert_matches_markers(_flow_fixture("bad_la012.py"),
                                    "LA012")
    assert "ipiv" in found[0].message
    assert found[0].context == "la_gesv"


def test_la013_fires_on_seeded_violations():
    found = _assert_matches_markers(_flow_fixture("bad_la013.py"),
                                    "LA013")
    assert "float64" in found[0].message


def test_la014_fires_on_seeded_violations():
    found = _assert_matches_markers(_flow_fixture("bad_la014.py"),
                                    "LA014")
    assert "intent(in)" in found[0].message
    assert "mutate a" in found[0].message


def test_la023_fires_on_foreign_config_state():
    path = os.path.join(FIXTURES, "bad_la023_foreign_config.py")
    found = _assert_matches_markers(path, "LA023")
    messages = " | ".join(f.message for f in found)
    assert "_POLICY" in messages
    assert "_SELECTED" in messages
    assert "_BLOCK_SIZES" in messages
    assert "repro/policy.py" in messages


def test_la023_fires_on_foreign_resilience_state():
    path = os.path.join(FIXTURES, "bad_la023_foreign_resilience.py")
    found = _assert_matches_markers(path, "LA023")
    messages = " | ".join(f.message for f in found)
    assert "_ARMED" in messages
    assert "_CHAOS" in messages
    assert "_DEADLINES" in messages
    assert "repro/faults.py" in messages


def test_la023_fires_on_reflective_access_to_foreign_state():
    path = os.path.join(FIXTURES, "bad_la023_reflective.py")
    found = _assert_matches_markers(path, "LA023")
    messages = " | ".join(f.message for f in found)
    for name in ("_SELECTED", "CHAOS_ACTIVE", "_STATS"):
        assert name in messages
    for how in ("getattr()", "setattr()", "hasattr()", "delattr()"):
        assert how in messages


def test_la018_fires_on_seeded_violations():
    found = _assert_matches_markers(_flow_fixture("bad_la018.py"),
                                    "LA018", extra=[STUB])
    assert "may overlap" in found[0].message
    assert "alias a" in found[0].message
    assert "written in place" in found[0].message


def test_la020_fires_on_seeded_violations():
    found = _assert_matches_markers(_flow_fixture("bad_la020.py"),
                                    "LA020")
    assert "factor -> solve" in found[0].message
    assert "deadlines.check" in found[0].message
    assert "getrf" in found[0].message


def test_bad_flow_fixtures_only_fire_their_own_rule():
    for name, code in [("bad_la011.py", "LA011"),
                       ("bad_la012.py", "LA012"),
                       ("bad_la013.py", "LA013"),
                       ("bad_la014.py", "LA014"),
                       ("bad_la020.py", "LA020")]:
        found = _findings([_flow_fixture(name)])
        assert {f.code for f in found} == {code}, name
    found = _findings([_flow_fixture("bad_la018.py"), STUB])
    assert {f.code for f in found} == {"LA018"}
    for name in ("bad_la023_foreign_config.py",
                 "bad_la023_foreign_resilience.py",
                 "bad_la023_reflective.py"):
        found = _findings([os.path.join(FIXTURES, name)])
        assert {f.code for f in found} == {"LA023"}, name


def test_good_flow_fixtures_are_clean():
    for name in ("good_la011.py", "good_la012.py", "good_la013.py",
                 "good_la014.py"):
        assert _findings([_flow_fixture(name)]) == [], name
    # The LA018/LA020 twins load together with the substrate stub so
    # the effect signatures (and LA006's import audit) see its defs.
    for name in ("good_la018.py", "good_la020.py"):
        assert _findings([_flow_fixture(name), STUB]) == [], name
    for name in ("good_la023_foreign_config.py",
                 "good_la023_foreign_resilience.py",
                 "good_la023_reflective.py"):
        assert _findings([os.path.join(FIXTURES, name)]) == [], name


# -- LA023 owner-module lock discipline -------------------------------

def _owner_tree(tmp_path, source):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    path = pkg / "policy.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return str(path)


def test_la023_policy_owner_mutation_requires_the_lock(tmp_path):
    path = _owner_tree(tmp_path, """\
        from ._sync import STATE_LOCK

        _POLICY = object()          # top-level init: allowed

        def set_policy(value):
            _POLICY.mode = value    # unlocked mutation

        def set_policy_locked(value):
            with STATE_LOCK:
                _POLICY.mode = value
        """)
    found = check_la023(Project.load([path]))
    assert len(found) == 1
    assert "without holding STATE_LOCK" in found[0].message
    # The finding points at the unlocked store, not the locked one.
    assert found[0].line == 6


def test_la023_policy_owner_reads_hold_the_lock_or_a_pragma(tmp_path):
    path = _owner_tree(tmp_path, """\
        from ._sync import STATE_LOCK

        _POLICY = object()

        def get_policy():
            return _POLICY  # laflow: benign-race — stable object identity

        def get_policy_locked():
            with STATE_LOCK:
                return _POLICY
        """)
    assert check_la023(Project.load([path])) == []


def test_la023_nested_def_loses_the_lexical_lock(tmp_path):
    path = _owner_tree(tmp_path, """\
        from ._sync import STATE_LOCK

        _POLICY = object()

        def make_setter():
            with STATE_LOCK:
                def setter(value):
                    _POLICY.mode = value    # runs after the lock is gone
                return setter
        """)
    found = check_la023(Project.load([path]))
    assert len(found) == 1
    assert found[0].line == 8
    assert found[0].context == "make_setter.setter"


def _chaos_owner(tmp_path, source):
    pkg = tmp_path / "repro"
    pkg.mkdir(parents=True)
    path = pkg / "faults.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return str(path)


def test_la023_chaos_owner_mutation_requires_the_lock(tmp_path):
    path = _chaos_owner(tmp_path, """\
        from ._sync import STATE_LOCK

        _CHAOS = {}                 # top-level init: allowed

        def arm(key):
            _CHAOS[key] = 1         # unlocked mutation

        def arm_locked(key):
            with STATE_LOCK:
                _CHAOS[key] = 1
        """)
    found = check_la023(Project.load([path]))
    assert len(found) == 1
    assert "without holding STATE_LOCK" in found[0].message
    assert found[0].line == 6


def test_la023_thread_local_deadline_stack_is_lock_exempt(tmp_path):
    pkg = tmp_path / "repro" / "resilience"
    pkg.mkdir(parents=True)
    path = pkg / "deadlines.py"
    path.write_text(textwrap.dedent("""\
        import threading

        _DEADLINES = threading.local()

        def _stack():
            _DEADLINES.stack = []       # thread-local: no lock needed
            return _DEADLINES.stack
        """), encoding="utf-8")
    assert check_la023(Project.load([str(path)])) == []


# -- interprocedural machinery: summaries, effects ------------------

_HELPER_DRIVER = """\
    import numpy as np

    from repro.errors import Info, erinfo
    from repro.backends.kernels import gesv
    from repro.resilience import deadlines
    from repro.specs import validate_args

    __all__ = ["la_gesv"]


    def _pivot_buffer(n):
        return np.zeros(n, dtype=np.intp)


    def _entry_guard(srname, info):
        deadlines.check(srname, "entry", info)


    def la_gesv(a, b, ipiv=None, info=None):
        srname = "LA_GESV"
        exc = None
        linfo = validate_args("la_gesv", a=a, b=b, ipiv=ipiv)
        if linfo == 0:
            _entry_guard(srname, info)
            n = a.shape[0]
            buf = _pivot_buffer(n)
            extra = _pivot_buffer(n)
            _, linfo = gesv(a, b)
            if ipiv is not None:
                ipiv[:] = buf
        erinfo(linfo, srname, info, exc=exc)
        return b
    """


def _helper_flow(tmp_path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    path = pkg / "driver.py"
    path.write_text(textwrap.dedent(_HELPER_DRIVER), encoding="utf-8")
    project = Project.load([str(path)])
    (impl,) = [i for i in project.driver_impls()
               if i.driver == "la_gesv"]
    engine = SummaryEngine(project)
    flow = DriverFlow(impl, SPECS["la_gesv"], summaries=engine).run()
    return engine, flow


def test_summary_memoization_interprets_each_helper_once(tmp_path):
    engine, flow = _helper_flow(tmp_path)
    # _pivot_buffer is called twice with the same abstract input (the
    # spec dimension n) but interpreted once; _entry_guard once.
    assert engine.computed == 2


def test_helper_return_value_threads_into_the_caller(tmp_path):
    engine, flow = _helper_flow(tmp_path)
    # Each _pivot_buffer call instantiates a *fresh* caller allocation
    # site (an allocation per call, even on a memo hit), carrying the
    # helper's symbolic shape and dtype.
    assert len(flow.allocs) == 2
    for site in flow.allocs:
        assert site.shape == (V.atom(("rows", "a")),)
        assert site.dtype == V.DT_INT
    # The first call's return value flows through buf into the
    # ipiv[:] = buf store with its remapped allocation index.
    (write,) = [w for w in flow.writes
                if w.names == frozenset({"ipiv"})]
    assert isinstance(write.value, V.ArrayVal)
    assert write.value.allocs == frozenset({flow.allocs[0].index})


def test_helper_checkpoints_replay_at_depth_one(tmp_path):
    engine, flow = _helper_flow(tmp_path)
    (mark,) = flow.checkpoints
    assert mark.stage == "entry"
    assert mark.depth == 1      # LA020 only credits depth-0 checkpoints


def test_kernel_effects_derive_from_spec_intents():
    project = Project.load([STUB])
    effects = kernel_effects(project, SPECS)
    gesv = effects["gesv"]
    assert gesv.params == ("a", "b")
    assert gesv.arrays == frozenset({"a", "b"})
    assert gesv.written == frozenset({"a", "b"})
    lagge = effects["lagge"]
    assert "a" in lagge.written and "d" not in lagge.written
    # Slot alignment covers positionals and keywords alike.
    slots = gesv.slots((1,), (("b", 2),))
    assert slots == {"a": 1, "b": 2}


def test_kernel_effects_mark_the_slots_a_substrate_body_writes():
    """``gesvd``'s ``superdiag`` matches no spec argument (``la_gesvd``
    passes its ``ev`` workspace there), but the substrate body stores
    into it, so it is a written array slot and aliasing it with ``a``
    is an LA018 finding."""
    effects = kernel_effects(Project.load([STUB]), SPECS)
    gesvd = effects["gesvd"]
    assert {"a", "superdiag"} <= gesvd.arrays
    assert {"a", "superdiag"} <= gesvd.written
    found = _findings([_flow_fixture("bad_la018.py"), STUB], "LA018")
    (hit,) = [f for f in found if f.context == "la_gesvd"]
    assert "operands a and superdiag of kernel gesvd" in hit.message


def test_shipped_gesvd_superdiag_slot_is_written():
    """The shipped substrate's ``gesvd`` gets the same written slot."""
    src = os.path.join(REPO, "src", "repro")
    effects = kernel_effects(Project.load([src]), SPECS)
    assert "superdiag" in effects["gesvd"].written



# -- the shipped tree passes the new rules ----------------------------

def test_shipped_tree_clean_under_flow_rules():
    src = os.path.join(REPO, "src", "repro")
    found = _findings([src])
    flow_findings = [f for f in found if f.code >= "LA011"]
    assert flow_findings == [], \
        "\n".join(f.render() for f in flow_findings)


def test_shipped_gesvd_writes_its_ww_output():
    """The LA012 true positive this PR fixed must stay fixed: la_gesvd
    now threads the bidiagonal superdiagonal into ww."""
    src = os.path.join(REPO, "src", "repro", "core", "eigen.py")
    assert _findings([src], "LA012") == []
