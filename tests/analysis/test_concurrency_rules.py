"""LA023–LA026 self-tests: the concurrency rules fire on their seeded
fixtures (exact marker lines), stay quiet on the conforming twins, and
the lock-model machinery behind them — locksets joining at branch
merges, locksets propagating through memoized cross-module summaries,
STATE_LOCK re-entrancy, the ``GUARDED_BY`` state table (its rows bound
by their owners, their names banned everywhere else), and pragma
verification — is exercised against synthesized module trees.

The fixtures live flat under ``fixtures/concurrency/``: each declares
its own lock and a ``_LAFLOW_GUARDED`` table, the declarative opt-in
for guarded state outside the shipped registry.
"""

import ast
import os
import textwrap

import pytest

from repro.analysis import Project, run_rules
from repro.analysis.flow import (GUARDED_BY, check_la023, check_la024,
                                 check_la025, check_la026)

HERE = os.path.dirname(os.path.abspath(__file__))
CONC = os.path.join(HERE, "fixtures", "concurrency")
REPO = os.path.dirname(os.path.dirname(HERE))

CHECKS = {"LA023": check_la023, "LA024": check_la024,
          "LA025": check_la025, "LA026": check_la026}


def _fixture(name):
    return os.path.join(CONC, name)


def _findings(paths, code):
    return CHECKS[code](Project.load(list(paths)))


def _marked_lines(path, code):
    with open(path, "r", encoding="utf-8") as fh:
        return sorted(i for i, line in enumerate(fh, 1)
                      if f"lint: {code}" in line)


def _assert_matches_markers(name, code):
    path = _fixture(name)
    got = sorted(f.line for f in _findings([path], code))
    want = _marked_lines(path, code)
    assert got == want, f"{code}: findings at {got}, markers at {want}"


# -- fixtures fire exactly on their markers ----------------------------

def test_la023_fires_on_seeded_violations():
    _assert_matches_markers("bad_la023.py", "LA023")


def test_la024_fires_on_seeded_violations():
    _assert_matches_markers("bad_la024.py", "LA024")


def test_la025_fires_on_seeded_violations():
    _assert_matches_markers("bad_la025.py", "LA025")


def test_la026_fires_on_seeded_violations():
    _assert_matches_markers("bad_la026.py", "LA026")


def test_good_concurrency_fixtures_are_clean():
    for name in ("good_la023.py", "good_la024.py", "good_la025.py",
                 "good_la026.py"):
        for code in CHECKS:
            assert _findings([_fixture(name)], code) == [], (name, code)


def test_bad_concurrency_fixtures_only_fire_their_own_rule():
    for name, code in (("bad_la023.py", "LA023"),
                       ("bad_la024.py", "LA024"),
                       ("bad_la025.py", "LA025"),
                       ("bad_la026.py", "LA026")):
        found = run_rules(Project.load([_fixture(name)]))
        assert {f.code for f in found} == {code}, (name, found)


# -- the lock model itself ---------------------------------------------

def test_branch_merge_drops_one_armed_locks():
    # ``one_armed_join`` acquires only on one arm; the merged lockset
    # after the ``if`` must not still hold the lock.
    found = _findings([_fixture("bad_la023.py")], "LA023")
    assert any(f.context == "one_armed_join" for f in found)


def test_both_arm_acquisition_survives_the_merge():
    # ``both_arms`` in the good twin acquires on *both* arms — the
    # must-intersection keeps the lock and the guarded read is clean.
    assert _findings([_fixture("good_la023.py")], "LA023") == []


def test_reentrant_state_lock_is_not_a_cycle():
    # ``with STATE_LOCK:`` nested inside ``with STATE_LOCK:`` models the
    # RLock: no self-deadlock finding, unlike LOCK_A in the bad twin.
    assert _findings([_fixture("good_la025.py")], "LA025") == []
    found = _findings([_fixture("bad_la025.py")], "LA025")
    assert any("self-deadlock" in f.message for f in found)
    assert any("lock-order cycle" in f.message for f in found)


def test_interprocedural_split_reports_at_the_act(tmp_path=None):
    # ``split_across_helpers`` locks correctly inside each helper; only
    # the lockset threaded through both summaries exposes the split.
    found = _findings([_fixture("bad_la024.py")], "LA024")
    assert any(f.context == "split_across_helpers" for f in found)


# -- synthesized owner trees (the shipped registry, not _LAFLOW_GUARDED)

def _write_tree(tmp_path, files):
    paths = []
    for rel, body in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
        paths.append(str(path))
    return Project.load([str(tmp_path)])


def test_owner_suffix_derivation_guards_policy(tmp_path):
    # A module whose path matches a GUARDED_BY owner suffix inherits
    # the row without declaring _LAFLOW_GUARDED.
    project = _write_tree(tmp_path, {
        "repro/policy.py": """\
            _POLICY = object()

            def set_policy_badly(value):
                global _POLICY
                _POLICY = value
            """,
    })
    found = check_la023(project)
    assert [f.line for f in found] == [5]
    assert "_POLICY" in found[0].message
    assert "STATE_LOCK" in found[0].message


def test_cross_module_summary_propagates_the_callers_lockset(tmp_path):
    # The helper mutates guarded state with no lock of its own — its
    # summary, replayed into a locked cross-module caller, inherits the
    # caller's lockset (the shipped breaker._sync shape)...
    cache_body = """\
        import threading

        STATE_LOCK = threading.RLock()

        _ENTRIES = {}

        def _bump(key):
            _ENTRIES[key] = _ENTRIES.get(key, 0) + 1

        def bump_locked(key):
            with STATE_LOCK:
                _bump(key)
        """
    clean = _write_tree(tmp_path / "clean", {
        "repro/dispatch_front/cache.py": cache_body,
        "repro/dispatch_front/api.py": """\
            from .cache import STATE_LOCK, _bump

            def locked_front(key):
                with STATE_LOCK:
                    _bump(key)
            """,
    })
    assert check_la023(clean) == []
    # ... while an unlocked cross-module caller leaves the helper's
    # guarded accesses bare, reported at the helper's own line.
    dirty = _write_tree(tmp_path / "dirty", {
        "repro/dispatch_front/cache.py": cache_body,
        "repro/dispatch_front/api.py": """\
            from .cache import _bump

            def unlocked_front(key):
                _bump(key)
            """,
    })
    found = check_la023(dirty)
    assert found and all(f.path.endswith("cache.py") for f in found)
    assert {f.line for f in found} == {8}
    assert {f.context for f in found} == {"unlocked_front"}


def test_pragma_requires_a_justification(tmp_path):
    project = _write_tree(tmp_path, {
        "mod.py": """\
            import threading

            STATE_LOCK = threading.RLock()

            _LAFLOW_GUARDED = {"_T": "STATE_LOCK"}

            _T = {}

            def f(key):
                with STATE_LOCK:
                    return _T.get(key)  # laflow: benign-race
            """,
    })
    found = check_la023(project)
    assert [f.line for f in found] == [11]
    assert "justification" in found[0].message


# -- the registry and the shipped tree ---------------------------------

def _top_level_names(path):
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target] if isinstance(node, ast.AnnAssign) else []
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("name", sorted(GUARDED_BY))
def test_guarded_by_row_is_bound_by_its_owner(name):
    # A deleted global must take its row with it: every row names a
    # module-level binding in its owner in the shipped tree.
    owner, _lock = GUARDED_BY[name]
    path = os.path.join(REPO, "src", *owner.split("/"))
    assert name in _top_level_names(path), f"{owner} binds no {name}"


@pytest.mark.parametrize("name", sorted(GUARDED_BY))
def test_la023_flags_a_foreign_module_naming_the_row(tmp_path, name):
    owner, _lock = GUARDED_BY[name]
    dotted = owner[:-len(".py")].replace("/", ".")
    dotted = dotted.removesuffix(".__init__")
    package, _, leaf = dotted.rpartition(".")
    project = _write_tree(tmp_path, {"repro/elsewhere.py": f"""\
        from {dotted} import {name}
        from {package} import {leaf}

        def by_name():
            return {name}

        def by_attribute():
            return {leaf}.{name}
        """})
    found = check_la023(project)
    assert sorted(f.line for f in found) == [1, 5, 8]
    assert all(owner in f.message for f in found)


def test_foreign_naming_is_not_pragma_suppressible(tmp_path):
    project = _write_tree(tmp_path, {"repro/elsewhere.py": """\
        from repro import faults

        def armed():
            return faults.CHAOS_ACTIVE  # laflow: benign-race — one flag
        """})
    assert [f.line for f in check_la023(project)] == [4]


def test_shipped_tree_is_concurrency_clean():
    # Also proves every shipped pragma is load-bearing: a pragma no
    # reached access matches is itself a finding.
    project = Project.load([os.path.join(REPO, "src", "repro")])
    for code, check in CHECKS.items():
        assert check(project) == [], code
