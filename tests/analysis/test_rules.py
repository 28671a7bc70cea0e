"""lalint self-tests: every rule LA001-LA008 (LA002, LA003 and LA004
are retired) fires on its seeded fixture (exact codes and line
numbers) and stays quiet on a conforming driver; the shipped tree is
clean modulo the committed baseline.

Violating fixture lines carry a ``# lint: LAxxx`` marker; the expected
locations are read back from those markers so the assertions pin exact
positions without hard-coding line numbers.
"""

import os

from repro.analysis import Baseline, Project, run_rules

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
REPO = os.path.dirname(os.path.dirname(HERE))


def _fixture(*names):
    return [os.path.join(FIXTURES, n) for n in names]


def _findings(paths, code=None):
    project = Project.load(paths)
    found = run_rules(project)
    if code is not None:
        found = [f for f in found if f.code == code]
    return found


def _marked_lines(path, code):
    with open(path, "r", encoding="utf-8") as fh:
        return sorted(i for i, line in enumerate(fh, 1)
                      if f"lint: {code}" in line)


def _assert_matches_markers(paths, code):
    found = _findings(paths, code)
    got = sorted(f.line for f in found)
    want = []
    for path in paths:
        if os.path.isdir(path):
            for root, _, files in os.walk(path):
                for name in sorted(files):
                    if name.endswith(".py"):
                        want += _marked_lines(os.path.join(root, name),
                                              code)
        else:
            want += _marked_lines(path, code)
    assert got == sorted(want), \
        f"{code}: findings at {got}, markers at {sorted(want)}"
    assert all(f.code == code for f in found)
    return found


def test_la001_fires_on_seeded_violations():
    found = _assert_matches_markers(_fixture("bad_la001.py"), "LA001")
    messages = " | ".join(f.message for f in found)
    assert "does not go through the driver shell" in messages
    assert "bare except" in messages
    assert "direct raise" in messages


def test_la001_catches_the_retired_la004_frame_order_fixture():
    # Validation before the guard before the kernel is the shell's
    # order by construction; a frame rolled by hand bypasses the shell.
    found = _assert_matches_markers(_fixture("bad_la004.py"), "LA001")
    messages = " | ".join(f.message for f in found)
    assert "la_gesv does not go through the driver shell" in messages
    assert "la_posv runs in the shell of la_gesv" in messages


def test_la005_fires_on_seeded_violations():
    found = _assert_matches_markers(_fixture("bad_la005.py"), "LA005")
    messages = " | ".join(f.message for f in found)
    assert "missing from __all__" in messages
    assert "exports undefined name la_nothere" in messages


def test_la007_fires_on_seeded_violations():
    found = _assert_matches_markers(_fixture("bad_la007.py"), "LA007")
    messages = " | ".join(f.message for f in found)
    assert "NonFiniteInput" in messages
    assert "warning band" in messages
    assert "ALLOC_FAILED" in messages


def test_la008_fires_on_seeded_violations():
    found = _assert_matches_markers(_fixture("bad_la008.py"), "LA008")
    messages = " | ".join(f.message for f in found)
    assert "repro.backends.kernels" in messages


def test_conforming_driver_is_clean():
    assert _findings(_fixture("clean_driver.py")) == []


def test_bad_fixtures_only_fire_their_own_rule():
    for name, code in [("bad_la001.py", "LA001"), ("bad_la004.py",
                       "LA001"),
                      ("bad_la005.py", "LA005"), ("bad_la007.py",
                       "LA007"), ("bad_la008.py", "LA008"),
                      ("bad_la021.py", "LA021")]:
        found = _findings(_fixture(name))
        assert {f.code for f in found} == {code}, name


def test_shipped_tree_clean_modulo_baseline():
    src = os.path.join(REPO, "src", "repro")
    baseline = Baseline.load(os.path.join(REPO, "lalint.baseline.json"))
    found = run_rules(Project.load([src]))
    new, _ = baseline.split(found)
    assert new == [], "\n".join(f.render() for f in new)


def test_delegating_drivers_resolve_positions():
    """la_sysv-style helpers are analysed with call-site positions: the
    helper's parameters map to the public driver's 1-based slots."""
    src = os.path.join(REPO, "src", "repro", "core",
                       "linear_equations.py")
    impls = {i.driver: i for i in Project.load([src]).driver_impls()}
    sysv = impls["la_sysv"]
    assert sysv.delegated and sysv.func.name == "_indef_driver"
    assert sysv.posmap == {"a": 1, "b": 2, "uplo": 3, "ipiv": 4}
