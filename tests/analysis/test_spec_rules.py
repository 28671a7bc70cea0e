"""lalint LA009 (no literal validation ladder inside the driver
shell) and the stale-baseline guard.

LA009 scans every body running inside the driver shell, wherever it
lives, and the helper a body delegates to.  The spec half of the
driver contract is not lint's: the shell checks each body's signature
when it decorates it (``tests/core/test_shell.py``), and the registry
data itself is pinned by ``tests/core/test_specs.py``.
"""

import json
import os

from repro.analysis import Project, run_rules
from repro.analysis.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))

HAND_ROLLED = '''\
from repro.core.shell import driver_shell


@driver_shell("la_gtsv")
def la_gtsv(dl, d, du, b, info=None):
    linfo = 0
    if dl is None:
        linfo = -1
    return b, linfo, None
'''

DELEGATED = '''\
from repro.core.shell import driver_shell
from repro.errors import erinfo


def _solve(a, b, uplo):
    if uplo not in "UL":
        erinfo(-3, "LA_POSV", None)
    return b, 0, None


@driver_shell("la_posv")
def la_posv(a, b, uplo="U", info=None):
    return _solve(a, b, uplo)
'''

OUTSIDE = '''\
def _gtsv_ladder(dl, d, du, b):
    linfo = 0
    if dl is None:
        linfo = -1
    return linfo
'''


def _tree(tmp_path, source):
    p = tmp_path / "solvers.py"
    p.write_text(source, encoding="utf-8")
    return [str(p)]


def _findings(paths, code):
    return [f for f in run_rules(Project.load(paths)) if f.code == code]


class TestLA009:
    def test_hand_rolled_ladder(self, tmp_path):
        found = _findings(_tree(tmp_path, HAND_ROLLED), "LA009")
        assert len(found) == 1
        assert found[0].line == 8
        assert "hand-rolled validation ladder" in found[0].message
        assert "literal code -1" in found[0].message
        assert "validate_args" in found[0].message
        assert found[0].context == "la_gtsv"

    def test_ladder_in_the_delegated_helper(self, tmp_path):
        found = _findings(_tree(tmp_path, DELEGATED), "LA009")
        assert [(f.line, f.context) for f in found] == [(7, "la_posv")]
        assert "literal code -3" in found[0].message

    def test_out_of_scope_tree_is_exempt(self, tmp_path):
        # A ladder outside any shell body is not LA009's: no shell
        # runs a spec's ladder before it.
        assert _findings(_tree(tmp_path, OUTSIDE), "LA009") == []

    def test_shipped_core_is_clean(self):
        src = os.path.join(REPO, "src", "repro", "core")
        assert _findings([src], "LA009") == []


class TestStaleBaseline:
    def _baseline(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"findings": [{
            "code": "LA001",
            "context": "la_gone",
            "fingerprint": "deadbeefdeadbeef",
            "message": "exit path returns without reporting",
            "path": "src/repro/gone.py",
        }]}), encoding="utf-8")
        return str(path)

    def test_stale_entry_fails_the_run(self, tmp_path, capsys):
        mod = tmp_path / "clean.py"
        mod.write_text("x = 1\n", encoding="utf-8")
        rc = main([str(mod), "--baseline", self._baseline(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "stale baseline entry deadbeefdeadbeef" in out

    def test_select_checks_staleness_for_selected_codes(self, tmp_path,
                                                        capsys):
        # A --select run still judges baseline freshness for the rules
        # that actually ran: the stale LA001 entry fails a LA001 run.
        mod = tmp_path / "clean.py"
        mod.write_text("x = 1\n", encoding="utf-8")
        rc = main([str(mod), "--baseline", self._baseline(tmp_path),
                   "--select", "LA001"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "stale baseline entry deadbeefdeadbeef" in out

    def test_select_ignores_staleness_of_unselected_codes(self, tmp_path,
                                                          capsys):
        # ... but an LA005-only run cannot judge the LA001 entry.
        mod = tmp_path / "clean.py"
        mod.write_text("x = 1\n", encoding="utf-8")
        rc = main([str(mod), "--baseline", self._baseline(tmp_path),
                   "--select", "LA005"])
        capsys.readouterr()
        assert rc == 0

    def test_shipped_baseline_has_no_stale_entries(self, capsys):
        src = os.path.join(REPO, "src", "repro")
        baseline = os.path.join(REPO, "lalint.baseline.json")
        rc = main([src, "--baseline", baseline])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "stale" not in out
