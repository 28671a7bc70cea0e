"""Baseline mechanics and CLI behaviour of ``python -m repro.analysis``."""

import json
import os

from repro.analysis import Baseline, Project, main, run_rules

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
BAD = os.path.join(FIXTURES, "bad_la005.py")
CLEAN = os.path.join(FIXTURES, "clean_driver.py")


def _run(path):
    return run_rules(Project.load([path]))


def test_baseline_suppresses_absorbed_findings(tmp_path):
    found = _run(BAD)
    assert found
    baseline = Baseline()
    baseline.absorb(found)
    bpath = tmp_path / "baseline.json"
    baseline.save(str(bpath))
    reloaded = Baseline.load(str(bpath))
    new, suppressed = reloaded.split(_run(BAD))
    assert new == []
    assert len(suppressed) == len(found)


def test_fingerprint_is_line_independent():
    found = _run(BAD)
    f = found[0]
    moved = type(f)(code=f.code, message=f.message, path=f.path,
                    line=f.line + 40, col=3, context=f.context)
    assert moved.fingerprint == f.fingerprint


def test_cli_exit_codes(capsys):
    assert main([BAD, "--no-baseline"]) == 1
    assert main([CLEAN, "--no-baseline"]) == 0
    assert main(["/no/such/path"]) == 2
    capsys.readouterr()


def test_cli_json_format(capsys):
    rc = main([BAD, "--no-baseline", "--format=json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["suppressed"] == 0
    assert {f["code"] for f in payload["findings"]} == {"LA005"}
    assert all(f["fingerprint"] for f in payload["findings"])


def test_cli_github_format(capsys):
    rc = main([BAD, "--no-baseline", "--format=github"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "::error file=" in out and "title=LA005" in out


def test_cli_write_baseline_roundtrip(tmp_path, capsys):
    bpath = str(tmp_path / "baseline.json")
    assert main([BAD, "--baseline", bpath, "--write-baseline"]) == 0
    assert main([BAD, "--baseline", bpath]) == 0
    out = capsys.readouterr().out
    assert "suppressed by baseline" in out


def test_cli_select_restricts_rules(capsys):
    rc = main([BAD, "--no-baseline", "--select", "LA007",
               "--format=json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["findings"] == []


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("LA001", "LA005", "LA006", "LA007", "LA008", "LA009",
                 "LA011", "LA012", "LA013", "LA014", "LA018", "LA020",
                 "LA021", "LA022", "LA023", "LA024", "LA025", "LA026"):
        assert code in out
    for retired in ("LA002", "LA003", "LA004", "LA010", "LA015",
                    "LA016", "LA017", "LA019"):
        assert retired not in out


def test_cli_sarif_output_round_trips(capsys):
    rc = main([BAD, "--no-baseline", "--output", "sarif"])
    log = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert log["version"] == "2.1.0"
    (run,) = log["runs"]
    assert run["tool"]["driver"]["name"] == "lalint"
    catalogue = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"LA001", "LA009", "LA018", "LA020"} <= catalogue
    assert run["results"], "expected results for the seeded fixture"
    findings = _run(BAD)
    by_fp = {f.fingerprint: f for f in findings}
    for result in run["results"]:
        assert result["ruleId"] == "LA005"
        assert result["level"] == "error"
        fp = result["partialFingerprints"]["lalint/v1"]
        match = by_fp[fp]
        assert result["message"]["text"] == match.message
        (loc,) = result["locations"]
        region = loc["physicalLocation"]["region"]
        assert region["startLine"] == match.line
        assert region["startColumn"] == match.col + 1
        assert loc["physicalLocation"]["artifactLocation"]["uri"] \
            .startswith("tests/")
    assert len(run["results"]) == len(findings)


def test_cli_sarif_of_a_clean_tree_is_empty_but_valid(capsys):
    rc = main([CLEAN, "--no-baseline", "--format=sarif"])
    log = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert log["runs"][0]["results"] == []


def test_cli_select_minus_ignore_can_run_nothing(capsys):
    # --select X --ignore X leaves an *empty* selection: no rules run
    # and nothing is reported (the empty set must not be mistaken for
    # "run everything").
    rc = main([BAD, "--no-baseline", "--select", "LA005",
               "--ignore", "LA005", "--format=json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["findings"] == []


def test_cli_restricted_run_spares_unselected_baseline_codes(tmp_path,
                                                             capsys):
    # A baseline entry for a flow rule that did not run (here LA018)
    # must never be reported stale by a run restricted to other codes.
    bpath = str(tmp_path / "baseline.json")
    baseline = Baseline()
    baseline.entries["deadbeefdeadbeef"] = {
        "code": "LA018", "context": "la_gesv",
        "fingerprint": "deadbeefdeadbeef",
        "message": "synthetic accepted finding", "path": "x.py"}
    baseline.save(bpath)
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    for code in ("LA001", "LA009", "LA020"):
        assert main([str(clean), "--baseline", bpath,
                     "--select", code]) == 0, code
    # The unrestricted run does judge the entry — and finds it stale.
    assert main([str(clean), "--baseline", bpath]) == 1
    capsys.readouterr()


def test_cli_restricted_write_baseline_keeps_other_codes(tmp_path,
                                                         capsys):
    # Regenerating the baseline under --select only replaces entries
    # for the rules that ran; foreign suppressions survive verbatim.
    bpath = str(tmp_path / "baseline.json")
    baseline = Baseline()
    baseline.entries["deadbeefdeadbeef"] = {
        "code": "LA018", "context": "la_gesv",
        "fingerprint": "deadbeefdeadbeef",
        "message": "synthetic accepted finding", "path": "x.py"}
    baseline.save(bpath)
    assert main([BAD, "--baseline", bpath, "--select", "LA005",
                 "--write-baseline"]) == 0
    rewritten = Baseline.load(bpath)
    codes = {e.get("code") for e in rewritten.entries.values()}
    assert "LA018" in codes and "LA005" in codes
    # An unrestricted regeneration starts from scratch.
    assert main([BAD, "--baseline", bpath, "--write-baseline"]) == 0
    assert {e.get("code")
            for e in Baseline.load(bpath).entries.values()} == {"LA005"}
    capsys.readouterr()


def test_cli_ignore_excludes_rules(capsys):
    # bad_la005.py only violates LA005; ignoring it clears the run.
    assert main([BAD, "--no-baseline", "--ignore", "LA005"]) == 0
    assert main([BAD, "--no-baseline", "--ignore", "LA001"]) == 1
    capsys.readouterr()


def test_cli_ignore_composes_with_select(capsys):
    rc = main([BAD, "--no-baseline", "--select", "LA005,LA007",
               "--ignore", "LA005", "--format=json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["findings"] == []


def test_cli_rejects_unknown_codes(capsys):
    assert main([BAD, "--no-baseline", "--select", "LA999"]) == 2
    assert main([BAD, "--no-baseline", "--ignore", "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err


def test_cli_ignore_skips_staleness_of_ignored_codes(tmp_path, capsys):
    # An --ignore run is restricted: it can only judge baseline entries
    # for codes that ran.  Ignoring LA005 leaves the LA005 entry alone;
    # a full run flags it as stale.
    found = _run(BAD)
    baseline = Baseline()
    baseline.absorb(found)
    bpath = str(tmp_path / "baseline.json")
    baseline.save(bpath)
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    assert main([str(clean), "--baseline", bpath,
                 "--ignore", "LA005"]) == 0
    assert main([str(clean), "--baseline", bpath]) == 1
    capsys.readouterr()
