"""XB6-lalint — wall time of a full lalint sweep over the shipped tree.

The interprocedural pass (helper summaries, kernel effect tables, the
shared flow cache, and the concurrency pass's lockset replay) must stay
cheap enough to run on every CI push: one cold end-to-end run — parse,
interpret, all twenty-three rules — is timed and recorded to
BENCH_lalint.json, and the run must finish well under a minute.  The
memo numbers ride along so a regression in summary reuse shows up as a
count, not just as seconds.
"""

import json
import pathlib
import time

REPO = pathlib.Path(__file__).resolve().parents[1]
BENCH_PATH = REPO / "BENCH_lalint.json"
BUDGET_S = 60.0


def test_full_lalint_sweep_fits_the_ci_budget():
    from repro.analysis import Project, run_rules

    start = time.perf_counter()
    project = Project.load([str(REPO / "src" / "repro")])
    loaded = time.perf_counter()
    findings = run_rules(project)
    elapsed = time.perf_counter() - start

    cache = getattr(project, "_laflow_cache", {})
    engine = cache.get("engine")
    conc = getattr(project, "_laconc_cache", {})
    conc_engine = conc.get("engine")
    out = {
        "experiment": "XB6-lalint",
        "description": "One cold lalint sweep of src/repro: parse, "
                       "interpret every driver flow (interprocedural "
                       "summaries + kernel effects + the lockset-"
                       "replaying concurrency pass), run LA001-LA014, "
                       "LA017, LA018 and LA020-LA026.",
        "modules": len(project.modules),
        "driver_flows": len(cache.get("flows", ())),
        "kernel_effects": len(cache.get("effects", ())),
        "helper_summaries_computed":
            engine.computed if engine else None,
        "concurrency_roots": len(conc.get("runs", ())),
        "concurrency_summaries_computed":
            conc_engine.computed if conc_engine else None,
        "findings": len(findings),
        "load_s": round(loaded - start, 4),
        "total_s": round(elapsed, 4),
        "budget_s": BUDGET_S,
    }
    BENCH_PATH.write_text(json.dumps(out, indent=2, sort_keys=True)
                          + "\n")

    assert findings == [], [f.render() for f in findings]
    assert elapsed < BUDGET_S, (
        f"lalint sweep took {elapsed:.1f}s, budget {BUDGET_S}s")
