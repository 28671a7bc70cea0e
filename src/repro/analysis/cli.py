"""Command-line front end: ``python -m repro.analysis [paths]``.

Exit status is 0 when every finding is suppressed by the baseline (or
there are none), 1 when new findings exist, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .findings import Baseline, sarif_log
from .model import Project
from .rules import RULES, rule_titles, run_rules

DEFAULT_BASELINE = "lalint.baseline.json"

FORMATS = ("text", "json", "github", "sarif")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="lalint: static checker for the LAPACK90 wrapper "
                    "contract (rules LA001-LA026).")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to analyse "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=FORMATS,
                        default="text", help="output format")
    parser.add_argument("--output", dest="format", choices=FORMATS,
                        help="alias for --format (e.g. --output sarif)")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help=f"baseline file (default: "
                             f"{DEFAULT_BASELINE} when present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--write-baseline", action="store_true",
                        help="accept all current findings into the "
                             "baseline and exit 0")
    parser.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(e.g. LA009,LA018)")
    parser.add_argument("--ignore", default=None, metavar="CODES",
                        help="comma-separated rule codes to skip "
                             "(the complement of --select)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for code, title, _ in RULES:
            print(f"{code}  {title}")
        return 0

    paths = [p for p in args.paths if os.path.exists(p)]
    if not paths:
        print("lalint: no such path(s): "
              + ", ".join(args.paths), file=sys.stderr)
        return 2

    all_codes = {code for code, _, _ in RULES}

    def _codes(raw, flag):
        codes = {c.strip().upper() for c in raw.split(",") if c.strip()}
        unknown = codes - all_codes
        if unknown:
            print(f"lalint: {flag} names unknown rule(s): "
                  + ", ".join(sorted(unknown)), file=sys.stderr)
            return None
        return codes

    selected = all_codes
    if args.select:
        selected = _codes(args.select, "--select")
        if selected is None:
            return 2
    if args.ignore:
        ignored = _codes(args.ignore, "--ignore")
        if ignored is None:
            return 2
        selected = selected - ignored
    restricted = selected != all_codes
    select = selected if restricted else None

    project = Project.load(paths)
    findings = run_rules(project, select=select)

    baseline_path = args.baseline or DEFAULT_BASELINE
    baseline = Baseline()
    if not args.no_baseline and os.path.exists(baseline_path):
        baseline = Baseline.load(baseline_path)

    if args.write_baseline:
        if restricted:
            # A restricted run judged only the selected rules: keep the
            # suppressions of every rule that did not run, or a
            # --select'ed regeneration would silently unsuppress them.
            baseline.entries = {
                fp: entry for fp, entry in baseline.entries.items()
                if entry.get("code") not in selected}
        else:
            baseline = Baseline()
        baseline.absorb(findings)
        baseline.save(baseline_path)
        print(f"lalint: wrote {len(findings)} finding(s) to "
              f"{baseline_path}")
        return 0

    new, suppressed = baseline.split(findings)

    # A baseline entry whose fingerprint no longer matches any current
    # finding is stale — the legacy violation was fixed (or the code
    # deleted) and the suppression must be dropped from the file, or it
    # would silently mask a future regression.  A restricted run
    # (--select/--ignore) can only judge entries for the rules that
    # actually ran; the rest are expected to be unmatched.
    stale = []
    if baseline.entries:
        current = {f.fingerprint for f in findings}
        stale = [entry for fp, entry in sorted(baseline.entries.items())
                 if fp not in current
                 and entry.get("code") in selected]

    if args.format == "json":
        print(json.dumps({
            "findings": [f.to_dict() for f in new],
            "suppressed": len(suppressed),
            "stale_baseline": stale,
        }, indent=2, sort_keys=True))
    elif args.format == "sarif":
        print(json.dumps(sarif_log(new, rule_titles()),
                         indent=2, sort_keys=True))
    elif args.format == "github":
        for f in new:
            print(f.render_github())
        for entry in stale:
            print(f"::error file={args.baseline or DEFAULT_BASELINE}"
                  f",title=stale-baseline::baseline entry "
                  f"{entry['fingerprint']} ({entry.get('code', '?')}) "
                  "matches no current finding")
        if new or stale:
            print(f"lalint: {len(new)} new finding(s), "
                  f"{len(stale)} stale baseline entr(ies)")
    else:
        for f in new:
            print(f.render())
        for entry in stale:
            print(f"lalint: stale baseline entry {entry['fingerprint']}"
                  f" ({entry.get('code', '?')} {entry.get('path', '?')}"
                  f" [{entry.get('context', '')}]) matches no current "
                  "finding; regenerate with --write-baseline")
        note = f" ({len(suppressed)} suppressed by baseline)" \
            if suppressed else ""
        print(f"lalint: {len(new)} finding(s) in "
              f"{len(project.modules)} module(s){note}")
    return 1 if new or stale else 0
