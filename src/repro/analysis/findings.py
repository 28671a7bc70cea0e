"""Finding objects, fingerprints and the baseline file for ``lalint``.

A :class:`Finding` is one rule violation anchored to a file and line.
Its :attr:`~Finding.fingerprint` deliberately omits line numbers so that
unrelated edits above a legacy violation do not invalidate the committed
baseline; only the rule code, the relative path, the enclosing context
(usually the driver name) and a slug of the message participate.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field

__all__ = ["Finding", "Baseline", "sarif_log"]

_SLUG_RE = re.compile(r"[^a-z0-9]+")


def _slug(text: str) -> str:
    return _SLUG_RE.sub("-", text.lower()).strip("-")


@dataclass(frozen=True)
class Finding:
    """One lalint violation.

    ``context`` names the enclosing definition (driver or module) and is
    part of the stable fingerprint; ``line``/``col`` are display-only.
    """

    code: str          # "LA001" .. "LA026"
    message: str
    path: str          # as given on the command line (often relative)
    line: int
    col: int = 0
    context: str = ""  # enclosing function / module-level marker

    @property
    def fingerprint(self) -> str:
        base = "|".join(
            (self.code, _relpath(self.path), self.context,
             _slug(self.message)))
        return hashlib.sha256(base.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "context": self.context,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        where = f"{self.path}:{self.line}"
        ctx = f" [{self.context}]" if self.context else ""
        return f"{where}: {self.code}{ctx} {self.message}"

    def render_github(self) -> str:
        # GitHub Actions workflow-command annotation format.
        return (f"::error file={self.path},line={self.line},"
                f"title={self.code}::{self.message}")


#: SARIF 2.1.0 schema reference for the emitted log.
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")


def sarif_log(findings, rule_titles: dict) -> dict:
    """A SARIF 2.1.0 log for *findings* (GitHub code-scanning format).

    Fingerprints ride along as ``partialFingerprints`` so code-scanning
    result identity matches the lalint baseline identity: line motion
    does not resurrect a dismissed alert.
    """
    results = []
    for f in findings:
        results.append({
            "ruleId": f.code,
            "level": "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": _relpath(f.path)},
                    "region": {"startLine": max(1, f.line),
                               "startColumn": f.col + 1},
                },
            }],
            "partialFingerprints": {"lalint/v1": f.fingerprint},
        })
    return {
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "lalint",
                "rules": [{"id": code,
                           "shortDescription": {"text": title}}
                          for code, title in sorted(rule_titles.items())],
            }},
            "results": results,
        }],
    }


def _relpath(path: str) -> str:
    """Normalise to a stable repo-relative posix path for fingerprints."""
    p = path.replace(os.sep, "/")
    for marker in ("src/repro/", "tests/"):
        idx = p.find(marker)
        if idx >= 0:
            return p[idx:]
    return p.lstrip("./")


@dataclass
class Baseline:
    """Accepted legacy findings, stored as a sorted JSON list of entries.

    Each entry keeps a human-readable echo of the finding next to the
    fingerprint so reviews of the baseline file stay meaningful.
    """

    entries: dict = field(default_factory=dict)  # fingerprint -> echo

    @classmethod
    def load(cls, path: str) -> "Baseline":
        if not os.path.exists(path):
            return cls()
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        entries = {e["fingerprint"]: e for e in data.get("findings", [])}
        return cls(entries)

    def save(self, path: str) -> None:
        payload = {
            "comment": "lalint baseline: accepted legacy findings. "
                       "Regenerate with --write-baseline.",
            "findings": sorted(self.entries.values(),
                               key=lambda e: (e.get("code", ""),
                                              e.get("path", ""),
                                              e["fingerprint"])),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def absorb(self, findings) -> None:
        for f in findings:
            d = f.to_dict()
            d.pop("line", None)
            d.pop("col", None)
            self.entries[f.fingerprint] = d

    def suppresses(self, finding: Finding) -> bool:
        return finding.fingerprint in self.entries

    def split(self, findings):
        """Partition into (new, suppressed) lists."""
        new, suppressed = [], []
        for f in findings:
            (suppressed if self.suppresses(f) else new).append(f)
        return new, suppressed
