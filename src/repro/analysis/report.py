"""Reporters turning :class:`~repro.analysis.linter.Finding` lists into
terminal text or machine-readable JSON.

Both renderings are byte-for-byte deterministic for a given finding list
(findings arrive pre-sorted from the linter), so CI diffs stay stable.
"""

from __future__ import annotations

import json
from typing import Collection, Sequence

from repro.analysis.linter import Finding

__all__ = ["render_json", "render_text"]


def render_text(findings: Sequence[Finding]) -> str:
    """Classic ``path:line:col: RULE message`` lines plus a summary."""
    if not findings:
        return "nlint: no findings"
    lines = [
        f"{f.path}:{f.line}:{f.col}: {f.rule_id} "
        f"{'' if f.severity == 'error' else '[' + f.severity + '] '}{f.message}"
        for f in findings
    ]
    by_rule: dict[str, int] = {}
    for f in findings:
        by_rule[f.rule_id] = by_rule.get(f.rule_id, 0) + 1
    breakdown = ", ".join(f"{rid}={n}" for rid, n in sorted(by_rule.items()))
    errors = sum(1 for f in findings if f.severity == "error")
    lines.append(
        f"nlint: {len(findings)} finding(s), {errors} error(s) ({breakdown})"
    )
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding],
    baselined: Collection[Finding] = (),
    stale: Sequence[tuple[str, int]] = (),
) -> str:
    """JSON document: ``{"count": N, "findings": [...], "stale": [...]}``.
    Each finding carries ``baselined``: whether it is one of *baselined*
    (matched by identity); *stale* lists the baseline's ``(fingerprint,
    unused)`` entries no finding matched."""
    known = {id(f) for f in baselined}
    payload = {
        "count": len(findings),
        "findings": [
            {**f.as_dict(), "baselined": id(f) in known} for f in findings
        ],
        "stale": [{"fingerprint": fp, "unused": n} for fp, n in stale],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
