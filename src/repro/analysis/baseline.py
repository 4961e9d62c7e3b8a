"""Finding baselines: freeze known findings so only *new* ones gate CI.

A baseline is a checked-in JSON file of finding *fingerprints*; the one
the repo gates on is ``lint-baseline.json``.  Running ``repro lint``
against a baseline partitions its findings three ways:

* **new** — findings whose fingerprint is absent from (or exceeds its
  allowance in) the baseline.  These fail CI: somebody introduced a gap.
* **baselined** — known findings, reported but non-fatal.  The debt being
  burned down.
* **stale** — baseline entries no findings matched anymore.  The gap was
  fixed; the entry should be deleted (``--update-baseline`` rewrites the
  file).  Stale entries are reported so the baseline cannot silently rot
  into a blanket waiver.

Fingerprints are deliberately **line-free** (``rule_id::path::message``):
editing an unrelated part of a file must not invalidate the baseline, and
a moved-but-unfixed finding must still match.  Identical findings at
several sites in one file share a fingerprint; the baseline stores a count
per fingerprint, so fixing *some* of N duplicates still shrinks the
allowance on the next ``--update-baseline``.

Format (``version`` guards future migrations)::

    {"version": 1, "entries": {"CKPT101::src/repro/kernel/mm.py::...": 1}}
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.analysis.linter import Finding

__all__ = [
    "BaselineError",
    "BaselinedReport",
    "apply_baseline",
    "fingerprint",
    "load_baseline",
    "write_baseline",
]

_FORMAT_VERSION = 1


class BaselineError(ValueError):
    """Raised for unreadable or wrong-format baseline files."""


def fingerprint(finding: Finding) -> str:
    """Stable, line-number-free identity of a finding."""
    return f"{finding.rule_id}::{finding.path}::{finding.message}"


def load_baseline(path: str | Path) -> dict[str, int]:
    """Read a baseline file -> {fingerprint: allowed count}.

    A missing file is an empty baseline (first run bootstraps with
    ``--update-baseline``); a malformed one raises :class:`BaselineError`
    so CI cannot pass on a silently-ignored baseline.
    """
    file = Path(path)
    if not file.exists():
        return {}
    try:
        data = json.loads(file.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BaselineError(f"{file}: unreadable baseline: {exc}") from exc
    if not isinstance(data, dict) or data.get("version") != _FORMAT_VERSION:
        raise BaselineError(
            f"{file}: expected a baseline object with version={_FORMAT_VERSION}"
        )
    entries = data.get("entries")
    if not isinstance(entries, dict) or not all(
        isinstance(k, str) and isinstance(v, int) and v > 0
        for k, v in entries.items()
    ):
        raise BaselineError(f"{file}: 'entries' must map fingerprints to counts > 0")
    return dict(entries)


def write_baseline(
    path: str | Path, findings: Iterable[Finding],
    keep: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Freeze *findings*, plus the *keep* entries of rules the run did not
    select, into a baseline file; returns the entry map."""
    counts = Counter(fingerprint(f) for f in findings) + Counter(keep or {})
    entries = dict(sorted(counts.items()))
    payload = {"version": _FORMAT_VERSION, "entries": entries}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return entries


@dataclass
class BaselinedReport:
    """The three-way partition of a finding list against a baseline."""

    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    #: Fingerprints (with unused allowance) nothing matched anymore.
    stale: list[tuple[str, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """CI gate: no new findings (stale entries warn, they don't fail)."""
        return not self.new


def apply_baseline(
    findings: Sequence[Finding], baseline: dict[str, int]
) -> BaselinedReport:
    """Partition *findings* into new / baselined / stale vs *baseline*.

    With duplicate fingerprints, the first ``allowance`` occurrences (in
    the reporter's deterministic order) are baselined and the rest are
    new — the conservative reading of a shrunk duplicate set.
    """
    report = BaselinedReport()
    used: Counter[str] = Counter()
    for finding in findings:
        fp = fingerprint(finding)
        if used[fp] < baseline.get(fp, 0):
            used[fp] += 1
            report.baselined.append(finding)
        else:
            report.new.append(finding)
    for fp, allowed in sorted(baseline.items()):
        unused = allowed - used[fp]
        if unused > 0:
            report.stale.append((fp, unused))
    return report
