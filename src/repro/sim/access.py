"""Zero-cost shared-state access recording for the race detector.

Protocol code (netbuffer, agents, DRBD, heartbeat...) calls
:func:`record_access` wherever it reads or mutates state that more than one
simulation process can reach.  The call reaches the engine's observer
(:meth:`Observer.on_access <repro.sim.engine.Observer.on_access>`), which
the :class:`repro.analysis.races.RaceDetector` overrides; with no observer
installed it is a single attribute check.

Access kinds
------------

``"w"``
    A write.  Conflicts with any other access ("w", "r" or "r+") to the
    same ``(obj, field, key)`` at the *same timestamp* unless a
    happens-before edge orders the pair.
``"r"``
    A plain read.  Conflicts with same-timestamp writes only.
``"r+"``
    An *ordered read*: besides the same-timestamp checks, the detector
    asserts that some prior write to the same field happens-before this
    read — at any timestamp.  Used for protocol obligations such as "the
    backup's commit of epoch e must happen-before the primary releases
    epoch e's output barrier".  An ``"r+"`` with no prior write at all is
    itself a finding.

The ``field`` argument must be a string literal so the AST coverage check
(:func:`repro.analysis.races.verify_access_coverage`) can see it; dynamic
parts (epoch numbers, page ids) go into ``key``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Hashable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = ["record_access"]


def record_access(
    engine: "Engine",
    obj: Any,
    field: str,
    kind: str,
    key: Hashable = None,
    site: str = "",
) -> None:
    """Report an access to shared simulation state to the race detector.

    * *obj* — the shared object (or a stable string label shared between
      the writer and reader modules, e.g. ``"durable:primary"``).
    * *field* — string-literal name of the logical field.
    * *kind* — ``"w"``, ``"r"`` or ``"r+"`` (see module docstring).
    * *key* — optional hashable discriminator (epoch number, page id) so
      accesses to different epochs of the same structure don't collide.
    * *site* — short code-location label used in findings.

    No-op (one attribute check) when no observer is installed.
    """
    observer = engine._observer
    if observer is not None:
        observer.on_access(obj, field, kind, key, site)
