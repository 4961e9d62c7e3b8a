"""Named, independently-seeded random streams.

Every stochastic decision in an experiment (request sizes, fault-injection
times, workload keys, ...) draws from a *named stream* so that:

* runs are reproducible from a single experiment seed,
* adding a new consumer of randomness does not perturb existing streams
  (each stream's seed is derived from the registry seed and the stream
  name, not from draw order).

This mirrors standard practice in parallel stochastic simulation (one
independent generator per logical site).

Two hooks support the nondeterminism-provenance analyzer
(:mod:`repro.analysis.ndflow`):

* **Ownership guard** — two unrelated call sites silently sharing one
  stream name couple their draws (each consumer perturbs the other's
  sequence), which is exactly the class of bug that defeats deterministic
  replay.  Call sites may pass ``owner=`` (their module path) to claim a
  name; a second claimant with a different owner raises
  :class:`StreamOwnershipError`.  Names in :data:`STREAM_OWNERS` are
  claimed declaratively and checked even when the call site omits
  ``owner=``.  The guard is opt-in: unclaimed names stay unchecked.

* **Recorder hook** — :meth:`RngRegistry.set_recorder` installs an
  :class:`~repro.sim.ndlog.NDLog` adapter; every subsequent
  :meth:`stream` call returns a wrapper that records draws to (or replays
  them from) the log.  Like the engine's observer slot
  (``Engine._observer``), the recorder is ``None`` by default and costs
  nothing when absent.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any

__all__ = ["RngRegistry", "STREAM_OWNERS", "StreamOwnershipError"]

#: Declarative stream-name ownership: stream name -> owning module.  A
#: name listed here is claimed even when its call site omits ``owner=``,
#: so a new consumer reusing it anywhere else fails fast.  The ndflow
#: NDF005 rule reads this mapping statically to cross-check call sites.
STREAM_OWNERS: dict[str, str] = {
    "fault-injection": "repro.experiments.validation",
}


class StreamOwnershipError(RuntimeError):
    """Two unrelated call sites claimed the same stream name."""


class RngRegistry:
    """Factory for per-name :class:`random.Random` streams."""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}
        self._owners: dict[str, str | None] = {}
        self._recorder: Any = None
        self._wrapped: dict[str, Any] = {}

    def set_recorder(self, recorder: Any) -> None:
        """Install (or with ``None``, remove) an NDLog recorder.  Every
        stream handed out after this call is wrapped via
        ``recorder.wrap(name, rng)``; cached wrappers are dropped so a
        mode change takes effect immediately."""
        self._recorder = recorder
        self._wrapped.clear()

    def stream(self, name: str, owner: str | None = None):
        """Return the stream for *name*, creating it on first use.

        The stream seed is a SHA-256 digest of ``(registry seed, name)`` so
        distinct names yield statistically independent streams.

        *owner* opts into the collision guard: the first claim (explicit
        ``owner=`` or a :data:`STREAM_OWNERS` entry) pins the name, and a
        later claim by a different owner raises
        :class:`StreamOwnershipError`.
        """
        claim = owner or STREAM_OWNERS.get(name)
        if claim is not None:
            prev = self._owners.setdefault(name, claim)
            if prev != claim:
                raise StreamOwnershipError(
                    f"rng stream {name!r} is owned by {prev!r}; a second "
                    f"call site ({claim!r}) reusing it would couple their "
                    f"draw sequences — pick a distinct stream name")
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        if self._recorder is None:
            return rng
        wrapped = self._wrapped.get(name)
        if wrapped is None:
            wrapped = self._recorder.wrap(name, rng)
            self._wrapped[name] = wrapped
        return wrapped

    def spawn(self, name: str) -> "RngRegistry":
        """Derive a child registry (e.g. one per simulated host)."""
        digest = hashlib.sha256(f"{self.seed}:spawn:{name}".encode()).digest()
        return RngRegistry(int.from_bytes(digest[:8], "big"))
