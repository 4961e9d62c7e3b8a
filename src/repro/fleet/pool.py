"""Capacity-tracked host pool with shared pair links.

The pool owns the fleet's server hosts.  Each host has a fixed number of
*slots* (container roles it can carry — the primary or backup side of one
member counts as one slot), and the pool records which member role occupies
which host, so placement and re-protection never over-commit a machine.

Pair links are pooled too: :meth:`HostPool.channel_between` provisions one
10 GbE channel per unordered host pair and caches it, so every member
replicating between the same two hosts shares that link — which is exactly
how bandwidth contention arises on real racks (and in the bench sweep:
more containers per pair -> state transfers queue on the shared link ->
later backup acks -> longer output-commit and request latency).
"""

from __future__ import annotations

from repro.net.host import Host
from repro.net.link import Channel
from repro.net.world import World
from repro.sim.access import record_access
from repro.sim.trace import trace

__all__ = ["HostPool", "PoolExhausted"]


class PoolExhausted(RuntimeError):
    """No alive host with a free slot satisfies the request."""


class HostPool:
    """A fixed set of server hosts plus slot bookkeeping."""

    #: Infrastructure inventory; never checkpointed with container state.
    __ckpt_ignore__ = True

    def __init__(
        self,
        world: World,
        n_hosts: int,
        slots_per_host: int = 8,
        name_prefix: str = "node",
    ) -> None:
        self.world = world
        self.engine = world.engine
        self.slots_per_host = slots_per_host
        self.name_prefix = name_prefix
        self.hosts: dict[str, Host] = {}
        #: ``(member_name, role)`` -> host name, role in {"primary", "backup"}.
        self.allocations: dict[tuple[str, str], str] = {}
        #: Maintained per-host occupancy index: host name -> occupied slots.
        #: Kept in lockstep with ``allocations`` at every mutation site so
        #: :meth:`load` is O(1) instead of a scan over every allocation
        #: (the rebalancer queries it per host per tick — the PERF006
        #: finding this index retired; ``_load_scan`` is the reference).
        self._load: dict[str, int] = {}
        #: Maintained pair index: ``(primary_host, backup_host)`` -> member
        #: count.  Same contract as ``_load``: updated at every mutation
        #: site so :meth:`pair_count` is O(1) instead of a scan over every
        #: allocation (placement queries it per candidate host pair — the
        #: PERF006 finding this index retired; ``_pair_count_scan`` is the
        #: reference).
        self._pairs: dict[tuple[str, str], int] = {}
        #: One shared channel per unordered host pair.
        self._channels: dict[frozenset[str], Channel] = {}
        #: Perf-profiler harvest counters (always on).
        self.slot_ops = 0
        self.load_queries = 0
        for _ in range(n_hosts):
            self.add_host()

    # -- inventory ------------------------------------------------------ #
    def add_host(self, name: str | None = None) -> Host:
        """Grow the pool (also how a degraded fleet gets un-stuck)."""
        if name is None:
            name = f"{self.name_prefix}{len(self.hosts)}"
        if name in self.hosts:
            raise ValueError(f"host {name!r} already pooled")
        host = self.world.add_host(name)
        self.hosts[name] = host
        self._load[name] = 0
        record_access(self.engine, self, "pool_slots", "w", key=name,
                      site="pool.add_host")
        trace(self.engine, "fleet", "host_added", host=name)
        return host

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def alive_hosts(self) -> list[Host]:
        return [h for h in self.hosts.values() if not h.failed]

    def load(self, name: str) -> int:  # hot: per-event -- rebalancer + placement query every host per decision
        """Slots occupied on host *name* (O(1) via the maintained index)."""
        self.load_queries += 1
        record_access(self.engine, self, "pool_slots", "r", key=name,
                      site="pool.load")
        return self._load.get(name, 0)

    def _load_scan(self, name: str) -> int:  # hot: exempt -- reference implementation for the equivalence test, never on the hot path
        """Reference implementation of :meth:`load`: the O(allocations)
        scan the index replaced.  Kept for the equivalence test; never on
        the hot path."""
        return sum(1 for host in self.allocations.values() if host == name)

    def free_slots(self, name: str) -> int:
        return self.slots_per_host - self.load(name)

    def total_free_slots(self) -> int:
        return sum(self.free_slots(h.name) for h in self.alive_hosts())

    def pair_count(self, primary_name: str, backup_name: str) -> int:
        """Members already replicating primary->backup over this host pair
        (soft anti-affinity input: one pair failure should not take out
        many members at once).  O(1) via the maintained pair index."""
        return self._pairs.get((primary_name, backup_name), 0)

    def _pair_count_scan(self, primary_name: str, backup_name: str) -> int:  # hot: exempt -- reference implementation for the equivalence test, never on the hot path
        """Reference implementation of :meth:`pair_count`: the
        O(allocations) scan the index replaced.  Kept for the equivalence
        test; never on the hot path."""
        count = 0
        for (member, role), host in self.allocations.items():
            if role != "primary" or host != primary_name:
                continue
            if self.allocations.get((member, "backup")) == backup_name:
                count += 1
        return count

    def _member_pair(self, member: str) -> tuple[str, str] | None:
        """The (primary_host, backup_host) pair *member* currently spans,
        or None while either side is unallocated (staging roles like
        ``primary-next`` do not form a pair until committed)."""
        primary = self.allocations.get((member, "primary"))
        backup = self.allocations.get((member, "backup"))
        if primary is None or backup is None:
            return None
        return (primary, backup)

    def _reindex_pair(self, member: str, before: tuple[str, str] | None) -> None:
        """Move *member*'s contribution in the pair index from *before*
        (its pair prior to a mutation) to its current pair."""
        after = self._member_pair(member)
        if after == before:
            return
        if before is not None:
            remaining = self._pairs[before] - 1
            if remaining:
                self._pairs[before] = remaining
            else:
                del self._pairs[before]
        if after is not None:
            self._pairs[after] = self._pairs.get(after, 0) + 1

    # -- slot bookkeeping ----------------------------------------------- #
    def allocate(self, member: str, role: str, host: Host) -> None:
        key = (member, role)
        if key in self.allocations:
            if self.allocations[key] == host.name:
                return  # idempotent re-drive (controller crash recovery)
            raise ValueError(f"{key} already allocated to {self.allocations[key]}")
        if host.failed:
            raise PoolExhausted(f"host {host.name} is failed")
        if self.free_slots(host.name) <= 0:
            raise PoolExhausted(f"host {host.name} has no free slot")
        record_access(self.engine, self, "pool_slots", "w", key=host.name,
                      site="pool.allocate")
        before = self._member_pair(member)
        self.allocations[key] = host.name
        self._load[host.name] = self._load.get(host.name, 0) + 1
        self._reindex_pair(member, before)
        self.slot_ops += 1
        trace(self.engine, "fleet", "slot_allocated", member=member, role=role,
              host=host.name)

    def release(self, member: str, role: str) -> None:
        before = self._member_pair(member)
        host = self.allocations.pop((member, role), None)
        if host is not None:
            record_access(self.engine, self, "pool_slots", "w", key=host,
                          site="pool.release")
            self._load[host] -= 1
            self._reindex_pair(member, before)
            self.slot_ops += 1
            trace(self.engine, "fleet", "slot_released", member=member,
                  role=role, host=host)

    def promote_backup(self, member: str) -> None:
        """After a failover the old backup host carries the member's new
        primary: re-label its slot instead of releasing + re-allocating
        (which could lose the slot to a concurrent claimant)."""
        before = self._member_pair(member)
        host = self.allocations.pop((member, "backup"))
        record_access(self.engine, self, "pool_slots", "w", key=host,
                      site="pool.promote_backup")
        self.allocations[(member, "primary")] = host
        self._reindex_pair(member, before)
        self.slot_ops += 1  # same host keeps the slot: _load is unchanged
        trace(self.engine, "fleet", "slot_promoted", member=member, host=host)

    def commit_role(self, member: str, from_role: str, to_role: str) -> None:
        """Re-label a held slot (e.g. ``primary-next`` -> ``primary`` at
        migration cutover) without a release/allocate window in which a
        concurrent claimant could steal it."""
        before = self._member_pair(member)
        host = self.allocations.pop((member, from_role))
        record_access(self.engine, self, "pool_slots", "w", key=host,
                      site="pool.commit_role")
        self.allocations[(member, to_role)] = host
        self._reindex_pair(member, before)
        self.slot_ops += 1  # same host keeps the slot: _load is unchanged
        trace(self.engine, "fleet", "slot_committed", member=member,
              role=to_role, host=host)

    def allocation(self, member: str, role: str) -> str | None:
        return self.allocations.get((member, role))

    # -- pair links ----------------------------------------------------- #
    def channel_between(self, a: Host, b: Host) -> Channel:
        """The (shared, cached) replication link between two pool hosts."""
        key = frozenset((a.name, b.name))
        channel = self._channels.get(key)
        if channel is None:
            lo, hi = sorted((a.name, b.name))
            channel = self.world.connect_pair(a, b, logical_name=f"pair:{lo}:{hi}")
            self._channels[key] = channel
        return channel
