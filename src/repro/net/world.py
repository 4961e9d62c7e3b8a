"""The experiment world: engine + topology + shared cost model + RNG.

Builds the paper's testbed (§VI): primary and backup hosts joined by a
dedicated 10 GbE channel, a client host, and a 1 GbE bridged client network
that container veths and the client NIC attach to.
"""

from __future__ import annotations

from repro.kernel.costmodel import CostModel
from repro.kernel.netdev import Bridge
from repro.net.host import Host
from repro.net.link import Channel
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

__all__ = ["World", "reset_id_counters"]

#: The client-facing bridged network (§VI: 1 GbE).
CLIENT_BANDWIDTH_BPS = 1_000_000_000
CLIENT_LATENCY_US = 150


class World:
    """Container for everything one experiment run needs."""

    #: Experiment scaffolding (hosts, bridge, channel); outlives failures.
    __ckpt_ignore__ = True

    def __init__(self, seed: int = 1) -> None:
        self.engine = Engine()
        self.costs = CostModel()
        self.rng = RngRegistry(seed)

        #: The client-facing switched network (1 GbE).
        self.bridge = Bridge(
            self.engine,
            name="client-net",
            bandwidth_bps=CLIENT_BANDWIDTH_BPS,
            latency_us=CLIENT_LATENCY_US,
        )

        self.primary = Host(self.engine, self.costs, "primary")
        self.backup = Host(self.engine, self.costs, "backup")
        self.client = Host(self.engine, self.costs, "client")

        #: Dedicated replication link between the pair (10 GbE: a
        #: Channel's figures are the pair link's).
        self.pair_channel = Channel(self.engine, name="pair-10g")
        self.primary.attach_endpoint("pair", self.pair_channel.a, self.pair_channel)
        self.backup.attach_endpoint("pair", self.pair_channel.b, self.pair_channel)

    def run(self, until=None):
        return self.engine.run(until=until)

    @property
    def now(self) -> int:
        return self.engine.now

    def add_host(self, name: str) -> Host:
        """Provision an additional server host (e.g. a replacement backup
        for re-protection after a failover)."""
        return Host(self.engine, self.costs, name)

    def connect_pair(self, a: Host, b: Host, logical_name: str = "pair") -> Channel:
        """Join two hosts with a dedicated replication link (10 GbE)."""
        channel = Channel(self.engine, name=f"{a.name}-{b.name}-10g")
        a.attach_endpoint(logical_name, channel.a, channel)
        b.attach_endpoint(logical_name, channel.b, channel)
        return channel


def reset_id_counters() -> None:
    """Rewind the process-global identity counters to their boot values.

    Pids, tids, inode numbers, namespace ids, MACs, client IPs and TCP
    initial sequence numbers come from module-level counter streams, so a
    second :class:`World` built in the same process hands out larger ids
    than the first.  That is harmless for correctness but
    fatal for replay comparison: serialized checkpoint images embed pids
    and inode numbers as decimal strings, so a counter crossing a digit
    boundary between two same-seed runs changes image byte counts — and
    with them the trace digest.  :func:`repro.experiments.common.open_cell`
    calls it for every cell; call it yourself before building any other
    World whose digest will be compared against another run's (the fleet
    campaign does).  Never call it while another live World is still in
    use.
    """
    import itertools

    from repro.container import runtime as _runtime
    from repro.kernel import fs as _fs
    from repro.kernel import namespaces as _namespaces
    from repro.kernel import task as _task
    from repro.kernel import tcp as _tcp
    from repro.workloads import clients as _clients

    _task._tid_counter = itertools.count(1000)
    _task._pid_counter = itertools.count(100)
    _fs._ino_counter = itertools.count(2)
    _namespaces._ns_ids = itertools.count(0x1000)
    _tcp._initial_seq = itertools.count(10_000, 7_777)
    _runtime._mac_counter = itertools.count(1)
    _clients._client_ips = 0
