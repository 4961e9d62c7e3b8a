"""HostPool slot bookkeeping, pair-link pooling and growth."""

import pytest

from repro.fleet import HostPool, PoolExhausted
from repro.net import World


@pytest.fixture
def pool(world):
    return HostPool(world, 3, slots_per_host=2)


def test_pool_builds_named_hosts(pool):
    assert sorted(pool.hosts) == ["node0", "node1", "node2"]
    assert all(not h.failed for h in pool.alive_hosts())
    assert pool.total_free_slots() == 6


def test_allocate_and_release_track_load(pool):
    pool.allocate("svc0", "primary", pool.host("node0"))
    pool.allocate("svc0", "backup", pool.host("node1"))
    assert pool.load("node0") == 1
    assert pool.free_slots("node1") == 1
    assert pool.allocation("svc0", "primary") == "node0"
    pool.release("svc0", "primary")
    assert pool.load("node0") == 0
    # Releasing an unheld slot is a no-op (idempotent re-drives).
    pool.release("svc0", "primary")


def test_allocate_is_idempotent_for_same_host_only(pool):
    pool.allocate("svc0", "primary", pool.host("node0"))
    pool.allocate("svc0", "primary", pool.host("node0"))  # re-drive: fine
    assert pool.load("node0") == 1
    with pytest.raises(ValueError):
        pool.allocate("svc0", "primary", pool.host("node1"))


def test_allocate_rejects_full_and_failed_hosts(pool):
    pool.allocate("svc0", "primary", pool.host("node0"))
    pool.allocate("svc1", "primary", pool.host("node0"))
    with pytest.raises(PoolExhausted):
        pool.allocate("svc2", "primary", pool.host("node0"))
    pool.host("node1").fail_stop()
    with pytest.raises(PoolExhausted):
        pool.allocate("svc2", "primary", pool.host("node1"))
    assert [h.name for h in pool.alive_hosts()] == ["node0", "node2"]


def test_promote_backup_relabels_without_capacity_change(pool):
    pool.allocate("svc0", "primary", pool.host("node0"))
    pool.allocate("svc0", "backup", pool.host("node1"))
    before = pool.load("node1")
    pool.promote_backup("svc0")
    assert pool.allocation("svc0", "primary") == "node1"
    assert pool.allocation("svc0", "backup") is None
    assert pool.load("node1") == before


def test_commit_role_relabels_migration_slot(pool):
    pool.allocate("svc0", "primary-next", pool.host("node2"))
    pool.commit_role("svc0", "primary-next", "primary")
    assert pool.allocation("svc0", "primary") == "node2"
    assert pool.allocation("svc0", "primary-next") is None


def test_pair_count_counts_directional_pairs(pool):
    pool.allocate("svc0", "primary", pool.host("node0"))
    pool.allocate("svc0", "backup", pool.host("node1"))
    pool.allocate("svc1", "primary", pool.host("node0"))
    pool.allocate("svc1", "backup", pool.host("node1"))
    assert pool.pair_count("node0", "node1") == 2
    assert pool.pair_count("node1", "node0") == 0


def all_pairs(pool):
    """Every directional host pair, indexed vs the reference scan."""
    names = sorted(pool.hosts)
    return {
        (a, b): (pool.pair_count(a, b), pool._pair_count_scan(a, b))
        for a in names for b in names
    }


def test_pair_index_matches_scan_through_every_mutation(pool):
    """The O(1) pair index must agree with the O(allocations) reference
    scan after every kind of slot mutation (the lockstep contract that
    retired the PERF006 full-scan finding)."""
    def check():
        for pair, (indexed, scanned) in all_pairs(pool).items():
            assert indexed == scanned, pair

    pool.allocate("svc0", "primary", pool.host("node0"))
    check()  # half-allocated member forms no pair yet
    pool.allocate("svc0", "backup", pool.host("node1"))
    pool.allocate("svc1", "primary", pool.host("node1"))
    pool.allocate("svc1", "backup", pool.host("node2"))
    check()
    # Failover path: backup slot relabels to primary (pair dissolves).
    pool.promote_backup("svc0")
    check()
    pool.allocate("svc0", "backup", pool.host("node2"))
    check()  # re-protection forms the new node1->node2 pair
    # Migration path: staging role holds no pair until committed.
    pool.release("svc1", "primary")
    pool.allocate("svc1", "primary-next", pool.host("node0"))
    check()
    pool.commit_role("svc1", "primary-next", "primary")
    check()
    pool.release("svc0", "primary")
    pool.release("svc0", "backup")
    check()
    assert pool.pair_count("node1", "node2") == 0


def test_load_index_matches_scan_on_a_campaign_shaped_pool(world):
    """The O(1) occupancy index must agree with the ``_load_scan``
    reference on the fleet campaign's shape (12 members on 6 hosts),
    again after a release and after a failover's ``promote_backup``."""
    pool = HostPool(world, 6, slots_per_host=10)
    names = sorted(pool.hosts)
    for i in range(12):
        pool.allocate(f"m{i:02d}", "primary", pool.host(names[i % 6]))
        pool.allocate(f"m{i:02d}", "backup", pool.host(names[(i + 1) % 6]))

    def check():
        assert [pool.load(n) for n in names] == [pool._load_scan(n) for n in names]

    check()
    assert [pool.load(n) for n in names] == [4] * 6
    pool.release("m03", "primary")
    check()
    pool.promote_backup("m03")
    check()
    assert pool.load("node3") == 3 and pool.load("node4") == 4


def test_channel_between_is_cached_and_symmetric(pool):
    a, b = pool.host("node0"), pool.host("node1")
    channel = pool.channel_between(a, b)
    assert pool.channel_between(b, a) is channel
    assert pool.channel_between(a, pool.host("node2")) is not channel


def test_add_host_grows_pool_and_rejects_duplicates(pool):
    host = pool.add_host()
    assert host.name == "node3"
    assert pool.total_free_slots() == 8
    with pytest.raises(ValueError):
        pool.add_host("node0")


def test_pool_never_checkpointed():
    assert HostPool.__ckpt_ignore__ is True
