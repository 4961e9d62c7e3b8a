"""Tests for the per-page digest cache (statecache.PageDigestCache).

Unit tests drive the cache with fake images/processes to pin the contract
— it hashes exactly the dirty (in-image) pages, counts the clean
remainder as cache hits and keeps no CRC past the call — and the
end-to-end test asserts the backup verifies every transfer of a live
deployment with zero mismatches.
"""

import zlib
from types import SimpleNamespace

from repro.kernel.costmodel import PAGE_SIZE
from repro.replication.statecache import PageDigestCache, verify_page_digests
from repro.sim.units import ms

from .conftest import make_deployment


def fake_image(page_map):
    """``{pid: {idx: content}}`` -> an object shaped like CheckpointImage."""
    return SimpleNamespace(processes=[
        SimpleNamespace(pid=pid, pages=dict(pages))
        for pid, pages in sorted(page_map.items())
    ])


def fake_processes(page_map):
    """``{pid: {idx: content}}`` -> objects shaped like kernel processes."""
    return [
        SimpleNamespace(pid=pid, mm=SimpleNamespace(pages=dict(pages)))
        for pid, pages in sorted(page_map.items())
    ]


def test_optimized_mode_hashes_only_image_pages():
    cache = PageDigestCache()
    resident = {7: {0: b"aaaa", 1: b"bbbb", 2: b"cccc", 3: b"dddd"}}
    dirty = {7: {1: b"bbbb", 3: b"dddd"}}
    digests = cache.digest_image(fake_image(dirty), fake_processes(resident))
    assert digests == {
        7: {1: zlib.crc32(b"bbbb"), 3: zlib.crc32(b"dddd")},
    }
    assert cache.pages_digested == 2
    # The two clean resident pages were served without hashing.
    assert cache.cache_hits == 2


def test_optimized_mode_never_rehashes_clean_pages():
    cache = PageDigestCache()
    resident = {7: {0: b"aaaa", 1: b"bbbb"}}
    # Epoch 1: both pages dirty.
    cache.digest_image(fake_image(resident), fake_processes(resident))
    # Epoch 2: only page 1 dirty — the transfer carries page 1's digest
    # freshly and page 0, clean, is neither shipped nor re-hashed.
    second = cache.digest_image(
        fake_image({7: {1: b"b2b2"}}), fake_processes(resident)
    )
    assert second == {7: {1: zlib.crc32(b"b2b2")}}
    assert cache.pages_digested == 3  # 2 + 1, page 0 never re-hashed
    assert cache.generation == 2


def test_digests_cover_multiple_processes():
    cache = PageDigestCache()
    dirty = {1: {0: b"p1"}, 2: {0: b"p2", 5: b"p2x"}}
    digests = cache.digest_image(fake_image(dirty), fake_processes(dirty))
    assert digests == {
        1: {0: zlib.crc32(b"p1")},
        2: {0: zlib.crc32(b"p2"), 5: zlib.crc32(b"p2x")},
    }


def test_digest_calls_keep_no_per_page_state_on_the_cache():
    cache = PageDigestCache()
    before = dict(vars(cache))
    resident = {7: {0: b"aaaa", 1: b"bbbb", 2: b"cccc"}, 8: {4: b"eeee"}}
    cache.digest_image(fake_image(resident), fake_processes(resident))
    cache.digest_image(
        fake_image({7: {1: b"b2b2"}}), fake_processes(resident)
    )
    after = vars(cache)
    # Only the counters and the generation moved; every attribute is a
    # scalar, so no container can be pinning a digest per page.
    assert after.keys() == before.keys()
    changed = {name for name in after if after[name] != before[name]}
    assert changed == {
        "generation", "pages_digested", "bytes_hashed", "cache_hits",
    }
    assert all(isinstance(value, int) for value in after.values())
    assert (cache.generation, cache.pages_digested, cache.cache_hits) == (2, 5, 3)
    assert cache.bytes_hashed == 5 * PAGE_SIZE


def test_verify_page_digests_intact_and_corrupted():
    cache = PageDigestCache()
    dirty = {7: {0: b"aaaa", 1: b"bbbb"}}
    image = fake_image(dirty)
    digests = cache.digest_image(image, fake_processes(dirty))
    assert verify_page_digests(image, digests) == 0

    corrupted = fake_image({7: {0: b"aaaa", 1: b"XXXX"}})
    assert verify_page_digests(corrupted, digests) == 1
    # Pages the primary sent no digest for are not checkable.
    assert verify_page_digests(fake_image({7: {9: b"zz"}}), digests) == 0


def _populate(deployment, n_pages=100):
    proc = deployment.container.processes[0]
    heap = deployment.container.heap_vma
    for i in range(n_pages):
        proc.mm.write(heap.start + i, b"seed")


def test_backup_verifies_live_deployment_transfers(world):
    deployment = make_deployment(world)
    _populate(deployment)
    deployment.start()
    world.run(until=ms(500))
    deployment.stop()
    backup = deployment.backup_agent
    assert backup.digests_verified > 0
    assert backup.digest_mismatches == 0
    assert deployment.primary_agent.digest_cache.pages_digested > 0
