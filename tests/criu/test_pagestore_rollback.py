"""Checkpoint rollback: abort must restore the last committed state.

The backup rolls the open checkpoint back when a failover interrupts an
in-flight commit; both store implementations must undo partial stores
exactly (overwrites restored, fresh slots cleared, stale copies revived).
"""

import pytest

from repro.criu.pagestore import LinkedListPageStore, RadixTreePageStore
from repro.kernel.costmodel import CostModel


@pytest.fixture(params=[RadixTreePageStore, LinkedListPageStore],
                ids=["radix", "list"])
def store(request):
    return request.param(CostModel())


def commit_pages(store, pages):
    store.begin_checkpoint()
    for pid, idx, content in pages:
        store.store_page(pid, idx, content)
    store.commit_checkpoint()


def test_abort_restores_committed_content(store):
    commit_pages(store, [(1, 0, b"A"), (1, 1, b"B"), (2, 7, b"Z")])
    assert store.checkpoints_taken == 1
    assert not store.checkpoint_open

    store.begin_checkpoint()
    store.store_page(1, 0, b"X")   # overwrite
    store.store_page(1, 2, b"C")   # fresh slot
    store.store_page(2, 7, b"Y")   # overwrite, other pid
    assert store.checkpoint_open
    store.abort_checkpoint()

    assert not store.checkpoint_open
    assert store.checkpoints_taken == 1
    assert store.pages_of(1) == {0: b"A", 1: b"B"}
    assert store.pages_of(2) == {7: b"Z"}
    assert store.lookup(1, 2) is None


def test_abort_of_empty_open_checkpoint(store):
    commit_pages(store, [(1, 0, b"A")])
    store.begin_checkpoint()
    store.abort_checkpoint()
    assert store.checkpoints_taken == 1
    assert store.pages_of(1) == {0: b"A"}


def test_abort_without_open_checkpoint_is_noop(store):
    commit_pages(store, [(1, 0, b"A")])
    store.abort_checkpoint()
    assert store.checkpoints_taken == 1
    assert store.pages_of(1) == {0: b"A"}


def test_commit_clears_undo_so_later_abort_cannot_rewind(store):
    commit_pages(store, [(1, 0, b"A")])
    commit_pages(store, [(1, 0, b"B")])
    store.abort_checkpoint()  # nothing open: must not touch committed state
    assert store.lookup(1, 0) == b"B"
    assert store.checkpoints_taken == 2


def test_repeated_overwrites_in_one_open_checkpoint(store):
    commit_pages(store, [(1, 5, b"old")])
    store.begin_checkpoint()
    store.store_page(1, 5, b"v1")
    store.store_page(1, 5, b"v2")
    store.abort_checkpoint()
    assert store.lookup(1, 5) == b"old"


def test_fresh_slot_stored_twice_aborts_to_empty(store):
    commit_pages(store, [(1, 0, b"A")])
    store.begin_checkpoint()
    store.store_page(3, 9, b"v1")   # fresh slot of an uncommitted pid
    store.store_page(3, 9, b"v2")   # the same fresh slot again
    store.abort_checkpoint()
    assert store.lookup(3, 9) is None
    assert store.pages_of(3) == {}
    assert store.pages_of(1) == {0: b"A"}


def test_mixed_fresh_and_overwrites_on_two_pids_abort_exactly(store):
    commit_pages(store, [(1, 0, b"A"), (1, 600, b"B"), (2, 7, b"Z")])
    commit_pages(store, [(1, 0, b"A2"), (2, 8, b"Y")])
    committed = {pid: store.pages_of(pid) for pid in (1, 2)}

    store.begin_checkpoint()
    for pid, idx, content in [
        (2, 7, b"z1"),          # overwrite
        (1, 1, b"f1"),          # fresh
        (1, 0, b"a3"),          # overwrite of a twice-committed slot
        (2, 1 << 27, b"far"),   # fresh, in a new radix subtree
        (1, 600, b"b2"),        # overwrite
        (2, 7, b"z2"),          # the same overwrite again
        (1, 1, b"f2"),          # the same fresh slot again
    ]:
        store.store_page(pid, idx, content)
    store.abort_checkpoint()

    assert {pid: store.pages_of(pid) for pid in (1, 2)} == committed
    assert committed == {1: {0: b"A2", 600: b"B"}, 2: {7: b"Z", 8: b"Y"}}
    assert store.checkpoints_taken == 2
