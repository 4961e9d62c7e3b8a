"""Tests for the virtual block device and its write hooks."""

import pytest

from repro.kernel.blockdev import N_BLOCKS, BlockDevice
from repro.kernel.errors import FileSystemError


def test_write_read_roundtrip():
    dev = BlockDevice("d0")
    dev.write_block(3, b"blockdata")
    assert dev.read_block(3) == b"blockdata"
    assert dev.read_block(4) == b""


def test_out_of_range_rejected():
    dev = BlockDevice("d0")
    with pytest.raises(FileSystemError):
        dev.write_block(N_BLOCKS, b"x")
    with pytest.raises(FileSystemError):
        dev.read_block(-1)


def test_oversized_write_rejected():
    dev = BlockDevice("d0")
    with pytest.raises(FileSystemError):
        dev.write_block(0, b"x" * 5000)


def test_write_hook_sees_every_write():
    dev = BlockDevice("d0")
    seen = []
    dev.add_write_hook(lambda idx, data: seen.append((idx, data)))
    dev.write_block(1, b"a")
    dev.write_block(2, b"b")
    assert seen == [(1, b"a"), (2, b"b")]
    assert dev.writes == 2


def test_raw_write_bypasses_hooks():
    dev = BlockDevice("d0")
    seen = []
    dev.add_write_hook(lambda idx, data: seen.append(idx))
    dev.write_block_raw(1, b"mirrored")
    assert seen == []
    assert dev.read_block(1) == b"mirrored"


def test_remove_write_hook():
    dev = BlockDevice("d0")
    seen = []
    hook = lambda idx, data: seen.append(idx)  # noqa: E731
    dev.add_write_hook(hook)
    dev.write_block(1, b"a")
    dev.remove_write_hook(hook)
    dev.write_block(2, b"b")
    assert seen == [1]


def test_snapshot_load_and_equality():
    a = BlockDevice("a")
    a.write_block(1, b"one")
    a.write_block(2, b"two")
    b = BlockDevice("b")
    b.load_snapshot(a.snapshot())
    assert a == b
    b.write_block(3, b"extra")
    assert a != b


def test_equality_ignores_empty_blocks():
    a = BlockDevice("a")
    b = BlockDevice("b")
    a.write_block(1, b"")
    assert a == b
