"""Tests for address spaces, VMAs and soft-dirty tracking."""

import pytest

from repro.kernel.costmodel import CostModel
from repro.kernel.errors import AddressError
from repro.kernel.mm import AddressSpace, Vma


@pytest.fixture
def mm():
    space = AddressSpace(CostModel(), name="test-mm")
    space.mmap(Vma(start=0, n_pages=100, kind="heap", name="[heap]"))
    return space


def test_write_then_read_roundtrip(mm):
    mm.write(5, b"token-5")
    assert mm.read(5) == b"token-5"


def test_untouched_page_reads_empty(mm):
    assert mm.read(7) == b""


def test_unmapped_access_rejected(mm):
    with pytest.raises(AddressError):
        mm.write(500, b"x")
    with pytest.raises(AddressError):
        mm.read(500)


def test_vma_overlap_rejected(mm):
    with pytest.raises(AddressError):
        mm.mmap(Vma(start=50, n_pages=10))


def test_empty_vma_rejected(mm):
    """A zero-length mapping covers no page; like mmap(2) with length 0,
    it is refused."""
    with pytest.raises(AddressError, match="empty VMA"):
        mm.mmap(Vma(start=200, n_pages=0))
    assert mm.vma_starts == [0]


def test_overlap_error_names_first_overlapped_vma(mm):
    mm.mmap(Vma(start=120, n_pages=10))
    with pytest.raises(AddressError, match=r"\[95,125\) overlaps \[0,100\)"):
        mm.mmap(Vma(start=95, n_pages=30))


def test_munmap_drops_pages(mm):
    vma = mm.mmap(Vma(start=200, n_pages=10))
    mm.write(205, b"gone")
    mm.munmap(vma)
    assert 205 not in mm.pages
    with pytest.raises(AddressError):
        mm.read(205)


def test_munmap_unknown_vma_rejected(mm):
    with pytest.raises(AddressError):
        mm.munmap(Vma(start=900, n_pages=1))


def test_mapped_files_deduplicated():
    space = AddressSpace(CostModel())
    space.mmap(Vma(start=0, n_pages=10, kind="file", file_path="/lib/libc.so"))
    space.mmap(Vma(start=10, n_pages=5, kind="file", file_path="/lib/libc.so"))
    space.mmap(Vma(start=20, n_pages=5, kind="file", file_path="/lib/libm.so"))
    assert space.mapped_files == ["/lib/libc.so", "/lib/libm.so"]


def test_soft_dirty_reports_exact_write_set(mm):
    mm.start_tracking("soft_dirty")
    mm.write(1, b"a")
    mm.write(2, b"b")
    mm.write(1, b"a2")  # rewrite: still one dirty entry
    assert mm.dirty_pages() == (1, 2)


def test_clear_refs_resets_dirty_bits(mm):
    mm.start_tracking("soft_dirty")
    mm.write(3, b"x")
    mm.clear_refs()
    assert mm.dirty_pages() == ()
    mm.write(4, b"y")
    assert mm.dirty_pages() == (4,)


def test_tracking_apis_require_start(mm):
    with pytest.raises(AddressError):
        mm.dirty_pages()
    with pytest.raises(AddressError):
        mm.clear_refs()


def test_first_write_faults_once_per_period(mm):
    costs = mm.costs
    mm.start_tracking("soft_dirty")
    mm.write(1, b"a")
    mm.write(1, b"b")  # rewrite: no second fault
    mm.write(2, b"c")
    assert mm.total_faults == 2
    assert mm.pending_fault_ns == 2 * costs.soft_dirty_fault_ns
    mm.clear_refs()
    mm.write(1, b"d")  # faults again after clear
    assert mm.total_faults == 3


def test_drain_fault_time_keeps_submicrosecond_remainder(mm):
    costs = mm.costs
    mm.start_tracking("soft_dirty")
    n = 7
    for i in range(n):
        mm.write(i, b"x")
    total_ns = n * costs.soft_dirty_fault_ns
    assert mm.drain_fault_time() == total_ns // 1000
    assert mm.pending_fault_ns == total_ns % 1000  # remainder carried over


def test_wrprotect_mode_charges_vm_exit_cost(mm):
    costs = mm.costs
    mm.start_tracking("wrprotect")
    mm.write(1, b"a")
    assert mm.pending_fault_ns == costs.vm_exit_fault_ns
    assert costs.vm_exit_fault_ns > costs.soft_dirty_fault_ns


def test_snapshot_and_restore_roundtrip(mm):
    mm.write(1, b"one")
    mm.write(2, b"two")
    snap = mm.full_snapshot()
    mm.write(1, b"changed")
    mm.restore_pages(snap)
    assert mm.read(1) == b"one"
    assert mm.read(2) == b"two"


def test_restore_empty_token_evicts_page(mm):
    mm.write(9, b"data")
    mm.restore_pages({9: b""})
    assert mm.read(9) == b""
    assert 9 not in mm.pages


def test_snapshot_pages_includes_missing_as_empty(mm):
    mm.write(1, b"x")
    snap = mm.snapshot_pages([1, 2])
    assert snap == {1: b"x", 2: b""}


def test_resident_accounting(mm):
    assert mm.resident_count == 0
    mm.write(1, b"x")
    mm.write(2, b"y")
    assert mm.resident_count == 2
    assert mm.resident_bytes == 2 * 4096


def test_vma_describe_roundtrip():
    vma = Vma(start=10, n_pages=4, prot="r-x", kind="file", file_path="/bin/app", name="text")
    assert Vma.from_description(vma.describe()) == vma
