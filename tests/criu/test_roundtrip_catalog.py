"""Catalog-wide checkpoint round-trip: every workload deep-compares clean.

This is the differential oracle (`repro ckptcov diff`) as a test matrix:
freeze a live catalog workload mid-run, take one full checkpoint, restore
it into the backup host's pristine kernel, and require the inventory-guided
deep comparison to find zero diverging fields.  Any diff here means a
checkpoint path silently loses state — exactly the §IV completeness
property the paper's failover correctness rests on.
"""

import pytest

from repro.analysis.ckptdiff import run_oracle
from repro.analysis.coverage import build_inventory, load_source_set
from repro.workloads.catalog import WORKLOADS


@pytest.fixture(scope="module")
def inventory():
    return build_inventory(load_source_set().inventory)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checkpoint_roundtrip_deep_compare_clean(name, inventory):
    result = run_oracle(name, static_uncovered=set(), inventory=inventory)
    assert result.ok, (
        f"{name}: restored clone diverges from frozen original:\n  "
        + "\n  ".join(str(d) for d in result.diffs)
    )
    assert result.fields_compared > 100, result.fields_compared
    assert result.froze_at_us > 0
