"""The registry, and the ftcov selfcheck's registry <-> hook-site check.

The selfcheck (``FtInventory.site_problems``) is pure on the inventory,
so these cases feed it synthetic point and point-site entries; the
real tree's inventory is checked in ``tests/analysis/test_ftcov.py``.
"""

from repro.analysis.ftcov import FtInventory, FtSite
from repro.faultinject.points import FAULT_POINTS


def _site(kind, name, **kw):
    return FtSite(kind=kind, path="zz.py", line=1, col=0, node=None,
                  name=name, auto="exercised", **kw)


def _selfcheck(registered, hooked):
    inv = FtInventory()
    for name in registered:
        inv.add(_site("point", name))
    for name in hooked:
        inv.add(_site("point-site", name, registered=name in registered))
    return inv.site_problems()


def test_every_declared_point_has_a_hook_site():
    assert _selfcheck(FAULT_POINTS, FAULT_POINTS) == []
    missing = "backup.mid_commit"
    (problem,) = _selfcheck(FAULT_POINTS, set(FAULT_POINTS) - {missing})
    assert f"registered fault point '{missing}'" in problem
    assert "no fault_point() site" in problem


def test_registry_covers_all_roles():
    assert {name.split(".")[0] for name in FAULT_POINTS} == {
        "primary", "backup", "fleet", "hycor",
    }
    assert "primary.post_freeze" in FAULT_POINTS
    assert "backup.mid_recover" in FAULT_POINTS
    assert "fleet.mid_reprotect" in FAULT_POINTS
    assert "hycor.mid_log_ship" in FAULT_POINTS


def test_checker_reports_undeclared_hook_site():
    problems = _selfcheck(FAULT_POINTS, ["primary.no_such_point"])
    assert any("fault_point('primary.no_such_point') is not in the "
               "points.py registry" in p for p in problems)
    # And every declared point is missing from this one-site tree.
    assert sum("no fault_point() site" in p for p in problems) == len(
        FAULT_POINTS)
