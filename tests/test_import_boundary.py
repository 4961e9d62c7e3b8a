"""The simulator's import graph is one-way: analysis loads the simulator,
never the reverse at module level.

A simulation run imports only the simulator; the static analyzers, the
fault catalogs and the HyCoR backend load on use.  Each check runs in a
fresh interpreter, because this test process has long since imported
everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: What a simulation (a bench worker, an example script) imports.
SIMULATOR_ROOTS = (
    "repro",
    "repro.experiments.common",
    "repro.fleet",
    "repro.traffic",
    "repro.workloads.catalog",
)
#: Packages and modules no nilicon run executes, with their submodules.
LOADED_ON_USE = (
    "repro.analysis",
    "repro.faultinject",
    "repro.fleet.scenarios",
    "repro.experiments.faultcampaign",
    "repro.replication.hycor",
    "repro.sim.ndlog",
)

_PRELUDE = f"""
import importlib, json, sys
for root in {SIMULATOR_ROOTS!r}:
    importlib.import_module(root)
def on_use():
    return sorted(m for m in sys.modules
                  if any(m == p or m.startswith(p + ".") for p in {LOADED_ON_USE!r}))
"""


def _run(body: str) -> dict:
    """Run *body* after importing the simulator roots; it prints one JSON
    object on its last line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", _PRELUDE + body], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.splitlines()[-1])


def test_simulator_imports_no_analyzer_catalog_or_hycor_module():
    assert _run("print(json.dumps({'loaded': on_use()}))") == {"loaded": []}


def test_an_audited_deployment_loads_its_auditor():
    report = _run("""
from repro import ContainerSpec, ProcessSpec, ReplicatedDeployment, World
from repro.replication import NiliconConfig
spec = ContainerSpec(name="svc", ip="10.0.1.10", processes=[ProcessSpec(comm="svc")])
plain = ReplicatedDeployment(World(seed=1), spec)
before = on_use()
audited = ReplicatedDeployment(World(seed=1), spec,
                               config=NiliconConfig.nilicon().with_(audit=True))
print(json.dumps({"plain": plain.auditor is None, "before": before,
                  "auditor": type(audited.auditor).__name__}))
""")
    assert report == {"plain": True, "before": [], "auditor": "StateAuditor"}


def test_a_hycor_deployment_loads_its_backend():
    report = _run("""
from repro import ContainerSpec, ProcessSpec, ReplicatedDeployment, World
from repro.replication import NiliconConfig
spec = ContainerSpec(name="svc", ip="10.0.1.10", processes=[ProcessSpec(comm="svc")])
dep = ReplicatedDeployment(World(seed=1), spec, config=NiliconConfig.hycor())
print(json.dumps({"agents": [type(dep.primary_agent).__name__,
                             type(dep.backup_agent).__name__],
                  "loaded": on_use()}))
""")
    assert report == {
        "agents": ["HycorPrimaryAgent", "HycorBackupAgent"],
        "loaded": ["repro.replication.hycor", "repro.sim.ndlog"],
    }
