"""The runnable scenarios under ``examples/`` still run end to end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_example_script_exits_zero():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    scripts = sorted((ROOT / "examples").glob("*.py"))
    assert scripts
    for script in scripts:
        result = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, (script.name, result.stderr[-2000:])
