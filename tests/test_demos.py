"""The demos and the README quick-start run to completion against the installed
package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spatialcausal

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def _run_python(argv, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    package_root = str(Path(spatialcausal.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root,
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable] + argv, cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", ["01_autodiff_basics", "02_gp_approximation",
                                  "03_line_graph_experiment", "04_grid_experiment",
                                  "05_balancing_weights", "06_raster_pipeline"])
def test_demo_exits_cleanly(name, tmp_path):
    proc = _run_python([str(DEMOS / f"{name}.py")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("raster_demo_*"))


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Quick start\n\n```python\n(.*?)^```", readme,
                      re.MULTILINE | re.DOTALL)
    assert block, "README has no ```python block under ## Quick start"
    proc = _run_python(["-c", block.group(1)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.split()) == 3, proc.stdout
