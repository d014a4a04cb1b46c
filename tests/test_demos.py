"""The quick demos run to completion against the installed package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spatialcausal

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_autodiff_basics", "02_gp_approximation",
                                  "05_balancing_weights", "06_raster_pipeline"])
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    package_root = str(Path(spatialcausal.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root,
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("raster_demo_*"))
