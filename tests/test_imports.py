"""Import footprint: each path loads only the scipy submodules it runs.

Every check runs in a fresh interpreter, since the test process itself has
long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import spatialcausal

PRINT_SCIPY = ("import json, sys; "
               "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))")


def _scipy_modules_after(snippet: str) -> set:
    env = dict(os.environ)
    package_root = str(Path(spatialcausal.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root,
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", f"{snippet}\n{PRINT_SCIPY}"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _loaded(mods: set, name: str) -> bool:
    return name in mods or any(m.startswith(name + ".") for m in mods)


def test_package_import_loads_no_scipy():
    assert _scipy_modules_after("import spatialcausal") == set()


def test_package_import_loads_every_submodule():
    """The package binds only its submodules, but importing it still loads
    each of them, so ``import spatialcausal`` costs what it always did."""
    _scipy_modules_after(
        "import spatialcausal, sys\n"
        "names = ('cli', 'effects', 'engine', 'errors', 'gp', 'model', 'nets',\n"
        "         'raster', 'synthgen')\n"
        "missing = [n for n in names if 'spatialcausal.' + n not in sys.modules]\n"
        "assert not missing, missing\n"
        "public = sorted(k for k in vars(spatialcausal) if not k.startswith('_'))\n"
        "assert public == sorted(names), public")


def test_package_import_loads_no_thread_pool():
    mods = _scipy_modules_after("import spatialcausal\n"
                                "import sys, threading\n"
                                "assert 'concurrent.futures' not in sys.modules\n"
                                "assert 'multiprocessing' not in sys.modules\n"
                                "assert threading.active_count() == 1")
    assert mods == set()


def test_report_loads_no_scipy(tmp_path):
    (tmp_path / "metrics.json").write_text(json.dumps({"r2_all": 0.5, "mae_all": 0.1}))
    mods = _scipy_modules_after(
        "from spatialcausal import cli\n"
        f"assert cli.main(['report', '--out', {str(tmp_path)!r}]) == 0")
    assert mods == set()


def test_line_model_path_loads_only_linalg():
    mods = _scipy_modules_after(
        "from spatialcausal import gp, model, synthgen\n"
        "ds, _ = synthgen.gen_line_graph(synthgen.LineGraphConfig(n=30))\n"
        "cfg = model.ModelConfig(m=1, patch_shape=ds.patch_shape,\n"
        "                        x_dim=ds.confounders.shape[1], gp=True,\n"
        "                        kernel=gp.KernelSpec('rbf', noise=1e-8), q=5)\n"
        "model.predict(model.build_model(cfg, ds.coords), ds, 0)")
    assert _loaded(mods, "scipy.linalg")
    assert not _loaded(mods, "scipy.spatial")
    assert not _loaded(mods, "scipy.interpolate")


GRID_INI = """\
[data]
generator = grid
rows = 32
cols = 32
d_s = 3
n_units = 20

[train]
epochs = 2

[effects]
grid_size = 5
b_draws = 8
weighted = off
"""


def test_grid_gen_and_truth_regeneration_load_only_linalg(tmp_path):
    """Grid ``gen`` and ``effects --ckpt`` (which regenerates the truth) build
    the outcome spline and the fields without ``scipy.interpolate``."""
    from spatialcausal import cli

    ini, data, fit = tmp_path / "grid.ini", tmp_path / "data", tmp_path / "fit"
    ini.write_text(GRID_INI)
    assert cli.main(["gen", "--config", str(ini), "--out", str(data)]) == 0
    assert cli.main(["train", "--config", str(ini), "--data", str(data),
                     "--out", str(fit)]) == 0
    mods = _scipy_modules_after(
        "from spatialcausal import cli\n"
        f"assert cli.main(['gen', '--config', {str(ini)!r}, "
        f"'--out', {str(tmp_path / 'data2')!r}]) == 0\n"
        f"assert cli.main(['effects', '--config', {str(ini)!r}, "
        f"'--ckpt', {str(fit / 'model.ckpt')!r}, '--data', {str(data)!r}, "
        f"'--out', {str(tmp_path / 'eff')!r}]) == 0")
    assert (tmp_path / "eff" / "errors_unweighted.csv").exists()   # the truth was rebuilt
    assert _loaded(mods, "scipy.linalg")
    for name in ("scipy.interpolate", "scipy.spatial", "scipy.sparse", "scipy.optimize"):
        assert not _loaded(mods, name), name
