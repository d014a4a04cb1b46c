"""The benchmark's tracing hooks still bind to the package's names.

``perfbench/tracing.py`` wraps functions and methods by name; a rename under
``src/`` would break ``perfbench/run.py --trace 1`` without this guard.
"""

import importlib
import os
import sys
import textwrap

import numpy as np
import pytest

from spatialcausal import cli, engine, gp, model

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave perfbench/ untouched
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing")


def test_probe_and_tracer_install_run_and_restore(tracing):
    before = (model.train, model.SpatialModel.__dict__["forward_batch"],
              gp.GpTerm.__dict__["features_np"], gp._features_with_lengthscale_grad,
              engine.Tape.__dict__["backward"], engine.matmul)
    rng = np.random.default_rng(0)
    n = 12
    patches = rng.normal(size=(n, 1, 3))
    patches[:, :, 1] = 0.0
    ds = model.SpatialDataset(rng.uniform(size=(n, 1)), rng.normal(size=(n, 1)), patches,
                              rng.normal(size=(n, 2)), rng.normal(size=n), d_s=3)
    mdl = model.build_model(model.ModelConfig(
        m=1, patch_shape=(3,), x_dim=2, interference="mlp", mlp_width=4, mlp_depth=1,
        gp=True, kernel=gp.KernelSpec("rbf", 1.0, 0.5, 1e-6), q=4,
        train_lengthscale=True), coords=ds.coords)
    patcher = tracing.Patcher()
    probe, tracer = tracing.Probe(), tracing.Tracer()
    try:
        probe.install(patcher)
        tracer.install(patcher)
        tracer.begin_run("guard")
        model.train(mdl, ds, model.TrainConfig(epochs=2, optimizer="adam"), val_dataset=ds)
        metrics = tracing.layer_metrics(tracer)
    finally:
        patcher.restore()
    assert len(probe.trains) == 1 and probe.step_s
    assert metrics["model.forward_batch_calls"] > 0
    assert metrics["engine.gp_features.fwd_calls"] > 0
    assert metrics["engine.tape_nodes"] > 0
    after = (model.train, model.SpatialModel.__dict__["forward_batch"],
             gp.GpTerm.__dict__["features_np"], gp._features_with_lengthscale_grad,
             engine.Tape.__dict__["backward"], engine.matmul)
    assert all(a is b for a, b in zip(before, after))


EFFECTS_INI = textwrap.dedent("""\
    [data]
    generator = line
    n = 40
    x_dim = 2

    [train]
    epochs = 3
    optimizer = adam

    [effects]
    mode = both
    grid_size = 5
    b_draws = 8
    weighted = both
    """)


# weights off: the grid's one-hot confounders would trigger the ridge-refit warning
GRID_INI = EFFECTS_INI.replace("generator = line\nn = 40\nx_dim = 2",
                               "generator = grid\nrows = 32\ncols = 32\nd_s = 3\nn_units = 20"
                               ).replace("weighted = both", "weighted = off")


def _traced(tracing, argv) -> dict:
    """Layer metrics of one ``cli.main(argv)`` call under perfbench's ``Tracer``."""
    patcher, tracer = tracing.Patcher(), tracing.Tracer()
    try:
        tracer.install(patcher)
        tracer.begin_run(argv[0])
        assert cli.main(argv) == 0
        return tracing.layer_metrics(tracer)
    finally:
        patcher.restore()


def _workspace(tmp_path, text):
    ini = tmp_path / "exp.ini"
    ini.write_text(text)
    return str(ini), str(tmp_path / "data"), str(tmp_path / "run")


def _effects_argv(ini, data, run, tmp_path):
    return ["effects", "--config", ini, "--data", data,
            "--ckpt", os.path.join(run, "model.ckpt"), "--out", str(tmp_path / "eff")]


def test_effects_stage_spans_fire(tracing, tmp_path):
    """``effects --ckpt`` still calls every effects-stage name the tracer wraps."""
    ini, data, run = _workspace(tmp_path, EFFECTS_INI)
    assert cli.main(["gen", "--config", ini, "--out", data]) == 0
    assert cli.main(["train", "--config", ini, "--data", data, "--out", run]) == 0
    metrics = _traced(tracing, _effects_argv(ini, data, run, tmp_path))
    for name in ("effects.dose_s", "effects.observed_s", "effects.fit_gps_s",
                 "synthgen.oracle_s"):
        assert metrics[name] > 0, name
    assert metrics["cli.regenerate_truth_calls"] == 1


def test_grid_generation_spans_fire(tracing, tmp_path):
    """Grid ``gen`` and the truth regeneration of ``effects --ckpt`` call ``synth_fields``."""
    ini, data, run = _workspace(tmp_path, GRID_INI)
    gen = _traced(tracing, ["gen", "--config", ini, "--out", data])
    assert gen["synthgen.synth_fields_s"] > 0
    assert cli.main(["train", "--config", ini, "--data", data, "--out", run]) == 0
    effects = _traced(tracing, _effects_argv(ini, data, run, tmp_path))
    assert effects["synthgen.synth_fields_s"] > 0
    assert effects["cli.regenerate_truth_calls"] == 1
