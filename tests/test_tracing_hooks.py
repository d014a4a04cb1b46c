"""The benchmark's tracing hooks still bind to the package's names.

``perfbench/tracing.py`` wraps functions and methods by name; a rename under
``src/`` would break ``perfbench/run.py --trace 1`` without this guard.
"""

import importlib
import os
import sys

import numpy as np
import pytest

from spatialcausal import engine, gp, model

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
