"""Spatial causal inference with neural outcome models on point-referenced data.

Continuous treatments, local neighborhood interference, and an unobserved
smooth spatial confounder handled by a low-rank GP adjustment.  Public names
live in the submodules, and are imported from there:

    engine     reverse-mode autodiff tape over float64 numpy arrays
    nets       MLP / CNN / U-Net builders on engine ops
    gp         kernels, inducing-point feature maps, GP sampling
    model      additive outcome model, training loop, checkpoints
    effects    direct/indirect/total effect estimators, balancing weights
    synthgen   line-graph and raster generators with analytic ground truth
    raster     grid file format, point rasterization, unit extraction
    errors     exception hierarchy, setting domains, the array size cap
    cli        batch experiment runner
"""

from . import cli, effects, engine, errors, gp, model, nets, raster, synthgen

__version__ = "0.1.0"
