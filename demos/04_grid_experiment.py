"""
Raster-scale interference with a patch CNN
==========================================

Treatment and land-class fields live on a shared raster; each unit's
outcome mixes its own dose with a nonlinear function of the doses in
the surrounding window.  A small CNN reads the window directly.
Deliberately down-sized from the 256x256 acceptance benchmark so it
finishes in a few seconds; expect rougher estimates than at full scale.
"""

import warnings

import numpy as np

from spatialcausal.synthgen import GridConfig, gen_grid, oracle_effects
from spatialcausal.model import ModelConfig, TrainConfig, build_model, train
from spatialcausal.effects import (balancing_weights, default_t_grid,
                                   dose_draw_indices, effect_error,
                                   estimate_effects_dose, fit_gps,
                                   marginal_density)

warnings.filterwarnings("ignore")

cfg = GridConfig(rows=64, cols=64, d_s=9, n_units=200, x_channels=4, seed=2)
ds, truth = gen_grid(cfg)
print(f"raster {cfg.rows}x{cfg.cols}, {ds.n_units} units, {ds.patch_shape} windows")

mc = ModelConfig(m=1, patch_shape=ds.patch_shape, x_dim=4,
                 interference="cnn", confounder="mlp",
                 mlp_width=64, mlp_depth=2, cnn_channels=8, cnn_depth=3,
                 gp=False, seed=0)
model = build_model(mc)
trace = train(model, ds, TrainConfig(epochs=60, lr=0.01, optimizer="adam",
                                     batch_size=100, seed=0))
print(f"training mse {trace[0][1]:.3f} -> {trace[-1][1]:.3f} "
      f"over {len(trace)} epochs")

# dose-response curves against the generator's own ground truth,
# with the same neighborhood draws on both sides
weights = balancing_weights(ds, 0, fit_gps(ds, 0), marginal_density(ds, 0))
t_grid = default_t_grid(ds, 0, 21)
draws = dose_draw_indices(ds.n_units, 64, 0)
oracle = oracle_effects(truth, ds, 0, t_grid=t_grid, draw_indices=draws)
unweighted = estimate_effects_dose(model, ds, 0, t_grid=t_grid, draw_indices=draws)
weighted = estimate_effects_dose(model, ds, 0, weights=weights,
                                 t_grid=t_grid, draw_indices=draws)

print(f"oracle      DE {oracle.de:+.3f}  IE {oracle.ie:+.3f}")
for label, rep in (("unweighted", unweighted), ("weighted", weighted)):
    err = effect_error(rep, oracle)
    print(f"{label:11s} DE {rep.de:+.3f}  IE {rep.ie:+.3f}  "
          f"IE curve error {err['ie_err']:.3f}")

# a few points of the estimated direct dose-response curve
mid = len(t_grid) // 2
for k in (0, mid, len(t_grid) - 1):
    print(f"  t={t_grid[k]:+.2f}  DE(t) est {unweighted.de_curve[k]:+.3f}  "
          f"true {oracle.de_curve[k]:+.3f}")
