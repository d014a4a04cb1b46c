"""
From files to a training-ready dataset
======================================

Round-trip the single-file grid format, derive bands, extract unit
windows around point outcomes, and split for model selection.  Ends by
driving the command-line pipeline end to end in a scratch directory.
"""

import os
import sys
import tempfile

import numpy as np

from spatialcausal import cli
from spatialcausal.raster import (Grid, GridGeometry, Manifest, PointSet,
                                  extract_units, load_grid, ndvi,
                                  onehot_landcover, rasterize_points,
                                  save_grid, split_dataset)

rng = np.random.default_rng(5)

with tempfile.TemporaryDirectory(prefix="raster_demo_") as tmp:
    # grids carry data plus a tiny georeference: origin and pixel size
    t_grid = Grid(data=rng.uniform(-1, 1, size=(20, 20)), resolution=30.0)
    path = os.path.join(tmp, "treatment.grd")
    save_grid(t_grid, path)
    back = load_grid(path)
    print("round trip exact:", bool(np.array_equal(back.data, t_grid.data)))

    # point measurements -> per-pixel means
    pts = PointSet(x=rng.uniform(0, 600, size=50), y=rng.uniform(0, 600, size=50),
                   value=rng.normal(size=50))
    y_grid = rasterize_points(pts, GridGeometry(rows=20, cols=20, resolution=30.0))
    print("pixels with outcomes:", int(np.isfinite(y_grid.data).sum()))

    # derived bands: vegetation index and land-class indicators
    nir = Grid(data=rng.uniform(0, 1, size=(20, 20)), resolution=30.0)
    red = Grid(data=rng.uniform(0, 1, size=(20, 20)), resolution=30.0)
    veg = ndvi(nir, red)
    print("ndvi range:", round(float(np.nanmin(veg.data)), 3),
          "to", round(float(np.nanmax(veg.data)), 3))

    classes = Grid(data=rng.choice([11, 41, 81], size=(20, 20)).astype(np.float64),
                   resolution=30.0)
    x_grid = onehot_landcover(classes)
    print("one-hot channels:", x_grid.channels)

    # one unit per outcome pixel, with a d_s x d_s treatment window;
    # the manifest names the grid files making up one dataset
    x_path = os.path.join(tmp, "landclass.grd")
    y_path = os.path.join(tmp, "outcome.grd")
    save_grid(x_grid, x_path)
    save_grid(y_grid, y_path)
    manifest = Manifest(treatments=(path,), confounder=x_path, outcome=y_path, d_s=5)
    ds = extract_units(manifest)
    print("units:", ds.n_units, "window:", ds.patch_shape,
          "covariates:", ds.confounders.shape[1])

    train_ds, val_ds, test_ds = split_dataset(ds, ratios=(0.6, 0.2, 0.2), seed=0)
    print("split:", train_ds.n_units, val_ds.n_units, test_ds.n_units)

    # the same stages as subcommands: gen -> train -> effects
    ini = os.path.join(tmp, "exp.ini")
    with open(ini, "w") as fh:
        fh.write("""\
[data]
generator = line
n = 60
x_dim = 2

[model]
interference = linear
confounder = linear

[train]
epochs = 12
lr = 0.05
optimizer = adam

[effects]
mode = dose
grid_size = 5
b_draws = 8
""")
    out = os.path.join(tmp, "run")
    for argv in (["gen", "--config", ini, "--out", out],
                 ["train", "--config", ini, "--data", out, "--out", out],
                 ["effects", "--config", ini, "--data", out,
                  "--ckpt", os.path.join(out, "model.ckpt"), "--out", out]):
        status = cli.main(argv)
        if status:
            sys.exit(f"{argv[0]} exited {status}")
    print("pipeline artifacts:", sorted(os.listdir(out)))
