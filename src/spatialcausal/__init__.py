"""Spatial causal inference with neural outcome models on point-referenced data.

Continuous treatments, local neighborhood interference, and an unobserved
smooth spatial confounder handled by a low-rank GP adjustment.  Submodules:

    engine     reverse-mode autodiff tape over float64 numpy arrays
    nets       MLP / CNN / U-Net builders on engine ops
    gp         kernels, inducing-point feature maps, GP sampling
    model      additive outcome model, training loop, checkpoints
    effects    direct/indirect/total effect estimators, balancing weights
    synthgen   line-graph and raster generators with analytic ground truth
    raster     grid file format, point rasterization, unit extraction
    cli        batch experiment runner
"""

from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    FormatError,
    NumericError,
    SpatialCausalError,
)
from .engine import GradCheckReport, Tape, Tensor, finite_diff_check, op_kinds
from .nets import (
    Network,
    build_cnn,
    build_linear_interference,
    build_mlp,
    build_unet,
)
from .gp import (
    GpTerm,
    KernelSpec,
    build_nystrom,
    chol_with_jitter,
    sample_gp,
    sample_gp_grid,
    select_inducing,
)
from .model import (
    ModelConfig,
    SpatialDataset,
    SpatialModel,
    TrainConfig,
    build_model,
    evaluate,
    load_model,
    predict,
    save_model,
    train,
)
from .effects import (
    BalancingWeights,
    EffectReport,
    GpsModel,
    MarginalDensity,
    balancing_weights,
    default_t_grid,
    dose_draw_indices,
    effect_error,
    estimate_effects_dose,
    estimate_effects_observed,
    fit_gps,
    marginal_density,
    weight_diagnostics,
    write_effects_csv,
)
from .synthgen import (
    GridConfig,
    GroundTruth,
    LineGraphConfig,
    gen_grid,
    gen_line_graph,
    grid_weight_matrix,
    line_graph_covariance,
    oracle_effects,
    random_fn,
    spline_fn,
    synth_fields,
)
from .raster import (
    Grid,
    GridGeometry,
    Manifest,
    NLCD_CODES,
    PointSet,
    extract_units,
    load_grid,
    load_manifest,
    ndvi,
    onehot_landcover,
    rasterize_points,
    save_grid,
    save_manifest,
    split_dataset,
)
from .cli import ExperimentConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "BalancingWeights", "ConfigError", "ContractError",
    "DataError", "DimensionError", "EffectReport", "ExperimentConfig",
    "FormatError", "GpTerm", "GpsModel", "GradCheckReport", "Grid",
    "GridConfig", "GridGeometry", "GroundTruth", "KernelSpec",
    "LineGraphConfig", "Manifest", "MarginalDensity",
    "ModelConfig", "NLCD_CODES", "Network", "NumericError", "PointSet",
    "SpatialCausalError", "SpatialDataset", "SpatialModel", "Tape",
    "Tensor", "TrainConfig", "balancing_weights",
    "build_cnn", "build_linear_interference", "build_mlp", "build_model",
    "build_nystrom", "build_unet", "chol_with_jitter", "default_t_grid",
    "dose_draw_indices", "effect_error", "estimate_effects_dose",
    "estimate_effects_observed", "evaluate",
    "extract_units", "finite_diff_check", "fit_gps", "gen_grid",
    "gen_line_graph", "grid_weight_matrix", "line_graph_covariance",
    "load_config", "load_grid", "load_manifest", "load_model",
    "marginal_density", "ndvi", "onehot_landcover", "op_kinds",
    "oracle_effects", "predict", "random_fn", "rasterize_points",
    "sample_gp", "sample_gp_grid",
    "save_grid", "save_manifest", "save_model", "select_inducing",
    "split_dataset", "spline_fn", "synth_fields", "train",
    "weight_diagnostics", "write_effects_csv",
]
