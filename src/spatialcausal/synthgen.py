"""Synthetic ground-truth generators with Monte-Carlo effect oracles.

Two families.  The line-graph generator places units evenly on [0, 1],
draws an unobserved field from a distance-decay covariance, produces
treatments from a random net over (confounders, field), and composes the
outcome from a linear direct term, a random-net interference term over the
two distance-weighted neighbor treatments, a random-net confounder term,
the field, and Gaussian noise.  The grid generator samples units from the
interior pixels of raster fields, weights the surrounding treatment patch
by a normalized exponential-decay kernel, and passes the weighted sum
through a random natural cubic spline; its unobserved field is an
exponential-kernel draw at the unit coordinates and the outcome is
noiseless.  When no rasters are supplied, stand-in treatment and
land-class fields are synthesized from shared latent grid draws so that
treatment and observed confounders are spatially entangled.

Every generator returns the dataset together with a GroundTruth handle
that can evaluate true potential outcomes under arbitrary treatment and
neighborhood overrides; oracle_effects runs the dose-response estimator
structure against that truth with uniform weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .effects import EffectReport, default_t_grid, dose_draw_indices
from .errors import ConfigError, ContractError, DataError
from .gp import KernelSpec, chol_with_jitter, sample_gp, sample_gp_grid
from .model import SpatialDataset


def random_fn(seed: int, in_dim: int):
    """Frozen random MLP (two hidden layers, width 64, ReLU, variance-preserving init)."""
    if in_dim < 1:
        raise ContractError(f"in_dim must be positive, got {in_dim}")
    rng = np.random.default_rng(seed)
    dims = [in_dim, 64, 64, 1]
    weights = [rng.normal(0.0, 1.0 / math.sqrt(a), (a, b))
               for a, b in zip(dims[:-1], dims[1:])]

    def fn(v: np.ndarray) -> np.ndarray:
        h = np.atleast_2d(np.asarray(v, dtype=np.float64))
        for w in weights[:-1]:
            h = np.maximum(h @ w, 0.0)
        return (h @ weights[-1]).ravel()

    fn.seed = seed
    fn.in_dim = in_dim
    return fn


@dataclass
class SplineFn:
    """Natural cubic spline through seeded random knots."""

    knots_x: np.ndarray
    knots_y: np.ndarray
    _spline: CubicSpline = field(init=False, repr=False)

    def __post_init__(self):
        self._spline = CubicSpline(self.knots_x, self.knots_y, bc_type="natural")

    @property
    def coefficients(self) -> np.ndarray:
        return self._spline.c

    def __call__(self, v) -> np.ndarray:
        return np.asarray(self._spline(np.asarray(v, dtype=np.float64)))

    def derivative(self, v, order: int = 1) -> np.ndarray:
        return np.asarray(self._spline(np.asarray(v, dtype=np.float64), nu=order))


def spline_fn(seed: int, domain) -> SplineFn:
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise ContractError(f"domain must be an increasing interval, got ({lo}, {hi})")
    knots_x = np.linspace(lo, hi, 8)
    knots_y = np.random.default_rng(seed).normal(0.0, 1.0, 8)
    return SplineFn(knots_x=knots_x, knots_y=knots_y)


@dataclass
class GroundTruth:
    """True outcome model behind a synthetic dataset.

    ``interference(indices, patches)`` evaluates the true neighborhood term
    for aligned (unit, patch) pairs; ``base`` holds everything that never
    varies under treatment overrides (confounder term + field + noise).
    """

    beta: float
    interference: object
    confounder_fn: object
    u: np.ndarray
    base: np.ndarray
    treatment_fn: object = None
    spline: SplineFn | None = None

    def potential_outcomes(self, indices, t_values, patches) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        t_values = np.asarray(t_values, dtype=np.float64)
        return (self.beta * t_values
                + self.interference(indices, np.asarray(patches, dtype=np.float64))
                + self.base[indices])

    def potential_outcome(self, index: int, t: float, patch) -> float:
        patch = np.asarray(patch, dtype=np.float64)
        return float(self.potential_outcomes([index], [t], patch[None])[0])


@dataclass
class LineGraphConfig:
    n: int = 500
    x_dim: int = 4
    sigma_x: float = 1.0
    sigma_d: float = 0.5
    sigma_l: float = 0.5
    noise_sigma: float = 0.1
    seed_x: int = 0
    seed_u: int = 1
    seed_nets: int = 2
    seed_noise: int = 3

    def validate(self) -> None:
        if self.n < 3:
            raise ConfigError(f"need at least 3 units on the line, got {self.n}")
        if self.x_dim < 1:
            raise ConfigError(f"x_dim must be positive, got {self.x_dim}")
        for name in ("sigma_x", "sigma_d", "sigma_l"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be nonnegative")


def line_graph_covariance(coords: np.ndarray, sigma_d: float,
                          sigma_l: float) -> np.ndarray:
    """Distance-decay covariance with absolute-distance decay.

    Entries (1/(sigma_d*sqrt(2*pi))) * exp(-|s_i - s_j| / (2*sigma_l^2)):
    the absolute (not squared) distance in the exponent is deliberate.
    """
    s = np.asarray(coords, dtype=np.float64).ravel()
    dist = np.abs(s[:, None] - s[None, :])
    pref = 1.0 / (sigma_d * math.sqrt(2.0 * math.pi))
    return pref * np.exp(-dist / (2.0 * sigma_l ** 2))


def gen_line_graph(config: LineGraphConfig):
    """Line of evenly spaced units with 2-neighbor interference."""
    config.validate()
    n = config.n
    s = np.linspace(0.0, 1.0, n)
    x = np.random.default_rng(config.seed_x).normal(0.0, config.sigma_x,
                                                    (n, config.x_dim))
    cov = line_graph_covariance(s, config.sigma_d, config.sigma_l)
    chol, _ = chol_with_jitter(cov, 1e-10)
    u = chol @ np.random.default_rng(config.seed_u).standard_normal(n)

    beta = float(np.random.default_rng(config.seed_nets).uniform(0.0, 1.0))
    g_fn = random_fn(config.seed_nets + 1, config.x_dim + 1)
    f_t = random_fn(config.seed_nets + 2, 2)
    f_x = random_fn(config.seed_nets + 3, config.x_dim)

    treatments = g_fn(np.column_stack([x, u]))
    patches = np.zeros((n, 1, 3))
    patches[1:, 0, 0] = treatments[:-1]
    patches[:-1, 0, 2] = treatments[1:]
    # per-unit neighbor weights from the covariance row; boundary slots stay 0
    d_left = np.zeros(n)
    d_right = np.zeros(n)
    d_left[1:] = np.diag(cov, -1)
    d_right[:-1] = np.diag(cov, 1)

    def interference(indices, pat):
        pat = np.atleast_2d(pat)
        inputs = np.column_stack([d_left[indices] * pat[:, 0],
                                  d_right[indices] * pat[:, 2]])
        return f_t(inputs)

    noise = np.random.default_rng(config.seed_noise).normal(
        0.0, config.noise_sigma, n)
    fx_vals = f_x(x)
    base = fx_vals + u + noise
    y = beta * treatments + interference(np.arange(n), patches[:, 0]) + base

    dataset = SpatialDataset(coords=s[:, None], treatments=treatments[:, None],
                             patches=patches, confounders=x, outcomes=y, d_s=3)
    truth = GroundTruth(beta=beta, interference=interference, confounder_fn=f_x,
                        u=u, base=base, treatment_fn=g_fn)
    return dataset, truth


@dataclass
class GridConfig:
    rows: int = 256
    cols: int = 256
    beta: float = -4.0
    d_s: int = 51
    sigma_l: float = 10.0
    n_units: int = 500
    x_channels: int = 4
    u_kernel: KernelSpec | None = None
    field_lengthscale: float = 10.0
    seed_fields: int = 0
    seed_units: int = 1
    seed_nets: int = 2
    seed_u: int = 3

    def validate(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"grid must be nonempty, got {self.rows}x{self.cols}")
        if self.d_s < 1 or self.d_s % 2 == 0:
            raise ConfigError(f"d_s must be odd and positive, got {self.d_s}")
        if self.sigma_l <= 0 or self.field_lengthscale <= 0:
            raise ConfigError("length scales must be positive")
        if self.n_units < 1:
            raise ConfigError(f"n_units must be positive, got {self.n_units}")
        if self.x_channels < 2:
            raise ConfigError(f"need at least 2 confounder channels, got {self.x_channels}")
        if self.u_kernel is not None:
            self.u_kernel.validate()


def grid_weight_matrix(d_s: int, sigma_l: float, normalize: bool = True) -> np.ndarray:
    """Exponential-decay neighborhood weights, zero center, optionally sum-one."""
    if d_s < 1 or d_s % 2 == 0:
        raise ContractError(f"d_s must be odd and positive, got {d_s}")
    half = d_s // 2
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    dist = np.hypot(offsets[:, None], offsets[None, :])
    w = np.exp(-dist / sigma_l)
    w[half, half] = 0.0
    if normalize:
        w = w / w.sum()
    return w


def synth_fields(config: GridConfig):
    """Stand-in treatment and land-class fields from shared latent draws."""
    kern = KernelSpec(family="rbf", sigma=1.0,
                      lengthscale=config.field_lengthscale)
    shared = sample_gp_grid(config.rows, config.cols, kern, 1.0,
                            config.seed_fields)
    own = sample_gp_grid(config.rows, config.cols, kern, 1.0,
                         config.seed_fields + 1)
    t_field = np.tanh(0.8 * shared + 0.6 * own)
    scores = np.stack([
        shared + sample_gp_grid(config.rows, config.cols, kern, 1.0,
                                config.seed_fields + 2 + c)
        for c in range(config.x_channels)
    ], axis=-1)
    classes = np.argmax(scores, axis=-1)
    x_field = np.zeros((config.rows, config.cols, config.x_channels))
    rr, cc = np.meshgrid(np.arange(config.rows), np.arange(config.cols),
                         indexing="ij")
    x_field[rr, cc, classes] = 1.0
    return t_field, x_field


def gen_grid(config: GridConfig, treatment_field: np.ndarray | None = None,
             confounder_field: np.ndarray | None = None):
    """Units on interior pixels of raster fields, spline interference truth.

    Supplied fields must be (rows, cols) for treatment and (rows, cols, C)
    for confounders; both default to synthetic stand-ins.
    """
    config.validate()
    rows, cols, half = config.rows, config.cols, config.d_s // 2
    if treatment_field is None or confounder_field is None:
        t_synth, x_synth = synth_fields(config)
        treatment_field = t_synth if treatment_field is None else treatment_field
        confounder_field = x_synth if confounder_field is None else confounder_field
    treatment_field = np.asarray(treatment_field, dtype=np.float64)
    confounder_field = np.asarray(confounder_field, dtype=np.float64)
    if treatment_field.shape != (rows, cols):
        raise DataError(f"treatment field must be {(rows, cols)}, "
                        f"got {treatment_field.shape}")
    if confounder_field.ndim != 3 or confounder_field.shape[:2] != (rows, cols):
        raise DataError(f"confounder field must be ({rows}, {cols}, C), "
                        f"got {confounder_field.shape}")

    valid_r = rows - 2 * half
    valid_c = cols - 2 * half
    if valid_r < 1 or valid_c < 1:
        raise DataError(f"{rows}x{cols} region too small for d_s={config.d_s} patches")
    n_avail = valid_r * valid_c
    if config.n_units > n_avail:
        raise DataError(f"requested {config.n_units} units but only {n_avail} "
                        f"interior pixels fit d_s={config.d_s}")
    flat = np.random.default_rng(config.seed_units).choice(
        n_avail, size=config.n_units, replace=False)
    unit_r = flat // valid_c + half
    unit_c = flat % valid_c + half
    coords = np.column_stack([unit_c.astype(np.float64),
                              unit_r.astype(np.float64)])

    n = config.n_units
    patches = np.zeros((n, 1, config.d_s, config.d_s))
    for i in range(n):
        r, c = unit_r[i], unit_c[i]
        patches[i, 0] = treatment_field[r - half:r + half + 1,
                                        c - half:c + half + 1]
    patches[:, 0, half, half] = 0.0
    treatments = treatment_field[unit_r, unit_c]
    confounders = confounder_field[unit_r, unit_c, :]

    weights = grid_weight_matrix(config.d_s, config.sigma_l)
    sums = np.tensordot(patches[:, 0], weights, axes=([1, 2], [0, 1]))
    lo = min(float(sums.min()), 0.0)
    hi = max(float(sums.max()), 0.0)
    if hi - lo < 1e-9:
        lo, hi = lo - 0.5, hi + 0.5
    spline = spline_fn(config.seed_nets, (lo, hi))
    f_x = random_fn(config.seed_nets + 1, config.x_channels)

    kern = config.u_kernel or KernelSpec(family="exponential", sigma=1.0,
                                         lengthscale=10.0)
    u = sample_gp(coords, kern, config.seed_u)

    def interference(indices, pat):
        pat = np.asarray(pat, dtype=np.float64)
        v = np.tensordot(pat, weights, axes=([1, 2], [0, 1]))
        return spline(v)

    base = f_x(confounders) + u
    y = config.beta * treatments + spline(sums) + base

    dataset = SpatialDataset(coords=coords, treatments=treatments[:, None],
                             patches=patches, confounders=confounders,
                             outcomes=y, d_s=config.d_s)
    truth = GroundTruth(beta=config.beta, interference=interference,
                        confounder_fn=f_x, u=u, base=base, spline=spline)
    return dataset, truth


def oracle_effects(truth: GroundTruth, dataset: SpatialDataset, m: int,
                   t_grid: np.ndarray | None = None, b_draws: int = 32,
                   seed: int = 0,
                   draw_indices: np.ndarray | None = None) -> EffectReport:
    """Dose-response effects computed from the true outcome model.

    Mirrors the fitted-model estimator (same grid, same seeded draws) with
    uniform weights: the truth needs no confounding correction.
    """
    if t_grid is None:
        t_grid = default_t_grid(dataset, m)
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if t_grid.size == 0:
        raise ContractError("empty treatment grid")
    if draw_indices is None:
        draw_indices = dose_draw_indices(dataset.n_units, b_draws, seed)
    else:
        draw_indices = np.asarray(draw_indices, dtype=np.int64)
        if draw_indices.size < 1:
            raise ContractError("need at least 1 neighborhood draw")

    n = dataset.n_units
    b = draw_indices.size
    de_curve = truth.beta * t_grid
    drawn = dataset.patches[draw_indices, m]
    all_idx = np.tile(np.arange(n), b)
    cross = truth.interference(all_idx, np.repeat(drawn, n, axis=0))
    zero_vals = truth.interference(np.arange(n),
                                   np.zeros((n,) + dataset.patch_shape))
    contrasts = cross.reshape(b, n) - zero_vals[None, :]
    ie_value = float(contrasts.mean())
    ie_curve = np.full(t_grid.size, ie_value)
    de = float(np.mean(de_curve))
    ie = float(np.mean(ie_curve))
    te = float(np.mean(de_curve + ie_curve))
    return EffectReport(treatment=m, mode="dose", de=de, ie=ie, te=te,
                        weighted=False, used_gp=False, t_grid=t_grid,
                        de_curve=de_curve, ie_curve=ie_curve,
                        n_draws=int(b))
