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
that holds the true outcome model's parts: the direct slope, the
interference term and the untreated base; oracle_effects evaluates the
dose-mode effects of that truth with uniform weights.  Each generator config
takes one ``seed`` and splits it into four random streams seeded
``10 * seed + k``, k = 0..3.

The outcome spline is a numpy natural cubic spline with the bits of
``scipy.interpolate.CubicSpline``; only its banded solve loads scipy
(``scipy.linalg``).  ``synth_fields`` factors the circulant embedding of its
field kernel once and draws every field from that one spectral root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .effects import EffectReport, dose_inputs, dose_report
from .engine import scipy_linalg
from .errors import (ConfigError, ContractError, DataError, NumericError, check, check_fields,
                     check_sizes)
from .gp import KernelSpec, chol_with_jitter, circulant_root, grid_draw, sample_gp
from .model import SpatialDataset
from .raster import unit_windows


def random_fn(seed: int, in_dim: int):
    """Frozen random MLP (two hidden layers, width 64, ReLU, variance-preserving init)."""
    check("in_dim", in_dim, ContractError)
    rng = np.random.default_rng(seed)
    dims = [in_dim, 64, 64, 1]
    weights = [rng.normal(0.0, 1.0 / math.sqrt(a), (a, b))
               for a, b in zip(dims[:-1], dims[1:])]

    def fn(v: np.ndarray) -> np.ndarray:
        h = np.atleast_2d(np.asarray(v, dtype=np.float64))
        for w in weights[:-1]:
            h = np.maximum(h @ w, 0.0)
        return (h @ weights[-1]).ravel()

    return fn


def _stream_seeds(seed: int) -> tuple[int, int, int, int]:
    """The four stream seeds ``10 * seed + k`` of one generator seed."""
    return tuple(10 * seed + k for k in range(4))


class NaturalSpline:
    """Natural cubic spline through knots ``x`` (strictly increasing) and ``y``.

    It repeats ``scipy.interpolate.CubicSpline(x, y, bc_type="natural")``'s
    arithmetic in the same order, so ``c`` and every value have its bits.
    ``c`` is (4, pieces), the local powers (t - x_j)^3..0 of each piece.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        n = x.size
        dx = np.diff(x)
        slope = np.diff(y) / dx
        # knot derivatives from CubicSpline's banded system; each natural end
        # enters with its zero second derivative written out as CubicSpline does
        ab = np.zeros((3, n))
        ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        ab[0, 2:] = dx[:-1]
        ab[-1, :-2] = dx[1:]
        ab[1, 0], ab[0, 1] = 2 * dx[0], dx[0]
        ab[1, -1], ab[-1, -2] = 2 * dx[-1], dx[-1]
        b = np.empty(n)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        b[0] = -0.5 * 0.0 * dx[0] ** 2 + 3 * (y[1] - y[0])
        b[-1] = 0.5 * 0.0 * dx[-1] ** 2 + 3 * (y[-1] - y[-2])
        s = scipy_linalg().solve_banded((1, 1), ab, b.reshape(n, 1), overwrite_ab=True,
                                        overwrite_b=True, check_finite=False).reshape(n)
        # CubicHermiteSpline's coefficient rows
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    def __call__(self, v) -> np.ndarray:
        """Values at ``v`` in PPoly's order: the end pieces extrapolate, NaN maps to NaN."""
        v = np.asarray(v, dtype=np.float64)
        flat = v.ravel()
        x, c = self.x, self.c
        i = np.clip(np.searchsorted(x, flat, side="right") - 1, 0, x.size - 2)
        s = flat - x[i]
        # PPoly sums from 0.0, constant term first, with z = s, s*s, (s*s)*s
        out = 0.0 + c[3, i]
        out += c[2, i] * s
        z = s * s
        out += c[1, i] * z
        z *= s
        out += c[0, i] * z
        out[np.isnan(flat)] = np.nan
        return out.reshape(v.shape)


def spline_fn(seed: int, domain) -> NaturalSpline:
    """Natural cubic spline through 8 seeded random knots spanning ``domain``."""
    lo, hi = float(domain[0]), float(domain[1])
    with np.errstate(all="ignore"):     # an infinite span makes NaN knots
        knots_x = np.linspace(lo, hi, 8)
        increasing = np.all(np.diff(knots_x) > 0)
    if not increasing:
        raise ContractError(f"domain must be an increasing interval with 8 distinct, "
                            f"finite knots, got ({lo}, {hi})")
    return NaturalSpline(knots_x, np.random.default_rng(seed).normal(0.0, 1.0, 8))


@dataclass
class GroundTruth:
    """True outcome model behind a synthetic dataset.

    ``interference(indices, patches)`` evaluates the true neighborhood term
    for aligned (unit, patch) pairs; ``base`` holds everything that never
    varies under treatment overrides (confounder term + field + noise).  The
    outcomes are ``beta * t + interference(indices, patches) + base[indices]``.
    """

    beta: float
    interference: object
    base: np.ndarray


@dataclass(frozen=True)
class LineGraphConfig:
    n: int = 500
    x_dim: int = 4
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, ConfigError)
        check_sizes(self.array_sizes(vars(self)), ConfigError)

    @staticmethod
    def array_sizes(data) -> tuple:
        """(key, array, element count) of the largest arrays the generator
        allocates for the settings in mapping ``data``."""
        n = data["n"]
        return (("n", "the n x n covariance", n * n),
                ("x_dim", "the n x x_dim confounders", n * data["x_dim"]))


def line_graph_covariance(coords: np.ndarray) -> np.ndarray:
    """Distance-decay covariance of the line generator's positions ``coords``.

    Entries (1/(sigma_d*sqrt(2*pi))) * exp(-|s_i - s_j| / (2*sigma_l^2)) with
    sigma_d = sigma_l = 0.5: the absolute (not squared) distance in the
    exponent is deliberate.
    """
    sigma_d = sigma_l = 0.5
    s = np.asarray(coords, dtype=np.float64).ravel()
    dist = np.abs(s[:, None] - s[None, :])
    pref = 1.0 / (sigma_d * math.sqrt(2.0 * math.pi))
    return pref * np.exp(-dist / (2.0 * sigma_l ** 2))


def gen_line_graph(config: LineGraphConfig):
    """Line of evenly spaced units with 2-neighbor interference."""
    n = config.n
    s = np.linspace(0.0, 1.0, n)
    x_seed, u_seed, net_seed, noise_seed = _stream_seeds(config.seed)
    x = np.random.default_rng(x_seed).normal(0.0, 1.0, (n, config.x_dim))
    cov = line_graph_covariance(s)
    chol, _ = chol_with_jitter(cov, 1e-10)
    u = chol @ np.random.default_rng(u_seed).standard_normal(n)

    beta = float(np.random.default_rng(net_seed).uniform(0.0, 1.0))
    g_fn = random_fn(net_seed + 1, config.x_dim + 1)
    f_t = random_fn(net_seed + 2, 2)
    f_x = random_fn(net_seed + 3, config.x_dim)

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

    noise = np.random.default_rng(noise_seed).normal(
        0.0, config.noise_sigma, n)
    fx_vals = f_x(x)
    base = fx_vals + u + noise
    y = beta * treatments + interference(np.arange(n), patches[:, 0]) + base

    dataset = SpatialDataset(coords=s[:, None], treatments=treatments[:, None],
                             patches=patches, confounders=x, outcomes=y, d_s=3)
    truth = GroundTruth(beta=beta, interference=interference, base=base)
    return dataset, truth


@dataclass(frozen=True)
class GridConfig:
    rows: int = 256
    cols: int = 256
    beta: float = -4.0
    d_s: int = 51
    sigma_l: float = 10.0
    n_units: int = 500
    x_channels: int = 4
    field_lengthscale: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, ConfigError)
        check_sizes(self.array_sizes(vars(self)), ConfigError)

    @staticmethod
    def array_sizes(data) -> tuple:
        """(key, array, element count) of the largest arrays the generator
        allocates for the settings in mapping ``data``."""
        rows, cols = data["rows"], data["cols"]
        return (("rows" if rows >= cols else "cols",
                 "the 2 rows x 2 cols circulant torus", 4 * rows * cols),
                ("x_channels", "the rows x cols x x_channels class scores",
                 rows * cols * data["x_channels"]),
                ("n_units", "the n_units x d_s x d_s unit windows",
                 data["n_units"] * data["d_s"] ** 2))


def grid_weight_matrix(d_s: int, sigma_l: float) -> np.ndarray:
    """Exponential-decay neighborhood weights, zero center, summing to one."""
    check("d_s", d_s, ContractError)
    check("sigma_l", sigma_l, ContractError)
    half = d_s // 2
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    dist = np.hypot(offsets[:, None], offsets[None, :])
    w = np.exp(-dist / sigma_l)
    w[half, half] = 0.0
    total = w.sum()
    if total == 0.0:
        raise NumericError(f"d_s {d_s}, sigma_l {sigma_l}: every neighbour weight is 0, "
                           "so the weights cannot be normalized")
    return w / total


def synth_fields(config: GridConfig):
    """Stand-in treatment and land-class fields from shared latent draws."""
    field_seed = _stream_seeds(config.seed)[0]
    kern = KernelSpec(family="rbf", sigma=1.0,
                      lengthscale=config.field_lengthscale)
    root = circulant_root(config.rows, config.cols, kern, 1.0)

    def field(k):
        """``sample_gp_grid(rows, cols, kern, 1.0, field_seed + k)``, from the shared root."""
        return grid_draw(root, np.random.default_rng(field_seed + k))

    shared = field(0)
    t_field = np.tanh(0.8 * shared + 0.6 * field(1))
    scores = np.stack([shared + field(2 + c) for c in range(config.x_channels)], axis=-1)
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
    _, unit_seed, net_seed, u_seed = _stream_seeds(config.seed)
    flat = np.random.default_rng(unit_seed).choice(
        n_avail, size=config.n_units, replace=False)
    unit_r = flat // valid_c + half
    unit_c = flat % valid_c + half
    coords = np.column_stack([unit_c.astype(np.float64),
                              unit_r.astype(np.float64)])

    patches = unit_windows(treatment_field[None], unit_r, unit_c,
                           (config.d_s, config.d_s))
    patches[:, 0, half, half] = 0.0
    treatments = treatment_field[unit_r, unit_c]
    confounders = confounder_field[unit_r, unit_c, :]

    weights = grid_weight_matrix(config.d_s, config.sigma_l)
    sums = np.tensordot(patches[:, 0], weights, axes=([1, 2], [0, 1]))
    lo = min(float(sums.min()), 0.0)
    hi = max(float(sums.max()), 0.0)
    if hi - lo < 1e-9:
        lo, hi = lo - 0.5, hi + 0.5
    spline = spline_fn(net_seed, (lo, hi))
    f_x = random_fn(net_seed + 1, config.x_channels)

    u = sample_gp(coords, KernelSpec(family="exponential", sigma=1.0, lengthscale=10.0),
                  u_seed)

    def interference(indices, pat):
        pat = np.asarray(pat, dtype=np.float64)
        v = np.tensordot(pat, weights, axes=([1, 2], [0, 1]))
        return spline(v)

    base = f_x(confounders) + u
    y = config.beta * treatments + spline(sums) + base

    dataset = SpatialDataset(coords=coords, treatments=treatments[:, None],
                             patches=patches, confounders=confounders,
                             outcomes=y, d_s=config.d_s)
    truth = GroundTruth(beta=config.beta, interference=interference, base=base)
    return dataset, truth


def oracle_effects(truth: GroundTruth, dataset: SpatialDataset, m: int,
                   t_grid: np.ndarray | None = None,
                   draw_indices: np.ndarray | None = None) -> EffectReport:
    """Dose-mode effects of the true outcome model, with uniform weights.

    Grid and draws default and check as in ``estimate_effects_dose``; the
    truth needs no confounding correction.
    """
    t_grid, draw_indices = dose_inputs(dataset, m, t_grid, draw_indices)
    units = np.arange(dataset.n_units)
    shape = (dataset.n_units,) + dataset.patch_shape
    # one truth call per draw on a broadcast view, never a (draws x units) copy
    cross = np.stack([truth.interference(units, np.broadcast_to(patch, shape))
                      for patch in dataset.patches[draw_indices, m]])
    contrasts = cross - truth.interference(units, np.zeros(shape))[None, :]
    return dose_report(m, truth.beta * t_grid, t_grid, float(contrasts.mean()),
                       weighted=False)
