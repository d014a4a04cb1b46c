"""Grid I/O, rasterization, vegetation/land-cover encodings, unit extraction.

Grids are float64 rasters with a pixel-aligned geometry and NaN as the one
nodata convention.  The on-disk format is a small purpose-built binary:

    magic "GRD1" | u32 rows | u32 cols | u32 channels
    | f64 origin_x | f64 origin_y | f64 resolution
    | payload: rows*cols*channels little-endian float64,
      channel-major then row-major

Units for model fitting are extracted one per non-NaN outcome pixel whose
neighborhood patch lies fully inside the grid; patches keep raw treatment
values with the center zeroed.  Single-row grids are treated as line data:
patches become 1-d windows, zero-padded at the ends instead of excluded.
"""

from __future__ import annotations

import configparser
import os
import struct
import warnings
from dataclasses import dataclass
from itertools import count, takewhile

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (MAX_ELEMENTS, ConfigError, ContractError, DataError, DimensionError,
                     FormatError, check_fields, check_sizes, parse_value)
from .model import SpatialDataset

_MAGIC = b"GRD1"
_HEADER = struct.Struct("<4sIIIddd")

NLCD_CODES = (11, 21, 22, 23, 24, 31, 41, 42, 43, 52, 71, 81, 82, 90, 95)


@dataclass(frozen=True)
class GridGeometry:
    rows: int
    cols: int
    origin_x: float = 0.0
    origin_y: float = 0.0
    resolution: float = 1.0

    def __post_init__(self):
        check_fields(self, ContractError)


@dataclass
class Grid:
    data: np.ndarray
    origin_x: float = 0.0
    origin_y: float = 0.0
    resolution: float = 1.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim == 2:
            self.data = self.data[None]
        if self.data.ndim != 3:
            raise DimensionError(f"grid data must be (channels, rows, cols), "
                                 f"got shape {self.data.shape}")
        check_fields(self, ContractError)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def rows(self) -> int:
        return self.data.shape[1]

    @property
    def cols(self) -> int:
        return self.data.shape[2]

    @property
    def geometry(self) -> GridGeometry:
        return GridGeometry(self.rows, self.cols, self.origin_x, self.origin_y,
                            self.resolution)


@dataclass
class PointSet:
    x: np.ndarray
    y: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64).ravel()
        self.y = np.asarray(self.y, dtype=np.float64).ravel()
        self.value = np.asarray(self.value, dtype=np.float64).ravel()
        if not (self.x.size == self.y.size == self.value.size):
            raise DimensionError("x, y, value must have equal length")
        for name, arr in (("x", self.x), ("y", self.y), ("value", self.value)):
            if not np.all(np.isfinite(arr)):
                raise DataError(f"non-finite entries in point {name}")


def save_grid(grid: Grid, path: str) -> None:
    header = _HEADER.pack(_MAGIC, grid.rows, grid.cols, grid.channels,
                          grid.origin_x, grid.origin_y, grid.resolution)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(grid.data, dtype="<f8").tobytes())


def load_grid(path: str) -> Grid:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FormatError(f"truncated header: file is {len(blob)} bytes, "
                          f"need {_HEADER.size}")
    magic, rows, cols, channels, ox, oy, res = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r} at offset 0, expected {_MAGIC!r}")
    cells = rows * cols * channels
    if cells == 0 or cells > MAX_ELEMENTS:
        raise FormatError(f"dimension overflow at offset 4: "
                          f"{rows}x{cols}x{channels} cells")
    expected = cells * 8
    payload = len(blob) - _HEADER.size
    if payload != expected:
        raise FormatError(f"payload at offset {_HEADER.size}: expected "
                          f"{expected} bytes, found {payload}")
    data = np.frombuffer(blob, dtype="<f8", count=cells,
                         offset=_HEADER.size).reshape(channels, rows, cols)
    return Grid(data=data.copy(), origin_x=ox, origin_y=oy, resolution=res)


def _check_same_geometry(a: Grid, b: Grid, what: str) -> None:
    if a.geometry != b.geometry:
        raise DimensionError(f"{what}: geometries differ "
                             f"({a.geometry} vs {b.geometry})")


def ndvi(nir: Grid, red: Grid) -> Grid:
    """(NIR - R) / (NIR + R) per pixel; zero-sum pixels become NaN."""
    if nir.channels != 1 or red.channels != 1:
        raise DimensionError("ndvi needs single-channel bands")
    _check_same_geometry(nir, red, "ndvi bands")
    num = nir.data - red.data
    den = nir.data + red.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den == 0.0, np.nan, num / den)
    return Grid(data=out, origin_x=nir.origin_x, origin_y=nir.origin_y,
                resolution=nir.resolution)


def rasterize_points(points: PointSet, geometry: GridGeometry) -> Grid:
    """Pixel mean of the points inside each cell; empty cells are NaN.

    A point lands in pixel floor((coord - origin) / resolution); boundary
    points therefore belong to the higher-index pixel.
    """
    col = np.floor((points.x - geometry.origin_x) / geometry.resolution).astype(np.int64)
    row = np.floor((points.y - geometry.origin_y) / geometry.resolution).astype(np.int64)
    inside = (col >= 0) & (col < geometry.cols) & (row >= 0) & (row < geometry.rows)
    dropped = int(np.count_nonzero(~inside))
    if dropped:
        warnings.warn(f"{dropped} points outside the target extent were dropped")
    flat = row[inside] * geometry.cols + col[inside]
    sums = np.bincount(flat, weights=points.value[inside],
                       minlength=geometry.rows * geometry.cols)
    counts = np.bincount(flat, minlength=geometry.rows * geometry.cols)
    with np.errstate(invalid="ignore"):
        mean = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return Grid(data=mean.reshape(geometry.rows, geometry.cols),
                origin_x=geometry.origin_x, origin_y=geometry.origin_y,
                resolution=geometry.resolution)


def onehot_landcover(class_grid: Grid) -> Grid:
    """One channel per land-cover code, fixed catalog order.

    Unknown finite codes produce an all-zero vector and one warning with
    the count; NaN pixels are nodata and stay all-zero silently.
    """
    if class_grid.channels != 1:
        raise DimensionError("land-cover grid must be single-channel")
    codes = class_grid.data[0]
    out = np.zeros((len(NLCD_CODES), class_grid.rows, class_grid.cols))
    matched = np.zeros(codes.shape, dtype=bool)
    for idx, code in enumerate(NLCD_CODES):
        mask = codes == float(code)
        out[idx][mask] = 1.0
        matched |= mask
    unknown = int(np.count_nonzero(np.isfinite(codes) & ~matched))
    if unknown:
        warnings.warn(f"{unknown} pixels carry unknown land-cover codes")
    return Grid(data=out, origin_x=class_grid.origin_x,
                origin_y=class_grid.origin_y, resolution=class_grid.resolution)


# the train/val/test ratios wherever none are given
SPLIT_RATIOS = (0.6, 0.2, 0.2)


def check_split_ratios(ratios, error=ContractError, label="split_ratios") -> tuple:
    """The train/val/test ratios as 3 floats; raises ``error``, naming ``label``,
    unless they are positive and sum to 1."""
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or not all(r > 0 for r in ratios) \
            or not abs(sum(ratios) - 1.0) <= 1e-9:
        raise error(f"{label}: must be 3 positive values summing to 1, got {ratios}")
    return ratios


@dataclass
class Manifest:
    treatments: tuple
    confounder: str
    outcome: str
    d_s: int
    split_seed: int = 0
    split_ratios: tuple = SPLIT_RATIOS

    def __post_init__(self):
        if not self.treatments:
            raise ConfigError("manifest needs at least one treatment grid")
        check_fields(self, ConfigError)
        self.split_ratios = check_split_ratios(self.split_ratios, ConfigError)


def save_manifest(manifest: Manifest, path: str) -> None:
    cp = configparser.ConfigParser(interpolation=None)
    cp.add_section("manifest")
    for i, p in enumerate(manifest.treatments, start=1):
        cp.set("manifest", f"treatment.{i}", p)
    cp.set("manifest", "confounder", manifest.confounder)
    cp.set("manifest", "outcome", manifest.outcome)
    cp.set("manifest", "d_s", str(manifest.d_s))
    cp.set("manifest", "split.seed", str(manifest.split_seed))
    cp.set("manifest", "split.ratios",
           ",".join(format(r, "g") for r in manifest.split_ratios))
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)


def load_manifest(path: str) -> Manifest:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        found = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise FormatError(f"manifest {path}: {exc}") from None
    if not found:
        raise FormatError(f"cannot read manifest {path}")
    if not cp.has_section("manifest"):
        raise FormatError("manifest file lacks a [manifest] section")
    keys = dict(cp.items("manifest"))
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base, p)

    # treatment.1, treatment.2, ... up to the first missing number
    t_keys = list(takewhile(keys.__contains__, (f"treatment.{i}" for i in count(1))))
    unknown = set(keys) - set(t_keys) - {"confounder", "outcome", "d_s", "split.seed",
                                         "split.ratios"}
    if unknown:
        raise ConfigError(f"unknown manifest keys: {sorted(unknown)}")
    for req in ("treatment.1", "confounder", "outcome", "d_s"):
        if req not in keys:
            raise ConfigError(f"manifest missing required key '{req}'")
    ratios = SPLIT_RATIOS if "split.ratios" not in keys else parse_value(
        "floatlist", keys["split.ratios"], "manifest split.ratios")
    return Manifest(treatments=tuple(resolve(keys[k]) for k in t_keys),
                    confounder=resolve(keys["confounder"]),
                    outcome=resolve(keys["outcome"]),
                    d_s=parse_value("int", keys["d_s"], "manifest d_s"),
                    split_seed=parse_value("int", keys.get("split.seed", "0"),
                                           "manifest split.seed"),
                    split_ratios=ratios)


def unit_windows(stack: np.ndarray, rows, cols, shape) -> np.ndarray:
    """Copies of the ``shape`` windows of ``stack`` (m, R, C) centred on the
    pixels (rows[i], cols[i]), as an (n, m) + shape array.

    Every window must lie inside ``stack``: a negative start index would
    silently wrap around to the far edge.
    """
    view = sliding_window_view(stack, shape, axis=(1, 2)).transpose(1, 2, 0, 3, 4)
    return view[rows - shape[0] // 2, cols - shape[1] // 2]


def extract_units(manifest: Manifest) -> SpatialDataset:
    """The units of the grids a manifest names (see ``units_from_grids``)."""
    return units_from_grids([load_grid(p) for p in manifest.treatments],
                            load_grid(manifest.confounder),
                            load_grid(manifest.outcome), manifest.d_s)


def units_from_grids(t_grids, conf: Grid, out: Grid, d_s: int) -> SpatialDataset:
    """One unit per interior non-NaN outcome pixel with a clean patch.

    Units whose patch would cross the boundary or contains NaN treatments
    are excluded; on single-row grids the patch is a 1-d window zero-padded
    at the ends instead and coordinates carry only the x column.
    """
    if out.channels != 1:
        raise DimensionError("outcome grid must be single-channel")
    for g in t_grids:
        if g.channels != 1:
            raise DimensionError("treatment grids must be single-channel")
        _check_same_geometry(g, out, "treatment vs outcome")
    _check_same_geometry(conf, out, "confounder vs outcome")

    rows, cols = out.rows, out.cols
    half = d_s // 2
    line_mode = rows == 1
    keep = np.isfinite(out.data[0]) & np.all(np.isfinite(conf.data), axis=0)
    if line_mode:
        window, patch_shape, edge, shift = (1, d_s), (d_s,), 0, half
    else:
        if rows < d_s or cols < d_s:
            raise DataError(f"{rows}x{cols} grid too small for d_s={d_s}")
        window, patch_shape, edge, shift = (d_s, d_s), (d_s, d_s), half, 0
    r, c = np.nonzero(keep[edge:rows - edge, edge:cols - edge])
    r, c = r + edge, c + edge
    m, sides = len(t_grids), " x ".join(map(str, patch_shape))
    sizes = [("d_s", f"the {m} x {cols + 2 * half} zero-padded treatment lines",
              m * (cols + 2 * half))] if line_mode else []
    sizes.append(("d_s", f"the {r.size} x {m} x {sides} unit windows",
                  r.size * m * d_s ** len(patch_shape)))
    check_sizes(sizes, DataError)
    stack = np.concatenate([g.data for g in t_grids])
    if line_mode:
        # pixel c sits at column c + half of the zero-padded row
        stack = np.pad(stack, ((0, 0), (0, 0), (half, half)))
    patches = unit_windows(stack, r, c + shift, window)
    # the NaN scan runs before the centre is zeroed: a NaN treatment at the
    # unit's own pixel excludes it too
    clean = np.all(np.isfinite(patches), axis=(1, 2, 3))
    if not clean.any():
        raise DataError("no eligible units: every outcome pixel is missing, "
                        "boundary-adjacent, or has NaN in its patch")
    r, c, patches = r[clean], c[clean], patches[clean]
    patches[:, :, window[0] // 2, half] = 0.0
    # single-row grids get 1-d coords: a constant y column would be collinear
    # with the propensity-design intercept; coordinates that overflow to inf
    # end in SpatialDataset's finiteness check, not in a warning
    with np.errstate(over="ignore"):
        x = out.origin_x + (c + 0.5) * out.resolution
        coords = x[:, None] if line_mode else np.column_stack(
            [x, out.origin_y + (r + 0.5) * out.resolution])
    return SpatialDataset(coords=coords,
                          treatments=np.moveaxis(stack, 0, -1)[r, c + shift],
                          patches=patches.reshape(patches.shape[:2] + patch_shape),
                          confounders=np.moveaxis(conf.data, 0, -1)[r, c],
                          outcomes=out.data[0, r, c], d_s=d_s)


def split_dataset(dataset: SpatialDataset, ratios=SPLIT_RATIOS, seed: int = 0):
    """Seeded partition into train/val/test; rounding remainder goes to train."""
    ratios = check_split_ratios(ratios)
    n = dataset.n_units
    if n < 3:
        raise DataError(f"need at least 3 units to split, have {n}")
    n_val = int(np.floor(ratios[1] * n + 0.5))
    n_test = int(np.floor(ratios[2] * n + 0.5))
    n_train = n - n_val - n_test
    if n_train < 1 or n_val < 1 or n_test < 1:
        raise DataError(f"split sizes ({n_train}, {n_val}, {n_test}) leave an "
                        f"empty partition")
    perm = np.random.default_rng(seed).permutation(n)
    train = dataset.subset(np.sort(perm[:n_train]))
    val = dataset.subset(np.sort(perm[n_train:n_train + n_val]))
    test = dataset.subset(np.sort(perm[n_train + n_val:]))
    return train, val, test
