import inspect
import os
import re
import struct

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from spatialcausal import errors
from spatialcausal.errors import (
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    FormatError,
)
from spatialcausal.model import SpatialDataset
from spatialcausal.raster import (
    NLCD_CODES,
    SPLIT_RATIOS,
    Grid,
    GridGeometry,
    Manifest,
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


class TestGridIO:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(0.0, 1.0, (3, 64, 64))
        data[0, 5, 7] = np.nan
        grid = Grid(data=data, origin_x=-12.5, origin_y=40.0, resolution=0.25)
        path = str(tmp_path / "g.grd")
        save_grid(grid, path)
        back = load_grid(path)
        assert back.data.tobytes() == grid.data.tobytes()
        assert (back.origin_x, back.origin_y, back.resolution) == (-12.5, 40.0, 0.25)

    def test_single_pixel(self, tmp_path):
        path = str(tmp_path / "p.grd")
        save_grid(Grid(data=np.array([[7.0]])), path)
        assert load_grid(path).data[0, 0, 0] == 7.0

    def test_header_and_payload_layout(self, tmp_path):
        grid = Grid(data=np.array([[1.0, 2.0], [3.0, 4.0]]))
        path = str(tmp_path / "h.grd")
        save_grid(grid, path)
        blob = open(path, "rb").read()
        assert blob[:4] == b"GRD1"
        rows, cols, channels = struct.unpack_from("<III", blob, 4)
        assert (rows, cols, channels) == (2, 2, 1)
        assert blob[40:] == np.array([1.0, 2.0, 3.0, 4.0], dtype="<f8").tobytes()
        assert len(blob) == 40 + 32

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.grd")
        save_grid(Grid(data=np.ones((2, 2))), path)
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"NOPE"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(FormatError, match="offset 0"):
            load_grid(path)

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "t.grd")
        save_grid(Grid(data=np.ones((4, 4))), path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-8])
        with pytest.raises(FormatError, match="offset 40"):
            load_grid(path)

    def test_truncated_header(self, tmp_path):
        path = str(tmp_path / "th.grd")
        open(path, "wb").write(b"GRD1\x01")
        with pytest.raises(FormatError, match="truncated header"):
            load_grid(path)

    def test_dimension_overflow(self, tmp_path):
        path = str(tmp_path / "o.grd")
        header = struct.pack("<4sIIIddd", b"GRD1", 2 ** 20, 2 ** 20, 4,
                             0.0, 0.0, 1.0)
        open(path, "wb").write(header)
        with pytest.raises(FormatError, match="overflow"):
            load_grid(path)

    def test_bad_resolution_rejected(self):
        with pytest.raises(ContractError):
            Grid(data=np.ones((2, 2)), resolution=0.0)

    @pytest.mark.parametrize("res", [np.nan, np.inf, -1.0])
    def test_nonfinite_or_negative_resolution_rejected(self, res):
        with pytest.raises(ContractError, match="resolution: must be"):
            Grid(data=np.ones((2, 2)), resolution=res)
        with pytest.raises(ContractError, match="resolution: must be"):
            GridGeometry(rows=2, cols=2, resolution=res)


class TestNdvi:
    def geometry_pair(self, nir_vals, red_vals):
        return (Grid(data=np.array([nir_vals])),
                Grid(data=np.array([red_vals])))

    def test_equal_bands_give_zero(self):
        nir, red = self.geometry_pair([[0.3, 0.7]], [[0.3, 0.7]])
        assert_array_equal(ndvi(nir, red).data[0], [[0.0, 0.0]])

    def test_arithmetic(self):
        nir, red = self.geometry_pair([[0.8]], [[0.2]])
        assert ndvi(nir, red).data[0, 0, 0] == pytest.approx(0.6)

    def test_zero_sum_is_nan(self):
        nir, red = self.geometry_pair([[0.0]], [[0.0]])
        assert np.isnan(ndvi(nir, red).data[0, 0, 0])

    def test_geometry_mismatch(self):
        nir = Grid(data=np.ones((2, 2)))
        red = Grid(data=np.ones((2, 2)), resolution=2.0)
        with pytest.raises(DimensionError):
            ndvi(nir, red)


class TestRasterize:
    def test_pixel_mean(self):
        pts = PointSet(x=[0.5, 0.6], y=[0.5, 0.4], value=[10.0, 20.0])
        grid = rasterize_points(pts, GridGeometry(rows=2, cols=2))
        assert grid.data[0, 0, 0] == 15.0

    def test_empty_pixels_nan(self):
        pts = PointSet(x=[0.5], y=[0.5], value=[1.0])
        grid = rasterize_points(pts, GridGeometry(rows=2, cols=2))
        assert np.isnan(grid.data[0, 1, 1])

    def test_boundary_goes_to_higher_pixel(self):
        # x = 1.0 with resolution 1: floor((1.0 - 0) / 1) = column 1
        pts = PointSet(x=[1.0], y=[0.5], value=[5.0])
        grid = rasterize_points(pts, GridGeometry(rows=1, cols=2))
        assert np.isnan(grid.data[0, 0, 0])
        assert grid.data[0, 0, 1] == 5.0

    def test_out_of_extent_warns(self):
        pts = PointSet(x=[0.5, -3.0, 9.0], y=[0.5, 0.5, 0.5],
                       value=[1.0, 2.0, 3.0])
        with pytest.warns(UserWarning, match="2 points outside"):
            grid = rasterize_points(pts, GridGeometry(rows=1, cols=2))
        assert grid.data[0, 0, 0] == 1.0

    def test_mean_matches_independent_binning(self):
        rng = np.random.default_rng(1)
        pts = PointSet(x=rng.uniform(-1.0, 5.0, 300),
                       y=rng.uniform(-1.0, 5.0, 300),
                       value=rng.normal(0.0, 1.0, 300))
        geo = GridGeometry(rows=4, cols=4)
        with pytest.warns(UserWarning):
            grid = rasterize_points(pts, geo)
        for r in range(4):
            for c in range(4):
                mask = (np.floor(pts.x) == c) & (np.floor(pts.y) == r)
                if mask.any():
                    assert grid.data[0, r, c] == pytest.approx(
                        pts.value[mask].mean())
                else:
                    assert np.isnan(grid.data[0, r, c])

    def test_nonfinite_points_rejected(self):
        with pytest.raises(DataError):
            PointSet(x=[np.nan], y=[0.0], value=[1.0])


class TestOnehot:
    def test_first_and_last_codes(self):
        grid = Grid(data=np.array([[11.0, 95.0]]))
        enc = onehot_landcover(grid)
        assert enc.channels == 15
        assert enc.data[0, 0, 0] == 1.0   # open water -> channel 0
        assert enc.data[14, 0, 1] == 1.0  # herbaceous wetlands -> channel 14
        assert enc.data[:, 0, 0].sum() == 1.0

    def test_catalog_order(self):
        # every code maps to its catalog position
        grid = Grid(data=np.array([[float(c) for c in NLCD_CODES]]))
        enc = onehot_landcover(grid)
        assert_array_equal(enc.data[:, 0, :], np.eye(15))

    def test_unknown_code_warns_and_zeroes(self):
        grid = Grid(data=np.array([[99.0, 11.0]]))
        with pytest.warns(UserWarning, match="1 pixels.*unknown"):
            enc = onehot_landcover(grid)
        assert enc.data[:, 0, 0].sum() == 0.0
        assert enc.data[:, 0, 1].sum() == 1.0

    def test_nan_is_silent_nodata(self):
        grid = Grid(data=np.array([[np.nan]]))
        enc = onehot_landcover(grid)
        assert enc.data[:, 0, 0].sum() == 0.0

    def test_channels_mutually_exclusive(self):
        rng = np.random.default_rng(2)
        codes = rng.choice(list(NLCD_CODES) + [5], size=(6, 6)).astype(np.float64)
        with np.errstate(all="ignore"):
            if np.any(codes == 5.0):
                with pytest.warns(UserWarning):
                    enc = onehot_landcover(Grid(data=codes))
            else:
                enc = onehot_landcover(Grid(data=codes))
        assert np.all(enc.data.sum(axis=0) <= 1.0)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        man = Manifest(treatments=("t1.grd", "t2.grd"), confounder="x.grd",
                       outcome="y.grd", d_s=25, split_seed=7,
                       split_ratios=(0.5, 0.25, 0.25))
        path = str(tmp_path / "run.manifest")
        save_manifest(man, path)
        back = load_manifest(path)
        assert back.d_s == 25
        assert back.split_seed == 7
        assert back.split_ratios == (0.5, 0.25, 0.25)
        assert [p.split("/")[-1] for p in back.treatments] == ["t1.grd", "t2.grd"]

    def test_default_split_is_the_one_constant(self, tmp_path):
        """The manifest, a manifest file without split.ratios, split_dataset
        and the INI schema all default to ``SPLIT_RATIOS``."""
        from spatialcausal import cli

        assert SPLIT_RATIOS == (0.6, 0.2, 0.2)
        path = tmp_path / "run.manifest"
        path.write_text("[manifest]\ntreatment.1 = t.grd\nconfounder = x.grd\n"
                        "outcome = y.grd\nd_s = 3\n")
        assert load_manifest(str(path)).split_ratios == SPLIT_RATIOS
        assert Manifest(treatments=("t.grd",), confounder="x.grd", outcome="y.grd",
                        d_s=3).split_ratios == SPLIT_RATIOS
        assert inspect.signature(split_dataset).parameters["ratios"].default is SPLIT_RATIOS
        assert cli._SCHEMA["data"]["split_ratios"][1] is SPLIT_RATIOS

    def test_percent_in_path_kept_literally(self, tmp_path):
        man = Manifest(treatments=("t%1.grd",), confounder="x%%.grd", outcome="y.grd",
                       d_s=3)
        path = str(tmp_path / "run.manifest")
        save_manifest(man, path)
        back = load_manifest(path)
        assert [os.path.basename(p) for p in back.treatments + (back.confounder,)] \
            == ["t%1.grd", "x%%.grd"]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text("[manifest]\ntreatment.1 = t.grd\nconfounder = x.grd\n"
                        "outcome = y.grd\nd_s = 3\nmystery = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            load_manifest(str(path))

    @pytest.mark.parametrize("key", ["treatment.0", "treatment.01", "treatment.+1",
                                     "treatment.-2", "treatment.1_0", "treatment.x",
                                     "treatment.3"])
    def test_stray_treatment_key_rejected(self, tmp_path, key):
        """Treatments are numbered from 1 with no gap; any other ``treatment.*``
        key is unknown, even one that ``int`` would read as a number."""
        path = tmp_path / "bad.manifest"
        path.write_text(f"[manifest]\ntreatment.1 = t.grd\n{key} = u.grd\n"
                        "confounder = x.grd\noutcome = y.grd\nd_s = 3\n")
        with pytest.raises(ConfigError, match=re.escape(repr(key))):
            load_manifest(str(path))

    def test_treatments_load_in_numeric_order(self, tmp_path):
        order = [10, 2, 1, 9, 3, 8, 4, 7, 5, 6]
        path = tmp_path / "run.manifest"
        path.write_text("[manifest]\n" + "".join(f"treatment.{i} = t{i}.grd\n" for i in order)
                        + "confounder = x.grd\noutcome = y.grd\nd_s = 3\n")
        assert [os.path.basename(p) for p in load_manifest(str(path)).treatments] \
            == [f"t{i}.grd" for i in range(1, 11)]

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "missing.manifest"
        path.write_text("[manifest]\ntreatment.1 = t.grd\noutcome = y.grd\nd_s = 3\n")
        with pytest.raises(ConfigError, match="confounder"):
            load_manifest(str(path))

    def test_even_d_s_rejected(self):
        with pytest.raises(ConfigError):
            Manifest(treatments=("t.grd",), confounder="x.grd",
                     outcome="y.grd", d_s=4)


def write_grids(tmp_path, t_data, x_data, y_data, d_s):
    """Persist aligned single-treatment grids and return their manifest."""
    t_path = str(tmp_path / "t.grd")
    x_path = str(tmp_path / "x.grd")
    y_path = str(tmp_path / "y.grd")
    save_grid(Grid(data=t_data), t_path)
    save_grid(Grid(data=x_data), x_path)
    save_grid(Grid(data=y_data), y_path)
    return Manifest(treatments=(t_path,), confounder=x_path, outcome=y_path,
                    d_s=d_s)


class TestExtract:
    def test_interior_units_with_clean_patches(self, tmp_path):
        t = np.arange(81, dtype=np.float64).reshape(9, 9)
        x = np.ones((2, 9, 9))
        y = np.full((9, 9), 2.0)
        ds = extract_units(write_grids(tmp_path, t, x, y, d_s=3))
        assert ds.n_units == 49  # 7x7 interior
        assert ds.patches.shape == (49, 1, 3, 3)
        assert ds.confounders.shape == (49, 2)
        i = 0  # first unit is pixel (1, 1)
        assert ds.coords[i, 0] == 1.5 and ds.coords[i, 1] == 1.5
        window = t[0:3, 0:3].copy()
        window[1, 1] = 0.0
        assert_array_equal(ds.patches[i, 0], window)
        assert ds.treatments[i, 0] == t[1, 1]

    def test_oversized_padded_line_is_a_data_error(self, tmp_path, monkeypatch):
        """The cap is lowered so that a failing check allocates little."""
        monkeypatch.setattr(errors, "MAX_ELEMENTS", 159)
        manifest = write_grids(tmp_path, np.ones((1, 60)), np.ones((1, 1, 60)),
                               np.ones((1, 60)), d_s=101)
        with pytest.raises(DataError, match=r"^d_s: the 1 x 160 zero-padded treatment "
                                            r"lines would hold 160 elements"):
            extract_units(manifest)

    def test_oversized_windows_are_a_data_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(errors, "MAX_ELEMENTS", 440)
        manifest = write_grids(tmp_path, np.ones((9, 9)), np.ones((1, 9, 9)),
                               np.ones((9, 9)), d_s=3)
        with pytest.raises(DataError, match=r"^d_s: the 49 x 1 x 3 x 3 unit windows would "
                                            r"hold 441 elements"):
            extract_units(manifest)
        monkeypatch.setattr(errors, "MAX_ELEMENTS", 441)
        assert extract_units(manifest).n_units == 49

    def test_patch_span_arithmetic(self, tmp_path):
        # d_s = 51 centered at (row 100, col 200) spans rows 75..125
        rng = np.random.default_rng(3)
        t = rng.normal(0.0, 1.0, (130, 230))
        x = np.ones((1, 130, 230))
        y = np.full((130, 230), np.nan)
        y[100, 200] = 1.0
        ds = extract_units(write_grids(tmp_path, t, x, y, d_s=51))
        assert ds.n_units == 1
        window = t[75:126, 175:226].copy()
        window[25, 25] = 0.0
        assert_array_equal(ds.patches[0, 0], window)
        assert ds.coords[0, 1] == 100.5

    def test_nan_outcome_and_nan_patch_excluded(self, tmp_path):
        t = np.ones((5, 5))
        t[2, 3] = np.nan  # poisons patches that cover pixel (2, 3)
        x = np.ones((1, 5, 5))
        y = np.ones((5, 5))
        y[1, 1] = np.nan
        ds = extract_units(write_grids(tmp_path, t, x, y, d_s=3))
        # interior is 3x3 = 9; minus NaN outcome (1,1), minus the 6
        # interior units whose 3x3 patch covers (2, 3)
        assert ds.n_units == 9 - 1 - 6

    def test_no_eligible_units(self, tmp_path):
        t = np.ones((4, 4))
        x = np.ones((1, 4, 4))
        y = np.full((4, 4), np.nan)
        with pytest.raises(DataError):
            extract_units(write_grids(tmp_path, t, x, y, d_s=3))

    def test_grid_too_small_for_patch(self, tmp_path):
        t = np.ones((4, 4))
        x = np.ones((1, 4, 4))
        y = np.ones((4, 4))
        with pytest.raises(DataError):
            extract_units(write_grids(tmp_path, t, x, y, d_s=5))

    def test_line_mode_zero_pads_ends(self, tmp_path):
        t = np.arange(1.0, 7.0).reshape(1, 6)
        x = np.ones((1, 1, 6))
        y = np.zeros((1, 6))
        ds = extract_units(write_grids(tmp_path, t, x, y, d_s=3))
        assert ds.n_units == 6
        assert ds.patches.shape == (6, 1, 3)
        assert ds.coords.shape == (6, 1)
        assert_array_equal(ds.coords[:, 0], np.arange(6) + 0.5)
        assert_array_equal(ds.patches[0, 0], [0.0, 0.0, 2.0])
        assert_array_equal(ds.patches[3, 0], [3.0, 0.0, 5.0])
        assert_array_equal(ds.patches[5, 0], [5.0, 0.0, 0.0])

    def test_geometry_mismatch_across_grids(self, tmp_path):
        t_path = str(tmp_path / "t.grd")
        x_path = str(tmp_path / "x.grd")
        y_path = str(tmp_path / "y.grd")
        save_grid(Grid(data=np.ones((5, 5))), t_path)
        save_grid(Grid(data=np.ones((1, 5, 5)), resolution=2.0), x_path)
        save_grid(Grid(data=np.ones((5, 5))), y_path)
        man = Manifest(treatments=(t_path,), confounder=x_path,
                       outcome=y_path, d_s=3)
        with pytest.raises(DimensionError):
            extract_units(man)

    @pytest.mark.parametrize("seed", range(32))
    def test_matches_loop_reference(self, tmp_path, seed):
        manifest = _random_manifest(tmp_path, seed)
        try:
            want = _loop_extract(manifest)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                extract_units(manifest)
            assert str(got.value) == str(exc)
            return
        got = extract_units(manifest)
        for name in ("coords", "treatments", "patches", "confounders", "outcomes"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name
        assert got.d_s == want.d_s


def _loop_extract(manifest):
    """Reference: the per-pixel loop that ``extract_units`` replaced."""
    t_grids = [load_grid(p) for p in manifest.treatments]
    conf = load_grid(manifest.confounder)
    out = load_grid(manifest.outcome)
    rows, cols, d_s = out.rows, out.cols, manifest.d_s
    half = d_s // 2
    m = len(t_grids)
    line_mode = rows == 1
    if line_mode:
        padded = [np.concatenate([np.zeros(half), g.data[0, 0], np.zeros(half)])
                  for g in t_grids]
        candidates = [(0, c) for c in range(cols)]
    else:
        if rows < d_s or cols < d_s:
            raise DataError(f"{rows}x{cols} grid too small for d_s={d_s}")
        candidates = [(r, c) for r in range(half, rows - half)
                      for c in range(half, cols - half)]
    units = []
    for r, c in candidates:
        if not np.isfinite(out.data[0, r, c]) \
                or not np.all(np.isfinite(conf.data[:, r, c])):
            continue
        if line_mode:
            patches = [padded[j][c:c + d_s].copy() for j in range(m)]
        else:
            patches = [g.data[0, r - half:r + half + 1, c - half:c + half + 1].copy()
                       for g in t_grids]
        if all(np.all(np.isfinite(w)) for w in patches):
            units.append((r, c, patches))
    if not units:
        raise DataError("no eligible units: every outcome pixel is missing, "
                        "boundary-adjacent, or has NaN in its patch")
    n = len(units)
    patch_shape = (d_s,) if line_mode else (d_s, d_s)
    coords = np.zeros((n, 1) if line_mode else (n, 2))
    treatments = np.zeros((n, m))
    patch_arr = np.zeros((n, m) + patch_shape)
    confounders = np.zeros((n, conf.channels))
    outcomes = np.zeros(n)
    center = (half,) * len(patch_shape)
    for i, (r, c, patches) in enumerate(units):
        coords[i, 0] = out.origin_x + (c + 0.5) * out.resolution
        if not line_mode:
            coords[i, 1] = out.origin_y + (r + 0.5) * out.resolution
        for j in range(m):
            treatments[i, j] = t_grids[j].data[0, r, c]
            patches[j][center] = 0.0
            patch_arr[i, j] = patches[j]
        confounders[i] = conf.data[:, r, c]
        outcomes[i] = out.data[0, r, c]
    return SpatialDataset(coords=coords, treatments=treatments, patches=patch_arr,
                          confounders=confounders, outcomes=outcomes, d_s=d_s)


def _random_manifest(tmp_path, seed):
    """Seeded NaN-laden grids: 1-2 treatments, 1-row or 2-d, odd d_s, any geometry."""
    rng = np.random.default_rng(seed)
    rows = 1 if seed % 3 == 0 else int(rng.integers(2, 12))
    cols = int(rng.integers(2, 20))
    geom = dict(origin_x=float(rng.uniform(-50, 50)), origin_y=float(rng.uniform(-50, 50)),
                resolution=float(rng.uniform(0.1, 3.0)))

    def grid(channels, nan_share):
        data = rng.normal(0.0, 1.0, (channels, rows, cols))
        data[rng.uniform(size=data.shape) < nan_share] = np.nan
        return Grid(data=data, **geom)

    t_grids = [grid(1, 0.03) for _ in range(1 + seed % 2)]
    outcome = grid(1, 0.2)
    # a NaN treatment at a pixel whose own outcome is finite
    r, c = rng.integers(rows), rng.integers(cols)
    outcome.data[0, r, c] = 1.0
    t_grids[-1].data[0, r, c] = np.nan
    paths = []
    for name, g in [(f"t{j}", g) for j, g in enumerate(t_grids)] + \
            [("x", grid(int(rng.integers(1, 4)), 0.04)), ("y", outcome)]:
        paths.append(str(tmp_path / f"{name}.grd"))
        save_grid(g, paths[-1])
    return Manifest(treatments=tuple(paths[:-2]), confounder=paths[-2],
                    outcome=paths[-1], d_s=int(rng.choice([1, 3, 5, 7])))


def toy_dataset(n):
    t = np.linspace(0.0, 1.0, n)
    patches = np.zeros((n, 1, 3))
    patches[1:, 0, 0] = t[:-1]
    patches[:-1, 0, 2] = t[1:]
    return SpatialDataset(coords=np.linspace(0, 1, n)[:, None],
                          treatments=t[:, None], patches=patches,
                          confounders=np.ones((n, 1)),
                          outcomes=np.arange(n, dtype=np.float64), d_s=3)


class TestSplit:
    def test_exact_division(self):
        train, val, test = split_dataset(toy_dataset(10), seed=0)
        assert (train.n_units, val.n_units, test.n_units) == (6, 2, 2)

    def test_remainder_to_train(self):
        train, val, test = split_dataset(toy_dataset(11), seed=0)
        assert (train.n_units, val.n_units, test.n_units) == (7, 2, 2)

    def test_partition_is_disjoint_and_complete(self):
        ds = toy_dataset(23)
        train, val, test = split_dataset(ds, seed=3)
        got = np.concatenate([train.outcomes, val.outcomes, test.outcomes])
        assert_array_equal(np.sort(got), ds.outcomes)

    def test_deterministic(self):
        a = split_dataset(toy_dataset(20), seed=5)
        b = split_dataset(toy_dataset(20), seed=5)
        for x, y in zip(a, b):
            assert_array_equal(x.outcomes, y.outcomes)
        c = split_dataset(toy_dataset(20), seed=6)
        assert not all(np.array_equal(x.outcomes, y.outcomes)
                       for x, y in zip(a, c))

    def test_bad_ratios(self):
        with pytest.raises(ContractError):
            split_dataset(toy_dataset(10), ratios=(0.5, 0.5, 0.5))

    def test_too_few_units(self):
        with pytest.raises(DataError):
            split_dataset(toy_dataset(2))
