import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spatialcausal.effects import dose_draw_indices, effect_error, estimate_effects_dose
from spatialcausal.errors import MAX_ELEMENTS, ConfigError, ContractError, DataError
from spatialcausal.gp import KernelSpec, sample_gp_grid
from spatialcausal.model import ModelConfig, build_model
from spatialcausal.synthgen import (
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


class TestRandomFn:
    def test_deterministic(self):
        a = random_fn(7, 3)
        b = random_fn(7, 3)
        probe = np.random.default_rng(0).uniform(-10.0, 10.0, (50, 3))
        assert_array_equal(a(probe), b(probe))

    def test_seeds_differ(self):
        probe = np.random.default_rng(1).uniform(-1.0, 1.0, (20, 2))
        assert not np.allclose(random_fn(1, 2)(probe), random_fn(2, 2)(probe))

    def test_finite_on_box(self):
        fn = random_fn(3, 4)
        probe = np.random.default_rng(2).uniform(-10.0, 10.0, (200, 4))
        out = fn(probe)
        assert out.shape == (200,)
        assert np.all(np.isfinite(out))

    def test_single_row(self):
        fn = random_fn(5, 2)
        assert fn(np.array([0.5, -0.5])).shape == (1,)

    def test_bad_in_dim(self):
        with pytest.raises(ContractError):
            random_fn(0, 0)


class TestSplineFn:
    def test_interpolates_knots(self):
        sp = spline_fn(11, (-2.0, 3.0))
        assert sp.x[0] == -2.0
        assert sp.x[-1] == 3.0
        assert sp.x.size == 8
        knots_y = np.random.default_rng(11).normal(0.0, 1.0, 8)
        assert_allclose(sp(sp.x), knots_y, atol=1e-12)

    def test_natural_boundary(self):
        # second derivative 2 c1 at the first knot, 6 c0 dx + 2 c1 at the last
        sp = spline_fn(12, (0.0, 1.0))
        c, x = sp.c, sp.x
        assert abs(2 * c[1, 0]) < 1e-9
        assert abs(6 * c[0, -1] * (x[-1] - x[-2]) + 2 * c[1, -1]) < 1e-9

    def test_c1_c2_at_interior_knots(self):
        sp = spline_fn(13, (-1.0, 1.0))
        c = sp.c  # (4, pieces), local powers (x-x_j)^3..0
        x = sp.x
        for j in range(c.shape[1] - 1):
            dx = x[j + 1] - x[j]
            d1_left = 3 * c[0, j] * dx ** 2 + 2 * c[1, j] * dx + c[2, j]
            d2_left = 6 * c[0, j] * dx + 2 * c[1, j]
            assert abs(d1_left - c[2, j + 1]) < 1e-9
            assert abs(d2_left - 2 * c[1, j + 1]) < 1e-9

    def test_deterministic(self):
        assert_array_equal(spline_fn(4, (0.0, 2.0)).c,
                           spline_fn(4, (0.0, 2.0)).c)

    def test_bad_domain(self):
        # empty, reversed, infinite, NaN, too narrow for 8 knots, too wide for a float step
        for domain in [(1.0, 1.0), (2.0, 1.0), (0.0, np.inf), (np.nan, 1.0), (0.0, 5e-324),
                       (-1e308, 1e308)]:
            with pytest.raises(ContractError, match="domain must be an increasing interval"):
                spline_fn(0, domain)

    def test_bits_of_scipy_cubic_spline(self):
        """Coefficients and values equal ``CubicSpline(..., bc_type="natural")``
        bit for bit: seeded domains from 1e-3 to 1e3 wide, the knots, both
        ends, 20% extrapolation on either side, NaN and infinities."""
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(0)
        for seed in range(60):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            lo = rng.normal() * scale
            hi = lo + rng.uniform(0.01, 5.0) * scale
            sp = spline_fn(seed, (lo, hi))
            ref = CubicSpline(np.linspace(lo, hi, 8),
                              np.random.default_rng(seed).normal(0.0, 1.0, 8),
                              bc_type="natural")
            assert_array_equal(sp.x.view(np.uint64), ref.x.view(np.uint64))
            assert sp.c.shape == ref.c.shape == (4, 7)
            assert_array_equal(sp.c.view(np.uint64), ref.c.view(np.uint64))
            width = hi - lo
            probe = np.concatenate([
                rng.uniform(lo - 0.2 * width, hi + 0.2 * width, 500), sp.x,
                [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), np.nan,
                 -np.nan, np.inf, -np.inf]])
            with np.errstate(invalid="ignore", over="ignore"):
                got = sp(probe)
            assert_array_equal(got.view(np.uint64), ref(probe).view(np.uint64))
        grid = np.linspace(lo, hi, 12).reshape(3, 4)
        assert_array_equal(sp(grid).view(np.uint64), ref(grid).view(np.uint64))
        assert sp(0.5 * (lo + hi)).shape == ()


class TestLineGraphCovariance:
    def test_diagonal_prefactor(self):
        s = np.linspace(0.0, 1.0, 10)
        cov = line_graph_covariance(s, 0.5, 0.5)
        assert_allclose(np.diag(cov), 1.0 / (0.5 * math.sqrt(2.0 * math.pi)))
        assert np.diag(cov)[0] == pytest.approx(0.797885, abs=1e-6)

    def test_symmetric_positive_diagonal(self):
        s = np.linspace(0.0, 1.0, 50)
        cov = line_graph_covariance(s, 0.5, 0.5)
        assert_array_equal(cov, cov.T)
        assert np.all(np.diag(cov) > 0)

    def test_absolute_distance_decay(self):
        # exponent uses |ds| / (2 sigma_l^2), not the squared distance
        cov = line_graph_covariance(np.array([0.0, 1.0]), 0.5, 0.5)
        expected = (1.0 / (0.5 * math.sqrt(2.0 * math.pi))) * math.exp(-2.0)
        assert cov[0, 1] == pytest.approx(expected, rel=1e-12)


@pytest.fixture(scope="module")
def line_generated():
    return gen_line_graph(LineGraphConfig())


class TestLineGraph:
    def test_shapes_and_coords(self, line_generated):
        ds, truth = line_generated
        assert ds.n_units == 500
        assert ds.treatments.shape == (500, 1)
        assert ds.patches.shape == (500, 1, 3)
        assert ds.confounders.shape == (500, 4)
        s = ds.coords[:, 0]
        assert s[0] == 0.0 and s[-1] == 1.0
        assert_allclose(np.diff(s), 1.0 / 499.0, atol=1e-15)

    def test_neighborhoods_truncated_at_boundary(self, line_generated):
        ds, _ = line_generated
        filled = np.count_nonzero(ds.patches[:, 0], axis=1)
        assert filled[0] == 1 and filled[-1] == 1
        assert np.all(filled[1:-1] == 2)
        assert_array_equal(ds.patches[1:, 0, 0], ds.treatments[:-1, 0])
        assert_array_equal(ds.patches[:-1, 0, 2], ds.treatments[1:, 0])

    def test_beta_in_unit_interval(self, line_generated):
        _, truth = line_generated
        assert 0.0 <= truth.beta < 1.0

    def test_confounder_scale(self, line_generated):
        ds, _ = line_generated
        assert 0.9 < ds.confounders.std() < 1.1

    def test_observed_outcomes_reproduced_by_truth(self, line_generated):
        ds, truth = line_generated
        idx = np.arange(500)
        y = truth.beta * ds.treatments[:, 0] + truth.interference(idx, ds.patches[:, 0]) \
            + truth.base[idx]
        assert_allclose(y, ds.outcomes, atol=1e-12)

    def test_bitwise_determinism(self, line_generated):
        ds, truth = line_generated
        ds2, truth2 = gen_line_graph(LineGraphConfig())
        assert_array_equal(ds.outcomes, ds2.outcomes)
        assert_array_equal(ds.treatments, ds2.treatments)
        assert_array_equal(ds.confounders, ds2.confounders)
        assert truth.beta == truth2.beta
        assert_array_equal(truth.base, truth2.base)

    def test_seed_splits_into_streams(self):
        # stream k of seed s is seeded 10 * s + k; the confounders are stream 0
        ds, _ = gen_line_graph(LineGraphConfig(n=20, seed=1))
        assert_array_equal(ds.confounders,
                           np.random.default_rng(10).normal(0.0, 1.0, (20, 4)))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            gen_line_graph(LineGraphConfig(n=2))

    @pytest.mark.parametrize("cls,field,value", [
        (LineGraphConfig, "noise_sigma", np.nan), (GridConfig, "sigma_l", np.nan),
        (GridConfig, "field_lengthscale", np.nan), (GridConfig, "beta", np.nan),
        (LineGraphConfig, "noise_sigma", np.inf),
        (GridConfig, "sigma_l", np.inf), (GridConfig, "field_lengthscale", np.inf),
    ], ids=["line_noise_sigma", "grid_sigma_l",
            "grid_field_lengthscale", "grid_beta", "line_noise_sigma_inf",
            "grid_sigma_l_inf", "grid_field_lengthscale_inf"])
    def test_nan_config_rejected(self, cls, field, value):
        with pytest.raises(ConfigError):
            cls(**{field: value})

    @pytest.mark.parametrize("cls", [LineGraphConfig, GridConfig], ids=["line", "grid"])
    def test_negative_seed_rejected(self, cls):
        with pytest.raises(ConfigError, match="seed: must be >= 0"):
            cls(seed=-1)

    @pytest.mark.parametrize("cls,settings,key", [
        (GridConfig, dict(rows=10 ** 11), "rows"), (GridConfig, dict(cols=8193, rows=8192), "cols"),
        (GridConfig, dict(x_channels=10 ** 12), "x_channels"),
        (GridConfig, dict(n_units=10 ** 7), "n_units"),
        (LineGraphConfig, dict(n=10 ** 20), "n"), (LineGraphConfig, dict(x_dim=10 ** 9), "x_dim"),
    ], ids=["grid_rows", "grid_cols", "grid_x_channels", "grid_n_units", "line_n", "line_x_dim"])
    def test_oversized_config_rejected(self, cls, settings, key):
        with pytest.raises(ConfigError, match=f"^{key}: .* over the cap of {MAX_ELEMENTS}$"):
            cls(**settings)

    def test_size_cap_is_inclusive(self):
        assert 4 * 8192 * 8192 == MAX_ELEMENTS
        GridConfig(rows=8192, cols=8192)          # a config allocates nothing


class TestGridWeights:
    def test_normalized_center_zero(self):
        w = grid_weight_matrix(51, 10.0)
        assert w[25, 25] == 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0)

    def test_adjacent_raw_weight(self):
        # normalising rescales every entry alike, so neighbours keep the raw decay
        w = grid_weight_matrix(51, 10.0)
        ratio = w[25, 26] / w[25, 27]
        assert ratio == pytest.approx(math.exp(0.1))
        assert 1.0 / ratio == pytest.approx(0.904837, abs=1e-6)

    def test_rotation_symmetry(self):
        w = grid_weight_matrix(25, 10.0)
        assert_array_equal(np.rot90(w), w)

    def test_even_side_rejected(self):
        with pytest.raises(ContractError):
            grid_weight_matrix(4, 10.0)


def small_grid_config(**kw):
    base = dict(rows=40, cols=40, d_s=11, n_units=20, x_channels=3,
                sigma_l=10.0, field_lengthscale=6.0)
    base.update(kw)
    return GridConfig(**base)


@pytest.fixture(scope="module")
def grid_generated():
    return gen_grid(small_grid_config())


class TestGridGen:
    def test_shapes(self, grid_generated):
        ds, truth = grid_generated
        assert ds.n_units == 20
        assert ds.patches.shape == (20, 1, 11, 11)
        assert ds.confounders.shape == (20, 3)
        assert truth.base.shape == (20,)

    def test_onehot_confounders(self, grid_generated):
        ds, _ = grid_generated
        assert_array_equal(ds.confounders.sum(axis=1), np.ones(20))
        assert set(np.unique(ds.confounders)) <= {0.0, 1.0}

    def test_treatment_field_range(self, grid_generated):
        ds, _ = grid_generated
        assert np.all(np.abs(ds.treatments) < 1.0)  # tanh-squashed

    def test_units_in_interior(self, grid_generated):
        ds, _ = grid_generated
        assert ds.coords.min() >= 5.0
        assert ds.coords.max() <= 34.0

    def test_observed_outcomes_reproduced_by_truth(self, grid_generated):
        ds, truth = grid_generated
        idx = np.arange(20)
        y = truth.beta * ds.treatments[:, 0] + truth.interference(idx, ds.patches[:, 0]) \
            + truth.base[idx]
        assert_allclose(y, ds.outcomes, atol=1e-12)

    def test_determinism(self, grid_generated):
        ds, _ = grid_generated
        ds2, _ = gen_grid(small_grid_config())
        assert_array_equal(ds.outcomes, ds2.outcomes)
        assert_array_equal(ds.patches, ds2.patches)

    def test_patch_is_field_window(self):
        rng = np.random.default_rng(5)
        t_field = rng.uniform(-1.0, 1.0, (60, 60))
        x_field = np.zeros((60, 60, 2))
        x_field[..., 0] = 1.0
        cfg = GridConfig(rows=60, cols=60, d_s=51, n_units=5, x_channels=2,
                         seed=3)
        ds, _ = gen_grid(cfg, treatment_field=t_field, confounder_field=x_field)
        for i in range(5):
            c, r = int(ds.coords[i, 0]), int(ds.coords[i, 1])
            assert ds.treatments[i, 0] == t_field[r, c]
            window = t_field[r - 25:r + 26, c - 25:c + 26].copy()
            window[25, 25] = 0.0
            assert_array_equal(ds.patches[i, 0], window)

    def test_fields_are_six_sample_gp_grid_draws(self):
        """One shared spectral root gives each field ``sample_gp_grid``'s bits."""
        cfg = small_grid_config(rows=24, cols=30, x_channels=4, seed=3)
        kern = KernelSpec("rbf", sigma=1.0, lengthscale=cfg.field_lengthscale)
        draws = [sample_gp_grid(24, 30, kern, 1.0, 30 + k) for k in range(6)]
        t_field, x_field = synth_fields(cfg)
        want = np.tanh(0.8 * draws[0] + 0.6 * draws[1])
        assert_array_equal(t_field.view(np.uint64), want.view(np.uint64))
        classes = np.argmax(np.stack([draws[0] + d for d in draws[2:]], axis=-1), axis=-1)
        assert_array_equal(x_field, (classes[..., None] == np.arange(4)).astype(float))
        assert len(np.unique(classes)) == 4

    def test_region_too_small(self):
        with pytest.raises(DataError):
            gen_grid(small_grid_config(rows=10, cols=10))
        with pytest.raises(DataError):
            gen_grid(small_grid_config(n_units=2000))

    def test_field_shape_mismatch(self):
        cfg = small_grid_config()
        with pytest.raises(DataError):
            gen_grid(cfg, treatment_field=np.zeros((10, 10)),
                     confounder_field=np.zeros((40, 40, 3)))


def flat_truth(n, beta, interference=None):
    if interference is None:
        def interference(indices, patches):
            return np.zeros(np.atleast_2d(patches).shape[0])
    return GroundTruth(beta=beta, interference=interference, base=np.zeros(n))


def line_style_dataset(n=10, seed=0):
    rng = np.random.default_rng(seed)
    t = rng.normal(0.0, 1.0, n)
    patches = np.zeros((n, 1, 3))
    patches[1:, 0, 0] = t[:-1]
    patches[:-1, 0, 2] = t[1:]
    from spatialcausal.model import SpatialDataset
    return SpatialDataset(coords=np.linspace(0, 1, n)[:, None],
                          treatments=t[:, None], patches=patches,
                          confounders=rng.normal(0, 1, (n, 2)),
                          outcomes=rng.normal(0, 1, n), d_s=3)


class TestOracle:
    def test_zero_interference_truth(self):
        ds = line_style_dataset()
        rep = oracle_effects(flat_truth(10, beta=2.0), ds, 0,
                             draw_indices=dose_draw_indices(10, 32, 1))
        assert_array_equal(rep.ie_curve, np.zeros(21))
        assert_array_equal(rep.de_curve, 2.0 * rep.t_grid)

    def test_linear_interference_constant_ie(self):
        def lin(indices, patches):
            pat = np.atleast_2d(patches)
            return 0.7 * pat.sum(axis=1)

        ds = line_style_dataset(seed=2)
        rep = oracle_effects(flat_truth(10, beta=1.0, interference=lin), ds, 0,
                             draw_indices=dose_draw_indices(10, 32, 2))
        assert np.all(rep.ie_curve == rep.ie_curve[0])
        assert abs(rep.te - (rep.de + rep.ie)) <= 1e-9

    def test_beta_minus_four_dose_response(self):
        ds = line_style_dataset(seed=3)
        ds.treatments[0, 0] = -1.5
        ds.treatments[1, 0] = 1.5  # make the grid span 1.0
        grid = np.array([0.0, 0.5, 1.0])
        rep = oracle_effects(flat_truth(10, beta=-4.0), ds, 0, t_grid=grid)
        assert rep.de_curve[2] == pytest.approx(-4.0)

    def test_consistency_with_observed_contrasts(self):
        # shared-weight truth, draws = all units: IE is the mean own-patch contrast
        ds, truth = gen_grid(small_grid_config())
        rep = oracle_effects(truth, ds, 0, draw_indices=np.arange(20))
        own = truth.interference(np.arange(20), ds.patches[:, 0])
        zero = truth.interference(np.arange(20),
                                  np.zeros((20, 11, 11)))
        assert rep.ie_curve[0] == pytest.approx(float((own - zero).mean()),
                                                abs=1e-12)

    def test_matches_estimator_on_equivalent_model(self):
        # model configured to equal the truth gives zero effect error
        ds = line_style_dataset(n=12, seed=4)
        truth = flat_truth(12, beta=1.7)
        cfg = ModelConfig(m=1, patch_shape=(3,), x_dim=2, interference="linear",
                          confounder="linear", seed=0)
        model = build_model(cfg)
        model.alphas.data[0, 0] = 1.7
        draws = dose_draw_indices(12, 32, 6)
        est = estimate_effects_dose(model, ds, 0, draw_indices=draws)
        orc = oracle_effects(truth, ds, 0, draw_indices=draws)
        err = effect_error(est, orc)
        assert err["de_err"] <= 1e-12
        assert err["ie_err"] <= 1e-12
        assert err["te_err"] <= 1e-12

    @pytest.mark.parametrize("m", [-1, 1])
    def test_treatment_index_out_of_range_rejected(self, m):
        ds = line_style_dataset()
        with pytest.raises(ContractError, match="treatment index"):
            oracle_effects(flat_truth(10, 1.0), ds, m)

    def test_empty_grid_rejected(self):
        ds = line_style_dataset()
        with pytest.raises(ContractError):
            oracle_effects(flat_truth(10, 1.0), ds, 0, t_grid=np.array([]))

    def test_empty_draw_indices_rejected(self):
        ds = line_style_dataset()
        with pytest.raises(ContractError, match="at least 1 neighborhood draw"):
            oracle_effects(flat_truth(10, 1.0), ds, 0,
                           draw_indices=np.array([], dtype=np.int64))

    @pytest.mark.parametrize("bad", [-1, 10**6])
    def test_draw_index_out_of_range_rejected(self, bad):
        # -1 used to wrap to the last unit; 10**6 used to raise IndexError
        ds, truth = gen_line_graph(LineGraphConfig(n=30))
        with pytest.raises(ContractError, match=rf"draw index {bad} outside 0\.\.29"):
            oracle_effects(truth, ds, 0, draw_indices=[0, bad])

    @pytest.mark.parametrize("bad", [2.7, np.nan])
    def test_draw_index_not_whole_rejected(self, bad):
        # 2.7 used to truncate to 2 without a word; nan raised numpy's ValueError
        ds, truth = gen_line_graph(LineGraphConfig(n=30))
        with pytest.raises(ContractError, match=rf"draw index {bad} is not a whole number"):
            oracle_effects(truth, ds, 0, draw_indices=[bad])
        whole = oracle_effects(truth, ds, 0, draw_indices=[2.0])
        assert whole.ie == oracle_effects(truth, ds, 0, draw_indices=[2]).ie

    def test_line_graph_truth_vs_neighbors(self):
        # drawn neighborhoods run through each unit's own covariance weights
        ds, truth = gen_line_graph(LineGraphConfig(n=30))
        rep = oracle_effects(truth, ds, 0, draw_indices=dose_draw_indices(30, 8, 7))
        assert np.all(np.isfinite(rep.ie_curve))
        assert abs(rep.te - (rep.de + rep.ie)) <= 1e-9
