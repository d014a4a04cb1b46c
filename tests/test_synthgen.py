import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spatialcausal.effects import effect_error, estimate_effects_dose
from spatialcausal.errors import ConfigError, ContractError, DataError
from spatialcausal.gp import KernelSpec
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
        assert sp.knots_x[0] == -2.0
        assert sp.knots_x[-1] == 3.0
        assert sp.knots_x.size == 8
        assert_allclose(sp(sp.knots_x), sp.knots_y, atol=1e-12)

    def test_natural_boundary(self):
        sp = spline_fn(12, (0.0, 1.0))
        assert abs(sp.derivative(0.0, 2)) < 1e-9
        assert abs(sp.derivative(1.0, 2)) < 1e-9

    def test_c1_c2_at_interior_knots(self):
        sp = spline_fn(13, (-1.0, 1.0))
        c = sp.coefficients  # (4, pieces), local powers (x-x_j)^3..0
        x = sp.knots_x
        for j in range(c.shape[1] - 1):
            dx = x[j + 1] - x[j]
            d1_left = 3 * c[0, j] * dx ** 2 + 2 * c[1, j] * dx + c[2, j]
            d2_left = 6 * c[0, j] * dx + 2 * c[1, j]
            assert abs(d1_left - c[2, j + 1]) < 1e-9
            assert abs(d2_left - 2 * c[1, j + 1]) < 1e-9

    def test_deterministic(self):
        assert_array_equal(spline_fn(4, (0.0, 2.0)).knots_y,
                           spline_fn(4, (0.0, 2.0)).knots_y)

    def test_bad_domain(self):
        with pytest.raises(ContractError):
            spline_fn(0, (1.0, 1.0))


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
        y = truth.potential_outcomes(np.arange(500), ds.treatments[:, 0],
                                     ds.patches[:, 0])
        assert_allclose(y, ds.outcomes, atol=1e-12)

    def test_bitwise_determinism(self, line_generated):
        ds, truth = line_generated
        ds2, truth2 = gen_line_graph(LineGraphConfig())
        assert_array_equal(ds.outcomes, ds2.outcomes)
        assert_array_equal(ds.treatments, ds2.treatments)
        assert_array_equal(ds.confounders, ds2.confounders)
        assert truth.beta == truth2.beta
        assert_array_equal(truth.u, truth2.u)

    def test_noise_seed_only_changes_outcomes(self, line_generated):
        ds, _ = line_generated
        ds2, _ = gen_line_graph(LineGraphConfig(seed_noise=99))
        assert_array_equal(ds.treatments, ds2.treatments)
        assert not np.array_equal(ds.outcomes, ds2.outcomes)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            gen_line_graph(LineGraphConfig(n=2))
        with pytest.raises(ConfigError):
            gen_line_graph(LineGraphConfig(sigma_d=0.0))


class TestGridWeights:
    def test_normalized_center_zero(self):
        w = grid_weight_matrix(51, 10.0)
        assert w[25, 25] == 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0)

    def test_adjacent_raw_weight(self):
        w = grid_weight_matrix(51, 10.0, normalize=False)
        assert w[25, 26] == pytest.approx(math.exp(-0.1))
        assert w[25, 26] == pytest.approx(0.904837, abs=1e-6)

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
        assert truth.u.shape == (20,)

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
        y = truth.potential_outcomes(np.arange(20), ds.treatments[:, 0],
                                     ds.patches[:, 0])
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
                         seed_units=3)
        ds, _ = gen_grid(cfg, treatment_field=t_field, confounder_field=x_field)
        for i in range(5):
            c, r = int(ds.coords[i, 0]), int(ds.coords[i, 1])
            assert ds.treatments[i, 0] == t_field[r, c]
            window = t_field[r - 25:r + 26, c - 25:c + 26].copy()
            window[25, 25] = 0.0
            assert_array_equal(ds.patches[i, 0], window)

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

    def test_custom_u_kernel(self):
        cfg = small_grid_config(
            u_kernel=KernelSpec(family="exponential", sigma=2.0, lengthscale=5.0))
        ds, truth = gen_grid(cfg)
        assert np.all(np.isfinite(truth.u))


def flat_truth(n, beta, interference=None):
    if interference is None:
        def interference(indices, patches):
            return np.zeros(np.atleast_2d(patches).shape[0])
    return GroundTruth(beta=beta, interference=interference, confounder_fn=None,
                       u=np.zeros(n), base=np.zeros(n))


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
        rep = oracle_effects(flat_truth(10, beta=2.0), ds, 0, seed=1)
        assert_array_equal(rep.ie_curve, np.zeros(21))
        assert_array_equal(rep.de_curve, 2.0 * rep.t_grid)

    def test_linear_interference_constant_ie(self):
        def lin(indices, patches):
            pat = np.atleast_2d(patches)
            return 0.7 * pat.sum(axis=1)

        ds = line_style_dataset(seed=2)
        rep = oracle_effects(flat_truth(10, beta=1.0, interference=lin), ds, 0,
                             seed=2)
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
        est = estimate_effects_dose(model, ds, 0, seed=6)
        orc = oracle_effects(truth, ds, 0, seed=6)
        err = effect_error(est, orc)
        assert err["de_err"] <= 1e-12
        assert err["ie_err"] <= 1e-12
        assert err["te_err"] <= 1e-12

    def test_empty_grid_rejected(self):
        ds = line_style_dataset()
        with pytest.raises(ContractError):
            oracle_effects(flat_truth(10, 1.0), ds, 0, t_grid=np.array([]))

    def test_empty_draw_indices_rejected(self):
        ds = line_style_dataset()
        with pytest.raises(ContractError, match="at least 1 neighborhood draw"):
            oracle_effects(flat_truth(10, 1.0), ds, 0,
                           draw_indices=np.array([], dtype=np.int64))

    def test_line_graph_truth_vs_neighbors(self):
        # drawn neighborhoods run through each unit's own covariance weights
        ds, truth = gen_line_graph(LineGraphConfig(n=30))
        rep = oracle_effects(truth, ds, 0, b_draws=8, seed=7)
        assert np.all(np.isfinite(rep.ie_curve))
        assert abs(rep.te - (rep.de + rep.ie)) <= 1e-9
