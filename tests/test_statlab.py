import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from superfid import (GofResult, Measure, QuadratureError, RngStream, c_hs,
                      chi_square_gof_simplex, density_bures_unnormalized,
                      density_g_unnormalized, density_hs_unnormalized, ks_test,
                      ks_test_two_sample, mc_mean, mc_variance, sample_batch,
                      simplex_quadrature)
from superfid import statlab
from superfid.eigendensities import normalized_density
from superfid.rng import VERIFY_KIND

PI_OVER_2SQRT2 = 1.1107207345395915


class TestMcSummaries:
    def test_constant_input(self):
        mean, se = mc_mean(np.full(100, 0.8))
        assert abs(mean - 0.8) <= 1e-15
        assert se <= 1e-15

    def test_bernoulli_half(self):
        values = np.tile([0.0, 1.0], 5000)
        mean, se = mc_mean(values)
        assert abs(mean - 0.5) <= 1e-12
        # closed form: sd = 0.5 (up to the n-1 correction), so SE ~ 0.005
        assert abs(se - 0.005) <= 1e-4

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            mc_mean(np.array([1.0]))

    def test_se_halves_when_samples_quadruple(self):
        gen = RngStream(3).block(VERIFY_KIND, 0)
        x = gen.normal(size=40_000)
        _, se_small = mc_mean(x[:10_000])
        _, se_big = mc_mean(x)
        assert abs(se_small / se_big - 2.0) <= 0.4

    def test_variance_estimator(self):
        gen = RngStream(4).block(VERIFY_KIND, 0)
        x = gen.normal(scale=2.0, size=200_000)
        var, se = mc_variance(x)
        assert abs(var - 4.0) <= 3 * se


CHI2_ULPS = 3   # the worst chi2_sf error over TestSpecialFunctions' grid


def chi2_sf_50_digits(dof, x):
    """The chi-square survival function Q(dof/2, x/2) as a 50-digit mpmath value."""
    import mpmath
    with mpmath.workdps(50):
        return mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                               regularized=True)


def ulps_off(value, exact):
    """|value - exact| in units of the last place of exact rounded to a float."""
    return float(abs(value - exact)) / math.ulp(float(exact))


class TestSpecialFunctions:
    """The pure-Python special functions against 50-digit mpmath values.

    Each bound is the worst error measured on the grid of its test.
    """

    def test_kolmogorov_sf(self):
        import mpmath
        worst = 0.0
        with mpmath.workdps(50):
            for x in np.linspace(0.05, 3.0, 2951).tolist():
                # P(K > x) = 1 - theta_4(0, e^(-2 x^2))
                exact = 1 - mpmath.jtheta(4, 0, mpmath.exp(-2 * mpmath.mpf(x) ** 2))
                worst = max(worst, float(abs(statlab.kolmogorov_sf(x) - exact)))
        assert worst <= 1.5e-16

    def test_kolmogorov_sf_edges(self):
        assert statlab.kolmogorov_sf(0.0) == statlab.kolmogorov_sf(-1.0) == 1.0
        assert statlab.kolmogorov_sf(1e-3) == 1.0
        assert statlab.kolmogorov_sf(30.0) == 0.0

    def test_chi2_sf(self):
        worst = 0.0
        for dof in range(1, 201):
            for x in np.geomspace(1e-3, 3e3, 61).tolist():
                exact = chi2_sf_50_digits(dof, x)
                if exact >= 1e-300:
                    worst = max(worst, ulps_off(statlab.chi2_sf(dof, x), exact))
        assert worst <= CHI2_ULPS

    def test_chi2_sf_edges(self):
        assert statlab.chi2_sf(3, 0.0) == statlab.chi2_sf(4, -1.0) == 1.0
        assert statlab.chi2_sf(3, np.inf) == 0.0
        assert np.isnan(statlab.chi2_sf(3, np.nan))
        # past the underflow of the whole sum
        assert statlab.chi2_sf(2, 1e6) == 0.0 and statlab.chi2_sf(3, 1e6) == 0.0
        for dof in (0, 2.5):
            with pytest.raises(ValueError, match="dof"):
                statlab.chi2_sf(dof, 1.0)

    def test_hurwitz_zeta(self):
        import mpmath
        worst = 0.0
        for dim in range(2, 16):
            for s in ((dim - 1) ** 2 + 0.5, (dim - 1) ** 2 + 1.5):
                for q in range(2, 62):
                    # mpmath's Hurwitz zeta at 50 digits keeps only ~13 of them at
                    # s = 25.5, q = 61; at 100 it agrees with 150 to 3e-28
                    with mpmath.workdps(100):
                        exact = mpmath.zeta(s, q)
                        if exact >= np.finfo(float).tiny:
                            worst = max(worst, float(abs(statlab.hurwitz_zeta(s, q) - exact)
                                                     / exact))
        assert worst <= 1.9e-16

    def test_hurwitz_zeta_domain(self):
        for s, q in ((1.0, 2.0), (2.5, 0.0)):
            with pytest.raises(ValueError):
                statlab.hurwitz_zeta(s, q)


class TestKsTest:
    def test_calibration(self):
        gen = RngStream(5).block(VERIFY_KIND, 0)
        low = 0
        for rep in range(100):
            u = gen.random(500)
            res = ks_test(u, lambda x: np.clip(x, 0.0, 1.0))
            low += res.p_value < 0.05
        assert low / 100 <= 0.10  # nominal 0.05 +- 0.05

    def test_power_against_shift(self):
        gen = RngStream(6).block(VERIFY_KIND, 0)
        u = np.clip(gen.random(10_000) * 0.9 + 0.05, 0, 1)
        res = ks_test(u, lambda x: np.clip(x, 0.0, 1.0))
        assert res.p_value < 1e-6

    def test_degenerate_samples(self):
        res = ks_test(np.full(100, 0.5), lambda x: np.clip(x, 0.0, 1.0))
        assert res.p_value < 1e-10

    def test_non_monotone_cdf_rejected(self):
        gen = RngStream(7).block(VERIFY_KIND, 0)
        with pytest.raises(ValueError, match="monotone"):
            ks_test(gen.random(100), lambda x: np.sin(6 * x))

    def test_needs_fifty_samples(self):
        with pytest.raises(ValueError):
            ks_test(np.linspace(0, 1, 20), lambda x: x)

    def test_two_sample_null_and_power(self):
        gen = RngStream(8).block(VERIFY_KIND, 0)
        a, b = gen.random(5000), gen.random(5000)
        assert ks_test_two_sample(a, b).p_value > 0.01
        assert ks_test_two_sample(a, b + 0.05).p_value < 1e-6


class TestChiSquare:
    def test_power_against_wrong_density(self):
        _, eigs, _ = sample_batch(Measure.HILBERT_SCHMIDT, 3, 10_000, RngStream(10))
        res = chi_square_gof_simplex(eigs,
                                     normalized_density(Measure.SUPERFIDELITY, 3),
                                     grid=10, rng=RngStream(11))
        assert res.p_value < 1e-6

    def test_simplex_calibration(self):
        _, eigs, _ = sample_batch(Measure.HILBERT_SCHMIDT, 3, 20_000, RngStream(12))
        res = chi_square_gof_simplex(eigs, density_hs_unnormalized,
                                     grid=10, rng=RngStream(13))
        assert res.p_value > 0.01

    def test_simplex_test_takes_a_stream_only(self):
        eigs = np.full((10, 3), 1 / 3)
        with pytest.raises(TypeError, match="RngStream"):
            chi_square_gof_simplex(eigs, density_hs_unnormalized,
                                   rng=RngStream(0).block(VERIFY_KIND, 0))
        with pytest.raises(TypeError, match="rng"):   # no default stream
            chi_square_gof_simplex(eigs, density_hs_unnormalized)

    def test_non_finite_density_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            chi_square_gof_simplex(np.full((100, 3), 1 / 3),
                                   lambda lam: np.full(lam.shape[:-1], np.inf),
                                   grid=10, rng=RngStream(0))

    def test_p_values_equal_the_chi2_survival_function(self):
        _, eigs, _ = sample_batch(Measure.HILBERT_SCHMIDT, 3, 2000, RngStream(15))
        for grid in (3, 8, 12):
            res = chi_square_gof_simplex(eigs, density_hs_unnormalized,
                                         grid=grid, rng=RngStream(15, grid))
            exact = chi2_sf_50_digits(res.bins_or_n - 1, res.statistic)
            assert ulps_off(res.p_value, exact) <= CHI2_ULPS

    @pytest.mark.parametrize("grid", [10, 12])
    def test_simplex_cell_masses_sum_to_one(self, grid):
        masses = statlab._simplex_cell_masses(normalized_density(Measure.SUPERFIDELITY, 3),
                                              grid)
        assert abs(masses.sum() - 1.0) <= 1e-12
        i, j = np.indices(masses.shape)
        assert np.all(masses[i + j < grid] > 0) and np.all(masses[i + j >= grid] == 0)

    @pytest.mark.parametrize("measure", [Measure.SUPERFIDELITY, Measure.HILBERT_SCHMIDT])
    @pytest.mark.parametrize("grid", [2, 12, 13])
    def test_cell_chunks_equal_one_whole_evaluation(self, monkeypatch, measure, grid):
        density = normalized_density(measure, 3)
        chunked = statlab._simplex_cell_masses(density, grid)
        for chunk in (3, 10 ** 9):   # odd-sized chunks, and every cell in one call
            monkeypatch.setattr(statlab, "_CELL_CHUNK", chunk)
            assert statlab._simplex_cell_masses(density, grid).tobytes() == chunked.tobytes()

    def test_cell_and_interval_memory_is_bounded_by_the_chunk(self):
        density = normalized_density(Measure.SUPERFIDELITY, 3)
        # one whole evaluation of the 820 cells at grid 40 peaks near 260 MB
        assert traced_peak(statlab._simplex_cell_masses, density, 40) < 4 * 2 ** 20

    def test_simplex_cells_fail_closed_on_a_divergent_density(self):
        # 1/|lambda_1 - 1/2| is not integrable along the cell edge lambda_1 = 1/2
        _, eigs, _ = sample_batch(Measure.HILBERT_SCHMIDT, 3, 2000, RngStream(16))
        with pytest.raises(QuadratureError):
            chi_square_gof_simplex(eigs, lambda lam: 1.0 / np.abs(lam[..., 0] - 0.5),
                                   grid=10, rng=RngStream(17))

    def test_small_bins_are_merged(self):
        # 300 states over the 78 cells of grid 12: ~4 expected counts per cell
        _, eigs, _ = sample_batch(Measure.HILBERT_SCHMIDT, 3, 300, RngStream(14))
        res = chi_square_gof_simplex(eigs, density_hs_unnormalized,
                                     grid=12, rng=RngStream(14, 1))
        assert res.bins_or_n < 78
        assert res.p_value > 1e-6


class TestSimplexQuadrature:
    def test_unit_density_convention(self):
        assert abs(simplex_quadrature(lambda lam: 1.0, 2, 1e-12) - 1.0) <= 1e-12

    def test_known_integrals(self):
        val = simplex_quadrature(density_g_unnormalized, 2, 1e-9)
        assert abs(val - PI_OVER_2SQRT2) <= 1e-6
        val = simplex_quadrature(density_bures_unnormalized, 2, 1e-9)
        assert abs(val - np.pi / 2) <= 1e-6
        val = simplex_quadrature(density_g_unnormalized, 3, 1e-10)
        assert abs(val - 1 / 1030.67) / (1 / 1030.67) <= 1e-3

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            simplex_quadrature(lambda lam: 1.0, 6, 1e-6)

    def test_divergent_integrand_raises(self):
        for dim in (2, 3):
            with pytest.raises(QuadratureError) as info:
                simplex_quadrature(lambda lam: 1.0 / lam[..., 0], dim, 1e-10)
            assert info.value.partial_estimate is not None

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_hs_polynomial_integrates_to_inverse_constant(self, dim):
        val = simplex_quadrature(density_hs_unnormalized, dim, 1e-9)
        assert abs(val * c_hs(dim).value - 1.0) <= 1e-13

    def test_bures_corners_fail_closed(self):
        # the Bures density is not smooth where two eigenvalues vanish, so the
        # rule converges only algebraically there: its orders differ by ~1.2e-9
        with pytest.raises(QuadratureError):
            simplex_quadrature(density_bures_unnormalized, 3, 1e-9)

    def test_memory_is_bounded_at_dim5(self):
        assert traced_peak(simplex_quadrature, density_g_unnormalized, 5, 1e-9) < 64 * 2 ** 20


class TestRecordTypes:
    def test_gof_result_validation(self):
        with pytest.raises(ValueError):
            GofResult(statistic=1.0, p_value=1.5, bins_or_n=10)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_mc_mean_bounds_sample(self, seed):
        gen = np.random.default_rng(seed)
        x = gen.random(50)
        mean, se = mc_mean(x)
        assert x.min() - 1e-12 <= mean <= x.max() + 1e-12
        assert se >= 0.0
