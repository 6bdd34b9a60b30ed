import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from superfid import eigendensities as ed
from superfid import (DomainError, InstabilityWarning, RngStream, SingularityError,
                      UnsupportedDimensionError, c_bures, c_g_exact,
                      c_g_jensen_bound, c_g_monte_carlo, c_g_quadrature, c_g_series,
                      c_hs, cdf_g2, density_bures_unnormalized, density_g_unnormalized,
                      density_grid_qutrit, density_hs_unnormalized, grid_integral,
                      hs_purity_batch, mc_mean, pdf_g2_marginal, purity_mean_hs,
                      purity_variance_hs, simplex_quadrature)
from superfid.eigendensities import NormalizationEstimate, normalized_density
from superfid.qstate import Measure
from superfid.verify import _permutation_symmetric

PI_OVER_2SQRT2 = 1.1107207345395915   # integral of the unnormalized qubit density
C2G = 0.9003163161571068              # (2 sqrt2 / 3pi) * 3
C3G = 1030.6207722621148              # (432 sqrt2 / 317pi) * 1680


class TestUnnormalizedDensities:
    def test_g_qubit_hand_value(self):
        val = density_g_unnormalized(np.array([0.9, 0.1]))
        assert abs(val - 0.64 / np.sqrt(0.18)) <= 1e-14
        assert abs(val - 1.50849) <= 1e-4

    def test_degenerate_points_vanish(self):
        assert density_g_unnormalized(np.array([0.5, 0.5])) == 0.0
        assert density_g_unnormalized(np.full(3, 1 / 3)) == 0.0
        assert density_hs_unnormalized(np.array([0.5, 0.5])) == 0.0
        assert density_bures_unnormalized(np.array([0.5, 0.5])) == 0.0

    def test_g_pure_point_rejected(self):
        with pytest.raises(SingularityError):
            density_g_unnormalized(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("eps", [10.0 ** -k for k in range(6, 13)])
    def test_g_qubit_near_pure_has_full_precision(self, eps):
        # 1 - sum l^2 would lose ~1e-16 / (2 eps) relative to cancellation
        val = density_g_unnormalized(np.array([1.0 - eps, eps]))
        ref = (1.0 - 2.0 * eps) ** 2 / np.sqrt(2.0 * eps * (1.0 - eps))
        assert abs(val / ref - 1.0) <= 1e-14

    def test_bures_hand_value(self):
        val = density_bures_unnormalized(np.array([0.9, 0.1]))
        assert abs(val - 0.64 / 0.3) <= 1e-13

    def test_bures_boundary_rejected(self):
        with pytest.raises(SingularityError):
            density_bures_unnormalized(np.array([1.0, 0.0]))
        with pytest.raises(SingularityError):
            density_bures_unnormalized(np.array([0.6, 0.4, 0.0]))

    def test_hs_hand_values(self):
        assert abs(density_hs_unnormalized(np.array([0.9, 0.1])) - 0.64) <= 1e-15
        assert abs(density_hs_unnormalized(np.array([0.6, 0.3, 0.1])) - 0.0009) <= 1e-16

    def test_qubit_g_to_bures_ratio_is_constant(self):
        # on qubits the two measures coincide: the unnormalized ratio is 1/sqrt(2)
        lam = np.linspace(0.05, 0.95, 19)
        pts = np.stack([lam, 1 - lam], axis=-1)
        ratio = (np.asarray(density_g_unnormalized(pts))
                 / np.asarray(density_bures_unnormalized(pts)))
        assert np.max(np.abs(ratio - 1 / np.sqrt(2))) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), dim=st.integers(2, 6),
           perm_seed=st.integers(0, 2 ** 31))
    def test_permutation_symmetry(self, seed, dim, perm_seed):
        gen = np.random.default_rng(seed)
        lam = gen.dirichlet(np.ones(dim))
        if np.any(lam <= 1e-12):
            return
        perm = np.random.default_rng(perm_seed).permutation(dim)
        for fn in (density_hs_unnormalized, density_g_unnormalized,
                   density_bures_unnormalized):
            assert fn(lam) == fn(lam[perm])


class TestNormalizationConstants:
    def test_c_hs_closed_forms(self):
        assert abs(c_hs(2).value - 3.0) <= 1e-12
        assert abs(c_hs(3).value - 1680.0) <= 1e-9
        assert c_hs(2).method == "exact"

    @pytest.mark.parametrize("constant, last, log_c", [(c_hs, 15, "776.6"),
                                                       (c_bures, 19, "750.4")])
    def test_exact_constants_fail_before_overflow(self, constant, last, log_c):
        assert np.isfinite(constant(last).value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no RuntimeWarning from exp
            with pytest.raises(UnsupportedDimensionError,
                               match=f"dim {last + 1} overflows float64: log C = {log_c}"):
                constant(last + 1)

    def test_c_hs_quadrature_crosscheck(self):
        val = simplex_quadrature(density_hs_unnormalized, 2, 1e-11)
        assert abs(val - 1 / 3) <= 1e-10

    def test_c_g_exact_values(self):
        assert abs(c_g_exact(2).value - C2G) <= 1e-12
        assert abs(c_g_exact(3).value - C3G) <= 1e-9
        # the coarser 6-digit target used by the acceptance suite
        assert abs(c_g_exact(3).value - 1030.67) / 1030.67 <= 1e-3

    def test_c_g_exact_unsupported_dim(self):
        with pytest.raises(UnsupportedDimensionError):
            c_g_exact(4)

    def test_c_g_quadrature_crosscheck(self):
        assert abs(1 / c_g_quadrature(2).value - PI_OVER_2SQRT2) <= 1e-6
        assert abs(c_g_quadrature(3).value - C3G) / C3G <= 1e-6

    def test_c_g_quadrature_qubit_to_round_off(self):
        assert abs(c_g_quadrature(2).value - c_g_exact(2).value) <= 2e-14

    @pytest.mark.parametrize("dim, expected", [(4, 273411668.97822), (5, 4.8784056580969e16)])
    def test_c_g_quadrature_beyond_closed_forms(self, dim, expected):
        est = c_g_quadrature(dim)
        assert est.method == "quadrature"
        assert est.value < c_g_jensen_bound(dim).value
        assert abs(est.value / expected - 1.0) <= 1e-12

    def test_jensen_bound_values(self):
        assert abs(c_g_jensen_bound(2).value - 3 / np.sqrt(5)) <= 1e-12
        assert abs(c_g_jensen_bound(3).value - 1680 * np.sqrt(0.4)) <= 1e-9
        assert c_g_exact(2).value <= c_g_jensen_bound(2).value
        assert c_g_exact(3).value <= c_g_jensen_bound(3).value

    def test_jensen_ratio_monotone_to_one(self):
        ratios = [c_g_jensen_bound(n).value / c_hs(n).value for n in range(2, 9)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1.0

    def test_monte_carlo_qubit(self):
        est = c_g_monte_carlo(2, 200_000, RngStream(5))
        assert est.method == "monte-carlo"
        assert est.std_error is not None
        assert abs(est.value - C2G) <= 3 * est.std_error
        # implied expectation E[1/sqrt(1 - purity)] = C_HS / C_G
        assert abs(c_hs(2).value / est.value - 3.332162203618774) <= 0.02

    def test_monte_carlo_qutrit(self):
        est = c_g_monte_carlo(3, 200_000, RngStream(6))
        assert abs(est.value - C3G) <= 3 * est.std_error

    def test_monte_carlo_below_jensen(self):
        est = c_g_monte_carlo(5, 100_000, RngStream(7))
        assert est.value <= c_g_jensen_bound(5).value + 3 * est.std_error

    def test_monte_carlo_at_dim_10(self):
        est = c_g_monte_carlo(10, 100_000, RngStream(10))
        assert np.isfinite(est.value) and est.std_error > 0
        assert est.value <= c_g_jensen_bound(10).value + 3 * est.std_error

    @pytest.mark.parametrize("dim, samples, pure", [(2, 1000, 0), (5, 3 * 4096 + 7, 0),
                                                     (3, 5000, 3), (2, 5000, 3)])
    def test_monte_carlo_radical_equals_the_whole_array_form(self, monkeypatch, dim, samples,
                                                             pure):
        p = hs_purity_batch(dim, samples, RngStream(dim, 9))
        p[:pure] = 1.0   # numerically pure states: discarded at N >= 3
        monkeypatch.setattr(ed, "_hs_purities", lambda *args: p.copy())
        if dim == 2:
            # sampled below u = sqrt(2p - 1) = U over all draws, plus the exact tail above it
            u = ed.QUBIT_TAIL_U
            kept = p
            below = p <= 0.5 * (1 + u * u)
            mean, se = mc_mean(np.where(below, 1.0 / np.sqrt(1.0 - np.where(below, p, 0.0)), 0.0))
            mean += 1.5 * np.sqrt(2.0) * (np.pi / 2 - np.arcsin(u) + u * np.sqrt(1 - u * u))
        else:
            kept = p[p < 1.0 - 1e-14]
            mean, se = mc_mean(1.0 / np.sqrt(1.0 - kept))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InstabilityWarning)
            est = c_g_monte_carlo(dim, samples, RngStream(dim, 9))
        assert est.value == c_hs(dim).value / mean
        assert est.std_error == c_hs(dim).value * se / mean ** 2
        assert est.terms_or_samples == len(kept)

    def test_monte_carlo_memory_is_16_bytes_per_sample(self):
        # the purities, turned into the radical in place, and mc_mean's one
        # temporary; forming the radical by whole-array expressions took 25 B
        n = 2 ** 18
        c_g_monte_carlo(5, 1000, RngStream(0))   # first-use allocations outside the trace
        assert traced_peak(c_g_monte_carlo, 5, n, RngStream(1)) <= 16.5 * n

    def test_monte_carlo_needs_samples(self):
        with pytest.raises(ValueError):
            c_g_monte_carlo(2, 100, RngStream(0))

    def test_monte_carlo_se_scaling(self):
        small = c_g_monte_carlo(3, 50_000, RngStream(8))
        big = c_g_monte_carlo(3, 200_000, RngStream(8))
        assert abs(small.std_error / big.std_error - 2.0) <= 0.4

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            NormalizationEstimate(dim=2, value=1.0, method="exact", std_error=0.1)
        with pytest.raises(ValueError):
            NormalizationEstimate(dim=2, value=-1.0, method="exact")
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                NormalizationEstimate(dim=2, value=bad, method="series")


class TestSeries:
    def test_zeroth_term_is_hs_constant(self):
        est, partial = c_g_series(2, 1, RngStream(9), samples=2000,
                                  return_partial_sums=True)
        assert abs(1 / partial[0] - c_hs(2).value) <= 1e-9

    def test_partial_sums_monotone(self):
        _, partial = c_g_series(2, 40, RngStream(10), samples=20_000,
                                return_partial_sums=True)
        assert np.all(np.diff(partial) > 0)

    def test_estimate_decreases_toward_constant_from_above(self):
        _, partial = c_g_series(2, 200, RngStream(11), samples=50_000,
                                return_partial_sums=True)
        c20 = 1.0 / partial[20]
        c200 = 1.0 / partial[200]
        assert c20 > c200 > C2G  # truncation biases the estimate upward
        assert abs(c200 - C2G) < abs(c20 - C2G)

    def test_truncation_indicator_reported(self):
        est = c_g_series(2, 20, RngStream(12), samples=10_000)
        assert est.truncation_last_term is not None
        assert 0 < est.truncation_last_term < 0.01
        assert est.method == "series"
        assert est.std_error > 0

    def test_tail_estimate(self):
        # same draw at k_max = 20 and 400: the tail fitted to terms 19 and 20
        # should match the terms it stands in for (N = 3 decays like k^-4.5)
        est, partial = c_g_series(3, 20, RngStream(17), samples=10 ** 5,
                                  return_partial_sums=True)
        _, partial400 = c_g_series(3, 400, RngStream(17), samples=10 ** 5,
                                   return_partial_sums=True)
        assert np.array_equal(partial400[:21], partial)
        assert abs(est.truncation_tail / (partial400[400] - partial400[20]) - 1) <= 0.1
        assert est.value == 1.0 / (partial[20] + est.truncation_tail)
        # the tail removes a ~1e-3 truncation bias, several standard errors at 10^6
        est, partial = c_g_series(3, 20, RngStream(17), samples=10 ** 6,
                                  return_partial_sums=True)
        assert abs(est.value - C3G) < abs(1.0 / partial[20] - C3G)
        for dim in range(2, 6):
            for k_max in (1, 20):
                tail = c_g_series(dim, k_max, RngStream(18), samples=2000).truncation_tail
                assert np.isfinite(tail) and tail >= 0

    @pytest.mark.parametrize("dim", [4, 5])
    def test_error_bars_cover_the_quadrature_constant(self, dim):
        # seeds 0..19 fixed in advance, a separate stream per estimator; 3 sigma
        # misses < 1% at the nominal rate, so 18 of 20 leaves room for skew
        exact = c_g_quadrature(dim).value
        hits = {"series": 0, "monte-carlo": 0}
        for seed in range(20):
            for est in (c_g_series(dim, 20, RngStream(seed, 0), samples=10 ** 4),
                        c_g_monte_carlo(dim, 10 ** 4, RngStream(seed, 1))):
                hits[est.method] += abs(est.value - exact) <= 3 * est.std_error
        assert hits["series"] >= 18 and hits["monte-carlo"] >= 18, hits

    def test_error_bar_covers_the_noise_of_the_tail(self):
        # at N = 2 the tail is 0.24 of 1/C and is fitted to the same sampled
        # terms; a bar on the partial sum alone gave sd(z) ~ 2.5 here
        z = [(est.value - C2G) / est.std_error
             for est in (c_g_series(2, 20, RngStream(seed, 60), samples=20_000)
                         for seed in range(100))]
        assert 0.75 <= np.std(z, ddof=1) <= 1.3

    @pytest.mark.parametrize("dim", [12, 13, 14, 15])
    def test_error_bar_where_the_squared_reciprocal_underflows(self, dim):
        # from N = 12, (1/C)^2 is below the smallest float64; the bar is formed
        # in units of 1/C_HS, and on the same purities it is the MC bar
        series = c_g_series(dim, 20, RngStream(19, dim), samples=20_000)
        mc = c_g_monte_carlo(dim, 20_000, RngStream(19, dim))
        assert np.isfinite(series.std_error) and series.std_error > 0
        assert abs(series.std_error / mc.std_error - 1.0) <= 1e-9
        assert abs(series.value / mc.value - 1.0) <= 1e-9

    def test_series_needs_two_samples(self):
        with pytest.raises(ValueError):
            c_g_series(2, 5, RngStream(0), samples=1)

    def test_converges_at_large_truncation_order(self):
        # the 1/C tail decays like 1/sqrt(k): ~0.7% truncation error at k=2e4
        # before the tail estimate is added
        est = c_g_series(2, 20_000, RngStream(13), samples=30_000)
        assert abs(est.value - C2G) / C2G <= 0.025


class TestPurityStatistics:
    def test_closed_form_moments(self):
        assert abs(purity_mean_hs(2) - 0.8) <= 1e-15
        assert abs(purity_mean_hs(3) - 0.6) <= 1e-15
        assert abs(purity_variance_hs(2) - 18 / 1050) <= 1e-15

    def test_mean_decreases_with_dimension(self):
        means = [purity_mean_hs(n) for n in range(2, 17)]
        assert all(b < a for a, b in zip(means, means[1:]))

    def test_mc_moment_matches_mean(self):
        val, se = mc_mean(hs_purity_batch(2, 200_000, RngStream(14)))
        assert abs(val - 0.8) <= 3 * se
        val, se = mc_mean(hs_purity_batch(3, 200_000, RngStream(15)))
        assert abs(val - 0.6) <= 3 * se

    def test_mc_second_moment(self):
        val, se = mc_mean(hs_purity_batch(2, 200_000, RngStream(16)) ** 2)
        assert abs(val - 0.657143) <= max(3 * se, 1e-5)


class TestQubitMarginal:
    def test_cdf_endpoint_and_center_values_exact(self):
        assert cdf_g2(0.0) == 0.0
        assert cdf_g2(1.0) == 1.0
        assert cdf_g2(0.5) == 0.5

    def test_cdf_quarter_value(self):
        # hand evaluation at t = 1/4: (2/pi)(sqrt(3)/8 + pi/6)
        expected = (2 / np.pi) * (np.sqrt(3) / 8 + np.pi / 6)
        assert abs(cdf_g2(0.25) - expected) <= 1e-15
        assert abs(cdf_g2(0.25) - 0.4711655571887814) <= 1e-12

    def test_cdf_domain(self):
        with pytest.raises(DomainError):
            cdf_g2(-0.1)
        with pytest.raises(DomainError):
            cdf_g2(1.1)
        with pytest.raises(DomainError):
            cdf_g2(float("nan"))
        with pytest.raises(DomainError):
            cdf_g2(np.array([0.5, np.nan]))

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(0, 1), b=st.floats(0, 1))
    def test_cdf_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert cdf_g2(lo) <= cdf_g2(hi) + 1e-15

    def test_pdf_values(self):
        assert pdf_g2_marginal(0.5) == 0.0
        expected = (2 / np.pi) * 0.64 / 0.3
        assert abs(pdf_g2_marginal(0.9) - expected) <= 1e-13
        assert abs(pdf_g2_marginal(0.9) - C2G * density_g_unnormalized(np.array([0.9, 0.1]))) <= 1e-12

    def test_pdf_singular_endpoints(self):
        with pytest.raises(SingularityError):
            pdf_g2_marginal(0.0)
        with pytest.raises(DomainError):
            pdf_g2_marginal(1.5)
        with pytest.raises(DomainError):
            pdf_g2_marginal(float("nan"))

    def test_pdf_integrates_to_one(self):
        val = simplex_quadrature(lambda lam: pdf_g2_marginal(lam[..., 0]), 2, 1e-9)
        assert abs(val - 1.0) <= 1e-8

    def test_pdf_is_cdf_derivative(self):
        t = np.linspace(0.05, 0.95, 181)
        h = 1e-5
        fd = (np.asarray(cdf_g2(t + h)) - np.asarray(cdf_g2(t - h))) / (2 * h)
        assert np.max(np.abs(fd - np.asarray(pdf_g2_marginal(t)))) <= 1e-6


class TestDensityGrid:
    def test_barycenter_density_vanishes(self):
        grid = density_grid_qutrit(3, Measure.SUPERFIDELITY)
        at_bary = (np.isclose(grid.lambda1, 1 / 3) & np.isclose(grid.lambda2, 1 / 3))
        assert at_bary.sum() == 1
        assert grid.density[at_bary][0] == 0.0

    def test_permutation_symmetry_is_exact(self):
        def reference(grid):  # the per-point loop that verify's lattice check replaced
            table = {}
            for l1, l2, d in zip(grid.lambda1, grid.lambda2, grid.density):
                key = tuple(np.round(sorted([l1, l2, 1 - l1 - l2]), 12))
                table.setdefault(key, []).append(d)
            return all(np.all(np.isnan(values)) or all(v == values[0] for v in values)
                       for values in table.values())

        grid = density_grid_qutrit(12, Measure.SUPERFIDELITY)
        assert reference(grid) and _permutation_symmetric(grid)
        i, j = np.rint(grid.lambda1 * 12), np.rint(grid.lambda2 * 12)
        grid.density[(i == 1) & (j == 2)] *= 1 + 1e-9  # (1, 2, 9) is on no mirror line
        assert not reference(grid) and not _permutation_symmetric(grid)

    def test_bures_boundary_flagged(self):
        grid = density_grid_qutrit(10, Measure.BURES)
        boundary = (grid.lambda1 == 0) | (grid.lambda2 == 0) | \
                   np.isclose(grid.lambda1 + grid.lambda2, 1.0)
        assert np.all(grid.singular[boundary])
        assert np.all(np.isnan(grid.density[boundary]))
        assert np.all(np.isfinite(grid.density[~boundary]))

    def test_g_only_corners_flagged(self):
        grid = density_grid_qutrit(10, Measure.SUPERFIDELITY)
        assert grid.singular.sum() == 3
        assert np.isfinite(grid.density[~grid.singular]).all()

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            density_grid_qutrit(1)

    @pytest.mark.parametrize("measure", [Measure.SUPERFIDELITY, Measure.BURES])
    @pytest.mark.parametrize("resolution", [2, 90, 400])
    def test_blocks_equal_one_whole_evaluation(self, measure, resolution):
        grid = density_grid_qutrit(resolution, measure)
        r = np.arange(resolution + 1)
        i, j = np.nonzero(np.add.outer(r, r) <= resolution)
        lam = np.stack([i, j, resolution - i - j], axis=-1) / resolution
        whole = np.full(len(i), np.nan)
        whole[~grid.singular] = normalized_density(measure, 3)(lam[~grid.singular])
        assert grid.density.tobytes() == whole.tobytes()
        assert grid.lambda1.tobytes() == lam[:, 0].tobytes()
        assert grid.lambda2.tobytes() == lam[:, 1].tobytes()

    def test_memory_grows_only_with_the_lattice(self):
        density_grid_qutrit(40, Measure.BURES)   # first-use allocations outside the trace
        peaks = {res: traced_peak(density_grid_qutrit, res, Measure.BURES) for res in (400, 800)}
        points = 801 * 802 // 2 - 401 * 402 // 2
        # the index arrays and the result, ~49 B per point; one whole-lattice
        # evaluation of the density took ~210 B per point
        assert peaks[800] - peaks[400] <= 64 * points

    def test_lattice_order_is_i_major(self):
        res = 7
        grid = density_grid_qutrit(res, Measure.BURES)
        pairs = [(i, j) for i in range(res + 1) for j in range(res + 1 - i)]
        assert np.array_equal(grid.lambda1, np.array([i for i, _ in pairs]) / res)
        assert np.array_equal(grid.lambda2, np.array([j for _, j in pairs]) / res)

    @pytest.mark.parametrize("measure", list(Measure))
    def test_values_are_the_normalized_density(self, measure):
        res = 15
        grid = density_grid_qutrit(res, measure)
        ii = np.rint(grid.lambda1 * res)
        jj = np.rint(grid.lambda2 * res)
        lam = np.stack([grid.lambda1, grid.lambda2, (res - ii - jj) / res], axis=-1)
        ok = ~grid.singular
        expected = normalized_density(measure, 3)(lam[ok])
        assert np.array_equal(grid.density[ok], expected)

    def test_grid_integral_near_one(self):
        for measure in (Measure.SUPERFIDELITY, Measure.BURES):
            total = grid_integral(density_grid_qutrit(200, measure))
            assert abs(total - 1.0) <= 0.02

    @pytest.mark.parametrize("measure", list(Measure))
    def test_grid_integral_within_5_percent_from_resolution_100(self, measure):
        assert abs(grid_integral(density_grid_qutrit(100, measure)) - 1.0) <= 0.05

    def test_grid_integral_refuses_unchecked_resolutions(self):
        # at resolution 40 the G total is 1.39
        with pytest.raises(ValueError, match="resolution >= 100"):
            grid_integral(density_grid_qutrit(99, Measure.SUPERFIDELITY))

    def test_bures_constant_from_quadrature(self):
        # the qubit value is 2/pi
        assert abs(c_bures(2).value - 2 / np.pi) <= 1e-9
        assert abs(c_bures(3).value - 11.140846) <= 1e-4

    @pytest.mark.parametrize("dim, rtol", [(2, 1e-12), (3, 2e-8), (4, 2e-8)])
    def test_bures_closed_form_matches_the_rule(self, dim, rtol):
        # the orders differ by 1.2e-9 at N = 3: the Bures corners converge algebraically
        val = simplex_quadrature(density_bures_unnormalized, dim, 1e-8)
        assert abs(val * c_bures(dim).value - 1.0) <= rtol

    def test_normalized_bures_integrates_to_one_at_dim4(self):
        # normalized, the order gap at N = 4 is 1.2e-7 absolute; the finer
        # order itself is within 2e-8 of 1
        val = simplex_quadrature(normalized_density(Measure.BURES, 4), 4, 2e-7)
        assert abs(val - 1.0) <= 2e-8

    def test_qubit_g_measure_equals_bures_pointwise(self):
        lam = np.linspace(0.02, 0.98, 97)
        pts = np.stack([lam, 1 - lam], axis=-1)
        g_norm = c_g_exact(2).value * np.asarray(density_g_unnormalized(pts))
        b_norm = c_bures(2).value * np.asarray(density_bures_unnormalized(pts))
        assert np.max(np.abs(g_norm - b_norm)) <= 1e-10


class TestInstabilityGuard:
    def test_near_pure_samples_trigger_warning(self, monkeypatch):
        import superfid.eigendensities as ed

        def fake_purities(dim, samples, rng):
            p = np.full(samples, 0.6)
            p[: max(1, samples // 100)] = 1.0 - 1e-16  # 1% numerically pure
            return p

        monkeypatch.setattr(ed, "_hs_purities", fake_purities)
        with pytest.warns(InstabilityWarning):
            ed.c_g_monte_carlo(3, 10_000, RngStream(0))
        # at N = 2 they lie above the sampled range, so they count as 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", InstabilityWarning)
            assert ed.c_g_monte_carlo(2, 10_000, RngStream(0)).terms_or_samples == 10_000
