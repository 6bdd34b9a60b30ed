import sys
import threading
import time
import warnings
from math import lgamma

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from superfid import (EnvelopeAudit, EnvelopeAuditError, InvalidDimensionError, Measure,
                      RejectionReport, RngStream, SamplingBudgetError,
                      audit_sup_density_ratio, cdf_g2,
                      chi_square_gof_simplex, check_density_matrix,
                      ginibre_batch, haar_unitary_batch,
                      hs_purity_batch, invert_cdf_g2, ks_test,
                      ks_test_two_sample, log_rejection_constant_c, mc_mean,
                      purity_mean_hs, purity_variance_hs, rejection_constant_c,
                      sample_batch, sample_blocks, sample_g_rejection_batch, sample_hs_batch,
                      simplex_quadrature, sup_density_ratio_unnormalized)
from superfid import samplers
from superfid.eigendensities import _g_radicand, c_g_exact, c_hs, normalized_density
from superfid.rng import GOF_SHUFFLE_KIND, VERIFY_KIND


def _log_c_induced(dim, s):
    """log of Gamma(N (N - s)) / prod_j Gamma(j - s) Gamma(j + 1), which normalizes
    the induced eigenvalue density prod l^(-s) Delta^2 on the simplex."""
    return lgamma(dim * (dim - s)) - sum(lgamma(j - s) + lgamma(j + 1)
                                         for j in range(1, dim + 1))


def _induced_acceptance_rate(dim):
    """Theoretical acceptance C_s / (C_N^G M_s) of the rejection sampler.

    Its proposals have the induced density with s = 3 / (4 (N - 1)), and
    M_s = N^(-s N) / sqrt(1 - 1/N) bounds the ratio (prod l)^s / sqrt(1 - sum l^2).
    """
    s = 0.75 / (dim - 1)
    log_m = -s * dim * np.log(dim) - 0.5 * np.log1p(-1.0 / dim)
    return np.exp(_log_c_induced(dim, s) - log_m) / c_g_exact(dim).value


def log_ratio_of_spectra(eigs):
    """The sampler's log rejection ratio at a (..., N) stack of simplex points."""
    eigs = np.asarray(eigs, dtype=float)
    with np.errstate(divide="ignore"):
        log_prod = np.sum(np.log(eigs), axis=-1)
    return samplers._log_ratio_from_invariants(eigs.shape[-1], log_prod, _g_radicand(eigs))


def sample_bures_batch(dim, count, rng):
    """The Bures matrices of ``sample_batch``."""
    return sample_batch(Measure.BURES, dim, count, rng, keep_matrices=True)[0]


class _FixedDraws(np.random.Generator):
    """A Generator whose uniform draws are the given values."""

    def __init__(self, draws):
        super().__init__(np.random.PCG64(0))
        self._draws = draws

    def random(self, size=None):
        return self._draws


class TestHilbertSchmidtSampler:
    def test_single_state_valid(self):
        for dim in (2, 3, 5):
            check_density_matrix(sample_hs_batch(dim, 1, RngStream(dim))[0])

    def test_mean_and_variance_of_purity(self):
        _, eigs, _ = sample_batch(Measure.HILBERT_SCHMIDT, 2, 100_000, RngStream(1))
        purity = np.sum(eigs ** 2, axis=-1)
        mean, se = mc_mean(purity)
        assert abs(mean - purity_mean_hs(2)) <= 3 * se
        var = purity.var(ddof=1)
        assert abs(var - purity_variance_hs(2)) <= 3e-4

    def test_eigenvalue_law_chi_square(self):
        _, eigs, _ = sample_batch(Measure.HILBERT_SCHMIDT, 2, 50_000, RngStream(2))
        # lambda_max on [1/2, 1] has density 3 (2x - 1)^2 and CDF (2x - 1)^3
        res = ks_test(eigs[:, 0], lambda x: (2 * np.asarray(x) - 1) ** 3)
        assert res.p_value > 0.01

    def test_dim_validation(self):
        with pytest.raises(InvalidDimensionError):
            sample_hs_batch(1, 1, RngStream(0))


class TestHsPurityBatch:
    BLOCK = samplers._BLOCK

    @staticmethod
    def serial_reference(dim, count, rng):
        # block b: its own keyed generator, its gamma rows and the allocating
        # form of the trace and e_2
        ref = [np.empty(0)]
        for b, start in enumerate(range(0, count, TestHsPurityBatch.BLOCK)):
            z = samplers._laguerre_tridiagonal(dim, min(TestHsPurityBatch.BLOCK, count - start),
                                               0.0, rng.block(samplers._HS_PURITY_KIND, b))
            trace, e2 = samplers._trace_and_e2(z)
            ref.append(1.0 - 2.0 * e2 / (trace * trace))
        return np.concatenate(ref)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_blocks_equal_one_whole_batch(self, dim):
        # the threaded run equals one serial pass over the blocks in order
        b = self.BLOCK
        for count in (0, 1, b - 1, b, b + 1, 3 * b + 5):
            got = hs_purity_batch(dim, count, RngStream(count, dim))
            assert got.tobytes() == self.serial_reference(dim, count, RngStream(count, dim)).tobytes()

    @pytest.mark.parametrize("dim", [2, 5])
    def test_reduced_blocks_are_the_batch(self, dim):
        # the block loop hands each block's purities to reduce once, and returns
        # the results in block order: here they are the blocks of the batch
        b = self.BLOCK
        for count in (0, 1, b, 3 * b + 5):
            blocks = samplers.reduce_hs_purities(dim, count, RngStream(count, dim),
                                                 lambda start, p: (start, p.copy()))
            assert [start for start, _ in blocks] == list(range(0, count, b))
            got = np.concatenate([np.empty(0)] + [p for _, p in blocks])
            assert got.tobytes() == hs_purity_batch(dim, count, RngStream(count, dim)).tobytes()

    def test_a_prefix_of_whole_blocks_is_a_shorter_run(self):
        b = self.BLOCK
        whole = hs_purity_batch(4, 5 * b + 7, RngStream(25))
        for blocks in (1, 2, 3, 5):
            assert whole[:blocks * b].tobytes() == hs_purity_batch(4, blocks * b,
                                                                   RngStream(25)).tobytes()

    def test_repeated_runs_are_identical(self):
        # the blocks are split between two threads; the values must not depend on
        # timing, also with three callers at once (six threads on any core count)
        # and a short switch interval
        count = 6 * self.BLOCK + 3
        first = hs_purity_batch(3, count, RngStream(26)).tobytes()
        results = []

        def run():
            for _ in range(20):
                results.append(hs_purity_batch(3, count, RngStream(26)).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=run) for _ in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert len(results) == 60 and all(r == first for r in results)

    def test_takes_only_a_stream(self):
        with pytest.raises(TypeError, match="RngStream"):
            hs_purity_batch(3, 10, RngStream(0).block(VERIFY_KIND, 0))

    def test_helper_error_is_raised_after_the_join(self, monkeypatch):
        block = RngStream.block

        def failing_block(rng, kind, index):
            if index == 3:   # an odd block: drawn on the helper thread
                raise RuntimeError("block 3 failed")
            return block(rng, kind, index)

        monkeypatch.setattr(RngStream, "block", failing_block)
        with pytest.raises(RuntimeError, match="block 3 failed"):
            hs_purity_batch(3, 6 * self.BLOCK, RngStream(0))
        assert not any(t.name == "superfid-hs-purity" for t in threading.enumerate())

    def test_qubit_law(self):
        # exact law of the qubit purity: P(p <= x) = (2x - 1)^(3/2) on [1/2, 1]
        p = hs_purity_batch(2, 200_000, RngStream(21))
        res = ks_test(p, lambda x: np.clip(2.0 * np.asarray(x) - 1.0, 0.0, None) ** 1.5)
        assert res.p_value > 1e-3

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_law_matches_ginibre_purities(self, dim):
        n, chunk = 200_000, 20_000
        gen = RngStream(22, dim).block(VERIFY_KIND, 0)
        ref = np.empty(n)
        for start in range(0, n, chunk):
            g = ginibre_batch(dim, chunk, gen)
            w = g @ np.swapaxes(g.conj(), -2, -1)
            tr = np.trace(w, axis1=-2, axis2=-1).real
            ref[start:start + chunk] = np.sum(np.abs(w) ** 2, axis=(-2, -1)) / tr ** 2
        res = ks_test_two_sample(hs_purity_batch(dim, n, RngStream(23, dim)), ref)
        assert res.p_value > 1e-3

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 10])
    def test_mean_and_variance(self, dim):
        p = hs_purity_batch(dim, 100_000, RngStream(24, dim))
        mean, se = mc_mean(p)
        assert abs(mean - purity_mean_hs(dim)) <= 3 * se
        var, se_var = mc_mean((p - mean) ** 2)
        assert abs(var - purity_variance_hs(dim)) <= 3 * se_var

    def test_memory_is_bounded_by_the_block(self):
        b = self.BLOCK
        hs_purity_batch(5, b, RngStream(0))   # first-use allocations outside the trace
        small = traced_peak(hs_purity_batch, 5, 4 * b, RngStream(1))
        large = traced_peak(hs_purity_batch, 5, 16 * b, RngStream(1))
        # a whole-batch Ginibre build would need ~1.2 kB per state, ~80 MB here
        assert large < 16 * 2 ** 20
        # beyond the block's scratch, only the 8 B per state of the result grows
        assert large - small <= 8 * 12 * b + 4096

    def test_count_validation(self):
        assert hs_purity_batch(3, 0, RngStream(0)).shape == (0,)
        with pytest.raises(ValueError, match="count"):
            hs_purity_batch(3, -1, RngStream(0))


class TestEveryStateValid:
    @pytest.mark.parametrize("measure", ["hs", "bures", "g"])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_batch_passes_the_density_matrix_checks(self, measure, dim):
        # every batch sampler: HS, Bures, the qubit G sampler and G rejection
        mats, _, _ = sample_batch(measure, dim, 200, RngStream(dim, 7), keep_matrices=True)
        assert check_density_matrix(mats).shape == (200, dim, dim)

    @pytest.mark.parametrize("sampler", [sample_hs_batch, sample_bures_batch])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_hs_and_bures_are_exactly_hermitian(self, sampler, dim):
        mats = sampler(dim, 2000, RngStream(dim, 8))
        assert np.array_equal(mats, mats.conj().swapaxes(-2, -1))


class TestBuresSampler:
    def test_single_state_valid(self):
        for dim in (2, 3, 4):
            check_density_matrix(sample_bures_batch(dim, 1, RngStream(10 + dim))[0])

    def test_qubit_eigenvalue_law(self):
        _, eigs, _ = sample_batch(Measure.BURES, 2, 50_000, RngStream(11))
        # the qubit Bures density is the G one, so lambda_max has CDF 2 F_G,2 - 1
        res = ks_test(eigs[:, 0], lambda x: 2 * np.asarray(cdf_g2(x)) - 1)
        assert res.p_value > 0.01

    def test_qubit_matches_g_measure(self):
        # on qubits the superfidelity measure coincides with Bures
        _, bures, _ = sample_batch(Measure.BURES, 2, 50_000, RngStream(12))
        _, eg, _ = sample_batch(Measure.SUPERFIDELITY, 2, 50_000, RngStream(13))
        res = ks_test_two_sample(bures[:, 0], eg[:, 0])
        assert res.p_value > 0.01

    def test_validity_sweep(self):
        mats, eigs, _ = sample_batch(Measure.BURES, 3, 2000, RngStream(14),
                                     keep_matrices=True)
        assert eigs.min() >= 0.0
        check_density_matrix(mats)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_blocks_equal_one_whole_batch(self, dim):
        # the blocked run equals one serial pass over the blocks in order, each
        # block drawing its unitaries, then its Ginibre matrices, from its own
        # keyed generator
        b = samplers._BURES_BLOCK
        for count in (1, b - 1, b, b + 1, 2 * b + 5):
            ref = [np.empty((0, dim, dim), dtype=complex)]
            for k, start in enumerate(range(0, count, b)):
                n = min(b, count - start)
                gen = RngStream(count, dim).block(samplers._BURES_KIND, k)
                u = haar_unitary_batch(dim, n, gen)
                g = ginibre_batch(dim, n, gen)
                ref.append(samplers._normalized_gram((np.eye(dim) + u) @ g))
            out = sample_bures_batch(dim, count, RngStream(count, dim))
            assert out.tobytes() == np.concatenate(ref).tobytes()


class TestInverseCdf:
    def test_endpoints_exact(self):
        assert invert_cdf_g2(0.0) == 0.0
        assert invert_cdf_g2(1.0) == 1.0
        assert invert_cdf_g2(0.5) == 0.5

    def test_known_inverse(self):
        u = float(cdf_g2(0.25))
        assert abs(invert_cdf_g2(u) - 0.25) <= 1e-6

    @settings(max_examples=80, deadline=None)
    @given(u=st.floats(1e-3, 1 - 1e-3))
    def test_roundtrip_tolerance(self, u):
        t = invert_cdf_g2(u)
        assert abs(float(cdf_g2(t)) - u) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(u=st.floats(0.0, 1.0))
    def test_roundtrip_near_endpoints(self, u):
        # within ~1e-4 of u = 1 the CDF's representable-value spacing
        # ulp(t) * pdf(t) exceeds 1e-12, so only a weaker bound is meaningful
        t = invert_cdf_g2(u)
        assert abs(float(cdf_g2(t)) - u) <= 3e-8

    def test_vectorized_matches_scalar(self):
        us = np.linspace(0.001, 0.999, 101)
        vec = np.asarray(invert_cdf_g2(us))
        assert np.max(np.abs(np.asarray(cdf_g2(vec)) - us)) <= 1e-12
        for u, t in zip(us, vec):
            assert invert_cdf_g2(float(u)) == t

    def test_relative_precision_of_small_eigenvalue(self, monkeypatch):
        # the smaller eigenvalue t = sin^2(psi/4) solves psi + sin psi = 2 pi u
        # to full relative precision, on both sides of u = 1/2
        u = 10.0 ** -np.arange(2, 151)

        def kepler_rel_err(t, v):
            psi = 4.0 * np.arcsin(np.sqrt(t))
            return np.max(np.abs((psi + np.sin(psi)) / (2.0 * np.pi * v) - 1.0))

        assert kepler_rel_err(np.asarray(invert_cdf_g2(u)), u) <= 1e-14
        high = 1.0 - u[u > 1e-16]  # below 1e-16, 1 - u rounds to 1
        for draws, v in ((u, u), (high, 1.0 - high)):
            monkeypatch.setattr(RngStream, "block", lambda rng, kind, b: _FixedDraws(draws))
            _, eigs, _ = sample_batch(Measure.SUPERFIDELITY, 2, draws.size, RngStream(0))
            assert kepler_rel_err(eigs[:, 1], v) <= 1e-14

    def test_fails_closed_on_a_bad_residual(self, monkeypatch):
        monkeypatch.setattr(samplers, "cdf_g2", lambda t: np.asarray(cdf_g2(t)) + 1e-6)
        with pytest.raises(RuntimeError):
            invert_cdf_g2(np.linspace(0.1, 0.9, 9))

    def test_domain_validation(self):
        for bad in (1.5, -0.1, float("nan"), np.array([0.5, np.nan])):
            with pytest.raises(ValueError):
                invert_cdf_g2(bad)


class TestQubitGSampler:
    @staticmethod
    def draw(count, rng, keep_matrices):
        return sample_batch(Measure.SUPERFIDELITY, 2, count, rng, keep_matrices=keep_matrices)

    def test_single_state_valid(self):
        check_density_matrix(self.draw(1, RngStream(20), True)[0][0])

    def test_matrices_are_not_kept_by_default(self):
        # the same default as sample_g_rejection_batch
        assert sample_batch(Measure.SUPERFIDELITY, 2, 5, RngStream(20))[0] is None

    def test_mean_purity_exceeds_hs_and_matches_quadrature(self):
        _, eigs, _ = self.draw(100_000, RngStream(22), False)
        purity = np.sum(eigs ** 2, axis=-1)
        mean, se = mc_mean(purity)
        quad = simplex_quadrature(
            lambda lam: np.sum(lam ** 2, axis=-1) * 0.9003163161571068
            * (lam[..., 0] - lam[..., 1]) ** 2 / np.sqrt(1 - np.sum(lam ** 2, axis=-1)), 2, 1e-9)
        assert abs(quad - 0.875) <= 1e-9  # analytic value of E[purity] under this law
        assert abs(mean - quad) <= 3 * se
        assert mean > purity_mean_hs(2)

    def test_bloch_direction_isotropic(self):
        mats, _, _ = self.draw(20_000, RngStream(23), True)
        bloch = np.stack([2 * mats[:, 0, 1].real,
                          -2 * mats[:, 0, 1].imag,
                          (mats[:, 0, 0] - mats[:, 1, 1]).real], axis=-1)
        for axis in range(3):
            mean, se = mc_mean(bloch[:, axis])
            assert abs(mean) <= 3 * se

    def test_memory_is_bounded_by_the_block(self):
        b = samplers._BLOCK
        self.draw(b, RngStream(0), False)   # first-use allocations outside the trace
        small = traced_peak(self.draw, 4 * b, RngStream(1), False)
        large = traced_peak(self.draw, 16 * b, RngStream(1), False)
        # a whole-batch inverse CDF keeps ~64 B per state of temporaries, ~4 MB here
        assert large < 3 * 2 ** 20
        # beyond the block's scratch, only the spectra grow: 16 B per state
        assert large - small <= 16 * 12 * b + 4096

    def test_memory_with_matrices_is_bounded_by_the_block(self):
        b = samplers._BLOCK
        self.draw(b, RngStream(0), True)   # first-use allocations outside the trace
        small = traced_peak(self.draw, 4 * b, RngStream(1), True)
        large = traced_peak(self.draw, 16 * b, RngStream(1), True)
        # a whole-batch rotation keeps ~330 B per state of temporaries, ~21 MB here
        assert large < 8 * 2 ** 20
        # beyond the block's scratch, only the spectra and matrices grow:
        # 16 + 64 B per state
        assert large - small <= 80 * 12 * b + 4096


class TestEnvelope:
    def test_sup_closed_forms(self):
        assert abs(sup_density_ratio_unnormalized(2) - 1 / np.sqrt(2)) <= 1e-15
        # N^{-N/2} (2/N)^{N(N-1)/2} / sqrt(1 - 1/N) at N = 3
        expected = 3.0 ** -1.5 * (2 / 3) ** 3 / np.sqrt(2 / 3)
        assert abs(sup_density_ratio_unnormalized(3) - expected) <= 1e-15

    def test_audit_passes(self):
        # the scan reaches within 1e-16 of the vertices without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for dim in range(2, 9):
                audit = audit_sup_density_ratio(dim)
                assert isinstance(audit, EnvelopeAudit)
                assert audit.passed
                assert audit.max_ratio <= audit.bound * (1 + 1e-9)

    @pytest.mark.parametrize("dim", [*range(2, 13), 20, 50, 100])
    def test_gate_passes(self, monkeypatch, dim):
        monkeypatch.setattr(samplers, "_audit_gate_cache", {})
        samplers._audit_gate(dim)
        audit = samplers._audit_gate_cache[dim]
        assert audit.passed
        assert abs(audit.max_ratio / audit.bound - 1) <= 1e-14

    def test_audit_maximum_sits_at_barycenter(self):
        audit = audit_sup_density_ratio(3)
        assert np.max(np.abs(audit.argmax - 1 / 3)) <= 1e-8

    @pytest.mark.parametrize("dim", range(3, 9))
    def test_no_random_point_beats_the_audit(self, dim):
        # scored from the points' coordinates, not from the families' closed forms
        gen = RngStream(40, dim).block(VERIFY_KIND, 0)
        points = np.concatenate([gen.dirichlet(np.ones(dim), size=10_000),
                                 gen.dirichlet(np.full(dim, 0.1), size=10_000)])
        audit = audit_sup_density_ratio(dim)
        assert np.max(log_ratio_of_spectra(points)) <= np.log(audit.max_ratio)

    @pytest.mark.parametrize("dim", [2, 3, 4, 7, 12])
    def test_family_invariants_match_the_points(self, dim):
        # from 1e-16 of one end of each family to 1e-16 of the other
        x = np.linspace(-37.0, 37.0, 101)
        for k in range(1, dim // 2 + 1):
            a, b = samplers._family_values(dim, k, x)
            points = np.concatenate([np.repeat(a[:, None], k, axis=1),
                                     np.repeat(b[:, None], dim - k, axis=1)], axis=1)
            assert np.max(np.abs(points.sum(axis=1) - 1)) <= 1e-15
            log_prod, radicand = samplers._family_invariants(dim, k, a, b)
            assert np.allclose(log_prod, np.sum(np.log(points), axis=1), rtol=1e-14, atol=0)
            assert np.allclose(radicand, _g_radicand(points), rtol=1e-12, atol=0)

    def test_vertices_give_zero_ratio_without_warnings(self):
        # Sum log l = -inf meets -1/2 log(radicand) = +inf at a vertex
        stack = np.array([[1.0, 0.0, 0.0], [0.5, 0.3, 0.2], [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0], [0.4, 0.4, 0.2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for vertex in ([1.0, 0.0, 0.0], [1.0, 0.0]):
                assert np.exp(log_ratio_of_spectra(np.array(vertex))) == 0.0
            vals = np.exp(log_ratio_of_spectra(stack))
            assert np.array_equal(vals == 0.0, [True, False, True, True, False])
            assert np.all(np.isfinite(vals))


class TestEnvelopeFailsClosed:
    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_unbounded_ratio_fails_the_audit(self, monkeypatch, dim):
        # below s = 1 / (2 (N - 1)) the ratio grows without bound near the
        # vertices, so the maximally mixed point is no longer the sup
        monkeypatch.setattr(samplers, "_induced_exponent", lambda n: 0.3 / (n - 1))
        monkeypatch.setattr(samplers, "_audit_gate_cache", {})
        audit = audit_sup_density_ratio(dim)
        assert not audit.passed
        with pytest.raises(EnvelopeAuditError, match=f"envelope audit failed for dim {dim}"):
            sample_g_rejection_batch(dim, 10, RngStream(62))

    def test_gate_raises_when_the_bound_is_below_the_sup(self, monkeypatch):
        log_bound = samplers._log_envelope_bound
        monkeypatch.setattr(samplers, "_log_envelope_bound", lambda dim: log_bound(dim) - 1e-6)
        monkeypatch.setattr(samplers, "_audit_gate_cache", {})
        with pytest.raises(EnvelopeAuditError, match="envelope audit failed for dim 3"):
            sample_g_rejection_batch(3, 10, RngStream(60))

    def test_threads_on_a_cold_cache_run_one_audit(self, monkeypatch):
        monkeypatch.setattr(samplers, "_audit_gate_cache", {})
        calls = []
        audit = samplers.audit_sup_density_ratio

        def slow_audit(*args, **kwargs):
            calls.append(args[0])
            time.sleep(0.2)   # keeps the other threads at the gate meanwhile
            return audit(*args, **kwargs)

        monkeypatch.setattr(samplers, "audit_sup_density_ratio", slow_audit)
        n_threads = 4   # more than the cores of a small machine
        start = threading.Barrier(n_threads)
        eigs = {}

        def draw(seed):
            start.wait()
            eigs[seed] = sample_g_rejection_batch(3, 10, RngStream(seed))[1]

        threads = [threading.Thread(target=draw, args=(seed,)) for seed in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert calls == [3]
        assert sorted(eigs) == list(range(n_threads))
        assert samplers._audit_gate_cache[3].passed

    def test_block_check_raises_when_a_ratio_exceeds_the_bound(self, monkeypatch):
        monkeypatch.setattr(samplers, "_audit_gate_cache", {})
        sample_g_rejection_batch(3, 10, RngStream(61))
        assert samplers._audit_gate_cache[3].passed
        log_ratio = samplers._log_ratio_from_invariants

        def one_above(dim, log_prod, radicand):
            out = log_ratio(dim, log_prod, radicand)
            out[0] = samplers._log_envelope_bound(dim) + 1e-6
            return out

        monkeypatch.setattr(samplers, "_log_ratio_from_invariants", one_above)
        with pytest.raises(EnvelopeAuditError, match="exceeded the envelope bound"):
            sample_g_rejection_batch(3, 10, RngStream(61))

    def test_block_check_raises_on_a_nan_ratio(self, monkeypatch):
        monkeypatch.setattr(samplers, "_audit_gate_cache", {})
        sample_g_rejection_batch(3, 10, RngStream(61))
        log_ratio = samplers._log_ratio_from_invariants

        def one_nan(dim, log_prod, radicand):
            out = log_ratio(dim, log_prod, radicand)
            out[-1] = np.nan
            return out

        monkeypatch.setattr(samplers, "_log_ratio_from_invariants", one_nan)
        with pytest.raises(EnvelopeAuditError, match="exceeded the envelope bound"):
            sample_g_rejection_batch(3, 10, RngStream(61))


class TestRejectionConstant:
    def test_qutrit_value(self):
        assert abs(rejection_constant_c(3) - 6.6606) <= 1e-3

    def test_growth_with_dimension(self):
        # growth over N = 3..8 is the verify check sampler/rejection-constant-grows
        assert rejection_constant_c(2) > 0.0
        assert np.isfinite(log_rejection_constant_c(30))


class TestRejectionSampler:
    def test_single_sample(self):
        mats, _, report = sample_g_rejection_batch(3, 1, RngStream(40), keep_matrices=True)
        check_density_matrix(mats[0])
        assert report.accepted == 1
        assert report.proposed >= 1
        assert report.empirical_rate == report.accepted / report.proposed

    def test_dim2_refused(self):
        with pytest.raises(InvalidDimensionError):
            sample_g_rejection_batch(2, 1, RngStream(0))

    def test_budget_exhaustion_carries_report(self):
        with pytest.raises(SamplingBudgetError) as info:
            sample_g_rejection_batch(3, 1000, RngStream(41), max_proposals=1)
        report = info.value.report
        assert isinstance(report, RejectionReport)
        assert report.proposed == 1000
        assert report.accepted < 1000

    def test_empirical_rate_follows_the_counts(self):
        assert RejectionReport(proposed=0, accepted=0, bound_constant=1.0).empirical_rate == 0.0
        assert RejectionReport(proposed=8, accepted=2, bound_constant=1.0).empirical_rate == 0.25
        with pytest.raises(SamplingBudgetError) as info:
            sample_g_rejection_batch(3, 5, RngStream(41), max_proposals=1)
        report = info.value.report
        assert report.proposed == 5 and report.accepted < 5
        assert report.empirical_rate == report.accepted / 5

    def test_last_block_counts_up_to_the_last_kept_accept(self):
        # at seed 8 the 1951st accept is proposal 4091, the last of the first
        # block's accepts, so count=1951 ends the block with no overshoot to trim
        _, eigs_short, short = sample_g_rejection_batch(3, 1950, RngStream(8))
        _, eigs_exact, exact = sample_g_rejection_batch(3, 1951, RngStream(8))
        assert (short.proposed, exact.proposed) == (4091, 4092)
        assert exact.accepted == len(eigs_exact) == 1951
        np.testing.assert_array_equal(eigs_exact[:1950], eigs_short)

    def test_zero_count_returns_empty_arrays(self):
        mats, eigs, report = sample_g_rejection_batch(3, 0, RngStream(46), keep_matrices=True)
        assert mats.shape == (0, 3, 3) and eigs.shape == (0, 3)
        assert report.proposed == report.accepted == 0
        _, eigs, _ = sample_g_rejection_batch(4, 0, RngStream(46))
        assert eigs.shape == (0, 4)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            sample_g_rejection_batch(3, -5, RngStream(46))

    def test_eigenvalue_law_chi_square(self):
        _, eigs, report = sample_g_rejection_batch(3, 20_000, RngStream(42))
        res = chi_square_gof_simplex(eigs, normalized_density(Measure.SUPERFIDELITY, 3),
                                     grid=10, rng=RngStream(43))
        assert res.p_value > 0.01
        # theoretical acceptance rate C_s / (C_G * M_s) ~ 0.4755; C_0 is C_HS
        assert abs(np.exp(_log_c_induced(3, 0.0)) / c_hs(3).value - 1.0) <= 1e-12
        assert abs(report.empirical_rate - _induced_acceptance_rate(3)) <= 0.01

    def test_acceptance_is_binomial_at_the_exact_rate(self):
        # the rate is 1 / (C_3^G M_s C_s), with M_s the envelope bound and C_s
        # = prod_j Gamma(1 - s + j) Gamma(j + 2) / Gamma(N (N - s)) the Selberg
        # integral of the proposal density
        dim, s = 3, samplers._induced_exponent(3)
        log_c_s = (sum(lgamma(1 - s + j) + lgamma(j + 2) for j in range(dim))
                   - lgamma(dim * (dim - s)))
        rate = 1.0 / (c_g_exact(dim).value
                      * np.exp(samplers._log_envelope_bound(dim) + log_c_s))
        assert abs(rate - 0.475516) <= 5e-7
        _, _, report = sample_g_rejection_batch(3, 200_000, RngStream(57))
        from scipy.stats import binomtest
        assert binomtest(report.accepted, report.proposed, rate).pvalue > 1e-3

    @staticmethod
    def proposals_and_spectra(dim, seed):
        """20 000 proposal blocks z, their traces, and their spectra as the squared
        singular values of the bidiagonal factor, which keep full relative
        precision in the small eigenvalues; eigvalsh(W) loses it there."""
        n = 20_000
        z = samplers._laguerre_tridiagonal(dim, n, samplers._induced_exponent(dim),
                                           RngStream(seed, dim).block(VERIFY_KIND, 0))
        trace = samplers._trace_and_e2(z)[0]
        k = np.arange(dim)
        factor = np.zeros((n, dim, dim))
        factor[:, k, k] = np.sqrt(z[0::2].T)
        factor[:, k[:-1], k[1:]] = np.sqrt(z[1::2].T)
        return z, trace, np.linalg.svd(factor, compute_uv=False) ** 2 / trace[:, None]

    @pytest.mark.parametrize("dim", range(3, 9))
    def test_invariant_log_ratio_matches_the_spectrum(self, dim):
        # the sampler's ratio from tr W, det W and e_2(W) against the ratio of
        # the spectrum, which eigvalsh(W) would miss by up to ~3e-9 in the log
        z, _, eigs = self.proposals_and_spectra(dim, 58)
        trace, got = samplers._log_ratio_of_tridiagonal(z)
        assert np.max(np.abs(got - log_ratio_of_spectra(eigs))) <= 1e-9
        # the accepted spectra, from eigvalsh of W and the exact determinant
        assert np.max(np.abs(samplers._induced_spectra(z, trace) - eigs)) <= 1e-14

    @pytest.mark.parametrize("dim", [3, 4, 10])
    def test_smallest_eigenvalue_has_full_relative_precision(self, dim):
        # eigvalsh(W) alone leaves lambda_min up to ~3e-8 off in relative terms
        z, trace, eigs = self.proposals_and_spectra(dim, 59)
        got = samplers._induced_spectra(z, trace)[:, -1]
        assert np.max(np.abs(got / eigs[:, -1] - 1.0)) <= 1e-12

    def test_rate_stable_across_seeds(self):
        _, _, r1 = sample_g_rejection_batch(3, 20_000, RngStream(44))
        _, _, r2 = sample_g_rejection_batch(3, 20_000, RngStream(45))
        p = _induced_acceptance_rate(3)
        se = np.sqrt(2 * p * (1 - p) / r1.proposed)
        assert abs(r1.empirical_rate - r2.empirical_rate) <= 3 * se

    def test_deterministic_given_stream(self):
        a = sample_g_rejection_batch(3, 100, RngStream(46))[1]
        b = sample_g_rejection_batch(3, 100, RngStream(46))[1]
        assert np.array_equal(a, b)

    def test_mean_purity_exceeds_hs(self):
        _, eigs, _ = sample_g_rejection_batch(3, 30_000, RngStream(47))
        mean, se = mc_mean(np.sum(eigs ** 2, axis=-1))
        assert (mean - purity_mean_hs(3)) / se > 5.0

    def test_default_budget_serves_dim5_and_dim6(self):
        for dim in (5, 6):
            _, eigs, rep = sample_g_rejection_batch(dim, 10, RngStream(48))
            assert rep.accepted == 10 and eigs.shape == (10, dim)
        _, eigs, rep = sample_g_rejection_batch(5, 10, RngStream(48),
                                                max_proposals=100_000)
        assert rep.accepted == 10

    def test_matrices_carry_the_sampled_spectra(self):
        mats, eigs, _ = sample_g_rejection_batch(4, 300, RngStream(56), keep_matrices=True)
        _, eigs_only, _ = sample_g_rejection_batch(4, 300, RngStream(56))
        assert np.array_equal(eigs, eigs_only)
        check_density_matrix(mats)
        assert np.max(np.abs(np.linalg.eigvalsh(mats)[:, ::-1] - eigs)) <= 1e-14

    @pytest.mark.parametrize("dim", [4, 5])
    def test_eigenvalue_law_against_importance_oracle(self, dim):
        # Quadrature oracles stop at N = 3; at N = 4, 5 the expected lambda_max
        # law under the superfidelity measure is estimated instead by
        # reweighting a large Hilbert-Schmidt batch with 1/sqrt(1 - purity)
        # (exactly the density ratio), then compared to the rejection sampler
        # by chi-square.  The oracle batch is 20x larger so its own error is
        # negligible at this scale.
        _, eigs, _ = sample_g_rejection_batch(dim, 20_000, RngStream(49))
        lam_max = eigs[:, 0]

        _, hs, _ = sample_batch(Measure.HILBERT_SCHMIDT, dim, 400_000, RngStream(149))
        w = 1.0 / np.sqrt(1.0 - np.sum(hs ** 2, axis=-1))
        edges = np.quantile(hs[:, 0], np.linspace(0, 1, 16))
        edges[0], edges[-1] = 1.0 / dim, 1.0
        wsum, _ = np.histogram(hs[:, 0], bins=edges, weights=w)
        expected = len(lam_max) * wsum / w.sum()
        counts, _ = np.histogram(lam_max, bins=edges)
        keep = expected >= 5
        stat = np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep])
        from scipy.stats import chi2 as chi2_dist
        p = chi2_dist.sf(stat, keep.sum() - 1)
        assert p > 0.01


class TestSampleBatchFrontend:
    def test_routing_and_reports(self):
        m, e, r = sample_batch("hs", 3, 10, RngStream(50), keep_matrices=True)
        assert r is None and m.shape == (10, 3, 3) and e.shape == (10, 3)
        m, e, r = sample_batch("g", 2, 10, RngStream(51))
        assert r is None and m is None and e.shape == (10, 2)
        m, e, r = sample_batch("g", 3, 10, RngStream(52))
        assert r is not None and r.accepted == 10 and e.shape == (10, 3)

    def test_rejection_branch_is_the_rejection_sampler(self):
        for keep in (False, True):
            got = sample_batch("g", 3, 300, RngStream(58), keep_matrices=keep)
            want = sample_g_rejection_batch(3, 300, RngStream(58), keep_matrices=keep)
            for a, b in zip(got[:2], want[:2]):
                assert (a is None and b is None) or a.tobytes() == b.tobytes()
            assert got[2] == want[2]

    def test_reaches_the_rejection_sampler_by_its_module_name(self, monkeypatch):
        # a wrapper installed on the module (a tracer's, say) sees every rejection run
        calls, rejection = [], samplers.sample_g_rejection_batch

        def recorded(*args, **kwargs):
            calls.append(args[:2])
            return rejection(*args, **kwargs)

        monkeypatch.setattr(samplers, "sample_g_rejection_batch", recorded)
        sample_batch("g", 3, 10, RngStream(58))
        sample_blocks("g", 4, 20, RngStream(58))
        assert calls == [(3, 10), (4, 20)]

    def test_purity_consistent_with_eigenvalues(self):
        # the purity column sum l^2 lies in [1/N, 1] and equals tr rho^2
        mats, eigs, _ = sample_batch("bures", 4, 500, RngStream(53), keep_matrices=True)
        purity = np.sum(eigs ** 2, axis=-1)
        assert purity.min() >= 0.25 - 1e-12 and purity.max() <= 1.0 + 1e-12
        trace_sq = np.einsum("nij,nji->n", mats, mats).real
        assert np.max(np.abs(purity - trace_sq)) <= 1e-14

    def test_unitary_invariance_of_projection_law(self):
        # distribution of <psi|rho|psi> must not depend on the direction psi
        mats, _, _ = sample_batch("hs", 3, 20_000, RngStream(54), keep_matrices=True)
        psi = np.zeros(3, dtype=complex)
        psi[0] = 1.0
        rot = haar_unitary_batch(3, 1, RngStream(55).block(VERIFY_KIND, 0))[0] @ psi
        p_fixed = np.real(np.einsum("i,nij,j->n", psi.conj(), mats, psi))
        p_rot = np.real(np.einsum("i,nij,j->n", rot.conj(), mats, rot))
        assert ks_test_two_sample(p_fixed, p_rot).p_value > 0.01

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_all_measures_emit_valid_batches(self, seed):
        for measure in ("hs", "bures", "g"):
            _, eigs, _ = sample_batch(measure, 2, 50, RngStream(seed))
            assert np.all(eigs[:, 0] >= eigs[:, 1])
            assert np.max(np.abs(eigs.sum(axis=-1) - 1)) <= 1e-12


class TestSampleBlocks:
    """``sample_blocks`` streams the states of ``sample_batch`` one sampler block at a time."""

    @pytest.mark.parametrize("measure,dim,block", [
        ("hs", 3, samplers._BLOCK), ("bures", 3, samplers._BURES_BLOCK),
        ("g", 2, samplers._BLOCK), ("g", 3, samplers._BLOCK)], ids=str)
    def test_batch_is_the_concatenated_blocks(self, measure, dim, block):
        for count in (1, block - 1, block, block + 1, 2 * block + 5):
            for keep in (False, True):
                mats, eigs, report = sample_batch(measure, dim, count, RngStream(31),
                                                  keep_matrices=keep)
                streamed_report, blocks = sample_blocks(measure, dim, count, RngStream(31),
                                                        keep_matrices=keep)
                blocks = list(blocks)
                assert [len(e) for _, e in blocks] == [
                    min(block, count - start) for start in range(0, count, block)]
                assert np.concatenate([e for _, e in blocks]).tobytes() == eigs.tobytes()
                if keep:
                    assert np.concatenate([m for m, _ in blocks]).tobytes() == mats.tobytes()
                else:
                    assert mats is None and all(m is None for m, _ in blocks)
                assert streamed_report == report
                assert (report is not None) == (measure == "g" and dim >= 3)

    @pytest.mark.parametrize("measure,dim", [("hs", 3), ("bures", 3), ("g", 2)])
    def test_checks_at_the_call_and_draws_each_block_when_reached(self, measure, dim,
                                                                   monkeypatch):
        with pytest.raises(ValueError, match="count"):
            sample_blocks(measure, dim, 0, RngStream(32))
        with pytest.raises(InvalidDimensionError):
            sample_blocks(measure, 1, 10, RngStream(32))
        with pytest.raises(TypeError, match="RngStream"):
            sample_blocks(measure, dim, 10, RngStream(32).block(VERIFY_KIND, 0))
        block, drawn = RngStream.block, []

        def recorded(rng, kind, index):
            drawn.append(index)
            return block(rng, kind, index)

        monkeypatch.setattr(RngStream, "block", recorded)
        _, blocks = sample_blocks(measure, dim, 3 * samplers._BLOCK, RngStream(32))
        assert drawn == []
        for b, _ in enumerate(blocks):
            assert drawn == list(range(b + 1))


class TestKeyedBlockContract:
    """Block b of a sampler draws from ``rng.block(kind, b)`` alone, one kind per sampler.

    Each entry: the sampler at N = 3 (N = 2 for the qubit sampler), its kind
    and its states per block.  The rejection sampler's blocks are 4096
    proposals; a shorter run keeps a prefix of each block's accepts and of
    their rotations, so its rows are compared in the same counts.
    """

    SAMPLERS = {
        "hs-purity": (lambda n, rng: (hs_purity_batch(3, n, rng),),
                      samplers._HS_PURITY_KIND, samplers._BLOCK),
        "hs": (lambda n, rng: (sample_hs_batch(3, n, rng),), samplers._HS_KIND, samplers._BLOCK),
        "bures": (lambda n, rng: (sample_bures_batch(3, n, rng),),
                  samplers._BURES_KIND, samplers._BURES_BLOCK),
        "g-qubit": (lambda n, rng: sample_batch("g", 2, n, rng, keep_matrices=True)[:2],
                    samplers._G_QUBIT_KIND, samplers._BLOCK),
        "g-rejection": (lambda n, rng: sample_g_rejection_batch(3, n, rng, keep_matrices=True)[:2],
                        samplers._G_REJECTION_KIND, samplers._BLOCK),
    }

    def test_one_kind_per_sampler(self):
        assert sorted(kind for _, kind, _ in self.SAMPLERS.values()) == list(range(5))
        # then one kind per reader outside the samplers; kind 5 is retired
        assert (GOF_SHUFFLE_KIND, VERIFY_KIND) == (6, 7)
        kinds = [kind for _, kind, _ in self.SAMPLERS.values()]
        assert sorted(kinds + [GOF_SHUFFLE_KIND, VERIFY_KIND]) == [0, 1, 2, 3, 4, 6, 7]

    @staticmethod
    def recorded_calls(monkeypatch):
        """The (kind, index) of every ``RngStream.block`` call from now on."""
        block, calls = RngStream.block, []

        def recorded(rng, k, index):
            calls.append((k, index))
            return block(rng, k, index)

        monkeypatch.setattr(RngStream, "block", recorded)
        return calls

    def test_the_simplex_test_reads_block_0_of_its_kind(self, monkeypatch):
        eigs = RngStream(35).block(VERIFY_KIND, 0).dirichlet(np.ones(3), size=500)
        calls = self.recorded_calls(monkeypatch)
        chi_square_gof_simplex(eigs, normalized_density(Measure.SUPERFIDELITY, 3),
                               grid=6, rng=RngStream(35))
        assert calls == [(GOF_SHUFFLE_KIND, 0)]

    @pytest.mark.parametrize("name", SAMPLERS)
    def test_whole_blocks_are_a_prefix_of_a_longer_run(self, name):
        draw, _, b = self.SAMPLERS[name]
        longer = draw(3 * b + 5, RngStream(27, 3))
        for count, whole in ((b, b), (2 * b + 3, 2 * b)):
            for short, long in zip(draw(count, RngStream(27, 3)), longer):
                assert short[:whole].tobytes() == long[:whole].tobytes()

    @pytest.mark.parametrize("name", SAMPLERS)
    def test_block_b_draws_from_its_own_keyed_generator(self, name, monkeypatch):
        draw, kind, b = self.SAMPLERS[name]
        monkeypatch.setattr(samplers, "_audit_gate_cache", {})   # the gate's audit draws no block
        calls = self.recorded_calls(monkeypatch)
        draw(2 * b + 5, RngStream(28))
        # the rejection sampler draws as many proposal blocks as it needs
        blocks = len(calls) if name == "g-rejection" else 3
        assert sorted(calls) == [(kind, index) for index in range(blocks)]

    @pytest.mark.parametrize("eigs", [
        lambda keep: sample_batch("g", 2, 5000, RngStream(29), keep_matrices=keep)[1],
        lambda keep: sample_g_rejection_batch(3, 5000, RngStream(29), keep_matrices=keep)[1],
    ], ids=["g-qubit", "g-rejection"])
    def test_eigenvalues_do_not_depend_on_keep_matrices(self, eigs):
        assert eigs(False).tobytes() == eigs(True).tobytes()

    @pytest.mark.parametrize("name", SAMPLERS)
    def test_a_generator_is_refused(self, name):
        draw, _, _ = self.SAMPLERS[name]
        with pytest.raises(TypeError, match="RngStream"):
            draw(10, RngStream(0).block(VERIFY_KIND, 0))
