import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superfid import (InvalidDimensionError, InvalidStateError, RngStream,
                      compose_state, ginibre, haar_unitary, haar_unitary_batch,
                      ks_test, ks_test_two_sample, mc_mean, purity, spectrum)
from superfid.qstate import (check_density_matrix, check_eigenvalue_vector, check_tangent,
                             check_unitary, clamp_spectrum, random_tangent)

from conftest import basis_state, random_state


class TestGinibre:
    def test_deterministic_for_fixed_stream(self):
        a = ginibre(1, RngStream(42))
        b = ginibre(1, RngStream(42))
        assert a == b

    def test_distinct_streams_differ(self):
        a = ginibre(2, RngStream(42, 0))
        b = ginibre(2, RngStream(42, 1))
        assert not np.allclose(a, b)

    def test_entry_second_moment(self):
        g = ginibre(3, RngStream(7).generator())
        draws = np.concatenate([ginibre(3, RngStream(7, k).generator()).ravel()
                                for k in range(11_112)])  # ~1e5 entries
        m = np.mean(np.abs(draws) ** 2)
        assert abs(m - 1.0) < 0.02
        assert g.shape == (3, 3)

    def test_zero_dim_rejected(self):
        with pytest.raises(InvalidDimensionError):
            ginibre(0, RngStream(0))


class TestHaarUnitary:
    def test_unitarity(self):
        for dim in (1, 2, 3, 5, 8):
            u = haar_unitary(dim, RngStream(dim))
            assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) <= 1e-10

    def test_dim1_uniform_phase(self):
        u = haar_unitary_batch(1, 10_000, RngStream(3))
        angles = np.angle(u[:, 0, 0])
        mean, se = mc_mean(angles)
        assert abs(mean) <= 3 * se
        res = ks_test((angles + np.pi) / (2 * np.pi), lambda x: np.clip(x, 0, 1))
        assert res.p_value > 0.01

    def test_first_entry_moment(self):
        u = haar_unitary_batch(2, 10_000, RngStream(4))
        mean, se = mc_mean(np.abs(u[:, 0, 0]) ** 2)
        assert abs(mean - 0.5) <= 3 * se

    def test_left_invariance(self):
        gen = RngStream(5).generator()
        u = haar_unitary_batch(3, 10_000, gen)
        v = haar_unitary(3, RngStream(6))
        res = ks_test_two_sample(np.abs(u[:, 0, 0]) ** 2,
                                 np.abs((v @ u)[:, 0, 0]) ** 2)
        assert res.p_value > 0.01


class TestComposeAndSpectrum:
    def test_identity_rotation(self):
        rho = compose_state(np.array([1.0, 0.0]), np.eye(2))
        assert np.allclose(rho, np.diag([1.0, 0.0]))

    def test_spectrum_preserved_under_rotation(self):
        eigs = np.array([0.7, 0.3])
        u = haar_unitary(2, RngStream(11))
        rho = compose_state(eigs, u)
        assert np.max(np.abs(spectrum(rho) - eigs)) <= 1e-10

    def test_maximally_mixed_is_invariant(self):
        u = haar_unitary(3, RngStream(12))
        rho = compose_state(np.full(3, 1 / 3), u)
        assert np.max(np.abs(rho - np.eye(3) / 3)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            compose_state(np.array([0.5, 0.5]), np.eye(3))

    def test_invalid_simplex_rejected(self):
        with pytest.raises(InvalidStateError):
            compose_state(np.array([0.9, 0.2]), np.eye(2))
        with pytest.raises(InvalidStateError):
            compose_state(np.array([0.3, 0.7]), np.eye(2))  # not descending

    def test_spectrum_of_diagonal(self):
        assert np.allclose(spectrum(np.diag([0.5, 0.3, 0.2]).astype(complex)),
                           [0.5, 0.3, 0.2])

    def test_spectrum_of_pure_state(self):
        rho = basis_state(4, 2)
        assert np.allclose(spectrum(rho), [1, 0, 0, 0], atol=1e-12)

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidStateError):
            spectrum(bad)

    def test_clamp_spectrum_on_a_stack_matches_rows(self):
        gen = RngStream(14).generator()
        stack = -np.sort(-gen.dirichlet(np.ones(4), size=50), axis=-1)
        stack[::5, -1] = -5e-11  # noise within the floor: clamped, then renormalized
        rows = np.array([clamp_spectrum(row) for row in stack])
        assert np.array_equal(clamp_spectrum(stack), rows)
        with pytest.raises(InvalidStateError):
            clamp_spectrum(stack - 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 6))
    def test_roundtrip_property(self, seed, dim):
        gen = RngStream(seed).generator()
        raw = np.sort(gen.dirichlet(np.ones(dim)))[::-1]
        u = haar_unitary(dim, gen)
        rho = compose_state(raw, u)
        assert np.max(np.abs(spectrum(rho) - raw)) <= 1e-10


class TestPurity:
    def test_maximally_mixed(self):
        for dim in (2, 3, 5):
            assert abs(purity(np.eye(dim) / dim) - 1 / dim) < 1e-14

    def test_pure_state(self):
        assert abs(purity(basis_state(3, 0)) - 1.0) < 1e-14

    def test_known_spectrum(self):
        u = haar_unitary(2, RngStream(13))
        rho = compose_state(np.array([0.7, 0.3]), u)
        assert abs(purity(rho) - 0.58) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 5))
    def test_purity_matches_spectrum(self, seed, dim):
        rho = random_state(dim, seed)
        assert abs(purity(rho) - np.sum(spectrum(rho) ** 2)) <= 1e-12


class TestValidators:
    def test_eigenvalue_vector_checks(self):
        check_eigenvalue_vector(np.array([0.6, 0.4]))
        with pytest.raises(InvalidStateError):
            check_eigenvalue_vector(np.array([0.6, 0.5]))

    def test_density_matrix_positivity(self):
        bad = np.diag([1.1, -0.1]).astype(complex)
        with pytest.raises(InvalidStateError):
            check_density_matrix(bad)

    # every comparison with NaN is false, so each validator must reject
    # non-finite entries by name rather than let them through its tolerances
    NON_FINITE = (np.nan, np.inf, -np.inf)

    def test_eigenvalue_vector_rejects_non_finite(self):
        for bad in self.NON_FINITE:
            with pytest.raises(InvalidStateError, match="non-finite"):
                check_eigenvalue_vector(np.array([bad, 0.5]))

    def test_clamp_spectrum_rejects_non_finite(self):
        stack = np.tile([0.5, 0.3, 0.2], (6, 1))
        for bad in self.NON_FINITE:
            with pytest.raises(InvalidStateError, match="non-finite"):
                clamp_spectrum(np.array([0.6, bad]))
            poisoned = stack.copy()
            poisoned[4, 1] = bad
            with pytest.raises(InvalidStateError, match="non-finite"):
                clamp_spectrum(poisoned)

    def test_density_matrix_rejects_non_finite(self):
        for bad in self.NON_FINITE:
            with pytest.raises(InvalidStateError, match="non-finite"):
                check_density_matrix(np.array([[bad, 0.0], [0.0, 0.5]]))

    def test_unitary_rejects_non_finite(self):
        for bad in self.NON_FINITE:
            with pytest.raises(InvalidStateError, match="non-finite"):
                check_unitary(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_tangent_rejects_non_finite(self):
        for bad in self.NON_FINITE:
            with pytest.raises(InvalidStateError, match="non-finite"):
                check_tangent(np.array([[bad, 0.0], [0.0, 0.5]]))

    def test_random_tangent_is_traceless_hermitian(self):
        for dim in (2, 3, 4):
            h = random_tangent(dim, RngStream(dim, 3))
            assert abs(np.trace(h)) < 1e-12
            assert np.max(np.abs(h - h.conj().T)) < 1e-12
            assert abs(np.linalg.norm(h) - 1.0) < 1e-12
