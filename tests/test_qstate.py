import numpy as np
import pytest

from superfid import (InvalidDimensionError, InvalidStateError, RngStream, ginibre_batch,
                      haar_unitary_batch, ks_test, ks_test_two_sample, mc_mean,
                      sample_hs_batch)
from superfid.qstate import (check_density_matrix, check_tangent, clamp_spectrum,
                             random_tangent_batch)
from superfid.rng import VERIFY_KIND


class TestGinibre:
    def test_deterministic_for_fixed_stream(self):
        a = ginibre_batch(1, 1, RngStream(42).block(VERIFY_KIND, 0))[0]
        b = ginibre_batch(1, 1, RngStream(42).block(VERIFY_KIND, 0))[0]
        assert a == b

    def test_distinct_streams_differ(self):
        a = ginibre_batch(2, 1, RngStream(42, 0).block(VERIFY_KIND, 0))[0]
        b = ginibre_batch(2, 1, RngStream(42, 1).block(VERIFY_KIND, 0))[0]
        assert not np.allclose(a, b)

    def test_entry_second_moment(self):
        g = ginibre_batch(3, 1, RngStream(7).block(VERIFY_KIND, 0))[0]
        draws = np.concatenate([ginibre_batch(3, 1, RngStream(7, k).block(VERIFY_KIND, 0)).ravel()
                                for k in range(11_112)])  # ~1e5 entries
        m = np.mean(np.abs(draws) ** 2)
        assert abs(m - 1.0) < 0.02
        assert g.shape == (3, 3)

    def test_zero_dim_rejected(self):
        with pytest.raises(InvalidDimensionError):
            ginibre_batch(0, 1, RngStream(0).block(VERIFY_KIND, 0))


@pytest.mark.parametrize("draw", [ginibre_batch, haar_unitary_batch, random_tangent_batch])
def test_primitives_refuse_a_stream(draw):
    # the primitives read a Generator, which in the package is always a stream's block
    with pytest.raises(TypeError, match="Generator"):
        draw(3, 2, RngStream(0))


class TestHaarUnitary:
    def test_unitarity(self):
        for dim in (1, 2, 3, 5, 8):
            u = haar_unitary_batch(dim, 1, RngStream(dim).block(VERIFY_KIND, 0))[0]
            assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) <= 1e-10

    def test_dim1_uniform_phase(self):
        u = haar_unitary_batch(1, 10_000, RngStream(3).block(VERIFY_KIND, 0))
        angles = np.angle(u[:, 0, 0])
        mean, se = mc_mean(angles)
        assert abs(mean) <= 3 * se
        res = ks_test((angles + np.pi) / (2 * np.pi), lambda x: np.clip(x, 0, 1))
        assert res.p_value > 0.01

    def test_first_entry_moment(self):
        u = haar_unitary_batch(2, 10_000, RngStream(4).block(VERIFY_KIND, 0))
        mean, se = mc_mean(np.abs(u[:, 0, 0]) ** 2)
        assert abs(mean - 0.5) <= 3 * se

    def test_left_invariance(self):
        gen = RngStream(5).block(VERIFY_KIND, 0)
        u = haar_unitary_batch(3, 10_000, gen)
        v = haar_unitary_batch(3, 1, RngStream(6).block(VERIFY_KIND, 0))[0]
        res = ks_test_two_sample(np.abs(u[:, 0, 0]) ** 2,
                                 np.abs((v @ u)[:, 0, 0]) ** 2)
        assert res.p_value > 0.01


class TestValidators:
    def test_density_matrix_positivity(self):
        bad = np.diag([1.1, -0.1]).astype(complex)
        with pytest.raises(InvalidStateError):
            check_density_matrix(bad)

    # every comparison with NaN is false, so each validator must reject
    # non-finite entries by name rather than let them through its tolerances
    NON_FINITE = (np.nan, np.inf, -np.inf)

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

    def test_tangent_rejects_non_finite(self):
        for bad in self.NON_FINITE:
            with pytest.raises(InvalidStateError, match="non-finite"):
                check_tangent(np.array([[bad, 0.0], [0.0, 0.5]]))

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidStateError, match="Hermitian"):
            check_density_matrix(bad)

    def test_clamp_spectrum_on_a_stack_matches_rows(self):
        gen = RngStream(14).block(VERIFY_KIND, 0)
        stack = -np.sort(-gen.dirichlet(np.ones(4), size=50), axis=-1)
        stack[::5, -1] = -5e-11  # noise within the floor: clamped, then renormalized
        rows = np.array([clamp_spectrum(row) for row in stack])
        assert np.array_equal(clamp_spectrum(stack), rows)
        with pytest.raises(InvalidStateError):
            clamp_spectrum(stack - 1e-9)

    def test_random_tangent_is_traceless_hermitian(self):
        for dim in (2, 3, 4):
            h = random_tangent_batch(dim, 20, RngStream(dim, 3).block(VERIFY_KIND, 0))
            assert h.shape == (20, dim, dim)
            assert np.max(np.abs(np.trace(h, axis1=-2, axis2=-1))) < 1e-12
            assert np.max(np.abs(h - h.conj().swapaxes(-2, -1))) < 1e-12
            assert np.max(np.abs(np.linalg.norm(h, axis=(-2, -1)) - 1.0)) < 1e-12
            check_tangent(h)

    def test_random_tangent_needs_dim_2(self):
        # the tangent space at N = 1 is {0}: no unit direction exists
        for dim in (1, 0):
            with pytest.raises(InvalidDimensionError):
                random_tangent_batch(dim, 3, RngStream(0).block(VERIFY_KIND, 0))


class TestStacks:
    """Each validator takes one (N, N) matrix or a (..., N, N) stack."""

    def test_one_bad_matrix_in_a_stack_raises(self):
        stack = sample_hs_batch(3, 30, RngStream(8))
        check_density_matrix(stack)
        for k, (bad, match) in enumerate([(np.diag([1.1, 0.0, -0.1]), "eigenvalue"),
                                          (np.diag([0.5, 0.3, 0.3]), "trace"),
                                          (np.triu(np.full((3, 3), 1 / 3)), "Hermitian"),
                                          (np.diag([np.nan, 0.5, 0.5]), "non-finite")]):
            poisoned = stack.copy()
            poisoned[7 + k] = bad
            for checked in (poisoned, bad):
                with pytest.raises(InvalidStateError, match=match):
                    check_density_matrix(checked)

    def test_one_bad_tangent_in_a_stack_raises(self):
        stack = random_tangent_batch(3, 30, RngStream(9).block(VERIFY_KIND, 0))
        check_tangent(stack)
        for bad, match in [(np.diag([0.5, 0.0, 0.0]), "traceless"),
                           (np.triu(np.ones((3, 3))) - np.eye(3), "Hermitian")]:
            poisoned = stack.copy()
            poisoned[12] = bad
            for checked in (poisoned, bad):
                with pytest.raises(InvalidStateError, match=match):
                    check_tangent(checked)

    def test_validators_return_the_stack(self):
        stack = sample_hs_batch(3, 5, RngStream(10))
        assert np.array_equal(check_density_matrix(stack), stack)
        tangents = random_tangent_batch(3, 5, RngStream(10).block(VERIFY_KIND, 0))
        assert np.array_equal(check_tangent(tangents), tangents)
        for k in range(5):
            assert np.array_equal(check_density_matrix(stack[k]), stack[k])
            assert np.array_equal(check_tangent(tangents[k]), tangents[k])

    def test_shapes_rejected(self):
        for shape in [(3,), (2, 3), (4, 2, 3), (0, 0)]:
            with pytest.raises(InvalidDimensionError):
                check_density_matrix(np.zeros(shape, dtype=complex))
            with pytest.raises(InvalidDimensionError):
                check_tangent(np.zeros(shape, dtype=complex))

    def test_empty_stack_passes(self):
        assert check_density_matrix(np.zeros((0, 3, 3))).shape == (0, 3, 3)
        assert check_tangent(np.zeros((0, 3, 3))).shape == (0, 3, 3)
