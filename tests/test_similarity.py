import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superfid import (InvalidDimensionError, InvalidStateError, RngStream, SingularityError,
                      StepSizeError, dist_g, fd_second_derivative, fidelity,
                      line_element_bprime, line_element_g, random_tangent_batch,
                      sample_hs_batch, superfidelity)
from superfid.rng import VERIFY_KIND

from conftest import basis_state, random_state


def _dg_squared(a, b):
    return dist_g(a, b) ** 2


def _dbprime_squared(a, b):
    return 2.0 * (1.0 - fidelity(a, b))


class TestFidelity:
    def test_self_fidelity(self):
        for seed in range(5):
            rho = random_state(3, seed)
            assert abs(fidelity(rho, rho) - 1.0) <= 1e-10

    def test_orthogonal_pure_states(self):
        assert fidelity(basis_state(2, 0), basis_state(2, 1)) == 0.0

    def test_pure_vs_maximally_mixed(self):
        assert abs(fidelity(np.eye(2) / 2, basis_state(2, 0)) - 0.5) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            fidelity(np.eye(2) / 2, np.eye(3) / 3)


class TestSuperfidelity:
    def test_self_superfidelity(self):
        rho = random_state(4, 3)
        assert abs(superfidelity(rho, rho) - 1.0) <= 1e-14

    def test_pure_vs_maximally_mixed(self):
        assert abs(superfidelity(np.eye(2) / 2, basis_state(2, 0)) - 0.5) < 1e-14

    def test_orthogonal_pure_states(self):
        assert abs(superfidelity(basis_state(2, 0), basis_state(2, 1))) < 1e-14

    def test_upper_bounds_fidelity(self):
        for dim in (2, 3, 4, 5):
            a = sample_hs_batch(dim, 300, RngStream(20 + dim))
            b = sample_hs_batch(dim, 300, RngStream(40 + dim))
            assert np.max(fidelity(a, b) - superfidelity(a, b)) <= 1e-9

    def test_equality_on_qubits(self):
        a = sample_hs_batch(2, 300, RngStream(60))
        b = sample_hs_batch(2, 300, RngStream(61))
        assert np.max(np.abs(fidelity(a, b) - superfidelity(a, b))) <= 1e-9

    def test_equality_with_pure_argument(self):
        for dim in (3, 4):
            pure = basis_state(dim, 1)
            rho = random_state(dim, dim)
            assert abs(fidelity(rho, pure) - superfidelity(rho, pure)) <= 1e-9
            assert abs(fidelity(pure, rho) - superfidelity(pure, rho)) <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(sa=st.integers(0, 2 ** 31), sb=st.integers(0, 2 ** 31))
    def test_symmetry_property(self, sa, sb):
        a, b = random_state(3, sa), random_state(3, sb)
        assert abs(superfidelity(a, b) - superfidelity(b, a)) <= 1e-12
        assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-12


class TestDistances:
    def test_zero_self_distance(self):
        rho = random_state(3, 5)
        assert dist_g(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a, b = basis_state(2, 0), basis_state(2, 1)
        assert abs(dist_g(a, b) - np.sqrt(2)) < 1e-12

    def test_triangle_inequality_statistical(self):
        for dim in (2, 3, 4):
            x, y, z = np.split(sample_hs_batch(dim, 3000, RngStream(80 + dim)), 3)
            viol = dist_g(x, z) - dist_g(x, y) - dist_g(y, z)
            assert np.max(viol) <= 1e-12

    def test_sqrt_g_variant_is_not_a_metric(self):
        # deterministic qutrit witness: a pure state, a state orthogonal to it,
        # and a diagonal midpoint; the direct sqrt(2-2*sqrt(G)) hop beats the
        # two legs by a wide margin (no qubit witness exists: on M_2 that
        # functional is a metric).
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        tau = np.diag([0.0, 0.5, 0.5]).astype(complex)
        s0 = 1 / np.sqrt(2)
        sigma = np.diag([s0, (1 - s0) / 2, (1 - s0) / 2]).astype(complex)

        def d_sqrt_g(a, b):
            g = np.clip(superfidelity(a, b), 0.0, 1.0)
            return np.sqrt(2.0 - 2.0 * np.sqrt(g))

        direct = d_sqrt_g(rho, tau)
        legs = d_sqrt_g(rho, sigma) + d_sqrt_g(sigma, tau)
        assert direct > legs + 0.15


class TestLineElements:
    def test_zero_tangent(self):
        rho = random_state(3, 9, mixedness=0.2)
        zero = np.zeros((3, 3), dtype=complex)
        assert line_element_g(rho, zero) == 0.0
        assert line_element_bprime(rho, zero) == 0.0

    def test_qubit_diagonal_hand_value(self):
        # rho = diag(l, 1-l), drho = diag(d, -d):
        # ((2l-1)d)^2 / (2l(1-l)) + 2d^2; at l = 0.5, d = 0.1 this is 0.02
        rho = np.diag([0.5, 0.5]).astype(complex)
        drho = np.diag([0.1, -0.1]).astype(complex)
        assert abs(line_element_g(rho, drho) - 0.02) <= 1e-15
        lam = 0.3
        d = 0.05
        rho = np.diag([lam, 1 - lam]).astype(complex)
        drho = np.diag([d, -d]).astype(complex)
        expected = ((2 * lam - 1) * d) ** 2 / (2 * lam * (1 - lam)) + 2 * d ** 2
        assert abs(line_element_g(rho, drho) - expected) <= 1e-14

    def test_scaling_is_quadratic(self):
        rho = random_state(3, 10, mixedness=0.2)
        drho = random_tangent_batch(3, 1, RngStream(10, 5).block(VERIFY_KIND, 0))[0]
        base = line_element_g(rho, drho)
        assert abs(line_element_g(rho, 3.0 * drho) - 9.0 * base) <= 1e-10 * max(1, base)

    def test_pure_state_rejected(self):
        with pytest.raises(SingularityError):
            line_element_g(basis_state(2, 0), np.diag([0.1, -0.1]).astype(complex))

    def test_bprime_kernel_pair_rejected(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        drho = np.zeros((3, 3), dtype=complex)
        drho[2, 2] = 1.0
        drho[0, 0] = -1.0
        with pytest.raises(SingularityError):
            line_element_bprime(rho, drho)

    def test_qubit_g_equals_bprime(self):
        worst = 0.0
        for seed in range(40):
            rho = random_state(2, 100 + seed, mixedness=0.2)
            drho = random_tangent_batch(2, 1, RngStream(100 + seed, 1).block(VERIFY_KIND, 0))[0]
            worst = max(worst, abs(line_element_g(rho, drho)
                                   - line_element_bprime(rho, drho)))
        assert worst <= 1e-8

    def test_qutrit_g_differs_from_bprime(self):
        gaps = []
        for seed in range(10):
            rho = random_state(3, 200 + seed, mixedness=0.2)
            drho = random_tangent_batch(3, 1, RngStream(200 + seed, 1).block(VERIFY_KIND, 0))[0]
            gaps.append(abs(line_element_g(rho, drho) - line_element_bprime(rho, drho)))
        assert max(gaps) > 1e-3


class TestFiniteDifference:
    def test_exact_quadratic_recovers_coefficient(self):
        # Convention: the oracle returns half the raw central second
        # difference, i.e. the coefficient q of f(t) = q t^2.  For the
        # squared Frobenius distance that coefficient is |drho|_F^2, and this
        # normalization is the one under which FD(d_G^2) reproduces
        # line_element_g (see the acceptance suite).
        rho = random_state(3, 11, mixedness=0.3)
        drho = random_tangent_batch(3, 1, RngStream(11, 2).block(VERIFY_KIND, 0))[0]

        def frob_sq(a, b):
            return float(np.linalg.norm(b - a) ** 2)

        val = fd_second_derivative(frob_sq, rho, drho, 1e-3)
        assert abs(val - np.linalg.norm(drho) ** 2) <= 1e-8

    def test_matches_analytic_g_line_element(self):
        for dim in (2, 3):
            for seed in range(25):
                rho = random_state(dim, 300 + seed, mixedness=0.2)
                gen = RngStream(300 + seed, 1).block(VERIFY_KIND, 0)
                drho = random_tangent_batch(dim, 1, gen)[0]
                fd = fd_second_derivative(_dg_squared, rho, drho, 1e-3)
                assert abs(fd - line_element_g(rho, drho)) <= 1e-4

    def test_matches_analytic_bprime_line_element(self):
        for seed in range(10):
            rho = random_state(3, 400 + seed, mixedness=0.2)
            drho = random_tangent_batch(3, 1, RngStream(400 + seed, 1).block(VERIFY_KIND, 0))[0]
            fd = fd_second_derivative(_dbprime_squared, rho, drho, 1e-3)
            assert abs(fd - line_element_bprime(rho, drho)) <= 1e-4

    def test_second_order_convergence(self):
        ratios = []
        for seed in range(20):
            rho = random_state(3, 500 + seed, mixedness=0.2)
            drho = random_tangent_batch(3, 1, RngStream(500 + seed, 1).block(VERIFY_KIND, 0))[0]
            analytic = line_element_g(rho, drho)
            e1 = abs(fd_second_derivative(_dg_squared, rho, drho, 1e-2) - analytic)
            e2 = abs(fd_second_derivative(_dg_squared, rho, drho, 5e-3) - analytic)
            if e1 > 1e-12:
                ratios.append(e1 / e2)
        assert 2.5 <= np.median(ratios) <= 6.0

    def test_step_shrinks_when_cone_is_tight(self):
        # smallest eigenvalue 1e-4 forces h below the requested 1e-3: the
        # shrink keeps the evaluation inside the PSD cone (no exception),
        # though accuracy this close to the boundary is limited; an explicit
        # small step recovers the analytic value.
        rho = np.diag([1.0 - 1e-4, 1e-4]).astype(complex)
        drho = np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2)
        analytic = line_element_g(rho, drho)
        shrunk = fd_second_derivative(_dg_squared, rho, drho, 1e-3)
        assert np.isfinite(shrunk) and shrunk > 0
        fine = fd_second_derivative(_dg_squared, rho, drho, 1e-6)
        assert abs(fine - analytic) <= 1e-4 * analytic

    def test_step_size_error_when_unsalvageable(self):
        rho = np.diag([1.0 - 1e-9, 1e-9]).astype(complex)
        drho = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(StepSizeError):
            fd_second_derivative(_dg_squared, rho, drho, 1e-3)


def _mixed_lines(dim, count, seed):
    """``count`` states pulled 20 % toward I/N, and unit tangents at them."""
    rng = RngStream(seed)
    rho = 0.8 * sample_hs_batch(dim, count, rng) + 0.2 * np.eye(dim) / dim
    return rho, random_tangent_batch(dim, count, rng.block(VERIFY_KIND, 0))


def _assert_rows_match(stacked, one_by_one):
    one_by_one = np.array(one_by_one)
    assert stacked.shape == one_by_one.shape
    assert np.all(np.abs(stacked - one_by_one) <= 1e-15 * np.abs(one_by_one))


class TestStacks:
    """Row k of a stack call equals the (N, N) call on row k."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_line_elements(self, dim):
        rho, drho = _mixed_lines(dim, 50, 600 + dim)
        for line_element in (line_element_g, line_element_bprime):
            _assert_rows_match(line_element(rho, drho),
                               [line_element(r, d) for r, d in zip(rho, drho)])
            assert isinstance(line_element(rho[0], drho[0]), float)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_finite_difference(self, dim):
        rho, drho = _mixed_lines(dim, 30, 610 + dim)
        for metric_sq in (_dg_squared, _dbprime_squared):
            _assert_rows_match(fd_second_derivative(metric_sq, rho, drho, 1e-3),
                               [fd_second_derivative(metric_sq, r, d, 1e-3)
                                for r, d in zip(rho, drho)])

    def test_leading_shape_is_kept(self):
        rho, drho = _mixed_lines(3, 12, 620)
        flat = line_element_g(rho, drho)
        assert np.array_equal(line_element_g(rho.reshape(3, 4, 3, 3),
                                             drho.reshape(3, 4, 3, 3)), flat.reshape(3, 4))

    def test_only_the_row_that_leaves_the_cone_shrinks_its_step(self):
        # row 1's smallest eigenvalue 1e-4 forces its h below 1e-3; row 0 is
        # well inside the cone and keeps h = 1e-3
        rho = np.stack([np.diag([0.6, 0.4]), np.diag([1.0 - 1e-4, 1e-4])]).astype(complex)
        drho = np.stack([np.diag([1.0, -1.0])] * 2).astype(complex) / np.sqrt(2)
        both = fd_second_derivative(_dg_squared, rho, drho, 1e-3)
        unshrunk = fd_second_derivative(_dg_squared, rho[0], drho[0], 1e-3)
        assert both[0] == unshrunk
        assert both[0] != fd_second_derivative(_dg_squared, rho[0], drho[0], 5e-4)
        assert both[1] == fd_second_derivative(_dg_squared, rho[1], drho[1], 1e-3)

    def test_one_unsalvageable_row_raises(self):
        rho = np.stack([np.diag([0.6, 0.4]), np.diag([1.0 - 1e-9, 1e-9])]).astype(complex)
        drho = np.stack([np.diag([1.0, -1.0])] * 2).astype(complex)
        with pytest.raises(StepSizeError):
            fd_second_derivative(_dg_squared, rho, drho, 1e-3)

    def test_one_pure_row_raises(self):
        rho, drho = _mixed_lines(2, 5, 630)
        rho[3] = np.diag([1.0, 0.0])
        with pytest.raises(SingularityError):
            line_element_g(rho, drho)

    def test_one_invalid_row_raises(self):
        rho, drho = _mixed_lines(3, 5, 640)
        rho[2, 0, 0] += 0.1   # trace 1.1
        with pytest.raises(InvalidStateError, match="trace"):
            line_element_g(rho, drho)
        with pytest.raises(InvalidStateError, match="trace"):
            fd_second_derivative(_dg_squared, rho, drho)

    def test_shape_mismatch_rejected(self):
        rho, drho = _mixed_lines(3, 5, 650)
        with pytest.raises(InvalidDimensionError):
            line_element_g(rho, drho[:4])
        with pytest.raises(InvalidDimensionError):
            fd_second_derivative(_dg_squared, rho[0], drho)
