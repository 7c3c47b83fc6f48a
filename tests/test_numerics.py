"""Dense linear algebra helpers and log-log fitting."""
import numpy as np
import pytest
from scipy.stats import linregress

from btriple import (
    DegenerateInput,
    NotPositiveDefinite,
    SingularMatrix,
    eig_dense,
    fit_log_slope,
    smallest_singular_value,
    solve_linear,
)

from .oracles import charpoly_eigenvalues, herm_inv_sqrt, match_sets


class TestSolveLinear:
    def test_identity(self):
        b = np.array([1.0 + 2.0j, -3.0j])
        x = solve_linear(np.eye(2), b)
        assert np.allclose(x, b, rtol=0, atol=0)

    def test_small_system(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([5.0, 10.0])
        x = solve_linear(a, b)
        assert np.allclose(a @ x, b, atol=1e-14)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(11)
        a = np.eye(6) + 0.2 * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        x = solve_linear(a, b)
        assert x.shape == (6, 3)
        assert np.linalg.norm(a @ x - b) < 1e-12

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            solve_linear(np.ones((2, 3)), np.ones(2))

    def test_zero_matrix_singular(self):
        with pytest.raises(SingularMatrix):
            solve_linear(np.zeros((3, 3)), np.ones(3))

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_rank_deficient_singular(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrix):
            solve_linear(a, np.ones(2))

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_pivot_floor_is_relative(self):
        # scaling a singular matrix up must not mask the singularity
        a = 1e12 * np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrix):
            solve_linear(a, np.ones(2))

    def test_residuals_over_many_draws(self):
        rng = np.random.default_rng(2024)
        sizes = list(rng.integers(2, 50, size=970)) + list(rng.integers(50, 500, size=30))
        for trial, n in enumerate(sizes):
            n = int(n)
            r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = np.eye(n) + 0.3 * r / np.sqrt(n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = solve_linear(a, b)
            res = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
            assert res < 1e-11, f"trial {trial}, n={n}: residual {res:.3e}"


class TestEigDense:
    def test_diagonal(self):
        w = eig_dense(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(w, [-1.0, 2.0, 3.0])

    def test_sort_order_real_then_imag(self):
        a = np.diag([1.0 + 2.0j, 1.0 - 2.0j, 0.5])
        w = eig_dense(a)
        assert np.allclose(w, [0.5, 1.0 - 2.0j, 1.0 + 2.0j])

    def test_nilpotent(self):
        w = eig_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(w, [0.0, 0.0], atol=1e-14)

    def test_matches_characteristic_polynomial(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        a /= np.linalg.norm(a, 2)
        got = eig_dense(a)
        want = charpoly_eigenvalues(a)
        assert match_sets(got, want) < 1e-7

    def test_trace_identity(self):
        rng = np.random.default_rng(32)
        for n in (5, 17, 60):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            w = eig_dense(a)
            assert abs(w.sum() - np.trace(a)) < 1e-8 * np.linalg.norm(a) * n

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="exceeds"):
            eig_dense(np.eye(4001))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eig_dense(np.ones((3, 4)))


class TestSmallestSingularValue:
    def test_identity(self):
        assert smallest_singular_value(np.eye(2)) == pytest.approx(1.0)

    def test_rank_deficient(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert smallest_singular_value(a) < 1e-12

    def test_rectangular(self):
        a = np.array([[3.0, 0.0], [0.0, 5.0], [0.0, 0.0]])
        assert smallest_singular_value(a) == pytest.approx(3.0)

    def test_matches_gram_eigenvalue(self):
        rng = np.random.default_rng(44)
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        want = np.sqrt(np.linalg.eigvalsh(a.conj().T @ a).min())
        assert smallest_singular_value(a) == pytest.approx(want, abs=1e-9)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            smallest_singular_value(np.zeros((0, 3)))


class TestHermInvSqrt:
    def test_diagonal(self):
        s = herm_inv_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(s, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_inverse_sqrt_property(self):
        rng = np.random.default_rng(55)
        b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a = b @ b.conj().T + 0.5 * np.eye(8)
        s = herm_inv_sqrt(a)
        assert np.linalg.norm(s @ a @ s - np.eye(8)) < 1e-9

    def test_commutes_with_input(self):
        rng = np.random.default_rng(56)
        b = rng.standard_normal((6, 6))
        a = b @ b.T + np.eye(6)
        s = herm_inv_sqrt(a)
        bound = 1e-9 * np.linalg.norm(a) * np.linalg.norm(s)
        assert np.linalg.norm(s @ a - a @ s) < bound

    def test_symmetrizes_rounding_noise(self):
        a = np.diag([1.0, 2.0]) + np.array([[0.0, 1e-15], [0.0, 0.0]])
        s = herm_inv_sqrt(a)
        assert np.allclose(s, s.conj().T)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            herm_inv_sqrt(np.diag([1.0, -2.0]))

    def test_semidefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            herm_inv_sqrt(np.diag([1.0, 0.0]))


class TestFitLogSlope:
    def test_exact_power_law(self):
        xs = np.array([1.0, 10.0, 100.0, 1000.0])
        slope, intercept, stderr = fit_log_slope([(x, 7.0 / x) for x in xs])
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert intercept == pytest.approx(np.log(7.0), abs=1e-12)
        assert stderr < 1e-12

    def test_half_power(self):
        xs = np.geomspace(1.0, 1e4, 9)
        slope, _, stderr = fit_log_slope([(x, x**-0.5) for x in xs])
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert stderr < 1e-12

    def test_noisy_fit_matches_linregress(self):
        rng = np.random.default_rng(3)
        xs = np.geomspace(4.0, 4.0**8, 8)
        ys = 2.0 * xs**-0.5 * np.exp(0.05 * rng.standard_normal(len(xs)))
        slope, intercept, stderr = fit_log_slope(zip(xs, ys))
        want = linregress(np.log(xs), np.log(ys))
        assert slope == pytest.approx(want.slope, rel=1e-12)
        assert intercept == pytest.approx(want.intercept, rel=1e-12)
        assert stderr == pytest.approx(want.stderr, rel=1e-10)
        assert stderr > 1e-3

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_log_slope([(1.0, 1.0), (2.0, 0.5)])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_log_slope([(1.0, 1.0), (2.0, -0.5), (3.0, 0.3)])

    def test_coincident_abscissae(self):
        with pytest.raises(DegenerateInput):
            fit_log_slope([(2.0, 1.0), (2.0, 0.5), (2.0, 0.25)])
