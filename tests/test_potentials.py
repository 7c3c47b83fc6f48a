"""Potential descriptors: construction, evaluation, cell averaging."""
import numpy as np
import pytest

from btriple import InvalidPotential, Potential1D


class TestConstruction:
    def test_zero(self):
        v = Potential1D.zero()
        assert v.is_zero

    def test_constant_complex(self):
        v = Potential1D.constant(2.0 - 1.0j)
        assert not v.is_zero
        assert v(0.3) == 2.0 - 1.0j

    def test_constant_zero_collapses(self):
        assert Potential1D.constant(0.0).is_zero

    def test_callable(self):
        v = Potential1D.from_callable(lambda x: np.sin(x))
        assert v(np.pi / 2) == pytest.approx(1.0)

    def test_power_singularity_validation(self):
        Potential1D.power_singularity(1.0, 0.5, 0.4, 2.0)
        with pytest.raises(InvalidPotential):
            Potential1D.power_singularity(1.0, 0.5, 1.2, 2.0)   # alpha >= 1
        with pytest.raises(InvalidPotential):
            Potential1D.power_singularity(1.0, 0.5, 0.4, -1.0)  # p <= 0
        with pytest.raises(InvalidPotential):
            Potential1D.power_singularity(1.0, 0.5, 0.8, 2.0)   # alpha p >= 1

    def test_table(self):
        v = Potential1D.table(np.array([1.0, 2.0, 3.0]))
        assert not v.is_zero

    def test_table_rejects_nonfinite(self):
        with pytest.raises(InvalidPotential):
            Potential1D.table(np.array([1.0, np.inf]))


class TestEvaluation:
    def test_power_away_from_singularity(self):
        v = Potential1D.power_singularity(2.0, 0.5, 0.5, 1.0)
        assert v(0.75) == pytest.approx(2.0 / np.sqrt(0.25))

    def test_power_windowed_near_singularity(self):
        v = Potential1D.power_singularity(1.0, 0.5, 0.5, 1.0)
        val = v(0.5)
        assert np.isfinite(val)
        # window average of |t|^{-1/2} over 0 < t < w at w = 1e-8
        assert val == pytest.approx(1e-8 ** -0.5 / 0.5, rel=1e-6)

    def test_table_has_no_pointwise_evaluation(self):
        v = Potential1D.table(np.ones(4))
        with pytest.raises(InvalidPotential):
            v(0.5)


_X0 = 0.4


def _pointwise_kinds():
    return {
        "zero": Potential1D.zero(),
        "constant": Potential1D.constant(3.0 - 2.0j),
        "callable": Potential1D.from_callable(
            lambda x: (3.0 - 2.0j) * np.sin(np.pi * x) ** 2),
        "power": Potential1D.power_singularity(1.0 - 0.5j, _X0, 0.4, 2.0),
    }


class TestScalarEvaluation:
    """Every pointwise kind gives a float argument the bits of the
    one-element array."""

    # x0 itself, points inside the 1e-8 window, its edges and just outside
    NEAR = [_X0, _X0 + 3e-9, _X0 - 9.9e-9, _X0 - 1e-8, _X0 + 1e-8,
            _X0 + 1.0000001e-8, _X0 - 2e-8]

    @pytest.mark.parametrize("kind", ["zero", "constant", "callable", "power"])
    def test_float_matches_a_one_element_array(self, kind):
        v = _pointwise_kinds()[kind]
        xs = np.concatenate([
            self.NEAR, [0.0, 1.0, 0.7],
            np.random.default_rng(3).uniform(0.0, 1.0, 5000)])
        for x in xs:
            want = v(np.array([x]))[0]
            assert np.array_equal(v(float(x)), want)
            assert np.array_equal(v(np.float64(x)), want)

    def test_table_still_raises_on_a_float(self):
        with pytest.raises(InvalidPotential):
            Potential1D.table(np.ones(4))(0.5)

    def test_singular_points_are_x0(self):
        kinds = _pointwise_kinds()
        assert kinds["power"].singular_points() == (_X0,)
        for kind in ("zero", "constant", "callable"):
            assert kinds[kind].singular_points() == ()


class TestMoments:
    """m0 = int V and m1 = int (x - mid) V per cell, against fine Gauss
    quadrature of the pointwise V away from a singularity and against the
    closed form on a cell that holds it."""

    EDGES = np.array([0.0, 0.1, 0.25, 0.39, 0.41, 0.7, 1.0])

    @staticmethod
    def _quad(fn, a, b, order=60):
        x, w = np.polynomial.legendre.leggauss(order)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        vals = fn(mid + half * x) * half * w
        return vals.sum(), (vals * half * x).sum()

    @pytest.mark.parametrize("kind", ["zero", "constant", "callable"])
    def test_smooth_kinds_match_quadrature(self, kind):
        v = _pointwise_kinds()[kind]
        m0, m1 = v.moments(self.EDGES)
        for i, (a, b) in enumerate(zip(self.EDGES[:-1], self.EDGES[1:])):
            q0, q1 = self._quad(v, a, b)
            assert abs(m0[i] - q0) < 1e-15 and abs(m1[i] - q1) < 1e-15

    def test_power_is_exact_on_either_side_and_across_x0(self):
        c, x0, alpha = 1.0 - 0.5j, 0.4, 0.4
        v = Potential1D.power_singularity(c, x0, alpha, 2.0)
        m0, m1 = v.moments(self.EDGES)
        for i in (0, 1, 4, 5):  # cells away from x0: Gauss quadrature
            q0, q1 = self._quad(v, self.EDGES[i], self.EDGES[i + 1])
            assert abs(m0[i] - q0) < 1e-12 * abs(q0)
            assert abs(m1[i] - q1) < 1e-12 * abs(q0)
        # (0.39, 0.41) holds x0 at its midpoint: m1 = 0, and m0 is twice
        # int_0^0.01 c r^(-alpha) dr
        assert abs(m0[3] - 2 * c * 0.01 ** (1 - alpha) / (1 - alpha)) < 1e-15
        assert abs(m1[3]) < 1e-17
        assert np.array_equal(v.moments(self.EDGES)[0] / np.diff(self.EDGES),
                              v.cell_averages(self.EDGES))

    def test_table_has_no_moments(self):
        with pytest.raises(InvalidPotential):
            Potential1D.table(np.ones(6)).moments(self.EDGES)


class TestCellAverages:
    def test_constant_exact(self):
        v = Potential1D.constant(4.0 + 1.0j)
        edges = np.linspace(0.0, 1.0, 11)
        avg = v.cell_averages(edges)
        assert avg.shape == (10,)
        assert np.all(avg == 4.0 + 1.0j)

    def test_zero(self):
        v = Potential1D.zero()
        avg = v.cell_averages(np.linspace(0.0, 1.0, 5))
        assert np.all(avg == 0.0)

    def test_callable_quadrature(self):
        v = Potential1D.from_callable(lambda x: x**2)
        edges = np.array([0.0, 1.0])
        # exact average of x^2 over (0, 1) is 1/3; 12-point Gauss nails it
        assert v.cell_averages(edges)[0] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_power_exact_antiderivative(self):
        c, x0, alpha = 1.5, 0.5, 0.4
        v = Potential1D.power_singularity(c, x0, alpha, 1.0)
        edges = np.array([0.5, 0.75])
        # integral of c t^{-alpha} over (0, w) is c w^{1-alpha} / (1-alpha)
        want = c * 0.25 ** (1 - alpha) / (1 - alpha) / 0.25
        assert v.cell_averages(edges)[0] == pytest.approx(want, rel=1e-13)

    def test_power_cell_straddling_singularity_is_finite(self):
        v = Potential1D.power_singularity(1.0, 0.5, 0.5, 1.0)
        avg = v.cell_averages(np.array([0.4, 0.6]))
        assert np.isfinite(avg[0])
        want = 4.0 * np.sqrt(0.1) / 0.2  # each half-cell integrates to 2 sqrt(w)
        assert avg[0] == pytest.approx(want, rel=1e-13)

    def test_table_passthrough(self):
        vals = np.array([1.0, 2.0, 3.0])
        v = Potential1D.table(vals)
        out = v.cell_averages(np.linspace(0.0, 1.0, 4))
        assert np.array_equal(out, vals)

    def test_table_count_mismatch(self):
        v = Potential1D.table(np.ones(3))
        with pytest.raises(InvalidPotential):
            v.cell_averages(np.linspace(0.0, 1.0, 6))


class TestSupProxy:
    def test_constant(self):
        assert Potential1D.constant(3.0 - 4.0j).sup_proxy(0.0, 1.0) == pytest.approx(5.0)

    def test_zero(self):
        assert Potential1D.zero().sup_proxy(0.0, 1.0) == 0.0

    def test_callable_bounded(self):
        v = Potential1D.from_callable(lambda x: 2.0 * np.sin(np.pi * x))
        assert v.sup_proxy(0.0, 1.0) == pytest.approx(2.0, rel=1e-6)

    def test_power_proxy_finite(self):
        v = Potential1D.power_singularity(1.0, 0.5, 0.5, 1.0)
        proxy = v.sup_proxy(0.0, 1.0)
        assert np.isfinite(proxy)
        assert proxy > 10.0  # dominated by the cell containing the singularity
