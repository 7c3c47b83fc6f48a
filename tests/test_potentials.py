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

    def test_conjugate(self):
        v = Potential1D.constant(1.0 + 2.0j)
        assert v.conjugate()(0.0) == 1.0 - 2.0j

    def test_conjugate_of_callable(self):
        v = Potential1D.from_callable(lambda x: (1.0 + 1.0j) * x)
        assert v.conjugate()(3.0) == pytest.approx(3.0 - 3.0j)

    def test_conjugate_involution_on_power(self):
        v = Potential1D.power_singularity(1.0 - 2.0j, 0.5, 0.3, 2.0)
        w = v.conjugate().conjugate()
        assert w(0.9) == pytest.approx(v(0.9))


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
    """A constant potential on a float argument (a stage of a shot) skips
    the array set-up; every pointwise kind must give the bits of the
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

    def test_breakpoints_are_the_window_edges(self):
        kinds = _pointwise_kinds()
        assert kinds["power"].breakpoints() == (_X0 - 1e-8, _X0 + 1e-8)
        for kind in ("zero", "constant", "callable"):
            assert kinds[kind].breakpoints() == ()


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
