"""Interior and exterior disk models: exact Bessel scalars for V = 0, a 2x2
interface-matching oracle for piecewise-constant potentials, truncation of
boundary symbols, and the Robin reference roots."""
import numpy as np
import pytest

from btriple import (
    DiskModelConfig,
    InvalidPotential,
    NoRootInBracket,
    Potential1D,
    TruncationWarning,
    build_disk,
    disk_robin_reference,
    weyl,
    weyl_symmetry_defect,
)

from .oracles import (
    DISK_ROBIN_T2,
    I0_AT_1,
    I1_AT_1,
    J0_ZERO1_SQ,
    J1P_ZERO1_SQ,
    K0_AT_1,
    K1_AT_1,
    disk_exterior_weyl_constant,
    disk_interior_weyl_constant,
    disk_weyl_v0,
)


class TestConfigValidation:
    def test_side(self):
        with pytest.raises(ValueError):
            DiskModelConfig(side="annulus")

    def test_k_max_range(self):
        with pytest.raises(ValueError):
            DiskModelConfig(k_max=0)
        with pytest.raises(ValueError):
            DiskModelConfig(k_max=65)

    def test_radial_grid_floor(self):
        with pytest.raises(ValueError):
            DiskModelConfig(radial_grid=8)

    def test_exterior_cut(self):
        with pytest.raises(ValueError):
            DiskModelConfig(side="exterior", r_cut=1.5)

    def test_potential_needs_support(self):
        with pytest.raises(InvalidPotential):
            DiskModelConfig(radial_potential=Potential1D.constant(1.0))

    def test_support_window_interior(self):
        with pytest.raises(InvalidPotential):
            DiskModelConfig(radial_potential=Potential1D.constant(1.0),
                            support=(0.5, 1.5))

    def test_support_window_exterior(self):
        with pytest.raises(InvalidPotential):
            DiskModelConfig(side="exterior",
                            radial_potential=Potential1D.constant(1.0),
                            support=(0.2, 0.8))

    def test_build_rejects_plain_dict(self):
        with pytest.raises(TypeError):
            build_disk({"side": "interior"})


class TestStructure:
    def test_dimensions(self, disk_int_v0):
        assert disk_int_v0.boundary_dim == 9
        assert list(disk_int_v0.mode_numbers) == list(range(-4, 5))

    def test_threshold_zero_potential(self, disk_int_v0, disk_ext_v0):
        assert disk_int_v0.certified_threshold() == pytest.approx(-0.5)
        assert disk_ext_v0.certified_threshold() == pytest.approx(-0.5)


class TestZeroPotentialScalars:
    def test_interior_mode_zero(self, disk_int_v0):
        m = weyl(disk_int_v0, -1.0).m
        k0 = disk_int_v0.config.k_max
        assert abs(m[k0, k0] - I0_AT_1 / I1_AT_1) < 1e-12

    def test_exterior_mode_zero(self, disk_ext_v0):
        m = weyl(disk_ext_v0, -1.0).m
        k0 = disk_ext_v0.config.k_max
        assert abs(m[k0, k0] - K0_AT_1 / K1_AT_1) < 1e-12

    def test_matrix_is_mode_diagonal(self, disk_int_v0):
        m = weyl(disk_int_v0, -2.0).m
        off = m - np.diag(np.diag(m))
        assert np.abs(off).max() == 0.0

    def test_diagonal_symmetric_in_mode_sign(self, disk_int_v0):
        m = np.diag(weyl(disk_int_v0, -2.0).m)
        assert np.allclose(m, m[::-1])

    def test_values_real_positive_below_zero(self, disk_ext_v0):
        for lam in (-0.7, -3.0, -20.0):
            d = np.diag(weyl(disk_ext_v0, lam, allow_uncertified=True).m)
            assert np.abs(d.imag).max() < 1e-14
            assert d.real.min() > 0.0

    def test_exterior_far_field_asymptote(self, disk_ext_v0):
        # s * m_0 -> 1 as lam -> -inf, at a rate ~ 1/(2s)
        gaps = []
        for lam in (-1e3, -1e4, -1e5):
            m = weyl(disk_ext_v0, lam).m
            k0 = disk_ext_v0.config.k_max
            s = np.sqrt(-lam)
            gaps.append(abs(s * m[k0, k0] - 1.0))
        assert gaps[0] < 2e-2
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 2e-3


class TestFarNegativeAxis:
    """|lambda| >= 5e5 puts |s| past 700, where the unscaled I_k and K_k
    leave double range; the scaled ratios do not."""

    @pytest.mark.parametrize("lam", [-5e5, -6e5])
    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_mode_weyl_values_match_mpmath(self, disk_int_v0, disk_ext_v0,
                                           side, lam):
        model = disk_int_v0 if side == "interior" else disk_ext_v0
        got = model.mode_weyl_values(lam)
        want = np.array([disk_weyl_v0(side, abs(int(k)), lam)
                         for k in model.mode_numbers])
        assert np.all(np.abs(got - want) < 1e-12 * np.abs(want))

    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_kernel_solve_keeps_its_trace(self, disk_int_v0, disk_ext_v0,
                                          side):
        model = disk_int_v0 if side == "interior" else disk_ext_v0
        for e in model.boundary_basis():
            f = model.solve_bvp(-6e5, e)
            assert np.all(np.isfinite(f))
            assert np.abs(model.trace0(f) - e).max() < 1e-15


class TestConstantPotentialOracle:
    def test_interior_matches_interface_matching(self, disk_int_const):
        lam = -2.0
        m = np.diag(weyl(disk_int_const, lam, allow_uncertified=True).m)
        kk = disk_int_const.config.k_max
        for k in range(kk + 1):
            want = disk_interior_weyl_constant(k, lam, 3.0 - 2.0j, 0.5, 1.0)
            assert abs(m[kk + k] - want) < 1e-9 * abs(want), f"mode {k}"

    def test_exterior_matches_interface_matching(self, disk_ext_const):
        lam = -2.0
        m = np.diag(weyl(disk_ext_const, lam, allow_uncertified=True).m)
        kk = disk_ext_const.config.k_max
        for k in range(kk + 1):
            want = disk_exterior_weyl_constant(k, lam, 1.5 + 1.0j, 1.0, 3.0, 16.0)
            assert abs(m[kk + k] - want) < 1e-9 * abs(want), f"mode {k}"

    def test_weyl_symmetry_with_complex_potential(self, disk_int_const):
        assert weyl_symmetry_defect(disk_int_const, -2.0 + 0.5j,
                                    allow_uncertified=True) < 1e-8


class TestBoundaryMultiplication:
    def test_constant_symbol_is_identity_multiple(self, disk_int_v0):
        b = disk_int_v0.boundary_multiplication({0: 2.0})
        assert np.array_equal(b.matrix, 2.0 * np.eye(9))

    def test_shift_symbol(self, disk_int_v0):
        # 2 cos(theta) couples k to k +- 1; the couplings out of |k| = k_max
        # necessarily spill
        with pytest.warns(TruncationWarning):
            b = disk_int_v0.boundary_multiplication({1: 1.0, -1: 1.0})
        assert b.matrix[5, 4] == 1.0
        assert b.matrix[3, 4] == 1.0
        assert b.matrix[4, 4] == 0.0

    def test_spill_warns(self, disk_int_v0):
        with pytest.warns(TruncationWarning):
            disk_int_v0.boundary_multiplication({9: 1.0})


class TestRobinReference:
    @pytest.mark.parametrize("beta", [-1.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_frozen_table(self, beta, k):
        assert disk_robin_reference(k, beta) == pytest.approx(
            DISK_ROBIN_T2[beta][k], abs=1e-10)

    def test_neumann_limit(self):
        # beta = 0 for k = 1: first zero of J_1'
        assert disk_robin_reference(1, 0.0) == pytest.approx(
            J1P_ZERO1_SQ, abs=1e-10)

    def test_dirichlet_limit(self):
        got = disk_robin_reference(0, -1e6)
        assert abs(got - J0_ZERO1_SQ) < 1e-2

    def test_root_out_of_reach(self):
        # j'_{8,1} ~ 9.65 lies beyond the scan window
        with pytest.raises(NoRootInBracket):
            disk_robin_reference(8, 0.0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            disk_robin_reference(-1, 1.0)
