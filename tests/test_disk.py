"""Interior and exterior disk models: exact Bessel scalars for V = 0, a 2x2
interface-matching oracle for piecewise-constant potentials, the banded
collocation solve against a dense one, truncation of boundary symbols, and
the Robin reference roots."""
import numpy as np
import pytest

from btriple import (
    DiskModelConfig,
    InvalidPotential,
    MatchingSingular,
    NoRootInBracket,
    Potential1D,
    TruncationWarning,
    build_disk,
    disk_robin_reference,
    model_disk,
    robin_eigs,
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


class TestPositiveAxis:
    def test_exterior_robin_scan_crosses_the_cut(self):
        # the V = 0 exterior scalars are singular on [0, inf); those grid
        # nodes drop out of the scan instead of ending it
        model = build_disk(DiskModelConfig(side="exterior", k_max=2))
        roots = robin_eigs(model, np.eye(model.boundary_dim),
                           (0.3, 10.3, -0.5, 0.5), (20, 5))
        assert roots
        # B = I is Hermitian, so A_B is selfadjoint
        assert max(abs(z.imag) for z in roots) < 1e-8


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


def _dense_collocation(model, lam, tilde, k):
    """The collocation matrix assembled densely, row by row: the radial
    equation everywhere, then the interface and boundary rows written over
    it."""
    g = model.grid
    n = g.size
    a = (-model._d2 - model._d1 / model._r[:, None]).astype(complex)
    vr = np.conjugate(model._vr) if tilde else model._vr
    a[np.arange(n), np.arange(n)] += k * k / model._r ** 2 + vr - lam
    for p in range(g.panels - 1):
        e = g.edges[p + 1]
        a[g.panel_slice(p).stop - 1] = (model._point_row(p, e)
                                        - model._point_row(p + 1, e))
        a[g.panel_slice(p + 1).start] = (model._deriv_row(p, e)
                                         - model._deriv_row(p + 1, e))
    last = g.panels - 1
    if model.config.side == "interior":
        a[0] = (model._point_row(0, 0.0) if k else model._deriv_row(0, 0.0))
        a[n - 1] = model._deriv_row(last, 1.0)
    else:
        a[0] = model._deriv_row(0, 1.0)
        a[n - 1] = model._point_row(last, model.config.r_cut)
    return a


def _scale_band_row(model, i, factor):
    """Scale row i of both band templates of ``model``."""
    kl, ku, n = model._kl, model._ku, model.grid.size
    for ab in model._band_templates:
        for j in range(max(i - kl, 0), min(i + ku + 1, n)):
            ab[kl + ku + i - j, j] *= factor


def _coarse_exterior():
    """A cheap exterior model with a potential, so its Weyl values go
    through collocation."""
    return build_disk(DiskModelConfig(
        side="exterior", k_max=1, radial_potential=Potential1D.constant(1.5),
        support=(1.0, 3.0), quad_panels=4, quad_order=8))


class TestBandedCollocation:
    @pytest.mark.parametrize("lam", [-3.0, 5 + 3j, -500.0, -5e4])
    @pytest.mark.parametrize("tilde", [False, True])
    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_matches_dense_solve(self, disk_int_v0, disk_ext_const, side,
                                 tilde, lam):
        model = disk_int_v0 if side == "interior" else disk_ext_const
        n = model.grid.size
        f = np.random.default_rng(3).standard_normal(n) + 0.5j
        mask = model._colloc_mask
        for k in (0, 1, model.config.k_max):
            a = _dense_collocation(model, lam, tilde, k)
            kernel_rhs = np.zeros(n, dtype=complex)
            kernel_rhs[model._neumann_idx] = 1.0
            resolvent_rhs = np.where(mask, f, 0.0)
            for rhs, f_vals, neumann in ((kernel_rhs, None, 1.0),
                                         (resolvent_rhs, f, 0.0)):
                want = np.linalg.solve(a, rhs)
                got = model._colloc_solve(lam, tilde, k, f_vals, neumann)
                err = np.abs(got - want).max()
                assert err < 1e-10 * np.abs(want).max(), f"k = {k}"

    def test_band_is_one_panel_wide(self, disk_int_v0, disk_ext_const):
        # the benchmark specs, and a support mark halfway between two of the
        # uniform interior edges, which adds a seventeenth panel
        extra = build_disk(DiskModelConfig(
            side="interior", k_max=2, radial_potential=Potential1D.constant(1.0),
            support=(0.53125, 1.0)))
        assert extra.grid.panels == extra.config.quad_panels + 1
        for model in (disk_int_v0, disk_ext_const, extra):
            assert model._kl == model._ku == model.config.quad_order


class TestSingularCollocation:
    def test_exact_zero_pivot_raises(self):
        # a zero row stays zero through the elimination, so zgbtrf reports
        # an exactly zero pivot (info > 0)
        model = _coarse_exterior()
        _scale_band_row(model, model.grid.size - 1, 0.0)
        _, _, info = model_disk.lu_factor(
            model._band_templates[1].astype(complex, order="F"),
            model._kl, model._ku)
        assert info > 0
        with pytest.raises(MatchingSingular):
            model._colloc_lu(-3.0, False, 1)
        m = model.weyl_batch([-3.0])
        assert m.shape == (1, 3, 3) and np.isnan(m).all()

    def test_small_pivot_ratio_raises(self):
        # a boundary row scaled by 1e-20 leaves no exactly zero pivot, only
        # one far below the 1e-14 ratio
        model = _coarse_exterior()
        _scale_band_row(model, model.grid.size - 1, 1e-20)
        kl, ku = model._kl, model._ku
        lu, _, info = model_disk.lu_factor(
            model._band_templates[1].astype(complex, order="F"), kl, ku)
        du = np.abs(lu[kl + ku])
        assert info == 0 and 0.0 < du.min() < 1e-14 * du.max()
        with pytest.raises(MatchingSingular):
            model._colloc_lu(-3.0, False, 1)
        m = model.weyl_batch([-3.0])
        assert m.shape == (1, 3, 3) and np.isnan(m).all()


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
