"""Interior and exterior disk models: exact Bessel scalars for V = 0, the
V = 0 kernel against its Bessel closed form, a 2x2 interface-matching
oracle for piecewise-constant potentials, the banded collocation solve
against a dense one, truncation of boundary symbols, and the Robin
reference roots."""
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ive

import btriple.triple_core as triple_core

from btriple import (
    DiskModelConfig,
    InvalidPotential,
    MatchingSingular,
    NoConvergence,
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
    dense_blocks,
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
        # the window straddles (0, inf), where the truncated exterior's
        # eigenvalues lie; the contour's nodes never lie on the real axis
        model = build_disk(DiskModelConfig(side="exterior", k_max=2))
        roots = robin_eigs(model, np.eye(model.boundary_dim),
                           (0.3, 10.3, -0.5, 0.5), (20, 5))
        assert roots
        # B = I is Hermitian, so A_B is selfadjoint
        assert max(abs(z.imag) for z in roots) < 1e-8

    def test_dense_window_is_solved_in_halves(self, monkeypatch):
        # the r_cut = 16 truncation puts about 80 eigenvalues (with their
        # multiplicity) inside the window's ellipse, more than its moments
        # resolve; the cut halves hold few enough. With B = I the roots are
        # where m_k = 1 for one mode k: 37 distinct in the window by a sign
        # count of 1 - m_k on the real axis, plus 0.2751 in the margin
        model = build_disk(DiskModelConfig(side="exterior", k_max=2))
        region, grid = (0.3, 10.3, -0.5, 0.5), (20, 5)
        roots = robin_eigs(model, np.eye(5), region, grid)
        assert len([z for z in roots if 0.3 <= z.real <= 10.3]) == 37
        assert len(roots) == 38
        for z in roots:
            gap = min(abs(1.0 - disk_weyl_v0("exterior", k, z.real))
                      for k in range(3))
            assert gap < 1e-8, z
        # the whole window's own contour finds no two agreeing levels
        monkeypatch.setattr(triple_core, "_CONTOUR_SPLITS", 0)
        with pytest.raises(NoConvergence):
            robin_eigs(model, np.eye(5), region, grid)


class TestZeroPotentialBatch:
    LAMS = np.array([-3.0, 2.5 + 0.5j, 14.0 - 0.3j, -500.0, 40.0 - 0.5j,
                     -1e6 + 3.0j])

    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_matches_mode_weyl_values(self, side, disk_int_v0, disk_ext_v0):
        model = disk_int_v0 if side == "interior" else disk_ext_v0
        batch = model.weyl_batch(self.LAMS)
        assert batch.shape == (len(self.LAMS), 9, 9)
        for lam, m in zip(self.LAMS, batch):
            want = np.diag(model.mode_weyl_values(lam))
            assert np.abs(m - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_nan_row_where_the_point_wise_path_raises(
            self, side, disk_int_v0, disk_ext_v0):
        model = disk_int_v0 if side == "interior" else disk_ext_v0
        batch = model.weyl_batch([0.0, -1.0, 5.0])
        assert np.isnan(batch[0]).all()
        with pytest.raises(MatchingSingular):
            model.mode_weyl_values(0.0)
        assert np.isfinite(batch[1]).all()
        # (0, inf) is regular off the Neumann spectrum on both sides: s is
        # imaginary there, where ive and kve are finite
        assert np.isfinite(batch[2]).all()

    @pytest.mark.parametrize("lam", [0.3, 5.0, 40.0])
    def test_exterior_positive_axis_matches_mpmath(self, disk_ext_v0, lam):
        got = disk_ext_v0.mode_weyl_values(lam)
        want = np.array([disk_weyl_v0("exterior", abs(int(k)), lam)
                         for k in disk_ext_v0.mode_numbers])
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))
        batch = disk_ext_v0.weyl_batch([lam])[0]
        assert np.all(np.abs(np.diag(batch) - want) <= 1e-10 * np.abs(want))

    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_chunks_are_solved_independently(self, side, disk_int_v0,
                                             disk_ext_v0):
        model = disk_int_v0 if side == "interior" else disk_ext_v0
        lams = -20.0 + 15.0 * np.exp(2j * np.pi * (np.arange(300) + 0.5) / 300)
        whole = model.weyl_batch(lams)
        assert np.array_equal(whole[:256], model.weyl_batch(lams[:256]))
        assert np.array_equal(whole[256:], model.weyl_batch(lams[256:]))


class TestFarNegativeAxis:
    """|lambda| >= 5e5 puts |s| past 700, where the unscaled I_k and K_k
    leave double range; the scaled ratios do not. At -1e16 the exterior's
    s r_cut passes 2^30, past scipy's ive and kve, but the Dirichlet weight
    rho' has underflowed to 0 there; at -1e20 s itself passes 2^30."""

    @pytest.mark.parametrize("lam", [-5e5, -6e5, -1e16])
    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_mode_weyl_values_match_mpmath(self, disk_int_v0, disk_ext_v0,
                                           side, lam):
        model = disk_int_v0 if side == "interior" else disk_ext_v0
        got = model.mode_weyl_values(lam)
        want = np.array([disk_weyl_v0(side, abs(int(k)), lam)
                         for k in model.mode_numbers])
        assert np.all(np.abs(got - want) < 1e-12 * np.abs(want))

    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_bessel_data_past_their_range_fail_to_converge(
            self, disk_int_v0, disk_ext_v0, side):
        model = disk_int_v0 if side == "interior" else disk_ext_v0
        with pytest.raises(NoConvergence):
            model.mode_weyl_values(-1e20)
        batch = model.weyl_batch([-1e20, -1.0])
        assert np.isnan(batch[0]).all()
        assert np.isfinite(batch[1]).all()

    @pytest.mark.parametrize("side", ["interior", "exterior"])
    def test_kernel_solve_keeps_its_trace(self, disk_int_v0, disk_ext_v0,
                                          side):
        model = disk_int_v0 if side == "interior" else disk_ext_v0
        for e in model.boundary_basis():
            f = model.solve_bvp(-6e5, e)
            assert np.all(np.isfinite(f))
            assert np.abs(model.trace0(f) - e).max() < 1e-15


class TestZeroPotentialKernel:
    """The interior V = 0 kernel comes from the collocation solve, as on
    every disk; the closed form it replaced, I_k(s r) / (s I_k'(s)) from
    the scaled ive, is the reference."""

    @pytest.mark.parametrize("k_max", [4, 16])
    def test_collocation_matches_the_bessel_kernel(self, k_max, disk_int_v0):
        model = (disk_int_v0 if k_max == 4 else
                 build_disk(DiskModelConfig(side="interior", k_max=k_max)))
        r, nr = model.grid.nodes, model.grid.size
        for lam in (-0.75, -8.0, -100.0, 3.0 + 2.0j):
            s = np.sqrt(0j - lam)
            for p, e in enumerate(model.boundary_basis()):
                k = abs(int(model.mode_numbers[p]))
                got = model.solve_bvp(lam, e)
                want = np.zeros_like(got)
                scaled_dik = model_disk.bessel_i(k, s)[1]
                want[p * nr:(p + 1) * nr] = (
                    ive(k, s * r) * np.exp(s.real * (r - 1.0)) / (s * scaled_dik))
                assert model.hnorm(got - want) <= 1e-10 * model.hnorm(want), \
                    f"lambda = {lam}, mode {k}"


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

    def test_recycled_band_storage_keeps_the_bits(self):
        # six points, two more than the four the LU cache holds: the last
        # two are factored after the cache was cleared, and every point
        # gives a fresh model's bits
        config = DiskModelConfig(
            side="exterior", k_max=2, support=(1.0, 3.0),
            radial_potential=Potential1D.constant(1.5 + 1.0j))
        lams = [-3.0, 5 + 3j, -50.0, -500.0, 20 - 5j, -5e3]
        model = build_disk(config)
        got = np.concatenate([model.weyl_batch(lams[:4]),
                              model.weyl_batch(lams[4:])])
        assert len(model._cache) == 2  # the fifth point cleared the cache
        for lam, m in zip(lams, got):
            want = build_disk(config).weyl_batch([lam])[0]
            assert m.tobytes() == want.tobytes(), lam

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


def _mode_block_by_faces(model, k):
    """H_N of mode k built face by face, the loop _mode_block replaces."""
    m = model.config.radial_grid
    lo, hi = (0.0, 1.0) if model.config.side == "interior" else (
        1.0, model.config.r_cut)
    h = (hi - lo) / m
    centers = lo + (np.arange(m) + 0.5) * h
    faces = lo + np.arange(m + 1) * h
    hn = np.zeros((m, m))
    for j in range(m - 1):
        c = faces[j + 1] / h ** 2
        hn[j, j] += c / centers[j]
        hn[j + 1, j + 1] += c / centers[j + 1]
        coupling = c / np.sqrt(centers[j] * centers[j + 1])
        hn[j, j + 1] -= coupling
        hn[j + 1, j] -= coupling
    if model.config.side == "exterior":
        hn[m - 1, m - 1] += 2.0 * faces[m] / (h ** 2 * centers[m - 1])
    return hn + np.diag(float(k * k) / centers ** 2)


class TestModeBlocks:
    def test_match_the_face_loop_bit_for_bit(self, disk_int_v0, disk_ext_const):
        for model in (disk_int_v0, disk_ext_const):
            for k, (hn, _) in enumerate(dense_blocks(model)):
                want = _mode_block_by_faces(model, k)
                assert hn.tobytes() == want.tobytes(), (model.kind, k)


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

    @pytest.mark.parametrize("beta", [-1.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_scan_matches_the_scalar_loop(self, beta, k):
        # the scalar t += step loop the one-call scan replaced, kept as
        # reference: same bracket, so the same brentq root bit for bit
        def g(t):
            jv_t, jd_t = model_disk.bessel_j(k, t)
            return t * jd_t - beta * jv_t

        def loop():
            step, t_max = 0.02, 8.5
            t_prev = step
            g_prev = g(t_prev)
            t = t_prev + step
            while t <= t_max + 1e-12:
                if g_prev == 0.0:
                    return t_prev ** 2
                g_here = g(t)
                if (g_prev < 0.0) != (g_here < 0.0):
                    return brentq(g, t_prev, t, xtol=1e-14) ** 2
                t_prev, g_prev = t, g_here
                t += step
            raise NoRootInBracket("no crossing")

        assert disk_robin_reference(k, beta) == loop()

    def test_root_out_of_reach(self):
        # j'_{8,1} ~ 9.65 lies beyond the scan window
        with pytest.raises(NoRootInBracket):
            disk_robin_reference(8, 0.0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            disk_robin_reference(-1, 1.0)
