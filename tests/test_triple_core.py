"""Model-independent boundary-triple operations: gamma fields, Weyl maps and
their identities, Krein resolvents, eigenvalue location, and the sectorial
factorization, exercised over all three model families."""
import ast
import pathlib
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from btriple import (
    BirmanSchwingerSingular,
    BoundaryOperator,
    DiskModelConfig,
    Fd1dModel,
    NoConvergence,
    NotAnEigenvalue,
    NotCertified,
    NotPositiveDefinite,
    Potential1D,
    ShootConfig,
    bs_kernel_lift,
    build_disk,
    build_fd1d,
    build_shoot1d,
    c1_norm_at,
    dense_robin_matrix,
    difference_identity_defect,
    eig_dense,
    find_xi2,
    gamma,
    gamma_adjoint,
    gamma_resolvent_identity_defect,
    gamma_tilde,
    green_defect,
    krein_resolvent,
    krein_resolvent_tilde,
    relative_bound_decay,
    robin_eigs,
    sectorial_factorization,
    solve_linear,
    weyl,
    weyl_decay_study,
    weyl_symmetry_defect,
)

import btriple.triple_core as triple_core
from btriple.harness import _green_floor
from btriple.triple_core import _weyl_matrix

from .conftest import complex_bump
from .oracles import (
    DISK_ROBIN_T2,
    ROBIN_BETA,
    ROBIN_KAPPA,
    ROBIN_KS,
    ROBIN_LAM_NEG,
    ROBIN_LAMS_POS,
    dense_blocks,
    herm_inv_sqrt,
    pointwise_weyl,
    robin_eigenfunction_neg,
    robin_eigenfunction_pos,
)


class TestSpectralPoint:
    def test_certified_below_threshold(self, fd_v0):
        assert weyl(fd_v0, -1.0).lam == -1.0
        for lam in (-0.3, -1.0 + 0.5j):
            with pytest.raises(NotCertified):
                weyl(fd_v0, lam)

    def test_uncertified_raises_by_default(self, fd_v0):
        with pytest.raises(NotCertified, match="certified half-line"):
            weyl(fd_v0, -0.3)
        with pytest.raises(NotCertified):
            gamma(fd_v0, -2.0 + 1.0j, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"),
                                     complex(1.0, float("nan"))])
    @pytest.mark.parametrize("model", ["fd_v0", "shoot_v0", "disk_int_const",
                                       "disk_ext_v0"])
    def test_non_finite_is_a_value_error(self, request, model, lam):
        # not a Neumann-spectrum hit, even where no certification is asked
        with pytest.raises(ValueError, match="not finite"):
            weyl(request.getfixturevalue(model), lam, allow_uncertified=True)


class TestBoundaryOperator:
    def test_scalar(self):
        b = BoundaryOperator.scalar(0.7, 2)
        assert np.array_equal(b.matrix, 0.7 * np.eye(2))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            BoundaryOperator(matrix=np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BoundaryOperator(matrix=np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_robin_eigs_rejects_non_finite_input(self, fd_v0):
        region, grid = (-4.0, -0.5, -0.1, 0.1), (25, 3)
        with pytest.raises(ValueError, match="not finite"):
            robin_eigs(fd_v0, np.eye(2), (-4.0, np.nan, -0.1, 0.1), grid)
        with pytest.raises(ValueError, match="finite"):
            robin_eigs(fd_v0, np.array([[np.nan, 0.0], [0.0, 1.0]]), region,
                       grid)

    @pytest.mark.parametrize("region", [(30.0, -20.0, -6.0, 6.0),
                                        (-20.0, 30.0, 6.0, -6.0)],
                             ids=["real", "imaginary"])
    def test_robin_eigs_rejects_an_inverted_region(self, fd_v0, region):
        # a minimum above its maximum is an input error, not an empty scan
        with pytest.raises(ValueError, match="inverted"):
            robin_eigs(fd_v0, BoundaryOperator.scalar(0.7, 2), region, (24, 9))

    def test_robin_eigs_scans_a_segment_of_the_real_axis(self, fd_v0):
        # a degenerate side is no inversion
        roots = robin_eigs(fd_v0, BoundaryOperator.scalar(0.7, 2),
                           (-20.0, 30.0, 0.0, 0.0), (24, 9))
        assert all(-20.0 <= z.real <= 30.0 for z in roots)


class TestGammaFields:
    def test_interval_closed_form(self, shoot_v0):
        f = gamma(shoot_v0, -1.0, np.array([1.0, 0.0]))
        xs = shoot_v0.grid.nodes
        want = np.cosh(1.0 - xs) / np.sinh(1.0)
        assert np.abs(f[:shoot_v0.grid.size] - want).max() < 1e-9

    def test_tilde_collapses_for_real_potential(self, fd_v0):
        g = np.array([0.7, -0.3 + 0.4j])
        a = gamma(fd_v0, -2.0, g)
        b = gamma_tilde(fd_v0, -2.0, g)
        assert np.abs(a - b).max() < 1e-13 * np.abs(a).max()

    def test_tilde_differs_for_complex_potential(self, fd_complex):
        g = np.array([1.0, 0.0])
        a = gamma(fd_complex, -6.0, g)
        b = gamma_tilde(fd_complex, -6.0, g)
        assert np.abs(a - b).max() > 1e-4 * np.abs(a).max()

    def test_adjoint_pairing(self, fd_complex):
        # <gamma(lam) e, f> in the domain equals <e, gamma(lam)* f> on the
        # boundary carrier
        rng = np.random.default_rng(21)
        lam = -7.5
        for _ in range(10):
            e = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            f = fd_complex.random_domain_vector(rng)
            lhs = fd_complex.inner(gamma(fd_complex, lam, e), f)
            rhs = fd_complex.binner(e, gamma_adjoint(fd_complex, lam, f))
            assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_gamma_reproduces_neumann_trace(self, disk_int_v0):
        e = np.zeros(9, dtype=complex)
        e[4] = 1.0  # mode 0
        f = gamma(disk_int_v0, -1.0, e)
        assert np.abs(disk_int_v0.trace0(f) - e).max() < 1e-10


class TestWeylFunction:
    def test_sample_norm_is_spectral(self, fd_v0):
        ws = weyl(fd_v0, -1.0)
        assert ws.norm == pytest.approx(np.linalg.norm(ws.m, 2))
        assert ws.lam == -1.0

    def test_real_potential_real_lambda_gives_real_symmetric(self, fd_v0):
        m = weyl(fd_v0, -3.0, allow_uncertified=True).m
        assert np.abs(m.imag).max() < 1e-14
        assert np.abs(m - m.T).max() < 1e-13 * np.abs(m).max()

    @pytest.mark.parametrize("lam", [-1.0, -6.0 + 2.0j, -3.0 - 4.5j])
    def test_symmetry_fd(self, fd_complex, lam):
        assert weyl_symmetry_defect(fd_complex, lam,
                                    allow_uncertified=True) < 1e-10

    @pytest.mark.parametrize("lam", [-2.0, -5.0 + 1.0j])
    def test_symmetry_shoot(self, shoot_complex, lam):
        assert weyl_symmetry_defect(shoot_complex, lam,
                                    allow_uncertified=True) < 1e-8

    @pytest.mark.parametrize("lam", [-2.0, -3.0 + 1.5j])
    def test_symmetry_disk(self, disk_int_const, disk_ext_const, lam):
        assert weyl_symmetry_defect(disk_int_const, lam,
                                    allow_uncertified=True) < 1e-8
        assert weyl_symmetry_defect(disk_ext_const, lam,
                                    allow_uncertified=True) < 1e-8


class TestDifferenceIdentity:
    PAIRS = [(-1.0, -2.0), (-6.0 + 1.0j, -4.0), (-5.0, -7.0 - 2.0j),
             (-6.0 + 2.0j, -9.0 - 1.0j)]

    @pytest.mark.parametrize("lam,mu", PAIRS)
    def test_fd(self, fd_complex, lam, mu):
        assert difference_identity_defect(fd_complex, lam, mu,
                                          allow_uncertified=True) < 1e-10

    @pytest.mark.parametrize("lam,mu", PAIRS[:2])
    def test_shoot(self, shoot_complex, lam, mu):
        assert difference_identity_defect(shoot_complex, lam, mu,
                                          allow_uncertified=True) < 1e-8

    @pytest.mark.parametrize("lam,mu", PAIRS[:2])
    def test_disk(self, disk_int_const, lam, mu):
        assert difference_identity_defect(disk_int_const, lam, mu,
                                          allow_uncertified=True) < 1e-8


class TestGammaResolventIdentity:
    def test_exactly_zero_at_equal_points(self, fd_complex):
        g = np.array([1.0, -0.5j])
        d = gamma_resolvent_identity_defect(fd_complex, -6.0, -6.0, g)
        assert d == 0.0

    @pytest.mark.parametrize("lam,nu", [(-5.0, -9.0), (-6.0 + 1.0j, -8.0)])
    def test_fd(self, fd_complex, lam, nu):
        g = np.array([0.8, 0.6 - 0.2j])
        assert gamma_resolvent_identity_defect(fd_complex, lam, nu, g,
                                               allow_uncertified=True) < 1e-10

    def test_shoot(self, shoot_complex):
        g = np.array([1.0, 0.3j])
        assert gamma_resolvent_identity_defect(shoot_complex, -4.0, -7.0, g,
                                               allow_uncertified=True) < 1e-8

    def test_disk(self, disk_ext_const):
        g = np.zeros(7, dtype=complex)
        g[3] = 1.0
        g[5] = 0.4 - 0.1j
        assert gamma_resolvent_identity_defect(disk_ext_const, -3.0, -6.0, g,
                                               allow_uncertified=True) < 1e-8


class TestGreenDefect:
    def test_fd_generic_route_within_rounding_floor(self, fd_v0):
        # V = 0: the bracket is pure rounding, bounded by eps (||Tf|| ||g||
        # + ||f|| ||T~g||), and not identically 0 as a V-only term would be
        rng = np.random.default_rng(40)
        defects = []
        for _ in range(10):
            f = fd_v0.random_domain_vector(rng)
            g = fd_v0.random_domain_vector(rng)
            defects.append(green_defect(fd_v0, f, g))
            assert defects[-1] <= _green_floor(fd_v0, f, g)
        assert max(defects) > 0.0

    @pytest.mark.parametrize("fixture", ["shoot_complex", "disk_int_const",
                                         "disk_ext_const"])
    def test_generic_route(self, fixture, request):
        model = request.getfixturevalue(fixture)
        rng = np.random.default_rng(41)
        for _ in range(5):
            f = model.random_domain_vector(rng)
            g = model.random_domain_vector(rng)
            scale = model.hnorm(f) * model.hnorm(g) * (1.0 + model.v_sup_proxy())
            assert green_defect(model, f, g) < 1e-8 * scale


class TestKreinResolvent:
    def test_zero_coupling_is_neumann_resolvent(self, fd_v0):
        rng = np.random.default_rng(3)
        f = fd_v0.random_domain_vector(rng)
        kr = krein_resolvent(fd_v0, np.zeros((2, 2)), -2.0, f)
        assert np.array_equal(kr, fd_v0.neumann_resolvent(-2.0, f))

    def test_matches_dense_matrix(self, fd_complex):
        rng = np.random.default_rng(22)
        b = np.diag([1.0, -1.0j])
        ab = dense_robin_matrix(fd_complex, b=b)
        lam = -9.0
        for _ in range(20):
            f = fd_complex.random_domain_vector(rng)
            u = krein_resolvent(fd_complex, b, lam, f)
            cells = solve_linear(ab - lam * np.eye(ab.shape[0]), f[1:-1])
            assert np.abs(u[1:-1] - cells).max() < 1e-8 * np.abs(cells).max()

    @pytest.mark.parametrize("fixture,lam", [
        ("fd_complex", -9.0), ("shoot_complex", -9.0),
        ("disk_int_const", -8.0), ("disk_ext_const", -8.0),
    ])
    def test_pde_and_boundary_residuals(self, fixture, lam, request):
        model = request.getfixturevalue(fixture)
        rng = np.random.default_rng(23)
        b = BoundaryOperator.scalar(0.4 - 0.3j, model.boundary_dim)
        f = model.random_domain_vector(rng)
        u = krein_resolvent(model, b, lam, f, allow_uncertified=True)
        res = model.apply_T(u) - lam * u
        pde = model.hnorm(res - np.asarray(f, dtype=complex)) / model.hnorm(f)
        assert pde < 1e-8
        bc = np.abs(b.matrix @ model.trace1(u) - model.trace0(u)).max()
        assert bc < 1e-8 * np.abs(model.trace1(u)).max()

    def test_interval_expansion_oracle(self, shoot_v0):
        # rhs assembled from the frozen Robin eigenfunctions at beta = 0.7,
        # so the eigenfunction expansion of the resolvent is finite
        xs = shoot_v0.grid.nodes
        c = [1.0, 0.5, -0.2, 0.3, 0.1]

        def rhs_at(x):
            out = c[0] * robin_eigenfunction_neg(x)
            for j in range(4):
                out = out + c[j + 1] * robin_eigenfunction_pos(j, x)
            return out

        def drhs_at(x):
            out = c[0] * ROBIN_KAPPA * np.sinh(ROBIN_KAPPA * (x - 0.5))
            for j in range(4):
                k = ROBIN_KS[j]
                out = out + c[j + 1] * (-k * np.sin(k * x)
                                        - ROBIN_BETA * np.cos(k * x))
            return out

        carrier = np.concatenate([
            rhs_at(xs), [rhs_at(0.0), drhs_at(0.0), rhs_at(1.0), drhs_at(1.0)]
        ]).astype(complex)
        lam = -20.0
        u = krein_resolvent(shoot_v0, ROBIN_BETA * np.eye(2), lam, carrier)
        mus = [ROBIN_LAM_NEG] + list(ROBIN_LAMS_POS)
        want = c[0] * robin_eigenfunction_neg(xs) / (mus[0] - lam)
        for j in range(4):
            want = want + c[j + 1] * robin_eigenfunction_pos(j, xs) / (mus[j + 1] - lam)
        err = np.abs(u[:shoot_v0.grid.size] - want).max() / np.abs(want).max()
        assert err < 1e-7

    def test_adjoint_mirror(self, fd_complex):
        # <(A_B - lam)^-1 f, g> = <f, (A~_B* - conj lam)^-1 g>
        rng = np.random.default_rng(24)
        b = np.array([[0.3 + 0.1j, 0.05], [0.0, -0.2j]])
        lam = -9.0
        for _ in range(10):
            f = fd_complex.random_domain_vector(rng)
            g = fd_complex.random_domain_vector(rng)
            u = krein_resolvent(fd_complex, b, lam, f)
            w = krein_resolvent_tilde(fd_complex, b.conj().T, np.conj(lam), g)
            lhs = fd_complex.inner(u, g)
            rhs = fd_complex.inner(f, w)
            assert abs(lhs - rhs) < 1e-8 * abs(lhs)

    def test_singular_at_eigenvalue(self, fd_v0):
        rng = np.random.default_rng(5)
        b = 0.9 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        w = eig_dense(dense_robin_matrix(fd_v0, b=b))
        lam = w[np.argmin(np.abs(w))]
        f = fd_v0.random_domain_vector(rng)
        with pytest.raises(BirmanSchwingerSingular):
            krein_resolvent(fd_v0, b, lam, f, allow_uncertified=True)


def _bs_sigma_min(model, b, lam):
    # the Birman-Schwinger indicator sigma_min(I - B M(lambda))
    m = weyl(model, lam, allow_uncertified=True).m
    return sla.svdvals(np.eye(model.boundary_dim) - b @ m).min()


class TestBirmanSchwinger:
    def test_indicator_is_one_for_zero_coupling(self, fd_v0):
        assert _bs_sigma_min(fd_v0, np.zeros((2, 2)), -1.0) == 1.0

    def test_indicator_vanishes_at_eigenvalue(self, fd_v0):
        rng = np.random.default_rng(5)
        b = 0.9 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        w = eig_dense(dense_robin_matrix(fd_v0, b=b))
        lam = w[np.argmin(np.abs(w))]
        assert _bs_sigma_min(fd_v0, b, lam) < 1e-10

    def test_kernel_lift_rejects_regular_point(self, fd_v0):
        with pytest.raises(NotAnEigenvalue):
            bs_kernel_lift(fd_v0, 0.3 * np.eye(2), -2.0)

    def test_kernel_lift_matches_dense_eigenvector(self, fd_v0):
        rng = np.random.default_rng(5)
        b = 0.9 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        w, v = sla.eig(dense_robin_matrix(fd_v0, b=b))
        j = int(np.argmin(np.abs(w)))
        lifts = bs_kernel_lift(fd_v0, b, w[j])
        assert len(lifts) == 1
        u = lifts[0][1:-1]
        align = abs(np.vdot(v[:, j], u)) / (np.linalg.norm(u) * np.linalg.norm(v[:, j]))
        assert 1.0 - align < 1e-8

    def test_no_eigenvalues_on_certified_halfline(self, fd_v0):
        roots = robin_eigs(fd_v0, np.zeros((2, 2)), (-4.0, -0.5, -0.1, 0.1),
                           (25, 3))
        assert roots == []

    def test_interval_roots_match_dense(self, fd_v0):
        b = np.diag([1.0, -1.0j])
        dense = eig_dense(dense_robin_matrix(fd_v0, b=b))
        region = (-20.0, 30.0, -6.0, 6.0)
        roots = robin_eigs(fd_v0, b, region, (60, 21))
        inside = [z for z in dense
                  if -19.0 <= z.real <= 29.0 and -5.5 <= z.imag <= 5.5]
        assert len(roots) >= len(inside) > 0
        for z in inside:
            assert min(abs(z - r) for r in roots) < 1e-6

    def test_newton_stays_within_one_span_of_window(self):
        # the first weyl_batch call is the scan grid, every later one a
        # lockstep Newton step; unbounded, these reached |lambda| ~ 1e38
        model = build_fd1d(n=96, potential=Potential1D.from_callable(
            complex_bump))
        calls = []
        batch = model.weyl_batch

        def recording(lams, tilde=False):
            calls.append(np.array(lams, dtype=complex))
            return batch(lams, tilde)

        model.weyl_batch = recording
        rng = np.random.default_rng(0)
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        re0, re1, im0, im1 = region = (-20.0, 30.0, -6.0, 6.0)
        roots = robin_eigs(model, b, region, (96, 33))
        span = max(re1 - re0, im1 - im0)
        assert len(calls) > 1
        for z in np.concatenate(calls[1:]):
            assert re0 - span <= z.real <= re1 + span
            assert im0 - span <= z.imag <= im1 + span
        def inset(zs):
            return [z for z in zs if re0 + 0.1 <= z.real <= re1 - 0.1
                    and im0 + 0.024 <= z.imag <= im1 - 0.024]

        dense = inset(eig_dense(dense_robin_matrix(model, b=b)))
        found = inset(roots)
        assert len(found) == len(dense) > 0
        for z in dense:
            assert min(abs(z - r) for r in found) < 1e-6

    def test_disk_window_with_degenerate_pair(self, disk_int_v0):
        # the (12, 14) window holds the mode-0 root and the doubly
        # degenerate |k| = 1 root; deflation must not lose either
        roots = robin_eigs(disk_int_v0, np.eye(9), (12.0, 14.0, -0.4, 0.4),
                           (40, 5))
        assert len(roots) == 2
        assert abs(roots[0] - DISK_ROBIN_T2[1.0][0]) < 1e-8
        assert abs(roots[1] - DISK_ROBIN_T2[1.0][3]) < 1e-8


class TestLockstepScan:
    def test_second_b_reuses_the_grid(self):
        # the contour's Weyl stack is cached per (region, grid) and grown
        # level by level: no node is evaluated twice, whatever the B
        model = build_fd1d(n=32)
        calls = []
        batch = model.weyl_batch

        def recording(lams, tilde=False):
            calls.append(np.array(lams, dtype=complex))
            return batch(lams, tilde)

        model.weyl_batch = recording
        region, grid = (-20.0, 30.0, -6.0, 6.0), (24, 9)
        first_level = 2 * (24 + 9 - 2)

        def evaluated():
            return np.concatenate(calls)

        robin_eigs(model, 0.7 * np.eye(2), region, grid)
        assert len(calls[0]) == first_level
        # each later call holds the nodes between those of the level before
        assert [len(c) for c in calls[1:]] == [
            first_level * 2**j for j in range(len(calls) - 1)]
        b = np.diag([1.0, -1.0j])
        roots = robin_eigs(model, b, region, grid)
        nodes = evaluated()
        assert len(np.unique(nodes)) == len(nodes)
        assert roots == robin_eigs(build_fd1d(n=32), b, region, grid)
        # another window evaluates its own contour first
        before = len(calls)
        robin_eigs(model, b, (-10.0, 30.0, -6.0, 6.0), grid)
        assert len(calls[before]) == first_level
        assert not np.isin(calls[before], nodes).any()

    def test_node_cap_without_agreeing_levels_raises(self, monkeypatch):
        # with the cap at the first level, no contour (nor any cut of the
        # region) gets the second level it needs to agree with
        monkeypatch.setattr(triple_core, "_CONTOUR_MAX_NODES", 2 * (24 + 9 - 2))
        with pytest.raises(NoConvergence):
            robin_eigs(build_fd1d(n=32), np.diag([1.0, -1.0j]),
                       (-20.0, 30.0, -6.0, 6.0), (24, 9))

    def test_nan_row_on_the_contour_raises(self):
        # a node on the Neumann spectrum gives a NaN row; every contour meets it
        model = build_fd1d(n=32)
        batch = model.weyl_batch

        def holed(lams, tilde=False):
            out = batch(lams, tilde)
            out[0] = np.nan
            return out

        model.weyl_batch = holed
        with pytest.raises(NoConvergence):
            robin_eigs(model, np.diag([1.0, -1.0j]), (-20.0, 30.0, -6.0, 6.0),
                       (24, 9))

    @pytest.mark.parametrize("family", ["fd1d", "shoot1d", "disk"])
    def test_no_point_wise_weyl_matrix(self, family, monkeypatch):
        # every evaluation, grid and Newton steps, goes through weyl_batch;
        # fresh models, so no cached grid hides the grid's evaluation
        def forbidden(*args):
            raise AssertionError("_weyl_matrix called during robin_eigs")

        if family == "fd1d":
            model, b = build_fd1d(n=32), np.diag([1.0, -1.0j])
            region, grid, count = (-20.0, 30.0, -6.0, 6.0), (24, 9), None
        elif family == "shoot1d":
            model = build_shoot1d(ShootConfig(), panels=2, order=8,
                                  fd_nodes=32)
            b = BoundaryOperator.scalar(0.7, 2)
            region, grid, count = (-4.0, 12.0, -1.0, 1.0), (12, 3), 2
        else:
            model = build_disk(DiskModelConfig(side="interior", k_max=4))
            b = np.eye(9)
            region, grid, count = (12.0, 14.0, -0.4, 0.4), (40, 5), 2
        monkeypatch.setattr(triple_core, "_weyl_matrix", forbidden)
        roots = robin_eigs(model, b, region, grid)
        assert roots
        if count is not None:
            assert len(roots) == count


class TestWeylBatchDefault:
    def test_disk_loop_matches_pointwise(self, disk_int_const):
        # a disk with a potential keeps the contract's per-point loop
        lams = np.array([-3.0, 2.5 + 0.5j, 14.0 - 0.3j])
        batch = disk_int_const.weyl_batch(lams)
        assert batch.shape == (3, 7, 7)
        for lam, m in zip(lams, batch):
            assert np.array_equal(m, _weyl_matrix(disk_int_const, lam, False))

    def test_failed_point_gives_nan_row(self, fd_v0, monkeypatch):
        # the contract's own loop, which takes over where the fd1d sweep fails
        monkeypatch.setattr(Fd1dModel, "_weyl_chunk", _refused)
        batch = fd_v0.weyl_batch([0.0, -1.0])
        assert np.isnan(batch[0]).all()
        assert np.array_equal(batch[1], weyl(fd_v0, -1.0).m)

    def test_failed_kernel_falls_back_to_pointwise(self, fd_v0, monkeypatch):
        monkeypatch.setattr(Fd1dModel, "_weyl_chunk", _refused)
        lams = np.concatenate([[0.0, np.nan], _circle(298)])
        assert np.array_equal(fd_v0.weyl_batch(lams),
                              pointwise_weyl(fd_v0, lams), equal_nan=True)

    def test_only_the_failed_chunk_falls_back(self, fd_v0, monkeypatch):
        lams = _circle(300)
        swept = fd_v0.weyl_batch(lams)
        sweep = Fd1dModel._weyl_chunk

        def short_chunk_fails(model, chunk, tilde):
            if len(chunk) < 256:
                raise NoConvergence("short chunk refused")
            return sweep(model, chunk, tilde)

        def counted(*args):
            calls.append(args[1])
            return point(*args)

        calls, point = [], triple_core._weyl_matrix
        monkeypatch.setattr(Fd1dModel, "_weyl_chunk", short_chunk_fails)
        monkeypatch.setattr(triple_core, "_weyl_matrix", counted)
        got = fd_v0.weyl_batch(lams)
        # the chunk solve and the point-wise solve give the same bits, so
        # the fallback shows in the point-wise calls: the 44-point chunk's
        assert calls == list(lams[256:])
        assert np.array_equal(got, swept)
        monkeypatch.undo()
        assert np.array_equal(got[256:], pointwise_weyl(fd_v0, lams[256:]))

    @pytest.mark.parametrize("fixture, points", [
        ("fd_v0", [0.0]),
        ("shoot_v0", [0.0, np.pi**2]),
        ("disk_int_v0", [0.0]),
        ("disk_ext_v0", [0.0]),
        ("disk_int_const", []),
    ])
    def test_nan_and_neumann_points_raise_no_warning(self, fixture, points,
                                                     request):
        # NaN, inf and zero pivots in a NaN row are expected, not warnings
        model = request.getfixturevalue(fixture)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = model.weyl_batch([np.nan, *points, -1.0])
        assert np.isnan(batch[:-1]).all()
        assert np.isfinite(batch[-1]).all()


def _refused(model, lams, tilde):
    raise NoConvergence("chunk kernel refused")


def _circle(count, center=-20.0, radius=15.0):
    return center + radius * np.exp(2j * np.pi * (np.arange(count) + 0.5)
                                    / count)


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestHnBlocks:
    """The hn_v_blocks contract, and hn_blocks against dense eigh."""

    @pytest.mark.parametrize("name", [
        "fd_v0", "fd_complex", "shoot_v0", "shoot_complex", "disk_int_v0",
        "disk_ext_v0", "disk_int_const", "disk_ext_const"])
    def test_bands_and_diagonal(self, request, name):
        model = request.getfixturevalue(name)
        for bands, v in model.hn_v_blocks():
            m = bands.shape[1]
            assert bands.shape == (3, m) and bands.dtype == float
            assert np.array_equal(bands[0, 1:], bands[2, :-1])
            assert v.shape == (m,) and v.dtype == complex

    @pytest.mark.parametrize("build", [
        lambda: build_fd1d(n=96),
        lambda: build_shoot1d(ShootConfig(), panels=4, order=12, fd_nodes=128),
        lambda: build_disk(DiskModelConfig(side="interior", k_max=4)),
        lambda: build_disk(DiskModelConfig(
            side="exterior", k_max=3, support=(1.0, 3.0),
            radial_potential=Potential1D.constant(1.5 + 1.0j))),
    ], ids=["fd1d", "shoot1d-p4-o12-fd128", "disk-interior", "disk-exterior"])
    def test_lowest_eigenpair_matches_dense_eigh(self, build):
        # LAPACK stebz + stein against the full dense eigh: the bottom to
        # rounding at the scale of H_N, its eigenvector up to sign
        model = build()
        for block, (hn, _) in zip(model.hn_blocks(), dense_blocks(model)):
            w, u = sla.eigh(hn)
            assert abs(block.bottom - w[0]) <= 1e-12 * np.abs(w).max()
            sign = np.sign(u[:, 0] @ block.u0)
            assert np.abs(sign * block.u0 - u[:, 0]).max() <= 1e-10


class TestSectorialFactorization:
    def test_zero_potential_has_zero_correction(self, fd_v0):
        sf = sectorial_factorization(fd_v0, -1.0, _rng())
        assert c1_norm_at(fd_v0, -1.0) == _dense_c1_norm(fd_v0, -1.0) == 0.0
        assert sf.defect < 1e-9
        assert sf.lam == -1.0

    def test_complex_potential_contraction(self, fd_complex):
        lam = fd_complex.certified_threshold() - 1.0
        sf = sectorial_factorization(fd_complex, lam, _rng())
        c1 = c1_norm_at(fd_complex, lam)
        assert c1 == pytest.approx(_dense_c1_norm(fd_complex, lam), rel=1e-12)
        assert c1 <= 0.5
        assert sf.defect < 1e-9

    def test_requires_certified_point(self, fd_v0):
        with pytest.raises(NotCertified):
            sectorial_factorization(fd_v0, -0.3, _rng())

    def test_c1_norm_at_inside_spectrum(self, fd_v0):
        with pytest.raises(NotPositiveDefinite):
            c1_norm_at(fd_v0, 5.0)

    def test_c1_norm_decreases_along_halfline(self, fd_complex):
        norms = [c1_norm_at(fd_complex, lam) for lam in (-4.0, -8.0, -16.0, -32.0)]
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 0.25

    def test_disk_blocks(self, disk_int_const):
        lam = disk_int_const.certified_threshold() - 1.0
        sf = sectorial_factorization(disk_int_const, lam, _rng())
        c1 = c1_norm_at(disk_int_const, lam)
        assert c1 == pytest.approx(_dense_c1_norm(disk_int_const, lam),
                                   rel=1e-12)
        assert c1 <= 0.5
        assert sf.defect < 1e-9


def _exact_sectorial(model, lam):
    # max over blocks of ||R - F|| and of ||R|| = 1 / sigma_min(H_N + V -
    # lam), with R = (H_N + V - lam)^-1 and F = S (I + C1)^-1 S, S =
    # (H_N - lam)^(-1/2), C1 = S V S. R and F are the maps that
    # sectorial_factorization applies to its probes (the gtsv of
    # H_N + V - lam, and Woodbury on pttrf's solves), here applied to the
    # unit vectors: a dense F carries rounding of its own, larger than the
    # difference the probes measure
    defect = norm = 0.0
    for block, (hn, v) in zip(model.hn_blocks(), dense_blocks(model)):
        eye = np.eye(hn.shape[0])
        shifted = block.bands.astype(complex)
        shifted[1] += block.v - lam
        resolvent = sla.solve_banded((1, 1), shifted, eye.astype(complex))
        k = block.support
        s2, s2_k = triple_core._resolvent_columns(block, lam, eye + 0j)
        z = solve_linear(np.eye(k.size) + block.v_k[:, None] * s2_k[k],
                         block.v_k[:, None] * s2[k])
        factored = s2 - s2_k @ z
        defect = max(defect, float(sla.svdvals(resolvent - factored).max()))
        norm = max(norm, 1.0 / float(sla.svdvals(hn + v - lam * eye).min()))
    return defect, norm


class TestSectorialProbes:
    """The probe estimate of ||R - F|| / ||R|| against the SVD of the same
    maps on every unit vector, and the guard that keeps order-n dense
    solves and SVDs out of the sectorial layer."""

    @pytest.mark.parametrize("build", [
        lambda: build_fd1d(n=96, length=1.0),
        lambda: build_fd1d(n=96, potential=Potential1D.power_singularity(
            1.0 - 0.5j, 0.4, 0.4, 2.0)),
        lambda: build_shoot1d(ShootConfig(
            potential=Potential1D.constant(3.0 - 2.0j))),
        lambda: build_disk(DiskModelConfig(
            side="interior", k_max=3, support=(0.5, 1.0),
            radial_potential=Potential1D.constant(3.0 - 2.0j))),
        lambda: build_disk(DiskModelConfig(
            side="exterior", k_max=3, support=(1.0, 3.0),
            radial_potential=Potential1D.constant(1.5 + 1.0j))),
    ], ids=["fd1d-v0", "fd1d-power", "shoot1d-constant", "disk-interior",
            "disk-exterior"])
    def test_probe_ratio_bounds_the_exact_ratio(self, build):
        model = build()
        rng = _rng(7)
        for lam in (1.5 * model.certified_threshold(),
                    4.0 * model.certified_threshold()):
            sf = sectorial_factorization(model, lam, rng)
            defect, norm = _exact_sectorial(model, lam)
            exact = defect / norm
            assert exact <= sf.defect / sf.resolvent_norm <= 100.0 * exact
            # ||R u0|| <= ||R|| up to rounding
            assert sf.resolvent_norm <= norm * (1.0 + 1e-9)
            assert norm <= 1.01 * sf.resolvent_norm

    def test_no_order_n_svd_or_solve(self, monkeypatch, disk_ext_const):
        thr = disk_ext_const.certified_threshold()
        blocks = disk_ext_const.hn_blocks()
        assert all(0 < block.support.size < block.v.size // 4
                   for block in blocks)
        calls = []

        def recorded(name, fn):
            def wrapped(*args, **kwargs):
                # the shape of each array argument, a band pair (l, u) as is
                calls.append((name, *(a if isinstance(a, tuple)
                                      else np.shape(a) for a in args)))
                return fn(*args, **kwargs)
            return wrapped

        for owner, name in ((triple_core.sla, "svdvals"),
                            (triple_core.sla, "cholesky"),
                            (triple_core.sla, "solve_banded"),
                            (triple_core.sla, "eigh"),
                            (triple_core.sla, "eigh_tridiagonal"),
                            (triple_core, "dpttrs"),
                            (triple_core, "solve_linear"),
                            (triple_core, "smallest_singular_value")):
            monkeypatch.setattr(owner, name,
                                recorded(name, getattr(owner, name)))
        sectorial_factorization(disk_ext_const, 2.0 * thr, _rng())
        c1_norm_at(disk_ext_const, 2.0 * thr)
        relative_bound_decay(disk_ext_const, [2.0 * thr])
        r = triple_core._PROBES
        want = []
        for block in blocks:
            n, k = block.v.size, block.support.size
            # one pttrs of H_N - lam on the probes and the unit columns of
            # K, one tridiagonal solve of H_N + V - lam on the probes and
            # u0, and the |K|-order Woodbury solve on the probes: no
            # Cholesky and no SVD
            want += [("dpttrs", (n,), (n - 1,), (n, 2 * r + k)),
                     ("solve_banded", (1, 1), (3, n), (n, r + 1)),
                     ("solve_linear", (k, k), (k, r))]
        for block in blocks:
            n, k = block.v.size, block.support.size
            # C1's norm on K x K
            want += [("dpttrs", (n,), (n - 1,), (n, k)),
                     ("cholesky", (k, k)), ("svdvals", (k, k))]
        for block in blocks:
            n, k = block.v.size, block.support.size
            want += [("dpttrs", (n,), (n - 1,), (n, k)), ("svdvals", (n, k))]
        assert calls == want


def _dense_c1_norm(model, lam):
    # the definition: max over blocks of ||S V S||, S = (H_N - lam)^(-1/2)
    norm = 0.0
    for hn, v in dense_blocks(model):
        s = herm_inv_sqrt(hn - lam * np.eye(hn.shape[0]))
        norm = max(norm, float(sla.svdvals(s @ v @ s).max()))
    return norm


def _dense_relative_bound(model, lam):
    norm = 0.0
    for hn, v in dense_blocks(model):
        eye = np.eye(hn.shape[0])
        norm = max(norm, float(sla.svdvals(
            v @ solve_linear(hn - lam * eye, eye)).max()))
    return norm


class TestSupportNorms:
    """The sectorial layer on the cached hn_blocks and the support K of V
    against the dense definitions."""

    @pytest.mark.parametrize("name, whole_grid", [
        ("fd_complex", True),       # V nonzero in every cell
        ("disk_ext_const", False),  # V supported on 1 <= r <= 3
    ])
    def test_matches_dense_definition(self, request, name, whole_grid):
        model = request.getfixturevalue(name)
        for block in model.hn_blocks():
            order = block.v.size
            if whole_grid:
                assert block.support.size == order
            else:
                assert 0 < block.support.size < order // 4
        thr = model.certified_threshold()
        for lam in (1.5 * thr, 4.0 * thr, -1e3):
            want = _dense_c1_norm(model, lam)
            assert want > 0.0
            assert c1_norm_at(model, lam) == pytest.approx(want, rel=1e-12)
            (_, got), = relative_bound_decay(model, [lam])
            assert got == pytest.approx(_dense_relative_bound(model, lam),
                                        rel=1e-12)

    def test_zero_potential_is_exactly_zero(self, fd_v0):
        assert fd_v0.hn_blocks()[0].support.size == 0
        assert c1_norm_at(fd_v0, -2.0) == 0.0
        assert relative_bound_decay(fd_v0, [-2.0]) == [(-2.0, 0.0)]

    def test_relative_bound_raises_on_neumann_spectrum(self):
        model = build_fd1d(n=96, length=1.0)
        (hn, _), = dense_blocks(model)
        w = sla.eigvalsh(hn)
        for lam in (0.0, w[3]):
            with pytest.raises(NotCertified, match="Neumann spectrum"):
                relative_bound_decay(model, [-10.0, lam])

    @pytest.mark.parametrize("build, blocks", [
        (lambda: build_fd1d(n=96, length=1.0, potential=Potential1D
                            .from_callable(complex_bump)), 1),
        (lambda: build_disk(DiskModelConfig(
            side="exterior", k_max=3, support=(1.0, 3.0),
            radial_potential=Potential1D.constant(1.5 + 1.0j))), 4),
    ])
    def test_one_eigh_per_block(self, monkeypatch, build, blocks):
        # one call per block and model, and for the lowest eigenpair only:
        # no eigendecomposition of H_N
        calls = []

        def recorded(name, fn):
            def wrapped(*args, **kwargs):
                calls.append((name, kwargs.get("select"),
                              kwargs.get("select_range")))
                return fn(*args, **kwargs)
            return wrapped

        for name in ("eigh", "eigh_tridiagonal", "eigvalsh"):
            monkeypatch.setattr(triple_core.sla, name,
                                recorded(name, getattr(triple_core.sla, name)))
        model = build()
        thr = model.certified_threshold()  # runs find_xi2
        for lam in (1.5 * thr, 3.0 * thr):
            sectorial_factorization(model, lam, _rng())
            c1_norm_at(model, lam)
        relative_bound_decay(model, [-10.0, -100.0])
        assert len(model.hn_v_blocks()) == blocks
        assert calls == [("eigh_tridiagonal", "i", (0, 0))] * blocks

    def test_no_eigendecomposition_in_the_package(self):
        # no Hermitian eigendecomposition anywhere: an eigh_tridiagonal
        # always selects its eigenpairs
        found = []
        for path in sorted(pathlib.Path(triple_core.__file__).parent
                           .glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", ""))
                keywords = {kw.arg for kw in node.keywords}
                if name in ("eigh", "eigvalsh", "eig_banded",
                            "eigvals_banded") or (
                                name.endswith("_tridiagonal")
                                and "select" not in keywords):
                    found.append((path.name, node.lineno, name))
        assert found == []


class TestThresholdScan:
    def test_zero_potential_first_point(self, fd_v0):
        assert find_xi2(fd_v0) == -0.5

    def test_constant_potential_oracle(self, monkeypatch):
        # constant V = c on the interval: ||C1(lam)|| = |c| / (-lam) with
        # the bottom of H_N at 0, so the scan passes first at -0.5 * 2^8;
        # ||C1|| is monotone, so that point needs no confirmation below it
        c = 30.0 - 20.0j
        model = build_fd1d(n=32, potential=Potential1D.constant(c))
        calls = []

        def counting(m, lam):
            calls.append(lam)
            return c1_norm_at(m, lam)

        monkeypatch.setattr(triple_core, "c1_norm_at", counting)
        assert find_xi2(model) == -128.0
        assert calls == [-0.5 * 2.0**k for k in range(9)]
        assert c1_norm_at(model, -128.0) == pytest.approx(abs(c) / 128.0,
                                                          rel=1e-12)
        assert c1_norm_at(model, -64.0) > 0.5

    def test_doubling_potential_weakly_lowers_threshold(self):
        m1 = build_fd1d(n=96, potential=Potential1D.constant(1.0 + 1.0j))
        m2 = build_fd1d(n=96, potential=Potential1D.constant(2.0 + 2.0j))
        x1 = find_xi2(m1)
        x2 = find_xi2(m2)
        assert x2 <= x1 < 0.0


class TestDecayStudies:
    def test_weyl_decay_exponent_interval(self, shoot_v0):
        lams = [-10.0 * 4.0**k for k in range(6)]
        _, (slope, _, _) = weyl_decay_study(shoot_v0, lams)
        assert abs(slope + 0.5) < 0.05

    def test_point_without_a_value_is_named(self, fd_v0):
        # lambda = 0 is a Neumann eigenvalue: weyl_batch gives a NaN row
        with pytest.raises(NoConvergence, match="lambda = 0"):
            weyl_decay_study(fd_v0, [-4.0, 0.0, -16.0], allow_uncertified=True)

    def test_weyl_decay_exponent_disk(self, disk_ext_v0):
        lams = [-10.0 * 4.0**k for k in range(6)]
        _, (slope, _, _) = weyl_decay_study(disk_ext_v0, lams)
        assert abs(slope + 0.5) < 0.05

    def test_relative_bound_zero_potential(self, fd_v0):
        out = relative_bound_decay(fd_v0, [-10.0, -100.0])
        assert [v for _, v in out] == [0.0, 0.0]

    def test_relative_bound_decreasing_to_zero(self, fd_complex):
        out = relative_bound_decay(fd_complex, [-10.0**k for k in range(1, 6)])
        vals = [v for _, v in out]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-4
        # Hermitian bound: ||V (H_N - lam)^-1|| <= sup|V| / |lam|
        proxy = fd_complex.v_sup_proxy()
        for lam, v in out:
            assert v <= proxy / abs(lam) * (1.0 + 1e-12)

    def test_relative_bound_singular_potential(self):
        model = build_fd1d(n=96, potential=Potential1D.power_singularity(
            1.0, 0.5, 0.4, 2.0))
        out = relative_bound_decay(model, [-10.0**k for k in range(1, 6)])
        vals = [v for _, v in out]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3
