"""Staggered finite-difference interval model: grid geometry, the exact
discrete boundary pairing, closed-form Neumann-to-Dirichlet maps, and the
dense Robin matrices."""
import warnings

import numpy as np
import pytest

from btriple import (
    ConstraintSingular,
    FdGrid,
    InvalidPotential,
    Potential1D,
    build_fd1d,
    dense_robin_matrix,
    eig_dense,
    weyl,
)
from btriple.triple_core import _weyl_matrix

from .conftest import complex_bump
from .oracles import (
    fd_dirichlet_spectrum,
    fd_neumann_spectrum,
    fd_weyl_v0,
    interval_weyl_v0,
)


class TestGrid:
    def test_geometry(self):
        grid = FdGrid(n=96, length=1.0)
        assert grid.cells == 94
        assert grid.h == pytest.approx(1.0 / 94)

    def test_cell_edges_span_interval(self):
        grid = FdGrid(n=32, length=2.5)
        edges = grid.cell_edges()
        assert len(edges) == grid.cells + 1
        assert edges[0] == 0.0
        assert edges[-1] == pytest.approx(2.5)

    def test_build_validation(self):
        with pytest.raises(ValueError):
            build_fd1d(n=8)
        with pytest.raises(ValueError):
            build_fd1d(n=32, length=-1.0)
        bad = Potential1D.power_singularity(1.0, 1.5, 0.4, 2.0)
        with pytest.raises(InvalidPotential):
            build_fd1d(n=32, length=1.0, potential=bad)


class TestTracesAndSolves:
    def test_trace_reads(self, fd_v0):
        f = np.zeros(96, dtype=complex)
        f[0] = 2.0
        f[1] = 3.0
        f[-2] = 5.0
        f[-1] = 7.0
        h2 = fd_v0.grid.h / 2
        t0 = fd_v0.trace0(f)
        t1 = fd_v0.trace1(f)
        assert t0[0] == pytest.approx(-(3.0 - 2.0) / h2)
        assert t0[1] == pytest.approx((7.0 - 5.0) / h2)
        assert np.allclose(t1, [2.0, 7.0])

    def test_bvp_reproduces_neumann_data(self, fd_complex):
        rng = np.random.default_rng(101)
        lam = -3.0
        for _ in range(100):
            g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            f = fd_complex.solve_bvp(lam, g)
            assert np.allclose(fd_complex.trace0(f), g, atol=1e-10 * np.abs(g).max())

    def test_bvp_solution_in_kernel(self, fd_complex):
        lam = -2.0 + 1.0j
        f = fd_complex.solve_bvp(lam, np.array([1.0, -0.5j]))
        resid = fd_complex.apply_T(f) - lam * f
        # interior rows only; the trace slots are not operator rows
        assert np.abs(resid[1:-1]).max() < 1e-9 * np.abs(f).max() / fd_complex.grid.h

    def test_neumann_resolvent_inverts(self, fd_complex):
        rng = np.random.default_rng(102)
        f = fd_complex.random_domain_vector(rng)
        lam = -4.0
        u = fd_complex.neumann_resolvent(lam, f)
        resid = fd_complex.apply_T(u) - lam * u
        assert np.abs(resid[1:-1] - f[1:-1]).max() < 1e-9 * np.abs(f).max() / fd_complex.grid.h
        # zero Neumann traces: boundary slots copy the adjacent cells
        assert np.allclose(fd_complex.trace0(u), 0.0, atol=1e-20)


class TestGreenPairing:
    def test_exact_for_random_carriers(self, fd_v0_fine):
        rng = np.random.default_rng(7)
        for _ in range(100):
            f = fd_v0_fine.random_domain_vector(rng)
            g = fd_v0_fine.random_domain_vector(rng)
            scale = np.linalg.norm(f[1:-1]) * np.linalg.norm(g[1:-1])
            assert fd_v0_fine.green_pairing_defect(f, g) < 1e-13 * scale

    def test_exact_with_complex_potential(self, fd_complex_fine):
        rng = np.random.default_rng(8)
        for _ in range(100):
            f = fd_complex_fine.random_domain_vector(rng)
            g = fd_complex_fine.random_domain_vector(rng)
            scale = np.linalg.norm(f[1:-1]) * np.linalg.norm(g[1:-1])
            assert fd_complex_fine.green_pairing_defect(f, g) < 1e-12 * scale

    def test_consistent_with_generic_bracket(self, fd_complex):
        # the fsum route must agree with the naive inner-product bracket at
        # the operator scale eps / h^2
        rng = np.random.default_rng(9)
        m = fd_complex
        for _ in range(20):
            f = m.random_domain_vector(rng)
            g = m.random_domain_vector(rng)
            naive = (m.inner(m.apply_T(f), g) - m.inner(f, m.apply_Ttilde(g))
                     - m.binner(m.trace1(f), m.trace0(g))
                     + m.binner(m.trace0(f), m.trace1(g)))
            exact = m.green_pairing_defect(f, g)
            scale = np.linalg.norm(f) * np.linalg.norm(g) / m.grid.h
            assert abs(abs(naive) - exact) < 1e-12 * scale


class TestWeylClosedForm:
    @pytest.mark.parametrize("lam", [-1.0, -4.0, -0.3, -2.0 + 1.5j, -5.0 - 3.0j])
    def test_matches_discrete_formula(self, fd_v0, lam):
        got = weyl(fd_v0, lam, allow_uncertified=True).m
        want = fd_weyl_v0(lam, 96)
        assert np.abs(got - want).max() < 1e-11 * np.abs(want).max()

    def test_matches_on_fine_grid(self, fd_v0_fine):
        got = weyl(fd_v0_fine, -1.0).m
        want = fd_weyl_v0(-1.0, 512)
        assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()

    def test_continuum_limit(self, fd_v0_fine):
        got = weyl(fd_v0_fine, -1.0).m
        want = interval_weyl_v0(-1.0)
        assert np.abs(got - want).max() < 1e-4

    def test_second_order_convergence(self):
        errs = []
        hs = []
        for n in (66, 130, 258, 514):
            model = build_fd1d(n=n)
            got = weyl(model, -1.0).m
            errs.append(np.abs(got - interval_weyl_v0(-1.0)).max())
            hs.append(model.grid.h)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope > 1.8

    def test_constant_potential_is_spectral_shift(self):
        c = 2.0 - 1.0j
        shifted = build_fd1d(n=96, potential=Potential1D.constant(c))
        plain = build_fd1d(n=96)
        lam = -3.0
        got = weyl(shifted, lam, allow_uncertified=True).m
        want = weyl(plain, lam - c, allow_uncertified=True).m
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


class TestDenseRobinMatrix:
    def test_neumann_case_is_plain_sum(self, fd_complex):
        a = dense_robin_matrix(fd_complex)
        want = fd_complex.hn_matrix() + fd_complex.v_matrix()
        assert np.array_equal(a, want)

    def test_neumann_spectrum(self, fd_v0):
        got = np.sort(eig_dense(dense_robin_matrix(fd_v0)).real)
        want = np.sort(fd_neumann_spectrum(96))
        scale = np.abs(want).max()
        assert np.abs(got - want).max() < 1e-10 * scale

    def test_dirichlet_spectrum(self, fd_v0):
        got = np.sort(eig_dense(dense_robin_matrix(fd_v0, dirichlet=True)).real)
        want = np.sort(fd_dirichlet_spectrum(96))
        scale = np.abs(want).max()
        assert np.abs(got - want).max() < 1e-10 * scale

    def test_dirichlet_continuum_limit(self):
        model = build_fd1d(n=514)
        got = np.sort(eig_dense(dense_robin_matrix(model, dirichlet=True)).real)[:3]
        want = np.array([(k * np.pi) ** 2 for k in (1, 2, 3)])
        h = model.grid.h
        # leading discretization error of the sin^2 spectrum is k^4 pi^4 h^2 / 12
        assert np.all(np.abs(got - want) < want**2 * h**2 / 8.0)

    def test_elimination_singularity(self, fd_v0):
        b = (2.0 / fd_v0.grid.h) * np.eye(2)
        with pytest.raises(ConstraintSingular):
            dense_robin_matrix(fd_v0, b=b)

    def test_adjoint_pair_conjugate_transpose(self):
        model = build_fd1d(n=64, potential=Potential1D.from_callable(complex_bump))
        conj_model = build_fd1d(
            n=64, potential=Potential1D.from_callable(complex_bump).conjugate())
        b = np.array([[0.4 + 0.2j, 0.1], [0.0, -0.3j]])
        a = dense_robin_matrix(model, b=b)
        at = dense_robin_matrix(conj_model, b=b.conj().T)
        assert np.abs(at - a.conj().T).max() < 1e-13 * np.abs(a).max()
        # the tilde flag builds the same adjoint-side matrix from the model
        tilde = model.dense_robin(b.conj().T, tilde=True)
        assert np.abs(tilde - at).max() < 1e-13 * np.abs(a).max()


class TestCertifiedThreshold:
    def test_zero_potential(self, fd_v0):
        assert fd_v0.certified_threshold() == pytest.approx(-0.5)

    def test_always_negative(self, fd_complex):
        assert fd_complex.certified_threshold() < 0.0


class TestWeylBatch:
    POWER = Potential1D.power_singularity(1.0 - 0.5j, 0.4, 0.4, 2.0)

    @pytest.mark.parametrize("tilde", [False, True])
    @pytest.mark.parametrize("power", [False, True])
    def test_matches_pointwise_weyl(self, power, tilde):
        # 96 x 33 = 3168 points, so the sweep crosses its 256-point chunks
        model = build_fd1d(n=96, potential=self.POWER if power else None)
        lams = (np.linspace(-20.0, 60.0, 96)[:, None]
                + 1j * np.linspace(-6.0, 6.0, 33)[None, :]).ravel()
        batch = model.weyl_batch(lams, tilde=tilde)
        assert batch.shape == (len(lams), 2, 2)
        for lam, m in zip(lams, batch):
            ref = _weyl_matrix(model, lam, tilde)
            assert np.abs(m - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_neumann_eigenvalue_gives_nan_row(self, fd_v0):
        # lambda = 0 is the bottom of the V = 0 Neumann spectrum, where the
        # pointwise solve raises MatchingSingular
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batch = fd_v0.weyl_batch([0.0, -1.0])
        assert np.isnan(batch[0]).all()
        assert np.allclose(batch[1], weyl(fd_v0, -1.0).m, rtol=1e-12)

    def test_chunks_are_solved_independently(self, fd_v0):
        lams = -20.0 + 15.0 * np.exp(2j * np.pi * (np.arange(300) + 0.5) / 300)
        whole = fd_v0.weyl_batch(lams)
        assert np.array_equal(whole[:256], fd_v0.weyl_batch(lams[:256]))
        assert np.array_equal(whole[256:], fd_v0.weyl_batch(lams[256:]))
