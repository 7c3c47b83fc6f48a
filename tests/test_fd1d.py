"""Staggered finite-difference interval model: grid geometry, the discrete
Green bracket to its rounding floor, closed-form Neumann-to-Dirichlet maps,
the dense Robin matrices, and the cached tridiagonal factorizations behind
the single-point solves."""
import ast
import pathlib
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from btriple import (
    ConstraintSingular,
    FdGrid,
    InvalidPotential,
    MatchingSingular,
    Potential1D,
    build_fd1d,
    dense_robin_matrix,
    eig_dense,
    green_defect,
    weyl,
)
import btriple.model_fd1d as model_fd1d
from btriple.harness import _green_floor
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
    # the one Green bracket of every family, through apply_T, the traces and
    # inner, held to its rounding floor eps (||Tf|| ||g|| + ||f|| ||T~g||),
    # which grows like eps / h^2
    def test_exact_for_random_carriers(self):
        for n in (32, 400):
            m = build_fd1d(n=n)
            _assert_within_rounding_floor(m, _random_pairs(m, 100, seed=7))

    def test_exact_with_complex_potential(self):
        for n in (32, 400):
            m = build_fd1d(n=n,
                           potential=Potential1D.from_callable(complex_bump))
            _assert_within_rounding_floor(m, _random_pairs(m, 100, seed=8))

    def test_consistent_with_generic_bracket(self, fd_complex):
        # the four terms summed in another order agree to the floor
        m = fd_complex
        for f, g in _random_pairs(m, 20, seed=9):
            naive = (m.inner(m.apply_T(f), g) - m.inner(f, m.apply_Ttilde(g))
                     - m.binner(m.trace1(f), m.trace0(g))
                     + m.binner(m.trace0(f), m.trace1(g)))
            assert abs(green_defect(m, f, g) - abs(naive)) \
                <= _green_floor(m, f, g)

    @pytest.mark.parametrize("name", ["fd_v0", "fd_complex"])
    def test_consistent_with_generic_bracket_on_gamma_fields(self, request,
                                                             name):
        # the green_on_kernels pairs, gamma(lam) e_i against gamma~(mu) e_j,
        # at that record's tolerance: on smooth fields ||Tf|| is |lam| ||f||,
        # so the floor sits below the stencil's rounding and 1e-12 binds
        m = request.getfixturevalue(name)
        lam, mu = -6.0, -15.0 + 4.0j
        for e in m.boundary_basis():
            for d in m.boundary_basis():
                f, g = m.solve_bvp(lam, e), m.solve_bvp_tilde(mu, d)
                scale = m.hnorm(f) * m.hnorm(g) * (1.0 + m.v_sup_proxy())
                assert green_defect(m, f, g) <= max(1e-12 * scale,
                                                    _green_floor(m, f, g))


def _random_pairs(m, count, seed):
    rng = np.random.default_rng(seed)
    return [(m.random_domain_vector(rng), m.random_domain_vector(rng))
            for _ in range(count)]


def _assert_within_rounding_floor(m, pairs):
    for f, g in pairs:
        assert green_defect(m, f, g) <= _green_floor(m, f, g)


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
        conj_model = build_fd1d(n=64, potential=Potential1D.from_callable(
            lambda x: np.conjugate(complex_bump(x))))
        b = np.array([[0.4 + 0.2j, 0.1], [0.0, -0.3j]])
        a = dense_robin_matrix(model, b=b)
        at = dense_robin_matrix(conj_model, b=b.conj().T)
        assert np.abs(at - a.conj().T).max() < 1e-13 * np.abs(a).max()


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

    @pytest.mark.parametrize("power", [False, True])
    def test_same_bits_as_weyl(self, power):
        # the chunk runs solve_bvp's gtsv on its systems laid end to end;
        # 320 points cross a chunk border, most of them complex and right
        # of the threshold, some real and left of it
        model = build_fd1d(n=96, potential=self.POWER if power else None)
        rng = np.random.default_rng(23)
        lams = np.concatenate([
            rng.uniform(-200.0, 400.0, 300) + 1j * rng.uniform(-50.0, 50.0, 300),
            np.linspace(-200.0, -2.0, 20)])
        batch = model.weyl_batch(lams)
        batch_tilde = model.weyl_batch(lams.conj(), tilde=True)
        for lam, m, m_tilde in zip(lams, batch, batch_tilde):
            sample = weyl(model, lam, allow_uncertified=True)
            assert np.array_equal(m, sample.m)
            assert np.array_equal(m_tilde, sample.m_tilde_at_conj)

    def test_zero_pivot_spoils_only_its_row(self, fd_v0):
        # lambda = 0 on V = 0 is an exact zero pivot of gtsv, so the chunk
        # raises and weyl_batch evaluates it point by point
        with pytest.raises(MatchingSingular):
            fd_v0._weyl_chunk(np.array([-1.0, 0.0]), False)
        lams = -20.0 + 15.0 * np.exp(2j * np.pi * (np.arange(200) + 0.5) / 200)
        lams[77] = 0.0
        batch = fd_v0.weyl_batch(lams)
        assert np.isnan(batch[77]).all()
        for k in np.flatnonzero(lams != 0.0):
            assert np.array_equal(batch[k], _weyl_matrix(fd_v0, lams[k], False))

    def test_nan_point_spoils_only_its_row(self, fd_v0):
        # in one band, a NaN system's NaNs would reach every system before it
        lams = np.array([-1.0, 2.0 + 1.0j, np.nan, -3.0, np.inf])
        with pytest.raises(MatchingSingular):
            fd_v0._weyl_chunk(lams, False)
        batch = fd_v0.weyl_batch(lams)
        assert np.isnan(batch[[2, 4]]).all()
        for k in (0, 1, 3):
            assert np.array_equal(batch[k], _weyl_matrix(fd_v0, lams[k], False))


_POWER = Potential1D.power_singularity(1.0 - 0.5j, 0.4, 0.4, 2.0)
_POTENTIALS = {"zero": None, "power": _POWER,
               "constant": Potential1D.constant(3.0 - 2.0j)}


def _bvp_bands(model, lam, tilde):
    # solve_bvp's system written out in solve_banded layout: the trace rows
    # (2/h)(f_0 - f_1) and (2/h)(f_{n-1} - f_m) around the kernel rows
    # (T - lam) f, whose diagonal is (c/h^2 + V) - lam, c = 3 at the edges
    n, m, h = model.grid.n, model.grid.cells, model.grid.h
    _, v = model.hn_v_blocks()[0]
    v = v.conj() if tilde else v
    upper, diag, lower = np.zeros((3, n), dtype=complex)
    diag[[0, -1]] = 2.0 / h
    upper[1] = lower[-2] = -2.0 / h
    upper[m + 1] = lower[0] = -2.0 / h**2
    upper[2:m + 1] = lower[1:m] = -1.0 / h**2
    diag[1] = 3.0 / h**2 + v[0] - lam
    diag[m] = 3.0 / h**2 + v[m - 1] - lam
    diag[2:m] = 2.0 / h**2 + v[1:m - 1] - lam
    return np.stack([upper, diag, lower])


def _reduced_bands(model, lam, tilde):
    # neumann_resolvent's system on the cells: H_N + (V - lam)
    bands, v = model.hn_v_blocks()[0]
    bands = bands.astype(complex)
    bands[1] += (v.conj() if tilde else v) - lam
    return bands


class TestCachedSolves:
    @pytest.mark.parametrize("potential", sorted(_POTENTIALS))
    @pytest.mark.parametrize("n", [96, 400, 1536])
    def test_same_bits_as_solve_banded(self, n, potential):
        model = build_fd1d(n=n, potential=_POTENTIALS[potential])
        rng = np.random.default_rng(n)
        for lam in (-0.7, -1.6, -40.0, 2.0 + 1.5j, -10.0 - 7.0j):
            for tilde in (False, True):
                # twice per point: the second solve reads the cache
                for _ in range(2):
                    g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                    rhs = np.zeros(n, dtype=complex)
                    rhs[[0, -1]] = g
                    want = sla.solve_banded((1, 1),
                                            _bvp_bands(model, lam, tilde), rhs)
                    solve = model.solve_bvp_tilde if tilde else model.solve_bvp
                    assert np.array_equal(solve(lam, g), want)
                    f = model.random_domain_vector(rng)
                    want = sla.solve_banded((1, 1),
                                            _reduced_bands(model, lam, tilde),
                                            f[1:-1])
                    resolvent = (model.neumann_resolvent_tilde if tilde
                                 else model.neumann_resolvent)
                    got = resolvent(lam, f)
                    assert np.array_equal(got[1:-1], want)
                    assert got[0] == want[0] and got[-1] == want[-1]

    def test_one_factorization_per_system_and_side(self, monkeypatch):
        calls = []

        def recorded(name, fn):
            def wrapped(*args, **kwargs):
                calls.append((name, len(args[1])))  # the order of the system
                return fn(*args, **kwargs)
            return wrapped

        for owner, name in ((model_fd1d, "zgttrf"), (model_fd1d, "zgttrs"),
                            (model_fd1d.sla, "solve_banded")):
            monkeypatch.setattr(owner, name,
                                recorded(name, getattr(owner, name)))
        model = build_fd1d(n=96, potential=_POWER)
        f = model.random_domain_vector(np.random.default_rng(3))
        lam = -6.0 + 1.0j
        for _ in range(3):
            model.solve_bvp(lam, [1.0, 0.0])
            model.solve_bvp(lam, [0.0, 1.0])
        model.neumann_resolvent(lam, f)
        model.neumann_resolvent(lam, 2.0 * f)
        model.solve_bvp_tilde(lam, [1.0, 0.0])
        model.solve_bvp_tilde(lam, [0.0, 1.0])
        model.neumann_resolvent_tilde(lam, f)
        bvp, cells = 96, 94
        assert calls == ([("zgttrf", bvp)] + [("zgttrs", bvp)] * 6
                         + [("zgttrf", cells)] + [("zgttrs", cells)] * 2
                         + [("zgttrf", bvp)] + [("zgttrs", bvp)] * 2
                         + [("zgttrf", cells), ("zgttrs", cells)])

    def test_fifth_point_evicts(self):
        model = build_fd1d(n=96, potential=_POWER)
        first = model.solve_bvp(-1.0, [1.0, 0.5j])
        for lam in (-2.0, -3.0 + 1.0j, -4.0):
            model.solve_bvp(lam, [1.0, 0.0])
        model.neumann_resolvent(-1.0, np.ones(96))
        assert len(model._cache["bvp"]) == 4
        assert len(model._cache["resolvent"]) == 1
        model.solve_bvp_tilde(-1.0, [1.0, 0.0])
        assert list(model._cache["bvp"]) == [(-1.0 + 0.0j, True)]
        assert len(model._cache["resolvent"]) == 1
        # refactored, the evicted point gives the same bits
        assert np.array_equal(model.solve_bvp(-1.0, [1.0, 0.5j]), first)

    def test_cached_arrays_are_read_only(self):
        model = build_fd1d(n=96, potential=_POWER)
        model.solve_bvp(-2.0, [1.0, 0.0])
        model.neumann_resolvent_tilde(-2.0, np.ones(96))
        for cache in model._cache.values():
            (bands, _, factors), = cache.values()
            for a in (bands, *factors):
                assert not a.flags.writeable
            with pytest.raises(ValueError):
                bands[1, 1] = 0.0

    def test_failures_keep_their_messages_and_are_not_cached(self, fd_v0):
        # lambda = 0 on V = 0 is an exact zero pivot of both systems
        with pytest.raises(MatchingSingular,
                           match="^solve_bvp: banded solve failed: singular"):
            fd_v0.solve_bvp(0.0, [1.0, 0.0])
        with pytest.raises(MatchingSingular, match="^neumann_resolvent: "
                           "banded solve failed: singular"):
            fd_v0.neumann_resolvent_tilde(0.0, np.ones(96))
        with pytest.raises(MatchingSingular,
                           match="infs or NaNs"):
            fd_v0.solve_bvp_tilde(np.nan, [1.0, 0.0])
        with pytest.raises(MatchingSingular, match="infs or NaNs"):
            fd_v0.neumann_resolvent(-1.0, np.full(96, np.inf))
        with pytest.raises(MatchingSingular,
                           match="^solve_bvp_tilde: banded solve overflowed"):
            fd_v0.solve_bvp_tilde(1e308, [1e308, 0.0])
        assert all((0.0, False) not in cache and (0.0, True) not in cache
                   for cache in fd_v0._cache.values())

    def test_single_point_solves_have_one_code_path(self):
        # solve_banded only in the stacked Weyl chunk, gttrf only in the
        # factorization routine, gttrs only in the solve behind it
        found = []
        tree = ast.parse(pathlib.Path(model_fd1d.__file__).read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr",
                                   getattr(node.func, "id", ""))
                    if name in ("solve_banded", "solve", "lu_factor",
                                "zgttrf", "zgttrs", "zgtsv", "gtsv"):
                        found.append((func.name, name))
        assert sorted(found) == [("_factors", "zgttrf"), ("_solve", "zgttrs"),
                                 ("_weyl_chunk", "solve_banded")]
