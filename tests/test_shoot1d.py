"""Shooting-based continuum interval model: the adaptive integrator, kernel
solutions, agreement with both closed forms and the fd discretization, and
the deferred import of the integrator."""
import os
import subprocess
import sys

import numpy as np
import pytest

import btriple
from btriple import (
    MatchingSingular,
    Potential1D,
    ShootConfig,
    StepSizeUnderflow,
    build_fd1d,
    build_shoot1d,
    dp45_integrate,
    solve_ivp_schrodinger,
    weyl,
    weyl_symmetry_defect,
)

from btriple.harness import SuiteConfig, run_identity_suite

from .conftest import complex_bump
from .oracles import COSH1, SINH1, interval_weyl_v0


class TestShootConfig:
    def test_defaults(self):
        cfg = ShootConfig()
        assert cfg.length == 1.0
        assert cfg.potential.is_zero

    def test_validation(self):
        with pytest.raises(ValueError):
            ShootConfig(length=0.0)
        with pytest.raises(ValueError):
            ShootConfig(rtol=1e-2)
        with pytest.raises(ValueError):
            ShootConfig(atol=1e-14)


class TestIntegrator:
    def test_linear_ode(self):
        # y' = y from 1: endpoint is e
        _, y = dp45_integrate(lambda x, y: y, 0.0, 1.0, [1.0], 1e-12, 1e-14)
        assert abs(y[0] - np.e) < 1e-11

    def test_samples_are_interpolated(self):
        pts = np.array([0.25, 0.5, 0.75])
        out, _ = dp45_integrate(lambda x, y: y, 0.0, 1.0, [1.0], 1e-12, 1e-14,
                                sample_points=pts)
        assert np.abs(out[:, 0] - np.exp(pts)).max() < 1e-11

    def test_backward_integration(self):
        # the stops run 0.75, 0.5, 0.25, 0; the 1.25 point lies behind the
        # start and gets the initial state
        pts = np.array([0.25, 0.5, 0.75, 1.25])
        out, y = dp45_integrate(lambda x, y: y, 1.0, 0.0, [np.e], 1e-12, 1e-14,
                                sample_points=pts)
        assert abs(y[0] - 1.0) < 1e-11
        assert np.abs(out[:3, 0] - np.exp(pts[:3])).max() < 1e-11
        assert out[3, 0] == np.e

    def test_failed_solver_raises_step_size_underflow(self):
        def rhs(x, y):
            return y * np.nan if x > 0.5 else y

        with np.errstate(invalid="ignore"), \
                pytest.raises(StepSizeUnderflow, match="x = 0.5"):
            dp45_integrate(rhs, 0.0, 1.0, [1.0], 1e-10, 1e-12)


class TestShootIvp:
    def test_cosh_solution(self):
        cfg = ShootConfig()
        sol = solve_ivp_schrodinger(cfg, -1.0, 0.0, 1.0, 0.0, +1)
        assert abs(sol.f_end - COSH1) < 1e-10
        assert abs(sol.df_end - SINH1) < 1e-10

    def test_linear_solution_at_zero_energy(self):
        cfg = ShootConfig()
        sol = solve_ivp_schrodinger(cfg, 0.0, 0.0, 0.0, 1.0, +1)
        assert abs(sol.f_end - 1.0) < 1e-12
        assert abs(sol.df_end - 1.0) < 1e-12

    def test_constant_potential_shifts_energy(self):
        c = 2.5
        cfg = ShootConfig(potential=Potential1D.constant(c))
        sol = solve_ivp_schrodinger(cfg, c - 1.0, 0.0, 1.0, 0.0, +1)
        assert abs(sol.f_end - COSH1) < 1e-10

    def test_oscillatory_solution(self):
        cfg = ShootConfig()
        sol = solve_ivp_schrodinger(cfg, np.pi**2, 0.0, 1.0, 0.0, +1)
        # cos(pi x) arrives at -1 with zero slope
        assert abs(sol.f_end + 1.0) < 1e-9
        assert abs(sol.df_end) < 1e-8

    def test_samples_follow_closed_form(self):
        cfg = ShootConfig()
        pts = np.linspace(0.0, 1.0, 11)
        sol = solve_ivp_schrodinger(cfg, -1.0, 0.0, 1.0, 0.0, +1, sample_points=pts)
        assert np.abs(sol.f_samples - np.cosh(pts)).max() < 1e-10

    def test_wronskian_constancy(self):
        cfg = ShootConfig(potential=Potential1D.from_callable(complex_bump))
        lam = -2.0 + 0.7j
        pts = np.linspace(0.0, 1.0, 33)
        a = solve_ivp_schrodinger(cfg, lam, 0.0, 1.0, 0.0, +1, sample_points=pts)
        b = solve_ivp_schrodinger(cfg, lam, 0.0, 0.0, 1.0, +1, sample_points=pts)
        w = a.f_samples * b.df_samples - a.df_samples * b.f_samples
        assert np.abs(w - 1.0).max() < 1e-8


@pytest.fixture(scope="module")
def shoot_bench_v0():
    return build_shoot1d(ShootConfig(), panels=4, order=12, fd_nodes=128)


class TestShootModel:
    def test_structure(self, shoot_v0):
        assert shoot_v0.grid.size == 128
        assert shoot_v0.state_dim == 132
        assert shoot_v0.boundary_dim == 2

    def test_weyl_matches_closed_form(self, shoot_v0):
        got = weyl(shoot_v0, -1.0).m
        want = interval_weyl_v0(-1.0)
        assert np.abs(got - want).max() < 1e-9

    @pytest.mark.parametrize("lam", [-0.8, -2.5, -7.0, -1.0 + 2.0j, -4.0 - 1.0j])
    def test_weyl_closed_form_sweep(self, shoot_v0, lam):
        got = weyl(shoot_v0, lam, allow_uncertified=True).m
        want = interval_weyl_v0(lam)
        assert np.abs(got - want).max() < 1e-8 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("lam", [-1.0, -10.0, -100.0, -1e3, -1e4, 5 + 3j,
                                     20 - 8j, -50 + 50j, -6.55e4])
    def test_benchmark_sweep_matches_closed_form(self, shoot_bench_v0, lam):
        got = weyl(shoot_bench_v0, lam, allow_uncertified=True).m
        want = interval_weyl_v0(lam)
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    def test_far_field_weyl(self, shoot_v0):
        # at lam = -1024 the interval is effectively a half line: M ~ I/32
        got = weyl(shoot_v0, -1024.0).m
        want = interval_weyl_v0(-1024.0)
        assert np.abs(got - want).max() < 1e-8 * np.abs(want).max()
        assert abs(got[0, 0] - 1.0 / 32.0) < 1e-7
        assert abs(got[0, 1]) < 1e-10

    def test_weyl_agrees_with_fd(self, shoot_complex):
        # assemble the fd map column by column straight from the banded
        # solves; this sidesteps the threshold certification, which would
        # cost a dense eigensolve at this resolution
        fd = build_fd1d(n=2048, potential=Potential1D.from_callable(complex_bump))
        lam = -4.0
        cols = [fd.trace1(fd.solve_bvp(lam, e))
                for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))]
        want = np.column_stack(cols)
        got = weyl(shoot_complex, lam, allow_uncertified=True).m
        assert np.abs(got - want).max() < 1e-5

    def test_weyl_symmetry_complex_potential(self, shoot_complex):
        assert weyl_symmetry_defect(shoot_complex, -3.0,
                                    allow_uncertified=True) < 1e-8

    def test_matching_singular_at_zero(self, shoot_v0):
        # V = 0, lam = 0: the left shot has f' == 0 everywhere, so the
        # diagonal Neumann matching degenerates
        with pytest.raises(MatchingSingular):
            weyl(shoot_v0, 0.0, allow_uncertified=True)

    def test_kernel_solution_traces(self, shoot_v0):
        f = shoot_v0.solve_bvp(-1.0, np.array([1.0, 0.0]))
        t0 = shoot_v0.trace0(f)
        t1 = shoot_v0.trace1(f)
        assert np.abs(t0 - np.array([1.0, 0.0])).max() < 1e-9
        # cosh((1-x)) / sinh(1) has Dirichlet values (coth 1, csch 1)
        want = interval_weyl_v0(-1.0)[:, 0]
        assert np.abs(t1 - want).max() < 1e-9

    def test_gamma_field_profile(self, shoot_v0):
        f = shoot_v0.solve_bvp(-1.0, np.array([1.0, 0.0]))
        xs = shoot_v0.grid.nodes
        want = np.cosh(1.0 - xs) / np.sinh(1.0)
        assert np.abs(shoot_v0.interior_values(f) - want).max() < 1e-9

    def test_build_rejects_wrong_config(self):
        with pytest.raises(TypeError):
            build_shoot1d({"length": 1.0})


class TestIdentitySuite:
    def test_complex_potential_passes_at_rtol_1e_9(self):
        # the gamma_kernel_ode records must hold their 1e-7 bar at rtol 1e-9 too
        spec = {"model": "shoot1d", "panels": 4, "order": 12, "fd_nodes": 128,
                "potential": {"kind": "constant", "value": [3.0, -2.0]},
                "rtol": 1e-9}
        records = run_identity_suite(SuiteConfig(models=(spec,))).records
        assert len(records) == 63
        assert [r.check_name for r in records if not r.passed] == []


class TestLazyIntegratorImport:
    def test_package_import_leaves_scipy_integrate_unloaded(self):
        # only a shoot1d shot needs DOP853; fd1d and disk runs never load it
        src = os.path.dirname(os.path.dirname(os.path.abspath(btriple.__file__)))
        code = ("import sys, btriple; "
                "print('scipy.integrate' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"
