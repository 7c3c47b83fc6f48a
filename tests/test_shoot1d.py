"""Shooting-based continuum interval model: the adaptive integrator, each
side's stops, kernel solutions, agreement with both closed forms and the fd
discretization, the stacked Weyl batch and the Robin scan built on it, and
the deferred import of the integrator."""
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import btriple
import btriple.model_shoot1d as model_shoot1d
from btriple import (
    BoundaryOperator,
    MatchingSingular,
    NoConvergence,
    Potential1D,
    ShootConfig,
    StepSizeUnderflow,
    build_fd1d,
    build_shoot1d,
    dp45_integrate,
    robin_eigs,
    weyl,
    weyl_symmetry_defect,
)

from btriple.harness import SuiteConfig, run_identity_suite

from .conftest import complex_bump
from .oracles import (
    COSH1,
    ROBIN_LAM_NEG,
    ROBIN_LAMS_POS,
    SINH1,
    interval_weyl_v0,
    pointwise_weyl,
)


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
        states = dp45_integrate(lambda x, y: y, 0.0, [1.0], [1.0], 1e-12, 1e-14)
        assert states.shape == (1, 1)
        assert abs(states[0, 0] - np.e) < 1e-11

    def test_samples_are_interpolated(self):
        stops = [0.25, 0.5, 0.75, 1.0]
        states = dp45_integrate(lambda x, y: y, 0.0, stops, [1.0], 1e-12, 1e-14)
        assert np.abs(states[:, 0] - np.exp(stops)).max() < 1e-11

    def test_backward_integration(self):
        stops = [0.75, 0.5, 0.25, 0.0]
        states = dp45_integrate(lambda x, y: y, 1.0, stops, [np.e], 1e-12,
                                1e-14)
        assert abs(states[-1, 0] - 1.0) < 1e-11
        assert np.abs(states[:, 0] - np.exp(stops)).max() < 1e-11

    def test_failed_solver_raises_step_size_underflow(self):
        def rhs(x, y):
            return y * np.nan if x > 0.5 else y

        with np.errstate(invalid="ignore"), \
                pytest.raises(StepSizeUnderflow, match="x = 0.5"):
            dp45_integrate(rhs, 0.0, [1.0], [1.0], 1e-10, 1e-12)

    def test_nan_first_step_raises_step_size_underflow(self):
        # a NaN first step would keep DOP853's step loop running forever
        with np.errstate(invalid="ignore"), \
                pytest.raises(StepSizeUnderflow, match="first step"):
            dp45_integrate(lambda x, y: np.nan * y, 0.0, [1.0], [1.0], 1e-10,
                           1e-12)


def _fresh_solver_per_interval(rhs, x_start, stops, y0, rtol, atol):
    """dp45_integrate as one fresh DOP853 per interval between stops, each
    started with first_step=min(h, |stop - x|) from the last solver's h."""
    from scipy.integrate import DOP853

    y, x, h, rows = np.asarray(y0, dtype=complex), x_start, None, []
    for stop in stops:
        solver = DOP853(rhs, x, y, stop, rtol=rtol, atol=atol,
                        first_step=None if h is None else min(h, abs(stop - x)))
        while solver.status == "running":
            solver.step()
        assert solver.status == "finished"
        x, y, h = stop, solver.y, solver.h_abs
        rows.append(y)
    return np.array(rows)


def _stepped_rhs(lams, jump):
    # (f, f')' = (f', (V(x) - lam) f) for every lam at once, with a V that
    # jumps at the stop ``jump``, as a power potential does at its
    # breakpoints: a derivative taken an ulp off that stop would show
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    n = len(lams)

    def rhs(x, y):
        v = 0.0 if x < jump else 40.0 - 20.0j
        return np.concatenate([y[n:], (v - lams) * y[:n]])

    y0 = np.concatenate([np.ones(n), np.zeros(n)])
    return rhs, y0


class TestOneSolverPerIntegration:
    """dp45_integrate re-targets one solver from stop to stop; the state at
    every stop must equal that of one fresh solver per interval bit for bit
    (this also catches a scipy release that changes what setting t_bound
    and status on a solver does)."""

    # forward, the step onto 0.029 ends where t + (0.029 - t) is an ulp
    # short of it; backward, x - |0.017 - x| is an ulp short of 0.017, so a
    # fresh solver's first step stops short of it
    @pytest.mark.parametrize("x_start, stops, jump", [
        (0.0, [0.029, 0.2, 0.9, 1.0], 0.029),
        (1.0, [0.9, 0.2, 0.017, 0.0], 0.017)], ids=["forward", "backward"])
    @pytest.mark.parametrize("lams", [-1.0, [-1.0, 50.0 - 3.0j, -2e3]],
                             ids=["one", "stacked"])
    def test_samples_and_end_state_are_bit_identical(self, lams, x_start,
                                                     stops, jump):
        rhs, y0 = _stepped_rhs(lams, jump)
        got = dp45_integrate(rhs, x_start, stops, y0, 1e-6, 1e-8)
        want = _fresh_solver_per_interval(rhs, x_start, stops, y0, 1e-6, 1e-8)
        assert np.array_equal(got, want)

    def test_shots_on_the_benchmark_grid(self, shoot_bench_v0):
        for lam, side in ((-1e3, "left"), (20.0 - 8.0j, "right")):
            x_start, stops, _ = shoot_bench_v0._sides[side]
            rhs, y0 = _stepped_rhs(lam, shoot_bench_v0.grid.nodes[7])
            got = dp45_integrate(rhs, x_start, stops, y0, 1e-10, 1e-12)
            want = _fresh_solver_per_interval(rhs, x_start, stops, y0, 1e-10,
                                              1e-12)
            assert np.array_equal(got, want)


def _scalar_rhs(vfun, lam):
    # (f, f')' = (f', (V(x) - lam) f), the right-hand side of one shot
    def rhs(x, y):
        return np.array([y[1], (vfun(x) - lam) * y[0]], dtype=complex)

    return rhs


@pytest.fixture(scope="module")
def shoot_small_v0():
    return build_shoot1d(ShootConfig(), panels=4, order=12, fd_nodes=32)


class TestShootIvp:
    """One-sided shots against closed forms, through the model's one
    integration path."""

    def test_cosh_solution(self, shoot_small_v0):
        _, (f_end, df_end) = shoot_small_v0._shot(-1.0, False, "left")
        assert abs(f_end - COSH1) < 1e-10
        assert abs(df_end - SINH1) < 1e-10

    def test_linear_solution_at_zero_energy(self, shoot_small_v0):
        # f(0) = 0, f'(0) = 1 at lambda = 0: f = x
        _, (f_end, df_end) = shoot_small_v0._integrate(
            _scalar_rhs(Potential1D.zero(), 0.0), [0.0, 1.0], "left", 1e-10,
            1e-12)
        assert abs(f_end - 1.0) < 1e-12
        assert abs(df_end - 1.0) < 1e-12

    def test_constant_potential_shifts_energy(self):
        c = 2.5
        model = build_shoot1d(ShootConfig(potential=Potential1D.constant(c)),
                              panels=4, order=12, fd_nodes=32)
        _, (f_end, _) = model._shot(c - 1.0, False, "left")
        assert abs(f_end - COSH1) < 1e-10

    def test_oscillatory_solution(self, shoot_small_v0):
        _, (f_end, df_end) = shoot_small_v0._shot(np.pi**2, False, "left")
        # cos(pi x) arrives at -1 with zero slope
        assert abs(f_end + 1.0) < 1e-9
        assert abs(df_end) < 1e-8

    def test_samples_follow_closed_form(self, shoot_small_v0):
        xs = shoot_small_v0.grid.nodes
        (phi, dphi), _ = shoot_small_v0._shot(-1.0, False, "left")
        (psi, _), _ = shoot_small_v0._shot(-1.0, False, "right")
        assert np.abs(phi - np.cosh(xs)).max() < 1e-10
        assert np.abs(dphi - np.sinh(xs)).max() < 1e-10
        assert np.abs(psi - np.cosh(1.0 - xs)).max() < 1e-10

    def test_wronskian_constancy(self):
        pot = Potential1D.from_callable(complex_bump)
        model = build_shoot1d(ShootConfig(potential=pot), panels=4, order=12,
                              fd_nodes=32)
        rhs = _scalar_rhs(pot, -2.0 + 0.7j)
        a, a_end = model._integrate(rhs, [1.0, 0.0], "left", 1e-10, 1e-12)
        b, b_end = model._integrate(rhs, [0.0, 1.0], "left", 1e-10, 1e-12)
        a, b = np.vstack([a, a_end]), np.vstack([b, b_end])
        w = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        assert np.abs(w - 1.0).max() < 1e-8


class TestStops:
    @pytest.mark.parametrize("potential", [
        Potential1D.zero(), Potential1D.power_singularity(1.0 - 0.5j, 0.4, 0.4,
                                                          2.0)],
        ids=["v0", "power"])
    def test_rows_map_back_to_the_nodes(self, potential):
        model = build_shoot1d(ShootConfig(potential=potential), panels=4,
                              order=12, fd_nodes=32)
        nodes = model.grid.nodes
        for side, (x_start, x_end, sign) in (("left", (0.0, 1.0, 1.0)),
                                             ("right", (1.0, 0.0, -1.0))):
            start, stops, rows = model._sides[side]
            stops = np.array(stops)
            assert start == x_start and stops[-1] == x_end
            assert (np.diff(np.append(start, stops)) * sign > 0).all()
            assert np.array_equal(stops[rows], nodes)
            # the jumps of V are stops, and nothing else besides the far end
            inner = set(stops[:-1]) - set(nodes)
            assert inner == set(potential.breakpoints())

    def test_jump_behind_the_start_is_no_stop(self, monkeypatch):
        # x0 = 5e-9 puts the window edge x0 - 1e-8 behind x = 0; as a stop
        # it would send the solver backward past the interval end
        pot = Potential1D.power_singularity(1.0 - 0.5j, 5e-9, 0.4, 2.0)
        model = build_shoot1d(ShootConfig(potential=pot), panels=4, order=12,
                              fd_nodes=32)
        calls = []
        original = model_shoot1d.dp45_integrate

        def one_way(rhs, x_start, stops, y0, *args):
            # checked before the solve: a solver sent backward never ends
            legs = np.diff(np.append(x_start, stops))
            assert (legs > 0).all() or (legs < 0).all()
            calls.append(x_start)
            return original(rhs, x_start, stops, y0, *args)

        monkeypatch.setattr(model_shoot1d, "dp45_integrate", one_way)
        m = weyl(model, -3.0, allow_uncertified=True).m
        batch = model.weyl_batch([-3.0, 5.0 + 3.0j])
        assert np.isfinite(m).all() and np.isfinite(batch).all()
        assert len(calls) >= 4  # the shots of weyl, two stacked sides


@pytest.fixture(scope="module")
def shoot_bench_v0():
    return build_shoot1d(ShootConfig(), panels=4, order=12, fd_nodes=128)


class TestShootModel:
    def test_structure(self, shoot_v0):
        assert shoot_v0.grid.size == 128
        # 128 samples plus the four trace slots f(0), f'(0), f(L), f'(L)
        rng = np.random.default_rng(0)
        assert len(shoot_v0.random_domain_vector(rng)) == 132
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
        assert np.abs(f[:shoot_v0.grid.size] - want).max() < 1e-9

    def test_build_rejects_wrong_config(self):
        with pytest.raises(TypeError):
            build_shoot1d({"length": 1.0})


_BENCH_C = 3.0 - 2.0j


@pytest.fixture(scope="module")
def shoot_bench_c():
    return build_shoot1d(ShootConfig(potential=Potential1D.constant(_BENCH_C)),
                         panels=4, order=12, fd_nodes=128)


def _scan_grid(c):
    # the benchmark's Robin scan: (Re c - 40, Re c - 4) x (Im c -+ 1), 12 x 3
    res = np.linspace(c.real - 40.0, c.real - 4.0, 12)
    ims = np.linspace(c.imag - 1.0, c.imag + 1.0, 3)
    return (res[:, None] + 1j * ims[None, :]).ravel()


def _circle(count, center=15.0, radius=25.0):
    return center + radius * np.exp(2j * np.pi * (np.arange(count) + 0.5)
                                    / count)


class TestWeylBatch:
    @pytest.fixture(params=[0.0, _BENCH_C], ids=["v0", "v3-2i"])
    def bench(self, request, shoot_bench_v0, shoot_bench_c):
        c = request.param
        return (shoot_bench_c if c else shoot_bench_v0), c

    @pytest.mark.parametrize("points, tol", [
        (_scan_grid(_BENCH_C), 1e-10),
        (_circle(64), 1e-10),
        (-np.geomspace(1.0, 6.55e4, 9), 1e-12),
    ], ids=["scan-grid", "circle", "ray"])
    def test_closed_form(self, bench, points, tol):
        model, c = bench
        got = model.weyl_batch(points)
        want = np.array([interval_weyl_v0(z - c) for z in points])
        assert np.abs(got - want).max() <= tol

    def test_neumann_points_get_nan_rows(self, shoot_bench_v0):
        got = shoot_bench_v0.weyl_batch([0.0, np.pi**2, -1.0])
        assert np.isnan(got[:2]).all()
        assert np.abs(got[2] - interval_weyl_v0(-1.0)).max() < 1e-12

    def test_finiteness_matches_the_pointwise_path(self, shoot_bench_v0,
                                                   shoot_v0):
        # the ODE error of phi'(L) at k^2 pi^2 reaches 1e-9 of scale (k = 5,
        # benchmark grid), so the guard scales with rtol; 1e-6 away from the
        # eigenvalue the relative |phi'(L)| is about 5e-7, far above it
        for model, k in itertools.product((shoot_bench_v0, shoot_v0), range(6)):
            lam = (k * np.pi) ** 2
            with pytest.raises(MatchingSingular):
                weyl(model, lam, allow_uncertified=True)
            assert np.isnan(model.weyl_batch([lam])).all()
            near = [lam - 1e-6, lam + 1e-6]
            for m in (model.weyl_batch(near), pointwise_weyl(model, near)):
                assert np.isfinite(m).all()

    def test_guard_scales_with_the_mode_number(self, shoot_bench_v0, shoot_v0):
        # the ODE error of phi'(L) at k^2 pi^2 grows about linearly in k, to
        # 2.6e-8 of scale at k = 20, past a guard of 100 rtol = 1e-8; the
        # guard 1e-8 k still sits below the 4.7e-7 that 1e-6 off gives
        ks = np.arange(6, 21)
        eigs = (ks * np.pi) ** 2
        for model in (shoot_bench_v0, shoot_v0):
            for lam in eigs:
                with pytest.raises(MatchingSingular):
                    weyl(model, lam, allow_uncertified=True)
                assert np.isfinite(
                    weyl(model, lam + 1e-6, allow_uncertified=True).m).all()
            got = model.weyl_batch(np.concatenate([eigs, eigs + 1e-6]))
            assert np.isnan(got[:len(ks)]).all()
            assert np.isfinite(got[len(ks):]).all()

    def test_guard_does_not_scale_off_the_positive_axis(self):
        # the shot does not oscillate there; scaled by sqrt|lambda| the
        # guard would pass 1 at rtol = 1e-4 and flag every point
        model = build_shoot1d(ShootConfig(rtol=1e-4, atol=1e-6), panels=4,
                              order=12, fd_nodes=64)
        for lam in (-3e5, -3e5 + 1e5j):
            got = weyl(model, lam, allow_uncertified=True).m
            assert np.abs(got - interval_weyl_v0(lam)).max() < 1e-6

    def test_nan_point_gets_a_nan_row(self, shoot_bench_v0):
        # DOP853's first step from a NaN right-hand side is NaN, and its
        # step loop would never end; the stacked solve falls back point-wise
        got = shoot_bench_v0.weyl_batch([np.nan, -1.0])
        assert np.isnan(got[0]).all()
        assert np.abs(got[1] - interval_weyl_v0(-1.0)).max() < 1e-12

    def test_tilde_side_is_the_adjoint(self, shoot_bench_c):
        z = np.concatenate([_circle(16), _scan_grid(_BENCH_C)])
        m = shoot_bench_c.weyl_batch(z)
        m_tilde = shoot_bench_c.weyl_batch(np.conjugate(z), tilde=True)
        assert np.abs(m_tilde - np.conjugate(m.transpose(0, 2, 1))).max() \
            <= 1e-12

    def test_power_potential_matches_a_tight_pointwise_path(self):
        pot = Potential1D.power_singularity(1.0 - 0.5j, 0.4, 0.4, 2.0)
        model = build_shoot1d(ShootConfig(potential=pot),
                              panels=4, order=12, fd_nodes=128)
        tight = build_shoot1d(ShootConfig(potential=pot, rtol=1e-12),
                              panels=4, order=12, fd_nodes=128)
        lams = np.concatenate([_circle(8), [-5.0, -500.0]])
        got = model.weyl_batch(lams)
        want = pointwise_weyl(tight, lams)
        assert np.abs(got - want).max() <= 1e-9

    def test_shots_step_onto_the_jumps_of_a_power_potential(self):
        # V jumps at the edges of its window x0 -+ 1e-8; a per-point shot
        # that steps across them errs by up to 1.6e-7 on these points
        pot = Potential1D.power_singularity(1.0 - 0.5j, 0.4, 0.4, 2.0)
        model = build_shoot1d(ShootConfig(potential=pot),
                              panels=4, order=12, fd_nodes=128)
        tight = build_shoot1d(ShootConfig(potential=pot, rtol=1e-12),
                              panels=4, order=12, fd_nodes=128)
        lams = np.concatenate([_circle(8), _circle(32)[[12, 26]], [-5.0, -500.0]])
        got = pointwise_weyl(model, lams)
        want = tight.weyl_batch(lams)
        rel = (np.abs(got - want).max(axis=(1, 2))
               / np.abs(want).max(axis=(1, 2)))
        assert rel.max() <= 3e-9

    def test_chunks_are_solved_independently(self, shoot_bench_v0):
        lams = _circle(300, center=-20.0, radius=15.0)
        whole = shoot_bench_v0.weyl_batch(lams)
        assert np.array_equal(whole[:256], shoot_bench_v0.weyl_batch(lams[:256]))
        assert np.array_equal(whole[256:], shoot_bench_v0.weyl_batch(lams[256:]))

    def test_empty_input(self, shoot_bench_v0):
        assert shoot_bench_v0.weyl_batch([]).shape == (0, 2, 2)

    def test_failed_stacked_solve_falls_back_to_pointwise(
            self, shoot_bench_v0, monkeypatch):
        original = model_shoot1d.dp45_integrate

        def stacked_fails(rhs, x_start, stops, y0, rtol, atol):
            if len(y0) > 2:
                raise StepSizeUnderflow("stacked solve refused")
            return original(rhs, x_start, stops, y0, rtol, atol)

        monkeypatch.setattr(model_shoot1d, "dp45_integrate", stacked_fails)
        lams = np.array([-1.0, 5.0 + 3.0j, 0.0])
        got = shoot_bench_v0.weyl_batch(lams)
        want = pointwise_weyl(shoot_bench_v0, lams)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[2]).all()


class TestFarNegativeAxis:
    """Past lambda = -4.9e5 the shots' cosh(sqrt(-lambda) x) leaves double
    range before x = L: the integration stops there, and says so."""

    @pytest.mark.parametrize("lam", [-5e5, -1e6])
    def test_overflow_fails_to_converge(self, shoot_bench_v0, lam):
        # with no RuntimeWarning first: tier-1 makes each one an error
        with pytest.raises(NoConvergence, match="double range"):
            weyl(shoot_bench_v0, lam, allow_uncertified=True)

    def test_overflow_gets_a_nan_row(self, shoot_bench_v0):
        got = shoot_bench_v0.weyl_batch([-5e5, -1.0])
        assert np.isnan(got[0]).all()
        assert np.abs(got[1] - interval_weyl_v0(-1.0)).max() < 1e-12

    def test_last_point_in_range_matches_closed_form(self, shoot_bench_v0):
        got = weyl(shoot_bench_v0, -4.5e5, allow_uncertified=True).m
        want = interval_weyl_v0(-4.5e5)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestRobinScan:
    def test_finds_both_roots_of_the_window(self):
        model = build_shoot1d(ShootConfig(), panels=2, order=8, fd_nodes=32)
        roots = robin_eigs(model, BoundaryOperator.scalar(0.7, 2),
                           (-4.0, 12.0, -1.0, 1.0), (12, 3))
        want = [ROBIN_LAM_NEG, ROBIN_LAMS_POS[0]]
        assert len(roots) == 2
        assert max(abs(z - w) for z, w in zip(roots, want)) < 1e-8

    def test_finds_the_root_far_left_of_the_grid_minima(self, shoot_bench_v0):
        # the grid scan missed -1.5796 here: its one seed left of 6.86
        # converged to 6.86, and the deflated rescan walked out of the window
        roots = robin_eigs(shoot_bench_v0, BoundaryOperator.scalar(0.7, 2),
                           (-4.0, 35.0, -1.0, 1.0), (12, 3))
        want = [ROBIN_LAM_NEG, ROBIN_LAMS_POS[0]]
        assert len(roots) == 2
        assert max(abs(z - w) for z, w in zip(roots, want)) < 1e-8


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
