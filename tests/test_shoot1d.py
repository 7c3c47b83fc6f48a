"""Shooting-based continuum interval model: the fixed-mesh Magnus
propagator, each side's mesh, kernel solutions, agreement with both closed
forms, a tight ODE oracle and the fd discretization, the Weyl batch and the
Robin scan built on it, and the deferred imports of scipy's integrators and
root finders."""
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
    ConfigError,
    MatchingSingular,
    NoConvergence,
    Potential1D,
    ShootConfig,
    build_fd1d,
    build_shoot1d,
    model_from_spec,
    robin_eigs,
    weyl,
    weyl_symmetry_defect,
)
from btriple.model_shoot1d import magnus_propagate

from btriple.harness import SuiteConfig, run_identity_suite

from .conftest import complex_bump
from .oracles import (
    COSH1,
    ROBIN_LAM_NEG,
    ROBIN_LAMS_POS,
    SINH1,
    interval_weyl_v0,
    ode_weyl,
    pointwise_weyl,
)


class TestShootConfig:
    def test_defaults(self):
        cfg = ShootConfig()
        assert cfg.length == 1.0
        assert cfg.potential.is_zero
        assert cfg.substeps == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            ShootConfig(length=0.0)
        for substeps in (0, 3):  # the step-doubling estimate merges pairs
            with pytest.raises(ValueError, match="substeps"):
                ShootConfig(substeps=substeps)

    @pytest.mark.parametrize("key", ["rtol", "atol"])
    def test_old_tolerance_keys_name_substeps(self, key):
        with pytest.raises(ConfigError, match="substeps"):
            ShootConfig(**{key: 1e-10})
        with pytest.raises(ConfigError, match="substeps"):
            model_from_spec({"model": "shoot1d", key: 1e-10})


def _uniform_steps(count, backward=False):
    # (c, h, m0, c^2 + h m0) of ``count`` gaps of one step each on (0, 1)
    # with V = 0, in the layout of model_shoot1d._steps
    h = np.full((count, 1), (-1.0 if backward else 1.0) / count)
    zero = np.zeros_like(h, dtype=complex)
    return zero, h, zero, zero


class TestIntegrator:
    """magnus_propagate on f'' = (V - lam) f with the states it returns
    after every gap, each scaled by its complex log-scale."""

    def test_linear_ode(self):
        # f'' = f from (1, 0): the end state is (cosh 1, sinh 1)
        states, logs = magnus_propagate(_uniform_steps(1), np.array([-1.0]))
        end = states[-1, 0] * np.exp(logs[-1, 0])
        assert np.abs(end - [COSH1, SINH1]).max() < 1e-15

    def test_samples_are_interpolated(self):
        xs = np.arange(1, 9) / 8.0
        states, logs = magnus_propagate(_uniform_steps(8), np.array([-1.0]))
        got = states[:, 0] * np.exp(logs)
        assert np.abs(got[:, 0] - np.cosh(xs)).max() < 1e-15
        assert np.abs(got[:, 1] - np.sinh(xs)).max() < 1e-15

    def test_backward_integration(self):
        # from x = 1 toward 0, f' = -df/d(-x): f = cosh(1 - x)
        xs = 1.0 - np.arange(1, 9) / 8.0
        states, logs = magnus_propagate(_uniform_steps(8, backward=True),
                                        np.array([-1.0]))
        got = states[:, 0] * np.exp(logs)
        assert np.abs(got[:, 0] - np.cosh(1.0 - xs)).max() < 1e-15
        assert np.abs(got[:, 1] + np.sinh(1.0 - xs)).max() < 1e-15

    def test_scaled_states_stay_in_range_past_double_range(self):
        # cosh(sqrt(1e7)) is about e^3162: the scaled states stay O(1) and
        # the log-scale carries the growth, with its phase
        lams = np.array([-1e7, -1e7 + 1e3j])
        states, logs = magnus_propagate(_uniform_steps(8), lams)
        assert np.isfinite(states).all() and np.abs(states).max() < 1e4
        # cosh(s) e^-s = (1 + e^-2s) / 2, with log-scale s
        assert np.abs(logs[-1] - np.sqrt(-lams)).max() < 1e-9
        assert np.abs(states[-1, :, 0] - 0.5).max() < 1e-15

    def test_fourth_order_on_a_smooth_potential(self):
        # uniform steps with the exact moments of V = 3 x^2 (m1 about each
        # midpoint): halving the steps divides the error by about 2^4
        def steps(count):
            x = np.linspace(0.0, 1.0, count + 1)
            w, mid = np.diff(x)[:, None], 0.5 * (x[:-1] + x[1:])[:, None]
            m0 = (x[1:] ** 3 - x[:-1] ** 3)[:, None] + 0j
            m1 = 0.75 * (x[1:] ** 4 - x[:-1] ** 4)[:, None] - mid * m0
            return -m1, w, m0, m1 * m1 + w * m0

        lam = np.array([-3.0 + 1.0j])

        def end(count):
            states, logs = magnus_propagate(steps(count), lam)
            return states[-1, 0] * np.exp(logs[-1, 0])

        ref = end(1024)
        errs = [np.abs(end(n) - ref).max() for n in (16, 32, 64)]
        assert 12.0 < errs[0] / errs[1] < 20.0
        assert 12.0 < errs[1] / errs[2] < 20.0


class TestOneSolverPerIntegration:
    """One propagation serves a single point's shot and a chunk of points:
    the states of every point of a chunk equal those of that point alone,
    bit for bit."""

    @pytest.mark.parametrize("side", ["left", "right"],
                             ids=["forward", "backward"])
    @pytest.mark.parametrize("lams", [[-1.0], [-1.0, 50.0 - 3.0j, -2e3]],
                             ids=["one", "stacked"])
    def test_samples_and_end_state_are_bit_identical(self, lams, side):
        pot = Potential1D.from_callable(complex_bump)
        model = build_shoot1d(ShootConfig(potential=pot), panels=4, order=12,
                              fd_nodes=32)
        steps = model._mesh[side, False]
        states, logs = magnus_propagate(steps, np.array(lams, dtype=complex))
        for k, lam in enumerate(lams):
            one, one_logs = magnus_propagate(steps, np.array([lam], complex))
            assert np.array_equal(states[:, k], one[:, 0])
            assert np.array_equal(logs[:, k], one_logs[:, 0])

    def test_shots_on_the_benchmark_grid(self, shoot_bench_v0):
        # the memoized shots of solve_bvp against a chunk's
        lams = np.array([-1e3, 20.0 - 8.0j, -5e5])
        chunk = [shoot_bench_v0._shots(lams, False, side)
                 for side in ("left", "right")]
        for k, lam in enumerate(lams):
            pair = shoot_bench_v0._kernel_pair(lam, False)
            for shot, (nodes, (f, df), start, _) in zip(pair, chunk):
                assert np.array_equal(shot[0], nodes[:, k].T)
                assert shot[1] == (f[k], df[k]) and shot[2] == start[k]


def _shot(model, lam, side):
    # _shots at the one point lam, with the node states as (f, f') rows
    nodes, (f, df), start, bad = model._shots(np.array([lam], dtype=complex),
                                              False, side)
    return nodes[:, 0].T, np.array([f[0], df[0]]), start[0], bad[0]


def _true_end(shot):
    # (f, f') at the far end in the units where f = 1 at the start
    _, end, start, _ = shot
    return end / start


@pytest.fixture(scope="module")
def shoot_small_v0():
    return build_shoot1d(ShootConfig(), panels=4, order=12, fd_nodes=32)


class TestShootIvp:
    """One-sided shots against closed forms, through the model's one
    shot routine."""

    def test_cosh_solution(self, shoot_small_v0):
        f_end, df_end = _true_end(_shot(shoot_small_v0, -1.0, "left"))
        assert abs(f_end - COSH1) < 1e-14
        assert abs(df_end - SINH1) < 1e-14

    def test_linear_solution_at_zero_energy(self, shoot_small_v0):
        # lambda = 0, V = 0: the Neumann shot is the linear solution f = 1,
        # and every step is the identity, so f' stays exactly 0
        for side in ("left", "right"):
            (f, df), end, start, _ = _shot(shoot_small_v0, 0.0, side)
            assert (f == 1.0).all() and (df == 0.0).all()
            assert np.array_equal(end, [1.0, 0.0]) and start == 1.0

    def test_constant_potential_shifts_energy(self):
        c = 2.5
        model = build_shoot1d(ShootConfig(potential=Potential1D.constant(c)),
                              panels=4, order=12, fd_nodes=32)
        f_end, _ = _true_end(_shot(model, c - 1.0, "left"))
        assert abs(f_end - COSH1) < 1e-14

    def test_oscillatory_solution(self, shoot_small_v0):
        f_end, df_end = _true_end(_shot(shoot_small_v0, np.pi**2, "left"))
        # cos(pi x) arrives at -1 with zero slope
        assert abs(f_end + 1.0) < 1e-14
        assert abs(df_end) < 1e-13

    def test_samples_follow_closed_form(self, shoot_small_v0):
        xs = shoot_small_v0.grid.nodes
        (phi, dphi), _, phi_0, _ = _shot(shoot_small_v0, -1.0, "left")
        (psi, _), _, psi_L, _ = _shot(shoot_small_v0, -1.0, "right")
        assert np.abs(phi / phi_0 - np.cosh(xs)).max() < 1e-14
        assert np.abs(dphi / phi_0 - np.sinh(xs)).max() < 1e-14
        assert np.abs(psi / psi_L - np.cosh(1.0 - xs)).max() < 1e-14

    def test_wronskian_constancy(self):
        pot = Potential1D.from_callable(complex_bump)
        model = build_shoot1d(ShootConfig(potential=pot), panels=4, order=12,
                              fd_nodes=32)
        lam = -2.0 + 0.7j
        (phi, dphi), _, phi_0, _ = _shot(model, lam, "left")
        (psi, dpsi), _, psi_L, _ = _shot(model, lam, "right")
        w = (phi * dpsi - dphi * psi) / (phi_0 * psi_L)
        assert np.abs(w / w.mean() - 1.0).max() < 1e-11


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
            h = model._mesh[side, False][1]
            assert (h * sign >= 0.0).all()  # zero-length padding at most
            ends = x_start + np.cumsum(h.sum(axis=1))
            assert abs(ends[-1] - x_end) < 1e-14
            rows = model._rows[side]
            assert np.abs(ends[rows] - nodes).max() < 1e-14
            # the singular points of V end gaps, and nothing else besides
            # the far end
            others = np.delete(ends, rows)[:-1]
            assert np.allclose(others, potential.singular_points(), atol=1e-14)

    def test_jump_behind_the_start_is_no_stop(self):
        # x0 = 5e-9 puts the edge x0 - 1e-8 of V's pointwise window behind
        # x = 0; the mesh has x0 itself as an edge, with its layers, and every
        # step goes one way
        pot = Potential1D.power_singularity(1.0 - 0.5j, 5e-9, 0.4, 2.0)
        model = build_shoot1d(ShootConfig(potential=pot), panels=4, order=12,
                              fd_nodes=32)
        for side, sign in (("left", 1.0), ("right", -1.0)):
            assert (model._mesh[side, False][1] * sign >= 0.0).all()
        m = weyl(model, -3.0, allow_uncertified=True).m
        batch = model.weyl_batch([-3.0, 5.0 + 3.0j])
        assert np.isfinite(m).all() and np.isfinite(batch).all()
        # the pointwise V of an ODE oracle averages V over a window that
        # leaves the interval here, so the reference is four times the steps
        fine = build_shoot1d(ShootConfig(potential=pot, substeps=64),
                             panels=4, order=12, fd_nodes=32)
        assert np.abs(batch - fine.weyl_batch([-3.0, 5.0 + 3.0j])).max() < 1e-9


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
        # the rounding of phi'(L) at k^2 pi^2 stays within a few eps times
        # the steps and k (V = 0: one exact step per gap); 1e-6 away from
        # the eigenvalue the relative |phi'(L)| is about 5e-7, far above it
        for model, k in itertools.product((shoot_bench_v0, shoot_v0), range(6)):
            lam = (k * np.pi) ** 2
            with pytest.raises(MatchingSingular):
                weyl(model, lam, allow_uncertified=True)
            assert np.isnan(model.weyl_batch([lam])).all()
            near = [lam - 1e-6, lam + 1e-6]
            for m in (model.weyl_batch(near), pointwise_weyl(model, near)):
                assert np.isfinite(m).all()

    def test_guard_scales_with_the_mode_number(self, shoot_bench_v0, shoot_v0):
        # the rounding of phi'(L) at k^2 pi^2 grows with k, to 2.4 eps
        # steps k of scale by k = 20 (benchmark grid); the guard 100 eps
        # steps k still sits far below the 4.7e-7 that 1e-6 off gives
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
        # the shot does not oscillate there; at two sub-steps per gap the
        # step-doubling estimate is large, and scaled by sqrt|lambda| the
        # guard would flag every point
        pot = Potential1D.from_callable(complex_bump)
        coarse, fine = (build_shoot1d(ShootConfig(potential=pot,
                                                  substeps=substeps),
                                      panels=4, order=12, fd_nodes=64)
                        for substeps in (2, 32))
        for lam in (-3e5, -3e5 + 1e5j):
            got = weyl(coarse, lam, allow_uncertified=True).m
            want = fine.weyl_batch([lam])[0]
            assert np.abs(got - want).max() < 1e-6 * np.abs(want).max()

    def test_guard_stays_below_one_on_the_positive_axis(self):
        # an rtol-scaled guard passed 1 at loose tolerances there and read
        # every point as a Neumann eigenvalue; the propagator's own error
        # keeps it small (lambda near (110 pi)^2, k = 110)
        model = build_shoot1d(ShootConfig(potential=Potential1D.from_callable(
            complex_bump), substeps=2), panels=4, order=12, fd_nodes=64)
        for lam in (120007.0, 120000.0 + 50.0j):
            assert np.isfinite(weyl(model, lam, allow_uncertified=True).m).all()

    def test_nan_point_gets_a_nan_row(self, shoot_bench_v0):
        # a NaN point's steps are NaN; its row alone is
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
        lams = np.concatenate([_circle(8), [-5.0, -500.0]])
        got = model.weyl_batch(lams)
        want = np.array([ode_weyl(pot, lam) for lam in lams])
        assert np.abs(got - want).max() <= 1e-9

    def test_shots_step_onto_the_singular_point_of_a_power_potential(self):
        # x0 is a mesh edge with 8 geometric layers on either side; with
        # uniform sub-steps alone the error on these points was 2.5e-8
        pot = Potential1D.power_singularity(1.0 - 0.5j, 0.4, 0.4, 2.0)
        model = build_shoot1d(ShootConfig(potential=pot),
                              panels=4, order=12, fd_nodes=128)
        lams = np.concatenate([_circle(8), _circle(32)[[12, 26]], [-5.0, -500.0]])
        got = pointwise_weyl(model, lams)
        want = np.array([ode_weyl(pot, lam) for lam in lams])
        rel = (np.abs(got - want).max(axis=(1, 2))
               / np.abs(want).max(axis=(1, 2)))
        assert rel.max() <= 3e-9

    def test_complex_bump_matches_the_ode_oracle(self, shoot_complex):
        pot = Potential1D.from_callable(complex_bump)
        bench = build_shoot1d(ShootConfig(potential=pot), panels=4, order=12,
                              fd_nodes=128)
        lams = np.array([-1.0, -500.0, 5.0 + 3.0j, 20.0 - 8.0j, -50.0 + 50.0j])
        want = np.array([ode_weyl(pot, lam) for lam in lams])
        for model in (shoot_complex, bench):
            assert np.abs(model.weyl_batch(lams) - want).max() <= 1e-10

    def test_chunks_are_solved_independently(self, shoot_bench_v0):
        lams = _circle(300, center=-20.0, radius=15.0)
        whole = shoot_bench_v0.weyl_batch(lams)
        assert np.array_equal(whole[:256], shoot_bench_v0.weyl_batch(lams[:256]))
        assert np.array_equal(whole[256:], shoot_bench_v0.weyl_batch(lams[256:]))

    def test_empty_input(self, shoot_bench_v0):
        assert shoot_bench_v0.weyl_batch([]).shape == (0, 2, 2)

    def test_failed_stacked_solve_falls_back_to_pointwise(
            self, shoot_bench_v0, monkeypatch):
        original = model_shoot1d.magnus_propagate

        def stacked_fails(steps, lams):
            if len(lams) > 1:
                raise NoConvergence("stacked solve refused")
            return original(steps, lams)

        monkeypatch.setattr(model_shoot1d, "magnus_propagate", stacked_fails)
        lams = np.array([-1.0, 5.0 + 3.0j, 0.0])
        got = shoot_bench_v0.weyl_batch(lams)
        want = pointwise_weyl(shoot_bench_v0, lams)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[2]).all()


class TestFarNegativeAxis:
    """Past lambda = -4.9e5 the shots' cosh(sqrt(-lambda) x) leaves double
    range before x = L; the scaled steps carry it as a log-scale, so M
    matches the closed form out to -1e7."""

    @pytest.mark.parametrize("lam", [-5e5, -1e6, -1e7])
    def test_weyl_matches_the_scaled_closed_form(self, shoot_bench_v0, lam):
        got = weyl(shoot_bench_v0, lam, allow_uncertified=True).m
        want = interval_weyl_v0(lam)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_batch_matches_the_scaled_closed_form(self, shoot_bench_v0,
                                                  shoot_bench_c):
        lams = [-5e5, -1e6, -1e7, -1.0]
        for model, c in ((shoot_bench_v0, 0.0), (shoot_bench_c, _BENCH_C)):
            got = model.weyl_batch(lams)
            want = np.array([interval_weyl_v0(z - c) for z in lams])
            err = np.abs(got - want).max(axis=(1, 2))
            assert (err <= 1e-12 * np.abs(want).max(axis=(1, 2))).all()

    def test_last_point_in_range_matches_closed_form(self, shoot_bench_v0):
        got = weyl(shoot_bench_v0, -4.5e5, allow_uncertified=True).m
        want = interval_weyl_v0(-4.5e5)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_far_point_costs_its_chunk_nothing(self, shoot_bench_v0,
                                               monkeypatch):
        # one chunk kernel call for a 255-node circle with -5e5 appended: no
        # point-wise fallback and no NaN row
        calls = []
        original = shoot_bench_v0._weyl_chunk

        def counted(lams, tilde):
            calls.append(len(lams))
            return original(lams, tilde)

        monkeypatch.setattr(shoot_bench_v0, "_weyl_chunk", counted)
        lams = np.append(_circle(255, center=-20.0, radius=15.0), -5e5)
        got = shoot_bench_v0.weyl_batch(lams)
        assert calls == [256]
        assert np.isfinite(got).all()
        assert np.abs(got[-1] - interval_weyl_v0(-5e5)).max() <= 1e-15

    def test_resolvent_past_double_range_fails_to_converge(self,
                                                            shoot_bench_v0):
        # W = phi psi' - phi' psi in the shots' units holds exp(-sqrt(-lambda)
        # L), which underflows past -4.9e5
        f = shoot_bench_v0.random_domain_vector(np.random.default_rng(0))
        with pytest.raises(NoConvergence, match="double range"):
            shoot_bench_v0.neumann_resolvent(-1e6, f)


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
    def test_complex_potential_passes_at_two_substeps(self):
        # a constant V takes one exact step per mesh gap, so the
        # gamma_kernel_ode records hold their 1e-7 bar at any substeps
        spec = {"model": "shoot1d", "panels": 4, "order": 12, "fd_nodes": 128,
                "potential": {"kind": "constant", "value": [3.0, -2.0]},
                "substeps": 2}
        records = run_identity_suite(SuiteConfig(models=(spec,))).records
        assert len(records) == 59
        assert [r.check_name for r in records if not r.passed] == []


class TestLazyIntegratorImport:
    def test_package_import_leaves_scipy_integrate_unloaded(self):
        # no package code needs scipy's integrators, and only the disk's
        # Robin reference needs its root finder: a package import loads
        # neither
        src = os.path.dirname(os.path.dirname(os.path.abspath(btriple.__file__)))
        code = ("import sys, btriple; "
                "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize')"
                " if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"
