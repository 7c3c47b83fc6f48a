"""Continuum interval model: kernel solutions by adaptive ODE shooting.

The Weyl function here comes straight from integrating -f'' + V f = lam f
with scipy's DOP853 (Dormand-Prince 8(5,3), complex state), so it is
independent of any global discretization and remains accurate at the large
|lam| the decay studies need. A shot runs one DOP853 solver from its start
to the far end and re-targets it at every grid node in turn, and at the
jumps of V (the window edges around a power singularity), so each of them
is a step end; no step cap applies beyond the error control. The chunk
kernel of ``weyl_batch`` needs only the endpoint values of the two shots,
so it integrates the shots of a whole chunk of spectral points as one
stacked system per side, with the same step ends. Carriers hold samples
on a composite Gauss-Legendre grid plus four analytic trace slots:

    [ values at the N panel nodes, f(0), f'(0), f(L), f'(L) ]

The Neumann resolvent is assembled by variation of parameters from the two
one-sided Neumann kernel solutions phi (phi'(0) = 0, integrated from the
left) and psi (psi'(L) = 0, integrated from the right):

    u(x) = -[ psi(x) int_0^x phi f + phi(x) int_x^L psi f ] / W,
    W = phi psi' - phi' psi  (constant in x),

with the integrals evaluated by the grid's spectral cumulative-integration
matrix. Both boundary derivative slots of u vanish identically because phi
and psi carry the one-sided Neumann conditions exactly. The free-operator
and potential matrices are delegated to an internal finite-difference
model: the factorization and relative-bound studies are statements about
those matrices themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import MatchingSingular, NoConvergence, StepSizeUnderflow
from .grids import PanelGrid, graded_edges
from .potentials import Potential1D
from .triple_core import TripleModel

# |f'| at the far end of a one-sided Neumann shot at or below this many
# times rtol times max(1, k), as a fraction of max(|f|, |f'|, 1) there, means
# lambda is a Neumann eigenvalue. k = sqrt(max(Re lambda, 0)) L / pi counts
# the oscillations of the shot, and the ODE error of f' grows about linearly
# in it: 2.6e-8 at (20 pi)^2 with rtol = 1e-10 (V = 0, L = 1, 4 panels of
# order 12). Off the positive axis the shot does not oscillate (k = 0).
_MATCHING_TOL_PER_RTOL = 100.0

# scipy's DOP853 measures the error as an RMS over all components; a stacked
# solve of n components divides the tolerances by this times sqrt(n), so that
# no single component's error rides on the others being small
_STACK_TOL_MARGIN = 10.0

# scipy's DOP853 raises any smaller rtol to this floor, with a warning
_RTOL_FLOOR = 100.0 * np.finfo(float).eps


@dataclass(frozen=True)
class ShootConfig:
    """Interval length, potential, and integrator tolerances."""

    length: float = 1.0
    potential: Potential1D = None
    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        if self.length <= 0.0:
            raise ValueError("length must be positive")
        if not (1e-13 < self.rtol < 1e-3) or not (1e-13 < self.atol < 1e-3):
            raise ValueError("rtol and atol must lie in (1e-13, 1e-3)")
        if self.potential is None:
            object.__setattr__(self, "potential", Potential1D.zero())


@dataclass(frozen=True)
class ShootSolution:
    """Sampled IVP solution with endpoint values."""

    f_samples: np.ndarray
    df_samples: np.ndarray
    f_end: complex
    df_end: complex


# The name is kept because the traced benchmark run patches it by name.
def dp45_integrate(rhs, x_start, x_end, y0, rtol, atol, sample_points=None):
    """Adaptive integration of y' = rhs(x, y) for a complex state vector
    with scipy's DOP853 (Dormand-Prince 8(5,3)). One solver runs the whole
    integration and is re-targeted at each sample point in turn, so every
    sample is a step end; each re-targeted leg starts with the step a fresh
    solver would take there, so the results equal those of one solver per
    interval bit for bit. Integrates from x_start to x_end in either
    direction and returns (samples, y_end) where samples[i] is the state at
    sample_points[i]; points at or behind the start get the initial state."""
    # imported here so that runs without a shoot1d model never load it
    from scipy.integrate import DOP853

    sign = 1.0 if x_end >= x_start else -1.0
    if sample_points is None:
        sample_points = np.array([])
    sample_points = np.asarray(sample_points, dtype=float)

    y = np.asarray(y0, dtype=complex).copy()
    x = float(x_start)
    samples = {}
    ahead = []
    for p in sample_points:
        if (p - x_start) * sign > 0 and (x_end - p) * sign >= 0:
            ahead.append(float(p))
        else:
            samples[float(p)] = y.copy()  # at or behind the start
    stops = sorted(set(ahead) | {float(x_end)}, reverse=sign < 0)

    solver = None
    # one context per integration, not per leg; past double range the
    # solver would step on through inf and NaN and fail on its step size
    try:
        with np.errstate(over="raise"):
            for stop in stops:
                if solver is None:  # it picks its own initial step
                    solver = DOP853(rhs, x, y, stop, rtol=rtol, atol=atol)
                    # a NaN state or rhs gives a NaN step; step() never ends
                    if not np.isfinite(solver.h_abs):
                        raise StepSizeUnderflow(
                            f"first step is not finite (x = {x:.6g})")
                else:
                    # a fresh solver at x with first_step=min(h, |stop - x|)
                    # takes the same clipped step from the same derivative
                    solver.t_bound, solver.status = stop, "running"
                    solver.h_abs = min(solver.h_abs, abs(stop - x))
                while solver.status == "running":
                    message = solver.step()
                if solver.status == "failed":
                    raise StepSizeUnderflow(f"{message} (x = {solver.t:.6g})")
                # the FSAL derivative was taken at t_old + (stop - t_old),
                # an ulp off the stop at worst; a fresh solver takes it there
                if solver.t_old + (stop - solver.t_old) != stop:
                    solver.f = solver.fun(stop, solver.y)
                x, y = stop, solver.y
                samples[stop] = y
    except FloatingPointError as exc:
        raise NoConvergence(f"the state left double range ({exc}) near x = "
                            f"{x if solver is None else solver.t:.6g}") from exc

    out = np.array([samples[float(p)] for p in sample_points],
                   dtype=complex).reshape(len(sample_points), y.size)
    return out, y


def solve_ivp_schrodinger(config, lam, x_start, f0, df0, direction,
                          sample_points=None):
    """Integrate -f'' + V f = lam f from x_start to the interval end in the
    given direction (+1 toward L, -1 toward 0) with DOP853, every sample
    point a step end. Returns the samples and the endpoint (f, f')."""
    lam = complex(lam)
    vfun = config.potential
    x_end = config.length if direction > 0 else 0.0

    def rhs(x, y):
        return np.array([y[1], (vfun(x) - lam) * y[0]], dtype=complex)

    out, y_end = dp45_integrate(rhs, float(x_start), float(x_end),
                                [f0, df0], config.rtol, config.atol,
                                sample_points)
    return ShootSolution(f_samples=out[:, 0], df_samples=out[:, 1],
                         f_end=complex(y_end[0]), df_end=complex(y_end[1]))


class Shoot1dModel(TripleModel):
    """Interval TripleModel whose kernel solutions come from shooting."""

    def __init__(self, config, panels=8, order=16, fd_nodes=512):
        self.config = config
        # the configuration of T~: V replaced by conj(V)
        self._config_tilde = replace(config,
                                     potential=config.potential.conjugate())
        self.grid = PanelGrid(graded_edges(0.0, config.length, panels), order)
        # the step ends of every integration: the grid nodes, then the jumps of V
        self._stops = np.append(self.grid.nodes, config.potential.breakpoints())
        self._cumint = self.grid.cumint()
        self._d2 = self.grid.diff() @ self.grid.diff()
        self._vnodes = config.potential(self.grid.nodes)
        self._vnodes_conj = np.conjugate(self._vnodes)
        self._shot_cache = {}  # (lam, tilde, kind) -> ShootSolution
        from .model_fd1d import build_fd1d

        self._fd = build_fd1d(fd_nodes, config.length, config.potential)

    # -- structure -----------------------------------------------------

    kind = "shoot1d"

    @property
    def has_potential(self):
        return self._fd.has_potential

    @property
    def boundary_dim(self):
        return 2

    def v_sup_proxy(self):
        return self._fd.v_sup_proxy()

    # -- operator action -------------------------------------------------

    def _apply(self, f, tilde):
        f = np.asarray(f, dtype=complex)
        u = f[:self.grid.size]
        vnodes = self._vnodes_conj if tilde else self._vnodes
        out = np.zeros_like(f)
        out[:self.grid.size] = -(self._d2 @ u) + vnodes * u
        return out

    def trace0(self, f):
        n = self.grid.size
        return np.array([-f[n + 1], f[n + 3]], dtype=complex)

    def trace1(self, f):
        n = self.grid.size
        return np.array([f[n], f[n + 2]], dtype=complex)

    def inner(self, f, g):
        n = self.grid.size
        fg = np.asarray(f)[:n] * np.conjugate(np.asarray(g)[:n])
        return complex(fg @ self.grid.weights)

    # -- kernel machinery ---------------------------------------------------

    def _shot(self, lam, tilde, kind):
        """Memoized one-sided kernel solutions keyed by (lam, tilde, kind)."""
        key = (complex(lam), bool(tilde), kind)
        hit = self._shot_cache.get(key)
        if hit is not None:
            return hit
        cfg = self._config_tilde if tilde else self.config
        if kind == "left10":      # f(0) = 1, f'(0) = 0
            sol = solve_ivp_schrodinger(cfg, lam, 0.0, 1.0, 0.0, +1, self._stops)
        else:                     # right10: f(L) = 1, f'(L) = 0
            sol = solve_ivp_schrodinger(cfg, lam, cfg.length, 1.0, 0.0, -1,
                                        self._stops)
        n = self.grid.size
        if len(self._stops) > n:  # the rows past the nodes are the jumps of V
            sol = replace(sol, f_samples=sol.f_samples[:n],
                          df_samples=sol.df_samples[:n])
        if len(self._shot_cache) >= 96:
            self._shot_cache.clear()
        self._shot_cache[key] = sol
        return sol

    def _assemble(self, sol_values, f0, df0, fL, dfL):
        return np.concatenate([sol_values, [f0, df0, fL, dfL]])

    def _solve_bvp(self, lam, g, tilde):
        g = np.asarray(g, dtype=complex)
        if g.shape != (2,):
            raise ValueError("boundary data must have length 2")
        phi = self._shot(lam, tilde, "left10")    # phi(0) = 1, phi'(0) = 0
        psi = self._shot(lam, tilde, "right10")   # psi(L) = 1, psi'(L) = 0
        # trace0(a phi + b psi) = (-b psi'(0), a phi'(L)), so the Neumann
        # matching is diagonal in this basis. Each trace entry is then one
        # scaled one-sided solution; a left-only basis would instead form
        # the far trace as a difference of exp(sqrt(-lam) L) sized terms
        # and lose it to cancellation for strongly negative lambda.
        for shot in (phi, psi):
            if self._matching_singular(lam, shot.f_end, shot.df_end):
                raise MatchingSingular(
                    f"Neumann shooting data singular at lambda = {lam}"
                )
        a = g[1] / phi.df_end
        b = -g[0] / psi.df_end
        values = a * phi.f_samples + b * psi.f_samples
        f0 = a + b * psi.f_end
        df0 = b * psi.df_end
        fL = a * phi.f_end + b
        dfL = a * phi.df_end
        return self._assemble(values, f0, df0, fL, dfL)

    def _weyl_chunk(self, lams, tilde):
        """Weyl matrices of a chunk of points from the endpoint values of
        the two shots alone,

            M = [[-psi(0) / psi'(0), 1 / phi'(L)],
                 [-1 / psi'(0),      phi(L) / phi'(L)]],

        with the shots of every point stacked into one DOP853 solve per
        side, so that V is evaluated once per stage for the whole chunk.
        The grid nodes stay step ends, as in a shot, so that near a Neumann
        eigenvalue both paths carry errors of the same size and agree on
        the matching guard. A point gets a NaN row where M is not finite or
        the matching guard of ``solve_bvp`` fails (the Neumann spectrum).
        """
        cfg = self._config_tilde if tilde else self.config
        vfun = cfg.potential
        n = len(lams)
        margin = _STACK_TOL_MARGIN * np.sqrt(2 * n)
        rtol = max(cfg.rtol / margin, _RTOL_FLOOR)
        atol = cfg.atol / margin

        def rhs(x, y):  # y = (f for every lambda, then f')
            return np.concatenate([y[n:], (vfun(x) - lams) * y[:n]])

        y0 = np.concatenate([np.ones(n), np.zeros(n)])  # f = 1, f' = 0
        _, left = dp45_integrate(rhs, 0.0, cfg.length, y0, rtol, atol,
                                 self._stops)
        _, right = dp45_integrate(rhs, cfg.length, 0.0, y0, rtol, atol,
                                  self._stops)
        phi, dphi = left[:n], left[n:]    # at x = L
        psi, dpsi = right[:n], right[n:]  # at x = 0
        m = np.stack([-psi / dpsi, 1.0 / dphi, -1.0 / dpsi, phi / dphi],
                     axis=1).reshape(n, 2, 2)
        bad = (~np.isfinite(m).all(axis=(1, 2))
               | self._matching_singular(lams, phi, dphi)
               | self._matching_singular(lams, psi, dpsi))
        m[bad] = np.nan
        return m

    def _neumann_resolvent(self, lam, f, tilde):
        phi_s = self._shot(lam, tilde, "left10")
        psi_s = self._shot(lam, tilde, "right10")
        phi, dphi = phi_s.f_samples, phi_s.df_samples
        psi, dpsi = psi_s.f_samples, psi_s.df_samples
        w = phi[0] * dpsi[0] - dphi[0] * psi[0]  # constant Wronskian
        if self._matching_singular(lam, phi[0] * dpsi[0], w):
            raise MatchingSingular(
                f"Wronskian vanishes at lambda = {lam}: Neumann eigenvalue"
            )
        fv = np.asarray(f, dtype=complex)[:self.grid.size]
        int_left = self._cumint @ (phi * fv)  # int_0^x phi f
        total_psi = (psi * fv) @ self.grid.weights
        total_phi = (phi * fv) @ self.grid.weights
        int_right = total_psi - self._cumint @ (psi * fv)  # int_x^L psi f
        u = -(psi * int_left + phi * int_right) / w
        # boundary values from the same representation; derivative slots are
        # exactly zero because phi'(0) = 0 and psi'(L) = 0
        u0 = -total_psi / w   # phi(0) = 1
        uL = -total_phi / w   # psi(L) = 1
        return self._assemble(u, u0, 0.0, uL, 0.0)

    def _matching_singular(self, lam, f_end, df_end):
        """Whether one-sided Neumann shots at lam ending at (f_end, df_end)
        leave the Neumann matching singular (elementwise for arrays). With
        (phi(0) psi'(0), W) for (f_end, df_end) it tests the Wronskian W."""
        k = np.sqrt(np.maximum(np.real(lam), 0.0)) * self.config.length / np.pi
        tol = _MATCHING_TOL_PER_RTOL * self.config.rtol * np.maximum(1.0, k)
        scale = np.maximum(np.maximum(np.abs(f_end), np.abs(df_end)), 1.0)
        return np.abs(df_end) <= tol * scale

    # -- matrices and certification -----------------------------------------

    def hn_v_blocks(self):
        return self._fd.hn_v_blocks()

    def random_domain_vector(self, rng):
        # smooth synthesis with analytically consistent trace slots
        length = self.config.length
        coeff = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        w = np.pi / length

        def val(t):
            return (coeff[0] + coeff[1] * t + coeff[2] * t**2 + coeff[3] * t**3
                    + coeff[4] * np.cos(w * t) + coeff[5] * np.sin(w * t)
                    + coeff[6] * np.cos(2 * w * t) + coeff[7] * np.sin(2 * w * t))

        def deriv(t):
            return (coeff[1] + 2 * coeff[2] * t + 3 * coeff[3] * t**2
                    - w * coeff[4] * np.sin(w * t) + w * coeff[5] * np.cos(w * t)
                    - 2 * w * coeff[6] * np.sin(2 * w * t)
                    + 2 * w * coeff[7] * np.cos(2 * w * t))

        return self._assemble(val(self.grid.nodes), val(0.0), deriv(0.0),
                              val(length), deriv(length))


def build_shoot1d(config, panels=8, order=16, fd_nodes=512):
    """Continuum interval model for the given shooting configuration."""
    if not isinstance(config, ShootConfig):
        raise TypeError("expected a ShootConfig")
    return Shoot1dModel(config, panels=panels, order=order, fd_nodes=fd_nodes)
