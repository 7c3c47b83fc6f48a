"""Continuum interval model: kernel solutions by adaptive ODE shooting.

The Weyl function here comes straight from integrating -f'' + V f = lam f
with scipy's DOP853 (Dormand-Prince 8(5,3), complex state), so it is
independent of any global discretization and remains accurate at the large
|lam| the decay studies need. Every grid node is a step end, and no step cap
applies beyond the error control. Carriers hold samples on a composite
Gauss-Legendre grid plus four analytic trace slots:

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

from .errors import MatchingSingular, StepSizeUnderflow
from .grids import PanelGrid, graded_edges
from .potentials import Potential1D
from .triple_core import TripleModel


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
    with scipy's DOP853 (Dormand-Prince 8(5,3)), one solver per interval
    between consecutive sample points, so every sample is a step end.
    Integrates from x_start to x_end in either direction and returns
    (samples, y_end) where samples[i] is the state at sample_points[i];
    points at or behind the start get the initial state."""
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

    h = None  # the first solver picks its own initial step
    for stop in stops:
        solver = DOP853(rhs, x, y, stop, rtol=rtol, atol=atol,
                        first_step=None if h is None else min(h, abs(stop - x)))
        while solver.status == "running":
            message = solver.step()
        if solver.status == "failed":
            raise StepSizeUnderflow(f"{message} (x = {solver.t:.6g})")
        x, y, h = stop, solver.y, solver.h_abs
        samples[stop] = y

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
        self.grid = PanelGrid(graded_edges(0.0, config.length, panels), order)
        self._cumint = self.grid.cumint()
        self._d2 = self.grid.diff() @ self.grid.diff()
        self._vnodes = config.potential(self.grid.nodes)
        self._vnodes_conj = np.conjugate(self._vnodes)
        self._shot_cache = {}  # (lam, tilde, kind) -> ShootSolution
        from .model_fd1d import build_fd1d

        self._fd = build_fd1d(fd_nodes, config.length, config.potential)

    # -- structure -----------------------------------------------------

    @property
    def state_dim(self):
        return self.grid.size + 4

    @property
    def boundary_dim(self):
        return 2

    def interior_values(self, f):
        return np.asarray(f)[:self.grid.size]

    # -- operator action -------------------------------------------------

    def _apply(self, f, vnodes):
        f = np.asarray(f, dtype=complex)
        u = f[:self.grid.size]
        out = np.zeros_like(f)
        out[:self.grid.size] = -(self._d2 @ u) + vnodes * u
        return out

    def apply_T(self, f):
        return self._apply(f, self._vnodes)

    def apply_Ttilde(self, g):
        return self._apply(g, self._vnodes_conj)

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

    def binner(self, phi, psi):
        return np.vdot(np.asarray(psi), np.asarray(phi))

    # -- kernel machinery ---------------------------------------------------

    def _config_for(self, tilde):
        if not tilde:
            return self.config
        return replace(self.config, potential=self.config.potential.conjugate())

    def _shot(self, lam, tilde, kind):
        """Memoized one-sided kernel solutions keyed by (lam, tilde, kind)."""
        key = (complex(lam), bool(tilde), kind)
        hit = self._shot_cache.get(key)
        if hit is not None:
            return hit
        cfg = self._config_for(tilde)
        if kind == "left10":      # f(0) = 1, f'(0) = 0
            sol = solve_ivp_schrodinger(cfg, lam, 0.0, 1.0, 0.0, +1, self.grid.nodes)
        else:                     # right10: f(L) = 1, f'(L) = 0
            sol = solve_ivp_schrodinger(cfg, lam, cfg.length, 1.0, 0.0, -1,
                                        self.grid.nodes)
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
            scale = max(abs(shot.f_end), abs(shot.df_end), 1.0)
            if abs(shot.df_end) <= 1e-13 * scale:
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

    def solve_bvp(self, lam, g):
        return self._solve_bvp(lam, g, tilde=False)

    def solve_bvp_tilde(self, mu, g):
        return self._solve_bvp(mu, g, tilde=True)

    def _neumann_resolvent(self, lam, f, tilde):
        phi_s = self._shot(lam, tilde, "left10")
        psi_s = self._shot(lam, tilde, "right10")
        phi, dphi = phi_s.f_samples, phi_s.df_samples
        psi, dpsi = psi_s.f_samples, psi_s.df_samples
        w = phi[0] * dpsi[0] - dphi[0] * psi[0]  # constant Wronskian
        if abs(w) <= 1e-13 * max(1.0, abs(phi[0] * dpsi[0])):
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

    def neumann_resolvent(self, lam, f):
        return self._neumann_resolvent(lam, f, tilde=False)

    def neumann_resolvent_tilde(self, mu, f):
        return self._neumann_resolvent(mu, f, tilde=True)

    # -- matrices and certification -----------------------------------------

    def hn_matrix(self):
        return self._fd.hn_matrix()

    def v_matrix(self):
        return self._fd.v_matrix()

    def certified_threshold(self):
        return self._fd.certified_threshold()

    def random_domain_vector(self, rng):
        # smooth synthesis with analytically consistent trace slots
        x = self.grid.nodes
        length = self.config.length
        coeff = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        w = np.pi / length
        values = (coeff[0] + coeff[1] * x + coeff[2] * x**2 + coeff[3] * x**3
                  + coeff[4] * np.cos(w * x) + coeff[5] * np.sin(w * x)
                  + coeff[6] * np.cos(2 * w * x) + coeff[7] * np.sin(2 * w * x))

        def val(t):
            return (coeff[0] + coeff[1] * t + coeff[2] * t**2 + coeff[3] * t**3
                    + coeff[4] * np.cos(w * t) + coeff[5] * np.sin(w * t)
                    + coeff[6] * np.cos(2 * w * t) + coeff[7] * np.sin(2 * w * t))

        def deriv(t):
            return (coeff[1] + 2 * coeff[2] * t + 3 * coeff[3] * t**2
                    - w * coeff[4] * np.sin(w * t) + w * coeff[5] * np.cos(w * t)
                    - 2 * w * coeff[6] * np.sin(2 * w * t)
                    + 2 * w * coeff[7] * np.cos(2 * w * t))

        return self._assemble(values, val(0.0), deriv(0.0), val(length), deriv(length))


def build_shoot1d(config, panels=8, order=16, fd_nodes=512):
    """Continuum interval model for the given shooting configuration."""
    if not isinstance(config, ShootConfig):
        raise TypeError("expected a ShootConfig")
    return Shoot1dModel(config, panels=panels, order=order, fd_nodes=fd_nodes)
