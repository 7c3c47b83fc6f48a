"""Continuum interval model: kernel solutions by adaptive ODE shooting.

The Weyl function here comes straight from integrating -f'' + V f = lam f
with scipy's DOP853 (Dormand-Prince 8(5,3), complex state), so it is
independent of any global discretization and remains accurate at the large
|lam| the decay studies need. Every integration runs one DOP853 solver
from one end of the interval to the other through that side's stops, built
once per model: the grid nodes and the jumps of V inside (0, L) (the window
edges around a power singularity) in the order the solver meets them, then
the far end. Each stop is a step end; no step cap applies beyond the error
control. The same routine runs a single point's shot, with a scalar
right-hand side, and the chunk kernel of ``weyl_batch``, which needs only
the endpoint values and so integrates the shots of a whole chunk of
spectral points as one stacked system per side. Carriers hold samples on
a composite Gauss-Legendre grid plus four analytic trace slots:

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

from dataclasses import dataclass

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


# The name is kept because the traced benchmark run patches it by name and
# wraps its first argument, the right-hand side.
def dp45_integrate(rhs, x_start, stops, y0, rtol, atol):
    """Adaptive integration of y' = rhs(x, y) for a complex state vector
    with scipy's DOP853 (Dormand-Prince 8(5,3)) from x_start through the
    ``stops`` in the order given, in either direction; the last stop ends
    the integration. One solver runs the whole integration and is
    re-targeted at each stop in turn, so every stop is a step end; each
    re-targeted leg starts with the step a fresh solver would take there,
    so the results equal those of one solver per interval bit for bit.
    Returns the state at every stop, one row each."""
    # imported here so that runs without a shoot1d model never load it
    from scipy.integrate import DOP853

    x, y = float(x_start), np.asarray(y0, dtype=complex)
    states = np.empty((len(stops), y.size), dtype=complex)
    solver = None
    # one context per integration, not per leg; past double range the
    # solver would step on through inf and NaN and fail on its step size
    try:
        with np.errstate(over="raise"):
            for i, stop in enumerate(stops):
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
                x, states[i] = stop, solver.y
    except FloatingPointError as exc:
        raise NoConvergence(f"the state left double range ({exc}) near x = "
                            f"{x if solver is None else solver.t:.6g}") from exc
    return states


class Shoot1dModel(TripleModel):
    """Interval TripleModel whose kernel solutions come from shooting."""

    def __init__(self, config, panels=8, order=16, fd_nodes=512):
        self.config = config
        self._potential_conj = config.potential.conjugate()  # V of T~
        length = float(config.length)
        self.grid = PanelGrid(graded_edges(0.0, config.length, panels), order)
        # each side's step ends in the order its shots meet them: the grid
        # nodes and the jumps of V strictly inside (0, L) (one at or past an
        # end would turn the solver back), then the far end; with the rows
        # of those stops that hold the nodes, in node order
        inner = sorted(set(self.grid.nodes.tolist()).union(
            x for x in config.potential.breakpoints() if 0.0 < x < length))
        rows = np.searchsorted(inner, self.grid.nodes)
        self._sides = {
            "left": (0.0, inner + [length], rows),
            "right": (length, inner[::-1] + [0.0], len(inner) - 1 - rows),
        }
        self._cumint = self.grid.cumint()
        self._d2 = self.grid.diff() @ self.grid.diff()
        self._vnodes = config.potential(self.grid.nodes)
        self._vnodes_conj = np.conjugate(self._vnodes)
        self._shot_cache = {}  # (lam, tilde, side) -> (node states, end state)
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

    def _integrate(self, rhs, y0, side, rtol, atol):
        """One integration from the ``side`` end ("left" from 0, "right"
        from L) through that side's stops: the states at the grid nodes,
        in node order, and the state at the far end."""
        x_start, stops, rows = self._sides[side]
        states = dp45_integrate(rhs, x_start, stops, y0, rtol, atol)
        return states[rows], states[-1].copy()  # no view keeps states alive

    def _shot(self, lam, tilde, side):
        """The one-sided Neumann kernel solution with f = 1, f' = 0 at the
        ``side`` end: ((f, f') at the nodes, (f, f') at the far end),
        memoized by (lam, tilde, side)."""
        lam = complex(lam)
        key = (lam, bool(tilde), side)
        hit = self._shot_cache.get(key)
        if hit is not None:
            return hit
        vfun = self._potential_conj if tilde else self.config.potential

        def rhs(x, y):
            return np.array([y[1], (vfun(x) - lam) * y[0]], dtype=complex)

        nodes, end = self._integrate(rhs, [1.0, 0.0], side, self.config.rtol,
                                     self.config.atol)
        if len(self._shot_cache) >= 96:
            self._shot_cache.clear()
        self._shot_cache[key] = shot = (nodes.T, end)
        return shot

    def _assemble(self, sol_values, f0, df0, fL, dfL):
        return np.concatenate([sol_values, [f0, df0, fL, dfL]])

    def _solve_bvp(self, lam, g, tilde):
        g = np.asarray(g, dtype=complex)
        if g.shape != (2,):
            raise ValueError("boundary data must have length 2")
        (phi, _), (phi_L, dphi_L) = self._shot(lam, tilde, "left")
        (psi, _), (psi_0, dpsi_0) = self._shot(lam, tilde, "right")
        # phi(0) = 1, phi'(0) = 0 and psi(L) = 1, psi'(L) = 0, so
        # trace0(a phi + b psi) = (-b psi'(0), a phi'(L)) and the Neumann
        # matching is diagonal in this basis. Each trace entry is then one
        # scaled one-sided solution; a left-only basis would instead form
        # the far trace as a difference of exp(sqrt(-lam) L) sized terms
        # and lose it to cancellation for strongly negative lambda.
        for f_end, df_end in ((phi_L, dphi_L), (psi_0, dpsi_0)):
            if self._matching_singular(lam, f_end, df_end):
                raise MatchingSingular(
                    f"Neumann shooting data singular at lambda = {lam}"
                )
        a = g[1] / dphi_L
        b = -g[0] / dpsi_0
        values = a * phi + b * psi
        f0 = a + b * psi_0
        df0 = b * dpsi_0
        fL = a * phi_L + b
        dfL = a * dphi_L
        return self._assemble(values, f0, df0, fL, dfL)

    def _weyl_chunk(self, lams, tilde):
        """Weyl matrices of a chunk of points from the endpoint values of
        the two shots alone,

            M = [[-psi(0) / psi'(0), 1 / phi'(L)],
                 [-1 / psi'(0),      phi(L) / phi'(L)]],

        with the shots of every point stacked into one DOP853 solve per
        side, so that V is evaluated once per stage for the whole chunk.
        It runs through the stops of a shot, the grid nodes among them, so
        that near a Neumann eigenvalue both paths carry errors of the same
        size and agree on the matching guard. A point gets a NaN row where
        M is not finite or the matching guard of ``solve_bvp`` fails (the
        Neumann spectrum).
        """
        vfun = self._potential_conj if tilde else self.config.potential
        n = len(lams)
        margin = _STACK_TOL_MARGIN * np.sqrt(2 * n)
        rtol = max(self.config.rtol / margin, _RTOL_FLOOR)
        atol = self.config.atol / margin

        def rhs(x, y):  # y = (f for every lambda, then f')
            return np.concatenate([y[n:], (vfun(x) - lams) * y[:n]])

        y0 = np.concatenate([np.ones(n), np.zeros(n)])  # f = 1, f' = 0
        _, left = self._integrate(rhs, y0, "left", rtol, atol)
        _, right = self._integrate(rhs, y0, "right", rtol, atol)
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
        (phi, dphi), _ = self._shot(lam, tilde, "left")
        (psi, dpsi), _ = self._shot(lam, tilde, "right")
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
