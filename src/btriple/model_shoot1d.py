"""Continuum interval model: kernel solutions by shooting on a fixed mesh.

The Weyl function comes straight from propagating -f'' + (V - lam) f = 0 as
y' = A y, y = (f, f'), A = [[0, 1], [V - lam, 0]], with fourth-order Magnus
steps (Iserles & Norsett, Phil. Trans. R. Soc. A 357, 1999; Blanes, Casas &
Ros, BIT 40, 2000) on a mesh built once per model: the grid nodes, the
singular points of V and the ends, each gap cut into ``substeps`` uniform
sub-steps (one where V is constant: a step is then exact) and the sub-step
next to a singular point into 8 geometric layers of ratio 0.3. A step of
signed length h takes V's exact moments m0 = int V and m1 = int (x - mid) V
along the direction of travel:

    Omega = [[c, h], [m0 - h lam, -c]],  c = -m1,
    exp Omega = cosh mu I + (sinh mu / mu) Omega,  mu^2 = c^2 + h (m0 - h lam).

Each step is scaled by e^-mu (Re mu >= 0) and the complex log-scale is
carried apart, so no state leaves double range at any lam. A chunk of
points propagates as numpy arrays, each gap's sub-steps multiplied pairwise
and then the gaps in order, so one call serves a single point's shot and
the chunk kernel of ``weyl_batch``. Where V is not constant the mesh with
its sub-steps merged in pairs (merged moments are sums) gives the matching
guard a step-doubling error estimate. Carriers hold samples on a composite
Gauss-Legendre grid plus four analytic trace slots:

    [ values at the N panel nodes, f(0), f'(0), f(L), f'(L) ]

The Neumann resolvent is assembled by variation of parameters from the two
one-sided Neumann kernel solutions phi (phi'(0) = 0, shot from the left)
and psi (psi'(L) = 0, from the right), in units where each one's far-end
log-scale is 0: u(x) = -[psi(x) int_0^x phi f + phi(x) int_x^L psi f] / W,
W = phi psi' - phi' psi constant in x, with the grid's spectral cumulative
integration. The free-operator and potential matrices are delegated to an
internal finite-difference model: the factorization and relative-bound
studies are statements about those matrices themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MatchingSingular, NoConvergence
from .grids import PanelGrid, graded_edges
from .potentials import Potential1D
from .triple_core import TripleModel

# |f'| at the far end of a one-sided Neumann shot within this many eps *
# steps * max(1, k) of max(|f|, |f'|, |f(start)|) there, plus the step-
# doubling estimate of its error, means lambda is a Neumann eigenvalue: the
# rounding grows with k = sqrt(max(Re lambda, 0)) L / pi, the oscillations.
_MATCHING_ROUNDING = 100.0

# geometric layers, and their ratio, in the sub-step next to a singular point
_LAYERS, _LAYER_RATIO = 8, 0.3

# sub-steps times points that one block of a propagation holds at once
_STEP_BUDGET = 1 << 14

# |W| below this is past double range for the Neumann resolvent
_W_FLOOR = np.finfo(float).tiny / np.finfo(float).eps

# not called here; the traced benchmark run patches this name (the
# adaptive integrator itself is gone)
dp45_integrate = None


@dataclass(frozen=True)
class ShootConfig:
    """Interval length, potential, and Magnus sub-steps per mesh gap."""

    length: float = 1.0
    potential: Potential1D = None
    substeps: int = 16

    def __post_init__(self):
        if self.length <= 0.0:
            raise ValueError("length must be positive")
        if self.substeps < 2 or self.substeps % 2:
            raise ValueError("substeps must be an even integer >= 2")
        if self.potential is None:
            object.__setattr__(self, "potential", Potential1D.zero())


def _mesh(edges, singular, substeps):
    """Sub-step points of every gap between consecutive edges, (G, K + 1):
    ``substeps`` uniform sub-steps, the one next to a singular point split
    into geometric layers, and zero-length steps padding every gap to K."""
    frac = np.arange(substeps + 1) / substeps
    pts = edges[:-1, None] + np.diff(edges)[:, None] * frac
    pts[:, -1] = edges[1:]
    if singular:
        layers = _LAYER_RATIO ** np.arange(1, _LAYERS + 1)
        pts = np.pad(pts, ((0, 0), (0, _LAYERS)), mode="edge")
        for x0 in singular:  # an edge: the gaps g - 1 and g meet there
            g = np.searchsorted(edges, x0)
            for row, inner in ((g - 1, pts[g - 1, substeps - 1]),
                               (g, pts[g, 1])):
                pts[row] = np.sort(np.append(pts[row, :substeps + 1],
                                             x0 + (inner - x0) * layers))
    return pts


def _steps(w, m0, m1, side, tilde):
    """(c, h, m0, c^2 + h m0) of every sub-step, (G, K) each, as the ``side``
    shot travels, on V (conj V with ``tilde``), from the cells' widths and
    moments in increasing x."""
    if tilde:
        m0, m1 = np.conjugate(m0), np.conjugate(m1)
    if side == "right":
        w, m0, m1 = (-q[::-1, ::-1] for q in (w, m0, m1))
    return -m1, w, m0, m1 * m1 + w * m0


def magnus_propagate(steps, lams):
    """Fourth-order Magnus propagation of y = (f, f') from (1, 0) over the
    sub-steps ``steps`` (from ``_steps``) at every point of lams: the state
    after every gap, scaled, (G, n, 2), and its complex log-scale (G, n)."""
    c, h, m0, base = (q[:, :, None] for q in steps)
    (count, width), n = steps[1].shape, len(lams)
    gaps = np.empty((count, n, 2, 2), dtype=complex)
    logs = np.empty((count, n), dtype=complex)
    per = max(1, _STEP_BUDGET // (width * n))
    for lo in range(0, count, per):
        blk = slice(lo, lo + per)
        mu = np.sqrt(base[blk] - h[blk] ** 2 * lams)
        t = -2.0 * mu
        em = np.expm1(t)
        cosh = 1.0 + 0.5 * em                       # e^-mu cosh mu
        sinhc = np.divide(em, t, out=np.ones_like(em), where=t != 0.0)
        bc = sinhc * c[blk]
        e = np.array([[cosh + bc, sinhc * h[blk]],
                      [sinhc * (m0[blk] - h[blk] * lams), cosh - bc]])
        while mu.shape[1] > 1:  # the gap's sub-steps, multiplied pairwise
            half = mu.shape[1] // 2
            odd, even, rest = (slice(1, 2 * half, 2), slice(0, 2 * half, 2),
                               slice(2 * half, None))
            later, first = e[:, :, None, :, odd], e[None, :, :, :, even]
            e = np.concatenate([(later * first).sum(axis=1), e[:, :, :, rest]],
                               axis=3)
            mu = np.concatenate([mu[:, odd] + mu[:, even], mu[:, rest]], axis=1)
        gaps[blk] = np.moveaxis(e[:, :, :, 0], (0, 1), (2, 3))
        logs[blk] = mu[:, 0]
    states = np.empty((count, n, 2, 1), dtype=complex)
    y = np.zeros((n, 2, 1), dtype=complex)
    y[:, 0] = 1.0
    for g in range(count):
        y = states[g] = gaps[g] @ y
    return states[..., 0], np.cumsum(logs, axis=0)


class Shoot1dModel(TripleModel):
    """Interval TripleModel whose kernel solutions come from shooting."""

    def __init__(self, config, panels=8, order=16, fd_nodes=512):
        self.config = config
        length = float(config.length)
        self.grid = PanelGrid(graded_edges(0.0, length, panels), order)
        # mesh edges: the ends, the nodes, V's singular points inside (0, L)
        singular = [x for x in config.potential.singular_points()
                    if 0.0 < x < length]
        edges = np.unique(np.concatenate([[0.0, length], self.grid.nodes,
                                          singular]))
        at = np.searchsorted(edges, self.grid.nodes)
        self._rows = {"left": at - 1, "right": len(edges) - 2 - at}
        # a step is exact where V is constant: one per gap then suffices
        varies = config.potential.kind != "constant"
        pts = _mesh(edges, singular, int(config.substeps) if varies else 1)
        w = np.diff(pts, axis=1)
        m0, m1 = (np.append(q, 0.0).reshape(len(pts), -1)[:, :-1]
                  for q in config.potential.moments(pts.ravel()))
        self._round = (_MATCHING_ROUNDING * np.finfo(float).eps
                       * np.count_nonzero(w))
        self._mesh = {(side, tilde): _steps(w, m0, m1, side, tilde)
                      for side in ("left", "right") for tilde in (False, True)}
        if varies:
            # the sub-steps merged in pairs, for the step-doubling estimate
            half = 0.5 * w
            m1 = (m1[:, 0::2] + m1[:, 1::2] - half[:, 1::2] * m0[:, 0::2]
                  + half[:, 0::2] * m0[:, 1::2])
            w, m0 = w[:, 0::2] + w[:, 1::2], m0[:, 0::2] + m0[:, 1::2]
            for side, tilde in list(self._mesh):
                self._mesh[side, tilde, "coarse"] = _steps(w, m0, m1, side, tilde)
        self._cumint = self.grid.cumint()
        self._d2 = self.grid.diff() @ self.grid.diff()
        self._vnodes = config.potential(self.grid.nodes)
        self._vnodes_conj = np.conjugate(self._vnodes)
        self._shot_cache = {}  # (lam, tilde) -> _kernel_pair's shots
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

    def _shots(self, lams, tilde, side):
        """The Neumann shots (f = 1, f' = 0 at the ``side`` end) at every
        point of lams, in units where the far-end log-scale is 0: (f, f') at
        the nodes (N, n, 2) and at the far end, f at the start, and whether
        the shot leaves the Neumann matching singular: |f'| at the far end
        within the rounding bound of scale (_MATCHING_ROUNDING) plus the
        step-doubling estimate of its error (none where V is constant)."""
        states, logs = magnus_propagate(self._mesh[side, tilde], lams)
        rows = self._rows[side]
        nodes = states[rows] * np.exp(logs[rows] - logs[-1])[..., None]
        (f, df), start = states[-1].T, np.exp(-logs[-1])
        k = np.sqrt(np.maximum(lams.real, 0.0)) * self.config.length / np.pi
        tol = self._round * np.maximum(1.0, k) * np.maximum(
            np.maximum(np.abs(f), np.abs(df)), np.abs(start))
        if (side, tilde, "coarse") in self._mesh:
            coarse, clogs = magnus_propagate(self._mesh[side, tilde, "coarse"],
                                             lams)
            tol += np.abs(df - coarse[-1, :, 1] * np.exp(clogs[-1] - logs[-1]))
        return nodes, (f, df), start, np.abs(df) <= tol

    def _kernel_pair(self, lam, tilde):
        """The left and right _shots at the one point lam, the node states
        as (f, f') rows, memoized by (lam, tilde); MatchingSingular where
        either leaves the Neumann matching singular."""
        key = (complex(lam), bool(tilde))
        pair = self._shot_cache.get(key)
        if pair is None:
            if len(self._shot_cache) >= 48:
                self._shot_cache.clear()
            pair = self._shot_cache[key] = [
                (nodes[:, 0].T, (f[0], df[0]), start[0], bad[0])
                for nodes, (f, df), start, bad in (
                    self._shots(np.array([key[0]]), tilde, side)
                    for side in ("left", "right"))]
        if pair[0][3] or pair[1][3]:
            raise MatchingSingular(
                f"Neumann shooting data singular at lambda = {lam}")
        return pair

    def _assemble(self, sol_values, f0, df0, fL, dfL):
        return np.concatenate([sol_values, [f0, df0, fL, dfL]])

    def _solve_bvp(self, lam, g, tilde):
        g = np.asarray(g, dtype=complex)
        if g.shape != (2,):
            raise ValueError("boundary data must have length 2")
        left, right = self._kernel_pair(lam, tilde)
        (phi, _), (phi_L, dphi_L), phi_0, _ = left
        (psi, _), (psi_0, dpsi_0), psi_L, _ = right
        # trace0(a phi + b psi) = (-b psi'(0), a phi'(L)): the matching is
        # diagonal, and no trace is a difference of exp(sqrt(-lam) L) terms
        a = g[1] / dphi_L
        b = -g[0] / dpsi_0
        return self._assemble(a * phi + b * psi, a * phi_0 + b * psi_0,
                              b * dpsi_0, a * phi_L + b * psi_L, a * dphi_L)

    def _weyl_chunk(self, lams, tilde):
        """Weyl matrices of a chunk from the shots' end values, M = [[-psi(0),
        phi(0)], [-psi(L), phi(L)]] / (psi'(0), phi'(L)) by column, one call
        per side as for a single point; a NaN row where M is not finite or
        the matching guard of ``solve_bvp`` fails (the Neumann spectrum)."""
        _, (phi, dphi), phi_0, bad_left = self._shots(lams, tilde, "left")
        _, (psi, dpsi), psi_L, bad_right = self._shots(lams, tilde, "right")
        m = np.stack([-psi / dpsi, phi_0 / dphi, -psi_L / dpsi, phi / dphi],
                     axis=1).reshape(len(lams), 2, 2)
        m[~np.isfinite(m).all(axis=(1, 2)) | bad_left | bad_right] = np.nan
        return m

    def _neumann_resolvent(self, lam, f, tilde):
        left, right = self._kernel_pair(lam, tilde)
        (phi, dphi), _, phi_0, _ = left
        (psi, dpsi), _, psi_L, _ = right
        w = phi[0] * dpsi[0] - dphi[0] * psi[0]  # constant Wronskian
        if not abs(w) >= _W_FLOOR:
            raise NoConvergence(f"the Neumann resolvent at lambda = {lam} "
                                "is past double range")
        fv = np.asarray(f, dtype=complex)[:self.grid.size]
        int_left = self._cumint @ (phi * fv)  # int_0^x phi f
        total_psi = (psi * fv) @ self.grid.weights
        total_phi = (phi * fv) @ self.grid.weights
        int_right = total_psi - self._cumint @ (psi * fv)  # int_x^L psi f
        u = -(psi * int_left + phi * int_right) / w
        # boundary values from the same representation; derivative slots are
        # exactly zero because phi'(0) = 0 and psi'(L) = 0
        return self._assemble(u, -phi_0 * total_psi / w, 0.0,
                              -psi_L * total_phi / w, 0.0)

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
