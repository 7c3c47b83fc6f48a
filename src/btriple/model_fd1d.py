"""Finite-difference interval model with an exactly summation-by-parts
boundary treatment.

Carrier layout on [0, L] with n slots and m = n - 2 cells of width
h = L / m:

    index 0        : boundary value at x = 0
    index j = 1..m : cell-centered samples at x_j = (j - 1/2) h
    index n - 1    : boundary value at x = L

The operator acts in flux form. With face fluxes

    F_{j+1/2} = (f_{j+1} - f_j) / h           (interior faces j = 1..m-1)
    F_{1/2}   = (f_1 - f_0) / (h/2)           (boundary face at x = 0)
    F_{m+1/2} = (f_{n-1} - f_m) / (h/2)       (boundary face at x = L)

the action on cell j is (T f)_j = -(F_{j+1/2} - F_{j-1/2}) / h + V_j f_j,
which is the usual 3-point stencil on interior cells and the one-sided rows
(-2 f_0 + 3 f_1 - f_2)/h^2 and (-f_{m-1} + 3 f_m - 2 f_{n-1})/h^2 at the
edges. The half-width h/2 in the boundary fluxes is what the staggered
geometry dictates: the boundary nodes sit at the true endpoints, half a
cell away from the first and last cell centers.

Why the discrete Green identity is EXACT for every pair of carriers: with
(f, g) = h * sum_j f_j conj(g_j) over cells,

    (Tf, g) - (f, T~g)
      = -sum_j [ (F_{j+1/2}(f) - F_{j-1/2}(f)) conj(g_j)
                 - f_j conj(F_{j+1/2}(g) - F_{j-1/2}(g)) ]

(the V terms cancel exactly because T~ carries conj(V) and the products
commute). Abel summation telescopes each sum: interior face contributions
pair up as F_{j+1/2}(f) conj(g_j) - f_j conj(F_{j+1/2}(g)) matched against
the same face seen from cell j+1, and the bracket

    F_{j+1/2}(f) (conj g_j - conj g_{j+1}) - (f_j - f_{j+1}) conj F_{j+1/2}(g)
      = -h F_{j+1/2}(f) conj(F_{j+1/2}(g)) + h F_{j+1/2}(f) conj(F_{j+1/2}(g)) = 0

vanishes identically, so only the two boundary faces survive:

    (Tf, g) - (f, T~g) = F_{1/2}(f) conj(g_1) - f_1 conj(F_{1/2}(g))
                         - F_{m+1/2}(f) conj(g_m) + f_m conj(F_{m+1/2}(g)).

Now substitute g_1 = g_0 + (h/2) F_{1/2}(g) and f_1 = f_0 + (h/2) F_{1/2}(f)
(definitions of the boundary fluxes); the (h/2) cross terms cancel in the
same way, leaving boundary VALUES times boundary FLUXES only:

    (Tf, g) - (f, T~g) = F_{1/2}(f) conj(g_0) - f_0 conj(F_{1/2}(g))
                         - F_{m+1/2}(f) conj(g_{n-1}) + f_{n-1} conj(F_{m+1/2}(g))
                       = (t1 f, t0 g) - (t0 f, t1 g)

with the outward Neumann trace t0 f = (-F_{1/2}(f), +F_{m+1/2}(f)) and the
Dirichlet trace t1 f = (f_0, f_{n-1}). Every step above is a rearrangement
of finitely many products, so the identity holds for arbitrary complex
carriers, to rounding at the operator scale eps ||T||. The same
half-spacing traces are second-order accurate on smooth functions, which
is what lets the Weyl matrix converge at order 2 even though the edge
stencil looks first-order.

Solves. Two tridiagonal systems carry the single-point solves: the n-slot
trace-and-kernel system of ``solve_bvp`` and the reduced cell system
hn + (V - lam) of ``neumann_resolvent``. Each keeps one LAPACK gttrf
factorization per (lam, side), for at most 4 points, and every solve is one
gttrs of its own right-hand side, which gives the bits of solve_banded's
gtsv. The residual guard runs on every solve, against the bands cached with
the factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import zgttrf, zgttrs

from .errors import ConstraintSingular, InvalidPotential, MatchingSingular
from .potentials import Potential1D
from .triple_core import TripleModel, _bmatrix
# not called here; the traced benchmark run patches the name in this module
from .triple_core import find_xi2  # noqa: F401


def _residual_ok(upper, diag, lower, x, rhs, band_max):
    """Whether each finite solution x of A x = rhs (A's bands as
    solve_banded takes them, band_max = max |A|; all may carry trailing
    batch axes that broadcast) has max |A x - rhs| <= 1e-8 (max |A| max |x|
    + max |rhs|). The solves do not signal near-singularity, so this flags
    the Neumann spectrum."""
    lhs = diag * x
    lhs[:-1] += upper[1:] * x[1:]
    lhs[1:] += lower[:-1] * x[:-1]
    scale = band_max * np.abs(x).max(axis=0) + np.abs(rhs).max(axis=0)
    return np.abs(lhs - rhs).max(axis=0) <= 1e-8 * scale


@dataclass(frozen=True)
class FdGrid:
    """Staggered grid: boundary nodes at the endpoints, cells between."""

    n: int
    length: float

    @property
    def cells(self):
        return self.n - 2

    @property
    def h(self):
        return self.length / self.cells

    def cell_edges(self):
        return np.arange(self.cells + 1) * self.h


class Fd1dModel(TripleModel):
    """TripleModel on [0, L] where every structural identity is exact."""

    def __init__(self, grid, potential):
        self.grid = grid
        self.potential = potential
        self._v = potential.cell_averages(grid.cell_edges())
        self._v_conj = self._v.conjugate()
        self._v_proxy = potential.sup_proxy(0.0, grid.length)
        # per side, the bands of solve_bvp's system less lam
        self._bvp_base = {t: self._bvp_bands(t) for t in (False, True)}
        # per system, (lam, tilde) -> _factors' entry
        self._cache = {"bvp": {}, "resolvent": {}}

    # -- structure -----------------------------------------------------

    kind = "fd1d"

    @property
    def has_potential(self):
        return not self.potential.is_zero

    @property
    def boundary_dim(self):
        return 2

    def v_sup_proxy(self):
        return self._v_proxy

    # -- operator action -------------------------------------------------

    def _apply(self, f, tilde):
        f = np.asarray(f, dtype=complex)
        m = self.grid.cells
        h = self.grid.h
        out = np.zeros_like(f)
        c = f[1:m + 1]
        out[2:m] = (-c[:-2] + 2.0 * c[1:-1] - c[2:]) / h**2
        out[1] = (-2.0 * f[0] + 3.0 * f[1] - f[2]) / h**2
        out[m] = (-f[m - 1] + 3.0 * f[m] - 2.0 * f[m + 1]) / h**2
        out[1:m + 1] += (self._v_conj if tilde else self._v) * c
        return out

    def trace0(self, f):
        h2 = 0.5 * self.grid.h
        return np.array([-(f[1] - f[0]) / h2, (f[-1] - f[-2]) / h2])

    def trace1(self, f):
        return np.array([f[0], f[-1]], dtype=complex)

    def inner(self, f, g):
        m = self.grid.cells
        return self.grid.h * np.vdot(np.asarray(g)[1:m + 1], np.asarray(f)[1:m + 1])

    # -- solves ------------------------------------------------------------

    def _bvp_bands(self, tilde):
        # tridiagonal rows: [trace row; kernel rows; trace row], at lam = 0
        m, h = self.grid.cells, self.grid.h
        bands = np.zeros((3, self.grid.n), dtype=complex)
        bands[0, 1], bands[0, 2:m + 1], bands[0, m + 1] = (-2.0 / h, -1.0 / h**2,
                                                           -2.0 / h**2)
        bands[2, 0], bands[2, 1:m], bands[2, m] = (-2.0 / h**2, -1.0 / h**2,
                                                   -2.0 / h)
        bands[1, [0, -1]] = 2.0 / h
        diag = np.full(m, 2.0 / h**2)
        diag[[0, -1]] = 3.0 / h**2
        bands[1, 1:m + 1] = diag + (self._v_conj if tilde else self._v)
        return bands

    def _factors(self, system, lam, tilde):
        """The bands of ``system`` at (lam, tilde), their largest entry and
        their gttrf factors, all read-only and memoized for 4 points per
        system: "bvp", the n-slot system of solve_bvp, or "resolvent", the
        reduced cell system hn + (V - lam) of neumann_resolvent."""
        key = (complex(lam), bool(tilde))
        cache = self._cache[system]
        entry = cache.get(key)
        if entry is None:
            if system == "bvp":
                bands = self._bvp_base[tilde].copy()
                bands[1, 1:-1] -= lam  # trace rows carry no -lambda
            else:
                bands = self._hn_bands().astype(complex)
                bands[1] += (self._v_conj if tilde else self._v) - lam
            np.asarray_chkfinite(bands)  # ValueError unless finite
            *factors, info = zgttrf(bands[2, :-1], bands[1], bands[0, 1:])
            if info > 0:
                raise sla.LinAlgError("singular matrix")
            for a in (bands, *factors):
                a.flags.writeable = False
            if len(cache) >= 4:
                cache.clear()
            entry = cache[key] = (bands, np.abs(bands).max(), factors)
        return entry

    def _solve(self, system, lam, rhs, tilde, who):
        """One gttrs of rhs on the system's factors at (lam, tilde), behind
        the residual guard."""
        try:
            rhs = np.asarray_chkfinite(rhs)
            bands, band_max, factors = self._factors(system, lam, tilde)
        except (sla.LinAlgError, ValueError) as exc:
            raise MatchingSingular(f"{who}: banded solve failed: {exc}") from exc
        sol = zgttrs(*factors, rhs)[0]
        if not np.all(np.isfinite(sol)):
            raise MatchingSingular(f"{who}: banded solve overflowed")
        if not _residual_ok(*bands, sol, rhs, band_max):
            raise MatchingSingular(f"{who}: solution residual exceeds 1e-8 of scale; "
                                   "spectral parameter sits on the Neumann spectrum")
        return sol

    def _solve_bvp(self, lam, g, tilde):
        g = np.asarray(g, dtype=complex)
        if g.shape != (2,):
            raise ValueError("boundary data must have length 2")
        rhs = np.zeros(self.grid.n, dtype=complex)
        rhs[[0, -1]] = g
        return self._solve("bvp", lam, rhs, tilde,
                           "solve_bvp_tilde" if tilde else "solve_bvp")

    def _weyl_chunk(self, lams, tilde):
        """Weyl matrices of a chunk of points from one gtsv solve, the one
        behind ``solve_bvp``, of the points' systems laid end to end with
        both boundary right-hand sides (the columns of M are the boundary
        values of the solutions with Neumann data e_0 and e_1). The band
        couples no two systems, so gtsv eliminates each as it does alone and
        M has the per-point bits. A point that fails the residual guard of
        ``solve_bvp``, as on the Neumann spectrum, gets a NaN row. A zero
        pivot or a solution that is not finite raises MatchingSingular, and
        ``weyl_batch`` goes point by point: the back substitution would
        carry one system's NaNs into every system before it.
        """
        base = self._bvp_base[tilde]
        n, k = self.grid.n, len(lams)
        bands = np.repeat(base[:, None], k, axis=1)
        bands[1, :, 1:-1] -= lams[:, None]  # trace rows carry no -lambda
        rhs = np.zeros((n, 2), dtype=complex)
        rhs[0, 0] = rhs[-1, 1] = 1.0
        try:
            x = sla.solve_banded((1, 1), bands.reshape(3, k * n),
                                 np.tile(rhs, (k, 1)), check_finite=False)
        except sla.LinAlgError as exc:
            raise MatchingSingular(f"weyl chunk: {exc}") from exc
        if not np.all(np.isfinite(x)):
            raise MatchingSingular("weyl chunk: a solution is not finite")
        # the guard runs on contiguous (row, rhs, point) arrays
        x = x.reshape(k, n, 2).transpose(1, 2, 0).copy()
        band_max = np.maximum(np.abs(base[[0, 2]]).max(),
                              np.abs(bands[1]).max(axis=1))
        good = _residual_ok(base[0, :, None, None], bands[1].T[:, None],
                            base[2, :, None, None], x, rhs[:, :, None],
                            band_max).all(axis=0)
        m = np.stack([x[0], x[-1]]).transpose(2, 0, 1)
        m[~good] = np.nan
        return m

    def _neumann_resolvent(self, lam, f, tilde):
        # reduced interior system (hn + v - lam) u_c = f_c; the Neumann
        # condition makes the boundary slots copy the adjacent cells
        sol = self._solve("resolvent", lam, np.asarray(f, dtype=complex)[1:-1],
                          tilde, "neumann_resolvent")
        return np.concatenate(([sol[0]], sol, [sol[-1]]))

    # -- matrices and certification -----------------------------------------

    def _hn_bands(self):
        """H_N, the reduced Neumann matrix on the cells, in solve_banded
        layout: the 3-point stencil with 1/h^2 on the two edge cells."""
        h2 = self.grid.h ** 2
        bands = np.zeros((3, self.grid.cells))
        bands[0, 1:] = bands[2, :-1] = -1.0 / h2
        bands[1] = 2.0 / h2
        bands[1, [0, -1]] = 1.0 / h2
        return bands

    def hn_matrix(self):
        upper, diag, lower = self._hn_bands()
        return np.diag(diag) + np.diag(upper[1:], 1) + np.diag(lower[:-1], -1)

    def v_matrix(self):
        return np.diag(self._v)

    def hn_v_blocks(self):
        return [(self._hn_bands(), self._v)]

    def dense_robin(self, b):
        return dense_robin_matrix(self, b)

    def random_domain_vector(self, rng):
        # Green's identity is exact for every carrier, so iid noise is the
        # harshest legitimate draw here
        n = self.grid.n
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def build_fd1d(n, length=1.0, potential=None):
    """Interval model on [0, length] with n carrier slots (n - 2 cells)."""
    if n < 16:
        raise ValueError(f"need n >= 16, got {n}")
    if length <= 0.0:
        raise ValueError("length must be positive")
    if potential is None:
        potential = Potential1D.zero()
    if potential.kind == "power":
        x0 = potential.params["x0"]
        if not (0.0 < x0 < length):
            raise InvalidPotential(f"singularity x0 = {x0} outside (0, {length})")
    return Fd1dModel(FdGrid(n=n, length=length), potential)


def dense_robin_matrix(model, b=None, dirichlet=False):
    """Monolithic reduced matrix of the Robin realization A_B.

    The two boundary slots are eliminated from the constraint
    trace0 f = B trace1 f, which reads (2/h)(b - c_adj) = +-B b in the two
    boundary values b and their adjacent cells c_adj; solving gives
    b = W c_adj with W = (I - (h/2) B)^(-1). Substituting into the edge
    stencil rows leaves an (n-2)-square matrix whose spectrum is the dense
    oracle for the Birman-Schwinger machinery. ``dirichlet`` replaces the
    constraint by b = 0 (the B -> infinity limit). B = 0 reproduces the
    Neumann reduction hn + v exactly.
    """
    if not isinstance(model, Fd1dModel):
        raise TypeError("dense_robin_matrix needs an fd1d model")
    m = model.grid.cells
    h = model.grid.h
    a = model.hn_matrix().astype(complex) + model.v_matrix()
    if dirichlet:
        # b = 0: the edge stencil keeps its 3/h^2 diagonal
        a[0, 0] += 2.0 / h**2
        a[-1, -1] += 2.0 / h**2
        return a
    bm = np.zeros((2, 2), dtype=complex) if b is None else _bmatrix(b, 2)
    elim = np.eye(2, dtype=complex) - 0.5 * h * bm
    sigma = np.abs(sla.svdvals(elim)).min()
    if sigma <= 1e-12 * max(1.0, np.abs(elim).max()):
        raise ConstraintSingular(
            f"I - (h/2) B is singular (sigma_min = {sigma:.3e}); the Robin "
            "constraint cannot be eliminated on this grid"
        )
    w = np.linalg.inv(elim)
    # edge rows: (-2 b + 3 c - c')/h^2 with b = W c_adj; subtracting the
    # Neumann reduction (b = c_adj) leaves the correction -2 (W - I)/h^2
    corr = -2.0 * (w - np.eye(2)) / h**2
    a[0, 0] += corr[0, 0]
    a[0, m - 1] += corr[0, 1]
    a[m - 1, 0] += corr[1, 0]
    a[m - 1, m - 1] += corr[1, 1]
    return a
