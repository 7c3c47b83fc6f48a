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
of finitely many products, so the identity holds to rounding for arbitrary
complex carriers; tests pin it at 1e-13 relative. The same half-spacing
traces are second-order accurate on smooth functions, which is what lets
the Weyl matrix converge at order 2 even though the edge stencil looks
first-order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ConstraintSingular, InvalidPotential, MatchingSingular
from .potentials import Potential1D
from .triple_core import TripleModel, _bmatrix
# not called here; the traced benchmark run patches the name in this module
from .triple_core import find_xi2  # noqa: F401


_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitter for float64


def _two_prod(a, b):
    """Error-free product transform: (p, e) with p + e == a * b exactly."""
    p = a * b
    ca = _SPLIT * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLIT * b
    bh = cb - (cb - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def _pair_pieces(coef, a, b, re_out, im_out):
    """Exact piece expansion of sum_k coef_k * a_k * conj(b_k).

    coef entries must be powers of two (here only +-1 and +-2), so scaling
    the error-free product pieces stays exact. Appends float64 arrays whose
    total fsum equals the exact real/imaginary parts of the sum.
    """
    ar, ai = np.real(a).astype(float), np.imag(a).astype(float)
    br, bi = np.real(b).astype(float), np.imag(b).astype(float)
    for x, y, out, sgn in ((ar, br, re_out, 1.0), (ai, bi, re_out, 1.0),
                           (ai, br, im_out, 1.0), (ar, bi, im_out, -1.0)):
        p, e = _two_prod(x, y)
        c = coef * sgn
        out.append(np.atleast_1d(c * p))
        out.append(np.atleast_1d(c * e))


def _residual_ok(upper, diag, lower, x, rhs):
    """Whether each solution x of A x = rhs (A's bands as solve_banded takes
    them; all may carry trailing batch axes that broadcast) is finite with
    max |A x - rhs| <= 1e-8 (max |A| max |x| + max |rhs|). The solves do not
    signal near-singularity, so this flags the Neumann spectrum."""
    lhs = diag * x
    lhs[:-1] += upper[1:] * x[1:]
    lhs[1:] += lower[:-1] * x[:-1]
    band_max = np.maximum(np.maximum(np.abs(upper).max(), np.abs(lower).max()),
                          np.abs(diag).max(axis=0))
    scale = band_max * np.abs(x).max(axis=0) + np.abs(rhs).max(axis=0)
    return (np.isfinite(x).all(axis=0)
            & (np.abs(lhs - rhs).max(axis=0) <= 1e-8 * scale))


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

    def green_pairing_defect(self, f, g):
        """(Tf, g) - (f, T~g) - (t1 f, t0 g) + (t0 f, t1 g), evaluated in
        the telescoped flux form of the module docstring.

        Every term of the bracket is coef * f_slot * conj(g_slot) with coef
        in {+-1, +-2} once the 1/h and 1/h^2 scalings are factored out, so
        expanding each product with an error-free transform and running the
        pieces through fsum returns the bracket to a rounding of its true
        (algebraically zero) value. Evaluating the pairing at the operator
        scale instead would bury the identity under eps/h^2 summation noise;
        a consistency test ties this form to apply_T/inner at that coarser
        tolerance. The potential terms cancel cell by cell and enter as
        plain products, bounded by 2 eps ||V|| ||f|| ||g||.
        """
        f = np.asarray(f, dtype=complex)
        g = np.asarray(g, dtype=complex)
        m = self.grid.cells
        h = self.grid.h
        fc, gc = f[1:m + 1], g[1:m + 1]
        c_up = np.ones(m)
        c_up[-1] = 2.0
        c_dn = np.ones(m)
        c_dn[0] = 2.0
        two = np.array([2.0])
        re_p, im_p = [], []
        families = (
            # -(Tf, g) flux part: -sum_j [c+ N+(f) - c- N-(f)] conj(g_j)
            (-c_up, f[2:m + 2], gc), (c_up, fc, gc),
            (c_dn, fc, gc), (-c_dn, f[0:m], gc),
            # +(f, T~g) flux part, conjugation distributed over N(g)
            (c_up, fc, g[2:m + 2]), (-c_up, fc, gc),
            (-c_dn, fc, gc), (c_dn, fc, g[0:m]),
            # +2 f_0 conj(N_1/2(g)) - 2 f_{n-1} conj(N_{m+1/2}(g))
            (two, f[0], g[1]), (-two, f[0], g[0]),
            (-two, f[-1], g[-1]), (two, f[-1], g[m]),
            # -2 N_1/2(f) conj(g_0) + 2 N_{m+1/2}(f) conj(g_{n-1})
            (-two, f[1], g[0]), (two, f[0], g[0]),
            (two, f[-1], g[-1]), (-two, f[m], g[-1]),
        )
        for coef, a, b in families:
            _pair_pieces(coef, a, b, re_p, im_p)
        flux = complex(math.fsum(np.concatenate(re_p).tolist()),
                       math.fsum(np.concatenate(im_p).tolist()))
        dv = (self._v * fc) * np.conjugate(gc) \
            - fc * np.conjugate(self._v_conj * gc)
        vpart = complex(math.fsum(dv.real.tolist()),
                        math.fsum(dv.imag.tolist()))
        return abs(flux / h + vpart * h)

    # -- solves ------------------------------------------------------------

    def _bvp_bands(self, lam, tilde):
        # tridiagonal rows: [trace row; kernel rows; trace row]
        v = self._v_conj if tilde else self._v
        n = self.grid.n
        m = self.grid.cells
        h = self.grid.h
        upper = np.zeros(n, dtype=complex)
        diag = np.zeros(n, dtype=complex)
        lower = np.zeros(n, dtype=complex)
        diag[0] = 2.0 / h
        upper[1] = -2.0 / h
        diag[-1] = 2.0 / h
        lower[-2] = -2.0 / h
        diag[1] = 3.0 / h**2 + v[0] - lam
        upper[2] = -1.0 / h**2
        lower[0] = -2.0 / h**2
        diag[m] = 3.0 / h**2 + v[m - 1] - lam
        lower[m - 1] = -1.0 / h**2
        upper[m + 1] = -2.0 / h**2
        if m > 2:
            diag[2:m] = 2.0 / h**2 + v[1:m - 1] - lam
            upper[3:m + 1] = -1.0 / h**2
            lower[1:m - 1] = -1.0 / h**2
        return np.vstack([upper, diag, lower])

    def _solve_banded(self, bands, rhs, who):
        try:
            sol = sla.solve_banded((1, 1), bands, rhs)
        except (sla.LinAlgError, ValueError) as exc:
            raise MatchingSingular(f"{who}: banded solve failed: {exc}") from exc
        if not np.all(np.isfinite(sol)):
            raise MatchingSingular(f"{who}: banded solve overflowed")
        if not _residual_ok(*bands, sol, rhs):
            raise MatchingSingular(f"{who}: solution residual exceeds 1e-8 of scale; "
                                   "spectral parameter sits on the Neumann spectrum")
        return sol

    def _solve_bvp(self, lam, g, tilde):
        g = np.asarray(g, dtype=complex)
        if g.shape != (2,):
            raise ValueError("boundary data must have length 2")
        rhs = np.zeros(self.grid.n, dtype=complex)
        rhs[0] = g[0]
        rhs[-1] = g[1]
        return self._solve_banded(self._bvp_bands(lam, tilde), rhs,
                                  "solve_bvp_tilde" if tilde else "solve_bvp")

    def _weyl_chunk(self, lams, tilde):
        """Weyl matrices of a chunk of points from one Thomas sweep that
        carries both boundary right-hand sides (the columns of M are the
        boundary values of the solutions with Neumann data e_0 and e_1).
        The sweep does not pivot, so every solution passes the residual
        guard of ``_solve_banded`` (1e-8 of the same scale); a point that
        fails it or overflows, as on the Neumann spectrum, gets a NaN row.
        """
        # arrays are (row, [rhs,] point) so each row step is contiguous
        upper, diag0, lower = self._bvp_bands(0.0, tilde)
        a = lower[:-1, None]  # a[i - 1] = A[i, i - 1]
        c = upper[1:, None]   # c[i] = A[i, i + 1]
        n = self.grid.n
        diag = np.repeat(diag0[:, None], len(lams), axis=1)
        diag[1:-1] -= lams  # kernel rows carry -lambda, trace rows do not
        cp = np.empty((n - 1, len(lams)), dtype=complex)
        x = np.zeros((n, 2, len(lams)), dtype=complex)
        x[0, 0] = 1.0
        x[-1, 1] = 1.0
        pivot = diag[0]
        x[0] /= pivot
        for i in range(1, n):
            cp[i - 1] = c[i - 1] / pivot
            pivot = diag[i] - a[i - 1] * cp[i - 1]
            x[i] -= a[i - 1, :, None] * x[i - 1]
            x[i] /= pivot
        for i in range(n - 2, -1, -1):
            x[i] -= cp[i] * x[i + 1]
        # the residual guard of _solve_banded, per point and right-hand side
        rhs = np.zeros((n, 2, 1))
        rhs[0, 0] = rhs[-1, 1] = 1.0
        good = _residual_ok(upper[:, None, None], diag[:, None],
                            lower[:, None, None], x, rhs).all(axis=0)
        m = np.stack([x[0], x[-1]]).transpose(2, 0, 1)
        m[~good] = np.nan
        return m

    def _neumann_resolvent(self, lam, f, tilde):
        # reduced interior system (hn + v - lam) u_c = f_c; the Neumann
        # condition makes the boundary slots copy the adjacent cells
        bands = self._hn_bands().astype(complex)
        bands[1] += (self._v_conj if tilde else self._v) - lam
        sol = self._solve_banded(bands, np.asarray(f, dtype=complex)[1:-1],
                                 "neumann_resolvent")
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
        return [(self.hn_matrix(), self.v_matrix())]

    def dense_robin(self, b, tilde=False):
        return dense_robin_matrix(self, b, tilde=tilde)

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


def dense_robin_matrix(model, b=None, dirichlet=False, tilde=False):
    """Monolithic reduced matrix of the Robin realization A_B.

    The two boundary slots are eliminated from the constraint
    trace0 f = B trace1 f, which reads (2/h)(b - c_adj) = +-B b in the two
    boundary values b and their adjacent cells c_adj; solving gives
    b = W c_adj with W = (I - (h/2) B)^(-1). Substituting into the edge
    stencil rows leaves an (n-2)-square matrix whose spectrum is the dense
    oracle for the Birman-Schwinger machinery. ``dirichlet`` replaces the
    constraint by b = 0 (the B -> infinity limit). B = 0 reproduces the
    Neumann reduction hn + v exactly. ``tilde`` builds the matrix of the
    adjoint-side realization A~_B, with conj(V) in place of V.
    """
    if not isinstance(model, Fd1dModel):
        raise TypeError("dense_robin_matrix needs an fd1d model")
    m = model.grid.cells
    h = model.grid.h
    v = model.v_matrix()
    a = model.hn_matrix().astype(complex) + (np.conjugate(v) if tilde else v)
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
