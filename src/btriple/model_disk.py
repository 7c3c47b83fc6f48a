"""Unit-disk models, interior and exterior, decomposed into Fourier modes.

Separation of variables turns -laplace + V(r) on the disk into a family of
radial operators, one per angular mode k:

    L_k u = -u'' - u'/r + (k^2/r^2 + V(r)) u        on (0, 1) or (1, R),

acting on the weighted space with inner product int u vbar r dr. The carrier
stacks radial samples of every kept mode (|k| <= k_max) on a composite
Gauss-Legendre grid, followed by two analytic trace slots per mode holding
(f_k(1), f_k'(1)). The boundary carrier is the truncated Fourier basis
{e^{ik theta}}, so boundary vectors are coefficient tuples of length
2 k_max + 1 and the boundary pairing is 2 pi times the coefficient dot
product (the basis is orthogonal, not orthonormal).

Traces: the Dirichlet trace of mode k is f_k(1). The Neumann trace is the
outward normal derivative, which is +d/dr for the interior disk and -d/dr
for the exterior domain, whose outward normal at r = 1 points toward the
origin. The exterior sign is asserted by a dedicated Green-identity test
rather than taken on faith.

Mode solves are spectral collocation on the same panel grid that carries the
samples: the radial equation is enforced at the interior nodes of each
panel, the node rows bordering each panel interface are replaced by
continuity of value and of derivative, and the two remaining end rows carry
the boundary conditions (regularity at r = 0, meaning u'(0) = 0 for mode 0
and u(0) = 0 otherwise; the Neumann derivative at r = 1; a Dirichlet far
end at r_cut for the exterior). Every row touches one panel, or two
neighbouring panels for an interface row, so the matrix is banded with
kl = ku = quad_order: it is built once per model in LAPACK band storage,
and per (lambda, |k|) only the collocation diagonal k^2/r^2 + V - lambda
is added before a banded LU (zgbtrf). That one factorization serves both
the kernel solve and the Neumann resolvent, so the discrete resolvent
identities hold to rounding by construction. Because the collocated
operator is the same one apply_T evaluates, kernel and resolvent outputs
satisfy the strong equation at the grid nodes up to the LU backward error.

For V = 0 the boundary scalars bypass collocation: interior kernels are
c I_k(s r) with s = sqrt(-lam), Re s > 0, and the mode Weyl values are

    interior  m_k = I_k(s) / (s I_k'(s)),
    exterior  m_k = (K_k + rho I_k)(s) / (-s (K_k' + rho I_k')(s)),

with rho = -K_k(s r_cut) / I_k(s r_cut) the Dirichlet truncation weight.
Both are ratios, so they are formed from the exponentially scaled
scipy.special functions ive(k, z) = e^{-|Re z|} I_k(z) and
kve(k, z) = e^{z} K_k(z) (Amos, ACM TOMS 644), with no cap on |lambda|:

    interior  f = ive(k, s),   f' = s ive'(k, s),
    exterior  f = e^{s} (K_k + rho I_k)(s) = kve(k, s) + rho' ive(k, s),
              rho' = -kve(k, s r_cut) / ive(k, s r_cut)
                     * exp(-(s + Re s)(r_cut - 1)),

where rho' underflows to 0 once Re(s)(r_cut - 1) is large. Interior V = 0
kernel samples are ive(k, s r) exp(Re s (r - 1)) = e^{-Re s} I_k(s r), the
same factor f and f' carry, so the normalized kernel is unchanged.

The exterior domain is the truncation at r_cut with a Dirichlet far end;
that truncated operator, not the unbounded-domain one, is what every solve
and identity refers to, and its mode Weyl values differ from the
unbounded-domain ones by O(exp(-2 Re(s) (r_cut - 1))). Kernel samples at
|lambda| beyond the panel resolution (boundary layers thinner than the
first panel) lose accuracy; the boundary scalars stay exact.

Radial potentials are read through an explicit support window away from
r = 0, and the panel edges are aligned with the window endpoints so the
jump in V lands on panel boundaries and every panel sees a smooth
coefficient.

The free/potential matrices live in a different frame: a per-mode
cell-centered flux discretization of L_k, symmetrized by the diag(sqrt(r h))
similarity so that the free part is Hermitian positive semidefinite. Those
blocks drive certification, the sectorial factorization, and the relative
bound studies; they are statements about the matrices themselves.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, eigvalsh
from scipy.linalg.lapack import zgbtrf, zgbtrs
from scipy.optimize import brentq
from scipy.special import ive, jv, jvp, kve

from .errors import (InvalidPotential, MatchingSingular, NoRootInBracket,
                     TruncationWarning)
from .grids import PanelGrid, _bary_weights, graded_edges
from .potentials import Potential1D
from .triple_core import BoundaryOperator, TripleModel

_TWO_PI = 2.0 * np.pi


def _neighbour_orders(k, z):
    """(|k - 1|, k, k + 1) and z as a finite complex number."""
    z = complex(z)
    if k < 0:
        raise ValueError("order must be nonnegative")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("argument must be finite")
    return np.array([abs(k - 1), k, k + 1], dtype=float), z


def bessel_i(k, z):
    """(ive(k, z), scaled I_k'(z)): both carry the factor e^{-|Re z|}, and
    I_k' = (I_{k-1} + I_{k+1}) / 2 with I_{-1} = I_1."""
    lo, mid, hi = ive(*_neighbour_orders(k, z))
    return mid, 0.5 * (lo + hi)


def bessel_k(k, z):
    """(kve(k, z), scaled K_k'(z)) for Re z > 0: both carry the factor e^{z},
    and K_k' = -(K_{k-1} + K_{k+1}) / 2 with K_{-1} = K_1."""
    orders, z = _neighbour_orders(k, z)
    if z.real <= 0.0:
        raise ValueError("K_k requires Re z > 0")
    lo, mid, hi = kve(orders, z)
    return mid, -0.5 * (lo + hi)


def bessel_j(k, x):
    """(J_k(x), J_k'(x)) for integer k >= 0 and real x >= 0."""
    if k < 0:
        raise ValueError("order must be nonnegative")
    if not float(x) >= 0.0:
        raise ValueError("argument must be nonnegative")
    return float(jv(k, x)), float(jvp(k, x))


# The name is kept because the traced benchmark run patches it by name.
def lu_factor(ab, kl, ku):
    """LU with partial pivoting of a complex band matrix (LAPACK zgbtrf).
    ab is in LAPACK band storage: a[i, j] sits at ab[kl + ku + i - j, j],
    and the first kl rows are room for the fill-in of row interchanges.
    Returns (lu, piv, info) as zgbtrf does; U's diagonal is lu[kl + ku]."""
    return zgbtrf(ab, kl, ku, overwrite_ab=True)


@dataclass(frozen=True)
class DiskModelConfig:
    """Side, mode truncation, optional radial potential, and resolutions."""

    side: str = "interior"
    k_max: int = 16
    radial_potential: Potential1D = None
    radial_grid: int = 256
    support: tuple = None
    r_cut: float = 16.0
    quad_panels: int = 16
    quad_order: int = 16

    def __post_init__(self):
        if self.side not in ("interior", "exterior"):
            raise ValueError("side must be 'interior' or 'exterior'")
        if not 1 <= self.k_max <= 64:
            raise ValueError("k_max must lie in [1, 64]")
        if self.radial_grid < 16:
            raise ValueError("radial_grid too coarse")
        if self.side == "exterior" and not self.r_cut > 2.0:
            raise ValueError("exterior truncation radius must exceed 2")
        if self.quad_panels < 2 or self.quad_order < 4:
            raise ValueError("quadrature resolution too coarse")
        if self.radial_potential is None:
            object.__setattr__(self, "radial_potential", Potential1D.zero())
        if not self.radial_potential.is_zero:
            if self.support is None:
                raise InvalidPotential(
                    "radial potentials need an explicit (lo, hi) support window"
                )
            lo, hi = (float(self.support[0]), float(self.support[1]))
            object.__setattr__(self, "support", (lo, hi))
            if self.side == "interior":
                ok = 0.0 < lo < hi <= 1.0
            else:
                ok = 1.0 <= lo < hi <= self.r_cut
            if not ok:
                raise InvalidPotential(
                    f"support window {self.support} invalid for {self.side} side"
                )


def _support_aligned(edges, support):
    """Panel edges with the support endpoints promoted to panel boundaries:
    the nearest edge snaps onto an endpoint when it is already close, and an
    extra edge is inserted otherwise."""
    out = [float(e) for e in np.asarray(edges, dtype=float)]
    for mark in support:
        mark = float(mark)
        if mark <= out[0] or mark >= out[-1]:
            continue
        arr = np.asarray(out)
        j = int(np.argmin(np.abs(arr - mark)))
        gaps = []
        if j > 0:
            gaps.append(arr[j] - arr[j - 1])
        if j < len(out) - 1:
            gaps.append(arr[j + 1] - arr[j])
        if arr[j] == mark:
            continue
        if 0 < j < len(out) - 1 and abs(arr[j] - mark) <= 0.45 * min(gaps):
            out[j] = mark
        else:
            out.append(mark)
            out.sort()
    return np.asarray(out)


class DiskModel(TripleModel):
    """Mode-decomposed TripleModel on the interior or exterior unit disk."""

    def __init__(self, config):
        self.config = config
        kk = config.k_max
        self.mode_numbers = np.arange(-kk, kk + 1)
        if config.side == "interior":
            edges = graded_edges(0.0, 1.0, config.quad_panels)
        else:
            edges = graded_edges(1.0, config.r_cut, config.quad_panels,
                                 ratio=1.3, toward="left")
        self._has_v = not config.radial_potential.is_zero
        if self._has_v:
            edges = _support_aligned(edges, config.support)
        self.grid = PanelGrid(edges, config.quad_order)
        self._r = self.grid.nodes
        self._rw = self.grid.weights * self._r  # weights of int . r dr
        self._d1 = self.grid.diff()
        self._d2 = self._d1 @ self._d1
        self._side = 1.0 if config.side == "interior" else -1.0
        self._vr = self._window_values(self._r)
        self._vr_conj = np.conjugate(self._vr)
        self._cache = {}
        self._blocks = None
        self._threshold = None
        self._build_collocation()

    # -- potential windowing -----------------------------------------------

    def _window_values(self, r):
        if not self._has_v:
            return np.zeros_like(np.asarray(r, dtype=float), dtype=complex)
        lo, hi = self.config.support
        vals = np.asarray(self.config.radial_potential(r), dtype=complex)
        mask = (np.asarray(r) >= lo) & (np.asarray(r) <= hi)
        return np.where(mask, vals, 0.0)

    # -- structure -----------------------------------------------------

    @property
    def _nr(self):
        return self.grid.size

    @property
    def _nm(self):
        return 2 * self.config.k_max + 1

    @property
    def state_dim(self):
        return self._nm * (self._nr + 2)

    @property
    def boundary_dim(self):
        return self._nm

    def interior_values(self, f):
        return np.asarray(f)[:self._nm * self._nr]

    def _values(self, f):
        return np.asarray(f, dtype=complex)[:self._nm * self._nr].reshape(
            self._nm, self._nr)

    def _traces(self, f):
        return np.asarray(f, dtype=complex)[self._nm * self._nr:]

    def _assemble(self, values, traces):
        return np.concatenate([np.asarray(values, dtype=complex).ravel(),
                               np.asarray(traces, dtype=complex)])

    # -- operator action -------------------------------------------------

    def _apply(self, f, vr):
        u = self._values(f)
        r = self._r
        ksq = (self.mode_numbers.astype(float) ** 2)[:, None]
        out = (-(u @ self._d2.T) - (u @ self._d1.T) / r
               + (ksq / r ** 2) * u + vr * u)
        return self._assemble(out, np.zeros(2 * self._nm, dtype=complex))

    def apply_T(self, f):
        return self._apply(f, self._vr)

    def apply_Ttilde(self, g):
        return self._apply(g, self._vr_conj)

    def trace0(self, f):
        return self._side * self._traces(f)[1::2]

    def trace1(self, f):
        return self._traces(f)[0::2]

    def inner(self, f, g):
        fv = self._values(f)
        gv = self._values(g)
        return complex(_TWO_PI * ((fv * gv.conj()) @ self._rw).sum())

    def binner(self, phi, psi):
        return complex(_TWO_PI * np.vdot(np.asarray(psi), np.asarray(phi)))

    # -- collocation machinery ---------------------------------------------

    def _point_row(self, p, t):
        """Row evaluating the panel-p interpolant at the point t."""
        s = self.grid.panel_slice(p)
        x = self._r[s]
        row = np.zeros(self._nr)
        d = t - x
        hit = np.abs(d) < 1e-300
        if hit.any():
            loc = hit.astype(float)
        else:
            c = self._pan_bary[p] / d
            loc = c / c.sum()
        row[s] = loc
        return row

    def _deriv_row(self, p, t):
        """Row evaluating the panel-p interpolant derivative at t."""
        s = self.grid.panel_slice(p)
        row = np.zeros(self._nr)
        row[s] = self._point_row(p, t)[s] @ self._d1[s, s]
        return row

    def _build_collocation(self):
        g = self.grid
        self._pan_bary = [_bary_weights(self._r[g.panel_slice(p)])
                          for p in range(g.panels)]
        n = self._nr
        # -u'' - u'/r, before the diagonal k^2/r^2 + V - lam is added
        base = -self._d2 - self._d1 / self._r[:, None]
        rows = {}  # constrained row index -> row replacing the equation
        for p in range(g.panels - 1):
            e = g.edges[p + 1]
            rows[g.panel_slice(p).stop - 1] = (self._point_row(p, e)
                                               - self._point_row(p + 1, e))
            rows[g.panel_slice(p + 1).start] = (self._deriv_row(p, e)
                                                - self._deriv_row(p + 1, e))
        last = g.panels - 1
        if self.config.side == "interior":
            self._row_u1 = self._point_row(last, 1.0)
            bc_left = (self._deriv_row(0, 0.0), self._point_row(0, 0.0))
            rows[n - 1] = self._deriv_row(last, 1.0)
            self._neumann_idx = n - 1
        else:
            self._row_u1 = self._point_row(0, 1.0)
            bc_left = (self._deriv_row(0, 1.0),) * 2
            rows[n - 1] = self._point_row(last, self.config.r_cut)
            self._neumann_idx = 0
        mask = np.ones(n, dtype=bool)
        mask[[0, *rows]] = False
        self._colloc_mask = mask
        # one template per regularity row min(k, 1); no row reaches past the
        # neighbouring panel, so the band is read off the nonzero pattern
        templates = []
        for left in bc_left:
            a = base.copy()
            for i, row in rows.items():
                a[i] = row
            a[0] = left
            templates.append(a)
        nonzero = [np.nonzero(a) for a in templates]
        i, j = (np.concatenate(ix) for ix in zip(*nonzero))
        kl = self._kl = int(max((i - j).max(), 0))
        ku = self._ku = int(max((j - i).max(), 0))
        self._band_templates = []
        for a, (i, j) in zip(templates, nonzero):
            ab = np.zeros((2 * kl + ku + 1, n), order="F")
            ab[kl + ku + i - j, j] = a[i, j]
            self._band_templates.append(ab)

    def _mode_data(self, lam, tilde):
        key = (complex(lam), bool(tilde))
        data = self._cache.get(key)
        if data is None:
            if len(self._cache) >= 4:
                self._cache.clear()
            data = {}
            self._cache[key] = data
        return data

    def _colloc_lu(self, lam, tilde, k):
        data = self._mode_data(lam, tilde)
        got = data.get(("lu", k))
        if got is not None:
            return got
        lam = complex(lam)
        vr = self._vr_conj if tilde else self._vr
        # the constrained rows keep their template entries on the diagonal
        ab = self._band_templates[min(k, 1)].astype(complex, order="F")
        diag = float(k * k) / self._r ** 2 + vr - lam
        mask = self._colloc_mask
        ab[self._kl + self._ku, mask] += diag[mask]
        lu, piv, info = lu_factor(ab, self._kl, self._ku)
        du = np.abs(lu[self._kl + self._ku])
        if info > 0 or du.min() <= 1e-14 * max(float(du.max()), 1e-300):
            raise MatchingSingular(
                f"mode {k} is Neumann-singular at lambda = {lam}")
        data[("lu", k)] = (lu, piv)
        return lu, piv

    def _colloc_solve(self, lam, tilde, k, f_vals, neumann):
        lu, piv = self._colloc_lu(lam, tilde, k)
        rhs = np.zeros(self._nr, dtype=complex)
        if f_vals is not None:
            rhs[self._colloc_mask] = np.asarray(
                f_vals, dtype=complex)[self._colloc_mask]
        rhs[self._neumann_idx] = neumann
        u, _ = zgbtrs(lu, self._kl, self._ku, rhs, piv)
        if not np.all(np.isfinite(u)):
            raise MatchingSingular(
                f"mode {k} is Neumann-singular at lambda = {lam}")
        return u

    # -- mode solutions ---------------------------------------------------

    def _s_of(self, lam):
        s = np.sqrt(-complex(lam))
        if s == 0.0:
            raise MatchingSingular("lambda = 0 sits on the Neumann band edge")
        if s.real < 0.0 or (s.real == 0.0 and s.imag < 0.0):
            s = -s
        return s

    def _exact_scalars(self, lam, k):
        """Boundary data (f(1), f'(1)) of the V = 0 kernel solution, both
        scaled by one common factor (module docstring)."""
        s = self._s_of(lam)
        ib, ibp = bessel_i(k, s)
        if self.config.side == "interior":
            return ib, s * ibp
        if s.real == 0.0:
            raise MatchingSingular(
                f"exterior K_k data need Re sqrt(-lambda) > 0; lambda = {lam} "
                "lies on [0, inf)")
        kb, kbp = bessel_k(k, s)
        zc = s * self.config.r_cut
        rho = (-bessel_k(k, zc)[0] / bessel_i(k, zc)[0]
               * cmath.exp(-(s + s.real) * (self.config.r_cut - 1.0)))
        return kb + rho * ib, s * (kbp + rho * ibp)

    def _kernel(self, lam, tilde, k, need_values):
        """Kernel-side mode solution, unnormalized: (values_or_None, f(1),
        f'(1)). Interior V = 0 comes from the scaled I_k(s r); everything
        else from the collocation solve with unit Neumann derivative."""
        data = self._mode_data(lam, tilde)
        entry = data.get(("kernel", k))
        if entry is not None and (entry[0] is not None or not need_values):
            return entry
        if not self._has_v and self.config.side == "interior":
            f1, df1 = self._exact_scalars(lam, k)
            vals = None
            if need_values:
                s = self._s_of(lam)
                vals = ive(k, s * self._r) * np.exp(s.real * (self._r - 1.0))
        else:
            vals = self._colloc_solve(lam, tilde, k, None, 1.0)
            f1 = complex(self._row_u1 @ vals)
            df1 = 1.0 + 0.0j
        entry = (vals, complex(f1), complex(df1))
        data[("kernel", k)] = entry
        return entry

    def mode_weyl_values(self, lam, tilde=False):
        """Diagonal of the Weyl matrix in the mode basis. For V = 0 this is
        boundary data alone (exact Bessel scalars, no radial solve); the
        tilde flag is then immaterial since the coefficients are real."""
        kk = self.config.k_max
        by_order = {}
        for k in range(kk + 1):
            if not self._has_v:
                f1, df1 = self._exact_scalars(lam, k)
            else:
                _, f1, df1 = self._kernel(lam, tilde, k, need_values=False)
            denom = self._side * df1
            if abs(denom) <= 1e-300 + 1e-13 * abs(f1):
                raise MatchingSingular(
                    f"mode {k} is Neumann-singular at lambda = {lam}")
            by_order[k] = f1 / denom
        return np.array([by_order[abs(int(k))] for k in self.mode_numbers])

    # -- kernel solves and resolvents ----------------------------------------

    def _solve_bvp(self, lam, g, tilde):
        g = np.asarray(g, dtype=complex)
        if g.shape != (self._nm,):
            raise ValueError(f"boundary data must have length {self._nm}")
        vals = np.zeros((self._nm, self._nr), dtype=complex)
        traces = np.zeros(2 * self._nm, dtype=complex)
        for p in range(self._nm):
            if g[p] == 0.0:
                continue
            k = abs(int(self.mode_numbers[p]))
            w, f1, df1 = self._kernel(lam, tilde, k, need_values=True)
            denom = self._side * df1
            if abs(denom) <= 1e-300 + 1e-13 * abs(f1):
                raise MatchingSingular(
                    f"mode {k} is Neumann-singular at lambda = {lam}")
            c = g[p] / denom
            vals[p] = c * w
            traces[2 * p] = c * f1
            traces[2 * p + 1] = c * df1
        return self._assemble(vals, traces)

    def solve_bvp(self, lam, g):
        return self._solve_bvp(lam, g, tilde=False)

    def solve_bvp_tilde(self, mu, g):
        return self._solve_bvp(mu, g, tilde=True)

    def _neumann_resolvent(self, lam, f, tilde):
        fv = self._values(f)
        vals = np.zeros((self._nm, self._nr), dtype=complex)
        traces = np.zeros(2 * self._nm, dtype=complex)
        for p in range(self._nm):
            if not np.any(fv[p]):
                continue
            k = abs(int(self.mode_numbers[p]))
            u = self._colloc_solve(lam, tilde, k, fv[p], 0.0)
            vals[p] = u
            traces[2 * p] = complex(self._row_u1 @ u)
            traces[2 * p + 1] = 0.0
        return self._assemble(vals, traces)

    def neumann_resolvent(self, lam, f):
        return self._neumann_resolvent(lam, f, tilde=False)

    def neumann_resolvent_tilde(self, mu, f):
        return self._neumann_resolvent(mu, f, tilde=True)

    # -- boundary operators --------------------------------------------------

    def boundary_multiplication(self, coeffs):
        """Boundary operator of multiplication by c(theta) = sum_j c_j
        e^{ij theta}, compressed to the kept modes. ``coeffs`` maps integer
        frequencies j to complex amplitudes. Warns with TruncationWarning
        when the symbol couples kept modes to dropped ones."""
        kk = self.config.k_max
        b = np.zeros((self._nm, self._nm), dtype=complex)
        spill = False
        for j, cj in coeffs.items():
            j = int(j)
            if cj == 0:
                continue
            for q, k_q in enumerate(self.mode_numbers):
                target = k_q + j
                if abs(target) <= kk:
                    b[target + kk, q] += cj
                else:
                    spill = True
        if spill:
            warnings.warn(
                f"multiplication symbol couples modes beyond |k| = {kk}; "
                "the spilled couplings were dropped", TruncationWarning,
                stacklevel=2)
        return BoundaryOperator(matrix=b)

    # -- matrices and certification -----------------------------------------

    def _mode_block(self, k):
        m = self.config.radial_grid
        if self.config.side == "interior":
            lo_edge, hi_edge = 0.0, 1.0
        else:
            lo_edge, hi_edge = 1.0, self.config.r_cut
        h = (hi_edge - lo_edge) / m
        centers = lo_edge + (np.arange(m) + 0.5) * h
        faces = lo_edge + np.arange(m + 1) * h
        hn = np.zeros((m, m))
        # interior faces carry flux face_r/h^2, symmetrized by sqrt(r h)
        for j in range(m - 1):
            c = faces[j + 1] / h ** 2
            hn[j, j] += c / centers[j]
            hn[j + 1, j + 1] += c / centers[j + 1]
            coupling = c / np.sqrt(centers[j] * centers[j + 1])
            hn[j, j + 1] -= coupling
            hn[j + 1, j] -= coupling
        if self.config.side == "interior":
            # face at r = 0 carries zero flux, face at r = 1 is Neumann
            pass
        else:
            # face at r = 1 is Neumann; far end is a Dirichlet truncation
            hn[m - 1, m - 1] += 2.0 * faces[m] / (h ** 2 * centers[m - 1])
        hn = hn + np.diag(float(k * k) / centers ** 2)
        v = np.diag(self._window_values(centers))
        return hn, v

    def hn_v_blocks(self):
        if self._blocks is None:
            self._blocks = [self._mode_block(k)
                            for k in range(self.config.k_max + 1)]
        return [(hn.copy(), v.copy()) for hn, v in self._blocks]

    def hn_matrix(self):
        """Direct sum over all kept modes (duplicating |k| >= 1); intended
        for small truncations, the suites work block-wise instead."""
        blocks = dict(enumerate(self.hn_v_blocks()))
        return block_diag(*[blocks[abs(int(k))][0]
                            for k in self.mode_numbers])

    def v_matrix(self):
        blocks = dict(enumerate(self.hn_v_blocks()))
        return block_diag(*[blocks[abs(int(k))][1]
                            for k in self.mode_numbers])

    def certified_threshold(self):
        if self._threshold is None:
            if not self._has_v:
                self._threshold = -0.5
            else:
                from .triple_core import find_xi2
                from .errors import ThresholdNotFound
                try:
                    xi2 = find_xi2(self)
                except ThresholdNotFound:
                    xi2 = -np.inf
                bottom = min(float(eigvalsh(hn)[0])
                             for hn, _ in self.hn_v_blocks())
                lo, hi = self.config.support
                proxy = self.config.radial_potential.sup_proxy(lo, hi)
                self._threshold = min(xi2, bottom - proxy, -1e-6)
        return self._threshold

    def random_domain_vector(self, rng):
        kk = self.config.k_max
        r = self._r
        vals = np.zeros((self._nm, self._nr), dtype=complex)
        traces = np.zeros(2 * self._nm, dtype=complex)
        if self.config.side == "interior":
            for p, k_signed in enumerate(self.mode_numbers):
                k = abs(int(k_signed))
                c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                vals[p] = r ** k * (c[0] + c[1] * r + c[2] * r ** 2)
                traces[2 * p] = c[0] + c[1] + c[2]
                traces[2 * p + 1] = k * (c[0] + c[1] + c[2]) + c[1] + 2.0 * c[2]
        else:
            rcut = self.config.r_cut
            t = r - 1.0
            w = (rcut - r) / (rcut - 1.0)
            decay = np.exp(-t)
            for p in range(self._nm):
                c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                vals[p] = decay * (c[0] + c[1] * t + c[2] * t ** 2) * w
                traces[2 * p] = c[0]
                traces[2 * p + 1] = -c[0] + c[1] - c[0] / (rcut - 1.0)
        return self._assemble(vals, traces)


def build_disk(config):
    """Interior or exterior unit-disk model for the given configuration."""
    if not isinstance(config, DiskModelConfig):
        raise TypeError("expected a DiskModelConfig")
    return DiskModel(config)


def disk_robin_reference(k, beta):
    """Smallest positive Robin eigenvalue of the V = 0 interior disk for
    Fourier mode k: the first positive root of

        sqrt(lam) J_k'(sqrt(lam)) = beta J_k(sqrt(lam)),

    bracketed by a fixed-step scan in t = sqrt(lam) (step 0.02, first sign
    change) and refined with brentq. The scan stops at t = 8.5 (lam ~ 72),
    past the roots of the modes k <= 4 that the suites compare against; a
    mode whose first root lies beyond it raises NoRootInBracket."""
    k = int(k)
    if k < 0:
        raise ValueError("mode index must be nonnegative")
    beta = float(beta)

    def g(t):
        jv_t, jd_t = bessel_j(k, t)
        return t * jd_t - beta * jv_t

    step = 0.02
    t_max = 8.5
    t_prev = step
    g_prev = g(t_prev)
    t = t_prev + step
    while t <= t_max + 1e-12:
        if g_prev == 0.0:
            return t_prev ** 2
        g_here = g(t)
        if (g_prev < 0.0) != (g_here < 0.0):
            return brentq(g, t_prev, t, xtol=1e-14) ** 2
        t_prev, g_prev = t, g_here
        t += step
    raise NoRootInBracket(
        f"no Robin crossing for mode {k}, beta = {beta:g}, t <= {t_max}")
