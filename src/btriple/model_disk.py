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
is added before a banded LU (zgbtrf). On every disk, V = 0 included, that
one factorization serves both the kernel solve and the Neumann resolvent,
so the discrete resolvent identities hold to rounding by construction.
Because the collocated operator is the same one apply_T evaluates, kernel
and resolvent outputs satisfy the strong equation at the grid nodes up to
the LU backward error.

For V = 0 the Weyl values bypass collocation: with s = sqrt(-lam),
Re s >= 0 and s != 0, the mode Weyl values are

    interior  m_k = I_k(s) / (s I_k'(s)),
    exterior  m_k = (K_k + rho I_k)(s) / (-s (K_k' + rho I_k')(s)),

with rho = -K_k(s r_cut) / I_k(s r_cut) the Dirichlet truncation weight.
Both are ratios, so they are formed from the exponentially scaled
scipy.special functions ive(k, z) = e^{-|Re z|} I_k(z) and
kve(k, z) = e^{z} K_k(z) (Amos, ACM TOMS 644), which hold up to |z| = 2^30:

    interior  f = ive(k, s),   f' = s ive'(k, s),
    exterior  f = e^{s} (K_k + rho I_k)(s) = kve(k, s) + rho' ive(k, s),
              rho' = -kve(k, s r_cut) / ive(k, s r_cut)
                     * exp(-(s + Re s)(r_cut - 1)),

where rho' underflows to 0 once Re(s)(r_cut - 1) is large, and is taken
as 0 there even where s r_cut is past 2^30. Past |s| = 2^30 the Bessel data
are NaN, and mode_weyl_values raises NoConvergence.

The exterior domain is the truncation at r_cut with a Dirichlet far end;
that truncated operator, not the unbounded-domain one, is what every solve
and identity refers to, and its mode Weyl values differ from the
unbounded-domain ones by O(exp(-2 Re(s) (r_cut - 1))). On every disk,
kernel samples at |lambda| beyond the panel resolution (boundary layers
thinner than the first panel) lose accuracy; the V = 0 Weyl values stay
exact.

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

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgbtrf, zgbtrs
from scipy.special import ive, jv, jvp, kve

from .errors import (InvalidPotential, MatchingSingular, NoConvergence,
                     NoRootInBracket, TruncationWarning)
from .grids import PanelGrid, _bary_weights, graded_edges
from .potentials import Potential1D
from .triple_core import BoundaryOperator, TripleModel

_TWO_PI = 2.0 * np.pi

# offsets of the orders k - 1, k, k + 1 that a Bessel derivative needs
_NEIGHBOURS = np.array([-1.0, 0.0, 1.0])


def _neighbour_orders(k, z):
    """(|k - 1|, k, k + 1) stacked on a new leading axis and shaped to
    broadcast against z, and z as a finite complex array."""
    k = np.asarray(k, dtype=float)
    z = np.asarray(z, dtype=complex)
    if k.min() < 0.0:
        raise ValueError("order must be nonnegative")
    if not np.isfinite(z).all():
        raise ValueError("argument must be finite")
    shape = (3,) + (1,) * max(z.ndim, k.ndim)
    return np.abs(k + _NEIGHBOURS.reshape(shape)), z


def _by_distinct_order(fn, orders, z):
    """fn(orders, z) for fn = ive or kve, with one evaluation per distinct
    order and point: the orders of neighbouring k overlap, so fn runs once
    on the distinct orders against the whole of z and the result is
    gathered from that table. The values are the ones fn(orders, z) gives.
    A single point takes fn(orders, z) itself: the table's set-up costs
    more than the few repeated orders it saves there."""
    if z.size == 1:
        return fn(orders, z)
    distinct, index = np.unique(orders, return_inverse=True)
    table = fn(distinct.reshape((-1,) + (1,) * (orders.ndim - 1)), z)
    return np.take_along_axis(table, index.reshape(orders.shape), axis=0)


def bessel_i(k, z):
    """(ive(k, z), scaled I_k'(z)): both carry the factor e^{-|Re z|}, and
    I_k' = (I_{k-1} + I_{k+1}) / 2 with I_{-1} = I_1. k and z may be
    arrays that broadcast."""
    lo, mid, hi = _by_distinct_order(ive, *_neighbour_orders(k, z))
    return mid, 0.5 * (lo + hi)


def bessel_k(k, z):
    """(kve(k, z), scaled K_k'(z)) for Re z >= 0, z != 0 (kve is finite on
    the imaginary axis): both carry the factor e^{z}, and K_k' =
    -(K_{k-1} + K_{k+1}) / 2 with K_{-1} = K_1. k and z may be arrays that
    broadcast."""
    orders, z = _neighbour_orders(k, z)
    if (z.real < 0.0).any() or (z == 0.0).any():
        raise ValueError("K_k requires Re z >= 0 and z != 0")
    lo, mid, hi = _by_distinct_order(kve, orders, z)
    return mid, -0.5 * (lo + hi)


def bessel_j(k, x):
    """(J_k(x), J_k'(x)) for integer k >= 0 and real x >= 0."""
    if k < 0:
        raise ValueError("order must be nonnegative")
    if not float(x) >= 0.0:
        raise ValueError("argument must be nonnegative")
    return float(jv(k, x)), float(jvp(k, x))


def _neumann_singular(f1, denom):
    """Whether the Neumann datum denom of a kernel with Dirichlet value f1
    is too small to divide by: lambda is a Neumann eigenvalue of the mode
    (elementwise for arrays)."""
    return np.abs(denom) <= 1e-300 + 1e-13 * np.abs(f1)


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
        self._build_collocation()
        self._blocks = [self._mode_block(k) for k in range(kk + 1)]

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
    def kind(self):
        return f"disk-{self.config.side}"

    @property
    def has_potential(self):
        return self._has_v

    def v_sup_proxy(self):
        if not self._has_v:
            return 0.0
        lo, hi = self.config.support
        return self.config.radial_potential.sup_proxy(lo, hi)

    @property
    def boundary_dim(self):
        return self._nm

    def _values(self, f):
        return np.asarray(f, dtype=complex)[:self._nm * self._nr].reshape(
            self._nm, self._nr)

    def _traces(self, f):
        return np.asarray(f, dtype=complex)[self._nm * self._nr:]

    def _assemble(self, values, traces):
        return np.concatenate([np.asarray(values, dtype=complex).ravel(),
                               np.asarray(traces, dtype=complex)])

    # -- operator action -------------------------------------------------

    def _apply(self, f, tilde):
        u = self._values(f)
        vr = self._vr_conj if tilde else self._vr
        r = self._r
        ksq = (self.mode_numbers.astype(float) ** 2)[:, None]
        # u @ d.T's bits, without casting the real d to complex
        parts = np.ascontiguousarray(u.T).view(float)
        d2u, d1u = ((d @ parts).view(complex).T for d in (self._d2, self._d1))
        out = -d2u - d1u / r + (ksq / r ** 2) * u + vr * u
        return self._assemble(out, np.zeros(2 * self._nm, dtype=complex))

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
        point = (complex(lam), bool(tilde))
        data = self._cache.get(point)
        if data is None:
            if len(self._cache) >= 4:
                self._cache.clear()
            data = self._cache[point] = {}
        return data

    def _colloc_lu(self, lam, tilde, k):
        data = self._mode_data(lam, tilde)
        got = data.get(("lu", k))
        if got is not None:
            return got
        lam = complex(lam)
        vr = self._vr_conj if tilde else self._vr
        # the constrained rows keep their template entries on the diagonal
        ab = self._band_templates[min(k, 1)].astype(complex)
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
        rhs = np.zeros(self._nr, dtype=complex)
        if f_vals is not None:
            rhs[self._colloc_mask] = np.asarray(
                f_vals, dtype=complex)[self._colloc_mask]
        rhs[self._neumann_idx] = neumann
        lu, piv = self._colloc_lu(lam, tilde, k)
        u, _ = zgbtrs(lu, self._kl, self._ku, rhs, piv)
        if not np.all(np.isfinite(u)):
            raise MatchingSingular(
                f"mode {k} is Neumann-singular at lambda = {lam}")
        return u

    # -- mode solutions ---------------------------------------------------

    def _s_of(self, lam):
        """s = sqrt(-lambda) with Re s > 0, or Re s = 0 and Im s >= 0, at
        lam (a scalar or an array)."""
        # 0j - lam turns a -0.0 imaginary part into +0.0, so the principal
        # root lands on +i sqrt(lam) for real lam >= 0
        return np.sqrt(0j - np.asarray(lam, dtype=complex))

    def _exact_scalars(self, s, k):
        """Boundary data (f(1), f'(1)) of the V = 0 kernel solution of mode
        k, both scaled by one common factor (module docstring), at s from
        _s_of, nonzero. k and s may be arrays that broadcast."""
        ib, ibp = bessel_i(k, s)
        if self.config.side == "interior":
            return ib, s * ibp
        kb, kbp = bessel_k(k, s)
        zc = s * self.config.r_cut
        weight = np.exp(-(s + s.real) * (self.config.r_cut - 1.0))
        # past |zc| = 2^30 kve and ive give NaN, but by then weight is 0
        with np.errstate(invalid="ignore"):
            rho = -bessel_k(k, zc)[0] / bessel_i(k, zc)[0] * weight
        rho = np.where(weight == 0.0, 0.0, rho)
        return kb + rho * ib, s * (kbp + rho * ibp)

    def _exact_weyl(self, lams):
        """V = 0 mode Weyl values m_k, k = 0..k_max, at every point of the
        1-D array lams as an (N, k_max + 1) array, and an (N,) mask of the
        points whose Bessel data are not finite (|s| past the 2^30 that
        scipy's ive and kve reach). An entry is NaN where
        mode_weyl_values raises: lambda = 0 or not finite, Bessel data that
        are not finite, or a mode that _neumann_singular flags. On (0, inf)
        s is imaginary, where ive and kve are finite, so both sides are
        evaluated there too."""
        s = self._s_of(lams)
        ok = np.isfinite(s) & (s != 0.0)
        out = np.full((len(s), self.config.k_max + 1), np.nan, dtype=complex)
        lost = np.zeros(len(s), dtype=bool)
        f1, df1 = self._exact_scalars(
            s[ok], np.arange(self.config.k_max + 1)[:, None])
        denom = self._side * df1
        finite = np.isfinite(f1) & np.isfinite(denom)
        lost[ok] = ~finite.all(axis=0)
        out[ok] = np.divide(f1, denom, out=np.full_like(f1, np.nan),
                            where=finite & ~_neumann_singular(f1, denom)).T
        return out, lost

    def _kernel(self, lam, tilde, k):
        """Kernel-side mode solution of the collocation solve with unit
        Neumann derivative f'(1) = 1: (samples, f(1)). MatchingSingular
        where f(1) is too large for that datum (a Neumann eigenvalue)."""
        data = self._mode_data(lam, tilde)
        entry = data.get(("kernel", k))
        if entry is None:
            vals = self._colloc_solve(lam, tilde, k, None, 1.0)
            f1 = complex(self._row_u1 @ vals)
            if _neumann_singular(f1, 1.0):
                raise MatchingSingular(
                    f"mode {k} is Neumann-singular at lambda = {lam}")
            entry = data[("kernel", k)] = (vals, f1)
        return entry

    def mode_weyl_values(self, lam, tilde=False):
        """Diagonal of the Weyl matrix in the mode basis. For V = 0 this is
        boundary data alone (exact Bessel scalars, no radial solve), the
        closed form that weyl_batch evaluates over a chunk of points; the
        tilde flag is then immaterial since the coefficients are real."""
        if not self._has_v:
            by_order, lost = self._exact_weyl(np.array([lam], dtype=complex))
            if lost[0]:
                raise NoConvergence(
                    f"Bessel data are not finite at lambda = {lam}")
            by_order = by_order[0]
            singular = np.flatnonzero(np.isnan(by_order))
            if singular.size:
                raise MatchingSingular(
                    f"mode {singular[0]} is Neumann-singular at lambda = {lam}")
            return by_order[np.abs(self.mode_numbers)]
        by_order = [self._kernel(lam, tilde, k)[1] / self._side
                    for k in range(self.config.k_max + 1)]
        return np.array([by_order[abs(int(k))] for k in self.mode_numbers])

    @property
    def _weyl_chunk(self):
        """For V = 0, the closed form of mode_weyl_values over a chunk of
        points, with an all-NaN row where that raises; None with a
        potential, which leaves weyl_batch to the per-point loop."""
        if self._has_v:
            return None

        def chunk(lams, tilde):
            by_order, _ = self._exact_weyl(lams)
            diag = np.arange(self._nm)
            out = np.zeros((len(lams), self._nm, self._nm), dtype=complex)
            out[:, diag, diag] = by_order[:, np.abs(self.mode_numbers)]
            out[np.isnan(by_order).any(axis=1)] = np.nan
            return out
        return chunk

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
            w, f1 = self._kernel(lam, tilde, k)
            c = g[p] / self._side
            vals[p] = c * w
            traces[2 * p] = c * f1
            traces[2 * p + 1] = c
        return self._assemble(vals, traces)

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

    @property
    def reference_robin_eigs(self):
        """beta -> disk_robin_reference(k, beta) for |k| <= min(4, k_max) on
        the V = 0 interior disk; None on the other disks."""
        if self._has_v or self.config.side != "interior":
            return None
        modes = range(min(4, self.config.k_max) + 1)
        return lambda beta: [disk_robin_reference(k, beta) for k in modes]

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
        lo_edge, hi_edge = ((0.0, 1.0) if self.config.side == "interior"
                            else (1.0, self.config.r_cut))
        h = (hi_edge - lo_edge) / m
        centers = lo_edge + (np.arange(m) + 0.5) * h
        faces = lo_edge + np.arange(m + 1) * h
        # interior faces carry flux face_r/h^2, symmetrized by sqrt(r h); the
        # face at r = 0 carries zero flux and the face at r = 1 is Neumann
        flux = faces[1:m] / h ** 2
        diag = np.zeros(m)
        diag[1:] = flux / centers[1:]
        diag[:-1] += flux / centers[:-1]
        if self.config.side == "exterior":
            # the far end is a Dirichlet truncation
            diag[-1] += 2.0 * faces[m] / (h ** 2 * centers[m - 1])
        coupling = flux / np.sqrt(centers[:-1] * centers[1:])
        bands = np.zeros((3, m))
        bands[0, 1:] = bands[2, :-1] = -coupling
        bands[1] = diag + float(k * k) / centers ** 2
        return bands, self._window_values(centers)

    def hn_v_blocks(self):
        return self._blocks

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
    change; one jv/jvp call over the whole scan) and refined with brentq.
    The scan stops at t = 8.5 (lam ~ 72), past the roots of the modes
    k <= 4 that the suites compare against; a mode whose first root lies
    beyond it raises NoRootInBracket."""
    k = int(k)
    if k < 0:
        raise ValueError("mode index must be nonnegative")
    beta = float(beta)

    def g(t):
        jv_t, jd_t = bessel_j(k, t)
        return t * jd_t - beta * jv_t

    step = 0.02
    t_max = 8.5
    # the points step, 2 step, ... of the running sum t += step, up to t_max
    t = np.cumsum(np.full(int(t_max / step) + 2, step))
    t = t[t <= t_max + 1e-12]
    vals = t * jvp(k, t) - beta * jv(k, t)
    neg = vals < 0.0
    hits = np.flatnonzero((vals[:-1] == 0.0) | (neg[:-1] != neg[1:]))
    if hits.size:
        i = hits[0]
        if vals[i] == 0.0:
            return float(t[i]) ** 2
        from scipy.optimize import brentq  # only here: it slows the import
        return brentq(g, t[i], t[i + 1], xtol=1e-14) ** 2
    raise NoRootInBracket(
        f"no Robin crossing for mode {k}, beta = {beta:g}, t <= {t_max}")
