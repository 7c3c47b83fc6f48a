"""Independent reference computations used to pin expected values in the tests.

Everything here is deliberately built from a different route than the package:
mpmath special functions, closed-form solutions of the half-line and interval
problems, characteristic polynomials via Faddeev-LeVerrier, and direct 2x2
interface matching for the disk modes, and a tight scipy ODE solve for the
interval.  None of it imports btriple, except pointwise_weyl: the per-point
reference that weyl_batch's chunk kernels are compared with, and
herm_inv_sqrt for the package's error class.  dense_blocks densifies a
model's H_N and V blocks for the dense definitions of the sectorial layer,
and herm_inv_sqrt, one dense eigh, gives their S = (H_N - lambda)^(-1/2).
"""
from __future__ import annotations

import cmath
import math

import numpy as np
from mpmath import mp

mp.dps = 40


# ---------------------------------------------------------------------------
# modified Bessel functions with derivatives taken from the recurrences
#
# mpmath's besselk(..., derivative=1) does not follow the derivative
# convention we need (it disagrees with K'_k = -(K_{k-1} + K_{k+1}) / 2),
# so derivatives are always assembled from the stable recurrences here.
# ---------------------------------------------------------------------------

def mp_iv(k, z):
    return mp.besseli(k, z)


def mp_kv(k, z):
    return mp.besselk(k, z)


def mp_iv_prime(k, z):
    if k == 0:
        return mp.besseli(1, z)
    return (mp.besseli(k - 1, z) + mp.besseli(k + 1, z)) / 2


def mp_kv_prime(k, z):
    if k == 0:
        return -mp.besselk(1, z)
    return -(mp.besselk(k - 1, z) + mp.besselk(k + 1, z)) / 2


def iv_series_partial(k, z, terms=30):
    """Ascending series for I_k truncated by hand, as a non-mpmath oracle."""
    z = complex(z)
    total = 0.0 + 0.0j
    for j in range(terms):
        term = (z / 2) ** (2 * j + k) / (math.factorial(j) * math.factorial(j + k))
        total += term
    return total


# ---------------------------------------------------------------------------
# interval with V = 0: continuum and staggered-grid closed forms
# ---------------------------------------------------------------------------

def interval_weyl_v0(lam, length=1.0):
    """Neumann-to-Dirichlet matrix of -f'' on (0, length) at spectral point
    lam: coth(s L) / s on the diagonal and csch(s L) / s off it, s =
    sqrt(-lam) with Re s >= 0, written in d = 1 - exp(-2 s L) so that no
    term overflows at any lam."""
    s = cmath.sqrt(-complex(lam))
    d = -complex(np.expm1(-2.0 * s * length))
    coth = (2.0 - d) / d
    csch = 2.0 * cmath.exp(-s * length) / d
    return np.array([[coth, csch], [csch, coth]], dtype=complex) / s


def ode_weyl(potential, lam, length=1.0):
    """Neumann-to-Dirichlet matrix of -f'' + V f on (0, length) from the two
    one-sided Neumann shots phi (from 0) and psi (from length) of scipy's
    DOP853 at rtol 1e-12 on the pointwise V (any callable of x):
    [[-psi(0) / psi'(0), 1 / phi'(L)], [-1 / psi'(0), phi(L) / phi'(L)]].
    scipy.integrate is imported here, so a process that never calls this
    never loads it."""
    from scipy.integrate import solve_ivp

    def rhs(x, y):
        return np.array([y[1], (complex(potential(x)) - lam) * y[0]])

    ends = [solve_ivp(rhs, span, np.array([1.0, 0.0], dtype=complex),
                      method="DOP853", rtol=1e-12, atol=1e-14).y[:, -1]
            for span in ((0.0, length), (length, 0.0))]
    (phi, dphi), (psi, dpsi) = ends
    return np.array([[-psi / dpsi, 1.0 / dphi], [-1.0 / dpsi, phi / dphi]])


def fd_weyl_v0(lam, n, length=1.0):
    """Closed form for the staggered finite-difference Neumann-to-Dirichlet map.

    With m = n - 2 interior cells of width h, the discrete solutions of the
    three-point stencil are cosh/sinh in theta = 2 asinh(s h / 2) per cell,
    and eliminating the two face values gives a 2x2 matrix in coth/csch of
    (m + 1 halves worth of) theta.  Derived independently of the package and
    checked against it to ~1e-12 before being frozen here.
    """
    m = n - 2
    h = length / m
    s = cmath.sqrt(-complex(lam))
    theta = 2.0 * cmath.asinh(s * h / 2.0)
    pref = (h / 2.0) / cmath.tanh(theta / 2.0)
    tm = theta * m
    coth_tm = cmath.cosh(tm) / cmath.sinh(tm)
    csch_tm = 1.0 / cmath.sinh(tm)
    return pref * np.array([[coth_tm, csch_tm], [csch_tm, coth_tm]], dtype=complex)


def fd_dirichlet_spectrum(n, length=1.0):
    """Eigenvalues of the staggered grid with Dirichlet faces, ascending."""
    m = n - 2
    h = length / m
    return np.array([(4.0 / h**2) * math.sin(k * math.pi * h / (2 * length)) ** 2
                     for k in range(1, m + 1)])


def fd_neumann_spectrum(n, length=1.0):
    m = n - 2
    h = length / m
    return np.array([(4.0 / h**2) * math.sin(k * math.pi * h / (2 * length)) ** 2
                     for k in range(0, m)])


# ---------------------------------------------------------------------------
# interval Robin problem at beta = 0.7: frozen eigendata
#
# u'' = -lam u on (0, 1) with u'(0) = -beta u(0), u'(1) = beta u(1)
# (the sign convention matching outward normal derivatives at both ends).
# Negative eigenvalue lam = -kappa^2 from coth, positive ones from
# tan k = -2 beta k / (k^2 - beta^2).  Residuals checked to ~1e-15.
# ---------------------------------------------------------------------------

ROBIN_BETA = 0.7
ROBIN_KAPPA = 1.2568261087643705
ROBIN_LAM_NEG = -1.5796118676717892
ROBIN_KS = (
    2.6193055149636336,
    6.052914702533473,
    9.2741057062202231,
    12.454075769320328,
)
ROBIN_LAMS_POS = (
    6.8607613807189059,
    36.637776396145882,
    86.009036650146502,
    155.10400326797173,
)


def robin_eigenfunction_neg(x):
    return np.cosh(ROBIN_KAPPA * (np.asarray(x) - 0.5))


def robin_eigenfunction_pos(j, x):
    k = ROBIN_KS[j]
    x = np.asarray(x)
    return np.cos(k * x) - (ROBIN_BETA / k) * np.sin(k * x)


def robin_resolvent_expansion(lam, x, rhs_fn, n_terms=4):
    """Eigenfunction expansion of the Robin resolvent applied to rhs_fn.

    Uses the frozen negative mode plus the first n_terms positive modes;
    accurate once lam is well below the spectrum and rhs is smooth.
    Normalisation integrals are done with a fine trapezoid rule, which is
    plenty at the tolerances the tests use it for.
    """
    xs = np.linspace(0.0, 1.0, 20001)
    rhs = rhs_fn(xs)
    out = np.zeros_like(np.asarray(x), dtype=complex)

    def add_mode(phi_xs, phi_x, mu):
        norm = np.trapz(np.abs(phi_xs) ** 2, xs)
        coef = np.trapz(rhs * np.conj(phi_xs), xs) / norm
        return coef * phi_x / (mu - lam)

    out = out + add_mode(robin_eigenfunction_neg(xs), robin_eigenfunction_neg(x),
                         ROBIN_LAM_NEG)
    for j in range(n_terms):
        out = out + add_mode(robin_eigenfunction_pos(j, xs),
                             robin_eigenfunction_pos(j, x), ROBIN_LAMS_POS[j])
    return out


# ---------------------------------------------------------------------------
# dense eigenvalue cross-check: characteristic polynomial coefficients via
# Faddeev-LeVerrier, roots via numpy's companion-matrix solver
# ---------------------------------------------------------------------------

def charpoly_eigenvalues(a):
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.zeros_like(a)
    for k in range(1, n + 1):
        mk = a @ mk + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ mk) / k
    return np.roots(coeffs)


def match_sets(got, want):
    """Greedy bipartite match of two point sets; returns max pair distance."""
    got = list(got)
    want = list(want)
    assert len(got) == len(want)
    worst = 0.0
    for g in got:
        j = min(range(len(want)), key=lambda i: abs(want[i] - g))
        worst = max(worst, abs(want[j] - g))
        want.pop(j)
    return worst


# ---------------------------------------------------------------------------
# disk modes with a piecewise-constant radial potential: 2x2 interface match
#
# On each radial piece the mode equation is Bessel in s_piece * r with
# s_piece = sqrt(c_piece - lam) (c the constant potential value there), and
# the solution is glued by continuity of u and u' at the interface.  This is
# a genuinely different route from the package's collocation solve.
# ---------------------------------------------------------------------------

def _mp_basis(k, s, r):
    z = s * r
    i0 = mp_iv(k, z)
    k0 = mp_kv(k, z)
    di = s * mp_iv_prime(k, z)
    dk = s * mp_kv_prime(k, z)
    return i0, k0, di, dk


def disk_weyl_v0(side, k, lam, r_cut=16.0):
    """m_k of the V = 0 disk: I_k(s) / (s I_k'(s)) inside, and outside
    (K_k + rho I_k)(s) / (-s (K_k' + rho I_k')(s)) with the Dirichlet
    weight rho = -K_k(s r_cut) / I_k(s r_cut), s = sqrt(-lam). mpmath keeps
    every exponential factor, so any |lam| works."""
    s = mp.sqrt(-mp.mpc(lam))
    if side == "interior":
        return complex(mp_iv(k, s) / (s * mp_iv_prime(k, s)))
    rho = -mp_kv(k, s * r_cut) / mp_iv(k, s * r_cut)
    return complex((mp_kv(k, s) + rho * mp_iv(k, s))
                   / (-s * (mp_kv_prime(k, s) + rho * mp_iv_prime(k, s))))


def disk_interior_weyl_constant(k, lam, c, lo, hi):
    """m_k for the unit disk, potential c on (lo, hi) subset of (0, 1), else 0.

    Convention matches u'(1) = 1 with m = u(1) / u'(1); returns a complex
    scalar.  Regular solution inside is I_k; across each interface the
    coefficient pair (alpha, beta) for alpha I + beta K is propagated by
    matching value and derivative.
    """
    k = int(k)
    lam = mp.mpc(lam)
    c = mp.mpc(c)
    s0 = mp.sqrt(-lam)
    s1 = mp.sqrt(c - lam)

    # start regular: u = I_k(s0 r) on (0, lo)
    alpha, beta = mp.mpf(1), mp.mpf(0)
    s_in, s_out = s0, s1
    for r0, s_a, s_b in ((lo, s0, s1), (hi, s1, s0)):
        ia, ka, dia, dka = _mp_basis(k, s_a, r0)
        ib, kb, dib, dkb = _mp_basis(k, s_b, r0)
        u = alpha * ia + beta * ka
        du = alpha * dia + beta * dka
        det = ib * dkb - kb * dib
        alpha, beta = (u * dkb - du * kb) / det, (du * ib - u * dib) / det

    i1, k1, di1, dk1 = _mp_basis(k, s0, mp.mpf(1))
    u1 = alpha * i1 + beta * k1
    du1 = alpha * di1 + beta * dk1
    return complex(u1 / du1)


def disk_exterior_weyl_constant(k, lam, c, lo, hi, r_cut):
    """m_k for the exterior side with potential c on (lo, hi), 1 <= lo,
    Dirichlet truncation at r_cut, convention m = u(1) / (-u'(1))."""
    k = int(k)
    lam = mp.mpc(lam)
    c = mp.mpc(c)
    s0 = mp.sqrt(-lam)
    s1 = mp.sqrt(c - lam)

    # start from the cut: u = K + rho I vanishing at r_cut, on (hi, r_cut)
    i_c, k_c, _, _ = _mp_basis(k, s0, r_cut)
    rho = -k_c / i_c
    alpha, beta = rho, mp.mpf(1)
    for r0, s_a, s_b in ((hi, s0, s1), (lo, s1, s0)):
        ia, ka, dia, dka = _mp_basis(k, s_a, r0)
        ib, kb, dib, dkb = _mp_basis(k, s_b, r0)
        u = alpha * ia + beta * ka
        du = alpha * dia + beta * dka
        det = ib * dkb - kb * dib
        alpha, beta = (u * dkb - du * kb) / det, (du * ib - u * dib) / det

    i1, k1, di1, dk1 = _mp_basis(k, s0, mp.mpf(1))
    u1 = alpha * i1 + beta * k1
    du1 = alpha * di1 + beta * dk1
    return complex(u1 / (-du1))


# ---------------------------------------------------------------------------
# frozen scalar constants (30+ digit mpmath, rounded to double)
# ---------------------------------------------------------------------------

COSH1 = 1.5430806348152438
SINH1 = 1.1752011936438015
COTH1 = 1.3130352854993313
CSCH1 = 0.85091812823932155
I0_AT_1 = 1.2660658777520083
I1_AT_1 = 0.56515910399248503
K0_AT_1 = 0.42102443824070833
K1_AT_1 = 0.60190723019723457
J0_ZERO1_SQ = 5.7831859629467845     # first zero of J_0, squared
J1P_ZERO1_SQ = 3.3899577166718887    # first zero of J_1', squared

# smallest positive t with t J_k'(t) = beta J_k(t), squared, for k = 0..4
DISK_ROBIN_T2 = {
    -1.0: (1.5769927308086067, 5.7831859629467845, 12.378606533505731,
           21.275709507871578, 32.425221514303833),
    0.5: (13.687887620806002, 1.8403690608443579, 7.4488604544989395,
          15.482208968459874, 25.846777918389399),
    1.0: (12.730262644143701, 26.374616427163391, 5.2895875270913581,
          13.041223696429207, 23.148440730941714),
    3.0: (9.8051923984380348, 22.838921945215876, 38.815963445727405,
          57.582940903291125, 9.1879593117266082),
}


def bisect_real(fn, a, b, iters=200):
    fa = fn(a)
    fb = fn(b)
    assert fa * fb < 0
    for _ in range(iters):
        c = 0.5 * (a + b)
        fc = fn(c)
        if fa * fc <= 0:
            b, fb = c, fc
        else:
            a, fa = c, fc
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# dense H_N and V blocks
# ---------------------------------------------------------------------------

def dense_blocks(model):
    """model.hn_v_blocks() as dense matrices: each H_N from its three
    solve_banded bands, each V from its diagonal."""
    return [(np.diag(bands[1]) + np.diag(bands[0, 1:], 1)
             + np.diag(bands[2, :-1], -1), np.diag(v))
            for bands, v in model.hn_v_blocks()]


def herm_inv_sqrt(a):
    """Inverse square root of a Hermitian positive definite matrix.

    The input is symmetrized before the eigendecomposition so that tiny
    non-Hermitian rounding noise cannot leak into complex eigenvalues.
    Raises the package's NotPositiveDefinite when the smallest eigenvalue
    is <= 0.
    """
    import scipy.linalg as sla
    from btriple import NotPositiveDefinite

    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got shape {a.shape}")
    h = 0.5 * (a + a.conj().T)
    w, u = sla.eigh(h)
    if w.min() <= 0.0:
        raise NotPositiveDefinite(
            f"matrix is not positive definite (min eigenvalue {w.min():.3e})"
        )
    return (u * (1.0 / np.sqrt(w))) @ u.conj().T


# ---------------------------------------------------------------------------
# weyl_batch without a chunk kernel
# ---------------------------------------------------------------------------

def pointwise_weyl(model, lams, tilde=False):
    """The package's point-wise Weyl matrix (triple_core._weyl_matrix) at
    every point of lams as an (N, d, d) stack, with an all-NaN row where it
    raises a BTripleError: weyl_batch with no vectorized kernel."""
    from btriple import BTripleError
    from btriple.triple_core import _weyl_matrix

    lams = np.asarray(lams, dtype=complex).ravel()
    dim = model.boundary_dim
    out = np.full((len(lams), dim, dim), np.nan, dtype=complex)
    for k, lam in enumerate(lams):
        try:
            out[k] = _weyl_matrix(model, complex(lam), tilde)
        except BTripleError:
            pass
    return out
