"""Reference values computed apart from btriple.

Closed forms come from ``tests/oracles.py``; the rest is assembled here from
the stencil and the Robin conditions directly, with scipy doing the special
functions and root finding. Nothing in this module imports btriple, so an
error in the package cannot cancel against the same error in its check.
"""

from __future__ import annotations

import cmath

import numpy as np
import scipy.linalg as sla
from scipy.optimize import brentq
from scipy.special import ive, jv, jvp

# fd_weyl_v0 is the fd1d reference itself; workloads.py takes it from here
from tests.oracles import fd_weyl_v0, interval_weyl_v0  # noqa: F401

# -- Weyl matrices ------------------------------------------------------------


def interval_weyl(lam, c):
    """Continuum Neumann-to-Dirichlet map of -d^2/dx^2 + c on (0, 1): a
    constant potential shifts the spectral parameter exactly."""
    return interval_weyl_v0(complex(lam) - c)


def disk_interior_weyl(lam, k_max):
    """Diagonal mode Weyl matrix I_k(s) / (s I_k'(s)) of the free interior
    disk, s = sqrt(-lam). Exponentially scaled I_k and the recurrence
    I_k' = (I_{k-1} + I_{k+1}) / 2 keep the ratio finite at any |s|."""
    s = cmath.sqrt(-complex(lam))
    values = []
    for k in range(-k_max, k_max + 1):
        k = abs(k)
        deriv = ive(1, s) if k == 0 else 0.5 * (ive(k - 1, s) + ive(k + 1, s))
        values.append(ive(k, s) / (s * deriv))
    return np.diag(values)


# -- Robin eigenvalues --------------------------------------------------------


def _power_cell_averages(potential, edges):
    """Exact cell averages of c |x - x0|^(-alpha) from its antiderivative."""
    c = complex(*potential["c"])
    x0, alpha = potential["x0"], potential["alpha"]
    d = edges - x0
    anti = np.sign(d) * np.abs(d) ** (1.0 - alpha) / (1.0 - alpha)
    return c * np.diff(anti) / np.diff(edges)


def fd1d_robin_eigenvalues(n, potential, b):
    """Eigenvalues of the fd1d Robin realization B t1 = t0 on (0, 1).

    The cells carry the 3-point stencil of -d^2/dx^2 plus the cell averages
    of V. The boundary values b = (f_0, f_{n-1}) sit half a cell from the
    first and last cells c = (f_1, f_m), so the outward Neumann trace is
    t0 = (2/h)(b - c) and the condition B b = t0 gives
    b = (I - (h/2) B)^-1 c. The edge rows (-2 f_0 + 3 f_1 - f_2) / h^2 and
    (-f_{m-1} + 3 f_m - 2 f_{n-1}) / h^2 then close on the cells alone.
    """
    m = n - 2
    h = 1.0 / m
    a = np.zeros((m, m), dtype=complex)
    idx = np.arange(m)
    a[idx, idx] = 2.0 / h**2
    a[idx[:-1], idx[:-1] + 1] = -1.0 / h**2
    a[idx[:-1] + 1, idx[:-1]] = -1.0 / h**2
    a[0, 0] = a[-1, -1] = 3.0 / h**2
    w = np.linalg.inv(np.eye(2) - 0.5 * h * np.asarray(b, dtype=complex))
    edge = [0, m - 1]
    for i in range(2):
        for j in range(2):
            a[edge[i], edge[j]] -= 2.0 * w[i, j] / h**2
    if potential is not None:
        a[idx, idx] += _power_cell_averages(potential, np.linspace(0.0, 1.0, m + 1))
    return sla.eigvals(a)


def _bracketed_roots(g, lo, hi, step):
    """Every sign change of g on [lo, hi], refined by brentq."""
    t = np.arange(lo, hi + step, step)
    vals = np.array([g(x) for x in t])
    return [brentq(g, t[i], t[i + 1], xtol=1e-15, rtol=1e-15)
            for i in range(len(t) - 1) if vals[i] * vals[i + 1] < 0.0]


def interval_robin_eigenvalues(beta, c, re_max):
    """Robin eigenvalues of -d^2/dx^2 + c on (0, 1) with -f'(0) = beta f(0),
    f'(1) = beta f(1) and Re(lambda - c) <= re_max: c + k^2 for the roots
    k > 0 of (beta^2 - k^2) sin k = 2 beta k cos k, and for beta > 0 also
    c - kappa^2 with (beta^2 + kappa^2) sinh kappa = 2 beta kappa cosh kappa."""
    out = [c + k * k for k in _bracketed_roots(
        lambda k: (beta**2 - k * k) * np.sin(k) - 2.0 * beta * k * np.cos(k),
        1e-3, np.sqrt(re_max) + 0.1, 1e-3)]
    if beta > 0.0:
        out += [c - q * q for q in _bracketed_roots(
            lambda q: np.tanh(q) * (beta**2 + q * q) - 2.0 * beta * q,
            1e-3, 2.0 * beta + 10.0, 1e-3)]
    return out


def disk_robin_eigenvalues(beta, k_max, re_max):
    """Robin eigenvalues t^2 <= re_max of the free interior disk for modes
    |k| <= k_max: roots of t J_k'(t) = beta J_k(t), distinct values only."""
    out = []
    for k in range(k_max + 1):
        out += [t * t for t in _bracketed_roots(
            lambda t, k=k: t * jvp(k, t) - beta * jv(k, t),
            1e-3, np.sqrt(re_max) + 0.1, 1e-3)]
    return out


def set_distance(found, reference, region, margin):
    """Largest distance from a found root to the reference set and from a
    reference root to the found set, over roots inside the region shrunk
    by ``margin``. Roots on the rim may legitimately fall either way."""
    re0, re1, im0, im1 = region

    def inside(z):
        return (re0 + margin <= z.real <= re1 - margin
                and im0 + margin <= z.imag <= im1 - margin)

    worst = 0.0
    for src, dst in ((found, reference), (reference, found)):
        for z in src:
            if inside(z):
                gap = min((abs(z - y) / max(1.0, abs(y)) for y in dst),
                          default=float("inf"))
                worst = max(worst, gap)
    return worst
