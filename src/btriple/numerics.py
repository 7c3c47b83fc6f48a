"""Dense complex linear algebra and scalar analysis kernels.

Thin wrappers around numpy/scipy that normalize error behavior: singular
solves raise SingularMatrix instead of returning garbage, eigenvalue output
is deterministically ordered, and the Newton iteration keeps polishing past
its residual target so that multiple roots are still located to near machine
accuracy. The Newton iteration runs every start of an array in lockstep, one
call of the objective per step for all of them. No package code calls it
(robin_eigs is a contour solve); it stays exported for its tests and
because the traced benchmark run patches its name in triple_core.
Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import DegenerateInput, NoConvergence, NotPositiveDefinite, SingularMatrix

# Relative pivot floor below which an LU factor is treated as singular.
_PIVOT_REL = 1e-14

# Largest matrix eig_dense will factor; above this, the caller picked the
# wrong tool.
_EIG_DIM_CAP = 4000


def solve_linear(a, b):
    """Solve a @ x = b by partial-pivot LU.

    Raises SingularMatrix when the factorization exposes a pivot smaller
    than 1e-14 times the largest entry of ``a``, which is how resolvent
    evaluations on top of an eigenvalue surface here. ``b`` may be a vector
    or a matrix of stacked right-hand sides.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        return np.zeros_like(b)
    scale = np.abs(a).max()
    if scale == 0.0:
        raise SingularMatrix("zero matrix is singular")
    lu, piv = sla.lu_factor(a)
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= _PIVOT_REL * scale:
        raise SingularMatrix(
            f"pivot ratio {pivots.min() / scale:.3e} at or below {_PIVOT_REL:.0e}; "
            "system is singular to working precision"
        )
    return sla.lu_solve((lu, piv), b)


def eig_dense(a):
    """Eigenvalues of a dense square matrix, sorted by (real, imag).
    Refuses matrices larger than 4000x4000 (ValueError); NoConvergence
    when LAPACK's QR iteration does not converge."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got shape {a.shape}")
    if a.shape[0] > _EIG_DIM_CAP:
        raise ValueError(f"matrix dimension {a.shape[0]} exceeds {_EIG_DIM_CAP}")
    try:
        w = sla.eigvals(a)
    except sla.LinAlgError as exc:  # QR iteration cap exhausted
        raise NoConvergence(f"dense eigensolve did not converge: {exc}") from exc
    return w[np.lexsort((w.imag, w.real))]


def smallest_singular_value(a):
    """Smallest singular value of a dense matrix."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected matrix, got shape {a.shape}")
    if min(a.shape) == 0:
        raise ValueError("empty matrix has no singular values")
    return float(sla.svdvals(a).min())


def herm_inv_sqrt(a):
    """Inverse square root of a Hermitian positive definite matrix.

    The input is symmetrized before the eigendecomposition so that tiny
    non-Hermitian rounding noise cannot leak into complex eigenvalues.
    Raises NotPositiveDefinite when the smallest eigenvalue is <= 0.
    """
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


def fit_log_slope(points):
    """Least-squares line through (log x, log y).

    ``points`` is a sequence of (x, y) pairs, all positive, at least three
    of them. Returns (slope, intercept, stderr), stderr the standard error
    of the slope. Raises DegenerateInput when every x coincides (no
    abscissa spread to fit against).
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("need at least three (x, y) pairs")
    if np.any(pts <= 0.0):
        raise ValueError("all coordinates must be positive")
    lx = np.log(pts[:, 0])
    ly = np.log(pts[:, 1])
    if np.ptp(lx) == 0.0:
        raise DegenerateInput("all x values coincide; slope is undefined")
    slope, intercept = np.polyfit(lx, ly, 1)
    sigma2 = np.sum((ly - (intercept + slope * lx)) ** 2) / (len(lx) - 2)
    spread = np.sum((lx - lx.mean()) ** 2)
    return float(slope), float(intercept), float(np.sqrt(sigma2 / spread))


def complex_newton(f, z0, tol, fprime=None, max_iter=50):
    """Newton iteration for a holomorphic f, run from every start in ``z0``
    in lockstep.

    Each step makes one call to ``f``: on the (3,) + z0.shape stack
    (z, z + h, z - h), h = 1e-6 * max(1, |z|), for a central-difference
    derivative, or on z alone when ``fprime`` gives the derivative. Runs
    that have ended are passed as NaN; ``f`` must return a non-finite value
    there and need not evaluate them. ``tol`` is a scalar or an array of
    z0's shape.

    Once a run meets its residual target |f(z)| <= tol it keeps stepping
    until the step is at most 1e-11 * max(1, |z|). That polish phase costs
    a handful of extra evaluations and is what makes multiple roots (where
    |f| <= tol is reached far from the root) come out accurate: Newton
    still contracts linearly there, halving the error per step. A run
    fails when f(z) or its step is not finite, when the derivative
    vanishes before the target is met (after it, the run returns z), or
    when the target is not met within ``max_iter`` steps.

    A failed run, or a NaN start, gives NaN. For a scalar ``z0`` the root
    comes back as a complex, and a failure raises NoConvergence.
    """
    z = np.array(z0, dtype=complex)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), z.shape)
    active = np.array(np.isfinite(z))
    hit_tol = np.zeros(z.shape, dtype=bool)
    why = np.full(z.shape, "start is not finite", dtype=object)

    def stop(mask, failure=None):
        """End the active runs in mask; a failure sets them to NaN."""
        mask = mask & active
        active[mask] = False
        if failure is not None:
            z[mask] = np.nan
            why[mask] = failure

    def evaluate(zs):
        """f(zs) and f'(zs), with one call of f."""
        if fprime is not None:
            return (np.asarray(f(zs), dtype=complex),
                    np.asarray(fprime(zs), dtype=complex))
        h = 1e-6 * np.maximum(1.0, np.abs(zs))
        fs = np.asarray(f(np.stack([zs, zs + h, zs - h])), dtype=complex)
        return fs[0], (fs[1] - fs[2]) / (2.0 * h)

    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            if not active.any():
                break
            fz, df = evaluate(np.where(active, z, np.nan))
            stop(~np.isfinite(fz), "f(z) is not finite")
            hit_tol |= active & (np.abs(fz) <= tol)
            flat = (df == 0) | ~np.isfinite(df)
            stop(flat & hit_tol)
            stop(flat, "derivative vanished before reaching tolerance")
            step = fz / df
            stop(~np.isfinite(step), "step is not finite")
            np.subtract(z, step, out=z, where=active)
            stop(hit_tol & (np.abs(step) <= 1e-11 * np.maximum(1.0, np.abs(z))))
        if active.any():
            fz, _ = evaluate(np.where(active & hit_tol, z, np.nan))
            stop(hit_tol & (np.abs(fz) <= tol))
            stop(active, f"no root within {max_iter} iterations")
    if z.ndim == 0:
        if np.isnan(z):
            raise NoConvergence(f"{why[()]} (start {complex(z0)})")
        return complex(z)
    return z
