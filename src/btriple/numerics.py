"""Dense complex linear algebra and scalar analysis kernels.

Thin wrappers around numpy/scipy that normalize error behavior: singular
solves raise SingularMatrix instead of returning garbage, and eigenvalue
output is deterministically ordered. Everything here is a pure function of
its arguments.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import DegenerateInput, NoConvergence, SingularMatrix

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
