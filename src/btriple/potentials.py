"""Complex 1D potentials with integrable power singularities.

A Potential1D is one of four kinds: identically zero / constant, a smooth
callable, a power singularity c*|x - x0|^(-alpha), or an explicit table of
cell averages. Models consume potentials either pointwise (shooting) or as
cell averages against a grid (finite differences, radial quadrature); the
singular kind computes its cell averages from the exact antiderivative so
the integrable blow-up is represented faithfully rather than point-sampled.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre as npleg

from .errors import InvalidPotential

# Half-width of the window around the singularity inside which pointwise
# evaluation returns the window average instead of blowing up.
_POINT_WINDOW = 1e-8

# Gauss order for per-cell averages of smooth callables.
_CELL_GL_ORDER = 12


class Potential1D:
    """Complex potential on an interval; construct via the classmethods."""

    def __init__(self, kind, **params):
        self.kind = kind
        self.params = params

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls("constant", c=0.0 + 0.0j)

    @classmethod
    def constant(cls, c):
        return cls("constant", c=complex(c))

    @classmethod
    def from_callable(cls, fn):
        """Smooth complex-valued function of position."""
        return cls("callable", fn=fn)

    @classmethod
    def power_singularity(cls, c, x0, alpha, p):
        """c * |x - x0|^(-alpha), declared to lie in L^p.

        Requires alpha * p < 1 (and alpha in (0, 1)) so the singularity is
        p-integrable; anything else raises InvalidPotential.
        """
        if not (0.0 < alpha < 1.0):
            raise InvalidPotential(f"alpha = {alpha} outside (0, 1)")
        if p <= 0.0:
            raise InvalidPotential(f"p = {p} must be positive")
        if alpha * p >= 1.0:
            raise InvalidPotential(
                f"alpha * p = {alpha * p:.3f} >= 1; |x-x0|^(-alpha) is not in L^{p}"
            )
        return cls("power", c=complex(c), x0=float(x0), alpha=float(alpha), p=float(p))

    @classmethod
    def table(cls, values):
        """Explicit cell averages for a grid with exactly len(values) cells."""
        values = np.asarray(values, dtype=complex)
        if values.ndim != 1 or len(values) == 0:
            raise InvalidPotential("table needs a nonempty 1-d value array")
        if not np.all(np.isfinite(values)):
            raise InvalidPotential("table values must be finite")
        return cls("table", values=values)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self):
        return self.kind == "constant" and self.params["c"] == 0.0

    def singular_points(self):
        """Where V is singular: (x0,) for a power singularity, else ()."""
        return (self.params["x0"],) if self.kind == "power" else ()

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        """Pointwise value; near a power singularity the window average over
        |x - x0| < 1e-8 is substituted so the result stays finite."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if self.kind == "constant":
            out = np.full(x.shape, self.params["c"])
        elif self.kind == "callable":
            out = np.asarray(self.params["fn"](x), dtype=complex)
            out = np.broadcast_to(out, x.shape).copy()
        elif self.kind == "power":
            c, x0, alpha = self.params["c"], self.params["x0"], self.params["alpha"]
            r = np.abs(x - x0)
            capped = np.maximum(r, _POINT_WINDOW)
            out = c * capped**-alpha
            window_avg = c * _POINT_WINDOW**-alpha / (1.0 - alpha)
            out[r < _POINT_WINDOW] = window_avg
        else:
            raise InvalidPotential("table potentials have no pointwise values")
        return out[0] if scalar else out

    def cell_averages(self, edges):
        """Average of V over each cell [edges[i], edges[i+1]]: exact for
        constants, m0 of ``moments`` over the width otherwise (exact for
        the singular kind, the converged limit of graded adaptive
        quadrature), and a table's values when its cell count matches."""
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0.0):
            raise ValueError("edges must be strictly increasing with >= 2 entries")
        ncells = len(edges) - 1
        if self.kind == "constant":
            return np.full(ncells, self.params["c"])
        if self.kind == "table":
            values = self.params["values"]
            if len(values) != ncells:
                raise InvalidPotential(
                    f"table has {len(values)} cells, grid has {ncells}"
                )
            return values.copy()
        return self.moments(edges)[0] / np.diff(edges)

    def moments(self, edges):
        """Moments m0 = int V and m1 = int (x - mid) V over each cell
        [edges[i], edges[i+1]], mid its midpoint: exact for constants (m1 =
        0) and for the singular kind (antiderivatives of |x-x0|^(-alpha)
        and (x-x0)|x-x0|^(-alpha)), the cell_averages Gauss rule for
        callables (machine precision for smooth data). Tables have no
        positions and raise InvalidPotential."""
        edges = np.asarray(edges, dtype=float)
        widths, mid = np.diff(edges), 0.5 * (edges[:-1] + edges[1:])
        if self.kind == "constant":
            return self.params["c"] * widths, np.zeros(len(widths), complex)
        if self.kind == "callable":
            gx, gw = npleg.leggauss(_CELL_GL_ORDER)
            off = 0.5 * widths[:, None] * gx  # node offsets from mid
            vals = np.asarray(self.params["fn"]((mid[:, None] + off).ravel()),
                              dtype=complex).reshape(off.shape)
            wv = vals * (0.5 * widths[:, None] * gw)
            return wv.sum(axis=1), (wv * off).sum(axis=1)
        if self.kind == "table":
            raise InvalidPotential("table potentials have no positions")
        c, x0, alpha = self.params["c"], self.params["x0"], self.params["alpha"]
        d = edges - x0
        m0 = c * np.diff(np.sign(d) * np.abs(d) ** (1.0 - alpha) / (1.0 - alpha))
        m1 = c * np.diff(np.abs(d) ** (2.0 - alpha) / (2.0 - alpha))
        return m0, m1 + (x0 - mid) * m0

    def sup_proxy(self, a, b):
        """Finite stand-in for the sup norm on [a, b]: exact for constants,
        sampled for callables, and the largest 512-cell average for the
        singular kind (whose true sup is infinite)."""
        if self.kind == "constant":
            return abs(self.params["c"])
        if self.kind == "table":
            return float(np.abs(self.params["values"]).max())
        if self.kind == "callable":
            x = np.linspace(a, b, 4097)
            return float(np.abs(np.asarray(self.params["fn"](x), dtype=complex)).max())
        edges = np.linspace(a, b, 513)
        return float(np.abs(self.cell_averages(edges)).max())
