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

    def is_real(self):
        if self.kind == "constant":
            return self.params["c"].imag == 0.0
        if self.kind == "power":
            return self.params["c"].imag == 0.0
        if self.kind == "table":
            return bool(np.all(self.params["values"].imag == 0.0))
        return False  # callable: unknown, assume complex

    def conjugate(self):
        """The potential x -> conj(V(x))."""
        if self.kind == "constant":
            return Potential1D("constant", c=self.params["c"].conjugate())
        if self.kind == "power":
            q = dict(self.params)
            q["c"] = q["c"].conjugate()
            return Potential1D("power", **q)
        if self.kind == "table":
            return Potential1D("table", values=self.params["values"].conjugate())
        fn = self.params["fn"]
        return Potential1D("callable", fn=lambda x, _f=fn: np.conjugate(_f(x)))

    def breakpoints(self):
        """Points where the pointwise value jumps: the two edges of the
        window around a power singularity. An integrator that makes them
        step ends never steps across a jump."""
        if self.kind != "power":
            return ()
        x0 = self.params["x0"]
        return (x0 - _POINT_WINDOW, x0 + _POINT_WINDOW)

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        """Pointwise value; near a power singularity the window average over
        |x - x0| < 1e-8 is substituted so the result stays finite."""
        if self.kind == "constant" and isinstance(x, float):
            return self.params["c"]  # one stage of a shot: no array set-up
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
        """Average of V over each cell [edges[i], edges[i+1]].

        Constant: exact. Callable: fixed Gauss rule per cell (machine
        precision for smooth data). Power: exact antiderivative
        |x-x0|^(1-alpha)/(1-alpha), split at the singularity, which is the
        converged limit of graded adaptive quadrature. Table: passthrough
        when the cell count matches.
        """
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0.0):
            raise ValueError("edges must be strictly increasing with >= 2 entries")
        widths = np.diff(edges)
        ncells = len(widths)
        if self.kind == "constant":
            return np.full(ncells, self.params["c"])
        if self.kind == "table":
            values = self.params["values"]
            if len(values) != ncells:
                raise InvalidPotential(
                    f"table has {len(values)} cells, grid has {ncells}"
                )
            return values.copy()
        if self.kind == "callable":
            gx, gw = npleg.leggauss(_CELL_GL_ORDER)
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * widths
            pts = mid[:, None] + half[:, None] * gx[None, :]
            vals = np.asarray(self.params["fn"](pts.ravel()), dtype=complex)
            vals = vals.reshape(ncells, _CELL_GL_ORDER)
            return (vals @ gw) * 0.5
        # power: antiderivative of |x-x0|^(-alpha) is sign(x-x0)*|x-x0|^(1-alpha)/(1-alpha)
        c, x0, alpha = self.params["c"], self.params["x0"], self.params["alpha"]

        def anti(x):
            d = x - x0
            return np.sign(d) * np.abs(d) ** (1.0 - alpha) / (1.0 - alpha)

        return c * (anti(edges[1:]) - anti(edges[:-1])) / widths

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
