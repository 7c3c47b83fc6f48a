"""Composite Gauss-Legendre panel grids.

A PanelGrid carries the nodes and weights of a Gauss-Legendre rule applied
panel by panel, plus spectrally accurate differentiation and cumulative
integration matrices built from the per-panel Lagrange interpolant. The
continuum models use these for inner products, variation-of-parameters
quadrature, and radial integrals.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre as npleg


def graded_edges(a, b, panels, ratio=1.0, toward="left"):
    """Panel edges on [a, b] with geometrically growing widths.

    ``ratio`` is the width quotient between neighboring panels; widths grow
    away from the graded end, so the smallest panels cluster at ``a`` when
    ``toward`` is "left" and at ``b`` when "right". ratio = 1 gives uniform
    panels.
    """
    if panels < 1:
        raise ValueError("need at least one panel")
    if b <= a:
        raise ValueError("empty interval")
    if ratio <= 0.0:
        raise ValueError("ratio must be positive")
    widths = ratio ** np.arange(panels, dtype=float)
    if toward == "right":
        widths = widths[::-1]
    elif toward != "left":
        raise ValueError(f"unknown grading direction {toward!r}")
    widths *= (b - a) / widths.sum()
    edges = np.empty(panels + 1)
    edges[0] = a
    np.cumsum(widths, out=edges[1:])
    edges[1:] += a
    edges[-1] = b
    return edges


def _bary_weights(x):
    # Barycentric weights for Lagrange interpolation on nodes x.
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    return 1.0 / diff.prod(axis=1)


def _diff_matrix(x):
    # Spectral differentiation on arbitrary distinct nodes.
    w = _bary_weights(x)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    d = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def _cumint_reference(x):
    # C[i, j] = integral of the j-th Lagrange basis polynomial on GL nodes
    # x over [-1, x_i], via the Legendre coefficient transform.
    n = len(x)
    vand = npleg.legvander(x, n - 1)
    coeffs = np.linalg.inv(vand)  # column j: Legendre coeffs of basis j
    c = np.zeros((n, n))
    for j in range(n):
        ci = npleg.legint(coeffs[:, j])
        c[:, j] = npleg.legval(x, ci) - npleg.legval(-1.0, ci)
    return c


class PanelGrid:
    """Nodes, weights, and spectral calculus matrices on composite panels."""

    def __init__(self, edges, order):
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or len(edges) < 2:
            raise ValueError("edges must list at least two points")
        if np.any(np.diff(edges) <= 0.0):
            raise ValueError("edges must be strictly increasing")
        if order < 2:
            raise ValueError("need at least two nodes per panel")
        self.edges = edges
        self.order = int(order)
        self.panels = len(edges) - 1
        ref_x, ref_w = npleg.leggauss(self.order)
        self._ref_x = ref_x
        self._ref_cumint = _cumint_reference(ref_x)
        nodes = []
        weights = []
        for p in range(self.panels):
            a, b = edges[p], edges[p + 1]
            half = 0.5 * (b - a)
            nodes.append(0.5 * (a + b) + half * ref_x)
            weights.append(half * ref_w)
        self.nodes = np.concatenate(nodes)
        self.weights = np.concatenate(weights)
        self.size = len(self.nodes)
        self._diff = None
        self._cumint = None

    def panel_slice(self, p):
        return slice(p * self.order, (p + 1) * self.order)

    def diff(self):
        """Block-diagonal differentiation matrix (per-panel interpolant)."""
        if self._diff is None:
            d = np.zeros((self.size, self.size))
            for p in range(self.panels):
                s = self.panel_slice(p)
                d[s, s] = _diff_matrix(self.nodes[s])
            self._diff = d
        return self._diff

    def cumint(self):
        """Matrix mapping samples f to cumulative integrals from the left
        edge: (Q f)_i = integral of the interpolant over [edges[0], x_i]."""
        if self._cumint is None:
            q = np.zeros((self.size, self.size))
            offset_row = np.zeros(self.size)
            for p in range(self.panels):
                s = self.panel_slice(p)
                half = 0.5 * (self.edges[p + 1] - self.edges[p])
                q[s, :] = offset_row
                q[s, s] += half * self._ref_cumint
                offset_row = offset_row.copy()
                offset_row[s] += self.weights[s]
            self._cumint = q
        return self._cumint
