"""Panel quadrature grids: nodes, weights, integration, differentiation."""
import numpy as np
import pytest

from btriple import (DiskModelConfig, PanelGrid, Potential1D, ShootConfig,
                     build_disk, build_shoot1d, graded_edges)
from btriple import grids


class TestGradedEdges:
    def test_uniform_when_ratio_one(self):
        edges = graded_edges(0.0, 1.0, 4, 1.0)
        assert np.allclose(edges, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_endpoints_exact(self):
        edges = graded_edges(2.0, 7.0, 6, 3.0)
        assert edges[0] == 2.0
        assert edges[-1] == 7.0
        assert np.all(np.diff(edges) > 0)

    def test_grading_direction(self):
        # the smallest panel sits at a, and each next one is ratio times wider
        widths = np.diff(graded_edges(0.0, 1.0, 5, 4.0))
        assert widths.argmin() == 0
        assert np.allclose(widths[1:] / widths[:-1], 4.0)


class TestPanelGrid:
    def test_size(self):
        grid = PanelGrid(graded_edges(0.0, 1.0, 8, 1.0), 16)
        assert grid.size == 128
        assert grid.nodes.shape == (128,)
        assert grid.weights.shape == (128,)

    def test_nodes_inside_and_ordered(self):
        grid = PanelGrid(graded_edges(0.0, 2.0, 5, 2.0), 10)
        assert np.all(np.diff(grid.nodes) > 0)
        assert grid.nodes[0] > 0.0
        assert grid.nodes[-1] < 2.0

    def test_weights_sum_to_length(self):
        grid = PanelGrid(graded_edges(0.0, 3.0, 7, 1.5), 12)
        assert grid.weights.sum() == pytest.approx(3.0, abs=1e-13)

    def test_integrate_polynomial_exactly(self):
        grid = PanelGrid(graded_edges(0.0, 1.0, 4, 1.0), 8)
        # Gauss order 8 per panel integrates degree 15 exactly
        vals = grid.nodes**9
        assert vals @ grid.weights == pytest.approx(0.1, abs=1e-14)

    def test_integrate_smooth(self):
        grid = PanelGrid(graded_edges(0.0, np.pi, 8, 1.0), 16)
        assert np.sin(grid.nodes) @ grid.weights == pytest.approx(2.0, abs=1e-13)

    def test_integrate_complex(self):
        grid = PanelGrid(graded_edges(0.0, 1.0, 4, 1.0), 12)
        vals = np.exp(1j * grid.nodes)
        want = (np.exp(1j) - 1.0) / 1j
        assert abs(vals @ grid.weights - want) < 1e-13

    def test_diff_polynomial(self):
        grid = PanelGrid(graded_edges(0.0, 1.0, 6, 1.0), 10)
        d = grid.diff() @ grid.nodes**4
        assert np.allclose(d, 4.0 * grid.nodes**3, atol=1e-9)

    def test_diff_trig(self):
        grid = PanelGrid(graded_edges(0.0, 2.0, 8, 1.0), 16)
        d = grid.diff() @ np.cos(grid.nodes)
        assert np.max(np.abs(d + np.sin(grid.nodes))) < 1e-10

    def test_cumint_matches_antiderivative(self):
        grid = PanelGrid(graded_edges(0.0, 1.0, 5, 2.0), 12)
        c = grid.cumint() @ np.exp(grid.nodes)
        # antiderivative of exp vanishing at 0, sampled at the nodes
        assert np.max(np.abs(c - (np.exp(grid.nodes) - 1.0))) < 1e-12

    def test_cumint_reference_is_built_on_first_use(self):
        # the disk never integrates cumulatively, so building one computes
        # no reference; shoot1d's cumint() gets the bits of the reference
        # built afresh, and a second grid of its order reuses the cached one
        grids._cumint_reference.cache_clear()
        build_disk(DiskModelConfig(
            side="exterior", k_max=3, support=(1.0, 3.0),
            radial_potential=Potential1D.constant(1.5 + 1.0j)))
        assert grids._cumint_reference.cache_info().currsize == 0
        model = build_shoot1d(ShootConfig(), panels=4, order=12, fd_nodes=128)
        q = model.grid.cumint()
        ref = grids._cumint_reference.__wrapped__(12)
        want = np.zeros_like(q)
        offset = np.zeros(q.shape[1])
        for p in range(model.grid.panels):
            s = model.grid.panel_slice(p)
            want[s] = offset
            want[s, s] += 0.5 * np.diff(model.grid.edges)[p] * ref
            offset = offset.copy()
            offset[s] += model.grid.weights[s]
        assert q.tobytes() == want.tobytes()
        PanelGrid(graded_edges(0.0, 1.0, 3), 12).cumint()
        info = grids._cumint_reference.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_graded_grid_still_integrates(self):
        grid = PanelGrid(graded_edges(0.0, 1.0, 10, 5.0), 14)
        assert grid.nodes**2 @ grid.weights == pytest.approx(1.0 / 3.0, abs=1e-13)
