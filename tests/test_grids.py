"""Panel quadrature grids: nodes, weights, integration, differentiation."""
import numpy as np
import pytest

from btriple import PanelGrid, graded_edges


class TestGradedEdges:
    def test_uniform_when_ratio_one(self):
        edges = graded_edges(0.0, 1.0, 4, 1.0, "left")
        assert np.allclose(edges, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_endpoints_exact(self):
        edges = graded_edges(2.0, 7.0, 6, 3.0, "right")
        assert edges[0] == 2.0
        assert edges[-1] == 7.0
        assert np.all(np.diff(edges) > 0)

    def test_grading_direction(self):
        left = graded_edges(0.0, 1.0, 5, 4.0, "left")
        right = graded_edges(0.0, 1.0, 5, 4.0, "right")
        widths_l = np.diff(left)
        widths_r = np.diff(right)
        assert widths_l[0] < widths_l[-1]
        assert widths_r[0] > widths_r[-1]
        assert np.allclose(widths_l, widths_r[::-1])


class TestPanelGrid:
    def test_size(self):
        grid = PanelGrid(graded_edges(0.0, 1.0, 8, 1.0, "left"), 16)
        assert grid.size == 128
        assert grid.nodes.shape == (128,)
        assert grid.weights.shape == (128,)

    def test_nodes_inside_and_ordered(self):
        grid = PanelGrid(graded_edges(0.0, 2.0, 5, 2.0, "left"), 10)
        assert np.all(np.diff(grid.nodes) > 0)
        assert grid.nodes[0] > 0.0
        assert grid.nodes[-1] < 2.0

    def test_weights_sum_to_length(self):
        grid = PanelGrid(graded_edges(0.0, 3.0, 7, 1.5, "right"), 12)
        assert grid.weights.sum() == pytest.approx(3.0, abs=1e-13)

    def test_integrate_polynomial_exactly(self):
        grid = PanelGrid(graded_edges(0.0, 1.0, 4, 1.0, "left"), 8)
        # Gauss order 8 per panel integrates degree 15 exactly
        vals = grid.nodes**9
        assert vals @ grid.weights == pytest.approx(0.1, abs=1e-14)

    def test_integrate_smooth(self):
        grid = PanelGrid(graded_edges(0.0, np.pi, 8, 1.0, "left"), 16)
        assert np.sin(grid.nodes) @ grid.weights == pytest.approx(2.0, abs=1e-13)

    def test_integrate_complex(self):
        grid = PanelGrid(graded_edges(0.0, 1.0, 4, 1.0, "left"), 12)
        vals = np.exp(1j * grid.nodes)
        want = (np.exp(1j) - 1.0) / 1j
        assert abs(vals @ grid.weights - want) < 1e-13

    def test_diff_polynomial(self):
        grid = PanelGrid(graded_edges(0.0, 1.0, 6, 1.0, "left"), 10)
        d = grid.diff() @ grid.nodes**4
        assert np.allclose(d, 4.0 * grid.nodes**3, atol=1e-9)

    def test_diff_trig(self):
        grid = PanelGrid(graded_edges(0.0, 2.0, 8, 1.0, "left"), 16)
        d = grid.diff() @ np.cos(grid.nodes)
        assert np.max(np.abs(d + np.sin(grid.nodes))) < 1e-10

    def test_cumint_matches_antiderivative(self):
        grid = PanelGrid(graded_edges(0.0, 1.0, 5, 2.0, "left"), 12)
        c = grid.cumint() @ np.exp(grid.nodes)
        # antiderivative of exp vanishing at 0, sampled at the nodes
        assert np.max(np.abs(c - (np.exp(grid.nodes) - 1.0))) < 1e-12

    def test_graded_grid_still_integrates(self):
        grid = PanelGrid(graded_edges(0.0, 1.0, 10, 5.0, "left"), 14)
        assert grid.nodes**2 @ grid.weights == pytest.approx(1.0 / 3.0, abs=1e-13)
