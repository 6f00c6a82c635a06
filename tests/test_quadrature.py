import numpy as np
import pytest

from conftest import (random_grid, reference_cell_means, reference_center_gradients,
                      reference_corner_gradients)
from pxlap.quadrature import CellGeometry, cell_means, center_gradients


@pytest.mark.parametrize("n_axes", [1, 2, 3])
def test_cell_means_match_geometry_corner_means(n_axes):
    g = random_grid(n_axes)
    got = cell_means(g)
    assert got.shape == (int(np.prod([d - 1 for d in g.dims])),)
    assert np.array_equal(got, reference_cell_means(g))


@pytest.mark.parametrize("n_axes", [1, 2, 3])
def test_corner_and_center_gradients_match_einsum(n_axes):
    g = random_grid(n_axes, seed=1)
    geo = CellGeometry.build(g)
    ref = reference_corner_gradients(geo, g.values)
    got = geo.corner_gradients(g.values)
    assert got.shape == ref.shape == (geo.n_cells, 2**n_axes, n_axes)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    ref_c = reference_center_gradients(geo, g.values)
    assert np.abs(center_gradients(g) - ref_c).max() <= 1e-13 * np.abs(ref_c).max()
