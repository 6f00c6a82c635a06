import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pxlap as px
from conftest import (midpoint_data, random_grid, reference_ball_cell_weights,
                      reference_cell_means, reference_center_gradients, reference_corner_gradients)
from pxlap.quadrature import CellGeometry, ball_cell_weights, lq_norm


@pytest.mark.parametrize("n_axes", [1, 2, 3])
def test_cell_means_match_geometry_corner_means(n_axes):
    g = random_grid(n_axes)
    got = CellGeometry.build(g).cell_means(g.values)
    assert got.shape == (int(np.prod([d - 1 for d in g.dims])),)
    assert np.array_equal(got, reference_cell_means(g))


@pytest.mark.parametrize("n_axes", [1, 2, 3])
def test_corner_and_center_gradients_match_einsum(n_axes):
    g = random_grid(n_axes, seed=1)
    geo = CellGeometry.build(g)
    ref = reference_corner_gradients(geo, g.values)
    got = geo.corner_gradients(g.values).transpose(2, 1, 0)
    assert got.shape == ref.shape == (geo.n_cells, 2**n_axes, n_axes)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    ref_c = reference_center_gradients(geo, g.values)
    assert np.abs(geo.center_gradients(g.values) - ref_c).max() <= 1e-13 * np.abs(ref_c).max()


@pytest.mark.parametrize("n_axes", [1, 2, 3])
@pytest.mark.parametrize("c", [0.3, 1e8])
def test_corner_gradients_vanish_on_constants(n_axes, c):
    # exact zeros, not rounding: at reg_eps = 0 and p < 2 the flux |g|^(p-1)
    # of a 1e-16 corner gradient is far above a solver tolerance
    g = random_grid(n_axes)
    geo = CellGeometry.build(g)
    grads = geo.corner_gradients(np.full(g.dims, c))
    assert grads.shape == (n_axes, 2**n_axes, geo.n_cells)
    assert np.all(grads == 0.0)


def random_lattice(n_axes, seed):
    """Random nodal values on a lattice of 1-6 cells per axis over a random
    box, so the spacings differ per axis; and the generator, for more draws."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-1.0, 1.0, n_axes)
    box = px.Box(lo, lo + rng.uniform(0.3, 2.0, n_axes))
    g = px.GridFunction.constant(box, tuple(rng.integers(1, 7, n_axes)), 0.0)
    return g.like(rng.standard_normal(g.dims)), rng


@given(n_axes=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_cell_means_are_the_interpolant_at_the_centers(n_axes, seed):
    g, _ = random_lattice(n_axes, seed)
    geo = CellGeometry.build(g)
    centers = geo.centers()
    assert np.array_equal(centers, midpoint_data(g)[0])
    ref = g.interp(centers)
    assert np.abs(geo.cell_means(g.values) - ref).max() <= 1e-13 * np.abs(g.values).max()


@given(n_axes=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_center_gradients_are_face_center_differences(n_axes, seed):
    # The multilinear interpolant is affine along each axis in a cell, so its
    # derivative along axis a at the center is the difference of its values
    # at the two face centers across axis a over h_a.
    g, _ = random_lattice(n_axes, seed)
    geo = CellGeometry.build(g)
    centers = geo.centers()
    ref = np.stack([(g.interp(centers + 0.5 * h * e) - g.interp(centers - 0.5 * h * e)) / h
                    for h, e in zip(g.spacing, np.eye(n_axes))], axis=1)
    got = geo.center_gradients(g.values)
    assert got.shape == (geo.n_cells, n_axes)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(g.values).max() / g.spacing.min()


@given(n_axes=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_flux_pairing_is_the_vertex_rule_adjoint(n_axes, seed):
    # flux_pairing(F) @ u = vol/2^n sum over cells and corners of F . g_k(u)
    g, rng = random_lattice(n_axes, seed)
    geo = CellGeometry.build(g)
    flux = rng.standard_normal((n_axes, 2**n_axes, geo.n_cells))
    terms = flux * geo.corner_gradients(g.values) * (geo.cell_vol / 2**n_axes)
    got = geo.flux_pairing(flux) @ g.values.reshape(-1)
    assert got == pytest.approx(terms.sum(), rel=1e-12, abs=1e-12 * np.abs(terms).sum())

@given(n_axes=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), subdiv=st.integers(1, 9))
def test_ball_cell_weights_match_per_cell_loop(n_axes, seed, subdiv):
    # Anisotropic lattices and balls from inside one cell to past the box.
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-1.0, 1.0, n_axes)
    box = px.Box(lo, lo + rng.uniform(0.5, 2.0, n_axes))
    g = px.GridFunction.constant(box, tuple(rng.integers(2, 13, n_axes)), 0.0)
    ball = px.Ball(rng.uniform(box.lo, box.hi), rng.uniform(0.01, 1.5))
    got = ball_cell_weights(g, ball, subdiv)
    assert np.array_equal(got, reference_ball_cell_weights(g, ball, subdiv))


@given(n_axes=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), box_region=st.booleans(),
       q=st.floats(1.0, 1e4), k=st.integers(-200, 200))
def test_lq_norm_is_finite_homogeneous_and_matches_the_plain_sum(n_axes, seed, box_region, q, k):
    # |u|^q overflows from q of a few hundred on; lq_norm factors out the
    # largest sample, so it stays finite and scales exactly with u
    rng = np.random.default_rng(seed)
    g = random_grid(n_axes, seed)
    nodes = g.nodes()
    ball = px.Ball(nodes[rng.integers(nodes.shape[0])], rng.uniform(0.05, 1.0))
    if box_region:
        lo = rng.uniform(g.box.lo, g.box.hi)
        region = px.Box(lo, lo + rng.uniform(0.1, 1.5, n_axes))
        centers, vols = midpoint_data(g)
        w = np.where(region.contains(centers), vols, 0.0)
    else:
        region, w = ball, ball_cell_weights(g, ball)
    if not np.any(w > 0):  # a box that misses every cell center has no L^q norm
        with pytest.raises(ValueError, match=r"^box \[.*\]\.\.\[.*\]: no cell weight inside$"):
            lq_norm(g, q, region)
    else:
        got = lq_norm(g, q, region)
        assert np.isfinite(got)
        c = 10.0**k
        assert lq_norm(g.like(c * g.values), q, region) == pytest.approx(c * got, rel=1e-12)
        if q <= 50:
            plain = np.sum(w * np.abs(reference_cell_means(g)) ** q) ** (1.0 / q)
            assert got == pytest.approx(plain, rel=1e-13)
    avg = px.lt_average(g, q, ball)
    assert np.isfinite(avg)
    assert avg <= np.abs(g.values.reshape(-1)[ball.contains(nodes)]).max()


@pytest.mark.parametrize("n_axes", [1, 2, 3])
def test_lq_norm_over_a_ball_builds_one_geometry(n_axes, geometry_builds):
    # the cell means and the ball's cut-cell weights read one geometry
    g = random_grid(n_axes)
    ball = px.Ball([0.3, 0.8, 0.1][:n_axes], 0.6)
    got = lq_norm(g, 1.0, ball)
    assert geometry_builds == [g.dims]
    w = ball_cell_weights(g, ball)
    assert np.any((w > 0) & (w < CellGeometry.build(g).cell_vol))  # some cells are cut
    plain = np.sum(w * np.abs(reference_cell_means(g)))
    assert got == pytest.approx(plain, rel=1e-13)


def test_lq_norm_rejects_a_region_the_lattice_does_not_sample():
    # The ball of radius 0.002 at the node (0.5, 0.5) of the 1/8 lattice holds
    # that node but none of the cell subsamples; the box holds neither a node
    # nor a cell center.  Each used to give a norm of 0, or numpy's
    # "zero-size array" error.
    g = px.GridFunction.constant(px.Box([0.0, 0.0], [1.0, 1.0]), 8, -1.0)
    ball = px.Ball([0.5, 0.5], 0.002)
    assert lq_norm(g, np.inf, ball) == 1.0
    with pytest.raises(ValueError,
                       match=r"^ball at \[0\.5 0\.5\], radius 0\.002: no cell weight inside$"):
        lq_norm(g, 4.0, ball)
    gap = px.Box([0.51, 0.51], [0.55, 0.55])
    for q, what in ((1.0, "cell weight"), (np.inf, "grid nodes")):
        with pytest.raises(ValueError,
                           match=rf"^box \[0\.51 0\.51\]\.\.\[0\.55 0\.55\]: no {what} inside$"):
            lq_norm(g, q, gap)
