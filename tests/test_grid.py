import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pxlap as px
from conftest import grid_1d
from pxlap.grid import row_norm


def test_dims_validation():
    with pytest.raises(ValueError):
        px.GridFunction((1,), [0.0], [0.1], [1.0])
    with pytest.raises(ValueError):
        px.GridFunction((3,), [0.0], [-0.1], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        px.GridFunction((3,), [0.0], [0.5], [1.0, np.nan, 3.0])


def test_nodes_row_major_order():
    box = px.Box([0.0, 0.0], [1.0, 2.0])
    g = px.GridFunction.from_callable(box, [2, 2], lambda pts: pts[:, 0] + 10 * pts[:, 1])
    nodes = g.nodes()
    # last axis fastest
    assert np.allclose(nodes[0], [0.0, 0.0])
    assert np.allclose(nodes[1], [0.0, 1.0])
    assert np.allclose(nodes[3], [0.5, 0.0])
    assert np.allclose(g.values.ravel(), nodes[:, 0] + 10 * nodes[:, 1])


def test_interp_exact_on_multilinear():
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    g = px.GridFunction.from_callable(
        box, 8, lambda pts: 2.0 + 3.0 * pts[:, 0] - pts[:, 1] + 5.0 * pts[:, 0] * pts[:, 1])
    rng = np.random.default_rng(7)
    pts = rng.random((50, 2))
    expect = 2.0 + 3.0 * pts[:, 0] - pts[:, 1] + 5.0 * pts[:, 0] * pts[:, 1]
    assert np.allclose(g.interp(pts), expect, atol=1e-13)
    with pytest.raises(ValueError):
        g.interp([[1.5, 0.5]])


@pytest.mark.parametrize("cells", [2.7, True, [4, 2.5], np.nan])
def test_from_callable_rejects_cell_counts_that_are_not_whole_numbers(cells):
    # 2.7 was cut to 2 cells, and True taken as 1
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match=r"^cells must be whole numbers, got "):
        px.GridFunction.from_callable(box, cells, lambda pts: pts[:, 0])
    assert px.GridFunction.constant(box, 16.0, 0.0).dims == (17, 17)


def test_pxgrid_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    box = px.Box([-1.0, 0.5], [2.0, 1.5])
    g = px.GridFunction.from_callable(box, [5, 3], lambda pts: rng.standard_normal(pts.shape[0]))
    g.values[0, 0] = 1.0 / 3.0
    g.values[1, 2] = np.pi * 1e-17
    path = tmp_path / "g.pxgrid"
    px.write_gridfunction(g, path)
    h = px.read_gridfunction(path)
    assert h.dims == g.dims
    assert np.array_equal(h.origin, g.origin)
    assert np.array_equal(h.spacing, g.spacing)
    assert np.array_equal(h.values, g.values)  # bit exact
    # header format
    first = path.read_text().splitlines()[0].split()
    assert first[:3] == ["PXGRID", "v1", "2"]


def test_pxgrid_rejects_malformed(tmp_path):
    path = tmp_path / "bad.pxgrid"
    path.write_text("PXLAP v9 junk\n")
    with pytest.raises(ValueError):
        px.read_gridfunction(path)
    path.write_text("PXGRID v1 1 3 0.0 0.5\n1 2\n")  # one value short
    with pytest.raises(ValueError):
        px.read_gridfunction(path)


@pytest.mark.parametrize("header, token", [
    ("PXGRID v1 2.5 3 3 0 0 0.5 0.5", "2.5"), ("PXGRID v1 x 3", "x"),
    ("PXGRID v1 2 3 3.0 0 0 0.5 0.5", "3.0"), ("PXGRID v1 2 3 3 zero 0 0.5 0.5", "zero"),
    ("PXGRID v1 2 3 3 0 0 0.5 half", "half")])
def test_pxgrid_header_token_that_does_not_parse_names_the_file(tmp_path, header, token):
    # These raised a bare "invalid literal for int() with base 10: '2.5'" or
    # "could not convert string to float: 'zero'", without the file.
    path = tmp_path / "bad.pxgrid"
    path.write_text(header + "\n" + " ".join(["0"] * 9) + "\n")
    with pytest.raises(ValueError, match=rf"^{path}: .*'{token}'"):
        px.read_gridfunction(path)


@pytest.mark.parametrize("origin, spacing, field", [
    ([np.nan, 0.0], [0.5, 0.5], "origin"), ([0.0, -np.inf], [0.5, 0.5], "origin"),
    ([0.0, 0.0], [0.5, np.inf], "spacing"), ([0.0, 0.0], [np.nan, 0.5], "spacing"),
    ([0.0, 0.0], [0.5, 1e308], "spacing")])
def test_lattice_must_be_finite(tmp_path, origin, spacing, field):
    # A NaN origin built NaN nodes, and an infinite spacing (or one whose
    # last node overflows) a box whose hi is inf.
    with pytest.raises(ValueError, match=rf"^{field} must be "):
        px.GridFunction((3, 3), origin, spacing, np.zeros((3, 3)))
    path = tmp_path / "bad.pxgrid"
    path.write_text("PXGRID v1 2 3 3 " + " ".join(map(repr, origin + spacing)) + "\n"
                    + " ".join(["0"] * 9) + "\n")
    with pytest.raises(ValueError, match=rf"^{path}: {field} must be "):
        px.read_gridfunction(path)


def test_boundary_mask_1d_2d():
    g = grid_1d(0.0, 1.0, 4, lambda x: x)
    assert list(g.boundary_mask()) == [True, False, False, False, True]
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    g2 = px.GridFunction.constant(box, 3, 0.0)
    m = g2.boundary_mask()
    assert m.sum() == 16 - 4  # outer ring of a 4x4 lattice


def test_ball_and_box_geometry():
    b = px.Ball([0.0, 0.0], 0.5)
    assert b.contains([[0.5, 0.0]])[0]          # closed ball
    assert not b.contains([[0.51, 0.0]])[0]
    assert b.dilate(4.0).radius == 2.0
    box = px.Box([0.0], [1.0])
    assert box.shrink(0.25).lo[0] == 0.25
    with pytest.raises(ValueError):
        box.shrink(0.6)
    with pytest.raises(ValueError):
        px.Ball([0.0], 0.0)


def test_box_contains_ball_tolerance():
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    assert box.contains_ball(px.Ball([0.5, 0.5], 0.5))            # touches all four sides
    assert box.contains_ball(px.Ball([0.5 + 5e-13, 0.5], 0.5))    # overshoot inside tol
    assert not box.contains_ball(px.Ball([0.5 + 1e-9, 0.5], 0.5))
    assert not box.contains_ball(px.Ball([0.5, 0.5 - 1e-9], 0.5))
    assert not px.Box([0.0], [1.0]).contains_ball(px.Ball([0.9], 0.2))


@given(n=st.integers(1, 3), log_scale=st.floats(-100.0, 100.0), seed=st.integers(0, 2**32 - 1))
def test_row_norm_and_contains_match_the_axis_reductions(n, log_scale, seed):
    # Points on and next to the ball's sphere r (1 + 1e-12) + 1e-15 and the
    # box faces lo - slack, hi + slack, at magnitudes 1e-100 .. 1e100; the
    # column-wise kernels give the masks of the np.linalg.norm / np.all forms.
    rng = np.random.default_rng(seed)
    scale, tol = 10.0**log_scale, 1e-12
    ball = px.Ball(scale * rng.normal(size=n), scale * rng.uniform(0.1, 2.0))
    dirs = rng.normal(size=(64, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    edge = ball.radius * (1.0 + tol) + tol * 1e-3
    dist = np.array([ball.radius, edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)])
    dist = np.concatenate([dist, ball.radius * rng.uniform(0.0, 2.0, 4)])
    pts = ball.center + dist[rng.integers(dist.size, size=64)][:, None] * dirs
    assert np.array_equal(row_norm(pts), np.linalg.norm(pts, axis=1))
    assert np.array_equal(row_norm(pts, squared=True), np.sum(pts**2, axis=1))
    ref = np.linalg.norm(pts - ball.center, axis=1) <= ball.radius * (1.0 + tol) + tol * 1e-3
    assert np.array_equal(ball.contains(pts), ref)

    box = px.Box(ball.center, ball.center + scale * rng.uniform(0.1, 2.0, n))
    slack = tol * np.maximum(1.0, np.abs(box.widths))
    lo, hi = box.lo - slack, box.hi + slack
    faces = np.stack([lo, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
                      hi, np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf),
                      box.lo, box.hi, 0.5 * (box.lo + box.hi), box.hi + box.widths])
    pts = faces[rng.integers(faces.shape[0], size=(64, n)), np.arange(n)]
    ref = np.all((pts >= lo) & (pts <= hi), axis=1)
    assert np.array_equal(box.contains(pts), ref)


def test_box_contains_rejects_points_of_another_width():
    for box, pts in ((px.Box([0.0, 0.0], [1.0, 1.0]), [[0.5]]),
                     (px.Box([0.0], [1.0]), [[0.5, 0.5]]),
                     (px.Box([0.0, 0.0], [1.0, 1.0]), np.zeros((3, 3)))):
        with pytest.raises(ValueError, match="coordinates"):
            box.contains(pts)
