import numpy as np
import pytest
from hypothesis import settings

import pxlap as px
from pxlap.grid import as_points

# Property tests draw a fixed example sequence and have no per-example
# deadline, so they are reproducible and do not flake on a loaded host.
settings.register_profile("pxlap", derandomize=True, deadline=None, max_examples=30)
settings.load_profile("pxlap")


@pytest.fixture
def unit_interval():
    return px.Box([0.0], [1.0])


@pytest.fixture
def unit_square():
    return px.Box([0.0, 0.0], [1.0, 1.0])


def grid_1d(lo, hi, cells, fn):
    box = px.Box([lo], [hi])
    return px.GridFunction.from_callable(box, cells, lambda pts: fn(pts[:, 0]))


def grid_2d(box, cells, fn):
    return px.GridFunction.from_callable(box, cells, fn)


def pointwise_reference(w, field, x, reg_eps=0.0):
    """The one-point chain-rule formula for div(|grad w|^(p-2) grad w), written
    with scalar operations; the batched p_laplacian_pointwise must match it."""
    pts = as_points(x)
    p = float(field(pts)[0])
    gp = field.gradient_at(pts)[0]
    gw = np.asarray(w.gradient(pts), dtype=float).reshape(pts.shape[1])
    Hw = np.asarray(w.hessian(pts), dtype=float).reshape(pts.shape[1], pts.shape[1])
    lap = float(np.trace(Hw))
    s = float(np.sqrt(gw @ gw + reg_eps**2))
    if s == 0.0:
        if p < 2.0:
            raise ValueError("p(x)-Laplacian undefined: vanishing gradient, p < 2, reg_eps = 0")
        return lap if p == 2.0 else 0.0
    aniso = float(gw @ Hw @ gw) / s**2
    return s ** (p - 2.0) * (lap + (p - 2.0) * aniso + float(gp @ gw) * np.log(s))
