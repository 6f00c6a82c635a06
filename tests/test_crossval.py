"""Cross-validation: the grid solver against independent closed forms.

These tests close the loop between the two operator implementations: the
cell-quadrature solver and the pointwise chain-rule evaluation.
"""

import numpy as np
import pytest

import pxlap as px


def test_radial_p_harmonic_2d():
    # u = r^((p-2)/(p-1)) is p-harmonic in the plane away from the origin:
    # the radial flux r |u'|^(p-2) u' is then constant.  Solve with exact
    # boundary data on a box avoiding the singularity.
    p0 = 4.0
    alpha = (p0 - 2.0) / (p0 - 1.0)
    exact = lambda pts: np.linalg.norm(pts, axis=1) ** alpha
    box = px.Box([1.0, 1.0], [2.0, 2.0])
    field = px.constant_exponent(p0, domain=box)
    errs = []
    for cells in (16, 32):
        f = px.GridFunction.constant(box, cells, 0.0)
        res = px.solve_dirichlet(px.ProblemSpec(box, field, f, exact,
                                                reg_eps=1e-9, tol=1e-10))
        assert res.converged, res.message
        errs.append(np.abs(res.solution.values.reshape(-1) - exact(f.nodes())).max())
    assert errs[1] <= 2e-4
    assert errs[0] / errs[1] >= 2.0  # near second order for this smooth case


def test_manufactured_variable_exponent_1d():
    # pick a smooth profile with nonvanishing slope, build the source as the
    # pointwise operator value, and demand the solver reproduce the profile
    box = px.Box([0.0], [1.0])
    field = px.affine_exponent(2.0, [0.5], box)
    w = px.SmoothFunction(
        value=lambda pts: np.sin(2.0 * pts[:, 0]) + 2.0 * pts[:, 0],
        gradient=lambda pts: (2.0 * np.cos(2.0 * pts[:, 0]) + 2.0)[:, None],
        hessian=lambda pts: (-4.0 * np.sin(2.0 * pts[:, 0]))[:, None, None],
    )
    errs = []
    for cells in (64, 128, 256):
        probe = px.GridFunction.constant(box, cells, 0.0)
        nodes = probe.nodes()
        fvals = px.p_laplacian_pointwise(w, field, nodes)
        f = probe.like(fvals)
        res = px.solve_dirichlet(px.ProblemSpec(box, field, f, lambda p: w.value(p),
                                                reg_eps=1e-10, tol=1e-10))
        assert res.converged, res.message
        errs.append(np.abs(res.solution.values.reshape(-1) - w.value(nodes)).max())
    # consistent scheme: errors shrink under refinement at first order or better
    assert errs[2] <= 5e-4
    assert errs[0] / errs[2] >= 3.0


def test_manufactured_variable_exponent_2d():
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    field = px.affine_exponent(2.2, [0.3, -0.2], box)

    def value(pts):
        return pts[:, 0] ** 2 + 0.5 * pts[:, 1] + 1.0

    def gradient(pts):
        g = np.zeros_like(pts)
        g[:, 0] = 2.0 * pts[:, 0]
        g[:, 1] = 0.5
        return g

    def hessian(pts):
        H = np.zeros((pts.shape[0], 2, 2))
        H[:, 0, 0] = 2.0
        return H

    w = px.SmoothFunction(value, gradient, hessian)
    errs = []
    for cells in (16, 32):
        probe = px.GridFunction.constant(box, cells, 0.0)
        nodes = probe.nodes()
        fvals = px.p_laplacian_pointwise(w, field, nodes)
        f = probe.like(fvals)
        res = px.solve_dirichlet(px.ProblemSpec(box, field, f, value,
                                                reg_eps=1e-10, tol=1e-9))
        assert res.converged, res.message
        errs.append(np.abs(res.solution.values.reshape(-1) - value(nodes)).max())
    assert errs[1] <= 5e-3
    assert errs[0] / errs[1] >= 1.5
