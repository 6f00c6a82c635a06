import dataclasses
import itertools
import json
import logging
import os
import statistics
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import brentq
from hypothesis import given
from hypothesis import strategies as st

import pxlap as px
import pxlap.solver as solver
from conftest import (cell_major, cell_major_idx, grid_1d, pointwise_reference,
                      reference_corner_gradients, reference_gradient, reference_hat_norms,
                      reference_warm_start)
from pxlap.norms import log_luxemburg
from pxlap.quadrature import CellGeometry
from pxlap.solver import _Lattice, _lattice


def problem_1d(lo, hi, cells, p, f_const, dirichlet, **kw):
    box = px.Box([lo], [hi])
    f = px.GridFunction.constant(box, cells, f_const)
    field = px.constant_exponent(p, domain=box)
    return px.ProblemSpec(box, field, f, dirichlet, **kw)


# -- energy -------------------------------------------------------------------

def test_energy_zero_field_zero_source():
    box = px.Box([0.0], [1.0])
    u = px.GridFunction.constant(box, 32, 0.0)
    f = px.GridFunction.constant(box, 32, 0.0)
    field = px.constant_exponent(2.0)
    assert px.energy(u, field, f, reg_eps=0.0) == 0.0
    # with regularization only the eps^p/p term survives
    assert px.energy(u, field, f, reg_eps=0.1) == pytest.approx(0.1**2 / 2.0, rel=1e-12)


def test_energy_on_a_lattice_without_interior_nodes():
    # One cell, u = x: every corner gradient is (1, 0), so the p = 2 energy
    # is vol |g|^2 / 2 = 1/2, and the operator has no unknown and no band.
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    u = px.GridFunction.from_callable(box, 1, lambda pts: pts[:, 0])
    f = u.like(np.zeros(u.dims))
    assert px.energy(u, px.constant_exponent(2.0, domain=box), f) == 0.5
    lat = _lattice(u, px.constant_exponent(2.0, domain=box), f)[0]
    assert lat.interior.size == lat.bandwidth == len(lat.pairs) == 0


def test_energy_linear_p2():
    u = grid_1d(0.0, 1.0, 64, lambda x: x)
    f = grid_1d(0.0, 1.0, 64, lambda x: np.zeros_like(x))
    assert px.energy(u, px.constant_exponent(2.0), f) == pytest.approx(0.5, rel=1e-12)


def test_energy_steeper_gradient_p4():
    u = grid_1d(0.0, 1.0, 64, lambda x: 2.0 * x)
    f = grid_1d(0.0, 1.0, 64, lambda x: np.zeros_like(x))
    assert px.energy(u, px.constant_exponent(4.0), f) == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("reg_eps", [np.nan, -1e-3, np.inf], ids=["nan", "negative", "inf"])
def test_energy_rejects_bad_reg_eps(reg_eps):
    # A NaN would drop the gradient term (w > 0 is False for NaN) and leave the
    # source term alone, -0.328 here instead of 0.703; a negative one is squared.
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    u = px.GridFunction.from_callable(box, 8, lambda pts: np.sin(3.0 * pts[:, 0]) * pts[:, 1])
    f = px.GridFunction.constant(box, 8, -1.0)
    field = px.constant_exponent(1.5, domain=box)
    assert px.energy(u, field, f) == pytest.approx(0.703, abs=5e-4)
    with pytest.raises(ValueError, match=r"reg_eps must be finite and >= 0, got"):
        px.energy(u, field, f, reg_eps=reg_eps)


def test_energy_lattice_mismatch():
    u = grid_1d(0.0, 1.0, 64, lambda x: x)
    f = grid_1d(0.0, 1.0, 32, lambda x: np.zeros_like(x))
    with pytest.raises(ValueError, match="lattice"):
        px.energy(u, px.constant_exponent(2.0), f)


# -- solve --------------------------------------------------------------------

def test_solve_p2_parabola():
    spec = problem_1d(0.0, 1.0, 256, 2.0, -2.0, 0.0, reg_eps=0.0, tol=1e-9)
    res = px.solve_dirichlet(spec)
    x = spec.rhs.nodes()[:, 0]
    assert res.converged
    assert np.abs(res.solution.values - x * (1 - x)).max() <= 5.0 / 256**2


def test_solve_p4_linear():
    spec = problem_1d(0.0, 1.0, 128, 4.0, 0.0, lambda pts: pts[:, 0],
                      reg_eps=1e-8, tol=1e-9)
    res = px.solve_dirichlet(spec)
    x = spec.rhs.nodes()[:, 0]
    assert res.converged
    assert np.abs(res.solution.values - x).max() <= 1e-10


def test_solve_p3_symmetric_source():
    # (|u'| u')' = 1 on (-1, 1), u(+-1) = 0 integrates to |u'| u' = x, so
    # u = (2/3)(|x|^(3/2) - 1).
    spec = problem_1d(-1.0, 1.0, 512, 3.0, 1.0, 0.0, reg_eps=1e-8, tol=1e-9)
    res = px.solve_dirichlet(spec)
    x = spec.rhs.nodes()[:, 0]
    exact = (2.0 / 3.0) * (np.abs(x) ** 1.5 - 1.0)
    assert res.converged
    rel = np.abs(res.solution.values - exact).max() / np.abs(exact).max()
    assert rel <= 1e-3


def test_solve_singular_exponent():
    # p = 1.5: the flux |u'|^(-1/2) u' integrates to 1/2 - x, so
    # u = (1/8^... ) closed form (0.125 - |x - 1/2|^3) / 3.
    spec = problem_1d(0.0, 1.0, 256, 1.5, -1.0, 0.0, reg_eps=1e-8, tol=1e-8,
                      max_iter=200)
    res = px.solve_dirichlet(spec)
    assert res.converged, res.message
    x = spec.rhs.nodes()[:, 0]
    exact = (0.125 - np.abs(x - 0.5) ** 3) / 3.0
    assert np.abs(res.solution.values - exact).max() / exact.max() <= 1e-3


def test_energy_trace_nonincreasing():
    for p, reg in ((3.0, 1e-8), (1.5, 1e-8)):
        spec = problem_1d(-1.0, 1.0, 128, p, 1.0, 0.0, reg_eps=reg, tol=1e-10)
        res = px.solve_dirichlet(spec)
        tr = np.asarray(res.energy_trace)
        assert np.all(np.diff(tr) <= 1e-12 * np.maximum(1.0, np.abs(tr[:-1])))


def test_increasing_energy_trace_is_a_solver_error():
    u = px.GridFunction.constant(px.Box([0.0], [1.0]), 4, 0.0)
    with pytest.raises(solver.SolverError, match=r"entry 2 is 1\.5 after 1\.0"):
        px.SolveResult(u, [2.0, 1.0, 1.5, 0.5], 0.0, 3, True)
    # rises inside the relative 1e-12 slack are accepted
    px.SolveResult(u, [1.0, 1.0 + 1e-13, 0.5], 0.0, 2, True)


def test_solve_nonconvergence_reports():
    spec = problem_1d(-1.0, 1.0, 128, 3.0, 1.0, 0.0, reg_eps=1e-8, tol=1e-14,
                      max_iter=1)
    res = px.solve_dirichlet(spec)
    if not res.converged:
        assert res.message
        assert res.residual > 1e-14


def test_discrete_comparison_bounds():
    # f = 0 with boundary data in [a, b] keeps interior values in [a, b]
    # up to the regularization tolerance.
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.constant(box, 16, 0.0)
    field = px.constant_exponent(2.0, domain=box)
    bdry = lambda pts: 1.0 + 0.5 * np.sin(6.0 * pts[:, 0]) * (pts[:, 1] > 0.5)
    spec = px.ProblemSpec(box, field, f, bdry, reg_eps=0.0, tol=1e-9)
    res = px.solve_dirichlet(spec)
    g = spec.dirichlet_values()[res.solution.boundary_mask()]
    tol_c = 1e-9
    assert res.solution.values.min() >= g.min() - tol_c
    assert res.solution.values.max() <= g.max() + tol_c


def test_smoothing_scale_reads_every_axis():
    # The Newton-matrix smoothing starts at 0.1 G, G the largest corner
    # gradient norm of the start over all axes: a steep ramp along y and the
    # same ramp along x get the same G, hence the same iterations and
    # mirrored solutions.  0.1 G exceeds reg_eps, so it is the first step's
    # eps_h.
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.constant(box, 12, -1.0)
    field = px.constant_exponent(3.0, domain=box)
    results, scales = [], []
    for ramp in (lambda pts: 40.0 * pts[:, 1], lambda pts: 40.0 * pts[:, 0]):
        spec = px.ProblemSpec(box, field, f, ramp, reg_eps=1e-8, tol=1e-8)
        results.append(px.solve_dirichlet(spec))
        start, first = results[-1].history[:2]
        assert first["eps_h"] == 0.1 * start["G"]
        scales.append(first["eps_h"])
    along_y, along_x = results
    assert scales[0] == pytest.approx(scales[1], rel=1e-12)
    assert scales[0] >= 3.0
    assert along_y.converged and along_x.converged
    assert along_y.iterations == along_x.iterations
    assert np.abs(along_y.solution.values - along_x.solution.values.T).max() <= 1e-10


def full_eps_ladder(spec, G):
    """The continuation ladder run down to 1e-300 G, as if it did not stop at 1e-12 G."""
    if spec.field.p1 >= 2.0 or spec.reg_eps >= 1e-3 * G:
        return [spec.reg_eps]
    stages, e = [], 1e-2 * G
    while e > max(spec.reg_eps, 1e-300 * G) * 10.0:
        stages.append(e)
        e *= 0.01
    return stages + [spec.reg_eps]


def test_zero_reg_eps_ladder_stops_at_the_hessian_floor():
    # Below 1e-12 G the Newton matrix no longer changes with eps, so the
    # stages the ladder leaves out there take no Newton step.
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.constant(box, 16, -1.0)
    spec = px.ProblemSpec(box, px.constant_exponent(1.5, domain=box), f, 0.0, reg_eps=0.0)
    res = px.solve_dirichlet(spec)
    assert res.converged and res.residual <= spec.tol
    G = res.history[0]["G"]
    stages = solver._eps_schedule(spec, G)
    assert len(stages) <= 7 and stages[-1] == 0.0 and stages[-2] > 1e-12 * G
    ladder = full_eps_ladder(spec, G)
    assert len(ladder) == 150 and ladder[:len(stages) - 1] == stages[:-1]
    lat, src = _lattice(f, spec.field, f)
    u, corners, s = solver._ray_start(spec, lat, src)
    record = {"scale": s, "G": G, "energy": lat.energy(u, corners, ladder[0], src)}
    old = solver._newton(f, lat, src, [u, corners], ladder, spec.tol, spec.max_iter, [record])
    assert old.converged and res.iterations == old.iterations


@pytest.mark.parametrize("lo, hi, cells, dims", [
    ([0.0], [1.0], 1, r"\(2,\)"),
    ([0.0, 0.0], [1.0, 1.0], (1, 4), r"\(2, 5\)"),
], ids=["1d", "2d"])
def test_lattice_without_interior_is_rejected(lo, hi, cells, dims):
    box = px.Box(lo, hi)
    f = px.GridFunction.constant(box, cells, -1.0)
    with pytest.raises(ValueError, match=f"lattice dims {dims} have no interior node"):
        px.ProblemSpec(box, px.constant_exponent(2.0, domain=box), f)


@pytest.mark.parametrize("name, value, message", [
    ("reg_eps", np.nan, r"reg_eps must be finite and >= 0, got nan"),
    ("reg_eps", np.inf, r"reg_eps must be finite and >= 0, got inf"),
    ("tol", np.inf, r"tol must be finite and positive, got inf"),
    ("max_iter", 2.5, r"max_iter must be a positive integer, got 2\.5"),
    ("max_iter", -3, r"max_iter must be a positive integer, got -3"),
    ("rhs", np.nan, r"rhs must be finite at every node"),
    ("reg_eps", True, r"reg_eps must be finite and >= 0, got True"),
    ("tol", True, r"tol must be finite and positive, got True"),
    ("max_iter", True, r"max_iter must be a positive integer, got True"),
], ids=["reg_eps-nan", "reg_eps-inf", "tol-inf", "max_iter-fraction", "max_iter-negative",
        "rhs-nan", "reg_eps-bool", "tol-bool", "max_iter-bool"])
def test_problem_spec_rejects_bad_fields(name, value, message):
    # Each of these used to fail late or silently: a full iteration budget,
    # a stalled line search, a converged solve at tol = inf, a TypeError from
    # range, an empty budget, or a non-finite warm start.  A bool ran as the
    # number 1: reg_eps and tol 1.0, and a one-step solve.
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.constant(box, 8, -1.0)
    kw = {}
    if name == "rhs":
        f.values[3, 4] = value
    else:
        kw[name] = value
    with pytest.raises(ValueError, match=message):
        px.ProblemSpec(box, px.constant_exponent(2.0, domain=box), f, 0.0, **kw)


# -- p = 2 warm start -----------------------------------------------------------

@given(nodes=st.lists(st.integers(3, 12), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_warm_start_matches_band_reference(nodes, seed):
    rng = np.random.default_rng(seed)
    n = len(nodes)
    lo = rng.uniform(-1.0, 1.0, n)
    box = px.Box(lo, lo + rng.uniform(0.05, 5.0, n))
    cells = tuple(d - 1 for d in nodes)
    f = px.GridFunction.constant(box, cells, 0.0)
    f = f.like(rng.standard_normal(f.dims))
    data = f.like(rng.standard_normal(f.dims))
    spec = px.ProblemSpec(box, px.constant_exponent(2.0, domain=box), f, data)
    got = warm_start(spec)
    ref = reference_warm_start(spec)
    assert got.shape == ref.shape == f.dims
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())


def test_p2_solve_is_the_warm_start(monkeypatch):
    # p = 2 with a source and ramp data on an anisotropic box: the warm start
    # is already the discrete solution, and no band is ever factored.
    factors = count_calls(monkeypatch, solver.sla, "cholesky_banded")
    box = px.Box([0.0, -1.0, 0.5], [3.0, -0.6, 1.5])
    f = px.GridFunction.from_callable(box, (12, 5, 7), lambda pts: -1.0 + pts[:, 0] * pts[:, 2])
    ramp = lambda pts: 1.0 + 2.0 * pts[:, 0] - 30.0 * pts[:, 1] + 0.5 * pts[:, 2]
    spec = px.ProblemSpec(box, px.constant_exponent(2.0, domain=box), f, ramp, tol=1e-10)
    res = px.solve_dirichlet(spec)
    assert res.converged and res.iterations == 0
    assert factors == []
    assert px.weak_residual(res.solution, spec) <= spec.tol
    assert ray_start(spec)[1] == pytest.approx(1.0, abs=1e-12)


# -- the start on the ray of the warm start ---------------------------------------

def warm_start(spec):
    """The p = 2 warm start of spec, as a nodal array."""
    lat, src = _lattice(spec.rhs, spec.field, spec.rhs)
    return solver._laplace_warm_start(spec, lat.geo, src)


def ray_start(spec):
    """The start of a solve, the p = 2 warm start scaled along its ray, as
    (nodal array, scale s)."""
    lat, src = _lattice(spec.rhs, spec.field, spec.rhs)
    u, _, s = solver._ray_start(spec, lat, src)
    return u.reshape(spec.rhs.dims), s


def stages_of(spec, res):
    """The eps ladder of a solve of spec, on the scale G of its start record."""
    return solver._eps_schedule(spec, res.history[0]["G"])


@pytest.mark.parametrize("n_axes, p", [(1, 1.5), (2, 1.2), (2, 2.0), (2, 3.0), (3, 6.0),
                                        (2, "affine"), (3, "affine")])
def test_ray_start_matches_the_closed_form(n_axes, p):
    # Zero data, eps = 0: phi(s) = vol/2^n sum_k s^p_k |g_w|_k^p_k / p_k + s q,
    # q = sum_i m_i f_i w_i.  For constant p it is least at
    # s = (-q / (vol/2^n sum |g_w|^p))^(1/(p-1)), which is 1 for p = 2; for an
    # affine p with values on both sides of 2 at the root of phi', bracketed
    # and found by brentq.
    box = px.Box([0.0] * n_axes, [1.0] * n_axes)
    f = px.GridFunction.from_callable(box, {1: 40, 2: 12, 3: 6}[n_axes],
                                      lambda pts: -1.0 - 0.5 * np.cos(3.0 * pts.sum(axis=1)))
    field = (px.affine_exponent(1.3, [0.8, 0.5, 0.3][:n_axes], box) if p == "affine"
             else px.constant_exponent(p, domain=box))
    spec = px.ProblemSpec(box, field, f, 0.0, reg_eps=0.0)
    geo = CellGeometry.build(f)
    w = warm_start(spec).reshape(-1)
    q = float(np.sum(geo.node_weights * f.values.reshape(-1) * w))
    mags = np.linalg.norm(geo.corner_gradients(w), axis=0)
    if p == "affine":
        pk = field(f.nodes())[cell_major_idx(geo).T]
        assert pk.min() < 2.0 < pk.max()
        dphi = lambda s: geo.cell_vol / 2**n_axes * np.sum(mags**pk * s ** (pk - 1.0)) + q
        expected = brentq(dphi, 1e-3, 1e3, xtol=1e-14, rtol=1e-14)
    else:
        expected = (-q / (geo.cell_vol / 2**n_axes * np.sum(mags**p))) ** (1.0 / (p - 1.0))
    lat, src = _lattice(f, spec.field, f)
    u, (grads, sq), s = solver._ray_start(spec, lat, src)
    e2, e = lat.energy(w, lat.corners(w), 0.0, src), lat.energy(u, (grads, sq), 0.0, src)
    assert s == pytest.approx(expected, rel=1e-9 if p == "affine" else 1e-10)
    if p == 2.0:
        assert s == pytest.approx(1.0, abs=1e-12) and np.array_equal(u, w)
    np.testing.assert_allclose(u, s * w, rtol=1e-15)
    np.testing.assert_allclose(grads, geo.corner_gradients(u), rtol=1e-13, atol=1e-13)
    assert e <= e2


@given(n=st.integers(1, 3), p=st.floats(1.2, 6.0), ramp=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_ray_start_never_raises_the_energy(n, p, ramp, seed):
    # Zero or ramp data and a source of either sign: the start keeps the data
    # and its energy at eps = 0 is not above that of the p = 2 start.
    rng = np.random.default_rng(seed)
    box = px.Box(np.zeros(n), np.ones(n))
    f = px.GridFunction.constant(box, tuple(rng.integers(3, {1: 30, 2: 10, 3: 6}[n], size=n)), 0.0)
    f = f.like(rng.uniform(-2.0, 1.0, f.dims))
    slope = rng.uniform(-5.0, 5.0, n)
    data = (lambda pts: 0.5 + pts @ slope) if ramp else 0.0
    field = px.constant_exponent(p, domain=box)
    spec = px.ProblemSpec(box, field, f, data)
    u2 = f.like(warm_start(spec))
    start, s = ray_start(spec)
    assert s >= 0.0
    bmask = f.boundary_mask()
    assert np.array_equal(start[bmask], u2.values[bmask])
    before = px.energy(u2, field, f)
    assert px.energy(f.like(start), field, f) <= before + 1e-12 * abs(before)


@given(n=st.integers(1, 3), p=st.floats(2.0, 5.0), source=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_ray_start_is_homogeneous(n, p, source, seed):
    # Constant p, reg_eps = 0: E(t v; t^(p-1) f) = t^p E(v; f).  The p = 2 start
    # is linear in (f, g), so its ray scales with t when f = 0 or g = 0, and
    # the start with source t^(p-1) f and data t g is t times that with f and g.
    rng = np.random.default_rng(seed)
    box = px.Box(np.zeros(n), np.ones(n))
    f = px.GridFunction.constant(box, tuple(rng.integers(3, {1: 30, 2: 10, 3: 6}[n], size=n)), 0.0)
    values = rng.uniform(-2.0, 1.0, f.dims)
    f, g = (f.like(values), f) if source else (f, f.like(values))
    field = px.constant_exponent(p, domain=box)
    start = ray_start(px.ProblemSpec(box, field, f, g, reg_eps=0.0))[0]
    for t in (1e-3, 1e-1, 10.0, 1e3):
        spec = px.ProblemSpec(box, field, f.like(t ** (p - 1.0) * f.values),
                              g.like(t * g.values), reg_eps=0.0)
        np.testing.assert_allclose(ray_start(spec)[0], t * start, rtol=1e-12,
                                   atol=1e-12 * t * np.abs(start).max())


@given(n=st.integers(1, 3), p=st.floats(1.2, 6.0), c=st.floats(-1e3, 1e3),
       seed=st.integers(0, 2**32 - 1))
def test_ray_start_moves_with_constant_data(n, p, c, seed):
    # E(u + c) = E(u) + c sum_i m_i f_i, so constant data c give the start of
    # zero data moved by c.
    rng = np.random.default_rng(seed)
    box = px.Box(np.zeros(n), np.ones(n))
    f = px.GridFunction.constant(box, tuple(rng.integers(3, {1: 30, 2: 10, 3: 6}[n], size=n)), 0.0)
    f = f.like(rng.uniform(-2.0, 1.0, f.dims))
    field = px.constant_exponent(p, domain=box)
    zero, s0 = ray_start(px.ProblemSpec(box, field, f, 0.0))
    moved, s = ray_start(px.ProblemSpec(box, field, f, c))
    assert s == pytest.approx(s0, rel=1e-9, abs=1e-12)
    np.testing.assert_allclose(moved - c, zero, rtol=0.0,
                               atol=1e-9 * (abs(c) + np.abs(zero).max()))


def two_energy_candidates(spec, lat, src):
    """The candidates of the ray start by its first rule, each as ((u,
    corners, s), energy at eps = 0): the ray point first, then u2.  That rule
    took the warm start's residual from the pairing of the lifted data's
    corner gradients, and evaluated both energies in full; it kept the ray
    point when its energy was at most u2's.  Nonconstant data have u2 alone,
    with energy None."""
    geo = lat.geo
    data = spec.dirichlet_values()
    g0 = data.flat[0]
    nodal = data - g0
    inner = tuple(slice(1, -1) for _ in geo.dims)
    nodal[inner] = 0.0
    r = (geo.flux_pairing(geo.corner_gradients(nodal)) + src).reshape(geo.dims)[inner]
    eigs = [4.0 * np.sin(0.5 * np.pi * np.arange(1, N + 1) / (N + 1)) ** 2 / h**2
            for N, h in zip(r.shape, geo.spacing)]
    r = solver._sine_transform(r)
    r /= geo.cell_vol * sum(np.ix_(*eigs))
    data[inner] = g0 - solver._sine_transform(r)
    u2 = data.reshape(-1)
    g2, S = corners2 = lat.corners(u2)
    if np.any(np.delete(u2, lat.interior) != g0):
        return [((u2, corners2, 1.0), None)]
    w = u2 - g0
    q = float(src @ w)
    s = 0.0
    if q < 0.0:
        keep = S > 0.0
        p = lat.p_corner[keep]
        log_c = np.log(geo.cell_vol / lat.nc / -q) + 0.5 * p * np.log(S[keep])
        t, _ = log_luxemburg((p - 1.0)[None, :], log_c[None, :], px.NormConfig())
        s = float(np.exp(-t[0]))
    u, corners = g0 + s * w, (g2 * s, S * (s * s))
    return [((u, corners, s), lat.energy(u, corners, 0.0, src)),
            ((u2, corners2, 1.0), lat.energy(u2, corners2, 0.0, src))]


def same_start(a, b):
    """Whether two starts (u, (g, |g|^2), s) are equal byte for byte."""
    (u, (g, sq), s), (v, (h, tq), t) = a, b
    return type(s) is type(t) is float and s.hex() == t.hex() and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in ((u, v), (g, h), (sq, tq)))


@given(cells=st.lists(st.integers(2, 16), min_size=1, max_size=3),
       p=st.one_of(st.just(2.0), st.floats(1.1, 6.0)),
       data=st.sampled_from(["zero", "constant", "ramp"]), seed=st.integers(0, 2**32 - 1))
def test_ray_start_keeps_the_bytes_of_the_two_energy_rule(cells, p, data, seed):
    # The ray point is kept by one pass over the kept corners, not by two
    # energies at eps = 0, and the warm start of constant data skips the
    # pairing of a zero array; the start (u, corners, s) keeps its bytes.
    # The rules part only on a tie: at p = 2, s is 1 to rounding and the
    # two energies are equal but for the rounding of their terms, which the
    # first rule read as a rise (1d, 2 cells: s = 1 - 2^-52, energies
    # -0.08167218009691367 and -0.0816721800969137, so it kept u2).  The
    # start is then the other candidate.
    rng = np.random.default_rng(seed)
    n = len(cells)
    lo = rng.uniform(-1.0, 1.0, n)
    box = px.Box(lo, lo + rng.uniform(0.1, 3.0, n))
    f = px.GridFunction.constant(box, tuple(cells), 0.0)
    f = f.like(rng.uniform(-2.0, 1.0, f.dims) * (rng.random(f.dims) < 0.9))  # -0.0 too
    slope = rng.uniform(-5.0, 5.0, n)
    dirichlet = {"zero": 0.0, "constant": float(rng.uniform(-10.0, 10.0)),
                 "ramp": lambda pts: 0.5 + pts @ slope}[data]
    spec = px.ProblemSpec(box, px.constant_exponent(p, domain=box), f, dirichlet)
    lat, src = _lattice(f, spec.field, f)
    got = solver._ray_start(spec, lat, src)
    candidates = two_energy_candidates(spec, lat, src)
    assert len(candidates) == (1 if data == "ramp" else 2)
    pick = 1 if len(candidates) == 2 and candidates[0][1] > candidates[1][1] else 0
    if not same_start(got, candidates[pick][0]):
        (_, e_ray), ((u2, _, _), e2) = candidates
        assert p == 2.0 and abs(e_ray - e2) <= 1e-15 * (abs(e2) + float(np.abs(src) @ np.abs(u2)))
        assert same_start(got, candidates[1 - pick][0])


@pytest.mark.parametrize("n_axes", [1, 2, 3])
def test_constant_data_is_its_own_start(n_axes):
    # At reg_eps = 0 the flux |g|^(p-1) of a rounding-sized corner gradient is
    # far above tol for p near 1 ((1e-16)^0.2 = 6e-4), so the start must be
    # the constant data exactly and its corner gradients exact zeros; it then
    # converges with no Newton step and a weak residual of 0, on a unit and
    # on an anisotropic lattice.  Its scale G is 0, so the ladder is the one
    # stage reg_eps = 0 and the Newton matrix, which needs eps_h > 0, is never
    # built; no warning is raised either (every warning an error, as under
    # -W error).
    for hi, cells, c in (([1.0] * 3, (9, 9, 9), 0.3), ([1.0, 2.0, 0.5], (9, 6, 4), 1e8)):
        box = px.Box([0.0] * n_axes, hi[:n_axes])
        f = px.GridFunction.constant(box, cells[:n_axes], 0.0)
        spec = px.ProblemSpec(box, px.constant_exponent(1.2, domain=box), f, c, reg_eps=0.0)
        assert ray_start(spec)[1] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = px.solve_dirichlet(spec)
        assert res.converged and res.iterations == 0 and res.message == ""
        assert res.history == [{"scale": 0.0, "G": 0.0, "energy": res.energy_trace[0]}]
        assert stages_of(spec, res) == [0.0]
        assert np.all(res.solution.values == c)
        assert res.residual == 0.0 == px.weak_residual(res.solution, spec)


@pytest.mark.parametrize("n_axes, p", [(1, 1.5), (2, 3.0), (3, 6.0)])
def test_nonconstant_data_start_at_the_warm_start(n_axes, p):
    # Ramp data and a strong source, where scaling the interior of u2 against
    # the fixed boundary values would lower the energy: the start is u2 itself.
    box = px.Box([0.0] * n_axes, [1.0] * n_axes)
    f = px.GridFunction.from_callable(
        box, {1: 40, 2: 12, 3: 6}[n_axes],
        lambda pts: -10.0 * (1.0 + 0.5 * np.cos(3.0 * pts.sum(axis=1))))
    ramp = lambda pts: 0.5 + pts[:, 0]
    spec = px.ProblemSpec(box, px.constant_exponent(p, domain=box), f, ramp)
    lat, src = _lattice(f, spec.field, f)
    u2 = warm_start(spec).reshape(-1)
    u, (grads, sq), s = solver._ray_start(spec, lat, src)
    assert np.array_equal(u, u2) and s == 1.0
    np.testing.assert_array_equal(grads, lat.geo.corner_gradients(u2))
    # the solve's start record: s, G from u2's corners and u2's first stage energy
    G = float(np.sqrt(sq.max()))
    record = px.solve_dirichlet(dataclasses.replace(spec, max_iter=1)).history[0]
    eps = solver._eps_schedule(spec, G)[0]
    assert record == {"scale": 1.0, "G": G, "energy": lat.energy(u2, (grads, sq), eps, src)}


def test_start_record_per_solve():
    spec = cos_problem()
    res = px.solve_dirichlet(spec)
    starts = [r for r in res.history if "scale" in r]
    assert starts == res.history[:1] and res.converged
    record = starts[0]
    assert list(record) == ["scale", "G", "energy"]
    start, s = ray_start(spec)
    assert record["scale"] == s and 0.0 < s < 1.0
    lat, src = _lattice(spec.rhs, spec.field, spec.rhs)
    corners = lat.corners(start)
    assert record["G"] == float(np.sqrt(corners[1].max())) > 0.0
    eps = stages_of(spec, res)[0]
    assert eps == 1e-2 * record["G"]
    u2 = warm_start(spec).reshape(-1)
    assert record["energy"] < lat.energy(u2, lat.corners(u2), eps, src)
    assert res.energy_trace[0] == record["energy"]


def test_long_1d_warm_start_memory_is_linear():
    # A dense sine basis would take 8 N^2 bytes on this lattice (3.2 GB); the
    # FFT takes a few arrays of the lattice's size.  The 3-point Laplacian is
    # exact on the parabola, so only rounding separates the two.
    box = px.Box([0.0], [1.0])
    f = px.GridFunction.constant(box, 20000, -2.0)
    spec = px.ProblemSpec(box, px.constant_exponent(2.0, domain=box), f, 0.0, reg_eps=0.0)
    geo = CellGeometry.build(f)
    src = geo.node_weights * f.values.reshape(-1)
    tracemalloc.start()
    try:
        u = solver._laplace_warm_start(spec, geo, src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * f.values.nbytes
    x = f.nodes()[:, 0]
    assert np.abs(u - x * (1.0 - x)).max() <= 1e-12


def test_anisotropic_lattice_gets_the_short_band():
    # The unknowns run along the longest axis outermost, so a 6 x 24 lattice
    # and its transpose get the same half-bandwidth (5 inner nodes + 1), the
    # same Newton iterations and mirrored solutions.
    results, bandwidths = [], []
    for cells, hi in (((6, 24), [1.0, 4.0]), ((24, 6), [4.0, 1.0])):
        box = px.Box([0.0, 0.0], hi)
        f = px.GridFunction.from_callable(box, cells, lambda pts: -1.0 - pts[:, 0] * pts[:, 1])
        field = px.affine_exponent(2.5, [0.1, 0.1], box)
        spec = px.ProblemSpec(box, field, f, 0.0, reg_eps=1e-8, tol=1e-8)
        results.append(px.solve_dirichlet(spec))
        bandwidths.append(_lattice(f, field, f)[0].bandwidth)
    tall, wide = results
    assert bandwidths == [6, 6]
    assert tall.converged and wide.converged
    assert tall.iterations == wide.iterations
    assert np.abs(tall.solution.values - wide.solution.values.T).max() <= 1e-10


def test_band_rows_pad_only_the_measured_half_bandwidths():
    # dpbtrf blocks only past 64 sub-diagonals, so half-bandwidths 52-64 get
    # 65 (66 rows); a 48^2 lattice (half-bandwidth 48, the verify-harness
    # problem) and a 16^3 one (241) keep bandwidth + 1, a 64^2 one (64) pads.
    assert solver._PAD_BANDWIDTH == (52, 64)
    rows = [solver._band_rows(bw) for bw in (48, 51, 52, 64, 65, 241)]
    assert rows == [49, 52, 66, 66, 66, 242]
    for n, cells, bandwidth, band_rows in ((2, 48, 48, 49), (2, 64, 64, 66), (3, 16, 241, 242)):
        box = px.Box([0.0] * n, [1.0] * n)
        f = px.GridFunction.constant(box, cells, 0.0)
        lat = _lattice(f, px.constant_exponent(1.5, domain=box), f)[0]
        assert (lat.bandwidth, lat.band_rows) == (bandwidth, band_rows)


# -- Newton matrix ---------------------------------------------------------------

def reference_hessian(lat, u_flat, reg_eps, eps_h):
    """Interior Newton matrix via the pointwise Hessian tensor, COO and slicing.

    The straightforward assembly, cell-major: the (ncells, 2^n, n, n)
    pointwise Hessians are sandwiched between corner stencils, summed into
    the full nodal matrix, and the interior rows and columns are sliced out.
    """
    eps = max(reg_eps, eps_h if eps_h is not None else 0.0)
    grads = reference_corner_gradients(lat.geo, u_flat)
    p = cell_major(lat.geo, lat.p_node)
    w = np.sqrt(np.sum(grads**2, axis=2) + eps**2)
    c1 = w ** (p - 2.0)
    c2 = (p - 2.0) * w ** (p - 4.0)
    eye = np.eye(lat.geo.n_axes)
    M = c1[:, :, None, None] * eye + c2[:, :, None, None] * (
        grads[:, :, :, None] * grads[:, :, None, :])
    G = lat.geo.grad_stencils
    blocks = np.einsum("akj,ckab,bkl->cjl", G, M, G) * (lat.geo.cell_vol / lat.nc)
    corner_idx = cell_major_idx(lat.geo)
    rows = np.repeat(corner_idx, lat.nc, axis=1).ravel()
    cols = np.tile(corner_idx, (1, lat.nc)).ravel()
    nn = u_flat.size
    full = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(nn, nn)).tocsr()
    return full[lat.interior][:, lat.interior].tocsc()


def random_state(n_axes, seed=0):
    """An operator with p in [1.3, 4.3], its source weights and a rough random iterate."""
    cells = {1: 16, 2: 8, 3: 4}[n_axes]
    rng = np.random.default_rng(seed)
    box = px.Box([0.0] * n_axes, [1.0] * n_axes)
    field = px.affine_exponent(1.3, rng.uniform(0.0, 3.0 / n_axes, n_axes), box)
    f = px.GridFunction.from_callable(box, cells, lambda pts: np.cos(3.0 * pts.sum(axis=1)))
    u = f.like(rng.standard_normal(f.dims))
    return (*_lattice(u, field, f), u.values.reshape(-1))


def newton_matrix(lat, u_flat, reg_eps, eps_h=None):
    """The band Newton matrix at u, smoothed as solve_dirichlet smooths it."""
    eps_h = max(reg_eps, eps_h if eps_h is not None else 0.0)
    return lat.band(lat.newton_diagonals(lat.corners(u_flat), eps_h))


def gradient_at(lat, src, u_flat, eps):
    return lat.gradient(lat.corners(u_flat), eps, src)


def energy_at(lat, src, u_flat, eps):
    return lat.energy(u_flat, lat.corners(u_flat), eps, src)


def band_to_dense(H):
    """Expand the lower band storage of the Newton matrix to a dense symmetric matrix."""
    bw, m = H.shape[0] - 1, H.shape[1]
    dense = np.zeros((m, m))
    for d in range(bw + 1):
        idx = np.arange(m - d)
        dense[idx + d, idx] = H[d, :m - d]
        dense[idx, idx + d] = H[d, :m - d]
    return dense


@pytest.mark.parametrize("n_axes", [1, 2, 3])
@pytest.mark.parametrize("reg_eps, eps_h", [(1e-8, None), (1e-3, 1e-1), (1e-2, 1e-4)])
def test_hessian_matches_reference_assembly(n_axes, reg_eps, eps_h):
    lat, _, u = random_state(n_axes)
    H = newton_matrix(lat, u, reg_eps, eps_h)
    ref = reference_hessian(lat, u, reg_eps, eps_h)
    bw = lat.bandwidth
    assert H.shape == (bw + 1, ref.shape[0])
    coo = ref.tocoo()
    assert np.abs(coo.col - coo.row).max() <= bw  # nothing outside the band
    assert np.abs(band_to_dense(H) - ref.toarray()).max() <= 1e-12 * np.abs(ref.data).max()
    # the band solve agrees with a sparse direct solve of the reference matrix
    rhs = np.random.default_rng(n_axes).standard_normal(ref.shape[0])
    x_ref = spla.spsolve(ref, rhs)
    factor = solver.sla.cholesky_banded(H, lower=True, overwrite_ab=True, check_finite=False)
    x = solver.sla.cho_solve_banded((factor, True), rhs, check_finite=False)
    assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()


@pytest.mark.parametrize("cells, bandwidth", [((2, 7), 1), ((7, 2), 1), ((2, 3, 4), 3),
                                               ((2, 2, 2), 0), ((1, 5), 0)])
def test_thin_lattice_band_matches_reference_assembly(cells, bandwidth):
    # An axis with a single interior node (2 cells) or none (1 cell): the
    # corner pairs that differ along it have no cell with both corners
    # interior and fill nothing, so the band and the diagonal products hold
    # only the couplings along the other axes.
    n = len(cells)
    box = px.Box([0.0] * n, [1.0] * n)
    f = px.GridFunction.constant(box, cells, 0.0)
    lat = _lattice(f, px.affine_exponent(1.3, np.full(n, 1.0 / n), box), f)[0]
    rng = np.random.default_rng(n)
    u = rng.standard_normal(f.values.size)
    H = newton_matrix(lat, u, 1e-3)
    ref = reference_hessian(lat, u, 1e-3, None).toarray()
    assert lat.bandwidth == bandwidth and H.shape == (bandwidth + 1, ref.shape[0])
    scale = np.abs(ref).max(initial=0.0)
    assert np.abs(band_to_dense(H) - ref).max(initial=0.0) <= 1e-12 * scale
    x = rng.standard_normal(lat.interior.size)
    y = lat.hessian_vec(lat.newton_diagonals(lat.corners(u), 1e-3), x)
    assert np.abs(y - ref @ x).max(initial=0.0) <= 1e-12 * scale * np.abs(x).sum()


@pytest.mark.parametrize("n_axes", [1, 2, 3])
def test_hessian_is_derivative_of_gradient(n_axes):
    lat, src, u = random_state(n_axes, seed=1)
    interior = lat.interior
    H = band_to_dense(newton_matrix(lat, u, 0.05))
    step = 1e-6
    fd = np.empty_like(H)
    for col, node in enumerate(interior):
        e = np.zeros_like(u)
        e[node] = step
        fd[:, col] = (gradient_at(lat, src, u + e, 0.05)
                      - gradient_at(lat, src, u - e, 0.05))[interior] / (2.0 * step)
    assert np.abs(H - fd).max() <= 1e-6 * np.abs(H).max()


@pytest.mark.parametrize("n_axes, pad", [(n, pad) for pad in (False, True) for n in (1, 2, 3)],
                         ids=["1", "2", "3", "padded-1", "padded-2", "padded-3"])
def test_solve_spd_rejects_indefinite_band(n_axes, pad):
    # Shift the lowest eigenvalue below 0: the diagonal stays positive but the
    # band Cholesky meets a nonpositive pivot and must raise, not return NaN.
    # Padded to 65 sub-diagonals the band goes through dpbtrf's blocked path.
    lat, _, u = random_state(n_axes, seed=3)
    H = newton_matrix(lat, u, 0.05)
    eig = np.linalg.eigvalsh(band_to_dense(H))
    H[0] -= 0.5 * (eig[0] + eig[1])
    assert np.all(H[0] > 0.0)
    if pad:
        H = np.asfortranarray(np.vstack([H, np.zeros((66 - H.shape[0], H.shape[1]))]))
    with pytest.raises(np.linalg.LinAlgError):
        solver.sla.cholesky_banded(H, lower=True, overwrite_ab=True, check_finite=False)


def test_padded_band_factor_matches_the_unpadded_one():
    # An 8^3-cell lattice has half-bandwidth 57, so its band carries 8 zero
    # sub-diagonals past it.  Cholesky fill stays inside the band's envelope:
    # the padded factor is 0 there and the unpadded factor elsewhere, to
    # rounding, and so are its solves.
    box = px.Box([0.0] * 3, [1.0] * 3)
    f = px.GridFunction.from_callable(box, 8, lambda pts: np.cos(3.0 * pts.sum(axis=1)))
    lat = _lattice(f, px.affine_exponent(1.3, [1.0, 0.6, 0.3], box), f)[0]
    assert (lat.bandwidth, lat.band_rows) == (57, 66)
    u = np.random.default_rng(8).standard_normal(f.values.size)
    diagonals = lat.newton_diagonals(lat.corners(u), 1e-3)
    rows = lat.bandwidth + 1
    padded = solver.sla.cholesky_banded(lat.band(diagonals), lower=True, check_finite=False)
    plain = lat.band(diagonals, out=np.empty((rows, lat.interior.size), order="F"))
    plain = solver.sla.cholesky_banded(plain, lower=True, check_finite=False)
    assert padded.shape == (66, lat.interior.size) and np.all(padded[rows:] == 0.0)
    assert np.abs(padded[:rows] - plain).max() <= 1e-13 * np.abs(plain).max()
    rhs = np.random.default_rng(9).standard_normal(lat.interior.size)
    x_pad, x = (solver.sla.cho_solve_banded((c, True), rhs, check_finite=False)
                for c in (padded, plain))
    assert np.abs(x_pad - x).max() <= 1e-13 * np.abs(x).max()


@pytest.mark.parametrize("n_axes", [1, 2, 3])
@pytest.mark.parametrize("eps_h", [None, 1e-1])
def test_block_matvec_matches_band(n_axes, eps_h):
    lat, _, u = random_state(n_axes, seed=5)
    x = np.random.default_rng(n_axes).standard_normal(lat.interior.size)
    ref = band_to_dense(newton_matrix(lat, u, 1e-3, eps_h)) @ x
    diagonals = lat.newton_diagonals(lat.corners(u),
                                     max(1e-3, eps_h if eps_h is not None else 0.0))
    y = lat.hessian_vec(diagonals, x)
    assert np.abs(y - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n_axes", [1, 2, 3])
def test_gradient_is_derivative_of_energy(n_axes):
    lat, src, u = random_state(n_axes, seed=2)
    g = gradient_at(lat, src, u, 0.05)
    step = 1e-6
    fd = np.empty_like(g)
    for node in range(u.size):
        e = np.zeros_like(u)
        e[node] = step
        fd[node] = (energy_at(lat, src, u + e, 0.05)
                    - energy_at(lat, src, u - e, 0.05)) / (2.0 * step)
    assert np.abs(g - fd).max() <= 1e-6 * np.abs(g).max()


@pytest.mark.parametrize("n_axes", [1, 2, 3])
@pytest.mark.parametrize("reg_eps", [0.0, 1e-3])
def test_gradient_matches_reference_scatter(n_axes, reg_eps):
    lat, src, u = random_state(n_axes, seed=4)
    ref = reference_gradient(lat, u, reg_eps, src)
    assert np.abs(gradient_at(lat, src, u, reg_eps) - ref).max() <= 1e-13 * np.abs(ref).max()


def random_exponent(kind, n, rng):
    """Affine or radial p on the unit box, its range a random part of [1.2, 5]."""
    box = px.Box(np.zeros(n), np.ones(n))
    p_lo, p_hi = np.sort(rng.uniform(1.2, 5.0, 2))
    if kind == "affine":
        w = rng.uniform(-1.0, 1.0, n)
        w /= np.abs(w).sum()  # w . x spans at most an interval of length 1
        return px.affine_exponent(p_lo - np.minimum(w, 0.0).sum() * (p_hi - p_lo),
                                  (p_hi - p_lo) * w, box)
    center = rng.uniform(0.0, 1.0, n)
    r_max = max(float(np.linalg.norm(c - center)) for c in box.corners())
    if rng.uniform() < 0.5:
        return px.radial_exponent(center, p_lo, (p_hi - p_lo) / r_max, box)
    return px.radial_exponent(center, p_hi, (p_lo - p_hi) / r_max, box)


@given(n=st.integers(1, 3), kind=st.sampled_from(["affine", "radial"]),
       eps_h=st.sampled_from([0.0, 1e-6, 1e-1]), seed=st.integers(0, 2**32 - 1))
def test_derivatives_agree_on_random_fields(n, kind, eps_h, seed):
    # A rough iterate with flat patches, where whole cells have zero corner
    # gradients, under affine and radial p in [1.2, 5]:
    # - the Newton matrix matches the pointwise-Hessian reference assembly;
    # - the gradient matches a central difference of the energy, which is
    #   even in the step at a zero corner gradient, so exact there;
    # - hessian_vec matches a central difference of the gradient along a
    #   direction that keeps the flat cells flat, away from the kink of
    #   |g|^(p-2) g that eps_h = 0 leaves there.
    # The Newton matrix needs eps_h > 0: at eps_h = 0 it is taken at 1e-12,
    # the least smoothing a solve whose start has G = 1 gives it.
    rng = np.random.default_rng(seed)
    field = random_exponent(kind, n, rng)
    box = px.Box(np.zeros(n), np.ones(n))
    cells = tuple(rng.integers(3, {1: 13, 2: 7, 3: 5}[n], size=n))
    f = px.GridFunction.constant(box, cells, 0.0)
    f = f.like(rng.uniform(-2.0, 1.0, f.dims))
    u = rng.standard_normal(f.dims)
    # patches of zeros: their corner gradients are exactly 0, where a patch at
    # another level can keep rounding-sized ones from the stencil product
    for _ in range(2):
        u[tuple(slice(i, i + 2) for i in rng.integers(0, cells))] = 0.0
    u = u.reshape(-1)
    assert 1.2 - 1e-12 <= field.p1 and field.p2 <= 5.0 + 1e-12

    lat, src = _lattice(f, field, f)
    interior = lat.interior
    corners = lat.corners(u)
    assert np.any(corners[1] == 0.0)

    eps_m = max(eps_h, 1e-12)
    H = band_to_dense(lat.band(lat.newton_diagonals(corners, eps_m)))
    ref = reference_hessian(lat, u, 0.0, eps_m).toarray()
    assert np.abs(H - ref).max() <= 1e-12 * np.abs(ref).max()

    g = gradient_at(lat, src, u, eps_h)
    step = 1e-6
    fd = np.empty_like(g)
    for node in range(u.size):
        e = np.zeros_like(u)
        e[node] = step
        fd[node] = (energy_at(lat, src, u + e, eps_h)
                    - energy_at(lat, src, u - e, eps_h)) / (2.0 * step)
    assert np.abs(g - fd).max() <= 1e-6 * np.abs(g).max()

    x = np.zeros_like(u)
    x[interior] = rng.standard_normal(interior.size)
    x[np.unique(cell_major_idx(lat.geo)[(corners[1] == 0.0).any(axis=0)])] = 0.0
    hv = lat.hessian_vec(lat.newton_diagonals(corners, eps_m), x[interior])
    fd = (gradient_at(lat, src, u + step * x, eps_h)
          - gradient_at(lat, src, u - step * x, eps_h))[interior] / (2.0 * step)
    assert np.abs(hv - fd).max() <= 1e-6 * np.abs(hv).max()


def bits(a):
    """The float64 array a as its bit patterns, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


@given(nodes=st.lists(st.integers(3, 9), min_size=1, max_size=3),
       kind=st.sampled_from(["affine", "radial"]), eps_h=st.sampled_from([1e-12, 1e-6, 1e-1]),
       seed=st.integers(0, 2**32 - 1))
def test_dirty_buffers_give_the_same_blocks_and_band(nodes, kind, eps_h, seed):
    # The Newton loop refills one array of Newton diagonals and one band per
    # solve.  Filled with NaN, or holding the band factor of the previous
    # step, they must come out bit for bit as a fresh fill, and the band as a
    # view of out.
    rng = np.random.default_rng(seed)
    n = len(nodes)
    f = px.GridFunction.constant(px.Box(np.zeros(n), np.ones(n)),
                                 tuple(d - 1 for d in nodes), 0.0)
    f = f.like(rng.uniform(-2.0, 1.0, f.dims))
    lat = _lattice(f, random_exponent(kind, n, rng), f)[0]
    corners = lat.corners(rng.standard_normal(f.values.size))

    fresh = lat.newton_diagonals(corners, eps_h)
    out = np.full_like(fresh, np.nan)
    assert lat.newton_diagonals(corners, eps_h, out=out) is out
    assert np.array_equal(bits(out), bits(fresh))

    band = lat.band(fresh)
    buf = np.full(band.shape[::-1], np.nan).T
    got = lat.band(fresh, out=buf)
    assert got.shape == band.shape and np.shares_memory(got, buf)
    assert np.array_equal(bits(got), bits(band))
    try:
        factor = solver.sla.cholesky_banded(got, lower=True, overwrite_ab=True,
                                            check_finite=False)
        assert np.shares_memory(factor, buf)  # factored in place
    except np.linalg.LinAlgError:
        buf.fill(-1.0)  # a refused factor may leave the band as it was
    assert not np.array_equal(bits(buf), bits(band))
    assert np.array_equal(bits(lat.band(fresh, out=buf)), bits(band))
    # Into a buffer with 3 more dirty rows than the band needs: exact zeros
    # there, and the band's bits in the rows up to the bandwidth.
    rows = lat.bandwidth + 1
    extra = np.full((band.shape[1], rows + 3), np.nan).T
    got = lat.band(fresh, out=extra)
    assert got.shape == (rows + 3, band.shape[1]) and np.shares_memory(got, extra)
    assert np.array_equal(bits(got[:rows]), bits(band[:rows]))
    assert np.array_equal(bits(got[rows:]), bits(np.zeros((3, band.shape[1]))))
    assert np.array_equal(bits(band[rows:]), bits(np.zeros_like(band[rows:])))


@given(nodes=st.lists(st.integers(3, 9), min_size=1, max_size=3),
       kind=st.sampled_from(["affine", "radial"]), eps=st.sampled_from([0.0, 1e-12, 1e-6, 1e-1]),
       seed=st.integers(0, 2**32 - 1))
def test_carried_coefficient_gives_the_fresh_gradient_and_blocks(nodes, kind, eps, seed):
    # An iterate's corners carry c1 = w^(p-2) at the stage eps (at_eps).  The
    # gradient from it must be bit for bit the one of the flux coefficient
    # taken afresh, and the Newton diagonals at eps_h = eps those of
    # sqrt(|g|^2 + eps_h^2)^(p-2); at another eps_h the carried c1 is not read.
    rng = np.random.default_rng(seed)
    n = len(nodes)
    f = px.GridFunction.constant(px.Box(np.zeros(n), np.ones(n)),
                                 tuple(d - 1 for d in nodes), 0.0)
    f = f.like(rng.uniform(-2.0, 1.0, f.dims))
    lat, src = _lattice(f, random_exponent(kind, n, rng), f)
    u = rng.standard_normal(f.values.size)
    u[: u.size // 2] = 0.5  # corners with g = 0
    grads, sq = lat.corners(u)
    carried = lat.at_eps((grads, sq), eps)
    assert carried[0] is grads and carried[1] is sq and carried[2] == eps
    assert lat.at_eps(carried, eps) is carried

    w = np.sqrt(sq + eps**2)
    with np.errstate(divide="ignore"):
        coef = np.where(w > 0, np.where(w > 0, w, 1.0) ** (lat.p_corner - 2.0), 0.0)
    fresh = lat.geo.flux_pairing(coef * grads) + src
    assert np.array_equal(bits(lat.gradient(carried, eps, src)), bits(fresh))
    assert np.array_equal(bits(lat.gradient((grads, sq), eps, src)), bits(fresh))
    if eps > 0.0:
        w2 = sq + eps**2
        c1 = np.sqrt(w2) ** (lat.p_corner - 2.0)
        assert np.array_equal(bits(carried[3]), bits(c1))
        assert np.array_equal(bits(lat.newton_diagonals(carried, eps)),
                              bits(lat.newton_diagonals((grads, sq), eps)))
    # a wrong c1 carried at eps is not read at another eps_h
    spoiled = (grads, sq, eps, np.zeros_like(sq))
    assert np.array_equal(bits(lat.newton_diagonals(spoiled, 1e-3)),
                          bits(lat.newton_diagonals((grads, sq), 1e-3)))


def block_and_pair_band(lat, corners, eps_h):
    """The band of the Newton matrix as (2^n, 2^n, ncells) cell blocks once
    gave it: every block entry (j, l) from one GEMM with the basis of all
    2^n x 2^n corner pairs, then each pair with c - r >= 0 and a box of
    cells with both corners interior added into its band row, in (j, l)
    order from zero."""
    geo, nc, n = lat.geo, lat.nc, lat.geo.n_axes
    G = geo.grad_stencils
    a, b = np.triu_indices(n)
    pair = np.einsum("akj,akl->kajl", G[a], G[b])
    pair = (pair + pair.transpose(0, 1, 3, 2)) * np.where(a == b, 0.5, 1.0)[:, None, None]
    basis = np.ascontiguousarray(pair.reshape(nc * a.size, nc * nc).T)
    basis *= geo.cell_vol / nc
    grads, sq, _, c1 = lat.at_eps(corners, eps_h)
    c2 = (lat.p_corner - 2.0) * c1 / (sq + eps_h**2)
    coef = np.empty((nc, a.size, sq.shape[1]))
    for col, (x, y) in zip(coef.transpose(1, 0, 2), zip(a.tolist(), b.tolist())):
        np.multiply(grads[x], grads[y], out=col)
        np.multiply(c2, col, out=col)
        if x == y:
            np.add(col, c1, out=col)
    blocks = np.empty((nc, nc, sq.shape[1]))
    np.matmul(basis, coef.reshape(-1, sq.shape[1]), out=blocks.reshape(nc * nc, -1))
    cells = blocks.reshape((nc, nc) + geo.cell_dims)

    inner = np.array(lat.unknowns)
    offsets = geo.corner_offsets[:, lat.axes]
    strides = np.cumprod((1,) + lat.unknowns[:0:-1])[::-1]
    band = np.zeros((lat.band_rows, lat.interior.size), order="F")
    rows = band.T.reshape(lat.unknowns + (lat.band_rows,))
    for j, oj in enumerate(offsets):
        for l, ol in enumerate(offsets):
            lo, hi = np.minimum(oj, ol), np.maximum(oj, ol)
            diag = int(strides @ (ol - oj))
            if diag >= 0 and np.all(hi - lo < inner):
                at = tuple(map(slice, oj - lo, inner + oj - hi)) + (diag,)
                box = tuple(map(slice, 1 - lo, inner + 1 - hi))
                rows[at] += cells[j, l].transpose(lat.axes)[box]
    return band


@given(nodes=st.lists(st.integers(2, 9), min_size=1, max_size=3),
       widths=st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=3, max_size=3),
       eps_h=st.sampled_from([1e-12, 1e-6, 1e-1]), seed=st.integers(0, 2**32 - 1))
def test_newton_diagonals_give_the_block_and_pair_band(nodes, widths, eps_h, seed):
    # On 1d-3d lattices, anisotropic in node counts and spacings, thin (an
    # axis of one interior node) or with no interior node at all:
    # - the band is bit for bit the one that the cell blocks assembled;
    # - hessian_vec, which reads each diagonal below the main one at two
    #   places, is the dense symmetric matrix of that band times x;
    # - x.Hy equals y.Hx to rounding.
    rng = np.random.default_rng(seed)
    n = len(nodes)
    box = px.Box(np.zeros(n), np.array(widths[:n]))
    f = px.GridFunction.constant(box, tuple(d - 1 for d in nodes), 0.0)
    field = px.affine_exponent(1.2, rng.uniform(0.0, 3.0, n) / np.array(widths[:n]) / n, box)
    lat = _lattice(f, field, f)[0]
    u = rng.standard_normal(f.values.size)
    u[: u.size // 3] = 0.5  # corners with g = 0
    corners = lat.corners(u)
    diagonals = lat.newton_diagonals(corners, eps_h)
    m = lat.interior.size
    assert diagonals.shape == (len(lat.diags), m) and lat.diags[0] == 0
    band = lat.band(diagonals)
    assert np.array_equal(bits(band), bits(block_and_pair_band(lat, corners, eps_h)))

    H = band_to_dense(band)
    x, y = rng.standard_normal((2, m))
    hx, hy = lat.hessian_vec(diagonals, x), lat.hessian_vec(diagonals, y)
    scale = np.abs(H).max(initial=0.0)
    assert np.abs(hx - H @ x).max(initial=0.0) <= 1e-13 * scale * np.abs(x).sum()
    assert abs(x @ hy - y @ hx) <= 1e-13 * scale * np.abs(x).sum() * np.abs(y).sum()


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 6.0])
@pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-2])
@pytest.mark.parametrize("n_axes", [1, 2, 3])
def test_energy_from_the_coefficient_is_the_power_form(n_axes, eps, p):
    # The energy density is c1 w^2 / p with c1 = w^(p-2), which is w^p / p up
    # to a few rounding errors per corner, and 0 at corners where w = 0.
    rng = np.random.default_rng(int(10 * p) + n_axes)
    box = px.Box(np.zeros(n_axes), np.ones(n_axes))
    f = px.GridFunction.constant(box, (24, 12, 6)[n_axes - 1], 0.0)
    f = f.like(rng.uniform(-2.0, 1.0, f.dims))
    lat, src = _lattice(f, px.affine_exponent(p, np.zeros(n_axes), box), f)
    u = rng.standard_normal(f.values.size)
    u[: u.size // 2] = 0.5  # corners with g = 0
    corners = lat.corners(u)
    assert np.any(corners[1] == 0.0)
    w = np.sqrt(corners[1] + eps**2)
    terms = np.concatenate([lat.geo.cell_vol / lat.nc
                            * np.where(w > 0, w**lat.p_corner, 0.0).ravel() / lat.p_corner.ravel(),
                            src * u])
    e = lat.energy(u, corners, eps, src)
    assert np.isfinite(e)
    assert abs(e - terms.sum()) <= 8 * np.finfo(float).eps * np.abs(terms).sum()


# -- hat norms --------------------------------------------------------------------

def exponent_in_band(kind, box):
    """Constant, affine or radial p with values in [1.3, 4.7] on a unit box."""
    n = box.lo.size
    if kind == "constant":
        return px.constant_exponent(1.3, domain=box)
    if kind == "affine":
        return px.affine_exponent(1.3, np.full(n, 3.4 / n), box)
    return px.radial_exponent(np.full(n, 0.5), 4.7, -3.4 / (0.5 * np.sqrt(n)), box)


@pytest.mark.parametrize("n_axes", [1, 2, 3])
@pytest.mark.parametrize("kind", ["constant", "affine", "radial"])
def test_hat_norms_match_reference_bisection(n_axes, kind):
    box = px.Box([0.0] * n_axes, [1.0] * n_axes)
    f = px.GridFunction.constant(box, {1: 16, 2: 8, 3: 4}[n_axes], -1.0)
    lat = _lattice(f, exponent_in_band(kind, box), f)[0]
    assert 1.3 - 1e-12 <= lat.p_node.min() and lat.p_node.max() <= 4.7 + 1e-12
    ref = reference_hat_norms(lat, lat.interior)
    assert np.abs(lat.hat_norms() - ref).max() <= 1e-9 * np.abs(ref).max()


def test_hat_norms_on_anisotropic_lattice():
    # The residual, the Newton unknowns and the hats share one order of the
    # interior nodes, longest axis outermost, which is not C order where the
    # dims do not fall: the hats match the reference taken in that order, and
    # the weak residual matches a reference taken in C order.
    for cells, hi in (((6, 24), [1.0, 4.0]), ((24, 6), [4.0, 1.0]),
                      ((5, 9, 3), [1.0, 2.0, 0.5])):
        n = len(cells)
        box = px.Box([0.0] * n, hi)
        field = px.affine_exponent(1.3, 1.5 / (n * np.array(hi)), box)
        f = px.GridFunction.from_callable(box, cells, lambda pts: -1.0 - pts[:, 0] * pts[:, 1])
        lat, src = _lattice(f, field, f)
        c_order = np.flatnonzero(~f.boundary_mask().reshape(-1))
        assert np.array_equal(np.sort(lat.interior), c_order)
        assert np.array_equal(lat.interior, c_order) == (list(cells) == sorted(cells)[::-1])
        ref = reference_hat_norms(lat, lat.interior)
        assert np.abs(lat.hat_norms() - ref).max() <= 1e-9 * np.abs(ref).max()

        spec = px.ProblemSpec(box, field, f, 0.0, reg_eps=1e-3)
        t = (f.nodes() - box.lo) / (box.hi - box.lo)
        u = f.like((np.sin(np.pi * t).prod(axis=1) * (1.0 + t[:, 0])).reshape(f.dims))
        g = reference_gradient(lat, u.values.reshape(-1), spec.reg_eps, src)
        expected = np.max(np.abs(g[c_order]) / reference_hat_norms(lat, c_order))
        assert px.weak_residual(u, spec) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("n_axes", [1, 2, 3])
@pytest.mark.parametrize("p", [1.3, 2.0, 4.7])
def test_hat_norms_constant_p_closed_form(n_axes, p):
    # Around an interior node each of the 2^n cells has one corner at the node,
    # where |grad phi| = |1/h|, and n corners one edge away along axis a, where
    # |grad phi| = 1/h_a; each corner weighs vol / 2^n.  With constant p the
    # gradient part is (vol / 2^n * sum |grad phi|^p)^(1/p), the value part vol^(1/p).
    box = px.Box([0.0] * n_axes, [1.0, 2.0, 0.5][:n_axes])
    f = px.GridFunction.constant(box, (12, 6, 4)[:n_axes], -1.0)
    lat = _lattice(f, px.constant_exponent(p, domain=box), f)[0]
    h = f.spacing
    vol = float(np.prod(h))
    grad_part = (vol * (np.sum(h**-2.0) ** (p / 2.0) + np.sum(h**-p))) ** (1.0 / p)
    norms = lat.hat_norms()
    assert np.abs(norms - (vol ** (1.0 / p) + grad_part)).max() <= 1e-12 * grad_part


def test_hat_norms_raise_typed_errors(monkeypatch):
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.constant(box, 8, -1.0)
    lat = _lattice(f, px.affine_exponent(1.3, [3.0, 0.4], box), f)[0]
    assert np.all(np.isfinite(lat.hat_norms()))
    # one Newton step on log lambda leaves every affine-p hat unconverged
    with monkeypatch.context() as m:
        m.setattr(solver, "log_luxemburg", lambda P, log_c, cfg: log_luxemburg(
            P, log_c, dataclasses.replace(cfg, max_iter=1)))
        with pytest.raises(solver.SolverError,
                           match=r"hat norms: 49 of 49 nodes .* did not meet bisection_tol"):
            _Lattice(f, lat.p_node).hat_norms()
    # the p of node (1, 1) enters the hats of (1, 1) and of its interior
    # neighbours (2, 1) and (1, 2) along the cell edges
    p_node = lat.p_node.copy()
    p_node[1 * 9 + 1] = np.nan
    with pytest.raises(solver.SolverError, match=r"hat norms: 3 of 49 nodes are not finite"):
        _Lattice(f, p_node).hat_norms()


def test_one_geometry_per_solve_and_per_weak_residual(geometry_builds):
    # the weak residual of a solution shares the solve's lattice data
    builds = geometry_builds
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.constant(box, 8, -1.0)
    spec = px.ProblemSpec(box, px.constant_exponent(1.5, domain=box), f, 0.0)
    res = px.solve_dirichlet(spec)
    assert res.converged and len(stages_of(spec, res)) > 1
    assert len(builds) == 1
    assert px.weak_residual(res.solution, spec) == res.residual
    assert len(builds) == 1


# -- lattice cache -----------------------------------------------------------------

def hat_norm_builds(monkeypatch):
    """The hat norms each _Lattice.hat_norms call of the test computed rather than reused."""
    real, built = _Lattice.hat_norms, []

    def counted(self, *args, **kwargs):
        kept = self.hats
        hat = real(self, *args, **kwargs)
        if self.hats is not kept:
            built.append(hat)
        return hat

    monkeypatch.setattr(_Lattice, "hat_norms", counted)
    return built


def test_same_lattice_and_p_build_nothing(monkeypatch, geometry_builds):
    # a second problem on the same lattice, with an equal but new field object
    # and another source, reuses the geometry, the band layout and the hat
    # norms; its results match a build from an empty cache
    hats = hat_norm_builds(monkeypatch)
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    field = px.affine_exponent(2.5, [0.3, 0.2], box)
    f1 = px.GridFunction.constant(box, 12, -1.0)
    spec1 = px.ProblemSpec(box, field, f1, 0.0)
    res1 = px.solve_dirichlet(spec1)
    assert px.weak_residual(res1.solution, spec1) == res1.residual
    assert len(geometry_builds) == 1 and len(hats) == 1
    f2 = f1.like(-1.0 - f1.nodes()[:, 0].reshape(f1.dims))
    spec2 = px.ProblemSpec(box, px.affine_exponent(2.5, [0.3, 0.2], box), f2, 0.0)
    res2 = px.solve_dirichlet(spec2)
    e2 = px.energy(res2.solution, spec2.field, f2)
    assert px.weak_residual(res2.solution, spec2) == res2.residual
    assert len(geometry_builds) == 1 and len(hats) == 1
    monkeypatch.setattr(solver, "_lattice_cache", None)
    fresh = px.solve_dirichlet(spec2)
    assert len(geometry_builds) == 2 and len(hats) == 2
    assert np.array_equal(fresh.solution.values, res2.solution.values)
    assert fresh.residual == res2.residual and fresh.iterations == res2.iterations
    assert px.energy(res2.solution, spec2.field, f2) == e2


def test_grid_exponent_changed_in_place_rebuilds(monkeypatch, geometry_builds):
    # grid_exponent closes over its GridFunction: after the values change in
    # place the same field object gives another p, so the cache must miss
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.constant(box, 10, -1.0)
    p = f.like(1.5 + f.nodes()[:, 0].reshape(f.dims))
    spec = px.ProblemSpec(box, px.grid_exponent(p), f, 0.0)
    x = f.nodes()
    u = f.like((np.sin(np.pi * x).prod(axis=1) * (1.0 + x[:, 0])).reshape(f.dims))
    before = px.weak_residual(u, spec)
    p.values[:] = p.values[::-1].copy()  # the same band, mirrored in x
    after = px.weak_residual(u, spec)
    assert len(geometry_builds) == 2
    assert after != before
    monkeypatch.setattr(solver, "_lattice_cache", None)
    assert px.weak_residual(u, spec) == after


@pytest.mark.parametrize("moved", ["origin", "spacing"])
def test_changed_origin_or_spacing_rebuilds(moved, monkeypatch, geometry_builds):
    # constant p has the same nodal values on every lattice, so only the
    # lattice part of the key tells these problems apart
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    other = px.Box([0.5, 0.0], [1.5, 1.0]) if moved == "origin" else px.Box([0.0, 0.0], [2.0, 1.0])
    residuals = []
    for b in (box, other):
        f = px.GridFunction.constant(b, 8, -1.0)
        spec = px.ProblemSpec(b, px.constant_exponent(3.0), f, 0.0)
        u = f.like(np.sin(np.pi * (f.nodes() - b.lo) / (b.hi - b.lo)).prod(axis=1).reshape(f.dims))
        residuals.append(px.weak_residual(u, spec))
    assert len(geometry_builds) == 2
    monkeypatch.setattr(solver, "_lattice_cache", None)
    assert px.weak_residual(u, spec) == residuals[1]
    assert (residuals[1] == residuals[0]) == (moved == "origin")


def test_cached_lattice_arrays_are_read_only():
    box = px.Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    f = px.GridFunction.constant(box, 4, -1.0)
    spec = px.ProblemSpec(box, px.affine_exponent(2.5, [0.3, 0.2, 0.1], box), f, 0.0)
    res = px.solve_dirichlet(spec)
    lat = _lattice(res.solution, spec.field, f)[0]
    assert lat is solver._lattice_cache
    geo = lat.geo
    arrays = [geo.spacing, geo.corner_offsets, geo.grad_stencils, geo.node_weights,
              geo.origin, lat.p_node, lat.p_corner, lat.interior, lat.basis, lat.hat_norms()]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0


def test_lattice_data_retains_little_memory():
    # The lattice data of 16^3 cells keep 0.43 MB under tracemalloc: the
    # corners are slices and the band pairs slices of boxes, where index
    # arrays of the cell corners and of the band slots took 1.25 MB.
    box = px.Box([0.0] * 3, [1.0] * 3)
    f = px.GridFunction.constant(box, 16, -1.0)
    p_node = px.affine_exponent(2.5, [0.2, 0.2, 0.2], box)(f.nodes())
    tracemalloc.start()
    try:
        lat = _Lattice(f, p_node)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert lat.interior.size == 15**3
    assert retained <= 0.6e6


def test_one_band_buffer_per_solve(monkeypatch):
    # Every factorization of a solve overwrites the same band buffer in place
    # (the kept references would stop an allocator from handing it out again).
    bands = []
    real = solver.sla.cholesky_banded

    def kept(ab, *args, **kwargs):
        bands.append(ab)
        return real(ab, *args, **kwargs)

    monkeypatch.setattr(solver.sla, "cholesky_banded", kept)
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.constant(box, 32, -1.0)
    spec = px.ProblemSpec(box, px.constant_exponent(1.5, domain=box), f, 0.0,
                          reg_eps=1e-8, tol=1e-7)
    res = px.solve_dirichlet(spec)
    assert res.converged and len(bands) >= 2
    assert all(np.shares_memory(ab, bands[0]) for ab in bands[1:])


def test_concurrent_solves_on_one_lattice(geometry_builds):
    # Two threads solve different sources on one lattice and p at once and
    # share the cached _Lattice; the work arrays are each solve's own, so the
    # solutions are bit for bit those of the same solves one after another.
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    field = px.constant_exponent(1.5, domain=box)
    specs = []
    for seed in (1, 2):
        a, k, phi = np.random.default_rng(seed).uniform([0.1, 1.0, 0.0], [0.5, 4.0, 6.0])
        f = px.GridFunction.from_callable(
            box, 24, lambda pts: -1.0 - a * np.cos(k * pts[:, 0] - pts[:, 1] + phi))
        specs.append(px.ProblemSpec(box, field, f, 0.0, reg_eps=1e-8, tol=1e-7))
    sequential = [px.solve_dirichlet(spec) for spec in specs]
    assert all(res.converged for res in sequential)

    start = threading.Barrier(len(specs))
    results = [[] for _ in specs]

    def solve(i):
        start.wait(timeout=60)
        for _ in range(3):
            results[i].append(px.solve_dirichlet(specs[i]))

    threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(specs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert len(geometry_builds) == 1
    for ref, runs in zip(sequential, results):
        assert len(runs) == 3
        for res in runs:
            assert np.array_equal(bits(res.solution.values), bits(ref.solution.values))
            assert res.iterations == ref.iterations and res.residual == ref.residual


# -- solver fallbacks -------------------------------------------------------------

def fallback_problem(max_iter):
    return problem_1d(-1.0, 1.0, 16, 3.0, 1.0, 0.0, reg_eps=1e-8, tol=1e-12,
                      max_iter=max_iter)


def fake_every_call(monkeypatch, owner, name, fake):
    """Replace owner.name by fake(real, *args).  The sine-basis warm start
    makes no band factorization or solve, so every call is a Newton step's."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: fake(real, *args, **kwargs))


def assert_nonincreasing(trace):
    tr = np.asarray(trace)
    assert np.all(np.diff(tr) <= 1e-12 * np.maximum(1.0, np.abs(tr[:-1])))


def indefinite_factor(real, *args, **kwargs):
    raise np.linalg.LinAlgError("2-th leading minor not positive definite")


def exact_steps_only(monkeypatch):
    """Make every CG solve fail, so each Newton step factors and solves exactly."""
    monkeypatch.setattr(solver, "_pcg", lambda matvec, precond, b, rtol: (None, solver._CG_CAP))


def count_calls(monkeypatch, owner, name):
    real = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("owner, name, fake, linear", [
    (solver.sla, "cholesky_banded", indefinite_factor, "fallback"),
    (solver.sla, "cho_solve_banded", lambda real, cb, rhs, **kw: np.full_like(rhs, np.nan),
     "factor"),
    (solver.sla, "cho_solve_banded", lambda real, cb, rhs, **kw: -real(cb, rhs, **kw), "factor"),
], ids=["factor-error", "non-finite", "non-descent"])
def test_gradient_direction_fallback(monkeypatch, owner, name, fake, linear):
    exact_steps_only(monkeypatch)
    fake_every_call(monkeypatch, owner, name, fake)
    factors = count_calls(monkeypatch, solver.sla, "cholesky_banded")
    res = px.solve_dirichlet(fallback_problem(max_iter=6))
    assert len(factors) == res.iterations == 6
    assert res.message.startswith("iteration budget exhausted")
    assert_nonincreasing(res.energy_trace)
    assert res.energy_trace[-1] < res.energy_trace[0]
    recs = res.history[1:]
    assert [(r["direction"], r["linear"]) for r in recs] == [("gradient-fallback", linear)] * 6


def test_steepest_descent_rescue(monkeypatch):
    # A direction so long that all 60 Armijo trials overshoot: only the
    # conservative gradient step of the rescue can lower the energy.
    exact_steps_only(monkeypatch)
    fake_every_call(monkeypatch, solver.sla, "cho_solve_banded",
                    lambda real, cb, rhs, **kw: 1e30 * real(cb, rhs, **kw))
    res = px.solve_dirichlet(fallback_problem(max_iter=4))
    assert res.message.startswith("iteration budget exhausted")
    assert len(res.energy_trace) == 5
    assert_nonincreasing(res.energy_trace)
    assert res.energy_trace[-1] < res.energy_trace[0]
    recs = res.history[1:]
    assert [(r["direction"], r["accept"]) for r in recs] == [("gradient-rescue", "rescue")] * 4
    assert all(r["backtracks"] >= 60 for r in recs)


def cos_problem(cells=16, p=1.5, n_axes=2, amp=1.0, **kw):
    """Zero data, constant p and the source -amp (1 + 0.5 cos(3 sum x)) on the
    unit box; at p = 1.5 the solve runs the whole continuation ladder."""
    box = px.Box([0.0] * n_axes, [1.0] * n_axes)
    f = px.GridFunction.from_callable(
        box, cells, lambda pts: -amp * (1.0 + 0.5 * np.cos(3.0 * pts.sum(axis=1))))
    return px.ProblemSpec(box, px.constant_exponent(p, domain=box), f, 0.0, **kw)


@pytest.mark.parametrize("amp, iterations", [(1.0, 11), (100.0, 11)], ids=["mild", "steep"])
def test_smoothing_decays_over_the_whole_solve(amp, iterations):
    # The Newton-matrix smoothing of step k is max(eps, 1e-12 G, 0.1 G
    # 0.25^(k-1)), k counted over the whole solve: each stage starts where the
    # previous one stopped instead of going back to 0.1 G.  Its start sits
    # tenfold above the first stage eps, 1e-2 G, at either amplitude.
    spec = cos_problem(amp=amp)
    res = px.solve_dirichlet(spec)
    assert res.converged and res.residual <= spec.tol
    assert res.iterations <= iterations
    assert_nonincreasing(res.energy_trace)
    G = res.history[0]["G"]
    recs = res.history[1:]
    assert len(recs) == res.iterations
    eps_h = [r["eps_h"] for r in recs]
    assert all(b <= a for a, b in zip(eps_h, eps_h[1:]))
    # the record's it is the step number over the whole solve
    assert [r["it"] for r in recs] == list(range(1, len(recs) + 1))
    assert eps_h == [max(r["stage_eps"], 1e-12 * G, 0.1 * G * 0.25 ** i)
                     for i, r in enumerate(recs)]
    eps0 = stages_of(spec, res)[0]
    assert recs[0]["stage_eps"] == eps0 == 1e-2 * G and eps_h[0] == 10.0 * eps0


def affine_cube(cells):
    box = px.Box([0.0] * 3, [1.0] * 3)
    f = px.GridFunction.constant(box, cells, -1.0)
    return px.ProblemSpec(box, px.affine_exponent(2.5, [0.3, 0.2, 0.1], box), f, 0.0,
                          reg_eps=1e-8, tol=1e-8)


@pytest.mark.parametrize("make, iterations", [
    (lambda: problem_1d(-1.0, 1.0, 512, 3.0, 1.0, 0.0, reg_eps=1e-8, tol=1e-9), 5),
    (lambda: affine_cube(8), 4),
], ids=["1d-p3", "3d-affine"])
def test_single_stage_keeps_its_iteration_count(make, iterations):
    # A p >= 2 solve is one stage, whose smoothing starts at 0.1 G.
    spec = make()
    res = px.solve_dirichlet(spec)
    recs = res.history[1:]
    assert res.converged and len({r["stage_eps"] for r in recs}) == 1
    assert res.iterations == iterations == len(recs)
    assert recs[0]["eps_h"] == 0.1 * res.history[0]["G"] > spec.reg_eps


def assert_one_factor_per_stage(monkeypatch, spec):
    """Each stage's first step factors the Newton matrix and the later steps
    run CG on that factor, but for a last stage at reg_eps > 0: it opens on
    the factor of the stage before it and runs CG to an eta.  A rung whose
    target the iterate meets on entry takes no step and no factor, so the
    rule is checked on the stages that take a step.  Returns the step
    records."""
    factors = count_calls(monkeypatch, solver.sla, "cholesky_banded")
    res = px.solve_dirichlet(spec)
    assert res.converged and res.residual <= spec.tol
    assert_nonincreasing(res.energy_trace)
    recs = res.history[1:]
    assert len(recs) == res.iterations
    stages = [r["stage_eps"] for r in recs]
    firsts = [i for i in range(len(recs)) if i == 0 or stages[i] != stages[i - 1]]
    assert len(set(stages)) == len(firsts) > 1
    assert set(stages) <= set(stages_of(spec, res))
    carried = [firsts[-1]] if stages[-1] == spec.reg_eps > 0.0 else []
    for i, r in enumerate(recs):
        fresh = i in firsts and i not in carried
        assert r["direction"] == "newton"
        assert r["linear"] == ("factor" if fresh else "pcg")
        assert r["cg_iters"] == 0 if fresh else 1 <= r["cg_iters"] <= solver._CG_CAP
        assert (r["eta"] is None) == fresh
    # one per stage but a carried one, none for the warm start
    assert len(factors) == len(firsts) - len(carried)
    return recs


def test_one_factor_per_stage_then_pcg(monkeypatch):
    spec = cos_problem()
    recs = assert_one_factor_per_stage(monkeypatch, spec)
    assert recs[-1]["stage_eps"] == spec.reg_eps  # the carried factor is used


def test_zero_reg_eps_last_stage_factors_on_entry(monkeypatch):
    # At reg_eps = 0 the last stage solves the non-smooth problem, so its
    # first step factors, although the step before it ran no CG at all (1d,
    # 64 cells, p = 1.3; every stage takes a step).  At 8^2 cells and
    # p = 1.1 the iterate meets tol on entering that stage, so 5 of the 6
    # stages take a step, each under the same rule.
    spec = cos_problem(64, 1.3, n_axes=1, reg_eps=0.0)
    recs = assert_one_factor_per_stage(monkeypatch, spec)
    assert len({r["stage_eps"] for r in recs}) == len(stages_of(spec, px.solve_dirichlet(spec)))
    assert recs[-1]["stage_eps"] == 0.0 != recs[-2]["stage_eps"]
    assert recs[-1]["linear"] == "factor" and recs[-2]["cg_iters"] == 0
    spec = cos_problem(8, 1.1, reg_eps=0.0)
    recs = assert_one_factor_per_stage(monkeypatch, spec)
    assert recs[-1]["stage_eps"] != 0.0


def test_failed_cg_on_the_carried_factor_refactors(monkeypatch):
    # The last stage's first step runs CG on the previous stage's factor.
    # When that CG fails, the step factors the current matrix and solves
    # exactly, and the next step refactors without CG, as after any capped
    # CG solve.
    spec = cos_problem()
    plain = px.solve_dirichlet(spec).history[1:]
    first = next(i for i, r in enumerate(plain) if r["stage_eps"] == spec.reg_eps)
    assert first > 0 and plain[first]["linear"] == "pcg"
    before = sum(r["eta"] is not None for r in plain[:first])  # the CG runs before it
    pcg, calls = solver._pcg, []

    def fail_once(*args):
        calls.append(1)
        return (None, solver._CG_CAP) if len(calls) == before + 1 else pcg(*args)

    monkeypatch.setattr(solver, "_pcg", fail_once)
    factors = count_calls(monkeypatch, solver.sla, "cholesky_banded")
    res = px.solve_dirichlet(spec)
    assert res.converged and res.residual <= spec.tol
    recs = res.history[1:]
    assert recs[:first] == plain[:first]
    r, after = recs[first], recs[first + 1]
    assert r["stage_eps"] == spec.reg_eps and r["direction"] == "newton"
    assert r["linear"] == "factor" and r["cg_iters"] == solver._CG_CAP
    assert r["eta"] == plain[first]["eta"] is not None
    assert after["linear"] == "factor" and after["cg_iters"] == 0 and after["eta"] is None
    assert len(factors) == sum(r["linear"] == "factor" for r in recs)


def stage_targets(spec, res):
    """The stage target of each Newton step record of a solve: tol at the last
    stage, max(tol, 0.1 r0) before it, r0 the residual of the stage's first step."""
    stages, opened = stages_of(spec, res), {}
    for r in res.history[1:]:
        opened.setdefault(r["stage_eps"], r["residual"])
    return [spec.tol if r["stage_eps"] == stages[-1]
            else max(spec.tol, solver._STAGE_DROP * opened[r["stage_eps"]])
            for r in res.history[1:]]


@pytest.mark.parametrize("make", [
    lambda: cos_problem(),
    lambda: cos_problem(p=6.0),
    lambda: affine_cube(6),
], ids=["continuation", "p6-refactor", "3d-affine"])
def test_forcing_term_is_floored_at_the_stage_target(make):
    # CG runs to eta = min(_ETA_MAX, max(0.9 (||g_k|| / ||g_k-1||)^2,
    # 0.5 target / residual)), target the stage's: CG need not solve past
    # what the stage's test reads.  So no eta is above the cap or below
    # min(_ETA_MAX, 0.5 target / residual); before the last stage, where the
    # target is at least a tenth of the stage's first residual r0, that is
    # the cap itself while the residual is below 2.5 r0.  A step that ran no
    # CG records None: the first of each stage, but that of a last stage at
    # reg_eps > 0, which runs CG on the previous stage's factor, and one
    # after a CG solve of more than _CG_NEAR iterations.
    spec = make()
    res = px.solve_dirichlet(spec)
    assert res.converged and res.residual <= spec.tol
    recs = res.history[1:]
    for i, (r, target) in enumerate(zip(recs, stage_targets(spec, res), strict=True)):
        ran = r["linear"] == "pcg" or r["cg_iters"] > 0
        assert (r["eta"] is not None) == ran
        if i == 0 or r["stage_eps"] != recs[i - 1]["stage_eps"]:
            assert (r["eta"] is None) == (i == 0 or not r["stage_eps"] == spec.reg_eps > 0.0)
        if ran:
            assert min(solver._ETA_MAX, 0.5 * target / r["residual"]) <= r["eta"]
            assert r["eta"] <= solver._ETA_MAX and type(r["eta"]) is float
    assert any(r["eta"] is not None for r in recs)
    assert json.loads(json.dumps(res.history)) == res.history


def test_last_step_runs_at_the_floor():
    # 16^2 cells at p = 3: the last step starts at residual 5.6e-6 against
    # tol 1e-7, where 0.9 (||g_k|| / ||g_k-1||)^2 asks CG for less than
    # 0.5 tol / residual = 8.9e-3.  CG runs to the floor, 4 iterations
    # where the unfloored term took 5, and the step still meets tol.
    spec = cos_problem(p=3.0)
    res = px.solve_dirichlet(spec)
    last = res.history[-1]
    assert last["linear"] == "pcg" and last["stage_eps"] == spec.reg_eps
    assert last["eta"] == 0.5 * spec.tol / last["residual"] < solver._ETA_MAX
    assert res.converged and res.iterations == last["it"]
    assert px.weak_residual(res.solution, spec) == res.residual <= spec.tol


@pytest.mark.parametrize("cells, p", [(16, 1.5), (8, 6.0)], ids=["continuation", "backtracking"])
def test_one_corner_evaluation_per_iterate(monkeypatch, cells, p):
    # The warm start's corner gradients, then one evaluation per line-search
    # trial: the accepted trial's corners feed the next step's gradient and
    # Newton matrix and the next stage's first energy.  The data are zero, so
    # the warm start's residual is the source alone and takes no corner.
    calls = count_calls(monkeypatch, CellGeometry, "corner_gradients")
    res = px.solve_dirichlet(cos_problem(cells, p))
    assert res.converged
    recs = res.history[1:]
    assert len(recs) == res.iterations > 0
    assert len(calls) == 1 + sum(r["backtracks"] + 1 for r in recs)
    if p == 6.0:
        assert sum(r["backtracks"] for r in recs) > 0


@pytest.mark.parametrize("cells, p", [(16, 1.5), (8, 6.0)], ids=["continuation", "backtracking"])
def test_one_power_per_accepted_iterate(monkeypatch, cells, p):
    # c1 = w^(p-2) is taken once per line-search trial at the stage eps and
    # travels with the trial's corners, so the accepted iterate's gradient,
    # its slope test and its Newton matrix at eps_h = eps take no power of
    # their own.  Besides: the start at the first stage eps, each later
    # stage's first energy, and each Newton matrix at an eps_h above the
    # stage eps.  The ray start takes none: it compares the ray point with
    # the warm start by the powers its root already took.
    calls = count_calls(monkeypatch, _Lattice, "flux_coef")
    spec = cos_problem(cells, p)
    res = px.solve_dirichlet(spec)
    assert res.converged
    recs = res.history[1:]
    stages = stages_of(spec, res)
    own = sum(r["eps_h"] != r["stage_eps"] for r in recs)
    if p == 1.5:  # the late steps of a stage reuse the carried c1
        assert own < len(recs)
    assert len(calls) == 1 + sum(r["backtracks"] + 1 for r in recs) + len(stages) - 1 + own


def test_start_corners_are_freed_after_the_first_step(monkeypatch):
    # _newton takes its start in a list that it empties, so once the first
    # step is accepted nothing holds the start's corner gradients: by the
    # second Newton step they are gone.
    refs, alive = [], []
    ray_start, newton_diagonals = solver._ray_start, _Lattice.newton_diagonals

    def start(*args):
        out = ray_start(*args)
        refs.append(weakref.ref(out[1][0]))
        return out

    def diagonals(self, *args, **kwargs):
        alive.append(refs[0]() is not None)
        return newton_diagonals(self, *args, **kwargs)

    monkeypatch.setattr(solver, "_ray_start", start)
    monkeypatch.setattr(_Lattice, "newton_diagonals", diagonals)
    res = px.solve_dirichlet(cos_problem(6, 3.0, n_axes=3))
    assert res.converged and res.iterations >= 2
    assert alive[:2] == [True, False]


def test_stale_preconditioner_forces_refactor(monkeypatch):
    # Plain CG (the identity as the preconditioner) often needs more than
    # the cap to meet the forcing tolerance; each such step refactors, and
    # so does the step after any CG solve that took more than _CG_NEAR
    # iterations, without running CG.  The 1d source of amplitude 3 at
    # p = 1.3 gives 5 capped CG solves and one of 19 iterations in 26 steps.
    pcg = solver._pcg
    monkeypatch.setattr(solver, "_pcg", lambda matvec, precond, b, rtol: pcg(matvec, lambda r: r, b, rtol))
    factors = count_calls(monkeypatch, solver.sla, "cholesky_banded")
    spec = cos_problem(256, 1.3, n_axes=1, amp=3.0)
    res = px.solve_dirichlet(spec)
    assert res.converged and res.residual <= spec.tol
    assert_nonincreasing(res.energy_trace)
    recs = res.history[1:]
    assert all(r["direction"] == "newton" for r in recs)
    capped = [r for r in recs if r["cg_iters"] == solver._CG_CAP]
    assert len(capped) >= 3 and all(r["linear"] == "factor" for r in capped)
    near = [i for i in range(1, len(recs))
            if solver._CG_NEAR < recs[i - 1]["cg_iters"] < solver._CG_CAP]
    assert near
    for prev, r in zip(recs, recs[1:]):
        if prev["cg_iters"] > solver._CG_NEAR:
            assert (r["linear"], r["cg_iters"]) == ("factor", 0)
    assert len(factors) == sum(r["linear"] == "factor" for r in recs)


def test_stale_factor_step_at_the_kink_is_not_cut(monkeypatch):
    # On this input a CG step from the stale factor, near the kink of the
    # p = 1.5 energy, once lowered the energy by less than the rounding of
    # |E|; Armijo halved it 21 times, the same direction came again at every
    # step, and the solve sat at residual 3.032e-7 until the budget ran out.
    # It must converge with no step cut that far (it takes 13 steps, none
    # halved).  The source is the `solve2d-singular` benchmark's two cosine
    # modes drawn from the stream (504, 16), on the unpadded band
    # (half-bandwidth 64 stored as 65 rows) of that trajectory.
    monkeypatch.setattr(solver, "_band_rows", lambda bandwidth: bandwidth + 1)
    rng = np.random.default_rng([504, 16])
    waves = rng.integers(1, 3, size=(2, 2))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=2)
    amps = rng.uniform(0.1, 0.25, size=2)
    axis = np.arange(65) / 64
    t = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
    f = -1.0 - sum(a * 0.5 * (1.0 + np.cos(np.pi * (t @ k) + ph))
                   for a, k, ph in zip(amps, waves, phases))
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    spec = px.ProblemSpec(box, px.constant_exponent(1.5, domain=box),
                          px.GridFunction((65, 65), box.lo, box.hi / 64, f), 0.0, max_iter=40)
    res = px.solve_dirichlet(spec)
    assert res.converged and res.residual <= spec.tol
    assert res.residual == px.weak_residual(res.solution, spec)
    assert res.iterations <= 13
    assert_nonincreasing(res.energy_trace)
    assert all(r["backtracks"] < 10 for r in res.history[1:])


def test_pcg_keeps_a_solve_that_meets_rtol_on_its_last_iteration():
    # CG on diag(1..20) ends in exactly 20 iterations, the cap, where SciPy
    # reports it as not converged without testing the last iterate.  On
    # diag(1..40) the 20th iterate is still far off and is thrown away.
    for n, ok in ((solver._CG_CAP, True), (2 * solver._CG_CAP, False)):
        d, b = np.arange(1.0, n + 1.0), np.ones(n)
        x, its = solver._pcg(lambda v: d * v, lambda r: r, b, 1e-8)
        assert its == solver._CG_CAP
        if ok:
            assert np.linalg.norm(b - d * x) < 1e-8 * np.linalg.norm(b)
        else:
            assert x is None


def spd(rng, m, spread):
    """A random symmetric matrix with eigenvalues spread over [1, spread]."""
    q = np.linalg.qr(rng.standard_normal((m, m)))[0]
    return (q * np.geomspace(1.0, spread, m)) @ q.T


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("precond", ["jacobi", "perturbed-inverse"])
@pytest.mark.parametrize("rtol", [1e-2, 1e-6])
def test_pcg_matches_scipy_cg(seed, precond, rtol):
    # The same Hestenes-Stiefel recurrence and stop rule as SciPy's cg from
    # x0 = 0, so on an SPD system that converges within the cap the iterate
    # and the iteration count agree.
    rng = np.random.default_rng(seed)
    m = 40
    A = spd(rng, m, 300.0) + np.diag(rng.uniform(1.0, 1e3, m))  # badly scaled
    b = rng.standard_normal(m)
    if precond == "jacobi":
        P = np.diag(1.0 / np.diag(A))
    else:  # the inverse of a nearby SPD matrix, as a stale factor is
        P = np.linalg.inv(A + spd(rng, m, 300.0))
    iterates = []
    x_ref, info = spla.cg(A, b, rtol=rtol, maxiter=solver._CG_CAP, M=P,
                          callback=iterates.append)
    assert info == 0 and len(iterates) < solver._CG_CAP
    x, its = solver._pcg(lambda v: A @ v, lambda r: P @ r, b, rtol)
    assert its == len(iterates)
    assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()


@pytest.mark.parametrize("neg, small", [(-10.0, 1.0), (-1.0, 1e-2), (-0.1, 1e-4)])
def test_pcg_gives_up_on_an_indefinite_matrix(neg, small):
    # One negative eigenvalue, weakly excited by b: CG runs some iterations,
    # then meets a direction of nonpositive curvature and returns no iterate
    # rather than one built from a division by it.
    d = np.append(np.arange(1.0, 13.0), neg)
    b = np.ones(d.size)
    b[-1] = small
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, its = solver._pcg(lambda v: d * v, lambda r: r, b, 1e-10)
    assert x is None and 0 < its < solver._CG_CAP


def test_pcg_gives_up_on_an_indefinite_preconditioner_or_zero_rhs():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solver._pcg(lambda v: v, lambda r: -r, np.ones(5), 1e-8) == (None, 0)
        assert solver._pcg(lambda v: v, lambda r: r, np.zeros(5), 1e-8) == (None, 0)


def test_negative_curvature_in_cg_forces_refactor(monkeypatch):
    # Every CG product meets p.Hp < 0 on its first iteration, so each step
    # after a stage's first refactors and solves exactly, and the solve
    # converges as with one factorization per step.
    real = _Lattice.hessian_vec
    monkeypatch.setattr(_Lattice, "hessian_vec",
                        lambda self, diagonals, x: -real(self, diagonals, x))
    pcg, returned = solver._pcg, []

    def recorded(*args):
        returned.append(pcg(*args))
        return returned[-1]

    monkeypatch.setattr(solver, "_pcg", recorded)
    factors = count_calls(monkeypatch, solver.sla, "cholesky_banded")
    spec = cos_problem()
    res = px.solve_dirichlet(spec)
    assert res.converged and res.residual <= spec.tol
    assert_nonincreasing(res.energy_trace)
    recs = res.history[1:]
    assert returned and returned == [(None, 0)] * len(returned)
    assert all((r["linear"], r["direction"], r["cg_iters"]) == ("factor", "newton", 0)
               for r in recs)
    assert len(factors) == len(recs) == res.iterations


def test_solve_imports_no_sparse_module():
    # A solve that takes CG steps runs on numpy and scipy.linalg alone.
    script = """if True:
        import sys
        import pxlap as px
        box = px.Box([0.0, 0.0], [1.0, 1.0])
        res = px.solve_dirichlet(px.ProblemSpec(box, px.constant_exponent(3.0, domain=box),
                                                px.GridFunction.constant(box, 16, -1.0), 0.0))
        linear = [r["linear"] for r in res.history[1:]]
        assert res.converged and "pcg" in linear, linear
        print(sorted(m for m in sys.modules if m.startswith("scipy.sparse")))
    """
    src = str(Path(solver.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_non_descent_cg_direction_forces_refactor(monkeypatch):
    pcg = solver._pcg

    def uphill(*args):
        x, its = pcg(*args)
        return (None if x is None else -x), its

    monkeypatch.setattr(solver, "_pcg", uphill)
    factors = count_calls(monkeypatch, solver.sla, "cholesky_banded")
    spec = cos_problem()
    res = px.solve_dirichlet(spec)
    assert res.converged and res.residual <= spec.tol
    assert_nonincreasing(res.energy_trace)
    recs = res.history[1:]
    assert all(r["linear"] == "factor" and r["direction"] == "newton" for r in recs)
    assert any(r["cg_iters"] > 0 for r in recs)
    assert len(factors) == len(recs)


def test_debug_log_costs_nothing_when_off(monkeypatch):
    emitted = []
    monkeypatch.setattr(solver._log, "debug", lambda *args, **kwargs: emitted.append(args))
    level = solver._log.level
    solver._log.setLevel(logging.INFO)
    try:
        res = px.solve_dirichlet(cos_problem())
    finally:
        solver._log.setLevel(level)
    assert res.converged and res.iterations > 0 and emitted == []


def test_line_search_stalled(monkeypatch):
    # An energy that rises at every call, so that no trial lowers it or ties
    # e0, defeats both the line search and the rescue.  (A constant energy
    # ties at every trial, and the slope test then accepts a descent step.)
    calls = itertools.count()
    monkeypatch.setattr(_Lattice, "energy", lambda self, *args: float(next(calls)))
    res = px.solve_dirichlet(fallback_problem(max_iter=50))
    assert not res.converged
    assert res.message == "line search stalled"
    assert res.iterations == 1
    assert res.energy_trace == [res.history[0]["energy"]]
    assert len(res.history) == res.iterations + 1 and res.history[-1]["step"] == 0.0


def steep_ramp_problem():
    # Data 5 x: the start is u2 itself, not a point of the ray, and its G
    # exceeds 1.
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.constant(box, 16, -1.0)
    return px.ProblemSpec(box, px.constant_exponent(3.0, domain=box), f,
                          lambda pts: 5.0 * pts[:, 0])


def test_debug_log_is_a_view_of_the_history(caplog):
    # The one reader of the pxlap debug text: a start line, then a newton
    # line per step, each carrying its history record's fields and values,
    # all plain Python ints, floats and strings, or None (the eta of a step
    # that ran no CG).
    caplog.set_level(logging.DEBUG, logger="pxlap")
    for spec in (cos_problem(), steep_ramp_problem()):
        caplog.clear()
        res = px.solve_dirichlet(spec)
        lines = [r.getMessage().split() for r in caplog.records if r.name == "pxlap"]
        assert [words[0] for words in lines] == ["start"] + ["newton"] * res.iterations
        for words, record in zip(lines, res.history, strict=True):
            fields = dict(kv.split("=") for kv in words[1:])
            assert list(fields) == list(record)
            assert {k: None if fields[k] == "None" else type(v)(fields[k])
                    for k, v in record.items()} == record
            assert {type(v) for v in record.values()} <= {int, float, str, type(None)}
        assert any(r.get("eta") is None for r in res.history[1:])


@pytest.mark.parametrize("spec, lo, hi, steps, cuts", [
    (cos_problem(256, 1.2, n_axes=1, reg_eps=1e-10, tol=1e-10), 3e-10, 3e-9, 150, (0, 2)),
    (cos_problem(32, 1.1, reg_eps=0.0, tol=1e-7), 3e-4, 3e-3, 120, (0, 2)),
], ids=["1d-p1.2", "2d-p1.1"])
def test_kink_stall_exhausts_the_budget(spec, lo, hi, steps, cuts):
    # Today's failure, pinned: at the last eps some corner gradient is of the
    # size of reg_eps or below (the 1d solution's smallest |u'| is 1.6e-11),
    # so the Newton model holds only in a region that small.  173 and 145 of
    # the 200 steps are taken at the last eps, and the residual stays above
    # tol.  The steps are whole or halved at most two or three times (median
    # 0); the 1d residual ends at 9.951e-10, and the 2d one wanders between
    # 6.4e-4 and 1.3e-3 over the last 50 steps and ends at 9.133e-4.  Which
    # instances of a kink family stall moves with the continuation and the
    # line search (24^2 cells at p = 1.1 stalled here until the ladder took
    # its scale from the start); a fix of the stall flips this test.
    res = px.solve_dirichlet(spec)
    assert not res.converged
    assert res.message.startswith("iteration budget exhausted")
    assert lo <= res.residual <= hi
    last = [r for r in res.history[1:] if r["stage_eps"] == spec.reg_eps]
    assert len(last) >= steps
    assert cuts[0] <= statistics.median(r["backtracks"] for r in last) <= cuts[1]


@pytest.mark.parametrize("spec, steps", [
    (cos_problem(24, 1.1, reg_eps=0.0, tol=1e-7), 45),
    (cos_problem(256, n_axes=1, amp=10.0), 15),
], ids=["2d-p1.1", "1d-amp10"])
def test_solves_that_stalled_on_an_absolute_ladder_converge(spec, steps):
    # With the ladder at 1e-2, 1e-4, ... whatever the size of the solution,
    # these ran into the 200-step budget: 24^2 cells at p = 1.1 at residual
    # 6.3e-3, and the 1d p = 1.5 source of amplitude 10, whose G is 22, all
    # 200 steps at eps = 1e-2, already a problem at the scale of its kinks.
    # On the ladder 1e-2 G, 1e-4 G, ... both converge.
    res = px.solve_dirichlet(spec)
    assert res.converged and res.residual <= spec.tol
    assert res.residual == px.weak_residual(res.solution, spec)
    assert res.iterations <= steps
    assert_nonincreasing(res.energy_trace)


def homogeneous_problem(n, p, source, seed, t):
    """Constant p, reg_eps = 0 and tol 1e-7 t^(p-1) on a random lattice of at
    most 64 cells, 32^2 or 8^3: a random source t^(p-1) f with constant data
    t c, or smooth data t g with no source."""
    rng = np.random.default_rng(seed)
    box = px.Box(np.zeros(n), np.ones(n))
    f = px.GridFunction.constant(box, tuple(rng.integers(3, {1: 65, 2: 33, 3: 9}[n], size=n)), 0.0)
    if source:
        f, data = f.like(t ** (p - 1.0) * rng.uniform(-2.0, 0.5, f.dims)), t * rng.uniform(-1.0, 1.0)
    else:
        a, b = rng.uniform(-3.0, 3.0, (2, n))
        data = lambda pts: t * (0.5 + pts @ a + pts**2 @ b)
    return px.ProblemSpec(box, px.constant_exponent(p, domain=box), f, data, reg_eps=0.0,
                          tol=1e-7 * t ** (p - 1.0))


@given(n=st.integers(1, 3), p=st.floats(1.2, 5.0), log_t=st.floats(-3.0, 3.0),
       source=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_solve_is_homogeneous_in_the_data(n, p, log_t, source, seed):
    # For constant p at reg_eps = 0, u minimizes the energy with data (f, g)
    # exactly when t u minimizes it with (t^(p-1) f, t g), and the weak
    # residual scales by t^(p-1).  The start, its scale G, the eps ladder and
    # the Newton-matrix smoothing all scale with t, so the solve at tolerance
    # t^(p-1) tol gives t u up to rounding.  A source with nonconstant data
    # is not drawn: the p = 2 start of (t^(p-1) f, t g) is not t times that
    # of (f, g).  Over 1,300 draws like these the largest relative gap was
    # 4.8e-8, and 96% were under 1e-14.  The large gaps come at p near 5,
    # where tol leaves u loose, and one of 2.9e-8 came at t = 1 - 5e-16: a
    # step decision that flips on rounding, not the scale.  So the bound is
    # 1e-6 (the same draws at the parent continuation, with an absolute
    # ladder and smoothing, gap up to 3.6e-7 and differ in steps at p >= 2).
    # For p >= 2 the steps were the same at every t.  Below 2 the line
    # search's tie allowance 1e-13 max(1, |E|), absolute where |E| < 1, can
    # add or save some, and sent one of 463 such draws (t = 4.7e-3) into the
    # budget.
    t = 10.0**log_t
    base = px.solve_dirichlet(homogeneous_problem(n, p, source, seed, 1.0))
    res = px.solve_dirichlet(homogeneous_problem(n, p, source, seed, t))
    assert res.history[0]["G"] == pytest.approx(t * base.history[0]["G"], rel=1e-12)
    u = base.solution.values
    assert np.abs(res.solution.values - t * u).max() <= 1e-6 * t * np.abs(u).max()
    if p >= 2.0:
        assert res.iterations == base.iterations and res.converged == base.converged


def test_kink_solve_converges_through_an_energy_tie():
    # With Armijo alone this 1d kink problem stalls at residual 4.4e-7, its
    # last-stage steps halved up to 17 times: the energy drop of a good step
    # is below the allowance for the rounding of |E|, and Armijo rejects it.
    # The line search settles such ties by the slope along the step, and the
    # solve converges in 23 steps.  Only the slope test can accept a step
    # whose energy rose, here step 18, by 2.5e-14 at E = -2.6e-3, and the
    # step record says which test accepted each step.
    spec = cos_problem(128, 1.3, n_axes=1, reg_eps=1e-10, tol=1e-8)
    res = px.solve_dirichlet(spec)
    assert res.converged and res.residual <= spec.tol
    assert_nonincreasing(res.energy_trace)
    # the trace holds the start's energy, then each accepted step's and each
    # new stage's first, so a step's energy follows the previous entry
    at, rises = 0, []
    for prev, r in zip(res.history, res.history[1:]):
        at += "stage_eps" in prev and r["stage_eps"] != prev["stage_eps"]
        if res.energy_trace[at + 1] > res.energy_trace[at]:
            rises.append(r["it"])
        at += 1
    assert at == len(res.energy_trace) - 1
    slope = [r["it"] for r in res.history[1:] if r["accept"] == "slope"]
    assert rises and set(rises) <= set(slope)
    assert {r["accept"] for r in res.history[1:]} == {"armijo", "slope"}


_BUDGET_CASES = [
    (3.0, 4, True, 16),   # the fourth and last allowed step meets tol
    (1.5, 5, True, 16),   # the last step, the first at the final eps, meets tol
    (1.5, 4, False, 16),  # stopped at the final eps, one step short of tol
    (1.5, 2, False, 16),  # stopped at the first eps, 1e-2 G, whose residual has
                          # not dropped tenfold from the one that opened the stage
    (1.5, 6, False, 24),  # on a finer grid, likewise stopped at the final eps
                          # one step short of tol
]


@pytest.mark.parametrize("p, max_iter, converged, cells", _BUDGET_CASES,
                         ids=[f"{p}-{m}-{c}" for p, m, c, _ in _BUDGET_CASES])
def test_verdict_matches_the_residual_when_the_budget_runs_out(p, max_iter, converged, cells):
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.constant(box, cells, -1.0)
    spec = px.ProblemSpec(box, px.constant_exponent(p, domain=box), f, 0.0, max_iter=max_iter)
    res = px.solve_dirichlet(spec)
    assert res.iterations == max_iter
    assert res.converged == converged == (res.residual <= spec.tol)
    assert len(res.history) == res.iterations + 1
    assert json.loads(json.dumps(res.history)) == res.history
    assert res.message == ("" if converged else
                           f"iteration budget exhausted (residual {res.residual:.3e})")
    # the trace holds the warm start's energy, one per step and one per stage change
    stages = stages_of(spec, res)
    reached = len(res.energy_trace) - res.iterations
    lat, src = _lattice(res.solution, spec.field, spec.rhs)
    eps = stages[reached - 1]
    at_stage = lat.residual(lat.gradient(lat.corners(res.solution.values), eps, src),
                            lat.hat_norms())
    assert res.residual == at_stage
    if reached == len(stages):
        assert res.residual == px.weak_residual(res.solution, spec)
    else:  # a stage within its tolerance would have moved on
        opened = [r["residual"] for r in res.history[1:] if r["stage_eps"] == eps]
        r0 = opened[0] if opened else res.residual
        assert res.residual > max(spec.tol, 0.1 * r0)


@pytest.mark.parametrize("n_axes, cells, p", [(2, 16, 1.5), (1, 128, 1.1), (3, 6, 1.5)],
                         ids=["2d", "1d", "3d"])
def test_stage_ends_once_its_residual_drops_tenfold(monkeypatch, n_axes, cells, p):
    # A stage before the last only starts the next one: it ends at the first
    # loop pass whose residual is at most max(tol, 0.1 r0), r0 the residual of
    # the pass that opened it, and takes a Newton step at every pass before.
    passes = []
    gradient, residual = _Lattice.gradient, _Lattice.residual

    def record_eps(self, corners, eps, src):
        passes.append([eps])
        return gradient(self, corners, eps, src)

    def record_residual(self, g, hat):
        passes[-1].append(residual(self, g, hat))
        return passes[-1][-1]

    monkeypatch.setattr(_Lattice, "gradient", record_eps)
    monkeypatch.setattr(_Lattice, "residual", record_residual)
    box = px.Box([0.0] * n_axes, [1.0] * n_axes)
    f = px.GridFunction.constant(box, cells, -1.0)
    spec = px.ProblemSpec(box, px.constant_exponent(p, domain=box), f, 0.0)
    res = px.solve_dirichlet(spec)
    assert res.converged and res.residual <= spec.tol
    recs = res.history[1:]
    stages = stages_of(spec, res)
    assert len({r["stage_eps"] for r in recs}) > 1
    for eps in stages[:-1]:
        steps = [r["residual"] for r in recs if r["stage_eps"] == eps]
        seen = [r for e, r in passes if e == eps]
        bar = max(spec.tol, 0.1 * seen[0])
        assert steps == seen[:-1]
        assert all(r > bar for r in steps) and seen[-1] <= bar


def restart(spec, u, stages, G):
    """_newton on the lattice of spec from the flat nodal array u over stages,
    with a start record that holds only the scale G and u's energy at stages[0]."""
    lat, src = _lattice(spec.rhs, spec.field, spec.rhs)
    corners = lat.corners(u)
    history = [{"G": G, "energy": lat.energy(u, corners, stages[0], src)}]
    res = solver._newton(spec.rhs, lat, src, [u, corners], stages, spec.tol, spec.max_iter,
                         history)
    assert res.history is history
    return res


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_newton_restarted_at_its_solution_takes_no_step(p):
    # The loop takes its start and stages as given, as nested iteration needs:
    # from a converged solution, at the last stage alone, it is done at once.
    spec = cos_problem(p=p)
    res = px.solve_dirichlet(spec)
    u = res.solution.values.reshape(-1)
    again = restart(spec, u, stages_of(spec, res)[-1:], res.history[0]["G"])
    assert again.converged and again.iterations == 0 and again.message == ""
    assert again.solution.values.tobytes() == res.solution.values.tobytes()
    assert len(again.history) == 1 and again.energy_trace == [again.history[0]["energy"]]
    assert again.residual == res.residual


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_newton_restarted_off_its_solution_converges_back(p):
    # The interior of the solution times 1 + 0.1 N(0, 1), over the solve's
    # stages: the loop meets tol again, with one record per Newton step.  For
    # p = 3 a residual under tol leaves u loose: the solve stops after 4 steps
    # 7.3e-7 relative from the tol 1e-13 solution, and seeds 0-5 land 7.0e-7
    # to 7.3e-7 from it (within 9.6e-8 of the tol 1e-13 one); at p = 1.5
    # they land 3.8e-10 to 7.2e-9 from it.  So the bound is 1e-6.
    spec = cos_problem(p=p)
    res = px.solve_dirichlet(spec)
    u = res.solution.values.reshape(-1).copy()
    interior = _lattice(spec.rhs, spec.field, spec.rhs)[0].interior
    u[interior] *= 1.0 + 0.1 * np.random.default_rng(0).standard_normal(interior.size)
    again = restart(spec, u, stages_of(spec, res), res.history[0]["G"])
    assert again.converged and again.iterations >= 1
    assert len(again.history) == again.iterations + 1
    assert px.weak_residual(again.solution, spec) == again.residual <= spec.tol
    rel = np.abs(again.solution.values - res.solution.values).max()
    assert rel <= 1e-6 * np.abs(res.solution.values).max()


# -- weak residual -------------------------------------------------------------

def test_weak_residual_minimizer_small():
    spec = problem_1d(0.0, 1.0, 128, 2.0, -2.0, 0.0, reg_eps=0.0, tol=1e-10)
    res = px.solve_dirichlet(spec)
    assert px.weak_residual(res.solution, spec) <= 1e-10


def test_weak_residual_consistency_under_refinement():
    # nodal samples of the exact solution: residual -> 0 as h -> 0
    vals = []
    for cells in (32, 64, 128):
        spec = problem_1d(0.0, 1.0, cells, 2.0, -2.0, 0.0, reg_eps=0.0)
        x = spec.rhs.nodes()[:, 0]
        u = spec.rhs.like(x * (1 - x))
        vals.append(px.weak_residual(u, spec))
    assert vals[2] <= vals[0] + 1e-12


def test_weak_residual_detects_perturbation():
    spec = problem_1d(0.0, 1.0, 128, 2.0, -2.0, 0.0, reg_eps=0.0, tol=1e-11)
    res = px.solve_dirichlet(spec)
    for delta in (1e-3, 1e-2):
        bumped = res.solution.like(res.solution.values.copy())
        bumped.values[64] += delta
        assert px.weak_residual(bumped, spec) >= 0.1 * delta


def test_weak_residual_rejects_other_boundary_data():
    # u + 5 has the same weak pairing as u, but it does not solve the problem
    # with zero Dirichlet data; rounding-sized boundary offsets still pass
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.constant(box, 16, -1.0)
    spec = px.ProblemSpec(box, px.constant_exponent(3.0, domain=box), f, 0.0)
    res = px.solve_dirichlet(spec)
    assert px.weak_residual(res.solution, spec) <= spec.tol
    with pytest.raises(ValueError, match=r"Dirichlet data on the boundary by up to 5\.000e\+00"):
        px.weak_residual(res.solution.like(res.solution.values + 5.0), spec)
    bumped = res.solution.like(res.solution.values.copy())
    bumped.values[0, 3] = 1e-3
    with pytest.raises(ValueError, match=r"up to 1\.000e-03: 0\.001 against 0\.0 at node \(0, 3\)"):
        px.weak_residual(bumped, spec)
    bumped.values[0, 3] = 1e-14
    assert px.weak_residual(bumped, spec) <= spec.tol


def test_weak_residual_lattice_mismatch():
    spec = problem_1d(0.0, 1.0, 64, 2.0, -2.0, 0.0)
    u = grid_1d(0.0, 1.0, 32, lambda x: x)
    with pytest.raises(ValueError, match="lattice"):
        px.weak_residual(u, spec)


# -- pointwise operator ---------------------------------------------------------

def quadratic_2d():
    return px.SmoothFunction(
        value=lambda pts: np.sum(pts**2, axis=1),
        gradient=lambda pts: 2.0 * pts,
        hessian=lambda pts: np.broadcast_to(
            2.0 * np.eye(pts.shape[1]), (pts.shape[0], pts.shape[1], pts.shape[1])).copy(),
    )


def test_pointwise_p2_is_laplacian():
    w = quadratic_2d()
    f = px.constant_exponent(2.0)
    assert px.p_laplacian_pointwise(w, f, [0.3, -0.7]) == pytest.approx(4.0, rel=1e-13)


def test_pointwise_linear_function_zero():
    lin = px.SmoothFunction(
        value=lambda pts: pts[:, 0],
        gradient=lambda pts: np.stack([np.ones(len(pts)), np.zeros(len(pts))], axis=1),
        hessian=lambda pts: np.zeros((len(pts), 2, 2)),
    )
    for p in (1.5, 2.0, 3.0):
        assert px.p_laplacian_pointwise(lin, px.constant_exponent(p), [0.2, 0.9]) == 0.0


def test_pointwise_quadratic_p3():
    w = quadratic_2d()
    val = px.p_laplacian_pointwise(w, px.constant_exponent(3.0), [1.0, 0.0])
    assert val == pytest.approx(12.0, rel=1e-13)


def test_pointwise_degenerate_point():
    w = quadratic_2d()
    assert px.p_laplacian_pointwise(w, px.constant_exponent(3.0), [0.0, 0.0]) == 0.0
    assert px.p_laplacian_pointwise(w, px.constant_exponent(2.0), [0.0, 0.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError, match="undefined"):
        px.p_laplacian_pointwise(w, px.constant_exponent(1.5), [0.0, 0.0])


@pytest.mark.parametrize("reg_eps", [np.nan, -1e-3, np.inf], ids=["nan", "negative", "inf"])
def test_pointwise_rejects_bad_reg_eps(reg_eps):
    # A NaN would come back as the operator's value, and a barrier scan would
    # report min_operator_value = nan
    w = quadratic_2d()
    with pytest.raises(ValueError, match=r"reg_eps must be finite and >= 0, got"):
        px.p_laplacian_pointwise(w, px.constant_exponent(3.0), [[1.0, 0.0], [0.2, 0.4]], reg_eps)


def test_pointwise_consistency_with_weak_pairing():
    # the discrete pairing against a hat at x approaches -op(w)(x) * int(phi)
    box = px.Box([0.0], [1.0])
    field = px.affine_exponent(2.0, [0.5], box)
    w = px.SmoothFunction(
        value=lambda pts: np.sin(2.0 * pts[:, 0]) + 2.0 * pts[:, 0],
        gradient=lambda pts: (2.0 * np.cos(2.0 * pts[:, 0]) + 2.0)[:, None],
        hessian=lambda pts: (-4.0 * np.sin(2.0 * pts[:, 0]))[:, None, None],
    )
    x0 = 0.5
    errs = []
    for cells in (64, 128, 256):
        f0 = px.GridFunction.constant(box, cells, 0.0)
        u = f0.like(w.value(f0.nodes()))
        g = gradient_at(*_lattice(u, field, f0), u.values.reshape(-1), 0.0)
        i = cells // 2          # node at x0raw
        h = 1.0 / cells
        pairing = g[i] / h      # divide by int(phi) = h
        errs.append(abs(pairing + px.p_laplacian_pointwise(w, field, [x0])))
    assert errs[2] <= errs[0]
    assert errs[2] <= 0.05 * abs(px.p_laplacian_pointwise(w, field, [x0])) + 0.05


# -- pointwise operator on batches -------------------------------------------------

def exp_plus_quadratic(c):
    """w = exp(c . x) + |x|^2 / 2 in any dimension."""
    c = np.asarray(c, dtype=float)

    def hessian(pts):
        e = np.exp(pts @ c)
        return e[:, None, None] * np.outer(c, c) + np.eye(pts.shape[1])

    return px.SmoothFunction(
        value=lambda pts: np.exp(pts @ c) + 0.5 * np.sum(pts**2, axis=1),
        gradient=lambda pts: np.exp(pts @ c)[:, None] * c + pts,
        hessian=hessian,
    )


@given(n=st.integers(1, 3), kind=st.sampled_from(["affine", "radial"]),
       reg_eps=st.sampled_from([0.0, 1e-8]), m=st.integers(1, 24),
       seed=st.integers(0, 2**32 - 1))
def test_pointwise_batch_matches_points(n, kind, reg_eps, m, seed):
    rng = np.random.default_rng(seed)
    box = px.Box(-np.ones(n), np.ones(n))
    # p stays in [1.3, 4.7] on the box, inside the [1.2, 5] range under test
    offset = rng.uniform(2.5, 3.5)
    if kind == "affine":
        field = px.affine_exponent(offset, rng.uniform(-1.0, 1.0, n) * 1.2 / n, box)
    else:
        field = px.radial_exponent(rng.uniform(-1.0, 1.0, n), offset,
                                   rng.uniform(-1.0, 1.0) * 1.2 / (2.0 * np.sqrt(n)), box)
    w = exp_plus_quadratic(rng.uniform(-1.0, 1.0, n))
    pts = rng.uniform(-1.0, 1.0, (m, n))
    batch = px.p_laplacian_pointwise(w, field, pts, reg_eps)
    ref = np.array([pointwise_reference(w, field, x, reg_eps) for x in pts])
    assert isinstance(batch, np.ndarray) and batch.shape == (m,)
    np.testing.assert_allclose(batch, ref, rtol=1e-13, atol=0.0)


def test_pointwise_return_types():
    w = quadratic_2d()
    f = px.constant_exponent(3.0)
    assert type(px.p_laplacian_pointwise(w, f, [0.3, -0.7])) is float
    assert type(px.p_laplacian_pointwise(w, f, np.array([[0.3, -0.7]]))) is np.ndarray
    out = px.p_laplacian_pointwise(w, f, np.array([[0.3, -0.7], [1.0, 0.0]]))
    assert out.shape == (2,) and out[1] == pytest.approx(12.0, rel=1e-13)
    line = px.SmoothFunction(lambda pts: pts[:, 0] ** 2, lambda pts: 2.0 * pts,
                             lambda pts: np.full((len(pts), 1, 1), 2.0))
    assert type(px.p_laplacian_pointwise(line, f, [0.5])) is float
    assert type(px.p_laplacian_pointwise(line, f, 0.5)) is float
    col = px.p_laplacian_pointwise(line, f, np.array([[0.5], [0.25], [-1.0]]))
    assert col.shape == (3,)
    # d/dx (|2x| 2x) = 8|x|
    np.testing.assert_allclose(col, [4.0, 2.0, 8.0], rtol=1e-13)


def test_pointwise_batch_zero_gradient_limits():
    # grad w = (x (x^2 - 1), y) vanishes at (+-1, 0), where Lap w = 3;
    # p = 2.5 + x / 2 is 2 at (-1, 0) and 3 at (1, 0)
    w = px.SmoothFunction(
        value=lambda pts: (pts[:, 0] ** 2 - 1.0) ** 2 / 4.0 + pts[:, 1] ** 2 / 2.0,
        gradient=lambda pts: np.stack([pts[:, 0] * (pts[:, 0] ** 2 - 1.0), pts[:, 1]], axis=1),
        hessian=lambda pts: np.stack([
            np.stack([3.0 * pts[:, 0] ** 2 - 1.0, np.zeros(len(pts))], axis=1),
            np.stack([np.zeros(len(pts)), np.ones(len(pts))], axis=1)], axis=1),
    )
    box = px.Box([-1.0, -1.0], [1.0, 1.0])
    field = px.affine_exponent(2.5, [0.5, 0.0], box)
    pts = np.array([[0.3, 0.2], [-1.0, 0.0], [0.5, -0.4], [1.0, 0.0]])
    out = px.p_laplacian_pointwise(w, field, pts)
    assert out[1] == 3.0 and out[3] == 0.0
    for i in (0, 2):
        assert out[i] == pytest.approx(px.p_laplacian_pointwise(w, field, pts[i]), rel=1e-13)
        assert np.isfinite(out[i]) and out[i] != 0.0
    low = px.affine_exponent(1.8, [0.5, 0.0], box)  # p = 1.3 at (-1, 0)
    with pytest.raises(ValueError, match="undefined"):
        px.p_laplacian_pointwise(w, low, pts)
    # regularized, the same batch is defined everywhere
    assert np.all(np.isfinite(px.p_laplacian_pointwise(w, low, pts, 1e-8)))
