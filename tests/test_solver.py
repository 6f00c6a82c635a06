import logging
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

import pxlap as px
import pxlap.solver as solver
from conftest import (grid_1d, pointwise_reference, reference_gradient, reference_hat_norms,
                      reference_warm_start)
from pxlap.quadrature import CellGeometry
from pxlap.solver import _Discretization, _InteriorPattern, _Lattice


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


def test_energy_linear_p2():
    u = grid_1d(0.0, 1.0, 64, lambda x: x)
    f = grid_1d(0.0, 1.0, 64, lambda x: np.zeros_like(x))
    assert px.energy(u, px.constant_exponent(2.0), f) == pytest.approx(0.5, rel=1e-12)


def test_energy_steeper_gradient_p4():
    u = grid_1d(0.0, 1.0, 64, lambda x: 2.0 * x)
    f = grid_1d(0.0, 1.0, 64, lambda x: np.zeros_like(x))
    assert px.energy(u, px.constant_exponent(4.0), f) == pytest.approx(4.0, rel=1e-12)


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


def test_smoothing_scale_reads_every_axis(caplog):
    # The Newton-matrix smoothing scale comes from the steepest warm-start
    # slope over all axes: a steep ramp along y and the same ramp along x get
    # the same scale, hence the same iterations and mirrored solutions.  The
    # scale exceeds reg_eps, so it is the first step's eps_h.
    caplog.set_level(logging.DEBUG, logger="pxlap")
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.constant(box, 12, -1.0)
    field = px.constant_exponent(3.0, domain=box)
    results, scales = [], []
    for ramp in (lambda pts: 40.0 * pts[:, 1], lambda pts: 40.0 * pts[:, 0]):
        caplog.clear()
        spec = px.ProblemSpec(box, field, f, ramp, reg_eps=1e-8, tol=1e-8)
        results.append(px.solve_dirichlet(spec))
        first = newton_records(caplog)[0]
        assert first["eps_h"] == f"{smoothing_scale(spec):.3e}"
        scales.append(float(first["eps_h"]))
    along_y, along_x = results
    assert scales[0] == pytest.approx(scales[1], rel=1e-12)
    assert scales[0] >= 0.3
    assert along_y.converged and along_x.converged
    assert along_y.iterations == along_x.iterations
    assert np.abs(along_y.solution.values - along_x.solution.values.T).max() <= 1e-10


def full_eps_ladder(spec):
    """The continuation ladder run down to 1e-300, as before it stopped at 1e-12."""
    if spec.field.p1 >= 2.0 or spec.reg_eps >= 1e-3:
        return [spec.reg_eps]
    stages, e = [], 1e-2
    while e > max(spec.reg_eps, 1e-300) * 10.0:
        stages.append(e)
        e *= 0.01
    return stages + [spec.reg_eps]


def test_zero_reg_eps_ladder_stops_at_the_hessian_floor(monkeypatch):
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.constant(box, 16, -1.0)
    spec = px.ProblemSpec(box, px.constant_exponent(1.5, domain=box), f, 0.0, reg_eps=0.0)
    stages = solver._eps_schedule(spec)
    assert len(stages) <= 7 and stages[-1] == 0.0
    res = px.solve_dirichlet(spec)
    assert res.converged and res.residual <= spec.tol
    monkeypatch.setattr(solver, "_eps_schedule", full_eps_ladder)
    assert len(full_eps_ladder(spec)) == 150
    old = px.solve_dirichlet(spec)
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
], ids=["reg_eps-nan", "reg_eps-inf", "tol-inf", "max_iter-fraction", "max_iter-negative",
        "rhs-nan"])
def test_problem_spec_rejects_bad_fields(name, value, message):
    # Each of these used to fail late or silently: a full iteration budget,
    # a stalled line search, a converged solve at tol = inf, a TypeError from
    # range, an empty budget, or a non-finite warm start.
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
    got = solver._laplace_warm_start(spec, CellGeometry.build(f))
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
    assert ray_start(spec)[1][0] == pytest.approx(1.0, abs=1e-12)


# -- the start on the ray of the warm start ---------------------------------------

def ray_start(spec):
    """The start of a solve, the p = 2 warm start scaled along its ray, as
    (nodal array, (s, trials, energy of the warm start, energy of the start))."""
    disc = _Discretization(spec.rhs, spec.field, spec.rhs)
    u2 = solver._laplace_warm_start(spec, disc.geo).reshape(-1)
    u, _, record = solver._ray_start(disc, u2, solver._eps_schedule(spec)[0])
    return u.reshape(spec.rhs.dims), record


@pytest.mark.parametrize("n_axes, p", [(1, 1.5), (2, 1.2), (2, 2.0), (2, 3.0), (3, 6.0)])
def test_ray_start_matches_the_closed_form(n_axes, p):
    # Constant p, zero data, eps = 0: phi(s) = s^p vol/2^n sum |g_w|^p / p + s q,
    # q = sum_i m_i f_i w_i, is least at s = (-q / (vol/2^n sum |g_w|^p))^(1/(p-1)),
    # which is 1 for p = 2.  Newton in log s takes it in one step.
    box = px.Box([0.0] * n_axes, [1.0] * n_axes)
    f = px.GridFunction.from_callable(box, {1: 40, 2: 12, 3: 6}[n_axes],
                                      lambda pts: -1.0 - 0.5 * np.cos(3.0 * pts.sum(axis=1)))
    spec = px.ProblemSpec(box, px.constant_exponent(p, domain=box), f, 0.0, reg_eps=0.0)
    geo = CellGeometry.build(f)
    w = solver._laplace_warm_start(spec, geo).reshape(-1)
    q = float(np.sum(geo.node_weights * f.values.reshape(-1) * w))
    mags = np.linalg.norm(geo.corner_gradients(w), axis=-1)
    expected = (-q / (geo.cell_vol / 2**n_axes * np.sum(mags**p))) ** (1.0 / (p - 1.0))
    disc = _Discretization(f, spec.field, f)
    u, (grads, sq), (s, trials, e2, e) = solver._ray_start(disc, w, 0.0)
    assert s == pytest.approx(expected, rel=1e-10)
    assert trials == (0 if p == 2.0 else 1)
    if p == 2.0:
        assert s == pytest.approx(1.0, abs=1e-12) and u is w
    np.testing.assert_allclose(u, s * w, rtol=1e-15)
    np.testing.assert_allclose(grads, geo.corner_gradients(u), rtol=1e-13, atol=1e-13)
    assert e <= e2 and e == disc.energy(u, (grads, sq), 0.0)


@given(n=st.integers(1, 3), p=st.floats(1.2, 6.0), ramp=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_ray_start_never_raises_the_energy(n, p, ramp, seed):
    # Zero or ramp data and a source of either sign: the start keeps the data
    # and its energy at the first stage eps is not above that of the p = 2 start.
    rng = np.random.default_rng(seed)
    box = px.Box(np.zeros(n), np.ones(n))
    f = px.GridFunction.constant(box, tuple(rng.integers(3, {1: 30, 2: 10, 3: 6}[n], size=n)), 0.0)
    f = f.like(rng.uniform(-2.0, 1.0, f.dims))
    slope = rng.uniform(-5.0, 5.0, n)
    data = (lambda pts: 0.5 + pts @ slope) if ramp else 0.0
    field = px.constant_exponent(p, domain=box)
    spec = px.ProblemSpec(box, field, f, data)
    eps = solver._eps_schedule(spec)[0]
    u2 = f.like(solver._laplace_warm_start(spec, CellGeometry.build(f)))
    start, (s, trials, e2, e) = ray_start(spec)
    assert s >= 0.0 and trials <= 50 and e <= e2
    bmask = f.boundary_mask()
    assert np.array_equal(start[bmask], u2.values[bmask])
    before = px.energy(u2, field, f, eps)
    assert px.energy(f.like(start), field, f, eps) <= before + 1e-12 * abs(before)


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
    zero, (s0, *_) = ray_start(px.ProblemSpec(box, field, f, 0.0))
    moved, (s, *_) = ray_start(px.ProblemSpec(box, field, f, c))
    assert s == pytest.approx(s0, rel=1e-9, abs=1e-12)
    np.testing.assert_allclose(moved - c, zero, rtol=0.0,
                               atol=1e-9 * (abs(c) + np.abs(zero).max()))


@pytest.mark.parametrize("n_axes", [1, 2, 3])
def test_constant_data_is_its_own_start(n_axes):
    # At reg_eps = 0 the flux |g|^(p-1) of a rounding-sized corner gradient is
    # far above tol for p near 1 ((1e-16)^0.2 = 6e-4), so the start must be
    # the constant data exactly; it then converges with no Newton step.
    box = px.Box([0.0] * n_axes, [1.0] * n_axes)
    f = px.GridFunction.constant(box, 9, 0.0)
    spec = px.ProblemSpec(box, px.constant_exponent(1.2, domain=box), f, 0.3, reg_eps=0.0)
    assert ray_start(spec)[1][0] == 0.0
    res = px.solve_dirichlet(spec)
    assert res.converged and res.iterations == 0 and res.message == ""
    assert np.all(res.solution.values == 0.3)
    assert px.weak_residual(res.solution, spec) <= spec.tol


def test_start_record_per_solve(caplog):
    caplog.set_level(logging.DEBUG, logger="pxlap")
    spec = continuation_problem()
    res = px.solve_dirichlet(spec)
    starts = [dict(kv.split("=") for kv in r.getMessage().split()[1:])
              for r in caplog.records if r.name == "pxlap" and r.getMessage().startswith("start ")]
    assert len(starts) == 1 and res.converged
    s, trials, e2, e = ray_start(spec)[1]
    assert starts[0] == {"scale": f"{s:.6e}", "trials": str(trials),
                         "energy_p2": f"{e2:.6e}", "energy": f"{e:.6e}"}
    assert 0.0 < s < 1.0 and e < e2
    assert res.energy_trace[0] == e


def test_long_1d_warm_start_memory_is_linear():
    # A dense sine basis would take 8 N^2 bytes on this lattice (3.2 GB); the
    # FFT takes a few arrays of the lattice's size.  The 3-point Laplacian is
    # exact on the parabola, so only rounding separates the two.
    box = px.Box([0.0], [1.0])
    f = px.GridFunction.constant(box, 20000, -2.0)
    spec = px.ProblemSpec(box, px.constant_exponent(2.0, domain=box), f, 0.0, reg_eps=0.0)
    geo = CellGeometry.build(f)
    tracemalloc.start()
    try:
        u = solver._laplace_warm_start(spec, geo)
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
        pattern = _InteriorPattern.build(CellGeometry.build(f), f.boundary_mask())
        bandwidths.append(pattern.bandwidth)
    tall, wide = results
    assert bandwidths == [6, 6]
    assert tall.converged and wide.converged
    assert tall.iterations == wide.iterations
    assert np.abs(tall.solution.values - wide.solution.values.T).max() <= 1e-10


# -- Newton matrix ---------------------------------------------------------------

def reference_hessian(disc, interior, u_flat, reg_eps, eps_h):
    """Interior Newton matrix via the pointwise Hessian tensor, COO and slicing.

    The straightforward assembly: the (ncells, 2^n, n, n) pointwise Hessians
    are sandwiched between corner stencils, summed into the full nodal
    matrix, and the interior rows and columns are sliced out.
    """
    eps = max(reg_eps, eps_h if eps_h is not None else 0.0, 1e-12)
    grads = disc.geo.corner_gradients(u_flat)
    w = np.sqrt(np.sum(grads**2, axis=2) + eps**2)
    c1 = w ** (disc.p_corner - 2.0)
    c2 = (disc.p_corner - 2.0) * w ** (disc.p_corner - 4.0)
    eye = np.eye(disc.geo.n_axes)
    M = c1[:, :, None, None] * eye + c2[:, :, None, None] * (
        grads[:, :, :, None] * grads[:, :, None, :])
    G = disc.geo.grad_stencils
    blocks = np.einsum("kaj,ckab,kbl->cjl", G, M, G) * (disc.geo.cell_vol / disc.nc)
    rows = np.repeat(disc.geo.corner_idx, disc.nc, axis=1).ravel()
    cols = np.tile(disc.geo.corner_idx, (1, disc.nc)).ravel()
    nn = u_flat.size
    full = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(nn, nn)).tocsr()
    return full[interior][:, interior].tocsc()


def random_state(n_axes, seed=0):
    """A discretization with p in [1.3, 4.3], its band layout and a rough random iterate."""
    cells = {1: 16, 2: 8, 3: 4}[n_axes]
    rng = np.random.default_rng(seed)
    box = px.Box([0.0] * n_axes, [1.0] * n_axes)
    field = px.affine_exponent(1.3, rng.uniform(0.0, 3.0 / n_axes, n_axes), box)
    f = px.GridFunction.from_callable(box, cells, lambda pts: np.cos(3.0 * pts.sum(axis=1)))
    u = f.like(rng.standard_normal(f.dims))
    disc = _Discretization(u, field, f)
    return disc, _InteriorPattern.build(disc.geo, u.boundary_mask()), u.values.reshape(-1)


def newton_matrix(disc, pattern, u_flat, reg_eps, eps_h=None):
    """The band Newton matrix at u, smoothed as solve_dirichlet smooths it."""
    eps_h = max(reg_eps, eps_h if eps_h is not None else 0.0)
    return pattern.matrix(disc.hessian_blocks(disc.corners(u_flat), eps_h))


def gradient_at(disc, u_flat, eps):
    return disc.gradient(disc.corners(u_flat), eps)


def energy_at(disc, u_flat, eps):
    return disc.energy(u_flat, disc.corners(u_flat), eps)


def band_to_dense(H):
    """Expand the upper band storage of the Newton matrix to a dense symmetric matrix."""
    bw, m = H.shape[0] - 1, H.shape[1]
    dense = np.zeros((m, m))
    for d in range(bw + 1):
        idx = np.arange(d, m)
        dense[idx - d, idx] = H[bw - d, d:]
        dense[idx, idx - d] = H[bw - d, d:]
    return dense


@pytest.mark.parametrize("n_axes", [1, 2, 3])
@pytest.mark.parametrize("reg_eps, eps_h", [(1e-8, None), (1e-3, 1e-1), (1e-2, 1e-4)])
def test_hessian_matches_reference_assembly(n_axes, reg_eps, eps_h):
    disc, pattern, u = random_state(n_axes)
    H = newton_matrix(disc, pattern, u, reg_eps, eps_h)
    ref = reference_hessian(disc, pattern.interior, u, reg_eps, eps_h)
    bw = pattern.bandwidth
    assert H.shape == (bw + 1, ref.shape[0])
    coo = ref.tocoo()
    assert np.abs(coo.col - coo.row).max() <= bw  # nothing outside the band
    assert np.abs(band_to_dense(H) - ref.toarray()).max() <= 1e-12 * np.abs(ref.data).max()
    # the band solve agrees with a sparse direct solve of the reference matrix
    rhs = np.random.default_rng(n_axes).standard_normal(ref.shape[0])
    x_ref = spla.spsolve(ref, rhs)
    factor = solver.sla.cholesky_banded(H, overwrite_ab=True, check_finite=False)
    x = solver.sla.cho_solve_banded((factor, False), rhs, check_finite=False)
    assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()


@pytest.mark.parametrize("n_axes", [1, 2, 3])
def test_hessian_is_derivative_of_gradient(n_axes):
    disc, pattern, u = random_state(n_axes, seed=1)
    interior = pattern.interior
    H = band_to_dense(newton_matrix(disc, pattern, u, 0.05))
    step = 1e-6
    fd = np.empty_like(H)
    for col, node in enumerate(interior):
        e = np.zeros_like(u)
        e[node] = step
        fd[:, col] = (gradient_at(disc, u + e, 0.05)
                      - gradient_at(disc, u - e, 0.05))[interior] / (2.0 * step)
    assert np.abs(H - fd).max() <= 1e-6 * np.abs(H).max()


@pytest.mark.parametrize("n_axes", [1, 2, 3])
def test_solve_spd_rejects_indefinite_band(n_axes):
    # Shift the lowest eigenvalue below 0: the diagonal stays positive but the
    # band Cholesky meets a nonpositive pivot and must raise, not return NaN.
    disc, pattern, u = random_state(n_axes, seed=3)
    H = newton_matrix(disc, pattern, u, 0.05)
    eig = np.linalg.eigvalsh(band_to_dense(H))
    H[-1] -= 0.5 * (eig[0] + eig[1])
    assert np.all(H[-1] > 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        solver.sla.cholesky_banded(H, overwrite_ab=True, check_finite=False)


@pytest.mark.parametrize("n_axes", [1, 2, 3])
@pytest.mark.parametrize("eps_h", [None, 1e-1])
def test_block_matvec_matches_band(n_axes, eps_h):
    disc, pattern, u = random_state(n_axes, seed=5)
    x = np.random.default_rng(n_axes).standard_normal(pattern.interior.size)
    ref = band_to_dense(newton_matrix(disc, pattern, u, 1e-3, eps_h)) @ x
    blocks = disc.hessian_blocks(disc.corners(u), max(1e-3, eps_h if eps_h is not None else 0.0))
    y = disc.hessian_vec(blocks, pattern.interior, x)
    assert np.abs(y - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n_axes", [1, 2, 3])
def test_gradient_is_derivative_of_energy(n_axes):
    disc, _, u = random_state(n_axes, seed=2)
    g = gradient_at(disc, u, 0.05)
    step = 1e-6
    fd = np.empty_like(g)
    for node in range(u.size):
        e = np.zeros_like(u)
        e[node] = step
        fd[node] = (energy_at(disc, u + e, 0.05) - energy_at(disc, u - e, 0.05)) / (2.0 * step)
    assert np.abs(g - fd).max() <= 1e-6 * np.abs(g).max()


@pytest.mark.parametrize("n_axes", [1, 2, 3])
@pytest.mark.parametrize("reg_eps", [0.0, 1e-3])
def test_gradient_matches_reference_scatter(n_axes, reg_eps):
    disc, _, u = random_state(n_axes, seed=4)
    ref = reference_gradient(disc, u, reg_eps)
    assert np.abs(gradient_at(disc, u, reg_eps) - ref).max() <= 1e-13 * np.abs(ref).max()


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
    # - the Newton blocks match the pointwise-Hessian reference assembly;
    # - the gradient matches a central difference of the energy, which is
    #   even in the step at a zero corner gradient, so exact there;
    # - hessian_vec matches a central difference of the gradient along a
    #   direction that keeps the flat cells flat, away from the kink of
    #   |g|^(p-2) g that eps_h = 0 leaves there.
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

    disc = _Discretization(f, field, f)
    pattern = _InteriorPattern.build(disc.geo, f.boundary_mask())
    interior = pattern.interior
    corners = disc.corners(u)
    assert np.any(corners[1] == 0.0)

    H = band_to_dense(pattern.matrix(disc.hessian_blocks(corners, eps_h)))
    ref = reference_hessian(disc, interior, u, 0.0, eps_h).toarray()
    assert np.abs(H - ref).max() <= 1e-12 * np.abs(ref).max()

    g = gradient_at(disc, u, eps_h)
    step = 1e-6
    fd = np.empty_like(g)
    for node in range(u.size):
        e = np.zeros_like(u)
        e[node] = step
        fd[node] = (energy_at(disc, u + e, eps_h) - energy_at(disc, u - e, eps_h)) / (2.0 * step)
    assert np.abs(g - fd).max() <= 1e-6 * np.abs(g).max()

    x = np.zeros_like(u)
    x[interior] = rng.standard_normal(interior.size)
    x[np.unique(disc.geo.corner_idx[(corners[1] == 0.0).any(axis=1)])] = 0.0
    hv = disc.hessian_vec(disc.hessian_blocks(corners, eps_h), interior, x[interior])
    fd = (gradient_at(disc, u + step * x, eps_h)
          - gradient_at(disc, u - step * x, eps_h))[interior] / (2.0 * step)
    assert np.abs(hv - fd).max() <= 1e-6 * np.abs(hv).max()

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
    disc = _Discretization(f, exponent_in_band(kind, box), f)
    assert 1.3 - 1e-12 <= disc.p_node.min() and disc.p_node.max() <= 4.7 + 1e-12
    ref = reference_hat_norms(disc, disc.interior)
    assert np.abs(disc.hat_norms() - ref).max() <= 1e-9 * np.abs(ref).max()


def test_hat_norms_on_anisotropic_lattice():
    box = px.Box([0.0, 0.0], [1.0, 4.0])
    f = px.GridFunction.constant(box, (6, 24), -1.0)
    disc = _Discretization(f, px.affine_exponent(1.3, [1.0, 0.6], box), f)
    interior = np.flatnonzero(~f.boundary_mask().reshape(-1))
    assert np.array_equal(disc.interior, interior)
    ref = reference_hat_norms(disc, interior)
    assert np.abs(disc.hat_norms() - ref).max() <= 1e-9 * np.abs(ref).max()


@pytest.mark.parametrize("n_axes", [1, 2, 3])
@pytest.mark.parametrize("p", [1.3, 2.0, 4.7])
def test_hat_norms_constant_p_closed_form(n_axes, p):
    # Around an interior node each of the 2^n cells has one corner at the node,
    # where |grad phi| = |1/h|, and n corners one edge away along axis a, where
    # |grad phi| = 1/h_a; each corner weighs vol / 2^n.  With constant p the
    # gradient part is (vol / 2^n * sum |grad phi|^p)^(1/p), the value part vol^(1/p).
    box = px.Box([0.0] * n_axes, [1.0, 2.0, 0.5][:n_axes])
    f = px.GridFunction.constant(box, (12, 6, 4)[:n_axes], -1.0)
    disc = _Discretization(f, px.constant_exponent(p, domain=box), f)
    h = f.spacing
    vol = float(np.prod(h))
    grad_part = (vol * (np.sum(h**-2.0) ** (p / 2.0) + np.sum(h**-p))) ** (1.0 / p)
    norms = disc.hat_norms()
    assert np.abs(norms - (vol ** (1.0 / p) + grad_part)).max() <= 1e-12 * grad_part


def test_hat_norms_raise_typed_errors():
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.constant(box, 8, -1.0)
    disc = _Discretization(f, px.affine_exponent(1.3, [3.0, 0.4], box), f)
    assert np.all(np.isfinite(disc.hat_norms()))
    with pytest.raises(solver.SolverError, match=r"hat norms: 49 of 49 nodes .* in 1 Newton steps"):
        disc.hat_norms(px.NormConfig(max_iter=1))
    # the p of node (1, 1) enters the hats of (1, 1) and of its interior
    # neighbours (2, 1) and (1, 2) along the cell edges
    p_node = disc.p_node.copy()
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
    assert res.converged and len(solver._eps_schedule(spec)) > 1
    assert len(builds) == 1
    assert px.weak_residual(res.solution, spec) == res.residual
    assert len(builds) == 1


# -- lattice cache -----------------------------------------------------------------

def test_same_lattice_and_p_build_nothing(monkeypatch, geometry_builds):
    # a second problem on the same lattice, with an equal but new field object
    # and another source, reuses the geometry, the band layout and the hat
    # norms; its results match a build from an empty cache
    luxemburg = count_calls(monkeypatch, solver, "log_luxemburg")
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    field = px.affine_exponent(2.5, [0.3, 0.2], box)
    f1 = px.GridFunction.constant(box, 12, -1.0)
    spec1 = px.ProblemSpec(box, field, f1, 0.0)
    res1 = px.solve_dirichlet(spec1)
    assert px.weak_residual(res1.solution, spec1) == res1.residual
    assert len(geometry_builds) == 1 and len(luxemburg) == 1
    f2 = f1.like(-1.0 - f1.nodes()[:, 0].reshape(f1.dims))
    spec2 = px.ProblemSpec(box, px.affine_exponent(2.5, [0.3, 0.2], box), f2, 0.0)
    res2 = px.solve_dirichlet(spec2)
    e2 = px.energy(res2.solution, spec2.field, f2)
    assert px.weak_residual(res2.solution, spec2) == res2.residual
    assert len(geometry_builds) == 1 and len(luxemburg) == 1
    monkeypatch.setattr(solver, "_lattice_cache", None)
    fresh = px.solve_dirichlet(spec2)
    assert len(geometry_builds) == 2 and len(luxemburg) == 2
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
    lat = _Discretization(res.solution, spec.field, f).lattice
    assert lat is solver._lattice_cache
    geo = lat.geo
    arrays = [geo.spacing, geo.corner_offsets, geo.corner_idx, geo.grad_stencils,
              geo.node_weights, lat.origin, lat.p_node, lat.p_corner, lat.interior,
              lat.pattern.interior, lat.pattern.scatter, lat.basis, lat.hat_norms()]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0


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


def newton_records(caplog):
    """The per-iteration debug records of the solver, as dicts of strings."""
    return [dict(kv.split("=") for kv in r.getMessage().split()[1:])
            for r in caplog.records if r.name == "pxlap" and r.getMessage().startswith("newton ")]


@pytest.mark.parametrize("owner, name, fake, linear", [
    (solver.sla, "cholesky_banded", indefinite_factor, "fallback"),
    (solver.sla, "cho_solve_banded", lambda real, cb, rhs, **kw: np.full_like(rhs, np.nan),
     "factor"),
    (solver.sla, "cho_solve_banded", lambda real, cb, rhs, **kw: -real(cb, rhs, **kw), "factor"),
], ids=["factor-error", "non-finite", "non-descent"])
def test_gradient_direction_fallback(monkeypatch, caplog, owner, name, fake, linear):
    caplog.set_level(logging.DEBUG, logger="pxlap")
    exact_steps_only(monkeypatch)
    fake_every_call(monkeypatch, owner, name, fake)
    factors = count_calls(monkeypatch, solver.sla, "cholesky_banded")
    res = px.solve_dirichlet(fallback_problem(max_iter=6))
    assert len(factors) == res.iterations == 6
    assert res.message.startswith("iteration budget exhausted")
    assert_nonincreasing(res.energy_trace)
    assert res.energy_trace[-1] < res.energy_trace[0]
    recs = newton_records(caplog)
    assert [(r["direction"], r["linear"]) for r in recs] == [("gradient-fallback", linear)] * 6


def test_steepest_descent_rescue(monkeypatch, caplog):
    # A direction so long that all 60 Armijo trials overshoot: only the
    # conservative gradient step of the rescue can lower the energy.
    caplog.set_level(logging.DEBUG, logger="pxlap")
    exact_steps_only(monkeypatch)
    fake_every_call(monkeypatch, solver.sla, "cho_solve_banded",
                    lambda real, cb, rhs, **kw: 1e30 * real(cb, rhs, **kw))
    res = px.solve_dirichlet(fallback_problem(max_iter=4))
    assert res.message.startswith("iteration budget exhausted")
    assert len(res.energy_trace) == 5
    assert_nonincreasing(res.energy_trace)
    assert res.energy_trace[-1] < res.energy_trace[0]
    recs = newton_records(caplog)
    assert [r["direction"] for r in recs] == ["steepest-rescue"] * 4
    assert all(int(r["backtracks"]) >= 60 for r in recs)


def continuation_problem(cells=16, amp=1.0):
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.from_callable(
        box, cells, lambda pts: -amp * (1.0 + 0.5 * np.cos(3.0 * pts.sum(axis=1))))
    return px.ProblemSpec(box, px.constant_exponent(1.5, domain=box), f, 0.0)


def smoothing_scale(spec):
    """The Newton-matrix smoothing scale of a solve: 1e-2 times the steepest
    slope of its start along any axis, at least 1e-2."""
    nodal = ray_start(spec)[0]
    steepest = max(float(np.abs(np.diff(nodal, axis=a)).max()) / h
                   for a, h in enumerate(spec.rhs.spacing))
    return 1e-2 * max(1.0, steepest)


@pytest.mark.parametrize("amp", [1.0, 100.0], ids=["mild", "steep"])
def test_smoothing_decays_over_the_whole_solve(caplog, amp):
    # The Newton-matrix smoothing decays by 0.25 per Newton step across
    # stage boundaries: each stage starts where the previous one stopped
    # instead of going back to the warm-start scale.  The steep source makes
    # that scale exceed the first stage eps, so the first stage decays it.
    caplog.set_level(logging.DEBUG, logger="pxlap")
    spec = continuation_problem(amp=amp)
    scale = smoothing_scale(spec)
    res = px.solve_dirichlet(spec)
    assert res.converged and res.residual <= spec.tol
    assert_nonincreasing(res.energy_trace)
    recs = newton_records(caplog)
    assert len(recs) == res.iterations
    eps_h = [float(r["eps_h"]) for r in recs]
    assert all(b <= a for a, b in zip(eps_h, eps_h[1:]))
    first = [r for r in recs if r["stage_eps"] == recs[0]["stage_eps"]]
    eps0 = solver._eps_schedule(spec)[0]
    assert [r["eps_h"] for r in first] == [
        f"{max(eps0, scale * 0.25 ** k):.3e}" for k in range(len(first))]
    # the first step of a stage, after i steps in all, smooths at scale * 0.25^i;
    # the record's it is the step number over the whole solve
    assert [r["it"] for r in recs] == [str(i) for i in range(1, len(recs) + 1)]
    for i, r in enumerate(recs):
        if i == 0 or r["stage_eps"] != recs[i - 1]["stage_eps"]:
            assert r["eps_h"] == f"{max(float(r['stage_eps']), scale * 0.25 ** i):.3e}"
    if amp == 1.0:
        assert scale == eps0 and res.iterations <= 20
    else:
        assert scale > eps0 and float(first[0]["eps_h"]) > eps0


def affine_cube(cells):
    box = px.Box([0.0] * 3, [1.0] * 3)
    f = px.GridFunction.constant(box, cells, -1.0)
    return px.ProblemSpec(box, px.affine_exponent(2.5, [0.3, 0.2, 0.1], box), f, 0.0,
                          reg_eps=1e-8, tol=1e-8)


@pytest.mark.parametrize("make, iterations", [
    (lambda: problem_1d(-1.0, 1.0, 512, 3.0, 1.0, 0.0, reg_eps=1e-8, tol=1e-9), 6),
    (lambda: affine_cube(8), 4),
], ids=["1d-p3", "3d-affine"])
def test_single_stage_keeps_its_iteration_count(caplog, make, iterations):
    # A p >= 2 solve is one stage that starts from the warm-start scale, so
    # carrying the smoothing across stages leaves it exactly as it was.
    caplog.set_level(logging.DEBUG, logger="pxlap")
    spec = make()
    res = px.solve_dirichlet(spec)
    recs = newton_records(caplog)
    assert res.converged and len({r["stage_eps"] for r in recs}) == 1
    assert res.iterations == iterations == len(recs)
    assert recs[0]["eps_h"] == f"{max(spec.reg_eps, smoothing_scale(spec)):.3e}"


def test_one_factor_per_stage_then_pcg(monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="pxlap")
    factors = count_calls(monkeypatch, solver.sla, "cholesky_banded")
    spec = continuation_problem()
    res = px.solve_dirichlet(spec)
    assert res.converged and res.residual <= spec.tol
    assert_nonincreasing(res.energy_trace)
    recs = newton_records(caplog)
    assert len(recs) == res.iterations
    stages = [r["stage_eps"] for r in recs]
    firsts = [i for i in range(len(recs)) if i == 0 or stages[i] != stages[i - 1]]
    assert len(set(stages)) == len(firsts) == len(solver._eps_schedule(spec))
    for i, r in enumerate(recs):
        assert r["direction"] == "newton"
        assert r["linear"] == ("factor" if i in firsts else "pcg")
        assert int(r["cg_iters"]) == 0 if i in firsts else 1 <= int(r["cg_iters"]) <= solver._CG_CAP
    assert len(factors) == len(firsts)  # one per stage, none for the warm start


def degenerate_problem():
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.from_callable(box, 8,
                                      lambda pts: -1.0 - 0.5 * np.cos(3.0 * pts.sum(axis=1)))
    return px.ProblemSpec(box, px.constant_exponent(6.0, domain=box), f, 0.0)


@pytest.mark.parametrize("make", [continuation_problem, degenerate_problem],
                         ids=["continuation", "backtracking"])
def test_one_corner_evaluation_per_iterate(monkeypatch, caplog, make):
    # The warm start's corner gradients, then one evaluation per line-search
    # trial: the accepted trial's corners feed the next step's gradient and
    # Newton matrix and the next stage's first energy.
    caplog.set_level(logging.DEBUG, logger="pxlap")
    calls = count_calls(monkeypatch, CellGeometry, "corner_gradients")
    res = px.solve_dirichlet(make())
    assert res.converged
    recs = newton_records(caplog)
    assert len(recs) == res.iterations > 0
    assert len(calls) == 1 + sum(int(r["backtracks"]) + 1 for r in recs)
    if make is degenerate_problem:
        assert sum(int(r["backtracks"]) for r in recs) > 0


def test_stale_preconditioner_forces_refactor(monkeypatch, caplog):
    # Plain CG (the identity as the preconditioner) often needs more than
    # the cap to meet the forcing tolerance; each such step refactors, and
    # so does the step after any CG solve that took more than _CG_NEAR
    # iterations, without running CG.
    caplog.set_level(logging.DEBUG, logger="pxlap")
    pcg = solver._pcg
    monkeypatch.setattr(solver, "_pcg", lambda matvec, precond, b, rtol: pcg(matvec, lambda r: r, b, rtol))
    factors = count_calls(monkeypatch, solver.sla, "cholesky_banded")
    spec = continuation_problem(amp=100.0)
    res = px.solve_dirichlet(spec)
    assert res.converged and res.residual <= spec.tol
    assert_nonincreasing(res.energy_trace)
    recs = newton_records(caplog)
    assert all(r["direction"] == "newton" for r in recs)
    capped = [r for r in recs if r["cg_iters"] == str(solver._CG_CAP)]
    assert len(capped) >= 3 and all(r["linear"] == "factor" for r in capped)
    near = [i for i in range(1, len(recs))
            if solver._CG_NEAR < int(recs[i - 1]["cg_iters"]) < solver._CG_CAP]
    assert near
    for prev, r in zip(recs, recs[1:]):
        if int(prev["cg_iters"]) > solver._CG_NEAR:
            assert (r["linear"], r["cg_iters"]) == ("factor", "0")
    assert len(factors) == sum(r["linear"] == "factor" for r in recs)


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


def test_non_descent_cg_direction_forces_refactor(monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="pxlap")
    pcg = solver._pcg

    def uphill(*args):
        x, its = pcg(*args)
        return (None if x is None else -x), its

    monkeypatch.setattr(solver, "_pcg", uphill)
    factors = count_calls(monkeypatch, solver.sla, "cholesky_banded")
    spec = continuation_problem()
    res = px.solve_dirichlet(spec)
    assert res.converged and res.residual <= spec.tol
    assert_nonincreasing(res.energy_trace)
    recs = newton_records(caplog)
    assert all(r["linear"] == "factor" and r["direction"] == "newton" for r in recs)
    assert any(int(r["cg_iters"]) > 0 for r in recs)
    assert len(factors) == len(recs)


def test_debug_log_costs_nothing_when_off(monkeypatch):
    emitted = []
    monkeypatch.setattr(solver._log, "debug", lambda *args, **kwargs: emitted.append(args))
    level = solver._log.level
    solver._log.setLevel(logging.INFO)
    try:
        res = px.solve_dirichlet(continuation_problem())
    finally:
        solver._log.setLevel(level)
    assert res.converged and res.iterations > 0 and emitted == []


def test_line_search_stalled(monkeypatch):
    # An energy no step can lower defeats both the Armijo search and the rescue.
    monkeypatch.setattr(_Discretization, "energy", lambda self, *args: 0.0)
    res = px.solve_dirichlet(fallback_problem(max_iter=50))
    assert not res.converged
    assert res.message == "line search stalled"
    assert res.iterations == 1
    assert res.energy_trace == [0.0]


@pytest.mark.parametrize("p, max_iter, converged", [
    (3.0, 5, True),   # the fifth and last allowed step meets tol
    (1.5, 8, True),   # the last step brings the eps = 1e-6 stage within 1e-5 and
                      # the solution within tol at the final eps
    (1.5, 7, False),  # stopped at eps = 1e-6, whose residual is above 1e-5
])
def test_verdict_matches_the_residual_when_the_budget_runs_out(p, max_iter, converged):
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.constant(box, 16, -1.0)
    spec = px.ProblemSpec(box, px.constant_exponent(p, domain=box), f, 0.0, max_iter=max_iter)
    res = px.solve_dirichlet(spec)
    assert res.iterations == max_iter
    assert res.converged == converged == (res.residual <= spec.tol)
    assert res.message == ("" if converged else
                           f"iteration budget exhausted (residual {res.residual:.3e})")
    # the trace holds the warm start's energy, one per step and one per stage change
    stages = solver._eps_schedule(spec)
    reached = len(res.energy_trace) - res.iterations
    disc = _Discretization(res.solution, spec.field, spec.rhs)
    eps = stages[reached - 1]
    at_stage = disc.residual(disc.gradient(disc.corners(res.solution.values), eps),
                             disc.hat_norms())
    assert res.residual == at_stage
    if reached == len(stages):
        assert res.residual == px.weak_residual(res.solution, spec)
    else:  # a stage within its tolerance would have moved on
        assert res.residual > max(spec.tol, 1e-5)


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
        disc = _Discretization(u, field, f0)
        g = gradient_at(disc, u.values.reshape(-1), 0.0)
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
