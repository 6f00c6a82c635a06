import numpy as np
import pytest
import scipy.sparse as sp

import pxlap as px
import pxlap.solver as solver
from conftest import grid_1d
from pxlap.solver import _Discretization


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


def test_smoothing_scale_reads_every_axis(monkeypatch):
    # The Newton-matrix smoothing scale comes from the steepest warm-start
    # slope over all axes: a steep ramp along y and the same ramp along x get
    # the same scale, hence the same iterations and mirrored solutions.
    scales = []
    descend = solver._newton_descend

    def recording(*args):
        scales.append(args[-1])
        return descend(*args)

    monkeypatch.setattr(solver, "_newton_descend", recording)
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.constant(box, 12, -1.0)
    field = px.constant_exponent(3.0, domain=box)
    along_y, along_x = [
        px.solve_dirichlet(px.ProblemSpec(box, field, f, ramp, reg_eps=1e-8, tol=1e-8))
        for ramp in (lambda pts: 40.0 * pts[:, 1], lambda pts: 40.0 * pts[:, 0])]
    assert scales[0] == pytest.approx(scales[1], rel=1e-12)
    assert scales[0] >= 0.3
    assert along_y.converged and along_x.converged
    assert along_y.iterations == along_x.iterations
    assert np.abs(along_y.solution.values - along_x.solution.values.T).max() <= 1e-10


# -- Newton matrix ---------------------------------------------------------------

def reference_hessian(disc, u_flat, eps_h):
    """Interior Newton matrix via the pointwise Hessian tensor, COO and slicing.

    The straightforward assembly: the (ncells, 2^n, n, n) pointwise Hessians
    are sandwiched between corner stencils, summed into the full nodal
    matrix, and the interior rows and columns are sliced out.
    """
    eps = max(disc.eps, eps_h if eps_h is not None else 0.0, 1e-12)
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
    interior = disc.pattern.interior
    return full[interior][:, interior].tocsc()


def random_state(n_axes, reg_eps, seed=0):
    """A discretization with p in [1.3, 4.3] and a rough random iterate."""
    cells = {1: 16, 2: 8, 3: 4}[n_axes]
    rng = np.random.default_rng(seed)
    box = px.Box([0.0] * n_axes, [1.0] * n_axes)
    field = px.affine_exponent(1.3, rng.uniform(0.0, 3.0 / n_axes, n_axes), box)
    f = px.GridFunction.from_callable(box, cells, lambda pts: np.cos(3.0 * pts.sum(axis=1)))
    u = f.like(rng.standard_normal(f.dims))
    return _Discretization(u, field, f, reg_eps), u.values.reshape(-1)


@pytest.mark.parametrize("n_axes", [1, 2, 3])
@pytest.mark.parametrize("reg_eps, eps_h", [(1e-8, None), (1e-3, 1e-1), (1e-2, 1e-4)])
def test_hessian_matches_reference_assembly(n_axes, reg_eps, eps_h):
    disc, u = random_state(n_axes, reg_eps)
    H = disc.hessian(u, eps_h)
    ref = reference_hessian(disc, u, eps_h)
    assert isinstance(H, sp.csc_matrix) and H.shape == ref.shape
    assert np.array_equal(H.indptr, ref.indptr) and np.array_equal(H.indices, ref.indices)
    assert np.abs(H.data - ref.data).max() <= 1e-12 * np.abs(ref.data).max()


@pytest.mark.parametrize("n_axes", [1, 2, 3])
def test_hessian_is_derivative_of_gradient(n_axes):
    disc, u = random_state(n_axes, reg_eps=0.05, seed=1)
    interior = disc.pattern.interior
    H = disc.hessian(u).toarray()
    step = 1e-6
    fd = np.empty_like(H)
    for col, node in enumerate(interior):
        e = np.zeros_like(u)
        e[node] = step
        fd[:, col] = (disc.gradient(u + e) - disc.gradient(u - e))[interior] / (2.0 * step)
    assert np.abs(H - fd).max() <= 1e-6 * np.abs(H).max()


@pytest.mark.parametrize("n_axes", [1, 2, 3])
def test_gradient_is_derivative_of_energy(n_axes):
    disc, u = random_state(n_axes, reg_eps=0.05, seed=2)
    g = disc.gradient(u)
    step = 1e-6
    fd = np.empty_like(g)
    for node in range(u.size):
        e = np.zeros_like(u)
        e[node] = step
        fd[node] = (disc.energy(u + e) - disc.energy(u - e)) / (2.0 * step)
    assert np.abs(g - fd).max() <= 1e-6 * np.abs(g).max()


# -- solver fallbacks -------------------------------------------------------------

def fallback_problem(max_iter):
    return problem_1d(-1.0, 1.0, 16, 3.0, 1.0, 0.0, reg_eps=1e-8, tol=1e-12,
                      max_iter=max_iter)


def after_warm_start(monkeypatch, owner, name, fake):
    """Patch owner.name so the first call (the p = 2 warm start) is real."""
    real = getattr(owner, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs) if len(calls) == 1 else fake(real, *args, **kwargs)

    monkeypatch.setattr(owner, name, patched)
    return calls


def assert_nonincreasing(trace):
    tr = np.asarray(trace)
    assert np.all(np.diff(tr) <= 1e-12 * np.maximum(1.0, np.abs(tr[:-1])))


def singular_factor(real, *args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


@pytest.mark.parametrize("owner, name, fake", [
    (solver.spla, "splu", singular_factor),
    (solver, "_solve_spd", lambda real, H, rhs: np.full_like(rhs, np.nan)),
    (solver, "_solve_spd", lambda real, H, rhs: -real(H, rhs)),
], ids=["factor-error", "non-finite", "non-descent"])
def test_gradient_direction_fallback(monkeypatch, owner, name, fake):
    calls = after_warm_start(monkeypatch, owner, name, fake)
    res = px.solve_dirichlet(fallback_problem(max_iter=6))
    assert len(calls) == 1 + res.iterations == 7
    assert res.message.startswith("iteration budget exhausted")
    assert_nonincreasing(res.energy_trace)
    assert res.energy_trace[-1] < res.energy_trace[0]


def test_steepest_descent_rescue(monkeypatch):
    # A direction so long that all 60 Armijo trials overshoot: only the
    # conservative gradient step of the rescue can lower the energy.
    after_warm_start(monkeypatch, solver, "_solve_spd", lambda real, H, rhs: 1e30 * real(H, rhs))
    res = px.solve_dirichlet(fallback_problem(max_iter=4))
    assert res.message.startswith("iteration budget exhausted")
    assert len(res.energy_trace) == 5
    assert_nonincreasing(res.energy_trace)
    assert res.energy_trace[-1] < res.energy_trace[0]


def test_line_search_stalled(monkeypatch):
    # An energy no step can lower defeats both the Armijo search and the rescue.
    monkeypatch.setattr(_Discretization, "energy", lambda self, u_flat: 0.0)
    res = px.solve_dirichlet(fallback_problem(max_iter=50))
    assert not res.converged
    assert res.message == "line search stalled"
    assert res.iterations == 1
    assert res.energy_trace == [0.0]


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
        disc = _Discretization(u, field, f0, 0.0)
        g = disc.gradient(u.values.reshape(-1))
        i = cells // 2          # node at x0raw
        h = 1.0 / cells
        pairing = g[i] / h      # divide by int(phi) = h
        errs.append(abs(pairing + px.p_laplacian_pointwise(w, field, [x0])))
    assert errs[2] <= errs[0]
    assert errs[2] <= 0.05 * abs(px.p_laplacian_pointwise(w, field, [x0])) + 0.05
