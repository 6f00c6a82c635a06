import functools
import itertools

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import settings

import pxlap as px
import pxlap.solver as solver
from pxlap.grid import as_points
from pxlap.quadrature import CellGeometry, lq_norm

# Property tests draw a fixed example sequence and have no per-example
# deadline, so they are reproducible and do not flake on a loaded host.
settings.register_profile("pxlap", derandomize=True, deadline=None, max_examples=30)
settings.load_profile("pxlap")


@pytest.fixture(autouse=True)
def empty_lattice_cache(monkeypatch):
    """Start every test with an empty solver lattice cache, so what one test
    builds cannot hide the builds another counts."""
    monkeypatch.setattr(solver, "_lattice_cache", None)


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


def random_grid(n_axes, seed=0):
    """Random nodal values on an anisotropic lattice with unequal spacings."""
    cells = (9, 6, 4)[:n_axes]
    box = px.Box([-0.5] * n_axes, [1.0, 2.0, 0.7][:n_axes])
    rng = np.random.default_rng(seed)
    g = px.GridFunction.constant(box, cells, 0.0)
    return g.like(rng.standard_normal(g.dims))


@pytest.fixture
def geometry_builds(monkeypatch):
    """The lattice dims of every CellGeometry.build call made in the test."""
    builds = []
    build = CellGeometry.build.__func__

    def counted(cls, g):
        builds.append(g.dims)
        return build(cls, g)

    monkeypatch.setattr(CellGeometry, "build", classmethod(counted))
    return builds


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


def midpoint_data(g):
    """(cell centers, cell volumes) for the midpoint rule over the grid box."""
    axes = [g.origin[a] + g.spacing[a] * (np.arange(g.dims[a] - 1) + 0.5)
            for a in range(g.n_axes)]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=1)
    vols = np.full(centers.shape[0], float(np.prod(g.spacing)))
    return centers, vols


def cell_corners(values):
    """Nodal values per cell, (ncells, 2^n), in the corner order of CellGeometry:
    a cell-major gather of one strided view per corner offset in {0, 1}^n."""
    offsets = itertools.product((0, 1), repeat=values.ndim)
    corners = [values[tuple(slice(o, d - 1 + o) for o, d in zip(off, values.shape))]
               for off in offsets]
    return np.stack(corners, axis=-1).reshape(-1, len(corners))


def reference_cell_means(g):
    """Cell means from the cell-major gather, each cell's corner values added
    left to right in corner order and divided by 2^n: the order in which
    CellGeometry.cell_means adds its corner-major rows."""
    corners = cell_corners(g.values)
    return functools.reduce(np.add, corners.T) / corners.shape[1]


def cell_major(geo, nodal):
    """Nodal values per cell, (ncells, 2^n), from the cell-major gather, not
    from the geometry's corner_values."""
    return cell_corners(np.reshape(nodal, geo.dims))


def cell_major_idx(geo):
    """The flat node index of every cell corner, (ncells, 2^n)."""
    return cell_major(geo, np.arange(int(np.prod(geo.dims))))


def reference_corner_gradients(geo, values):
    """Vertex-rule corner gradients, cell-major (ncells, 2^n, n), as one einsum
    of the stencils with the corner values of cell_major."""
    return np.einsum("akj,cj->cka", geo.grad_stencils, cell_major(geo, values))


def reference_center_gradients(geo, values):
    return reference_corner_gradients(geo, values).mean(axis=1)


def reference_caccioppoli(u, gamma, eta, H, field, C_probe):
    """The integrals of caccioppoli_check on a CellGeometry: cell values and
    the support from cell_major_idx, center gradients from the einsum stencils."""
    geo = CellGeometry.build(u)
    centers, vols = midpoint_data(u)
    u_mid, eta_mid, H_mid = (geo.corner_values(g.values).mean(axis=0) for g in (u, eta, H))
    eta_mid = np.maximum(eta_mid, 0.0)
    gu = np.linalg.norm(reference_center_gradients(geo, u.values), axis=1)
    ge = np.linalg.norm(reference_center_gradients(geo, eta.values), axis=1)
    p_mid = field(centers)
    active = (eta_mid > 0) | (ge > 0)
    support_nodes = np.unique(cell_major_idx(geo)[active].ravel())
    p_support = np.concatenate([p_mid[active], field(u.nodes()[support_nodes])])
    p_minus, p_plus = float(p_support.min()), float(p_support.max())
    w = np.where(active, vols, 0.0)
    lhs = float(np.sum(w * u_mid ** (gamma - 1.0) * gu**p_minus * eta_mid**p_plus))
    zero_order = float(np.sum(w * u_mid ** (gamma - 1.0) * eta_mid**p_plus))
    with np.errstate(divide="ignore"):
        cutoff = float(np.sum(w * u_mid ** (gamma + p_mid - 1.0)
                              * np.where(active, eta_mid ** (p_plus - p_mid), 0.0)
                              * ge**p_mid))
    source = float(np.sum(w * H_mid * u_mid ** (gamma + p_mid - 1.0) * eta_mid**p_plus))
    rhs = zero_order + C_probe * abs(gamma) ** (-p_plus) * cutoff \
        + C_probe * abs(gamma) ** (-1.0) * source
    return px.CaccioppoliResult(lhs, rhs, bool(lhs <= rhs), zero_order, cutoff, source,
                                p_minus, p_plus)


def reference_ball_cell_weights(g, ball, subdiv=8):
    """ball_cell_weights with one subsample batch per cut cell, looped in Python."""
    centers, vols = midpoint_data(g)
    half = 0.5 * np.linalg.norm(g.spacing)
    d = np.linalg.norm(centers - ball.center, axis=1)
    w = np.where(d + half <= ball.radius, vols, 0.0)
    cut = (d - half < ball.radius) & (d + half > ball.radius)
    if np.any(cut):
        offs = [(np.arange(subdiv) + 0.5) / subdiv - 0.5 for _ in range(g.n_axes)]
        mesh = np.meshgrid(*offs, indexing="ij")
        rel = np.stack([m.ravel() for m in mesh], axis=1) * g.spacing
        for i in np.nonzero(cut)[0]:
            sub = centers[i] + rel
            frac = np.count_nonzero(ball.contains(sub)) / rel.shape[0]
            w[i] = vols[i] * frac
    return w


def reference_gradient(lat, u_flat, eps, src):
    """Energy gradient of a _Lattice, cell-major, with einsum stencils and np.add.at."""
    geo = lat.geo
    grads = reference_corner_gradients(geo, u_flat)
    p = cell_major(geo, lat.p_node)
    w = np.sqrt(np.sum(grads**2, axis=2) + eps**2)
    with np.errstate(divide="ignore", over="ignore"):
        coef = np.where(w > 0, np.where(w > 0, w, 1.0) ** (p - 2.0), 0.0)
    per_corner = np.einsum("akj,cka->cj", geo.grad_stencils, coef[:, :, None] * grads)
    g = np.zeros_like(u_flat)
    np.add.at(g, cell_major_idx(geo).ravel(), (geo.cell_vol / lat.nc) * per_corner.ravel())
    return g + src


def reference_warm_start(spec):
    """The p = 2 warm start as one band Newton step: the p = 2 operator's
    gradient at the lifted boundary data, solved with the band Cholesky of its
    Newton matrix.  Returns the full nodal array."""
    grid = spec.rhs
    lap, src = solver._lattice(grid, px.constant_exponent(2.0, domain=spec.domain), grid)
    interior = lap.interior
    u = spec.dirichlet_values().reshape(-1).copy()
    u[interior] = 0.0
    corners = lap.corners(u)
    H = lap.band(lap.newton_diagonals(corners, 1.0))  # at p = 2 eps_h does not enter
    factor = sla.cholesky_banded(H, lower=True, overwrite_ab=True, check_finite=False)
    u[interior] -= sla.cho_solve_banded((factor, True), lap.gradient(corners, 0.0, src)[interior],
                                        check_finite=False)
    return u.reshape(grid.dims)


def reference_hat_norms(lat, interior_flat, cfg=px.NormConfig()):
    """Hat-function Sobolev norms by a 120-step bisection over sorted triples.

    Every (node, cell, corner) triple of the vertex rule is collected, sorted
    by node and padded to a rectangle; the gradient part's Luxemburg norm is
    bracketed by doubling and halving, then bisected for all nodes at once.
    """
    geo = lat.geo
    val_part = geo.node_weights[interior_flat] ** (1.0 / lat.p_node[interior_flat])

    stencil_mag = np.linalg.norm(geo.grad_stencils, axis=0)  # (2^n k, 2^n j)
    vol = geo.cell_vol / lat.nc
    ncells = geo.n_cells
    corner_idx, p_corner = cell_major_idx(geo), cell_major(geo, lat.p_node)
    node_ids, mags, ps = [], [], []
    for k in range(lat.nc):
        for j in range(lat.nc):
            if stencil_mag[k, j] == 0.0:
                continue
            node_ids.append(corner_idx[:, j])
            mags.append(np.full(ncells, stencil_mag[k, j]))
            ps.append(p_corner[:, k])
    node_ids = np.concatenate(node_ids)
    mags = np.concatenate(mags)
    ps = np.concatenate(ps)

    order = np.argsort(node_ids, kind="stable")
    node_ids, mags, ps = node_ids[order], mags[order], ps[order]
    starts = np.searchsorted(node_ids, interior_flat, side="left")
    stops = np.searchsorted(node_ids, interior_flat, side="right")
    width = int(np.max(stops - starts))
    m = interior_flat.size
    Tm = np.zeros((m, width))
    Tp = np.full((m, width), 2.0)
    take = starts[:, None] + np.arange(width)[None, :]
    valid = take < stops[:, None]
    take = np.minimum(take, node_ids.size - 1)
    Tm[valid] = mags[take][valid]
    Tp[valid] = ps[take][valid]

    def mod(lam):
        return vol * np.sum((Tm / lam[:, None]) ** Tp, axis=1)

    lo = np.full(m, 1.0)
    hi = np.full(m, 1.0)
    for _ in range(200):
        above = mod(hi) > 1.0
        if not np.any(above):
            break
        hi[above] *= 2.0
    for _ in range(200):
        below = mod(lo) <= 1.0
        if not np.any(below):
            break
        lo[below] *= 0.5
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        high = mod(mid) > 1.0
        lo = np.where(high, mid, lo)
        hi = np.where(high, hi, mid)
        if np.all(hi - lo <= cfg.bisection_tol * hi):
            break
    return val_part + 0.5 * (lo + hi)


STRUCTURE_COEFFICIENTS = ("g0", "g1", "f_src", "c0", "c1", "c2", "k1", "k2")


def _constant_grid(bounds, value):
    lattice = bounds.lattice
    return lattice.like(np.full(lattice.dims, float(value)))


def reference_structure_check(pair, bounds, field, samples, with_gradient_term):
    """Conditions (1)-(3) with every coefficient held as a constant grid on the
    bounds' lattice and interpolated back at each sample.  Returns the
    violations as (condition, index) pairs and the max slack per condition."""
    pts, s, xi = samples.points, samples.states, samples.gradients
    coef = {name: _constant_grid(bounds, getattr(bounds, name)).interp(pts)
            for name in STRUCTURE_COEFFICIENTS}
    p = field(pts)
    xin = np.linalg.norm(xi, axis=1)
    abs_s = np.abs(s)
    A = np.asarray(pair.A(pts, s, xi), dtype=float).reshape(xi.shape)
    B = np.asarray(pair.B(pts, s, xi), dtype=float).reshape(s.shape)
    rhs1 = bounds.alpha * xin**p - coef["c0"] * abs_s**p - coef["g0"]
    rhs2 = coef["g1"] + coef["c1"] * abs_s ** (p - 1.0) + coef["k1"] * xin ** (p - 1.0)
    rhs3 = coef["f_src"] + coef["c2"] * abs_s ** (p - 1.0) + coef["k2"] * xin ** (p - 1.0)
    if with_gradient_term:
        rhs3 = rhs3 + bounds.b * xin**p
    sides = [("1", np.sum(A * xi, axis=1), rhs1, -1.0),
             ("2", np.linalg.norm(A, axis=1), rhs2, 1.0),
             ("3'" if with_gradient_term else "3", np.abs(B), rhs3, 1.0)]
    violations, max_slack = [], {}
    for name, lhs, rhs, sign in sides:
        slack = sign * (lhs - rhs)
        max_slack[name] = float(slack.max())
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        violations += [(name, int(i)) for i in np.nonzero(slack > 1e-12 + 1e-12 * scale)[0]]
    return violations, max_slack


def reference_mu_general(bounds, ball, field):
    """mu_general with f, g0, g1 as constant grids on the bounds' lattice and
    their L^q norms over the 4R ball from lq_norm."""
    R, big = ball.radius, ball.dilate(4.0)
    nodes = bounds.lattice.nodes()
    e = 1.0 / (float(field(nodes[big.contains(nodes)]).min()) - 1.0)
    n = bounds.lattice.n_axes
    total = 0.0
    for name, q, shift in (("f_src", bounds.q2, 1.0), ("g0", bounds.q0, 0.0),
                           ("g1", bounds.q1, 0.0)):
        g = _constant_grid(bounds, getattr(bounds, name))
        if np.all(g.values == 0.0):
            continue
        scale = 0.0 if q == np.inf else n / q
        total += float((R ** (shift - scale) * lq_norm(g, q, big)) ** e)
    return total
