"""Discrete p(x)-Laplacian: energy, Dirichlet solver, weak residual.

Sign convention:  Delta_p(x) u := div(|grad u|^(p(x)-2) grad u) = f.  The
discrete solution minimizes

    E(u) = sum_cells vol/2^n sum_corners [ w_eps(|g_k|)^p_k / p_k + f_k u_k ]

where g_k is the gradient of the cell's multilinear interpolant at corner k,
p_k the exponent at that node and w_eps(t) = sqrt(t^2 + reg_eps^2).  The
vertex rule (gradients at the 2^n corners rather than one cell-center value)
is used because the one-point rule admits checkerboard modes with zero
discrete energy in two dimensions; in one dimension the two rules coincide,
and for p = 2 the vertex rule assembles the classical 2n+1 point Laplacian.

The energy gradient with respect to the nodal values is exactly the weak
residual vector: component i is the quadrature of

    integral |grad u|^(p-2) grad u . grad phi_i + integral f phi_i

against the multilinear hat function phi_i.  ``weak_residual`` reports the
max over interior nodes of this pairing normalized by the variable-exponent
Sobolev norm of phi_i.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .exponent import ExponentField
from .grid import Box, GridFunction, as_points
from .norms import NormConfig, log_luxemburg
from .quadrature import CellGeometry

__all__ = ["ProblemSpec", "SolveResult", "SolverError", "SmoothFunction",
           "energy", "solve_dirichlet", "weak_residual", "p_laplacian_pointwise"]

_log = logging.getLogger("pxlap")

# Inexact Newton (see solve_dirichlet): the cap on the Eisenstat-Walker
# forcing term, the CG iteration count past which the stale band factor is
# replaced, and the count past which the next step refactors without trying
# CG first.
_ETA_MAX = 0.02
_CG_CAP = 20
_CG_NEAR = 15


class SolverError(RuntimeError):
    pass


@dataclass
class ProblemSpec:
    """Dirichlet problem for div(|grad u|^(p(x)-2) grad u) = f on a box.

    dirichlet may be a scalar, a callable on points, or a GridFunction on the
    same lattice; only its boundary values are used.  reg_eps (finite, >= 0)
    smooths the gradient norm, tol (finite, > 0) bounds the converged weak
    residual and max_iter (an integer >= 1) caps the Newton steps of the
    whole solve, all continuation stages together.  A field out of range, or
    a non-finite rhs value, is a ValueError naming it.
    """

    domain: Box
    field: ExponentField
    rhs: GridFunction
    dirichlet: object = 0.0
    reg_eps: float = 1e-8
    tol: float = 1e-7
    max_iter: int = 200

    def __post_init__(self):
        if not 0 <= self.reg_eps < np.inf:
            raise ValueError(f"reg_eps must be finite and >= 0, got {self.reg_eps}")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if not (isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter!r}")
        if not np.all(np.isfinite(self.rhs.values)):
            raise ValueError("rhs must be finite at every node")
        if min(self.rhs.dims) < 3:
            raise ValueError(f"lattice dims {self.rhs.dims} have no interior node")
        box = self.rhs.box
        if not (np.allclose(box.lo, self.domain.lo) and np.allclose(box.hi, self.domain.hi)):
            raise ValueError("rhs lattice does not cover the stated domain")

    def dirichlet_values(self) -> np.ndarray:
        """Boundary data as a full nodal array (interior entries unused)."""
        g = self.rhs
        if isinstance(self.dirichlet, GridFunction):
            if not g.same_lattice(self.dirichlet):
                raise ValueError("dirichlet grid does not match the rhs lattice")
            vals = self.dirichlet.values.copy()
        elif callable(self.dirichlet):
            vals = np.asarray(self.dirichlet(g.nodes()), dtype=float).reshape(g.dims)
        else:
            vals = np.full(g.dims, float(self.dirichlet))
        if not np.all(np.isfinite(vals[g.boundary_mask()])):
            raise ValueError("dirichlet boundary data must be finite")
        return vals


@dataclass
class SolveResult:
    solution: GridFunction
    energy_trace: list
    residual: float
    iterations: int
    converged: bool
    message: str = ""

    def __post_init__(self):
        tr = np.asarray(self.energy_trace, dtype=float)
        up = np.flatnonzero(np.diff(tr) > 1e-12 * np.maximum(1.0, np.abs(tr[:-1]))) + 1
        if up.size:
            raise SolverError(f"energy trace must be nonincreasing: entry {up[0]} is "
                              f"{float(tr[up[0]])!r} after {float(tr[up[0] - 1])!r}")


@dataclass(frozen=True)
class SmoothFunction:
    """Closed-form scalar function with gradient and Hessian evaluators.

    value: (m, n) -> (m,);   gradient: (m, n) -> (m, n);
    hessian: (m, n) -> (m, n, n).
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]


# -- discrete operator -------------------------------------------------------

@dataclass(frozen=True)
class _InteriorPattern:
    """Band layout of the interior Newton matrix and its scatter map.

    The unknowns are the interior nodes in lexicographic order, longest axis
    outermost: every cell couples all its corners, so the half-bandwidth is
    the sum of the axis strides, the least any axis order gives.
    The upper triangle is kept in LAPACK band form, entry (i, j), i <= j, at
    [bandwidth + i - j, j] of a Fortran-ordered (bandwidth + 1, m) array.
    scatter[e] is the flat slot the e-th entry of the raveled (ncells, 2^n,
    2^n) block array adds into; entries below the diagonal or touching a
    boundary node go to a sentinel slot dropped after summation.
    """

    interior: np.ndarray  # flat node indices of the unknowns, in band order
    bandwidth: int
    scatter: np.ndarray   # int32, one slot per block entry

    @classmethod
    def build(cls, geo: CellGeometry, boundary_mask: np.ndarray) -> "_InteriorPattern":
        bmask = boundary_mask.reshape(-1)
        axes = np.argsort([-d for d in boundary_mask.shape], kind="stable")
        nodes = np.arange(bmask.size).reshape(boundary_mask.shape).transpose(axes).ravel()
        interior = nodes[~bmask[nodes]]
        m = interior.size
        pos = np.full(bmask.size, -1, dtype=np.int64)
        pos[interior] = np.arange(m)
        local = pos[geo.corner_idx]  # (ncells, 2^n)
        nc = local.shape[1]
        rows = np.repeat(local, nc, axis=1).ravel()
        cols = np.tile(local, (1, nc)).ravel()
        keep = (rows >= 0) & (rows <= cols)
        bw = int(np.max(cols[keep] - rows[keep], initial=0))
        scatter = np.full(rows.size, (bw + 1) * m, dtype=np.int32)
        scatter[keep] = (cols[keep] + 1) * bw + rows[keep]
        return cls(interior, bw, scatter)

    def matrix(self, blocks: np.ndarray) -> np.ndarray:
        """Sum the (ncells, 2^n, 2^n) cell blocks into the upper band storage."""
        ldab, m = self.bandwidth + 1, self.interior.size
        data = np.bincount(self.scatter, weights=blocks.reshape(-1), minlength=ldab * m + 1)
        return data[:-1].reshape((ldab, m), order="F")


class _Lattice:
    """The part of the discrete operator fixed by the lattice and the nodal p.

    Holds the cell geometry, p at the nodes and at the cell corners, the
    interior nodes in C order, the cells with a boundary corner, the band
    layout of the Newton matrix (``_InteriorPattern``) and the fixed basis
    of ``hessian_blocks``; the hat norms are computed the first time they
    are asked for.  It is built by ``_lattice``, which keeps the last one, so
    a solve, the weak residual of its solution and any later solve or energy
    on the same lattice and p share it.  Its arrays are read-only.
    """

    def __init__(self, grid: GridFunction, p_node: np.ndarray):
        self.origin = grid.origin.copy()
        self.geo = geo = CellGeometry.build(grid)
        self.p_node = np.array(p_node, dtype=float)
        self.p_corner = self.p_node[geo.corner_idx]  # (ncells, 2^n)
        bmask = grid.boundary_mask()
        self.interior = np.flatnonzero(~bmask.reshape(-1))
        self.boundary_cells = np.flatnonzero(bmask.reshape(-1)[geo.corner_idx].any(axis=1))
        self.pattern = _InteriorPattern.build(geo, bmask)
        # basis[(k, ab), (j, l)]: corner k's share of the cell block per entry
        # ab, a <= b, of the pointwise Hessian, vol / 2^n (G_ka^T G_kb +
        # G_kb^T G_ka) for a < b and vol / 2^n G_ka^T G_ka for a = b.
        G = geo.grad_stencils  # (2^n k, n a, 2^n j)
        nc = G.shape[0]
        a, b = np.triu_indices(geo.n_axes)
        pair = np.einsum("kaj,kal->kajl", G[:, a], G[:, b])
        pair = (pair + pair.transpose(0, 1, 3, 2)) * np.where(a == b, 0.5, 1.0)[:, None, None]
        self.basis = pair.reshape(nc * a.size, nc * nc) * (geo.cell_vol / nc)
        self.hats = None  # (NormConfig, hat norms) of the last hat_norms call
        for arr in (geo.spacing, geo.corner_offsets, geo.corner_idx, geo.grad_stencils,
                    geo.node_weights, self.origin, self.p_node, self.p_corner, self.interior,
                    self.boundary_cells, self.pattern.interior, self.pattern.scatter, self.basis):
            arr.flags.writeable = False

    def matches(self, grid: GridFunction, p_node: np.ndarray) -> bool:
        return (self.geo.dims == grid.dims and np.array_equal(self.origin, grid.origin)
                and np.array_equal(self.geo.spacing, grid.spacing)
                and np.array_equal(self.p_node, p_node))

    def hat_norms(self, cfg: NormConfig = NormConfig()) -> np.ndarray:
        """Variable-exponent Sobolev norms of the hat functions phi_i of the
        interior nodes, in the C order of ``self.interior``; the last result is
        kept and returned again for the same cfg.

        The value part has the closed form (node weight)^(1/p_i).  The
        gradient part is the Luxemburg norm lambda of |grad phi_i| under the
        vertex rule: the root of sum_m c_m lambda^(-p_m) = 1, where m runs
        over the corner quadrature points of the 2^n cells around node i,
        c_m = (vol / 2^n) |grad phi_i|_m^p_m and p_m is p at that corner.
        The support of every interior hat is gathered from shifted slices of
        the cell lattice, one column per (corner j of the hat's node, corner
        k) pair with a nonzero stencil, so the rows come out in C order.
        Then ``log_luxemburg`` solves for t = log lambda for all nodes at
        once.  Raises SolverError when a norm is not finite or its Newton
        step has not fallen to cfg.bisection_tol within cfg.max_iter steps.
        """
        hats = self.hats
        if hats is not None and hats[0] == cfg:
            return hats[1]
        geo = self.geo
        dims = geo.dims
        nc = geo.corner_idx.shape[1]
        p_cells = self.p_corner.reshape(tuple(d - 1 for d in dims) + (nc,))
        stencil_mag = np.linalg.norm(geo.grad_stencils, axis=1)  # (2^n k, 2^n j)
        ps, log_mags = [], []
        for j, off in enumerate(geo.corner_offsets):
            cells = tuple(slice(1 - o, d - 1 - o) for o, d in zip(off, dims))
            for k in np.flatnonzero(stencil_mag[:, j]):
                ps.append(p_cells[cells + (k,)].ravel())
                log_mags.append(np.log(stencil_mag[k, j]))
        P = np.stack(ps, axis=1)  # (interior nodes in C order, support size)
        log_c = np.log(geo.cell_vol / nc) + P * np.array(log_mags)

        t, step = log_luxemburg(P, log_c, cfg)
        failed = np.count_nonzero(~(np.abs(step) <= cfg.bisection_tol))  # NaN fails too
        if failed:
            raise SolverError(f"hat norms: {failed} of {t.size} nodes are not finite or did not "
                              f"meet bisection_tol {cfg.bisection_tol} in {cfg.max_iter} "
                              "Newton steps")
        hat = geo.node_weights[self.interior] ** (1.0 / self.p_node[self.interior]) + np.exp(t)
        hat.flags.writeable = False
        self.hats = (cfg, hat)
        return hat


# The last _Lattice built.  One slot serves the repeated solves of one
# problem family and a solve followed by its weak residual; a thread that
# races another for it at worst builds its own.
_lattice_cache = None


def _lattice(grid: GridFunction, field: ExponentField) -> _Lattice:
    """The _Lattice of grid and p, from the cache when the lattice and the
    nodal values of p are equal to the cached ones.  The key holds values, not
    the field object: a field can close over data changed in place."""
    global _lattice_cache
    p_node = field(grid.nodes())
    lat = _lattice_cache
    if lat is None or not lat.matches(grid, p_node):
        lat = _lattice_cache = _Lattice(grid, p_node)
    return lat


class _Discretization:
    """The eps-free data of the discrete energy: the shared ``_Lattice`` of
    the lattice and p, whose arrays it exposes, and this problem's source
    weights.  eps enters only through w = sqrt(|g|^2 + eps^2), so ``energy``,
    ``gradient`` and ``hessian_blocks`` take it, and the iterate's
    ``corners``, as arguments and one instance serves every stage.
    """

    def __init__(self, grid: GridFunction, field: ExponentField, f: GridFunction):
        if not grid.same_lattice(f):
            raise ValueError("solution and source live on different lattices")
        self.lattice = lat = _lattice(grid, field)
        self.geo, self.p_node, self.p_corner, self.interior = (
            lat.geo, lat.p_node, lat.p_corner, lat.interior)
        self.nc = self.geo.corner_idx.shape[1]
        self.source_vec = self.geo.node_weights * f.values.reshape(-1)

    def corners(self, u_flat: np.ndarray) -> tuple:
        """(g, |g|^2): the vertex-rule gradients of u, (ncells, 2^n, n), and their
        squared norms, (ncells, 2^n)."""
        grads = self.geo.corner_gradients(u_flat)
        return grads, np.einsum("cka,cka->ck", grads, grads)

    def energy(self, u_flat: np.ndarray, corners: tuple, eps: float) -> float:
        w = np.sqrt(corners[1] + eps**2)
        dens = np.where(w > 0, w**self.p_corner, 0.0) / self.p_corner
        return float(self.geo.cell_vol / self.nc * dens.sum() + self.source_vec @ u_flat)

    def gradient(self, corners: tuple, eps: float) -> np.ndarray:
        grads, sq = corners
        w = np.sqrt(sq + eps**2)
        with np.errstate(divide="ignore", over="ignore"):
            coef = np.where(w > 0, np.where(w > 0, w, 1.0) ** (self.p_corner - 2.0), 0.0)
        flux = coef[:, :, None] * grads
        nc, n = self.nc, self.geo.n_axes
        per_corner = flux.reshape(-1, nc * n) @ self.geo.grad_stencils.reshape(nc * n, nc)
        g = np.bincount(self.geo.corner_idx.ravel(), minlength=self.p_node.size,
                        weights=(self.geo.cell_vol / nc) * per_corner.ravel())
        return g + self.source_vec

    def residual(self, g: np.ndarray, hat: np.ndarray) -> float:
        """Max over the interior nodes of |g_i| / hat_i, hat from ``hat_norms``."""
        return float(np.max(np.abs(g[self.interior]) / hat))

    def hessian_blocks(self, corners: tuple, eps_h: float) -> np.ndarray:
        """The (ncells, 2^n, 2^n) cell blocks of the energy Hessian at smoothing eps_h.

        The pointwise Hessian of w^p / p in the gradient g is M = c1 I + c2 g g^T
        with c1 = w^(p-2) and c2 = (p-2) c1 / w^2, so each cell block is
        sum_k G_k^T M_k G_k: one product of the upper triangles of the M_k,
        (ncells, 2^n n(n+1)/2), with the fixed ``_Lattice.basis``.
        """
        grads, sq = corners
        # A tiny floor keeps c1 / w^2 finite at degenerate corners; the matrix
        # stays positive definite so Newton directions remain descent ones.
        w2 = sq + max(eps_h, 1e-12) ** 2
        c1 = np.sqrt(w2) ** (self.p_corner - 2.0)
        c2 = (self.p_corner - 2.0) * c1 / w2
        a, b = np.triu_indices(self.geo.n_axes)
        coef = c2[:, :, None] * (grads[:, :, a] * grads[:, :, b])
        coef[:, :, a == b] += c1[:, :, None]
        nc = self.nc
        return (coef.reshape(coef.shape[0], -1) @ self.lattice.basis).reshape(-1, nc, nc)

    def hessian_vec(self, blocks: np.ndarray, interior: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Product of the interior Newton matrix with x, straight from its cell blocks.

        x and the result follow ``interior``; boundary nodes carry 0, so only
        interior-interior couplings contribute.
        """
        full = np.zeros(self.p_node.size)
        full[interior] = x
        y = np.einsum("cjl,cl->cj", blocks, full[self.geo.corner_idx])
        return np.bincount(self.geo.corner_idx.ravel(), weights=y.ravel(),
                           minlength=full.size)[interior]

    def hat_norms(self, cfg: NormConfig = NormConfig()) -> np.ndarray:
        """``_Lattice.hat_norms`` of the shared lattice."""
        return self.lattice.hat_norms(cfg)


def energy(u: GridFunction, field: ExponentField, f: GridFunction,
           reg_eps: float = 0.0) -> float:
    """Regularized variable-exponent energy with source term (see module doc)."""
    disc = _Discretization(u, field, f)
    return disc.energy(u.values.reshape(-1), disc.corners(u.values), float(reg_eps))


def weak_residual(u: GridFunction, spec: ProblemSpec) -> float:
    """Max over interior hats of the normalized weak pairing (see module doc).

    u must carry the Dirichlet data of spec on the boundary: a boundary value
    off it by more than rounding is a ValueError naming the largest deviation.
    """
    disc = _Discretization(u, spec.field, spec.rhs)
    bmask = u.boundary_mask()
    data = spec.dirichlet_values()[bmask]
    dev = np.abs(u.values[bmask] - data)
    worst = int(np.argmax(dev))
    if not dev[worst] <= 1e-12 * max(1.0, float(np.abs(data).max())):
        node = tuple(int(i) for i in np.argwhere(bmask)[worst])
        raise ValueError(f"u is off the Dirichlet data on the boundary by up to "
                         f"{dev[worst]:.3e}: {float(u.values[node])!r} against "
                         f"{float(data[worst])!r} at node {node}")
    g = disc.gradient(disc.corners(u.values), float(spec.reg_eps))
    return disc.residual(g, disc.hat_norms())


def _pcg(matvec: Callable, precond: Callable, b: np.ndarray, rtol: float) -> tuple:
    """Preconditioned CG (``scipy.sparse.linalg.cg``) for H x = b from x0 = 0.

    Stops when ||b - H x|| < rtol ||b|| and returns (x, iterations), or
    (None, iterations) when that is not met within _CG_CAP iterations.  SciPy
    reports a solve that ran out of iterations without testing its last
    iterate, so that one is tested here, with one product.  With
    an SPD preconditioner and x0 = 0 every iterate lowers the quadratic model
    below its value at 0, so a returned x is a descent direction when b is
    minus the gradient.
    """
    # Imported here: scipy.sparse adds about 35 ms to importing pxlap, and
    # only solves that reach a CG step need it.
    import scipy.sparse.linalg as spla

    def operator(f):
        return spla.LinearOperator((b.size, b.size), matvec=f, dtype=b.dtype)

    iterates = []
    x, info = spla.cg(operator(matvec), b, rtol=rtol, maxiter=_CG_CAP, M=operator(precond),
                      callback=iterates.append)
    if info != 0 and not np.linalg.norm(b - matvec(x)) < rtol * np.linalg.norm(b):
        x = None
    return x, len(iterates)


def _line_search(disc: "_Discretization", u: np.ndarray, interior: np.ndarray,
                 delta: np.ndarray, eps: float, alpha: float, accept: Callable) -> tuple:
    """Halve the step alpha until the trial u + alpha delta passes accept(alpha, e1).

    delta moves the interior nodes and e1 is the trial's energy at eps.  A
    trial with a non-finite value or energy is rejected, the first without
    being evaluated.  At most 60 trials.  Returns (alpha, halvings, step),
    where step is (trial, its corners, e1), or None when no trial passed.
    """
    for halvings in range(60):
        trial = u.copy()
        trial[interior] += alpha * delta
        if np.all(np.isfinite(trial)):
            corners = disc.corners(trial)
            e1 = disc.energy(trial, corners, eps)
            if np.isfinite(e1) and accept(alpha, e1):
                return alpha, halvings, (trial, corners, e1)
        alpha *= 0.5
    return alpha, 60, None


def _eps_schedule(spec: ProblemSpec) -> list:
    """Regularization continuation stages, largest first.

    Singular exponents (p < 2 somewhere) with a tiny target eps make plain
    Newton crawl where the gradient changes sign: steps keep overshooting
    the kink of |d|^(p-2) d.  Solving a short ladder of smoothed problems
    and warm-starting each from the last restores fast local convergence.
    The stage energy decreases when eps does, so the concatenated energy
    trace stays nonincreasing.  The ladder stops at the 1e-12 eps floor of
    the Newton matrix (``hessian_blocks``): below it the matrix no longer
    changes with eps, and such stages took no Newton step.
    """
    if spec.field.p1 >= 2.0 or spec.reg_eps >= 1e-3:
        return [float(spec.reg_eps)]
    stages = []
    e = 1e-2
    while e > max(spec.reg_eps, 1e-12) * 10.0:
        stages.append(e)
        e *= 0.01
    stages.append(float(spec.reg_eps))
    return stages


def solve_dirichlet(spec: ProblemSpec) -> SolveResult:
    """Damped inexact Newton descent on the discrete energy.

    The p = 2 problem with the same data is solved in closed form in the sine
    eigenbasis of the lattice Laplacian (``_laplace_warm_start``; no band
    factorization).  Its solution u2 has the shape of the solution but, as
    the energy grows like |grad u|^p(x), not its size, so the solve starts
    from lift + s (u2 - lift), lift the Dirichlet data with the datum of the
    first node in the interior and s the minimizer of the first stage energy
    along that ray (``_ray_start``): a scalar Newton in log s, s = 1 when the
    scaled start does not lower the energy or, with nonconstant data, when
    the root is within 1% of 1.  For p = 2, s = 1 and the problem is
    converged, to rounding, before the first Newton step.  A debug record
    per solve gives s, the scalar trials and the energies of u2 and of the
    start.  Then one loop runs Newton with Armijo backtracking on the energy
    at the current eps of the continuation schedule (``_eps_schedule``).
    Each pass takes the gradient and the residual at that eps; when the
    residual meets the stage tolerance (max(tol, 1e-5) before the last
    stage, tol at the last) eps moves to the next stage, whose first energy
    is appended to the trace, and the solve ends converged at the last
    stage.  Otherwise the solve ends when max_iter Newton steps have been
    taken, or takes one more step.  Each iterate's corner gradients come from
    the line-search trial that accepts it and feed the next gradient and
    Newton matrix.

    The first step of a stage factors the band Newton matrix
    (``_InteriorPattern``; LAPACK dpbtrf) and solves exactly.  Each later step
    of the stage is solved by CG preconditioned with that stale factor, to the
    Eisenstat-Walker (choice 2) forcing tolerance eta ||g||, eta =
    min(_ETA_MAX, 0.9 (||g_k|| / ||g_k-1||)^2).  When CG does not meet that
    tolerance within _CG_CAP iterations or returns a direction that is not a
    finite descent direction, the current matrix is factored and the step
    solved exactly.  When the previous step's CG took more than _CG_NEAR
    iterations (a capped one included), the factor has gone stale and the
    step refactors without trying CG first, so capped CG work is not thrown
    away step after step.  A matrix that is not positive definite, or an
    exact step that is not a finite descent direction, gives way to the
    gradient direction.  When no Armijo step lowers the energy, a
    steepest-descent rescue tries a conservative gradient step.  The Newton
    matrix of step k (counted over the whole solve) is built with the
    smoothing eps_h = max(eps, smooth0 0.25^(k-1)), smooth0 1e-2 times the
    steepest slope of the start along any axis, at least 1e-2.  It stays
    positive definite, so directions remain descent directions for the stage
    energy; the stage energy decreases when eps does, so the trace is
    nonincreasing.

    A converged result satisfies weak_residual <= tol, and its residual is
    weak_residual of the solution; an unconverged one reports the residual
    at the stage eps where it stopped.
    """
    grid = spec.rhs
    disc = _Discretization(grid, spec.field, spec.rhs)
    pattern = disc.lattice.pattern
    interior = pattern.interior

    nodal = _laplace_warm_start(spec, disc.geo)
    if not np.all(np.isfinite(nodal)):
        raise SolverError("warm start produced non-finite values")
    stages = _eps_schedule(spec)
    stage, eps = 0, stages[0]
    u, corners, (scale, trials, e2, e_start) = _ray_start(disc, nodal.reshape(-1), eps)
    hat = disc.hat_norms()
    debug = _log.isEnabledFor(logging.DEBUG)
    if debug:
        _log.debug("start scale=%.6e trials=%d energy_p2=%.6e energy=%.6e",
                   scale, trials, e2, e_start)

    # Newton-matrix smoothing scale from the steepest slope of the start; it
    # decays by 0.25 per Newton step over the whole solve.
    start = u.reshape(grid.dims)
    steepest = max(float(np.abs(np.diff(start, axis=a)).max()) / grid.spacing[a]
                   for a in range(grid.n_axes))
    smooth0 = 1e-2 * max(1.0, steepest)
    trace = [e_start]
    factor, gnorm_prev, cg_prev = None, np.inf, 0
    it, message = 0, ""
    while True:
        g = disc.gradient(corners, eps)
        residual = disc.residual(g, hat)
        last = stage == len(stages) - 1
        if residual <= (spec.tol if last else max(spec.tol, 1e-5)):
            if last:
                break
            stage += 1
            eps = stages[stage]
            trace.append(disc.energy(u, corners, eps))
            factor, gnorm_prev, cg_prev = None, np.inf, 0
            continue
        if it == spec.max_iter:
            message = f"iteration budget exhausted (residual {residual:.3e})"
            break
        it += 1

        eps_h = max(eps, smooth0 * 0.25 ** (it - 1))
        blocks = disc.hessian_blocks(corners, eps_h)
        gi = g[interior]
        gnorm = float(np.linalg.norm(gi))

        def descends(d):
            return d is not None and bool(np.all(np.isfinite(d))) and float(d @ gi) < 0.0

        delta, linear, cg_iters = None, "pcg", 0
        if factor is not None and cg_prev <= _CG_NEAR:
            eta = min(_ETA_MAX, 0.9 * (gnorm / gnorm_prev) ** 2)
            delta, cg_iters = _pcg(
                lambda x: disc.hessian_vec(blocks, interior, x),
                lambda r: sla.cho_solve_banded((factor, False), r, check_finite=False),
                -gi, eta)
        if not descends(delta):
            try:
                factor = sla.cholesky_banded(pattern.matrix(blocks), overwrite_ab=True,
                                             check_finite=False)
                linear = "factor"
                delta = sla.cho_solve_banded((factor, False), -gi, check_finite=False)
            except np.linalg.LinAlgError:
                factor, linear, delta = None, "fallback", None
        direction = "newton"
        if not descends(delta):
            delta, direction = -gi, "gradient-fallback"
        gnorm_prev, cg_prev = gnorm, cg_iters

        slope = float(delta @ gi)
        e0 = trace[-1]
        alpha, backtracks, step = _line_search(disc, u, interior, delta, eps, 1.0,
                                               lambda a, e1: e1 <= e0 + 1e-4 * a * slope)
        if step is None:
            delta, direction = -gi, "steepest-rescue"
            gmax = float(np.abs(gi).max())
            alpha, more, step = _line_search(disc, u, interior, delta, eps,
                                             1.0 / max(1.0, gmax / disc.geo.cell_vol),
                                             lambda a, e1: e1 < e0)
            backtracks += more
        if debug:
            _log.debug("newton stage_eps=%.3e it=%d residual=%.6e step=%.6e backtracks=%d "
                       "direction=%s linear=%s cg_iters=%d eps_h=%.3e", eps, it, residual,
                       alpha if step is not None else 0.0, backtracks, direction, linear,
                       cg_iters, eps_h)
        if step is None:
            message = "line search stalled"
            break
        u, corners, e1 = step
        trace.append(min(e1, e0))
    return SolveResult(grid.like(u), trace, residual, it, not message, message)


def _laplace_warm_start(spec: ProblemSpec, geo: CellGeometry) -> np.ndarray:
    """The discrete p = 2 solution with the data of spec, as a nodal array.

    For p = 2 the vertex rule gives the interior operator vol sum_a T_a / h_a^2,
    a Kronecker sum of the 1d Dirichlet second differences T_a =
    tridiag(-1, 2, -1) on the N_a interior nodes of axis a.  The orthogonal,
    symmetric sine basis S_a[j, k] = sqrt(2 / (N_a + 1)) sin(pi (j+1) (k+1) /
    (N_a + 1)) diagonalizes T_a with eigenvalues 2 - 2 cos(pi (k+1) / (N_a +
    1)), so the Newton step from the lifted boundary data (interior 0) is
    exact in closed form: S along every axis, a division by the eigenvalues
    and S again, as in the classical fast Poisson solvers (Buzbee, Golub &
    Nielson 1970).  No band is assembled or factored.  The operator
    annihilates constants, so the step is taken for u - g0, g0 the datum at
    the first node: constant data with no source comes back exactly.
    """
    grid = spec.rhs
    data = spec.dirichlet_values()
    g0 = data.flat[0]
    nodal = data - g0
    inner = tuple(slice(1, -1) for _ in grid.dims)
    nodal[inner] = 0.0
    # The p = 2 energy gradient at the interior: the source weights plus the
    # second differences, in which only the boundary neighbours are nonzero.
    r = (geo.node_weights * grid.values.reshape(-1)).reshape(grid.dims)[inner]
    for a, h in enumerate(grid.spacing):
        for o in (0, 2):  # the lower and the upper neighbour along axis a
            nb = list(inner)
            nb[a] = slice(o, grid.dims[a] - 2 + o)
            r -= (geo.cell_vol / h**2) * nodal[tuple(nb)]
    # 2 - 2 cos(t) written as 4 sin^2(t / 2), exact to rounding at small t
    eigs = [4.0 * np.sin(0.5 * np.pi * np.arange(1, N + 1) / (N + 1)) ** 2 / h**2
            for N, h in zip(r.shape, grid.spacing)]
    r = _sine_transform(r)
    r /= geo.cell_vol * sum(np.ix_(*eigs))
    data[inner] = g0 - _sine_transform(r)
    return data


def _ray_start(disc: _Discretization, u2: np.ndarray, eps: float) -> tuple:
    """The point of least energy at eps on the ray from the lift through the p = 2 start u2.

    The lift is the Dirichlet data with the interior set to g0, the datum at
    the first node, and w = u2 - lift, so lift + s w keeps the data and
    scales the interior of u2 - g0 by s; constant data give the ray of zero
    data moved by g0.  phi(s) = E(lift + s w) is convex in s.  Its corner
    gradients are s g2 + (1 - s) g_l, g2 those of u2 and g_l those of the
    lift, which vanish off the cells touching the boundary.  With S =
    |g2|^2, A = |g_l|^2 and P = g_l . g2 per corner, W = s^2 S + (1 - s)^2 A
    + 2 s (1 - s) P + eps^2 and d = W'/2 = s S - (1 - s) A + (1 - 2 s) P:

        phi(s)   = vol/2^n sum W^(p/2) / p + src . lift + s q,   q = src . w,
        phi'(s)  = D(s) + q,   D(s) = vol/2^n sum W^(p/2-1) d,
        phi''(s) = vol/2^n sum W^(p/2-2) (W C + (p-2) d^2),   C = |g2 - g_l|^2,

    one power per corner per trial and no corner-gradient evaluation.

    s = 0 when phi'(0) >= 0.  Otherwise s is the root of F(t) = log((D(s) -
    D(0)) / -phi'(0)), s = e^t, which increases in t.  Newton from t = 0 runs
    in log space as ``norms.log_luxemburg`` does, so for constant p, zero
    data and eps = 0, where D(s) = s^(p-1) D(1), its first step is exact.  A
    step that leaves the bracket the signs of F give is replaced by
    bisection, or by a move of 2 while one end is open.  A step of at most
    1e-12 is rounding and is not taken.  The iteration ends after a step of
    at most 1e-2, which moves s by at most 1%, or after 50 trials.  With
    constant data the ray is g0 + s (u2 - g0), as smooth as u2, and every
    other step is taken, so at constant p and eps = 0 the start for zero data
    and the source t^(p-1) f is t times the start for f.  With other data a
    first step of at most 1e-2 is not taken: the scaled interior would bend
    against the fixed boundary values, a kink the Newton steps then have to
    remove, for a second-order gain in energy.

    When the start's energy is not at most that of u2 (rounding, or a value
    that is not finite), s = 1 and the start is u2.

    Returns (u, corners, (s, trials, energy of u2, energy of u)), energies at eps.
    """
    lat, geo, nc = disc.lattice, disc.geo, disc.nc
    p, c = disc.p_corner, geo.cell_vol / nc
    g2, S = corners2 = disc.corners(u2)
    g0, lift = u2[0], u2.copy()
    lift[disc.interior] = g0
    w = u2 - lift
    q = float(disc.source_vec @ w)
    C, bc, D0 = S, None, 0.0  # with constant data g_l = 0 and D(0) = 0
    if np.any(lift != g0):
        bc = lat.boundary_cells
        # corner_gradients of the lift, on the boundary cells only
        g_l = (lift[geo.corner_idx[bc]] @ geo.grad_stencils.reshape(-1, nc).T).reshape(
            bc.size, nc, -1)
        A = np.einsum("cka,cka->ck", g_l, g_l)
        P = np.einsum("cka,cka->ck", g_l, g2[bc])
        C = S.copy()
        C[bc] += A - 2.0 * P
        with np.errstate(divide="ignore", invalid="ignore"):
            W0 = (A + eps**2) ** (0.5 * p[bc] - 1.0)
        D0 = c * float(np.vdot(np.where(A > 0, W0, 0.0), P - A))
    expo, pm2 = 0.5 * p - 2.0, p - 2.0

    def trial(s):
        """(D(s), phi''(s))."""
        W = S * (s * s)
        W += eps**2
        d = S * s
        if bc is not None:
            r = 1.0 - s
            W[bc] += r * (r * A + 2.0 * s * P)
            d[bc] += (1.0 - 2.0 * s) * P - r * A
        Wm = np.power(W, expo, out=np.zeros_like(W), where=W > 0)  # W^(p/2-2)
        Wb = Wm * W
        return c * float(np.vdot(Wb, d)), c * float(np.vdot(Wb, C) + np.vdot(Wm * d, pm2 * d))

    e2 = disc.energy(u2, corners2, eps)
    with np.errstate(all="ignore"):  # a non-finite trial narrows the bracket
        D, dD = trial(1.0)
        dphi0 = D0 + q
        s, trials = 1.0, 0
        if not dphi0 < 0.0:
            s = 0.0
        else:
            t, lo, hi = 0.0, -np.inf, np.inf
            while True:
                ratio = (D - D0) / -dphi0
                if ratio < 1.0:
                    lo = t
                else:
                    hi = t
                step = -np.log(ratio) * (D - D0) / (s * dD)
                if not lo <= t + step <= hi:
                    mid = 0.5 * (lo + hi)
                    step = (mid if np.isfinite(mid) else t + (2.0 if lo == t else -2.0)) - t
                if not abs(step) > (1e-2 if bc is not None and trials == 0 else 1e-12):
                    break
                t += step
                s = float(np.exp(t))
                if abs(step) <= 1e-2 or trials == 50:
                    break
                trials += 1
                D, dD = trial(s)
    if s != 1.0:
        grads, sq = g2 * s, S * (s * s)
        if bc is not None:
            grads[bc] += (1.0 - s) * g_l
            sq[bc] = np.einsum("cka,cka->ck", grads[bc], grads[bc])
        u, corners = lift + s * w, (grads, sq)
        e = disc.energy(u, corners, eps)
        if e <= e2:
            return u, corners, (s, trials, e2, e)
    return u2, corners2, (1.0, trials, e2, e2)


def _sine_transform(x: np.ndarray) -> np.ndarray:
    """Apply the orthonormal sine basis S_a (see ``_laplace_warm_start``) along every axis.

    sum_j x_j sin(pi (j+1) k / (N+1)) is minus the imaginary part of bin k of
    the real FFT of [0, x] zero-padded to length 2 (N+1).  The FFT takes
    O(N log N) time and O(N) memory per line, where a dense S_a takes N^2 of
    both, which a long 1d lattice cannot afford.
    """
    for a, N in enumerate(x.shape):
        lead = [(0, 0)] * x.ndim
        lead[a] = (1, 0)
        bins = [slice(None)] * x.ndim
        bins[a] = slice(1, N + 1)
        x = np.fft.rfft(np.pad(x, lead), n=2 * (N + 1), axis=a).imag[tuple(bins)]
        x *= -np.sqrt(2.0 / (N + 1))
    return x


# -- pointwise operator on closed forms ---------------------------------------

def p_laplacian_pointwise(w: SmoothFunction, field: ExponentField, x,
                          reg_eps: float = 0.0) -> float | np.ndarray:
    """Evaluate div(|grad w|^(p-2) grad w) at a point or a batch of points.

    Chain-rule expansion with s = |grad w| replaced by sqrt(s^2 + reg_eps^2):

        s^(p-2) [ Lap w + (p-2) (grad w . D2w grad w) / s^2
                  + (grad p . grad w) log s ].

    An (m, n) array of points gives an (m,) array, any other input one float.
    Where s = 0 (reg_eps = 0) the value is the continuous limit: 0 when p > 2,
    Lap w when p = 2; p < 2 is undefined and raises for the whole call.
    """
    pts = as_points(x)
    m, n = pts.shape
    p, gp = field(pts), field.gradient_at(pts)
    gw = np.asarray(w.gradient(pts), dtype=float).reshape(m, n)
    Hw = np.asarray(w.hessian(pts), dtype=float).reshape(m, n, n)
    lap = np.trace(Hw, axis1=1, axis2=2)
    s = np.sqrt(np.einsum("mi,mi->m", gw, gw) + reg_eps**2)
    zero = s == 0.0
    if np.any(zero & (p < 2.0)):
        raise ValueError("p(x)-Laplacian undefined: vanishing gradient, p < 2, reg_eps = 0")
    s = np.where(zero, 1.0, s)  # the limits below replace these entries
    aniso = np.einsum("mi,mij,mj->m", gw, Hw, gw) / s**2
    val = s ** (p - 2.0) * (lap + (p - 2.0) * aniso + np.einsum("mi,mi->m", gp, gw) * np.log(s))
    val = np.where(zero, np.where(p == 2.0, lap, 0.0), val)
    return val if np.ndim(x) == 2 else float(val[0])
