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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exponent import ExponentField
from .grid import Box, GridFunction, as_points
from .norms import NormConfig
from .quadrature import CellGeometry

__all__ = ["ProblemSpec", "SolveResult", "SolverError", "SmoothFunction",
           "energy", "solve_dirichlet", "weak_residual", "p_laplacian_pointwise"]


class SolverError(RuntimeError):
    pass


@dataclass
class ProblemSpec:
    """Dirichlet problem for div(|grad u|^(p(x)-2) grad u) = f on a box.

    dirichlet may be a scalar, a callable on points, or a GridFunction on the
    same lattice; only its boundary values are used.  reg_eps smooths the
    gradient norm, tol bounds the converged weak residual.
    """

    domain: Box
    field: ExponentField
    rhs: GridFunction
    dirichlet: object = 0.0
    reg_eps: float = 1e-8
    tol: float = 1e-7
    max_iter: int = 200

    def __post_init__(self):
        if self.reg_eps < 0:
            raise ValueError(f"reg_eps must be >= 0, got {self.reg_eps}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
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
        if tr.size and np.any(np.diff(tr) > 1e-12 * np.maximum(1.0, np.abs(tr[:-1]))):
            raise ValueError("energy trace must be nonincreasing")


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
    """Fixed CSC sparsity of the interior Newton matrix and its scatter map.

    The Newton matrix couples every pair of corners of every cell, so its
    pattern depends only on the lattice.  scatter[e] is the CSC slot that the
    e-th entry of the raveled (ncells, 2^n, 2^n) block array adds into; an
    entry whose row or column is a boundary node goes to the sentinel slot
    nnz, which is dropped after summation.
    """

    interior: np.ndarray  # flat node indices of the unknowns
    indices: np.ndarray
    indptr: np.ndarray
    scatter: np.ndarray   # int32, one slot per block entry

    @classmethod
    def build(cls, geo: CellGeometry, boundary_mask: np.ndarray) -> "_InteriorPattern":
        bmask = boundary_mask.reshape(-1)
        interior = np.nonzero(~bmask)[0]
        m = interior.size
        pos = np.full(bmask.size, -1, dtype=np.int64)
        pos[interior] = np.arange(m)
        local = pos[geo.corner_idx]  # (ncells, 2^n)
        nc = local.shape[1]
        rows = np.repeat(local, nc, axis=1).ravel()
        cols = np.tile(local, (1, nc)).ravel()
        keep = (rows >= 0) & (cols >= 0)
        # column-major keys sort straight into CSC order
        slots, inverse = np.unique(cols[keep] * m + rows[keep], return_inverse=True)
        scatter = np.full(rows.size, slots.size, dtype=np.int32)
        scatter[keep] = inverse
        indptr = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(np.bincount(slots // m, minlength=m), out=indptr[1:])
        return cls(interior, (slots % m).astype(np.int32), indptr, scatter)

    def matrix(self, blocks: np.ndarray) -> sp.csc_matrix:
        """Sum the (ncells, 2^n, 2^n) cell blocks into the interior CSC matrix."""
        data = np.bincount(self.scatter, weights=blocks.reshape(-1),
                           minlength=self.indices.size + 1)
        m = self.interior.size
        return sp.csc_matrix((data[:-1], self.indices, self.indptr), shape=(m, m))


class _Discretization:
    """Caches lattice geometry, nodal exponents and source weights.

    geo and pattern may be passed in so one solve builds them once for all
    its stages; otherwise they are built from the grid when first needed.
    """

    def __init__(self, grid: GridFunction, field: ExponentField, f: GridFunction,
                 reg_eps: float, geo: Optional[CellGeometry] = None,
                 pattern: Optional[_InteriorPattern] = None):
        if not grid.same_lattice(f):
            raise ValueError("solution and source live on different lattices")
        self.geo = CellGeometry.build(grid) if geo is None else geo
        self._grid = grid
        self._pattern = pattern
        self.p_node = field(grid.nodes())
        self.p_corner = self.p_node[self.geo.corner_idx]  # (ncells, 2^n)
        self.source_vec = self.geo.node_weights * f.values.reshape(-1)
        self.eps = float(reg_eps)
        self.nc = self.geo.corner_idx.shape[1]

    @property
    def pattern(self) -> _InteriorPattern:
        if self._pattern is None:
            self._pattern = _InteriorPattern.build(self.geo, self._grid.boundary_mask())
        return self._pattern

    def _w(self, grads: np.ndarray, eps: float) -> np.ndarray:
        return np.sqrt(np.sum(grads**2, axis=2) + eps**2)

    def energy(self, u_flat: np.ndarray) -> float:
        grads = self.geo.corner_gradients(u_flat)
        w = self._w(grads, self.eps)
        dens = np.where(w > 0, w**self.p_corner, 0.0) / self.p_corner
        return float(self.geo.cell_vol / self.nc * dens.sum() + self.source_vec @ u_flat)

    def gradient(self, u_flat: np.ndarray) -> np.ndarray:
        grads = self.geo.corner_gradients(u_flat)
        w = self._w(grads, self.eps)
        with np.errstate(divide="ignore", over="ignore"):
            coef = np.where(w > 0, np.where(w > 0, w, 1.0) ** (self.p_corner - 2.0), 0.0)
        flux = coef[:, :, None] * grads
        per_corner = np.einsum("kaj,cka->cj", self.geo.grad_stencils, flux)
        g = np.zeros_like(u_flat)
        np.add.at(g, self.geo.corner_idx.ravel(), (self.geo.cell_vol / self.nc) * per_corner.ravel())
        return g + self.source_vec

    def hessian(self, u_flat: np.ndarray, eps_h: Optional[float] = None) -> sp.csc_matrix:
        """Interior-interior block of the energy Hessian, as a CSC matrix.

        Rows and columns follow ``self.pattern.interior``.  The pointwise
        Hessian of w^p / p in the gradient g is c1 I + c2 g g^T, so each cell
        block is sum_k c1_k G_k^T G_k + c2_k v_k v_k^T with v_k = G_k^T g_k:
        a fixed per-corner matrix times c1 plus one batched outer product.
        """
        # A tiny floor keeps w^(p-4) finite at degenerate corners; the matrix
        # stays positive definite so Newton directions remain descent ones.
        eps = max(self.eps, eps_h if eps_h is not None else 0.0, 1e-12)
        grads = self.geo.corner_gradients(u_flat)
        w = self._w(grads, eps)
        c1 = w ** (self.p_corner - 2.0)
        c2 = (self.p_corner - 2.0) * w ** (self.p_corner - 4.0)
        G = self.geo.grad_stencils  # (2^n k, n a, 2^n j)
        nc = self.nc
        K = np.einsum("kaj,kal->kjl", G, G).reshape(nc, nc * nc)
        v = np.matmul(grads.transpose(1, 0, 2), G).transpose(1, 0, 2)  # (ncells, 2^n k, 2^n j)
        blocks = (c1 @ K).reshape(-1, nc, nc)
        blocks += np.matmul((c2[:, :, None] * v).transpose(0, 2, 1), v)
        blocks *= self.geo.cell_vol / nc
        return self.pattern.matrix(blocks)

    def hat_norms(self, interior_flat: np.ndarray, cfg: NormConfig = NormConfig()) -> np.ndarray:
        """Variable-exponent Sobolev norms of the hat functions phi_i.

        The value part has the closed form (node weight)^(1/p_i).  The
        gradient part solves sum_m c_m lambda^(-p_m) = 1 with one bisection
        vectorized across all requested nodes: each hat's gradient modular
        collects (weight, magnitude, exponent) triples from the corner
        quadrature points of its supporting cells.
        """
        geo = self.geo
        val_part = geo.node_weights[interior_flat] ** (1.0 / self.p_node[interior_flat])

        stencil_mag = np.linalg.norm(geo.grad_stencils, axis=1)  # (2^n k, 2^n j)
        vol = geo.cell_vol / self.nc
        ncells = geo.n_cells
        node_ids, mags, ps = [], [], []
        for k in range(self.nc):
            for j in range(self.nc):
                if stencil_mag[k, j] == 0.0:
                    continue
                node_ids.append(geo.corner_idx[:, j])
                mags.append(np.full(ncells, stencil_mag[k, j]))
                ps.append(self.p_corner[:, k])
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


def energy(u: GridFunction, field: ExponentField, f: GridFunction,
           reg_eps: float = 0.0) -> float:
    """Regularized variable-exponent energy with source term (see module doc)."""
    return _Discretization(u, field, f, reg_eps).energy(u.values.reshape(-1))


def weak_residual(u: GridFunction, spec: ProblemSpec) -> float:
    """Max over interior hats of the normalized weak pairing (see module doc)."""
    disc = _Discretization(u, spec.field, spec.rhs, spec.reg_eps)
    g = disc.gradient(u.values.reshape(-1))
    interior = np.nonzero(~u.boundary_mask().reshape(-1))[0]
    norms = disc.hat_norms(interior)
    return float(np.max(np.abs(g[interior]) / norms))


def _solve_spd(H: sp.csc_matrix, rhs: np.ndarray) -> np.ndarray:
    """Direct solve with the symmetric positive definite Newton matrix.

    Symmetric mode with a minimum-degree ordering of A^T + A and diagonal
    pivots keeps the factor's fill well below that of COLAMD with partial
    pivoting; SuperLU raises RuntimeError if the factor is singular.
    """
    lu = spla.splu(H, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    return lu.solve(rhs)


def _newton_descend(disc: "_Discretization", u: np.ndarray, interior: np.ndarray,
                    hat: np.ndarray, tol: float, max_iter: int, trace: list,
                    smooth0: float) -> tuple:
    """Newton with Armijo backtracking; returns (u, iterations, residual, msg).

    The Newton matrix may be built with a larger smoothing eps early on; it
    stays positive definite, so directions remain descent directions for the
    stage energy and the appended trace entries are nonincreasing.
    """
    residual = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        g = disc.gradient(u)
        residual = float(np.max(np.abs(g[interior]) / hat))
        if residual <= tol:
            return u, it - 1, residual, ""

        eps_h = max(disc.eps, smooth0 * 0.25 ** (it - 1))
        H = disc.hessian(u, eps_h)
        gi = g[interior]
        try:
            delta = _solve_spd(H, -gi)
        except RuntimeError:
            delta = -gi
        if not np.all(np.isfinite(delta)) or float(delta @ gi) >= 0.0:
            delta = -gi

        slope = float(delta @ gi)
        e0 = trace[-1]
        alpha, accepted = 1.0, False
        for _ in range(60):
            trial = u.copy()
            trial[interior] += alpha * delta
            if np.all(np.isfinite(trial)):
                e1 = disc.energy(trial)
                if np.isfinite(e1) and e1 <= e0 + 1e-4 * alpha * slope:
                    u, accepted = trial, True
                    trace.append(min(e1, e0))
                    break
            alpha *= 0.5
        if not accepted:
            if float(np.abs(gi).max()) == 0.0:
                return u, it, residual, ""
            # steepest-descent rescue with a conservative step
            delta = -gi
            alpha = 1.0 / max(1.0, float(np.abs(gi).max()) / disc.geo.cell_vol)
            for _ in range(60):
                trial = u.copy()
                trial[interior] += alpha * delta
                e1 = disc.energy(trial)
                if np.isfinite(e1) and e1 < e0:
                    u, accepted = trial, True
                    trace.append(e1)
                    break
                alpha *= 0.5
            if not accepted:
                return u, it, residual, "line search stalled"
        if not np.all(np.isfinite(u)):
            raise SolverError("iterate contains non-finite values")
    g = disc.gradient(u)
    residual = float(np.max(np.abs(g[interior]) / hat))
    return u, it, residual, f"iteration budget exhausted (residual {residual:.3e})"


def _eps_schedule(spec: ProblemSpec) -> list:
    """Regularization continuation stages, largest first.

    Singular exponents (p < 2 somewhere) with a tiny target eps make plain
    Newton crawl where the gradient changes sign: steps keep overshooting
    the kink of |d|^(p-2) d.  Solving a short ladder of smoothed problems
    and warm-starting each from the last restores fast local convergence.
    The stage energy decreases when eps does, so the concatenated energy
    trace stays nonincreasing.
    """
    if spec.field.p1 >= 2.0 or spec.reg_eps >= 1e-3:
        return [spec.reg_eps]
    stages = []
    e = 1e-2
    while e > max(spec.reg_eps, 1e-300) * 10.0:
        stages.append(e)
        e *= 0.01
    stages.append(spec.reg_eps)
    return stages


def solve_dirichlet(spec: ProblemSpec) -> SolveResult:
    """Damped Newton descent on the discrete energy.

    Starts from the solution of the p = 2 problem with the same data, then
    runs Newton/Armijo through the continuation schedule down to the target
    reg_eps.  A converged result satisfies weak_residual <= tol; the energy
    trace is nonincreasing by the line-search contract.
    """
    grid = spec.rhs
    geo = CellGeometry.build(grid)
    pattern = _InteriorPattern.build(geo, grid.boundary_mask())
    interior = pattern.interior

    u = spec.dirichlet_values().reshape(-1).copy()
    u[interior] = 0.0
    # p = 2 warm start: one linear solve with the same boundary data.
    lap = _Discretization(grid, _const2(spec.field), spec.rhs, 0.0, geo, pattern)
    u[interior] -= _solve_spd(lap.hessian(u), lap.gradient(u)[interior])
    if not np.all(np.isfinite(u)):
        raise SolverError("warm start produced non-finite values")

    # Newton-matrix smoothing scale from the steepest warm-start slope.
    nodal = u.reshape(grid.dims)
    slope = max(float(np.abs(np.diff(nodal, axis=a)).max()) / grid.spacing[a]
                for a in range(grid.n_axes))
    smooth0 = 1e-2 * max(1.0, slope)
    stages = _eps_schedule(spec)
    trace = []
    iterations = 0
    residual = np.inf
    message = ""
    disc = None
    for k, eps in enumerate(stages):
        last = k == len(stages) - 1
        disc = _Discretization(grid, spec.field, spec.rhs, eps, geo, pattern)
        if k == 0:
            hat = disc.hat_norms(interior)
        trace.append(disc.energy(u))
        stage_tol = spec.tol if last else max(spec.tol, 1e-5)
        budget = spec.max_iter - iterations
        if budget <= 0:
            message = "iteration budget exhausted before the final stage"
            break
        u, used, residual, message = _newton_descend(
            disc, u, interior, hat, stage_tol, budget, trace, smooth0)
        iterations += used
        if message and not last:
            break
    converged = residual <= spec.tol and not message
    if not converged and not message:
        message = f"no convergence in {spec.max_iter} iterations (residual {residual:.3e})"
    return SolveResult(grid.like(u), trace, residual, iterations, converged, message)


def _const2(like: ExponentField) -> ExponentField:
    def ev(pts):
        return np.full(pts.shape[0], 2.0)
    return ExponentField(ev, 2.0, 2.0, domain=like.domain, name="warmstart")


# -- pointwise operator on closed forms ---------------------------------------

def p_laplacian_pointwise(w: SmoothFunction, field: ExponentField, x,
                          reg_eps: float = 0.0) -> float:
    """Evaluate div(|grad w|^(p-2) grad w) at x for a closed-form w.

    Chain-rule expansion with s = |grad w| replaced by sqrt(s^2 + reg_eps^2):

        s^(p-2) [ Lap w + (p-2) (grad w . D2w grad w) / s^2
                  + (grad p . grad w) log s ].

    For s = 0 with reg_eps = 0 the value is the continuous limit: 0 when
    p > 2, Lap w when p = 2, and undefined (raises) when p < 2.
    """
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
