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
from dataclasses import dataclass, field
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
# forcing term, the fraction of its opening residual at which a stage before
# the last ends, the CG iteration count past which the stale band factor is
# replaced, and the count past which the next step refactors without trying
# CG first.
_ETA_MAX = 0.02
_STAGE_DROP = 0.1
_CG_CAP = 20
_CG_NEAR = 15

# LAPACK's dpbtrf factors a band by the Level-3 blocked algorithm (Du Croz,
# Mayes & Radicati, LAPACK Working Note 21, 1990) only when ILAENV gives it a
# block size above 1, and netlib's ILAENV does so only for more than 64
# sub-diagonals; with fewer it runs the unblocked, Level-2 dpbtf2.  So a band
# whose half-bandwidth lies in _PAD_BANDWIDTH is stored with 65 sub-diagonals,
# the extra ones zero (``_band_rows``).  Its solves (dpbtrs) then run over 65
# sub-diagonals too: at half-bandwidths 50 and 51 the factorization gains a
# few percent and the solves lose as much, and from 52 on both are faster on
# every lattice shape measured (one core: 1.54 -> 1.14 ms per factorization
# at 64 on a 63^2 interior).
_PAD_BANDWIDTH = (52, 64)


class SolverError(RuntimeError):
    pass


def _band_rows(bandwidth: int) -> int:
    """The row count of the LAPACK band storage of a half-bandwidth: bandwidth + 1,
    or 66 (65 sub-diagonals, the blocked dpbtrf) inside _PAD_BANDWIDTH."""
    lo, hi = _PAD_BANDWIDTH
    return hi + 2 if lo <= bandwidth <= hi else bandwidth + 1


def _check_reg_eps(reg_eps) -> float:
    """reg_eps as a float; a ValueError naming it unless it is a finite number >= 0."""
    if isinstance(reg_eps, bool) or not 0 <= reg_eps < np.inf:
        raise ValueError(f"reg_eps must be finite and >= 0, got {reg_eps}")
    return float(reg_eps)


@dataclass
class ProblemSpec:
    """Dirichlet problem for div(|grad u|^(p(x)-2) grad u) = f on a box.

    dirichlet may be a scalar, a callable on points, or a GridFunction on the
    same lattice; only its boundary values are used.  reg_eps (finite, >= 0)
    smooths the gradient norm, tol (finite, > 0) bounds the converged weak
    residual and max_iter (an integer >= 1) caps the Newton steps of the
    whole solve, all continuation stages together.  A field out of range or
    a bool, or a non-finite rhs value, is a ValueError naming it.
    """

    domain: Box
    field: ExponentField
    rhs: GridFunction
    dirichlet: object = 0.0
    reg_eps: float = 1e-8
    tol: float = 1e-7
    max_iter: int = 200

    def __post_init__(self):
        _check_reg_eps(self.reg_eps)
        if isinstance(self.tol, bool) or not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if isinstance(self.max_iter, bool) or not (
                isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 1):
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
    """The solution of ``solve_dirichlet`` and what the solve did.

    energy_trace must be nonincreasing.  history holds dicts of plain Python
    values: the start record (scale, G, energy), then one record per Newton
    step (stage_eps, it, residual, step, backtracks, direction, linear,
    cg_iters, eta: the forcing term CG ran to or None when no CG ran, eps_h,
    and accept: the line-search test that passed, "armijo", "slope", "rescue"
    or None); the ``pxlap`` debug log is a view of it.
    """

    solution: GridFunction
    energy_trace: list
    residual: float
    iterations: int
    converged: bool
    message: str = ""
    history: list = field(default_factory=list)

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

class _Lattice:
    """The discrete operator of one lattice and nodal p: its data and its action.

    Holds the cell geometry, p at the nodes and at the cell corners, the
    interior nodes, the diagonal layout of the Newton matrix and the fixed
    basis of ``newton_diagonals``; the hat norms are computed the first time
    they are asked for.  It is built by ``_lattice``, which keeps the last
    one, so a solve, the weak residual of its solution and any later solve or
    energy on the same lattice and p share it.  Its arrays are read-only.  eps
    enters only through w = sqrt(|g|^2 + eps^2) and f only through the source
    weights src = node_weights * f, so ``energy`` and ``gradient`` take both,
    and the iterate's ``corners``, as arguments: one instance serves every
    stage and every source.  The energy density w^p / p, the flux |g|^(p-2) g
    and the Newton matrix all read one coefficient c1 = w^(p-2) per corner
    (``flux_coef``).  ``at_eps`` appends it, with its eps, to an iterate's
    corners, which then carry it: energy, gradient and the Newton matrix at
    eps_h = eps read it and take no power of their own.  It lives and is freed
    with the corners, never on the instance.

    Every per-corner array is corner-major like ``CellGeometry``'s, the cell
    index last: p_corner and |g|^2 are (2^n, ncells), the corner gradients
    (n, 2^n, ncells), the Hessian coefficients (2^n, n(n+1)/2, ncells) and the
    kept block entries (len(pairs), ncells).  So each elementwise pass of a
    Newton step runs over contiguous rows of ncells entries, and each product
    with a fixed matrix (the stencils, ``basis``) is one GEMM with that matrix
    on the left.

    The unknowns are the interior nodes in lexicographic order, longest axis
    outermost (``interior``; the residual and the hat norms follow it too):
    every cell couples all its corners, so the half-bandwidth is the sum of
    the axis strides, the least any axis order gives.  The lower triangle of
    the Newton matrix is kept in LAPACK band form, entry (i, j), i >= j, at
    [i - j, j] of a Fortran-ordered (band_rows, m) array, the layout in which
    LAPACK's dpbtrf factors it fastest.  band_rows is bandwidth + 1, or more
    where zero rows past the bandwidth let dpbtrf take its blocked algorithm
    (``_band_rows``); the Cholesky factor of a band keeps its envelope, so
    those rows stay zero in the factor too.  A block entry (j, l) of a cell
    couples the unknowns r and c of its corners j and l; c - r is the same for
    every cell, and the cells whose corners j and l are both interior form one
    box.  So ``pairs`` keeps each (j, l) with c - r >= 0 and a nonempty box,
    as the index of its band row c - r in ``diags`` (0 first; 2, 5 or 14 in
    1d, 2d or 3d), the slices of that row its corner j unknowns fill and of
    its box of cells; ``basis`` keeps their rows, and ``newton_diagonals``
    the Newton matrix as those diagonals.
    """

    def __init__(self, grid: GridFunction, p_node: np.ndarray):
        self.geo = geo = CellGeometry.build(grid)
        self.nc = nc = len(geo.corner_slices)
        self.p_node = np.array(p_node, dtype=float)
        self.p_corner = geo.corner_values(self.p_node)  # (2^n, ncells)
        self.axes = tuple(np.argsort([-d for d in grid.dims], kind="stable"))  # of the unknowns
        nodes = np.arange(grid.values.size).reshape(grid.dims).transpose(self.axes)
        nodes = nodes[(slice(1, -1),) * geo.n_axes]
        self.unknowns, self.interior = nodes.shape, nodes.ravel()  # as a lattice, and flat
        # In the unknowns' axis order: along an axis of N interior nodes the box
        # runs from 1 - lo to N - hi, lo and hi the pair's least and greatest offset.
        inner, offsets = np.array(self.unknowns), geo.corner_offsets[:, self.axes]
        strides = np.cumprod((1,) + self.unknowns[:0:-1])[::-1]
        pairs = []  # (basis row (j, l), c - r, the corner j unknowns, the cells)
        for j, oj in enumerate(offsets):
            for l, ol in enumerate(offsets):
                lo, hi = np.minimum(oj, ol), np.maximum(oj, ol)
                diag = int(strides @ (ol - oj))
                if diag >= 0 and np.all(hi - lo < inner):
                    pairs.append((j * nc + l, diag, tuple(map(slice, oj - lo, inner + oj - hi)),
                                  tuple(map(slice, 1 - lo, inner + 1 - hi))))
        self.diags = tuple(sorted({0}.union(d for _, d, _, _ in pairs)))  # their band rows
        self.pairs = tuple((self.diags.index(d), at, box) for _, d, at, box in pairs)
        self.bandwidth = self.diags[-1]
        self.band_rows = _band_rows(self.bandwidth)
        # basis[(j, l), (k, ab)]: corner k's share of the cell block entry
        # (j, l) per entry ab, a <= b, of the pointwise Hessian, vol / 2^n
        # (G_ka^T G_kb + G_kb^T G_ka) for a < b and vol / 2^n G_ka^T G_ka for
        # a = b; only the rows of the kept pairs.
        G = geo.grad_stencils  # (n a, 2^n k, 2^n j)
        a, b = np.triu_indices(geo.n_axes)
        self.upper = tuple(zip(a.tolist(), b.tolist()))  # the ab, in basis's order
        pair = np.einsum("akj,akl->kajl", G[a], G[b])
        pair = (pair + pair.transpose(0, 1, 3, 2)) * np.where(a == b, 0.5, 1.0)[:, None, None]
        self.basis = np.ascontiguousarray(pair.reshape(nc * a.size, -1).T[[r[0] for r in pairs]])
        self.basis *= geo.cell_vol / nc
        self.hats = None  # the hat norms, once computed
        for arr in (geo.origin, geo.spacing, geo.corner_offsets, geo.grad_stencils,
                    geo.node_weights, self.p_node, self.p_corner, self.interior, self.basis):
            arr.flags.writeable = False

    def matches(self, grid: GridFunction, p_node: np.ndarray) -> bool:
        return (self.geo.dims == grid.dims and np.array_equal(self.geo.origin, grid.origin)
                and np.array_equal(self.geo.spacing, grid.spacing)
                and np.array_equal(self.p_node, p_node))

    def hat_norms(self) -> np.ndarray:
        """Variable-exponent Sobolev norms of the hat functions phi_i of the
        interior nodes, in the order of ``self.interior``; computed on the
        first call and kept.

        The value part has the closed form (node weight)^(1/p_i).  The
        gradient part is the Luxemburg norm lambda of |grad phi_i| under the
        vertex rule: the root of sum_m c_m lambda^(-p_m) = 1, where m runs
        over the corner quadrature points of the 2^n cells around node i,
        c_m = (vol / 2^n) |grad phi_i|_m^p_m and p_m is p at that corner.
        The support of every interior hat is gathered from shifted slices of
        the cell lattice, one column per (corner j of the hat's node, corner
        k) pair with a nonzero stencil, each slice taken with its axes in the
        order of ``self.interior``.  Then ``log_luxemburg`` solves for t =
        log lambda for all nodes at once, under the default ``NormConfig``.
        Raises SolverError when a norm is not finite or its Newton step has not
        fallen to its bisection_tol within its max_iter steps.
        """
        if self.hats is not None:
            return self.hats
        cfg, geo = NormConfig(), self.geo
        dims = geo.dims
        p_cells = self.p_corner.reshape((self.nc,) + geo.cell_dims)
        stencil_mag = np.linalg.norm(geo.grad_stencils, axis=0)  # (2^n k, 2^n j)
        ps, log_mags = [], []
        for j, off in enumerate(geo.corner_offsets):
            cells = tuple(slice(1 - o, d - 1 - o) for o, d in zip(off, dims))
            for k in np.flatnonzero(stencil_mag[:, j]):
                ps.append(p_cells[(k,) + cells].transpose(self.axes).ravel())
                log_mags.append(np.log(stencil_mag[k, j]))
        P = np.stack(ps, axis=1)  # (interior nodes, support size)
        log_c = np.log(geo.cell_vol / self.nc) + P * np.array(log_mags)

        t, step = log_luxemburg(P, log_c, cfg)
        failed = np.count_nonzero(~(np.abs(step) <= cfg.bisection_tol))  # NaN fails too
        if failed:
            raise SolverError(f"hat norms: {failed} of {t.size} nodes are not finite or did not "
                              f"meet bisection_tol {cfg.bisection_tol} in {cfg.max_iter} "
                              "Newton steps")
        hat = geo.node_weights[self.interior] ** (1.0 / self.p_node[self.interior]) + np.exp(t)
        hat.flags.writeable = False
        self.hats = hat
        return hat

    def corners(self, u_flat: np.ndarray) -> tuple:
        """(g, |g|^2): the vertex-rule gradients of u, (n, 2^n, ncells), and their
        squared norms, (2^n, ncells)."""
        grads = self.geo.corner_gradients(u_flat)
        return grads, np.einsum("akc,akc->kc", grads, grads)

    def at_eps(self, corners: tuple, eps: float) -> tuple:
        """(g, |g|^2, eps, c1): corners with their coefficient c1 at eps
        (``flux_coef``), or corners themselves when they carry it at eps."""
        if len(corners) == 4 and corners[2] == eps:
            return corners
        return corners[:2] + (eps, self.flux_coef(corners[1], eps))

    def flux_coef(self, sq: np.ndarray, eps: float) -> np.ndarray:
        """c1 = w^(p-2), w = sqrt(|g|^2 + eps^2), and 0 where w = 0: the
        coefficient of the flux c1 g, of the energy density c1 w^2 / p and of
        the Newton matrix, (2^n, ncells)."""
        w = sq + eps**2
        np.sqrt(w, out=w)
        if eps**2 > 0.0:  # then w > 0 everywhere
            return np.power(w, self.p_corner - 2.0, out=w)
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(w > 0, np.where(w > 0, w, 1.0) ** (self.p_corner - 2.0), 0.0)

    def energy(self, u_flat: np.ndarray, corners: tuple, eps: float, src: np.ndarray) -> float:
        """The energy at eps of u with its corners: vol/2^n sum c1 w^2 / p + src . u,
        c1 from ``at_eps``, so corners that carry c1 at eps take no power."""
        _, sq, _, c1 = self.at_eps(corners, eps)
        dens = sq + eps**2
        dens *= c1
        dens /= self.p_corner
        return float(self.geo.cell_vol / self.nc * dens.sum() + src @ u_flat)

    def gradient(self, corners: tuple, eps: float, src: np.ndarray) -> np.ndarray:
        """The energy gradient at eps, the flux c1 g paired with the hats plus
        src; c1 from ``at_eps``, so corners that carry it at eps take no power."""
        grads, _, _, c1 = self.at_eps(corners, eps)
        return self.geo.flux_pairing(c1 * grads) + src

    def residual(self, g: np.ndarray, hat: np.ndarray) -> float:
        """Max over the interior nodes of |g_i| / hat_i, hat from ``hat_norms``."""
        return float(np.max(np.abs(g[self.interior]) / hat))

    def newton_diagonals(self, corners: tuple, eps_h: float,
                         out: np.ndarray | None = None) -> np.ndarray:
        """The lower diagonals of the interior Newton matrix at smoothing eps_h.

        The pointwise Hessian of w^p / p in the gradient g is M = c1 I + c2 g g^T
        with c1 = w^(p-2) and c2 = (p-2) c1 / w^2, so each cell block is
        sum_k G_k^T M_k G_k: the kept pairs' entries are one product of the
        fixed ``basis`` with the upper triangles of the M_k, (2^n n(n+1)/2,
        ncells).  c1 is the one corners carry when they carry it at eps_h
        (``at_eps``), else computed.  eps_h > 0 (else a ValueError) keeps c2
        finite where g = 0 and the matrix positive definite.  Row i holds the
        entries (r + diags[i], r) at r, 0 where the nodes share no cell: each
        of ``pairs`` adds its box of cells into a slice of its row, in order
        from zero.  Into out, a C-contiguous (len(diags), m) array, if given.
        """
        if not eps_h > 0.0:
            raise ValueError(f"newton_diagonals needs eps_h > 0, got {eps_h}")
        grads, sq, _, c1 = self.at_eps(corners, eps_h)
        c2 = (self.p_corner - 2.0) * c1 / (sq + eps_h**2)
        n, nc, ncells = grads.shape
        coef = np.empty((nc, n * (n + 1) // 2, ncells))
        for j, (a, b) in enumerate(self.upper):
            col = coef[:, j]
            np.multiply(grads[a], grads[b], out=col)
            np.multiply(c2, col, out=col)
            if a == b:
                np.add(col, c1, out=col)
        cells = (self.basis @ coef.reshape(-1, ncells)).reshape((-1,) + self.geo.cell_dims)
        if out is None:
            out = np.empty((len(self.diags), self.interior.size))
        out.fill(0.0)
        rows = out.reshape((len(self.diags),) + self.unknowns)
        for block, (d, at, box) in zip(cells, self.pairs):
            rows[(d,) + at] += block.transpose(self.axes)[box]
        return out

    def hessian_vec(self, diagonals: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The interior Newton matrix times x (both in the order of ``interior``) from
        ``newton_diagonals``: each diagonal below the main one acts at its two places."""
        y = diagonals[0] * x
        for d, row in zip(self.diags[1:], diagonals[1:]):  # 0 < d < m
            y[d:] += row[:-d] * x[:-d]
            y[:-d] += row[:-d] * x[d:]
        return y

    def band(self, diagonals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The lower band storage of the Newton matrix from ``newton_diagonals``:
        row diags[i] is diagonal i, the others 0.  Into out, a Fortran-ordered
        (k, m) array with k > bandwidth, if given, else one of band_rows rows."""
        if out is None:
            out = np.empty((self.band_rows, self.interior.size), order="F")
        out.fill(0.0)
        out[self.diags, :] = diagonals
        return out


# The last _Lattice built.  One slot serves the repeated solves of one
# problem family and a solve followed by its weak residual; a thread that
# races another for it at worst builds its own.
_lattice_cache = None


def _lattice(grid: GridFunction, field: ExponentField, f: GridFunction) -> tuple:
    """(the _Lattice of grid and p, the source weights node_weights * f).

    The _Lattice comes from the cache when the lattice and the nodal values
    of p are equal to the cached ones.  The key holds values, not the field
    object: a field can close over data changed in place.  The source
    weights are the caller's own, computed per call.
    """
    global _lattice_cache
    if not grid.same_lattice(f):
        raise ValueError("solution and source live on different lattices")
    p_node = field(grid.nodes())
    lat = _lattice_cache
    if lat is None or not lat.matches(grid, p_node):
        lat = _lattice_cache = _Lattice(grid, p_node)
    return lat, lat.geo.node_weights * f.values.reshape(-1)


def energy(u: GridFunction, field: ExponentField, f: GridFunction,
           reg_eps: float = 0.0) -> float:
    """Regularized variable-exponent energy with source term (see module doc);
    reg_eps must be finite and >= 0."""
    eps = _check_reg_eps(reg_eps)
    lat, src = _lattice(u, field, f)
    return lat.energy(u.values.reshape(-1), lat.corners(u.values), eps, src)


def weak_residual(u: GridFunction, spec: ProblemSpec) -> float:
    """Max over interior hats of the normalized weak pairing (see module doc).

    u must carry the Dirichlet data of spec on the boundary: a boundary value
    off it by more than rounding is a ValueError naming the largest deviation.
    """
    lat, src = _lattice(u, spec.field, spec.rhs)
    bmask = u.boundary_mask()
    data = spec.dirichlet_values()[bmask]
    dev = np.abs(u.values[bmask] - data)
    worst = int(np.argmax(dev))
    if not dev[worst] <= 1e-12 * max(1.0, float(np.abs(data).max())):
        node = tuple(int(i) for i in np.argwhere(bmask)[worst])
        raise ValueError(f"u is off the Dirichlet data on the boundary by up to "
                         f"{dev[worst]:.3e}: {float(u.values[node])!r} against "
                         f"{float(data[worst])!r} at node {node}")
    g = lat.gradient(lat.corners(u.values), float(spec.reg_eps), src)
    return lat.residual(g, lat.hat_norms())


def _pcg(matvec: Callable, precond: Callable, b: np.ndarray, rtol: float) -> tuple:
    """Preconditioned CG for H x = b from x0 = 0 (Hestenes-Stiefel).

    Stops when the recursive residual r = b - H x meets ||r|| < rtol ||b||
    and returns (x, iterations), or (None, iterations) when that is not met
    within _CG_CAP iterations or when r.z or p.Hp is not positive (NaN
    included): an indefinite matrix or preconditioner, or b = 0.  With an
    SPD preconditioner and x0 = 0 every iterate lowers the quadratic model
    below its value at 0, so a returned x is a descent direction when b is
    minus the gradient.
    """
    x, r, p = np.zeros_like(b), b.copy(), np.zeros_like(b)
    stop = rtol * np.linalg.norm(b)
    rz_prev = 1.0  # any finite value: p is 0 before the first iteration
    for its in range(_CG_CAP):
        z = precond(r)
        rz = float(r @ z)
        if not rz > 0.0:
            return None, its
        p = z + (rz / rz_prev) * p
        q = matvec(p)
        pq = float(p @ q)
        if not pq > 0.0:
            return None, its
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        if np.linalg.norm(r) < stop:
            return x, its + 1
        rz_prev = rz
    return None, _CG_CAP


def _line_search(lat: _Lattice, src: np.ndarray, u: np.ndarray, delta: np.ndarray,
                 eps: float, alpha: float, accept: Callable) -> tuple:
    """Halve alpha until the trial u + alpha delta passes accept(alpha, e1, corners).

    delta moves the interior nodes; e1 and corners are the trial's energy at
    eps and its ``_Lattice.corners`` with c1 at eps (``_Lattice.at_eps``),
    which the energy and, once accepted, the Newton loop read; accept
    returns the name of the test it passed, or None.  A trial with a
    non-finite value or energy is rejected, the first without being
    evaluated.  At most 60 trials.  Returns (alpha,
    halvings, step), step (trial, corners, e1, name) or None if none passed.
    """
    for halvings in range(60):
        trial = u.copy()
        trial[lat.interior] += alpha * delta
        if np.all(np.isfinite(trial)):
            corners = lat.at_eps(lat.corners(trial), eps)
            e1 = lat.energy(trial, corners, eps, src)
            if np.isfinite(e1) and (name := accept(alpha, e1, corners)):
                return alpha, halvings, (trial, corners, e1, name)
        alpha *= 0.5
    return alpha, 60, None


def _eps_schedule(spec: ProblemSpec, G: float) -> list:
    """Regularization continuation stages, largest first, G the start's scale.

    Singular exponents (p < 2 somewhere) with a tiny target eps make plain
    Newton crawl where the gradient changes sign: steps keep overshooting
    the kink of |d|^(p-2) d.  Solving a short ladder of smoothed problems,
    1e-2 G, 1e-4 G, ..., and warm-starting each from the last restores fast
    local convergence.  The stage energy decreases when eps does, so the
    concatenated trace stays nonincreasing.  The ladder stops at the floor
    1e-12 G of the Newton matrix's eps (``_newton``), where it stops moving.
    """
    if spec.field.p1 >= 2.0 or spec.reg_eps >= 1e-3 * G:
        return [float(spec.reg_eps)]
    stages = []
    e = 1e-2 * G
    while e > max(spec.reg_eps, 1e-12 * G) * 10.0:
        stages.append(e)
        e *= 0.01
    stages.append(float(spec.reg_eps))
    return stages


def solve_dirichlet(spec: ProblemSpec) -> SolveResult:
    """Damped inexact Newton descent on the discrete energy: ``_newton`` from
    ``_ray_start`` over the stages of ``_eps_schedule``.

    The p = 2 problem with the same data is solved in closed form in the sine
    eigenbasis of the lattice Laplacian (``_laplace_warm_start``; no band
    factorization).  Its solution u2 has the shape of the solution but, as
    the energy grows like |grad u|^p(x), not its size.  With constant data
    g0 the solve starts from g0 + s (u2 - g0), s the minimizer of the energy
    at eps = 0 along that ray (``_ray_start``), and s = 1 when the scaled
    start does not lower that energy; with other data it starts from u2.  For
    p = 2, s = 1 to rounding and the problem is converged, to rounding,
    before the first Newton step.  Every constant of the continuation
    (``_eps_schedule``, ``_newton``) is a multiple of one scale G, the largest
    corner-gradient norm of the start.  So for constant p and reg_eps = 0 the
    data (t^(p-1) f, t g) at tolerance t^(p-1) tol give t times the steps of
    (f, g) at tol, up to rounding.

    A converged result satisfies weak_residual <= tol, and its residual is
    weak_residual of the solution; an unconverged one reports the residual
    at the stage eps where it stopped.  ``SolveResult.history`` records the
    start (s, G and its energy at the first stage eps) and each Newton step,
    a stalled one too.
    """
    lat, src = _lattice(spec.rhs, spec.field, spec.rhs)
    *start, s = _ray_start(spec, lat, src)
    G = float(np.sqrt(start[1][1].max()))  # start[1] is (g, |g|^2) of the start
    stages = _eps_schedule(spec, G)
    start[1] = lat.at_eps(start[1], stages[0])
    record = {"scale": s, "G": G, "energy": lat.energy(*start, stages[0], src)}
    return _newton(spec.rhs, lat, src, start, stages, spec.tol, spec.max_iter, [record])


def _newton(grid: GridFunction, lat: _Lattice, src: np.ndarray, start: list,
            stages: list, tol: float, max_iter: int, history: list) -> SolveResult:
    """Newton with backtracking from u over the eps stages, largest first.

    start is the list [u, corners], which the loop empties: u is a flat nodal
    array on the lattice of grid that carries the Dirichlet data and corners
    its ``_Lattice.corners``, with or without c1 at stages[0].  So the
    start's corner arrays and c1 are freed once the first step is accepted,
    where a caller's reference would hold them through the whole loop.  src
    is the source weights and history a list whose last record is the
    start's, with G and its energy at stages[0] (``solve_dirichlet``); the
    Newton step records are appended to it.
    Each pass takes the gradient and the residual at the current stage eps;
    when the residual meets the stage target eps moves to the next stage,
    whose first energy is appended to the trace, and the loop ends converged
    at the last stage.  The last stage's target is tol; an earlier stage
    only starts the next one, so its target is max(tol, _STAGE_DROP r0), r0
    the residual of the pass that opened it (the start's for the first stage).
    Otherwise it ends when max_iter Newton steps have been taken, or takes
    one more step.  Each iterate's corner gradients and its c1 = w^(p-2) at
    the stage eps (``_Lattice.at_eps``) come from the line-search trial that
    accepts it: the trial's energy took that one power, and the next
    gradient, slope test and Newton matrix at eps_h = eps read it.  A stage
    change takes c1 at the new eps before the stage's first energy.

    The first step of a stage copies the Newton matrix, assembled once per
    step as its lower diagonals (``_Lattice.newton_diagonals``), into the
    lower band (``_Lattice.band``, ``_Lattice.band_rows`` rows: LAPACK dpbtrf
    and dpbtrs with lower=True take the sub-diagonal count from the array's
    shape), factors it and solves exactly, but for a last stage at eps > 0
    (below).  The diagonals and the band are two arrays of the solve, refilled
    at every step, and the band is factored in place, so a refactor overwrites
    the factor it replaces and concurrent solves share nothing they write.
    Each later step of the stage is solved by CG (``_pcg``) preconditioned
    with that stale factor, its products taken from the diagonals
    (``_Lattice.hessian_vec``), to the Eisenstat-Walker (choice 2) forcing
    tolerance eta ||g||, eta = min(_ETA_MAX, max(0.9 (||g_k|| / ||g_k-1||)^2,
    0.5 target / residual)).  The second term is the safeguard of Eisenstat &
    Walker (1996) and Kelley (1995, ch. 6): it binds only once the residual is
    within 25 times the stage target, and then stops CG from solving to an
    accuracy that the stage's test never reads.  When CG does not meet that
    tolerance within _CG_CAP iterations, meets nonpositive curvature, or
    returns a direction that is not a finite descent direction, the current
    matrix is factored and the step solved exactly.  When the previous step's
    CG took more than _CG_NEAR iterations (a capped one included), the factor
    has gone stale and the step refactors without trying CG first, so capped
    CG work is not thrown away step after step.  A last stage at eps > 0 keeps
    the factor of the stage before it, and its first step is solved like a
    later one, by CG on that factor under the same rules (a lagged
    preconditioner; Knoll & Keyes, J. Comput. Phys. 2004): that stage opens
    near tol (a median 58 tol over 24 solves on 64^2 cells at p = 1.5), where
    the forcing term is loose, and mostly ends in one step, which a fresh
    factor would serve alone.  At eps = 0 the last stage solves the non-smooth
    problem, and its first step factors.  A matrix that is not positive
    definite, or an exact step that is not a finite descent direction, gives
    way to the gradient direction.  The Newton matrix of step k (of the whole
    solve) is built at eps_h = max(eps, 1e-12 G, 0.1 G 0.25^(k-1)) > 0 (G = 0
    only at a constant, converged start), so directions descend.  The line
    search (``_line_search``) accepts Armijo, E <= e0 + 1e-4 alpha g.delta, or
    an energy within 1e-13 max(1, |e0|) of e0 whose slope grad E.delta is at
    most 0.8 |g.delta| (approximate Wolfe; Hager & Zhang 2005), as near tol a
    good step's energy drop is below the rounding of |E|.  When no trial
    passes, a gradient-descent rescue tries a conservative gradient step.  The
    stage energy decreases when eps does, so the trace is nonincreasing up to
    that 1e-13, inside SolveResult's 1e-12 check.
    """
    u, corners = start
    start.clear()
    interior = lat.interior
    hat = lat.hat_norms()
    debug = _log.isEnabledFor(logging.DEBUG)
    if debug:
        _log_record(history[-1])

    stage, eps = 0, stages[0]
    G, trace = history[-1]["G"], [history[-1]["energy"]]
    factor, gnorm_prev, cg_prev = None, np.inf, 0
    it, message, r0 = 0, "", None
    # The solve's Newton diagonals and band, taken only now: held through
    # the start and the hat norms they raised the peak RSS of a 64^2 solve
    # by about 1 MB.
    diagonals = np.empty((len(lat.diags), interior.size))
    band = np.empty((lat.band_rows, interior.size), order="F")
    while True:
        g = lat.gradient(corners, eps, src)
        residual = lat.residual(g, hat)
        r0 = residual if r0 is None else r0
        last = stage == len(stages) - 1
        target = tol if last else max(tol, _STAGE_DROP * r0)
        if residual <= target:
            if last:
                break
            stage += 1
            eps = stages[stage]
            corners = lat.at_eps(corners, eps)
            trace.append(lat.energy(u, corners, eps, src))
            r0 = None
            if not (stage == len(stages) - 1 and eps > 0.0):  # else CG opens on it
                factor = None
            continue
        if it == max_iter:
            message = f"iteration budget exhausted (residual {residual:.3e})"
            break
        it += 1

        eps_h = max(eps, 1e-12 * G, 0.1 * G * 0.25 ** (it - 1))
        lat.newton_diagonals(corners, eps_h, out=diagonals)
        gi = g[interior]
        gnorm = float(np.linalg.norm(gi))

        def descends(d):
            return d is not None and bool(np.all(np.isfinite(d))) and float(d @ gi) < 0.0

        delta, linear, cg_iters, eta = None, "pcg", 0, None
        if factor is not None and cg_prev <= _CG_NEAR:
            eta = float(min(_ETA_MAX, max(0.9 * (gnorm / gnorm_prev) ** 2,
                                          0.5 * target / residual)))
            delta, cg_iters = _pcg(
                lambda x: lat.hessian_vec(diagonals, x),
                lambda r: sla.cho_solve_banded((factor, True), r, check_finite=False),
                -gi, eta)
        if not descends(delta):
            try:
                factor = sla.cholesky_banded(lat.band(diagonals, out=band), lower=True,
                                             overwrite_ab=True, check_finite=False)
                linear = "factor"
                delta = sla.cho_solve_banded((factor, True), -gi, check_finite=False)
            except np.linalg.LinAlgError:
                factor, linear, delta = None, "fallback", None
        direction = "newton"
        if not descends(delta):
            delta, direction = -gi, "gradient-fallback"
        gnorm_prev, cg_prev = gnorm, cg_iters

        slope = float(delta @ gi)
        e0 = trace[-1]

        def accept(a, e1, trial_corners):
            if e1 <= e0 + 1e-4 * a * slope:
                return "armijo"
            if abs(e1 - e0) <= 1e-13 * max(1.0, abs(e0)) and (
                    lat.gradient(trial_corners, eps, src)[interior] @ delta <= 0.8 * abs(slope)):
                return "slope"

        alpha, backtracks, step = _line_search(lat, src, u, delta, eps, 1.0, accept)
        if step is None:
            delta, direction = -gi, "gradient-rescue"
            gmax = float(np.abs(gi).max())
            alpha, more, step = _line_search(lat, src, u, delta, eps,
                                             1.0 / max(1.0, gmax / lat.geo.cell_vol),
                                             lambda a, e1, _: "rescue" if e1 < e0 else None)
            backtracks += more
        history.append({"stage_eps": eps, "it": it, "residual": residual,
                        "step": alpha if step is not None else 0.0, "backtracks": backtracks,
                        "direction": direction, "linear": linear, "cg_iters": cg_iters,
                        "eta": eta, "eps_h": eps_h,
                        "accept": step[3] if step is not None else None})
        if debug:
            _log_record(history[-1])
        if step is None:
            message = "line search stalled"
            break
        u, corners, e1, _ = step
        trace.append(e1)
    return SolveResult(grid.like(u), trace, residual, it, not message, message, history)


def _log_record(record: dict) -> None:
    """Write one ``SolveResult.history`` record to the ``pxlap`` debug log, as
    ``start`` or ``newton`` and its fields as key=value."""
    _log.debug("%s %s", "newton" if "it" in record else "start",
               " ".join(f"{k}={v}" for k, v in record.items()))


def _laplace_warm_start(spec: ProblemSpec, geo: CellGeometry, src: np.ndarray) -> np.ndarray:
    """The discrete p = 2 solution with the data of spec, as a nodal array;
    geo is the geometry of its lattice and src the solve's source weights
    node_weights * f.

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
    the first node: constant data with no source comes back exactly.  The
    residual at the lifted data is the vertex-rule energy gradient at p = 2,
    ``CellGeometry.flux_pairing`` of its corner gradients plus src.  For
    constant data the lifted array is zero, its pairing exact +0.0, and the
    residual src + 0.0 (which turns a -0.0 of src into +0.0, as the pairing
    does), so no corner is evaluated.
    """
    data = spec.dirichlet_values()
    g0 = data.flat[0]
    nodal = data - g0
    inner = tuple(slice(1, -1) for _ in geo.dims)
    nodal[inner] = 0.0
    r = src + (geo.flux_pairing(geo.corner_gradients(nodal)) if np.any(nodal) else 0.0)
    r = r.reshape(geo.dims)[inner]
    # 2 - 2 cos(t) written as 4 sin^2(t / 2), exact to rounding at small t
    eigs = [4.0 * np.sin(0.5 * np.pi * np.arange(1, N + 1) / (N + 1)) ** 2 / h**2
            for N, h in zip(r.shape, geo.spacing)]
    r = _sine_transform(r)
    r /= geo.cell_vol * sum(np.ix_(*eigs))
    data[inner] = g0 - _sine_transform(r)
    return data


def _ray_start(spec: ProblemSpec, lat: _Lattice, src: np.ndarray) -> tuple:
    """The start of the Newton loop: g0 + s (u2 - g0) for constant data g0, else
    u2, the p = 2 solution of ``_laplace_warm_start``; src is the solve's
    source weights.  A u2 with a non-finite value is a SolverError.

    With constant data the ray g0 + s w, w = u2 - g0, keeps the data, and its
    corner gradients and squared norms are s g2 and s^2 S, g2 and S = |g2|^2
    those of u2, so the start needs no corner evaluation.  At eps = 0, with
    q = src . w,

        phi'(s) = d/ds E(g0 + s w) = vol/2^n sum_k S_k^(p_k/2) s^(p_k-1) + q,

    so when q < 0 lambda = 1/s solves sum_k c_k lambda^-(p_k-1) = 1, c_k =
    vol/2^n S_k^(p_k/2) / -q, over the corners with S_k > 0: a Luxemburg root,
    taken by ``norms.log_luxemburg``.  s = 0 when q >= 0.  For constant p
    the root is exact, so the start for the source t^(p-1) f is t times the
    start for f.  With other data the start is u2: scaling its interior would
    bend it against the fixed boundary values.

    When the start's energy at eps = 0 is not at most that of u2 (rounding,
    or an s that is not finite), s = 1 and the start is u2.  Along the ray
    that energy is vol/2^n sum_k a_k s^p_k + s q plus a constant, a_k =
    S_k^(p_k/2) / p_k, so the test is vol/2^n sum_k a_k (s^p_k - 1) + (s - 1)
    q <= 0: one pass over the kept corners, a_k the exp of the 0.5 p_k log
    S_k that the root already takes, and no energy evaluation.  Returns (u,
    corners, s).
    """
    u2 = _laplace_warm_start(spec, lat.geo, src).reshape(-1)
    if not np.all(np.isfinite(u2)):
        raise SolverError("warm start produced non-finite values")
    g2, S = corners2 = lat.corners(u2)
    g0 = u2[0]
    if np.any(np.delete(u2, lat.interior) != g0):
        return u2, corners2, 1.0
    w = u2 - g0
    q = float(src @ w)
    keep = S > 0.0
    p = lat.p_corner[keep]
    half = 0.5 * p * np.log(S[keep])  # log S^(p/2)
    vol = lat.geo.cell_vol / lat.nc
    s = 0.0
    if q < 0.0:
        t, _ = log_luxemburg((p - 1.0)[None, :], (np.log(vol / -q) + half)[None, :],
                             NormConfig())
        s = float(np.exp(-t[0]))
    # a = S^(p/2) / p and s^p - 1, both in place: two more temporaries of the
    # kept corners' size raised the peak RSS of a 64^2 solve by 0.8 MB.
    a = np.exp(half, out=half)
    a /= p
    ds = np.power(s, p, out=p)
    ds -= 1.0
    if vol * float(a @ ds) + (s - 1.0) * q <= 0.0:
        return g0 + s * w, (g2 * s, S * (s * s)), s
    return u2, corners2, 1.0


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
    reg_eps must be finite and >= 0.
    """
    reg_eps = _check_reg_eps(reg_eps)
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
