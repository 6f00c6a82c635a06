"""Cell quadrature helpers shared by norms, solver and the check harness.

Two rules are used in the package.  The norm module integrates with the
midpoint rule: field values at cell centers times cell volumes.  The solver
integrates gradient terms with the vertex rule: the gradient of the
multilinear interpolant evaluated at every cell corner, each corner carrying
vol / 2^n of the cell.  Ball-restricted integrals weight cut cells by the
contained volume fraction, estimated by subsampling.  This module is the
one place where a lattice and a Ball or Box become node samples, cell
weights, L^q norms, or a Harnack ball's 4R dilate and least exponent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grid import Ball, GridFunction, row_norm

__all__ = ["CellGeometry", "midpoint_data", "ball_cell_weights", "lq_norm"]


@dataclass
class CellGeometry:
    """Corner indexing and per-corner gradient stencils of a uniform lattice.

    corner_idx[c, k] is the flat node index of corner k of cell c.  For the
    multilinear interpolant on cell c, its gradient at corner k is
    grad_stencils[k] @ u[corner_idx[c]], an (n_axes,) vector.
    """

    dims: tuple
    spacing: np.ndarray
    corner_offsets: np.ndarray  # (2^n, n) in {0, 1}
    corner_idx: np.ndarray      # (ncells, 2^n)
    grad_stencils: np.ndarray   # (2^n, n, 2^n)
    cell_vol: float
    node_weights: np.ndarray    # (nnodes,) lumped vertex-rule weights

    @classmethod
    def build(cls, g: GridFunction) -> "CellGeometry":
        dims = g.dims
        n = len(dims)
        ncorner = 2**n
        nnodes = int(np.prod(dims))
        offsets = _corner_offsets(n)
        corner_idx = cell_corners(np.arange(nnodes).reshape(dims))

        # Gradient of the multilinear interpolant at corner k, axis a: the
        # one-sided difference along the cell edge through k in direction a.
        G = np.zeros((ncorner, n, ncorner))
        ofs_list = [tuple(o) for o in offsets]
        for k, off in enumerate(offsets):
            for a in range(n):
                hi = tuple(1 if i == a else o for i, o in enumerate(off))
                lo = tuple(0 if i == a else o for i, o in enumerate(off))
                G[k, a, ofs_list.index(hi)] += 1.0 / g.spacing[a]
                G[k, a, ofs_list.index(lo)] -= 1.0 / g.spacing[a]

        vol = float(np.prod(g.spacing))
        w = np.bincount(corner_idx.ravel(), minlength=nnodes) * (vol / ncorner)
        return cls(dims, g.spacing.copy(), offsets, corner_idx, G, vol, w)

    @property
    def n_axes(self) -> int:
        return len(self.dims)

    @property
    def n_cells(self) -> int:
        return self.corner_idx.shape[0]

    def corner_values(self, values: np.ndarray) -> np.ndarray:
        """Gather nodal values to (ncells, 2^n)."""
        return values.reshape(-1)[self.corner_idx]

    def corner_gradients(self, values: np.ndarray) -> np.ndarray:
        """Vertex-rule gradients, shape (ncells, 2^n corners, n_axes).

        Each cell's values are taken relative to its first corner before the
        stencil product; the stencils annihilate constants, so a cell on
        which u is constant gets exact zeros rather than rounding.
        """
        nc, n = self.grad_stencils.shape[:2]
        uc = self.corner_values(values)
        uc -= uc[:, :1]
        return (uc @ self.grad_stencils.reshape(nc * n, nc).T).reshape(-1, nc, n)


def midpoint_data(g: GridFunction) -> tuple:
    """(cell centers, cell volumes) for the midpoint rule over the grid box."""
    axes = [g.origin[a] + g.spacing[a] * (np.arange(g.dims[a] - 1) + 0.5)
            for a in range(g.n_axes)]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=1)
    vols = np.full(centers.shape[0], float(np.prod(g.spacing)))
    return centers, vols


def _corner_offsets(n: int) -> np.ndarray:
    """(2^n, n) corner offsets in {0, 1}, the corner order of CellGeometry."""
    return np.array(list(itertools.product((0, 1), repeat=n)), dtype=int)


def cell_corners(values: np.ndarray) -> np.ndarray:
    """Nodal values per cell, (ncells, 2^n): corner k of every cell is one
    shifted slice of the nodal array, in the corner order of CellGeometry."""
    dims = values.shape
    corners = [values[tuple(slice(o, d - 1 + o) for o, d in zip(off, dims))]
               for off in _corner_offsets(values.ndim)]
    return np.stack(corners, axis=-1).reshape(-1, len(corners))


def cell_means(g: GridFunction) -> np.ndarray:
    """Mean of the corner values per cell (the multilinear center value)."""
    return cell_corners(g.values).mean(axis=1)


def center_gradients(g: GridFunction) -> np.ndarray:
    """Gradient of the multilinear interpolant at every cell center, (ncells, n):
    along axis a, the mean of the cell's 2^(n-1) edge differences in direction a."""
    n = g.n_axes
    signs = 2.0 * _corner_offsets(n) - 1.0  # (2^n, n)
    return cell_corners(g.values) @ (signs / (2 ** (n - 1) * g.spacing))


def ball_cell_weights(g: GridFunction, ball: Ball, subdiv: int = 8) -> np.ndarray:
    """Quadrature weights of each cell for integrals over cell-box  intersect ball.

    Cells fully inside keep their volume; cells fully outside get zero; cut
    cells are weighted by the inside fraction of a subdiv^n subsample.  The
    loop runs over the subdiv offsets of the first axis, each one batch over
    the cut cells times the subdiv^(n-1) offsets of the other axes, so memory
    stays linear in the number of cut cells.
    """
    centers, vols = midpoint_data(g)
    half = 0.5 * np.linalg.norm(g.spacing)
    d = row_norm(centers - ball.center)
    w = np.where(d + half <= ball.radius, vols, 0.0)
    cut = (d - half < ball.radius) & (d + half > ball.radius)
    if np.any(cut):
        n = g.n_axes
        offs = [(np.arange(subdiv) + 0.5) / subdiv - 0.5 for _ in range(n)]
        mesh = np.meshgrid(*offs, indexing="ij")
        rel = (np.stack([m.ravel() for m in mesh], axis=1) * g.spacing).reshape(subdiv, -1, n)
        cut_centers = centers[cut]
        ncut = cut_centers.shape[0]
        inside = np.zeros(ncut, dtype=np.int64)
        for block in rel:
            pts = (cut_centers[:, None, :] + block).reshape(-1, n)
            inside += np.count_nonzero(ball.contains(pts).reshape(ncut, -1), axis=1)
        w[cut] = vols[cut] * (inside / subdiv**n)
    return w


def ball_node_mask(g: GridFunction, ball: Ball, dilate: float = 1.0) -> np.ndarray:
    """Mask of the lattice nodes in the closed ball dilated by the given factor;
    a ValueError naming the ball (and the dilate) when it holds no node."""
    mask = ball.dilate(dilate).contains(g.nodes())
    if not np.any(mask):
        where = "" if dilate == 1.0 else f" its {dilate:g}R dilate (radius {ball.radius * dilate})"
        raise ValueError(f"ball at {ball.center}, radius {ball.radius}: "
                         f"no grid nodes inside{where}")
    return mask


def harnack_dilate(g: GridFunction, ball: Ball, field) -> tuple:
    """(the 4R dilate, p_minus over its nodes) of a Harnack ball of radius
    R <= 1 whose 4R dilate lies in the grid box; a ValueError otherwise."""
    if ball.radius > 1.0 + 1e-12:
        raise ValueError(f"ball radius must be <= 1, got {ball.radius}")
    big = ball.dilate(4.0)
    if not g.box.contains_ball(big):
        raise ValueError(f"the 4R dilate of the ball (radius {big.radius}) escapes the grid box")
    return big, float(field(g.nodes()[ball_node_mask(g, ball, 4.0)]).min())


def power_sum_root(values: np.ndarray, weights: np.ndarray, q: float,
                   mean: bool = False) -> float:
    """(sum w_i |v_i|^q)^(1/q) over the samples of positive weight, the sum
    divided by sum w_i when mean is set; q finite and > 0.  Evaluated as
    m (sum w_i (|v_i| / m)^q)^(1/q), m the largest such |v_i|, so no power
    overflows at large q."""
    keep = weights > 0
    v, w = np.abs(values[keep]), weights[keep]
    m = v.max(initial=0.0)
    if m == 0.0:
        return 0.0
    total = np.sum(w * (v / m) ** q) / (w.sum() if mean else 1.0)
    return float(m * total ** (1.0 / q))


def lq_norm(g: GridFunction, q: float, region) -> float:
    """L^q norm of the grid function over the closed region, a Ball or a Box.

    Finite q integrates |u|^q with midpoint values on ``ball_cell_weights``
    of a ball or on the cells whose centers lie in a box.  q = inf returns the
    max of |u| over the region's nodes, the discrete essential sup.
    """
    if not q > 0:
        raise ValueError(f"integrability exponent must be positive, got {q}")
    ball = isinstance(region, Ball)
    if q == np.inf:
        mask = ball_node_mask(g, region) if ball else region.contains(g.nodes())
        return float(np.abs(g.values.reshape(-1)[mask]).max())
    centers, vols = midpoint_data(g)
    w = ball_cell_weights(g, region) if ball else np.where(region.contains(centers), vols, 0.0)
    return power_sum_root(cell_means(g), w, q)
