"""Cell quadrature shared by norms, solver and the check harness.

``CellGeometry`` is the one place where a lattice becomes cells: their
corners, centers and volume, and the gradients of the multilinear
interpolant on them.  The norms and the checks integrate with the midpoint
rule: the interpolant's value or gradient at the cell centers times the cell
volume.  The solver integrates gradient terms with the vertex rule: the
gradient at every cell corner, each corner carrying vol / 2^n of the cell.
Ball-restricted integrals weight cut cells by the contained volume fraction,
estimated by subsampling.  This module is also where a Ball or Box becomes
node samples, cell weights, L^q norms, or a Harnack ball's 4R dilate and
least exponent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grid import Ball, GridFunction, row_norm

__all__ = ["CellGeometry", "ball_cell_weights", "lq_norm"]


@dataclass
class CellGeometry:
    """Corner slices, centers and per-corner gradient stencils of a uniform lattice.

    Corner k of every cell is the shifted slice corner_slices[k] of the nodal
    array.  Every per-corner array is corner-major, its last axis the cell
    index, so an elementwise pass over one corner (or one axis and corner)
    runs over a contiguous row of n_cells entries.  For the multilinear
    interpolant on cell c, its gradient along axis a at corner k is
    grad_stencils[a, k] @ corner_values(u)[:, c].
    """

    dims: tuple
    origin: np.ndarray
    spacing: np.ndarray
    corner_offsets: np.ndarray  # (2^n, n) in {0, 1}
    corner_slices: tuple        # 2^n tuples of n slices
    grad_stencils: np.ndarray   # (n, 2^n, 2^n)
    cell_vol: float
    node_weights: np.ndarray = None  # (nnodes,) lumped vertex-rule weights

    @classmethod
    def build(cls, g: GridFunction) -> "CellGeometry":
        dims = g.dims
        n = len(dims)
        ncorner = 2**n
        # Gradient of the multilinear interpolant at corner k, axis a: the
        # one-sided difference along the cell edge through k in direction a,
        # from k with the offset bit of axis a cleared to k with it set.
        G = np.zeros((n, ncorner, ncorner))
        k = np.arange(ncorner)
        for a, h in enumerate(g.spacing):
            bit = 1 << (n - 1 - a)
            G[a, k, k | bit] = 1.0 / h
            G[a, k, k & ~bit] = -1.0 / h
        vol = float(np.prod(g.spacing))
        offsets = np.array(list(itertools.product((0, 1), repeat=n)), dtype=int)
        slices = tuple(tuple(slice(o, d - 1 + o) for o, d in zip(off, dims)) for off in offsets)
        geo = cls(dims, g.origin.copy(), g.spacing.copy(), offsets, slices, G, vol)
        geo.node_weights = geo.corner_sums(np.ones((ncorner, geo.n_cells))) * (vol / ncorner)
        return geo

    @property
    def n_axes(self) -> int:
        return len(self.dims)

    @property
    def cell_dims(self) -> tuple:
        return tuple(d - 1 for d in self.dims)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.cell_dims))

    def corner_values(self, values: np.ndarray) -> np.ndarray:
        """Gather nodal values to (2^n, ncells), one slice copy per corner."""
        v = np.reshape(values, self.dims)
        out = np.empty((len(self.corner_slices),) + self.cell_dims)
        for row, corner in zip(out, self.corner_slices):
            row[...] = v[corner]
        return out.reshape(len(out), -1)

    def corner_sums(self, rows: np.ndarray) -> np.ndarray:
        """The adjoint of ``corner_values``: rows added onto the nodes in corner order."""
        out = np.zeros(self.dims)
        for row, corner in zip(rows.reshape((len(rows),) + self.cell_dims), self.corner_slices):
            out[corner] += row
        return out.reshape(-1)

    def corner_gradients(self, values: np.ndarray) -> np.ndarray:
        """Vertex-rule gradients, shape (n_axes, 2^n corners, ncells): one
        (n 2^n, 2^n) @ (2^n, ncells) product of the stencils with the corner
        values.

        Each cell's values are taken relative to its first corner before the
        product; the stencils annihilate constants, so a cell on which u is
        constant gets exact zeros rather than rounding.
        """
        n, nc = self.grad_stencils.shape[:2]
        uc = self.corner_values(values)
        uc -= uc[0]
        return (self.grad_stencils.reshape(n * nc, nc) @ uc).reshape(n, nc, -1)

    def flux_pairing(self, flux: np.ndarray) -> np.ndarray:
        """The vertex-rule adjoint of ``corner_gradients``: the nodal vector of
        vol/2^n sum over cells and corners k of flux_k . G_k, flux of shape
        (n_axes, 2^n, ncells), so that flux_pairing(F) @ u is that sum of
        F . corner_gradients(u)."""
        n, nc = self.grad_stencils.shape[:2]
        per_corner = self.grad_stencils.reshape(n * nc, nc).T @ flux.reshape(n * nc, -1)
        return self.corner_sums((self.cell_vol / nc) * per_corner)

    def centers(self) -> np.ndarray:
        """The cell centers, (ncells, n_axes), the points of the midpoint rule."""
        axes = [o + h * (np.arange(d - 1) + 0.5)
                for o, h, d in zip(self.origin, self.spacing, self.dims)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def cell_means(self, values: np.ndarray) -> np.ndarray:
        """Mean of the corner values per cell, (ncells,): the multilinear
        interpolant at the cell center."""
        return self.corner_values(values).mean(axis=0)

    def center_gradients(self, values: np.ndarray) -> np.ndarray:
        """Gradient of the multilinear interpolant at every cell center, (ncells,
        n_axes): the mean of the corner stencils, which along axis a is the
        mean of the cell's 2^(n-1) edge differences in direction a."""
        return (self.grad_stencils.mean(axis=1) @ self.corner_values(values)).T


def ball_cell_weights(g: GridFunction, ball: Ball, subdiv: int = 8) -> np.ndarray:
    """Quadrature weights of each cell for integrals over cell-box  intersect ball.

    Cells fully inside keep their volume; cells fully outside get zero; cut
    cells are weighted by the inside fraction of a subdiv^n subsample.  The
    loop runs over the subdiv offsets of the first axis, each one batch over
    the cut cells times the subdiv^(n-1) offsets of the other axes, so memory
    stays linear in the number of cut cells.
    """
    return _ball_weights(CellGeometry.build(g), ball, subdiv)


def _ball_weights(geo: CellGeometry, ball: Ball, subdiv: int = 8) -> np.ndarray:
    """``ball_cell_weights`` on the lattice of geo."""
    centers, vol = geo.centers(), geo.cell_vol
    half = 0.5 * np.linalg.norm(geo.spacing)
    d = row_norm(centers - ball.center)
    w = np.where(d + half <= ball.radius, vol, 0.0)
    cut = (d - half < ball.radius) & (d + half > ball.radius)
    if np.any(cut):
        n = geo.n_axes
        offs = [(np.arange(subdiv) + 0.5) / subdiv - 0.5 for _ in range(n)]
        mesh = np.meshgrid(*offs, indexing="ij")
        rel = (np.stack([m.ravel() for m in mesh], axis=1) * geo.spacing).reshape(subdiv, -1, n)
        cut_centers = centers[cut]
        ncut = cut_centers.shape[0]
        inside = np.zeros(ncut, dtype=np.int64)
        for block in rel:
            pts = (cut_centers[:, None, :] + block).reshape(-1, n)
            inside += np.count_nonzero(ball.contains(pts).reshape(ncut, -1), axis=1)
        w[cut] = vol * (inside / subdiv**n)
    return w


def _region_name(region) -> str:
    if isinstance(region, Ball):
        return f"ball at {region.center}, radius {region.radius}"
    return f"box {region.lo}..{region.hi}"


def node_mask(g: GridFunction, region, dilate: float = 1.0) -> np.ndarray:
    """Mask of the lattice nodes in the closed region, a Box or a Ball, the
    ball dilated by the given factor; a ValueError naming the region (and the
    dilate) when it holds no node."""
    mask = (region.dilate(dilate) if isinstance(region, Ball) else region).contains(g.nodes())
    if not np.any(mask):
        where = "" if dilate == 1.0 else f" its {dilate:g}R dilate (radius {region.radius * dilate})"
        raise ValueError(f"{_region_name(region)}: no grid nodes inside{where}")
    return mask


def harnack_dilate(g: GridFunction, ball: Ball, field) -> tuple:
    """(the 4R dilate, p_minus over its nodes) of a Harnack ball of radius
    R <= 1 whose 4R dilate lies in the grid box; a ValueError otherwise."""
    if ball.radius > 1.0 + 1e-12:
        raise ValueError(f"ball radius must be <= 1, got {ball.radius}")
    big = ball.dilate(4.0)
    if not g.box.contains_ball(big):
        raise ValueError(f"the 4R dilate of the ball (radius {big.radius}) escapes the grid box")
    return big, float(field(g.nodes()[node_mask(g, ball, 4.0)]).min())


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
    max of |u| over the region's nodes, the discrete essential sup.  A region
    with no node (q = inf) or no cell weight (finite q) is a ValueError
    naming it.
    """
    if not q > 0:
        raise ValueError(f"integrability exponent must be positive, got {q}")
    if q == np.inf:
        return float(np.abs(g.values.reshape(-1)[node_mask(g, region)]).max())
    geo = CellGeometry.build(g)
    w = (_ball_weights(geo, region) if isinstance(region, Ball)
         else np.where(region.contains(geo.centers()), geo.cell_vol, 0.0))
    if not np.any(w > 0):
        raise ValueError(f"{_region_name(region)}: no cell weight inside")
    return power_sum_root(geo.cell_means(g.values), w, q)
