"""Uniform tensor-product grids, axis-aligned boxes and balls.

A GridFunction samples a scalar field at the nodes of a uniform lattice over
a rectangular box.  Files use the PXGRID v1 text format: a header line

    PXGRID v1 N <dims...> <origin...> <spacing...>

followed by the node values in row-major order.  Floats are written with 17
significant digits so a write/read cycle is bit exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = ["Box", "Ball", "GridFunction", "read_gridfunction", "write_gridfunction"]

_FMT = "%.17g"


def as_points(x) -> np.ndarray:
    """Normalize point input to a float array of shape (m, n)."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise ValueError(f"points must be at most 2-d, got shape {a.shape}")
    return a


def row_norm(x, squared: bool = False) -> np.ndarray:
    """Euclidean norm along the last axis of a point batch, e.g. (m, n) -> (m,);
    the sum of squares when squared is set.

    The column squares are summed in axis order before the square root, which
    is bitwise np.linalg.norm(x, axis=-1) for n <= 3 and several times faster
    on short rows.
    """
    x = np.asarray(x, dtype=float)
    s = x[..., 0] * x[..., 0]
    for a in range(1, x.shape[-1]):
        s += x[..., a] * x[..., a]
    return s if squared else np.sqrt(s, out=s)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo_1, hi_1] x ... x [lo_N, hi_N]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.atleast_1d(np.asarray(self.lo, dtype=float)))
        object.__setattr__(self, "hi", np.atleast_1d(np.asarray(self.hi, dtype=float)))
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("box corners must be 1-d arrays of equal length")
        if not np.all(self.lo < self.hi):
            raise ValueError(f"degenerate box: lo={self.lo}, hi={self.hi}")

    @property
    def n_axes(self) -> int:
        return self.lo.size

    @property
    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.widths))

    def contains(self, points, tol: float = 1e-12) -> np.ndarray:
        pts = as_points(points)
        if pts.shape[1] != self.n_axes:
            raise ValueError(f"points have {pts.shape[1]} coordinates, box has {self.n_axes}")
        slack = tol * np.maximum(1.0, np.abs(self.widths))
        lo, hi = self.lo - slack, self.hi + slack
        inside = (pts[:, 0] >= lo[0]) & (pts[:, 0] <= hi[0])
        for a in range(1, self.n_axes):
            inside &= (pts[:, a] >= lo[a]) & (pts[:, a] <= hi[a])
        return inside

    def contains_ball(self, ball: "Ball") -> bool:
        """Whether the closed ball lies in the box, up to an absolute 1e-12."""
        return bool(np.all(ball.center - ball.radius >= self.lo - 1e-12)
                    and np.all(ball.center + ball.radius <= self.hi + 1e-12))

    def shrink(self, margin: float) -> "Box":
        lo, hi = self.lo + margin, self.hi - margin
        if not np.all(lo < hi):
            raise ValueError(f"margin {margin} swallows the box {self.lo}..{self.hi}")
        return Box(lo, hi)

    def corners(self) -> np.ndarray:
        cs = list(itertools.product(*zip(self.lo, self.hi)))
        return np.asarray(cs, dtype=float)


@dataclass(frozen=True)
class Ball:
    """Closed ball of given center and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")

    @property
    def n_axes(self) -> int:
        return self.center.size

    def contains(self, points, tol: float = 1e-12) -> np.ndarray:
        pts = as_points(points)
        return row_norm(pts - self.center) <= self.radius * (1.0 + tol) + tol * 1e-3

    def dilate(self, factor: float) -> "Ball":
        return Ball(self.center, factor * self.radius)

    def bounding_box(self) -> Box:
        return Box(self.center - self.radius, self.center + self.radius)


@dataclass
class GridFunction:
    """Scalar field sampled on a uniform lattice.

    dims     node counts per axis (each >= 2)
    origin   coordinates of the first node
    spacing  node distance per axis
    values   array of shape dims, row-major (last axis fastest)
    """

    dims: tuple
    origin: np.ndarray
    spacing: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.dims = tuple(int(d) for d in np.atleast_1d(self.dims))
        self.origin = np.atleast_1d(np.asarray(self.origin, dtype=float))
        self.spacing = np.atleast_1d(np.asarray(self.spacing, dtype=float))
        self.values = np.asarray(self.values, dtype=float).reshape(self.dims)
        if any(d < 2 for d in self.dims):
            raise ValueError(f"need at least 2 nodes per axis, got dims={self.dims}")
        if len(self.dims) != self.origin.size or len(self.dims) != self.spacing.size:
            raise ValueError("dims, origin and spacing must agree in length")
        if not np.all(np.isfinite(self.origin)):
            raise ValueError(f"origin must be finite, got {self.origin}")
        with np.errstate(over="ignore"):
            last = self.origin + self.spacing * (np.asarray(self.dims) - 1)
        if not (np.all(self.spacing > 0) and np.all(np.isfinite(last))):
            raise ValueError(f"spacing must be positive and reach a finite last node, "
                             f"got {self.spacing}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_callable(cls, box: Box, cells, fn) -> "GridFunction":
        """Sample fn on the lattice with `cells` cells per axis over box: one
        count, or one per axis; a count that is a bool or not a whole number
        is a ValueError naming it."""
        counts = np.atleast_1d(np.asarray(cells, dtype=object)).ravel().tolist()
        if not all(isinstance(c, (int, float, np.integer, np.floating)) and not isinstance(c, bool)
                   and float(c).is_integer() for c in counts):
            raise ValueError(f"cells must be whole numbers, got {cells!r}")
        cells = np.broadcast_to(np.array(counts, dtype=int), (box.n_axes,))
        dims = tuple(int(c) + 1 for c in cells)
        spacing = box.widths / cells
        g = cls(dims, box.lo.copy(), spacing, np.zeros(dims))
        g.values = np.asarray(fn(g.nodes()), dtype=float).reshape(dims)
        if not np.all(np.isfinite(g.values)):
            raise ValueError("grid values must be finite")
        return g

    @classmethod
    def constant(cls, box: Box, cells, value: float) -> "GridFunction":
        return cls.from_callable(box, cells, lambda pts: np.full(pts.shape[0], float(value)))

    def like(self, values) -> "GridFunction":
        """New GridFunction on the same lattice with different values."""
        return GridFunction(self.dims, self.origin.copy(), self.spacing.copy(), np.asarray(values, dtype=float))

    # -- geometry ----------------------------------------------------------

    @property
    def n_axes(self) -> int:
        return len(self.dims)

    @property
    def box(self) -> Box:
        hi = self.origin + self.spacing * (np.asarray(self.dims) - 1)
        return Box(self.origin, hi)

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.spacing[axis] * np.arange(self.dims[axis])

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, n_axes), row-major order."""
        axes = [self.axis_coords(a) for a in range(self.n_axes)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def boundary_mask(self) -> np.ndarray:
        """Boolean array over dims, True on the outermost node layer."""
        mask = np.zeros(self.dims, dtype=bool)
        for a in range(self.n_axes):
            sl = [slice(None)] * self.n_axes
            sl[a] = 0
            mask[tuple(sl)] = True
            sl[a] = -1
            mask[tuple(sl)] = True
        return mask

    def same_lattice(self, other: "GridFunction", tol: float = 1e-12) -> bool:
        return (
            self.dims == other.dims
            and np.allclose(self.origin, other.origin, rtol=0, atol=tol)
            and np.allclose(self.spacing, other.spacing, rtol=0, atol=tol)
        )

    # -- evaluation --------------------------------------------------------

    def interp(self, points) -> np.ndarray:
        """Multilinear interpolation at arbitrary points inside the box."""
        pts = as_points(points)
        if pts.shape[1] != self.n_axes:
            raise ValueError(f"points have {pts.shape[1]} coordinates, grid has {self.n_axes}")
        inside = self.box.contains(pts)
        if not np.all(inside):
            bad = pts[~inside][0]
            raise ValueError(f"point {bad} lies outside the grid box")
        loc = (pts - self.origin) / self.spacing
        cell = np.clip(np.floor(loc).astype(int), 0, np.asarray(self.dims) - 2)
        frac = np.clip(loc - cell, 0.0, 1.0)
        out = np.zeros(pts.shape[0])
        for offs in itertools.product((0, 1), repeat=self.n_axes):
            w = np.ones(pts.shape[0])
            for a, o in enumerate(offs):
                w *= frac[:, a] if o else (1.0 - frac[:, a])
            idx = tuple((cell[:, a] + offs[a]) for a in range(self.n_axes))
            out += w * self.values[idx]
        return out


# -- PXGRID v1 I/O ----------------------------------------------------------

def write_gridfunction(g: GridFunction, path) -> None:
    with open(path, "w") as fh:
        head = ["PXGRID", "v1", str(g.n_axes)]
        head += [str(d) for d in g.dims]
        head += [_FMT % v for v in g.origin]
        head += [_FMT % v for v in g.spacing]
        fh.write(" ".join(head) + "\n")
        flat = g.values.ravel()
        for start in range(0, flat.size, 8):
            fh.write(" ".join(_FMT % v for v in flat[start : start + 8]) + "\n")


def read_gridfunction(path) -> GridFunction:
    with open(path) as fh:
        head = fh.readline().split()
        if len(head) < 3 or head[0] != "PXGRID" or head[1] != "v1":
            raise ValueError(f"{path}: not a PXGRID v1 file")
        body = fh.read()
    try:  # every error below names the file
        n = int(head[2])
        if len(head) != 3 + 3 * n:
            raise ValueError("malformed PXGRID header")
        dims = tuple(int(t) for t in head[3 : 3 + n])
        origin = np.array([float(t) for t in head[3 + n : 3 + 2 * n]])
        spacing = np.array([float(t) for t in head[3 + 2 * n : 3 + 3 * n]])
        vals = np.array(body.split(), dtype=float)
        want = int(np.prod(dims))
        if vals.size != want:
            raise ValueError(f"expected {want} values, found {vals.size}")
        return GridFunction(dims, origin, spacing, vals.reshape(dims))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
