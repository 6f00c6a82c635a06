"""Variable exponents p(x): evaluation, per-ball bands, log-Hoelder estimation.

An ExponentField wraps a pure evaluator x -> p(x) together with global bounds
1 < p1 <= p(x) <= p2 < infinity.  The band of a ball is the (min, max) of p
over the lattice samples it contains; ``log_holder_estimate`` measures the
modulus constant c_r with  |p(x) - p(y)| * |log|x - y||  <= c_r  over sampled
pairs of separation at most 1/2, together with the scale-bound constant
k_r = max over sampled balls of r^-(p_plus - p_minus).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import Ball, Box, GridFunction, as_points, row_norm

__all__ = [
    "ExponentField",
    "LogHolderCertificate",
    "band",
    "log_holder_estimate",
    "constant_exponent",
    "affine_exponent",
    "radial_exponent",
    "piecewise_exponent",
    "grid_exponent",
]

_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class ExponentField:
    """p(x) with global bounds and an optional analytic gradient.

    The evaluator maps an (m, n) array of points to an (m,) array of values
    and must be deterministic.  `domain`, when set, restricts where samples
    may be drawn.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    p1: float
    p2: float
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    domain: Optional[Box] = None
    name: str = "p"

    def __post_init__(self):
        if not (1.0 < self.p1 <= self.p2 < np.inf):
            raise ValueError(f"need 1 < p1 <= p2 < inf, got p1={self.p1}, p2={self.p2}")

    def __call__(self, points) -> np.ndarray:
        pts = as_points(points)
        vals = np.asarray(self.evaluator(pts), dtype=float).reshape(pts.shape[0])
        lo, hi = vals.min(initial=np.inf), vals.max(initial=-np.inf)
        if not (lo >= self.p1 - _BOUND_TOL and hi <= self.p2 + _BOUND_TOL):  # NaN fails too
            raise ValueError(
                f"exponent field '{self.name}' leaves its band [{self.p1}, {self.p2}]: "
                f"sampled range [{lo}, {hi}]"
            )
        return vals

    def gradient_at(self, points, step: float = 1e-6) -> np.ndarray:
        """Analytic gradient when available, else central differences."""
        pts = as_points(points)
        if self.gradient is not None:
            return np.asarray(self.gradient(pts), dtype=float).reshape(pts.shape)
        out = np.zeros_like(pts)
        for a in range(pts.shape[1]):
            e = np.zeros(pts.shape[1])
            e[a] = step
            out[:, a] = (self.evaluator(pts + e) - self.evaluator(pts - e)) / (2 * step)
        return out


@dataclass(frozen=True)
class LogHolderCertificate:
    """Measured log-Hoelder data: c_r, k_r, the radius covered, sample count."""

    c_r: float
    k_r: float
    radius: float
    sample_count: int

    def __post_init__(self):
        if self.c_r < 0 or self.k_r < 1.0 - 1e-12:
            raise ValueError(f"invalid certificate: c_r={self.c_r}, k_r={self.k_r}")


# -- named fields ------------------------------------------------------------

def constant_exponent(value: float, domain: Box | None = None) -> ExponentField:
    v = float(value)

    def ev(pts):
        return np.full(pts.shape[0], v)

    def gr(pts):
        return np.zeros_like(pts)

    return ExponentField(ev, v, v, gradient=gr, domain=domain, name=f"const({v})")


def affine_exponent(offset: float, slope, domain: Box) -> ExponentField:
    """p(x) = offset + slope . x, with bounds from the box corners."""
    slope = np.atleast_1d(np.asarray(slope, dtype=float))

    def ev(pts):
        return offset + pts @ slope

    def gr(pts):
        return np.broadcast_to(slope, pts.shape).copy()

    vals = ev(domain.corners())
    return ExponentField(ev, float(vals.min()), float(vals.max()), gradient=gr,
                         domain=domain, name="affine")


def radial_exponent(center, offset: float, slope: float, domain: Box) -> ExponentField:
    """p(x) = offset + slope * |x - center|."""
    c = np.atleast_1d(np.asarray(center, dtype=float))

    def ev(pts):
        return offset + slope * row_norm(pts - c)

    def gr(pts):
        d = pts - c
        r = row_norm(d)[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            g = np.where(r > 0, slope * d / r, 0.0)
        return g

    rmin = float(np.linalg.norm(np.clip(c, domain.lo, domain.hi) - c))
    rmax = float(max(np.linalg.norm(corner - c) for corner in domain.corners()))
    lo, hi = sorted((offset + slope * rmin, offset + slope * rmax))
    return ExponentField(ev, lo, hi, gradient=gr, domain=domain, name="radial")


def piecewise_exponent(axis: int, threshold: float, left: float, right: float,
                       domain: Box | None = None) -> ExponentField:
    """p = left where x_axis < threshold, else right.  Gradient is 0 a.e."""

    def ev(pts):
        return np.where(pts[:, axis] < threshold, float(left), float(right))

    def gr(pts):
        return np.zeros_like(pts)

    lo, hi = sorted((float(left), float(right)))
    return ExponentField(ev, lo, hi, gradient=gr, domain=domain, name="piecewise")


def grid_exponent(g: GridFunction) -> ExponentField:
    """Exponent from sampled values, evaluated by multilinear interpolation."""
    lo, hi = float(g.values.min()), float(g.values.max())

    def ev(pts):
        return g.interp(pts)

    return ExponentField(ev, lo, hi, domain=g.box, name="grid")


# -- band and log-Hoelder estimation -----------------------------------------

def _lattice_in_ball(ball: Ball, resolution: float, domain: Box | None) -> np.ndarray:
    """Nodes of the absolute lattice resolution * Z^n inside the closed ball.

    The lattice is anchored at the origin so that nested balls sample nested
    sets, which makes the band monotone under ball inclusion.
    """
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    axes = []
    for a in range(ball.n_axes):
        lo = ball.center[a] - ball.radius
        hi = ball.center[a] + ball.radius
        k0 = int(np.ceil(lo / resolution - 1e-12))
        k1 = int(np.floor(hi / resolution + 1e-12))
        axes.append(resolution * np.arange(k0, k1 + 1))
    if any(len(ax) == 0 for ax in axes):
        return np.zeros((0, ball.n_axes))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    keep = ball.contains(pts)
    if domain is not None:
        keep &= domain.contains(pts)
    return pts[keep]


def band(field: ExponentField, ball: Ball, resolution: float) -> tuple:
    """(p_minus, p_plus) of the field over lattice samples in the closed ball.

    Raises ValueError when the ball captures no lattice point; a silent
    default would poison every downstream exponent band.
    """
    pts = _lattice_in_ball(ball, resolution, field.domain)
    if pts.shape[0] == 0:
        raise ValueError(
            f"ball at {ball.center} with radius {ball.radius} contains no lattice "
            f"point at resolution {resolution}"
        )
    vals = field(pts)
    return float(vals.min()), float(vals.max())


def band_of_samples(field: ExponentField, points: np.ndarray) -> tuple:
    """(min, max) of the field over an explicit sample set."""
    pts = as_points(points)
    if pts.shape[0] == 0:
        raise ValueError("empty sample set for exponent band")
    vals = field(pts)
    return float(vals.min()), float(vals.max())


def _dyadic_lattice(domain: Box, pair_budget: int) -> np.ndarray:
    """Largest dyadic lattice (2^j + 1 nodes per axis) within the pair budget.

    Dyadic node counts nest under refinement, so growing the budget never
    loses previously sampled pairs and the estimate is monotone in budget.
    """
    n_axes = domain.n_axes
    j = 1
    while True:
        m = 2 ** (j + 1) + 1
        n = m**n_axes
        # the node cap keeps the pairwise distance matrix small
        if n * (n - 1) // 2 > pair_budget or n > 1200:
            break
        j += 1
    m = 2**j + 1
    axes = [np.linspace(domain.lo[a], domain.hi[a], m) for a in range(n_axes)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([x.ravel() for x in mesh], axis=1)


def log_holder_estimate(field: ExponentField, domain: Box, pair_budget: int,
                        seed: int = 0) -> LogHolderCertificate:
    """Measure c_r and k_r over the domain.

    c_r maximizes |p(x) - p(y)| * |log|x - y|| over all lattice pairs with
    separation in (0, 1/2], topped up with a seeded stream of random pairs
    whose separations are log-uniform down to fine scales.  k_r maximizes
    r^-(p_plus - p_minus) over balls centred at lattice nodes with log-spaced
    radii r <= min(1/2, domain radius).
    """
    if pair_budget < 1:
        raise ValueError(f"pair_budget must be >= 1, got {pair_budget}")
    pts = _dyadic_lattice(domain, pair_budget)
    n = pts.shape[0]
    vals = field(pts)

    diff = pts[:, None, :] - pts[None, :, :]
    dist = row_norm(diff)
    iu = np.triu_indices(n, k=1)
    seps = dist[iu]
    dp = np.abs(vals[:, None] - vals[None, :])[iu]
    ok = (seps > 0) & (seps <= 0.5)
    c_r = float(np.max(dp[ok] * np.abs(np.log(seps[ok]))) if np.any(ok) else 0.0)
    used = int(np.count_nonzero(ok))

    # Seeded random top-up.  Each pair is derived from one row of a single
    # uniform draw, so a larger budget extends the smaller one row for row
    # and the estimate stays monotone in the budget.
    extra = max(0, min(pair_budget - used, 20000))
    if extra > 0:
        from scipy.special import ndtri

        rng = np.random.default_rng(seed)
        na = domain.n_axes
        u = rng.random((extra, 2 * na + 1))  # row-major fill: prefixes nest
        x = domain.lo + u[:, :na] * domain.widths
        scale = np.exp(np.log(1e-6) + u[:, na] * (np.log(0.5) - np.log(1e-6)))
        direc = ndtri(np.clip(u[:, na + 1:], 1e-12, 1 - 1e-12))
        direc /= row_norm(direc)[:, None]
        y = np.clip(x + scale[:, None] * direc, domain.lo, domain.hi)
        sep = row_norm(x - y)
        good = (sep > 0) & (sep <= 0.5)
        if np.any(good):
            dpr = np.abs(field(x[good]) - field(y[good]))
            c_r = max(c_r, float(np.max(dpr * np.abs(np.log(sep[good])))))
        used += int(np.count_nonzero(good))

    # k_r over balls at lattice centers with log-spaced radii: one
    # (radii, centers, nodes) mask, the band of each ball a masked max and min.
    r_cap = min(0.5, float(domain.diameter) / 2.0)
    h_min = float(np.min(domain.widths)) / max(1, round(n ** (1.0 / domain.n_axes)) - 1)
    radii = np.geomspace(max(2 * h_min, 1e-6 * r_cap), r_cap, 8) if r_cap > 2 * h_min \
        else np.array([r_cap])
    inside = dist[::max(1, n // 64)] <= radii[:, None, None]
    spread = np.broadcast_to(vals, inside.shape)
    gap = np.where(np.count_nonzero(inside, axis=2) >= 2,
                   np.max(spread, axis=2, where=inside, initial=-np.inf)
                   - np.min(spread, axis=2, where=inside, initial=np.inf), 0.0)
    k_r = float(np.max(radii[:, None] ** -gap, initial=1.0))

    return LogHolderCertificate(c_r=c_r, k_r=k_r, radius=float(domain.diameter) / 2.0,
                                sample_count=used)
