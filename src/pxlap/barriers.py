"""Exponential barriers, subsolution scans, maximum principle and Hopf checks.

The barrier on the annulus delta/2 <= |x - x0| <= delta is

    w(x) = A (exp(-mu |x-x0|^2 / delta^2) - exp(-mu)) / (exp(-mu/4) - exp(-mu)),

which vanishes on the outer sphere and equals A on the inner one by
construction.  For mu large (and p Lipschitz with small slope) it is a
p(x)-subsolution on the annulus; ``barrier_subsolution_scan`` measures the
minimum of the operator over annulus samples, and ``bracket_subsolution_mu``
bisects on mu for the sign change of that minimum.  For p = 2 in dimension n
the exact threshold is mu = 2n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exponent import ExponentField
from .grid import GridFunction, as_points, row_norm
from .quadrature import node_mask
from .solver import SmoothFunction, p_laplacian_pointwise

__all__ = [
    "BarrierParams", "BarrierScan", "GaussianBoundScan", "MaxPrincipleResult",
    "HopfResult", "barrier_eval", "barrier_smooth", "barrier_subsolution_scan",
    "bracket_subsolution_mu", "subsolution_mu_sweep", "gaussian_lower_bound_scan",
    "strong_max_principle_check", "hopf_slope", "annulus_samples",
]


@dataclass(frozen=True)
class BarrierParams:
    """Annulus barrier data: center, outer radius, decay rate, inner level."""

    x0: np.ndarray
    delta: float
    mu: float
    a_level: float

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be finite and positive, got {self.delta}")
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not self.normalizer > 0:
            raise ValueError(f"mu = {self.mu} rounds the normalizer e^(-mu/4) - e^(-mu) to 0")
        if not 0 <= self.a_level < math.inf:
            raise ValueError(f"a_level must be finite and >= 0, got {self.a_level}")

    @property
    def normalizer(self) -> float:
        return math.exp(-self.mu / 4.0) - math.exp(-self.mu)


@dataclass(frozen=True)
class BarrierScan:
    params: BarrierParams
    min_operator_value: float
    argmin: np.ndarray
    samples: int

    def __post_init__(self):
        r = float(np.linalg.norm(self.argmin - self.params.x0))
        d = self.params.delta
        if not (d / 2.0 - 1e-9 * d <= r <= d + 1e-9 * d):
            raise ValueError(f"argmin at distance {r} leaves the annulus [{d/2}, {d}]")


@dataclass(frozen=True)
class GaussianBoundScan:
    """Minimum of the normalized operator value of M exp(-mu |x|^2) over an
    annulus, with the data a caller needs to fit the linear lower bound in mu."""

    lhs_min: float
    argmin: np.ndarray
    mu: float
    grad_p_sup: float
    abs_log_m: float
    samples: int


@dataclass(frozen=True)
class MaxPrincipleResult:
    classification: str  # identically_zero | strictly_positive | violation
    max_abs: float
    interior_min: float
    zero_tol: float


@dataclass(frozen=True)
class HopfResult:
    slopes: np.ndarray
    c0_estimate: float


# -- Gaussian closed forms -----------------------------------------------------

def _gaussian(center, amp: float, rate: float, shift: float = 0.0) -> SmoothFunction:
    """amp exp(-rate |x - center|^2) - shift, with gradient -2 rate G d and
    Hessian -2 rate G (I - 2 rate d d^T), G the Gaussian and d = x - center."""

    def gauss(pts):
        d = as_points(pts) - center
        return d, amp * np.exp(-rate * np.einsum("mi,mi->m", d, d))

    def value(pts):
        return gauss(pts)[1] - shift

    def gradient(pts):
        d, g = gauss(pts)
        return (-2.0 * rate * g)[:, None] * d

    def hessian(pts):
        d, g = gauss(pts)
        outer = d[:, :, None] * d[:, None, :]
        return (-2.0 * rate * g)[:, None, None] * (np.eye(d.shape[1]) - 2.0 * rate * outer)

    return SmoothFunction(value, gradient, hessian)


def barrier_smooth(params: BarrierParams) -> SmoothFunction:
    """The barrier as a SmoothFunction (value, gradient, Hessian)."""
    amp = params.a_level / params.normalizer
    return _gaussian(params.x0, amp, params.mu / params.delta**2, amp * math.exp(-params.mu))


def barrier_eval(params: BarrierParams, x) -> tuple:
    """(value, gradient) of the barrier at x; defined everywhere."""
    pts = as_points(x)
    w = barrier_smooth(params)
    val, grad = w.value(pts), w.gradient(pts)
    if pts.shape[0] == 1:
        return float(val[0]), grad[0]
    return val, grad


def annulus_samples(center, r_inner: float, r_outer: float, resolution: float,
                    n_dir: int = 32, seed: int = 0) -> np.ndarray:
    """Deterministic annulus sample set containing both boundary spheres.

    Radii are linspace(r_inner, r_outer) at the requested resolution, so the
    inner sphere (where barrier operators are extremal) is sampled exactly.
    Directions: signs in 1d, uniform angles in 2d, a seeded spherical set in
    higher dimensions.  resolution must be finite and > 0, and n_dir >= 1.
    """
    if not 0 < resolution < np.inf:
        raise ValueError(f"resolution must be finite and positive, got {resolution}")
    if not n_dir >= 1:
        raise ValueError(f"n_dir must be at least 1, got {n_dir}")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    n = center.size
    n_r = max(2, int(round((r_outer - r_inner) / resolution)) + 1)
    radii = np.linspace(r_inner, r_outer, n_r)
    if n == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif n == 2:
        ang = 2.0 * np.pi * np.arange(n_dir) / n_dir
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        rng = np.random.default_rng(seed)
        dirs = rng.normal(size=(n_dir, n))
        dirs /= row_norm(dirs)[:, None]
    return (center[None, None, :] + radii[:, None, None] * dirs[None, :, :]).reshape(-1, n)


def _barrier_samples(params: BarrierParams, field: ExponentField, resolution: float,
                     n_dir: int) -> np.ndarray:
    """The annulus samples of a barrier scan; a ValueError when they leave the
    field's domain."""
    pts = annulus_samples(params.x0, params.delta / 2.0, params.delta, resolution, n_dir)
    if field.domain is not None and not np.all(field.domain.contains(pts)):
        raise ValueError("annulus leaves the exponent field's domain")
    return pts


def barrier_subsolution_scan(params: BarrierParams, field: ExponentField,
                             resolution: float, reg_eps: float = 0.0,
                             n_dir: int = 32) -> BarrierScan:
    """Minimum of the p(x)-Laplacian of the barrier over annulus samples.

    The caller asserts min >= -tol when testing the subsolution property.
    The barrier's gradient never vanishes on the annulus for a_level > 0, so
    no regularization is needed; reg_eps is threaded through for uniformity.
    """
    pts = _barrier_samples(params, field, resolution, n_dir)
    vals = p_laplacian_pointwise(barrier_smooth(params), field, pts, reg_eps)
    i = int(np.argmin(vals))
    return BarrierScan(params, float(vals[i]), pts[i], pts.shape[0])


def bracket_subsolution_mu(template: BarrierParams, field: ExponentField,
                           mu_lo: float, mu_hi: float, resolution: float,
                           width: float = 0.005, n_dir: int = 32) -> tuple:
    """Bisect on mu for the sign change of the scan minimum.

    Returns (lo, hi) with the scan minimum negative at lo and >= 0 at hi and
    hi - lo <= 2 * width, or lo and hi adjacent floats when 2 * width is
    below their spacing: the bisection stops once the midpoint is not
    strictly between them.  Raises when width is not finite and positive, or
    when the endpoints do not straddle a sign change.  The annulus depends on
    mu only through the barrier, so its samples are built and domain-checked
    once.
    """
    if not 0 < width < np.inf:
        raise ValueError(f"width must be finite and positive, got {width}")
    pts = _barrier_samples(template, field, resolution, n_dir)

    def scan_min(mu):
        p = BarrierParams(template.x0, template.delta, mu, template.a_level)
        return float(p_laplacian_pointwise(barrier_smooth(p), field, pts).min())

    lo, hi = float(mu_lo), float(mu_hi)
    if not (scan_min(lo) < 0.0 <= scan_min(hi)):
        raise ValueError(f"no subsolution sign change on [{mu_lo}, {mu_hi}]")
    while hi - lo > 2.0 * width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if scan_min(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def subsolution_mu_sweep(template: BarrierParams, field: ExponentField, mus,
                         resolution: float, tol: float = 1e-10,
                         n_dir: int = 32) -> list:
    """Scan each mu; entries are (mu, scan, is_subsolution at -tol)."""
    out = []
    for mu in mus:
        p = BarrierParams(template.x0, template.delta, float(mu), template.a_level)
        scan = barrier_subsolution_scan(p, field, resolution, n_dir=n_dir)
        out.append((float(mu), scan, bool(scan.min_operator_value >= -tol)))
    return out


# -- normalized Gaussian operator scan ----------------------------------------

def gaussian_lower_bound_scan(M: float, mu: float, field: ExponentField,
                              annulus: tuple, resolution: float,
                              reg_eps: float = 0.0, n_dir: int = 32,
                              center=None) -> GaussianBoundScan:
    """Scan min of  mu^-1 e^(mu |x|^2) M^-1 |grad w|^(2-p) Delta_p(x) w
    for w = M exp(-mu |x|^2) over the annulus r2 <= |x| <= r1.

    For p = 2 the quantity equals 2 (2 mu |x|^2 - n) pointwise, attained on
    the inner sphere; for Lipschitz p it admits a lower bound linear in mu,
    which the caller can fit from (mu, lhs_min, grad_p_sup, |log M|) across
    scans.  The annulus is centred at `center`, defaulting to the origin of
    the field's domain dimension (pass center explicitly for domain-free
    fields in dimensions other than 2).  Raises FloatingPointError when the
    normalization overflows or divides by zero, rather than return inf or nan.
    """
    r2, r1 = float(annulus[0]), float(annulus[1])
    if not r2 > 0:
        raise ValueError(f"inner radius must be positive, got {r2}")
    if not r1 > r2:
        raise ValueError(f"need r1 > r2, got r1={r1}, r2={r2}")
    if not 0 < M < np.inf:
        raise ValueError(f"amplitude M must be finite and positive, got {M}")
    if not 0 < mu < np.inf:
        raise ValueError(f"mu must be finite and positive, got {mu}")
    n_axes = len(center) if center is not None else (field.domain.n_axes if field.domain else 2)
    c = np.zeros(n_axes) if center is None else np.atleast_1d(np.asarray(center, dtype=float))

    w = _gaussian(c, M, mu)
    pts = annulus_samples(c, r2, r1, resolution, n_dir)
    grad_p_sup = float(np.max(row_norm(field.gradient_at(pts))))
    op = p_laplacian_pointwise(w, field, pts, reg_eps)
    g = w.gradient(pts)
    s = np.sqrt(np.einsum("mi,mi->m", g, g) + reg_eps**2)
    p, r_sq = field(pts), row_norm(pts - c, squared=True)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        q = (1.0 / mu) * np.exp(mu * r_sq) / M * s ** (2.0 - p) * op
    i = int(np.argmin(q))
    return GaussianBoundScan(float(q[i]), pts[i], float(mu), grad_p_sup,
                             abs(math.log(M)), pts.shape[0])


# -- maximum principle and Hopf slope ------------------------------------------

def _zero_tol(zero_tol: Optional[float], default: float) -> float:
    """zero_tol as a float, default when None; a ValueError unless finite and >= 0."""
    if zero_tol is None:
        return default
    if not 0 <= zero_tol < math.inf:
        raise ValueError(f"zero_tol must be finite and >= 0, got {zero_tol}")
    return float(zero_tol)


def strong_max_principle_check(u: GridFunction, interior_margin: float,
                               zero_tol: Optional[float] = None) -> MaxPrincipleResult:
    """Classify a nonnegative grid function.

    identically_zero when max |u| <= zero_tol; strictly_positive when the
    minimum over the margin-shrunk interior exceeds zero_tol; violation
    otherwise (an interior zero next to positive values).  Default zero_tol
    is 1e-10 times max |u|; a given one must be finite and >= 0.
    """
    vals = u.values.reshape(-1)
    max_abs = float(np.abs(vals).max())
    tol = _zero_tol(zero_tol, 1e-10 * max_abs)
    if vals.min() < -tol:
        raise ValueError(f"u takes the negative value {vals.min()}; hypothesis u >= 0 fails")
    if max_abs <= tol:
        return MaxPrincipleResult("identically_zero", max_abs, max_abs, tol)
    interior_min = float(vals[node_mask(u, u.box.shrink(interior_margin))].min())
    cls = "strictly_positive" if interior_min > tol else "violation"
    return MaxPrincipleResult(cls, max_abs, interior_min, tol)


def hopf_slope(u: GridFunction, y, nu, steps, zero_tol: Optional[float] = None) -> HopfResult:
    """Inward difference quotients (u(y + h nu) - u(y)) / h and their min.

    Requires a direction nu of finite, nonzero length, u(y) to vanish within
    zero_tol (finite and >= 0; default 1e-10 max(1, max |u|)) and every probe
    point to stay in the grid box.  The caller asserts c0 > 0 when testing the
    boundary-slope property; an identically vanishing u gives quotients 0.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    length = float(np.linalg.norm(nu))
    if not 0 < length < np.inf:
        raise ValueError("direction must be finite and nonzero")
    nu = nu / length
    steps = np.asarray(steps, dtype=float)
    if np.any(steps <= 0):
        raise ValueError("steps must be positive")
    uy = float(u.interp(y)[0])
    tol = _zero_tol(zero_tol, 1e-10 * max(1.0, float(np.abs(u.values).max())))
    if abs(uy) > tol:
        raise ValueError(f"|u(y)| = {abs(uy)} exceeds zero_tol = {tol}")
    probes = y[None, :] + steps[:, None] * nu[None, :]
    if not np.all(u.box.contains(probes)):
        raise ValueError("a probe step exits the grid box")
    slopes = (u.interp(probes) - uy) / steps
    return HopfResult(slopes, float(slopes.min()))
