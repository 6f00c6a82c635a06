"""Empirical checks of the Harnack-type inequality family on grid functions.

Every check measures both sides of an inequality and reports the observed
constant; none of them asserts a theoretical constant, because the constants
in these inequalities are existential.  The Harnack report records

    c_emp = sup_{B_R} u / (inf_{B_R} u + R + R mu)

with the source scale

    mu = [ R^(1 - n/q0) ||f||_{L^q0(B_4R)} ]^(1 / (p_minus^4R - 1)),

the weak Harnack check compares inf over B_r against the L^t0 average over
B_2r, the Caccioppoli check integrates both sides of the weighted gradient
estimate, and ``holder_estimate`` fits an oscillation-decay exponent over a
shrinking family of balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exponent import ExponentField, band_of_samples
from .grid import Ball, GridFunction, row_norm
from .norms import lt_average
from .quadrature import CellGeometry, harnack_dilate, lq_norm, node_mask

__all__ = [
    "HarnackReport", "OscillationTrace", "WeakHarnackResult", "CaccioppoliResult",
    "LocalBoundResult", "harnack_mu", "harnack_check", "weak_harnack_check",
    "caccioppoli_check", "local_bound_check", "holder_estimate",
    "scale_invariant_ratio", "harnack_stability", "dependence_probe",
    "holder_delta_candidate", "weak_harnack_t_limit", "hat_cutoff", "bump_cutoff",
]


@dataclass(frozen=True)
class HarnackReport:
    ball: Ball
    sup_u: float
    inf_u: float
    mu: float
    c_emp: float
    p_band: tuple

    def __post_init__(self):
        if not (self.sup_u >= self.inf_u >= 0.0):
            raise ValueError(f"need sup >= inf >= 0, got sup={self.sup_u}, inf={self.inf_u}")
        if not (np.isfinite(self.c_emp) and self.c_emp >= 0.0):
            raise ValueError(f"empirical constant must be finite and >= 0, got {self.c_emp}")


@dataclass(frozen=True)
class OscillationTrace:
    center: np.ndarray
    radii: np.ndarray
    oscillations: np.ndarray
    fitted_exponent: Optional[float]
    fit_residual: Optional[float]
    constant: bool = False

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        o = np.asarray(self.oscillations, dtype=float)
        if np.any(np.diff(r) >= 0):
            raise ValueError("radii must be strictly decreasing")
        if np.any(o < 0) or np.any(np.diff(o) > 1e-12 * np.maximum(1.0, o[:-1])):
            raise ValueError("oscillations must be nonnegative and nonincreasing")


@dataclass(frozen=True)
class WeakHarnackResult:
    lhs: float     # inf over the inner ball
    rhs: float     # L^t0 average over the doubled ball
    ratio: float
    t0: float
    radius: float


@dataclass(frozen=True)
class CaccioppoliResult:
    lhs: float
    rhs: float
    holds: bool
    zero_order_term: float
    cutoff_term: float
    source_term: float
    p_minus: float
    p_plus: float


@dataclass(frozen=True)
class LocalBoundResult:
    sup_inner: float
    bound_value: float
    holds: bool
    norm_outer: float


def harnack_mu(f: GridFunction, ball: Ball, q0: float, field: ExponentField) -> float:
    """Source scale mu of the Harnack bound (see module docstring).

    Requires R <= 1, the 4R dilate inside the grid box, and the exponent
    q0 > max(1, n / p_minus^4R); q0 = inf uses the nodal max norm.
    """
    big, p_minus = harnack_dilate(f, ball, field)
    n = f.n_axes
    lower = max(1.0, n / p_minus)
    if not q0 > lower:
        raise ValueError(
            f"q0 must exceed max(1, n/p_minus^(4R)) = {lower} (n={n}, p_minus={p_minus}); got {q0}"
        )
    norm = lq_norm(f, q0, big)
    scale = 0.0 if q0 == np.inf else n / q0
    return float((ball.radius ** (1.0 - scale) * norm) ** (1.0 / (p_minus - 1.0)))


def harnack_check(u: GridFunction, ball: Ball, mu: float,
                  field: Optional[ExponentField] = None) -> HarnackReport:
    """Measure c_emp = sup / (inf + R + R mu) over the ball's node samples.

    No pass or fail verdict is attached: the inequality's constant is not
    computable, only measurable.  A negative sample of u inside the 4R
    dilate violates the nonnegativity hypothesis and raises.  When a field
    is supplied the report carries its band over B_4R, else (nan, nan).
    """
    flat = u.values.reshape(-1)
    inside4 = node_mask(u, ball, 4.0)
    if flat[inside4].min() < 0.0:
        raise ValueError(f"u takes the negative value {flat[inside4].min()} inside B_4R")
    vals = flat[node_mask(u, ball)]
    sup_u, inf_u = float(vals.max()), float(vals.min())
    R = ball.radius
    c_emp = sup_u / (inf_u + R + R * mu)
    p_band = (np.nan, np.nan) if field is None else band_of_samples(field, u.nodes()[inside4])
    return HarnackReport(ball, sup_u, inf_u, float(mu), c_emp, p_band)


def weak_harnack_check(u: GridFunction, center, radius: float, t0: float = 1.0,
                       min_value: str = "strict") -> WeakHarnackResult:
    """inf over B_r against the L^t0 average over B_2r, and their ratio.

    The underlying inequality assumes samples >= 1.  min_value selects the
    enforcement: "strict" raises when violated, "shift" evaluates u + 1
    (requiring u >= 0), "off" skips the hypothesis check.
    """
    if not 0 < t0 < np.inf:
        raise ValueError(f"t0 must be finite and positive, got {t0}")
    inner = Ball(center, radius)
    outer = inner.dilate(2.0)
    if not u.box.contains_ball(outer):
        raise ValueError("the 2r ball escapes the grid box")
    vals_outer = u.values.reshape(-1)[node_mask(u, outer)]
    work = u
    if min_value == "shift":
        if vals_outer.min() < -1e-12:
            raise ValueError("shift requested but u is not nonnegative")
        work = u.like(u.values + 1.0)
    elif min_value == "strict":
        if vals_outer.min() < 1.0 - 1e-12:
            raise ValueError(
                f"hypothesis u >= 1 fails on B_2r (min {vals_outer.min()}); "
                "pass min_value='shift' to check u + 1"
            )
    elif min_value != "off":
        raise ValueError(f"unknown min_value mode {min_value!r}")
    lhs = float(work.values.reshape(-1)[node_mask(u, inner)].min())
    rhs = lt_average(work, t0, outer)
    return WeakHarnackResult(lhs, rhs, lhs / rhs, t0, radius)


def caccioppoli_check(u: GridFunction, gamma: float, eta: GridFunction,
                      H: GridFunction, field: ExponentField,
                      C_probe: float) -> CaccioppoliResult:
    """Quadrature of both sides of the weighted gradient (energy) estimate.

        int u^(g-1) |grad u|^p- eta^p+
            <=  int u^(g-1) eta^p+
              + C |g|^-p+ int u^(g+p(x)-1) eta^(p+ - p(x)) |grad eta|^p(x)
              + C |g|^-1  int H u^(g+p(x)-1) eta^p+

    with p-, p+ the exponent band over the support of eta.  The caller
    asserts the sign regime (gamma > 0 for supersolution-type hypotheses,
    gamma < 0 for the reversed one) and supplies the probe constant.  A
    cutoff that vanishes with its gradient on every cell, so that the lattice
    does not sample its support, is a ValueError naming it.
    """
    if not 0 < abs(gamma) < np.inf:
        raise ValueError(f"gamma must be finite and nonzero, got {gamma}")
    if not 0 <= C_probe < np.inf:
        raise ValueError(f"C_probe must be finite and >= 0, got {C_probe}")
    if not (u.same_lattice(eta) and u.same_lattice(H)):
        raise ValueError("u, eta and H must share one lattice")
    if np.any(eta.values < -1e-12):
        raise ValueError("cutoff eta must be nonnegative")

    geo = CellGeometry.build(u)
    u_mid = geo.cell_means(u.values)
    eta_mid = np.maximum(geo.cell_means(eta.values), 0.0)
    H_mid = geo.cell_means(H.values)
    gu = row_norm(geo.center_gradients(u.values))
    ge = row_norm(geo.center_gradients(eta.values))
    p_mid = field(geo.centers())

    active = (eta_mid > 0) | (ge > 0)
    if not np.any(active):
        raise ValueError("cutoff eta: no cell weight inside its support")
    support = geo.corner_sums(np.broadcast_to(active, (2**geo.n_axes, active.size))) > 0
    p_support = np.concatenate([p_mid[active], field(u.nodes()[support])])
    p_minus, p_plus = float(p_support.min()), float(p_support.max())

    umin = u.values.reshape(-1)[support].min()
    if umin < 1.0 - 1e-12:
        raise ValueError(f"hypothesis u >= 1 fails on supp eta (min {umin})")

    w = np.where(active, geo.cell_vol, 0.0)
    lhs = float(np.sum(w * u_mid ** (gamma - 1.0) * gu**p_minus * eta_mid**p_plus))
    zero_order = float(np.sum(w * u_mid ** (gamma - 1.0) * eta_mid**p_plus))
    with np.errstate(divide="ignore"):
        cutoff = float(np.sum(w * u_mid ** (gamma + p_mid - 1.0)
                              * np.where(active, eta_mid ** (p_plus - p_mid), 0.0)
                              * ge**p_mid))
    source = float(np.sum(w * H_mid * u_mid ** (gamma + p_mid - 1.0) * eta_mid**p_plus))
    rhs = zero_order + C_probe * abs(gamma) ** (-p_plus) * cutoff \
        + C_probe * abs(gamma) ** (-1.0) * source
    return CaccioppoliResult(lhs, rhs, bool(lhs <= rhs), zero_order, cutoff, source,
                             p_minus, p_plus)


def local_bound_check(u: GridFunction, inner, outer, t: float,
                      C_probe: float) -> LocalBoundResult:
    """sup over the inner region against C_probe * (1 + L^t norm over outer).

    C_probe must be finite and >= 0.  The norm is ``lq_norm`` over the outer
    region, a ball or a box; t = inf takes the max of |u| over its nodes.  An
    inner region with no node, or an outer one that ``lq_norm`` rejects, is a
    ValueError naming it.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if not 0 <= C_probe < np.inf:
        raise ValueError(f"C_probe must be finite and >= 0, got {C_probe}")
    _require_nested(inner, outer)
    sup_inner = float(u.values.reshape(-1)[node_mask(u, inner)].max())
    norm = lq_norm(u, t, outer)
    bound = C_probe * (1.0 + norm)
    return LocalBoundResult(sup_inner, bound, bool(sup_inner <= bound), norm)


def _require_nested(inner, outer) -> None:
    if isinstance(inner, Ball) and isinstance(outer, Ball):
        gap = np.linalg.norm(inner.center - outer.center) + inner.radius
        if gap > outer.radius + 1e-12:
            raise ValueError("inner ball is not contained in the outer ball")
    else:
        ib = inner.bounding_box() if isinstance(inner, Ball) else inner
        ob = outer.bounding_box() if isinstance(outer, Ball) else outer
        if not (np.all(ib.lo >= ob.lo - 1e-12) and np.all(ib.hi <= ob.hi + 1e-12)):
            raise ValueError("inner region is not contained in the outer region")
        if isinstance(outer, Ball):
            far = float(max(np.linalg.norm(c - outer.center) for c in ib.corners()))
            if far > outer.radius + 1e-12:
                raise ValueError("inner region is not contained in the outer ball")


def holder_estimate(u: GridFunction, center, radii) -> OscillationTrace:
    """Oscillation sup - inf per ball and the log-log decay exponent.

    Needs at least 4 strictly decreasing radii, all balls inside the grid
    box, and at least 2 samples in the smallest ball.  Radii whose
    oscillation falls below 1e-13 are excluded from the least-squares fit;
    an everywhere-constant u is flagged instead of fitted.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    radii = np.asarray(radii, dtype=float)
    if radii.size < 4:
        raise ValueError(f"need at least 4 radii, got {radii.size}")
    if np.any(np.diff(radii) >= 0):
        raise ValueError("radii must be strictly decreasing")
    if not u.box.contains_ball(Ball(center, radii[0])):
        raise ValueError("largest ball escapes the grid box")
    nodes = u.nodes()
    flat = u.values.reshape(-1)
    oscs = np.empty(radii.size)
    for i, r in enumerate(radii):
        sel = Ball(center, r).contains(nodes)
        cnt = int(np.count_nonzero(sel))
        if cnt == 0 or (i == radii.size - 1 and cnt < 2):
            raise ValueError(f"ball of radius {r} holds {cnt} samples, need >= 2")
        oscs[i] = np.ptp(flat[sel])
    fit_mask = oscs > 1e-13
    if not np.any(fit_mask):
        return OscillationTrace(center, radii, oscs, None, None, constant=True)
    if np.count_nonzero(fit_mask) < 2:
        return OscillationTrace(center, radii, oscs, None, None, constant=False)
    lx, ly = np.log(radii[fit_mask]), np.log(oscs[fit_mask])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return OscillationTrace(center, radii, oscs, float(slope), resid)


# -- derived probes -----------------------------------------------------------

def scale_invariant_ratio(report: HarnackReport) -> float:
    """sup / (inf + R mu): invariant under (u, f) -> (t u, t^(p-1) f) for
    constant p, because mu then scales linearly in t."""
    return report.sup_u / (report.inf_u + report.ball.radius * report.mu)


def harnack_stability(u: GridFunction, f: GridFunction, center, R: float,
                      q0: float, field: ExponentField, levels: int = 3) -> dict:
    """Harnack reports over radii R, R/2, ..., with a c_emp drift flag.

    Drift is max(c_emp) / min(c_emp); a drift above 2 is flagged anomalous.
    levels must be an integer >= 1.
    """
    if not (isinstance(levels, (int, np.integer)) and levels >= 1):
        raise ValueError(f"levels must be an integer >= 1, got {levels!r}")
    reports = []
    for k in range(levels):
        ball = Ball(center, R / 2**k)
        mu = harnack_mu(f, ball, q0, field)
        reports.append(harnack_check(u, ball, mu, field))
    cs = [r.c_emp for r in reports]
    drift = max(cs) / min(cs) if min(cs) > 0 else math.inf
    return {"reports": reports, "drift": float(drift), "anomalous": bool(drift > 2.0)}


def dependence_probe(v: GridFunction, ball: Ball, scales) -> list:
    """c_emp of k * v (with mu = 0) for each scale k; records the growth of
    the measured constant with the size of the solution."""
    out = []
    for k in scales:
        rep = harnack_check(v.like(float(k) * v.values), ball, 0.0)
        out.append((float(k), rep.c_emp))
    return out


def holder_delta_candidate(n_axes: int, q0: float, p: float) -> float:
    """Decay power 1 + (1 - n/q0) / (p - 1) recorded alongside fitted exponents."""
    scale = 0.0 if q0 == np.inf else n_axes / q0
    return 1.0 + (1.0 - scale) / (p - 1.0)


def weak_harnack_t_limit(n_axes: int, p_minus: float) -> float:
    """Supremum of averaging exponents t for the improved weak Harnack
    comparison: n (p_minus - 1) / (n - p_minus) when p_minus < n, otherwise
    unbounded.  The endpoint itself is excluded."""
    if p_minus >= n_axes:
        return math.inf
    return n_axes / (n_axes - p_minus) * (p_minus - 1.0)


# -- cutoff builders ----------------------------------------------------------

def _scaled_distance(like: GridFunction, center, rho: float) -> np.ndarray:
    """|x - c| / rho at the lattice nodes; rho must be finite and > 0."""
    if not 0 < rho < np.inf:
        raise ValueError(f"rho must be finite and positive, got {rho}")
    c = np.atleast_1d(np.asarray(center, dtype=float))
    return row_norm(like.nodes() - c) / rho


def hat_cutoff(like: GridFunction, center, rho: float) -> GridFunction:
    """Tent cutoff max(0, 1 - |x - c| / rho) sampled on the lattice."""
    return like.like(np.maximum(0.0, 1.0 - _scaled_distance(like, center, rho)))


def bump_cutoff(like: GridFunction, center, rho: float) -> GridFunction:
    """Polynomial bump (1 - (|x - c| / rho)^2)^2, clipped at 0; its gradient
    is bounded by C / rho."""
    q = _scaled_distance(like, center, rho)
    vals = np.where(q < 1.0, (1.0 - q**2) ** 2, 0.0)
    return like.like(vals)
