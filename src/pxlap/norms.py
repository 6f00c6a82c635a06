"""Modulars, Luxemburg and Sobolev norms, and L^t ball averages.

The modular of u at scale lambda is the midpoint-rule quadrature of
(|u(x)| / lambda)^p(x) over the grid box.  The Luxemburg norm is the
smallest lambda with modular <= 1, found by bracketing and bisection; for
constant p it reduces to the classical L^p quadrature norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponent import ExponentField
from .grid import Ball, GridFunction
from .quadrature import CellGeometry, cell_means, midpoint_data

__all__ = ["NormConfig", "BracketError", "modular", "luxemburg_norm",
           "sobolev_norm", "lt_average", "dual_exponent"]


@dataclass(frozen=True)
class NormConfig:
    bisection_tol: float = 1e-10  # relative tolerance on the norm value
    max_iter: int = 200

    def __post_init__(self):
        if not self.bisection_tol > 0:
            raise ValueError(f"bisection_tol must be positive, got {self.bisection_tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


class BracketError(RuntimeError):
    """Bracketing failed; carries the last bracket examined."""

    def __init__(self, message: str, bracket: tuple):
        super().__init__(f"{message} (last bracket: {bracket})")
        self.bracket = bracket


def _modular_samples(absvals: np.ndarray, pvals: np.ndarray, weights: np.ndarray,
                     lam: float) -> float:
    if lam <= 0:
        raise ValueError(f"modular scale lambda must be positive, got {lam}")
    return float(np.sum(weights * (absvals / lam) ** pvals))


def _luxemburg_samples(absvals, pvals, weights, cfg: NormConfig) -> float:
    if not np.any(absvals > 0):
        return 0.0

    def m(lam):
        return _modular_samples(absvals, pvals, weights, lam)

    lo = hi = 1.0
    if m(1.0) > 1.0:
        for _ in range(cfg.max_iter):
            hi *= 2.0
            if m(hi) <= 1.0:
                break
        else:
            raise BracketError("modular never drops below 1 while doubling", (lo, hi))
    else:
        for _ in range(cfg.max_iter):
            lo /= 2.0
            if m(lo) > 1.0:
                hi = 2.0 * lo
                break
        else:
            raise BracketError("modular stays <= 1 while halving", (lo, hi))
    for _ in range(cfg.max_iter):
        if hi - lo <= cfg.bisection_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if m(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def modular(u: GridFunction, field: ExponentField, lam: float) -> float:
    """Quadrature of integral (|u| / lam)^p(x) dx over the grid box."""
    centers, vols = midpoint_data(u)
    return _modular_samples(np.abs(cell_means(u)), field(centers), vols, lam)


def luxemburg_norm(u: GridFunction, field: ExponentField,
                   cfg: NormConfig = NormConfig()) -> float:
    """Smallest lambda > 0 with modular(u, field, lambda) <= 1; 0 for u = 0."""
    centers, vols = midpoint_data(u)
    return _luxemburg_samples(np.abs(cell_means(u)), field(centers), vols, cfg)


def sobolev_norm(u: GridFunction, field: ExponentField,
                 cfg: NormConfig = NormConfig()) -> float:
    """Luxemburg norm of u plus the Luxemburg norm of |grad u|.

    The gradient magnitude is sampled at cell centers (mean of the corner
    gradients of the multilinear interpolant) with cell-volume weights.
    """
    centers, vols = midpoint_data(u)
    pvals = field(centers)
    value_part = _luxemburg_samples(np.abs(cell_means(u)), pvals, vols, cfg)
    geo = CellGeometry.build(u)
    gmag = np.linalg.norm(geo.center_gradients(u.values), axis=1)
    grad_part = _luxemburg_samples(gmag, pvals, vols, cfg)
    return value_part + grad_part


def lt_average(u: GridFunction, t: float, ball: Ball) -> float:
    """(mean over node samples in the closed ball of |u|^t)^(1/t)."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    mask = ball.contains(u.nodes())
    if not np.any(mask):
        raise ValueError(f"ball at {ball.center}, radius {ball.radius}: no grid nodes inside")
    vals = np.abs(u.values.reshape(-1)[mask])
    return float(np.mean(vals**t) ** (1.0 / t))


def dual_exponent(field: ExponentField) -> ExponentField:
    """The conjugate field p'(x) = p(x) / (p(x) - 1)."""

    def ev(pts):
        p = field(pts)
        return p / (p - 1.0)

    grad = None
    if field.gradient is not None:
        def grad(pts):  # d/dx [p/(p-1)] = -grad p / (p-1)^2
            p = field(pts)
            return -field.gradient(pts) / ((p - 1.0) ** 2)[:, None]

    return ExponentField(ev, field.p2 / (field.p2 - 1.0), field.p1 / (field.p1 - 1.0),
                         gradient=grad, domain=field.domain, name=f"dual({field.name})")
