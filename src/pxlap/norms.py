"""Modulars, Luxemburg and Sobolev norms, and L^t ball averages.

The modular of u at scale lambda is the midpoint-rule quadrature of
(|u(x)| / lambda)^p(x) over the grid box.  The Luxemburg norm is the
smallest lambda with modular <= 1, found by Newton's method on log lambda
(``log_luxemburg``, which also serves the solver's hat-function norms and
the scale of its start); for constant p it reduces to the classical L^p
quadrature norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponent import ExponentField
from .grid import Ball, GridFunction, row_norm
from .quadrature import ball_node_mask, cell_means, center_gradients, midpoint_data, power_sum_root

__all__ = ["NormConfig", "BracketError", "modular", "luxemburg_norm",
           "sobolev_norm", "lt_average", "dual_exponent", "log_luxemburg"]


@dataclass(frozen=True)
class NormConfig:
    """Stopping rule of ``log_luxemburg``: bisection_tol bounds the last Newton
    step in log lambda, a relative tolerance on lambda; max_iter caps the steps."""

    bisection_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if not self.bisection_tol > 0:
            raise ValueError(f"bisection_tol must be positive, got {self.bisection_tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


class BracketError(RuntimeError):
    """The Newton solve did not converge; carries a bracket (lo, hi) of the norm."""

    def __init__(self, message: str, bracket: tuple):
        super().__init__(f"{message} (bracket: {bracket})")
        self.bracket = bracket


def log_luxemburg(P: np.ndarray, log_c: np.ndarray, cfg: NormConfig) -> tuple:
    """Per row r, t = log lambda with sum_m c_m lambda^(-p_m) = 1, P[r] = p, log_c[r] = log c.

    Newton's method on F(t) = log sum_m c_m e^(-p_m t), in log space so no
    scale of c under- or overflows: t += F(t) / pbar(t), pbar the
    e^(-p_m t)-weighted mean of p.  F is convex and decreasing, so after the
    first step the iterates rise monotonically to the root; for constant p the
    first step is exact.  Returns (t, last step) after cfg.max_iter steps or
    once no step exceeds cfg.bisection_tol; a larger last step has not converged.
    """
    t = np.zeros(P.shape[0])
    for _ in range(cfg.max_iter):
        z = log_c - P * t[:, None]
        zmax = z.max(axis=1)
        np.exp(z - zmax[:, None], out=z)
        total = z.sum(axis=1)
        step = (zmax + np.log(total)) * total / np.einsum("mw,mw->m", z, P)
        t += step
        if not np.any(np.abs(step) > cfg.bisection_tol):
            break
    return t, step


def _luxemburg_samples(absvals, pvals, weights, cfg: NormConfig) -> float:
    keep = absvals > 0
    if not np.any(keep):
        return 0.0
    P = pvals[keep][None, :]
    log_c = np.log(weights[keep]) + P * np.log(absvals[keep])
    t, step = log_luxemburg(P, log_c, cfg)
    if not np.abs(step[0]) <= cfg.bisection_tol:
        # F >= 0 at t after the first step and F falls no slower than min p,
        # so the root lies in [t, t + F(t) / min p].
        F = np.logaddexp.reduce(log_c[0] - P[0] * t[0])
        bracket = (float(np.exp(t[0])), float(np.exp(t[0] + F / P.min())))
        raise BracketError(f"Luxemburg norm: Newton on log lambda did not meet bisection_tol "
                           f"{cfg.bisection_tol} in {cfg.max_iter} steps", bracket)
    return float(np.exp(t[0]))


def modular(u: GridFunction, field: ExponentField, lam: float) -> float:
    """Quadrature of integral (|u| / lam)^p(x) dx over the grid box; lam must
    be finite and positive.  A ValueError naming lam when the quadrature
    overflows, rather than an infinite modular."""
    if not 0 < lam < np.inf:
        raise ValueError(f"modular scale lambda must be finite and positive, got {lam}")
    centers, vols = midpoint_data(u)
    absvals, p = np.abs(cell_means(u)), field(centers)
    try:
        with np.errstate(over="raise"):
            return float(np.sum(vols * (absvals / lam) ** p))
    except FloatingPointError:
        raise ValueError(f"modular at lambda = {lam} overflows the float range") from None


def luxemburg_norm(u: GridFunction, field: ExponentField,
                   cfg: NormConfig = NormConfig()) -> float:
    """Smallest lambda > 0 with modular(u, field, lambda) <= 1; 0 for u = 0.

    Raises BracketError when the Newton solve does not converge.
    """
    centers, vols = midpoint_data(u)
    return _luxemburg_samples(np.abs(cell_means(u)), field(centers), vols, cfg)


def sobolev_norm(u: GridFunction, field: ExponentField,
                 cfg: NormConfig = NormConfig()) -> float:
    """Luxemburg norm of u plus the Luxemburg norm of |grad u|.

    The gradient magnitude is sampled at cell centers (the gradient of the
    multilinear interpolant there) with cell-volume weights.
    """
    centers, vols = midpoint_data(u)
    pvals = field(centers)
    value_part = _luxemburg_samples(np.abs(cell_means(u)), pvals, vols, cfg)
    gmag = row_norm(center_gradients(u))
    grad_part = _luxemburg_samples(gmag, pvals, vols, cfg)
    return value_part + grad_part


def lt_average(u: GridFunction, t: float, ball: Ball) -> float:
    """(mean over node samples in the closed ball of |u|^t)^(1/t), t finite and > 0."""
    if not 0 < t < np.inf:
        raise ValueError(f"t must be finite and positive, got {t}")
    vals = u.values.reshape(-1)[ball_node_mask(u, ball)]
    return power_sum_root(vals, np.ones(vals.size), t, mean=True)


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
