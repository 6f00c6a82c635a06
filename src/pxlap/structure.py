"""Structure conditions for general flux pairs div A(x, u, grad u) = B(...).

The admissible pairs satisfy, for |s| <= M0,

    (1)  A(x, s, xi) . xi >= alpha |xi|^p(x) - C0(x) |s|^p(x) - g0(x)
    (2)  |A(x, s, xi)|     <= g1(x) + C1(x) |s|^(p(x)-1) + K1(x) |xi|^(p(x)-1)
    (3)  |B(x, s, xi)|     <= f(x)  + C2(x) |s|^(p(x)-1) + K2(x) |xi|^(p(x)-1)

with the natural-growth variant adding b |xi|^p(x) to (3).  The checker
evaluates the inequalities on explicit sample sets and reports every
violation with both sides and the slack; the general Harnack scale mu sums
three ball-norm terms; the exponential transforms rescale the flux by
exp(+-(b/alpha)(s - M0)) so that natural-growth sources reduce to the plain
case at the price of a smaller ellipticity constant alpha e^(-(b/alpha) M0).
"""

from __future__ import annotations

import bisect
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .exponent import ExponentField
from .grid import Ball, GridFunction, as_points, row_norm
from .quadrature import ball_cell_weights, harnack_dilate

__all__ = [
    "StructureBounds", "FluxPair", "SampleSet", "Violation", "StructureReport",
    "check_conditions", "check_conditions_natural_growth", "mu_general",
    "exponential_transform", "structure_sample_lattice", "p_laplacian_flux",
    "scaled_flux", "zero_flux", "constant_source", "grid_source",
]

_SLACK_ATOL = 1e-12
_SLACK_RTOL = 1e-12


@dataclass(frozen=True)
class FluxPair:
    """Deterministic evaluators A(x, s, xi) -> vectors, B(x, s, xi) -> scalars.

    Both take batched arrays: points (m, n), states (m,), gradients (m, n).
    """

    A: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    B: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class StructureBounds:
    """Constants of the structure conditions.

    The coefficients g0 .. k2 are nonnegative numbers; `lattice` gives the
    axis count and the grid of mu_general's ball quadrature.  b is the
    natural-growth constant, m0 the state bound, q0/q1/q2/t2 the
    integrability exponents.
    """

    lattice: GridFunction
    alpha: float
    g0: float
    g1: float
    f_src: float
    c0: float
    c1: float
    c2: float
    k1: float
    k2: float
    m0: float
    q0: float
    q1: float
    q2: float
    t2: float
    b: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "m0", "b", "g0", "g1", "f_src", "c0", "c1", "c2", "k1", "k2"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not (np.isfinite(v) and v >= 0) or (name == "alpha" and v == 0):
                kind = "positive" if name == "alpha" else "nonnegative"
                raise ValueError(f"{name} must be finite and {kind}, got {v}")

    def validate_exponents(self, field: ExponentField) -> None:
        """Admissibility of q0, q1, q2, t2 against the field's lower bound."""
        n = self.lattice.n_axes
        lo01 = max(1.0, n / (field.p1 - 1.0))
        lo2 = max(1.0, n / field.p1)
        for name, q, lo in (("q0", self.q0, lo01), ("q1", self.q1, lo01),
                            ("q2", self.q2, lo2), ("t2", self.t2, lo2)):
            if not q > lo:
                raise ValueError(
                    f"integrability exponent {name} = {q} must exceed {lo} "
                    f"(n = {n}, p1 = {field.p1})"
                )

    @classmethod
    def constants(cls, like: GridFunction, field: ExponentField, *, alpha: float,
                  g0: float = 0.0, g1: float = 0.0, f_src: float = 0.0,
                  c0: float = 0.0, c1: float = 0.0, c2: float = 0.0,
                  k1: float = 0.0, k2: float = 0.0, m0: float = 1.0,
                  q0: float = np.inf, q1: float = np.inf, q2: float = np.inf,
                  t2: float = np.inf, b: float = 0.0) -> "StructureBounds":
        """Bounds on the lattice of `like`; validates the integrability
        exponents against the field."""
        out = cls(like, alpha, g0, g1, f_src, c0, c1, c2, k1, k2, m0, q0, q1, q2, t2, b)
        out.validate_exponents(field)
        return out


@dataclass(frozen=True)
class SampleSet:
    """Evaluation triples (x, s, xi) as batched arrays."""

    points: np.ndarray    # (m, n)
    states: np.ndarray    # (m,)
    gradients: np.ndarray  # (m, n)

    def __post_init__(self):
        object.__setattr__(self, "points", as_points(self.points))
        object.__setattr__(self, "states", np.atleast_1d(np.asarray(self.states, dtype=float)))
        object.__setattr__(self, "gradients", as_points(self.gradients))
        m = self.points.shape[0]
        if self.states.shape != (m,) or self.gradients.shape != self.points.shape:
            raise ValueError("sample arrays disagree in shape")

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class Violation:
    condition: str
    index: int
    x: np.ndarray
    s: float
    xi: np.ndarray
    lhs: float
    rhs: float
    slack: float


class _Violations(Sequence):
    """The Violation records of a check, condition by condition in sample
    order, as a read-only sequence.  Each condition keeps the columns of its
    violating samples, and a record is built when it is read: a record costs
    about 3 us to build, so a report over tens of thousands of violating
    samples would cost far more than the check, while a reader of its count,
    or of its first records, needs no others built.  x and xi are rows of
    the condition's own copies of the sample arrays, and the other fields
    Python ints and floats."""

    def __init__(self):
        self._parts, self._ends = [], []  # the columns per condition, and their cumulative counts

    def _add(self, name: str, i: np.ndarray, x, s, xi, lhs, rhs, slack) -> None:
        if i.size:
            self._parts.append((name, i, x, s, xi, lhs, rhs, slack))
            self._ends.append(len(self) + i.size)

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(len(self)))]
        k = operator.index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("violation index out of range")
        part = bisect.bisect_right(self._ends, k)
        name, i, x, s, xi, lhs, rhs, slack = self._parts[part]
        j = k - (self._ends[part - 1] if part else 0)
        return Violation(name, int(i[j]), x[j], float(s[j]), xi[j], float(lhs[j]), float(rhs[j]),
                         float(slack[j]))

    def __iter__(self):
        for name, i, x, s, xi, lhs, rhs, slack in self._parts:
            yield from map(Violation, [name] * i.size, i.tolist(), x, s.tolist(), xi,
                           lhs.tolist(), rhs.tolist(), slack.tolist())

    def __eq__(self, other):
        return isinstance(other, Sequence) and list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class StructureReport:
    """The outcome of a structure check: violations is a read-only sequence
    of Violation records (``_Violations``), empty when every condition holds."""

    n_samples: int
    conditions: tuple
    violations: Sequence = dc_field(default_factory=_Violations)
    max_slack: dict = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def structure_sample_lattice(like: GridFunction, m0: float, seed: int = 0,
                             n_states: int = 5, n_radii: int = 7,
                             n_dir: int = 4, max_nodes: int = 128) -> SampleSet:
    """Deterministic sample triples covering degenerate and large gradients.

    Points: a stride of the grid nodes.  States: 0 plus a log ladder up to
    m0.  Gradients: log-spaced magnitudes 1e-3 .. 1e3 along seeded unit
    directions.  max_nodes, n_radii and n_dir must be integers >= 1 and
    n_states one >= 0, else a ValueError names the count.
    """
    for name, value, least in (("n_states", n_states, 0), ("n_radii", n_radii, 1),
                               ("n_dir", n_dir, 1), ("max_nodes", max_nodes, 1)):
        if not (isinstance(value, (int, np.integer)) and value >= least):
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    nodes = like.nodes()
    stride = max(1, nodes.shape[0] // max_nodes)
    pts = nodes[::stride]
    if m0 > 0:
        states = np.concatenate([[0.0], np.geomspace(1e-3 * m0, m0, n_states)])
    else:
        states = np.array([0.0])
    rng = np.random.default_rng(seed)
    n = like.n_axes
    dirs = rng.normal(size=(n_dir, n))
    dirs /= row_norm(dirs)[:, None]
    mags = np.geomspace(1e-3, 1e3, n_radii)
    xis = (mags[:, None, None] * dirs[None, :, :]).reshape(-1, n)

    P = np.repeat(pts, states.size * xis.shape[0], axis=0)
    S = np.tile(np.repeat(states, xis.shape[0]), pts.shape[0])
    X = np.tile(xis, (pts.shape[0] * states.size, 1))
    return SampleSet(P, S, X)


def _violated(slack: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return slack > _SLACK_ATOL + _SLACK_RTOL * scale


def _check(pair: FluxPair, bounds: StructureBounds, field: ExponentField,
           samples: SampleSet, with_gradient_term: bool,
           alpha_override: float | None = None,
           conditions: tuple = ("1", "2", "3")) -> StructureReport:
    if np.any(np.abs(samples.states) > bounds.m0 * (1 + 1e-12) + 1e-300):
        bad = float(np.abs(samples.states).max())
        raise ValueError(f"sample state |s| = {bad} exceeds m0 = {bounds.m0}")
    pts, s, xi = samples.points, samples.states, samples.gradients
    p = field(pts)
    xin = row_norm(xi)
    A = np.asarray(pair.A(pts, s, xi), dtype=float).reshape(xi.shape)
    Bv = np.asarray(pair.B(pts, s, xi), dtype=float).reshape(s.shape)
    for name, vals in (("A", A), ("B", Bv)):
        if not np.isfinite(vals).all():
            i = int(np.argmin(np.isfinite(vals.reshape(samples.size, -1)).all(axis=1)))
            raise ValueError(f"flux {name} is not finite at sample {i} "
                             f"(x = {pts[i]}, s = {s[i]}, xi = {xi[i]})")
    alpha = bounds.alpha if alpha_override is None else float(alpha_override)

    report = StructureReport(samples.size, tuple(conditions))
    abs_s = np.abs(s)
    s_growth, xi_growth = abs_s ** (p - 1.0), xin ** (p - 1.0)

    def record(name, lhs, rhs, slack):
        report.max_slack[name] = float(slack.max(initial=-np.inf))
        i = np.flatnonzero(_violated(slack, lhs, rhs))
        report.violations._add(name, i, pts[i], s[i], xi[i], lhs[i], rhs[i], slack[i])

    if "1" in conditions:
        lhs = A[:, 0] * xi[:, 0]
        for a in range(1, xi.shape[1]):
            lhs += A[:, a] * xi[:, a]
        rhs = alpha * xin**p - bounds.c0 * abs_s**p - bounds.g0
        record("1", lhs, rhs, rhs - lhs)
    if "2" in conditions:
        lhs = row_norm(A)
        rhs = bounds.g1 + bounds.c1 * s_growth + bounds.k1 * xi_growth
        record("2", lhs, rhs, lhs - rhs)
    if "3" in conditions:
        lhs = np.abs(Bv)
        rhs = bounds.f_src + bounds.c2 * s_growth + bounds.k2 * xi_growth
        if with_gradient_term:
            rhs = rhs + bounds.b * xin**p
        record("3'" if with_gradient_term else "3", lhs, rhs, lhs - rhs)
    return report


def check_conditions(pair: FluxPair, bounds: StructureBounds, field: ExponentField,
                     samples: SampleSet, conditions: tuple = ("1", "2", "3"),
                     alpha_override: float | None = None) -> StructureReport:
    """Evaluate conditions (1), (2), (3) per sample; empty report means all
    hold.  Near-equalities within 1e-12 absolute or relative slack are
    treated as floating-point noise, not violations; the raw slack for
    triage is in max_slack."""
    return _check(pair, bounds, field, samples, False, alpha_override, conditions)


def check_conditions_natural_growth(pair: FluxPair, bounds: StructureBounds,
                                    field: ExponentField, samples: SampleSet,
                                    conditions: tuple = ("1", "2", "3"),
                                    alpha_override: float | None = None) -> StructureReport:
    """As check_conditions, with the source bound widened by b |xi|^p(x)."""
    return _check(pair, bounds, field, samples, True, alpha_override, conditions)


def mu_general(bounds: StructureBounds, ball: Ball, field: ExponentField) -> float:
    """Three-term source scale of the general Harnack bound:

        mu = [R^(1-n/q2) ||f||_{q2}]^e + [R^(-n/q0) ||g0||_{q0}]^e
           + [R^(-n/q1) ||g1||_{q1}]^e,    e = 1 / (p_minus^4R - 1),

    with L^q norms of the constant coefficients over the 4R dilate.  Bounded
    powers of mu across scales are what make the Harnack constant
    radius-independent for log-Hoelder exponents.
    """
    big, p_minus = harnack_dilate(bounds.lattice, ball, field)
    e = 1.0 / (p_minus - 1.0)
    n = bounds.lattice.n_axes
    measure = float(np.sum(ball_cell_weights(bounds.lattice, big)))

    def term(c: float, q: float, power_shift: float) -> float:
        # ||c||_{L^q} of the constant c over the 4R ball is c |ball|^(1/q); n/q = 0 at q = inf
        if c == 0.0:
            return 0.0
        return float((ball.radius ** (power_shift - n / q) * c * measure ** (1.0 / q)) ** e)

    return term(bounds.f_src, bounds.q2, 1.0) + term(bounds.g0, bounds.q0, 0.0) \
        + term(bounds.g1, bounds.q1, 0.0)


def exponential_transform(pair: FluxPair, bounds: StructureBounds,
                          direction: str) -> FluxPair:
    """Rescale the flux by exp((b/alpha)(s - M0)) ("sub") or its reciprocal
    ("super"); the source map is unchanged."""
    if direction not in ("sub", "super"):
        raise ValueError(f"direction must be 'sub' or 'super', got {direction!r}")
    rate = bounds.b / bounds.alpha
    sign = 1.0 if direction == "sub" else -1.0

    def A(pts, s, xi):
        factor = np.exp(sign * rate * (np.asarray(s, dtype=float) - bounds.m0))
        return factor[:, None] * np.asarray(pair.A(pts, s, xi), dtype=float)

    return FluxPair(A, pair.B)


# -- named flux forms -----------------------------------------------------------

def p_laplacian_flux(field: ExponentField) -> FluxPair:
    """A = |xi|^(p(x)-2) xi, B = 0; the model divergence-form pair."""

    def A(pts, s, xi):
        p = field(pts)
        mag = row_norm(xi)
        with np.errstate(divide="ignore", over="ignore"):
            coef = np.where(mag > 0, np.where(mag > 0, mag, 1.0) ** (p - 2.0), 0.0)
        return coef[:, None] * xi

    return FluxPair(A, _zero_b)


def scaled_flux(field: ExponentField, factor: float) -> FluxPair:
    base = p_laplacian_flux(field)

    def A(pts, s, xi):
        return factor * base.A(pts, s, xi)

    return FluxPair(A, _zero_b)


def zero_flux() -> FluxPair:
    def A(pts, s, xi):
        return np.zeros_like(np.asarray(xi, dtype=float))

    return FluxPair(A, _zero_b)


def constant_source(pair: FluxPair, value: float) -> FluxPair:
    def B(pts, s, xi):
        return np.full(np.asarray(s).shape, float(value))

    return FluxPair(pair.A, B)


def grid_source(pair: FluxPair, f: GridFunction) -> FluxPair:
    def B(pts, s, xi):
        return f.interp(pts)

    return FluxPair(pair.A, B)


def _zero_b(pts, s, xi):
    return np.zeros(np.asarray(s).shape, dtype=float)
