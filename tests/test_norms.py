import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pxlap as px
from conftest import grid_1d

CFG = px.NormConfig(bisection_tol=1e-12, max_iter=400)


def test_modular_constant_one_unit_domain():
    g = grid_1d(0.0, 1.0, 64, lambda x: np.ones_like(x))
    f = px.constant_exponent(2.7)
    assert px.modular(g, f, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_modular_zero_function():
    g = grid_1d(0.0, 1.0, 16, lambda x: np.zeros_like(x))
    f = px.constant_exponent(2.0)
    for lam in (0.1, 1.0, 10.0):
        assert px.modular(g, f, lam) == 0.0


def test_modular_piecewise_exact():
    # u = 1 on (0,2), p = 2 on (0,1), p = 4 on (1,2), lambda = 2:
    # (1/2)^2 + (1/2)^4 = 0.3125 exactly (cells stay on one side of x = 1).
    g = grid_1d(0.0, 2.0, 128, lambda x: np.ones_like(x))
    f = px.piecewise_exponent(0, 1.0, 2.0, 4.0)
    assert px.modular(g, f, 2.0) == pytest.approx(0.3125, abs=1e-14)


def test_modular_overflow_is_an_error_naming_lambda():
    # (5 / 1e-200)^3 is past the float range: an error, not an infinite modular
    g = grid_1d(0.0, 1.0, 8, lambda x: np.full_like(x, 5.0))
    with pytest.raises(ValueError, match="lambda = 1e-200 overflows"):
        px.modular(g, px.constant_exponent(3.0), 1e-200)


def test_modular_rejects_nonpositive_lambda():
    g = grid_1d(0.0, 1.0, 8, lambda x: x)
    f = px.constant_exponent(2.0)
    for lam in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            px.modular(g, f, lam)


@pytest.mark.parametrize("t", [np.inf, np.nan, 0.0, -1.0])
def test_lt_average_rejects_bad_t(t):
    # at t = inf the mean of |u|^t over a ball is inf or 0, and its 1/t-th
    # power 1.0, whatever u is
    g = grid_1d(0.0, 1.0, 16, lambda x: 2.0 + x)
    with pytest.raises(ValueError, match="t must be finite and positive"):
        px.lt_average(g, t, px.Ball([0.5], 0.2))

def test_modular_decreasing_in_lambda():
    g = grid_1d(0.0, 1.0, 32, lambda x: 1.0 + x)
    f = px.piecewise_exponent(0, 0.5, 2.0, 3.0)
    lams = [0.5, 1.0, 2.0, 4.0]
    vals = [px.modular(g, f, l) for l in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_luxemburg_zero_and_constant():
    g0 = grid_1d(0.0, 1.0, 16, lambda x: np.zeros_like(x))
    f = px.constant_exponent(2.0)
    assert px.luxemburg_norm(g0, f, CFG) == 0.0
    g3 = grid_1d(0.0, 1.0, 16, lambda x: np.full_like(x, 3.0))
    assert px.luxemburg_norm(g3, f, CFG) == pytest.approx(3.0, rel=1e-10)


def test_luxemburg_piecewise_quartic_root():
    # modular(lambda) = (1/lambda)^2 + (1/lambda)^4 = 1 has the closed-form
    # root lambda = sqrt(2 / (sqrt(5) - 1)).
    g = grid_1d(0.0, 2.0, 256, lambda x: np.ones_like(x))
    f = px.piecewise_exponent(0, 1.0, 2.0, 4.0)
    root = np.sqrt(2.0 / (np.sqrt(5.0) - 1.0))
    assert px.luxemburg_norm(g, f, CFG) == pytest.approx(root, abs=1e-9)


def test_luxemburg_constant_p_matches_classical():
    rng = np.random.default_rng(3)
    vals = rng.random(65) + 0.5
    g = grid_1d(0.0, 1.0, 64, lambda x: np.interp(x, np.linspace(0, 1, 65), vals))
    for p0 in (1.5, 2.0, 3.7):
        f = px.constant_exponent(p0)
        from pxlap.quadrature import cell_means, midpoint_data
        _, vols = midpoint_data(g)
        classical = float(np.sum(vols * np.abs(cell_means(g)) ** p0) ** (1.0 / p0))
        assert px.luxemburg_norm(g, f, CFG) == pytest.approx(classical, rel=1e-8)


def test_luxemburg_homogeneity_random_scales():
    rng = np.random.default_rng(11)
    g = grid_1d(0.0, 1.0, 64, lambda x: np.sin(3 * x) + 1.2)
    box = px.Box([0.0], [1.0])
    f = px.affine_exponent(1.6, [1.2], box)
    base = px.luxemburg_norm(g, f, CFG)
    for t in rng.uniform(0.01, 100.0, size=8):
        scaled = px.luxemburg_norm(g.like(t * g.values), f, CFG)
        assert scaled == pytest.approx(t * base, rel=1e-8)


def test_luxemburg_unit_ball_property():
    g = grid_1d(0.0, 1.0, 64, lambda x: 2.0 + np.cos(5 * x))
    box = px.Box([0.0], [1.0])
    f = px.affine_exponent(2.0, [1.0], box)
    lam = px.luxemburg_norm(g, f, CFG)
    assert abs(px.modular(g, f, lam) - 1.0) <= 10 * f.p2 * CFG.bisection_tol


def test_luxemburg_bracket_failure_carries_bracket():
    # One Newton step from lambda = 1 stops short of the root of
    # lambda^-2 + lambda^-4 = 1; the error brackets it.
    g = grid_1d(0.0, 2.0, 256, lambda x: np.ones_like(x))
    f = px.piecewise_exponent(0, 1.0, 2.0, 4.0)
    root = np.sqrt(2.0 / (np.sqrt(5.0) - 1.0))
    with pytest.raises(px.norms.BracketError) as exc:
        px.luxemburg_norm(g, f, px.NormConfig(bisection_tol=1e-10, max_iter=1))
    assert exc.value.bracket[0] <= root <= exc.value.bracket[1]


def test_luxemburg_and_sobolev_of_tiny_and_huge_constants():
    # both lie far outside [2^-200, 2^200], the reach of 200 halvings or
    # doublings of lambda from 1
    f = px.constant_exponent(2.0)
    for c in (1e-70, 1e80):
        g = px.GridFunction.constant(px.Box([0.0, 0.0], [1.0, 1.0]), 8, c)
        for norm in (px.luxemburg_norm, px.sobolev_norm):
            assert norm(g, f) == pytest.approx(c, rel=1e-12)


def random_field_and_grid(n, kind, seed):
    """Nodal N(0, 1) values on a random box and an affine or radial p in [1.2, 5]."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-1.0, 1.0, n)
    box = px.Box(lo, lo + rng.uniform(0.3, 3.0, n))
    p_lo = rng.uniform(1.2, 4.5)
    p_hi = rng.uniform(p_lo, 5.0)
    if kind == "affine":
        w = rng.uniform(0.0, 1.0, n) + 1e-3
        slope = (p_hi - p_lo) * w / (w @ box.widths)
        field = px.affine_exponent(p_lo - slope @ box.lo, slope, box)
    else:
        center = 0.5 * (box.lo + box.hi)
        field = px.radial_exponent(center, p_lo, (p_hi - p_lo) / (0.5 * box.diameter), box)
    g = px.GridFunction.constant(box, [int(c) for c in rng.integers(2, (24, 9, 5)[n - 1], n)],
                                 0.0)
    return g.like(rng.standard_normal(g.dims)), field


field_cases = dict(n=st.integers(1, 3), kind=st.sampled_from(["affine", "radial"]),
                   seed=st.integers(0, 2**32 - 1))


@given(log_t=st.floats(-80.0, 80.0), **field_cases)
def test_luxemburg_homogeneous_over_extreme_scales(log_t, n, kind, seed):
    g, field = random_field_and_grid(n, kind, seed)
    t = 10.0**log_t
    base = px.luxemburg_norm(g, field)
    assert px.luxemburg_norm(g.like(t * g.values), field) == pytest.approx(t * base, rel=1e-10)


@given(s=st.floats(-2.0, 2.0), ds=st.floats(1e-3, 2.0), **field_cases)
def test_modular_strictly_decreasing_in_lambda(s, ds, n, kind, seed):
    g, field = random_field_and_grid(n, kind, seed)
    lam = px.luxemburg_norm(g, field) * np.exp(s)
    assert px.modular(g, field, lam) > px.modular(g, field, lam * np.exp(ds))


@given(**field_cases)
def test_modular_at_the_norm_is_one(n, kind, seed):
    g, field = random_field_and_grid(n, kind, seed)
    cfg = px.NormConfig()
    lam = px.luxemburg_norm(g, field, cfg)
    assert abs(px.modular(g, field, lam) - 1.0) <= 10 * field.p2 * cfg.bisection_tol


def test_sobolev_norm_linear_1d():
    # u(x) = x on (0,1), p = 2: ||x||_2 + ||1||_2 = 1/sqrt(3) + 1.
    g = grid_1d(0.0, 1.0, 512, lambda x: x)
    f = px.constant_exponent(2.0)
    got = px.sobolev_norm(g, f, CFG)
    assert got == pytest.approx(1.0 / np.sqrt(3.0) + 1.0, abs=2e-6)


def test_sobolev_norm_constant_is_value_norm():
    g = grid_1d(0.0, 1.0, 32, lambda x: np.full_like(x, 2.5))
    f = px.constant_exponent(3.0)
    assert px.sobolev_norm(g, f, CFG) == pytest.approx(2.5, rel=1e-9)
    g0 = grid_1d(0.0, 1.0, 32, lambda x: np.zeros_like(x))
    assert px.sobolev_norm(g0, f, CFG) == 0.0


@pytest.mark.parametrize("n_axes", [2, 3])
def test_sobolev_norm_affine_anisotropic_box(n_axes, geometry_builds):
    # grad u = a everywhere, so the gradient part is |a| |box|^(1/p).
    a = np.array([1.5, -2.0, 0.75][:n_axes])
    box = px.Box([-0.5] * n_axes, [1.0, 2.0, 0.7][:n_axes])
    g = px.GridFunction.from_callable(box, (9, 6, 4)[:n_axes], lambda pts: pts @ a + 0.5)
    f = px.constant_exponent(2.6)
    grad_part = px.sobolev_norm(g, f, CFG) - px.luxemburg_norm(g, f, CFG)
    assert geometry_builds == []
    vol = float(np.prod(box.widths))
    assert grad_part == pytest.approx(np.linalg.norm(a) * vol ** (1.0 / 2.6), rel=1e-12)


def test_lt_average_examples():
    g = grid_1d(0.0, 1.0, 1024, lambda x: x)
    ball = px.Ball([0.5], 0.5)
    assert px.lt_average(g, 1.0, ball) == pytest.approx(0.5, abs=1e-3)
    assert px.lt_average(g, 2.0, ball) == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-3)
    gc = grid_1d(0.0, 1.0, 16, lambda x: np.full_like(x, 4.2))
    for t in (0.5, 1.0, 3.0):
        assert px.lt_average(gc, t, px.Ball([0.5], 0.4)) == pytest.approx(4.2, rel=1e-12)


def test_lt_average_monotone_in_t():
    rng = np.random.default_rng(5)
    g = grid_1d(0.0, 1.0, 64, lambda x: rng.random(x.size) + 0.1)
    ball = px.Ball([0.5], 0.3)
    ts = [0.5, 1.0, 2.0, 4.0, 8.0]
    vals = [px.lt_average(g, t, ball) for t in ts]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_lt_average_errors():
    g = grid_1d(0.0, 1.0, 16, lambda x: x)
    with pytest.raises(ValueError):
        px.lt_average(g, 0.0, px.Ball([0.5], 0.3))
    with pytest.raises(ValueError):
        px.lt_average(g, 1.0, px.Ball([10.0], 0.01))
