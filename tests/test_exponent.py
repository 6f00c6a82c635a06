import numpy as np
import pytest

import pxlap as px
from pxlap.exponent import _dyadic_lattice


def test_band_constant_field():
    f = px.constant_exponent(2.0)
    lo, hi = px.band(f, px.Ball([0.3], 0.2), 0.05)
    assert (lo, hi) == (2.0, 2.0)


def test_band_affine_1d_hits_interval_ends():
    # p(x) = 2 + x on [0, 1]; the ball [0.25, 0.75] is sampled closed, so the
    # extremes sit at the interval ends.
    box = px.Box([0.0], [1.0])
    f = px.affine_exponent(2.0, [1.0], box)
    lo, hi = px.band(f, px.Ball([0.5], 0.25), 0.05)
    assert lo == pytest.approx(2.25, abs=1e-12)
    assert hi == pytest.approx(2.75, abs=1e-12)


def test_band_radial_2d_center_and_rim():
    box = px.Box([-1.0, -1.0], [1.0, 1.0])
    f = px.radial_exponent([0.0, 0.0], 2.0, 1.0, box)
    lo, hi = px.band(f, px.Ball([0.0, 0.0], 0.5), 0.25)
    assert lo == pytest.approx(2.0, abs=1e-12)   # center sample
    assert hi == pytest.approx(2.5, abs=1e-12)   # rim sample at (0.5, 0)


def test_band_empty_sample_set_errors():
    f = px.constant_exponent(2.0)
    with pytest.raises(ValueError, match="no lattice point"):
        px.band(f, px.Ball([0.3301], 0.001), 0.5)


def test_band_monotone_under_ball_inclusion():
    box = px.Box([0.0], [1.0])
    f = px.affine_exponent(2.0, [1.0], box)
    res = 0.01
    small = px.band(f, px.Ball([0.5], 0.1), res)
    big = px.band(f, px.Ball([0.5], 0.3), res)
    assert big[0] <= small[0] and small[1] <= big[1]


def test_field_bound_violation_raises():
    f = px.ExponentField(lambda pts: 1.5 + pts[:, 0], 2.0, 3.0)
    with pytest.raises(ValueError, match="leaves its band"):
        f(np.array([[0.1]]))


def test_field_with_nan_samples_raises():
    # NaN failed neither band comparison: a solve stopped later on "hat norms
    # ... not finite" and a norm on a bracket of (nan, nan)
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.ExponentField(lambda pts: np.where(pts[:, 0] > 0.5, np.nan, 2.0), 1.5, 3.0,
                         name="half-nan")
    g = px.GridFunction.constant(box, 8, -1.0)
    message = r"^exponent field 'half-nan' leaves its band \[1\.5, 3\.0\]: sampled range \[nan, nan\]$"
    with pytest.raises(ValueError, match=message):
        px.solve_dirichlet(px.ProblemSpec(box, f, g, 0.0))
    with pytest.raises(ValueError, match=message):
        px.luxemburg_norm(g, f)


def test_log_holder_constant_field():
    f = px.constant_exponent(3.0)
    cert = px.log_holder_estimate(f, px.Box([0.0], [1.0]), 1000)
    assert cert.c_r == 0.0
    assert cert.k_r == 1.0
    assert cert.sample_count > 0


def test_log_holder_affine_matches_analytic_max():
    # |p(x)-p(y)| |log|x-y|| = t |log t| for separation t; max on (0, 1/2]
    # is at t = 1/e with value 1/e.
    box = px.Box([0.0], [0.5])
    f = px.affine_exponent(2.0, [1.0], box)
    cert = px.log_holder_estimate(f, box, 500000)
    assert cert.c_r == pytest.approx(1.0 / np.e, abs=2e-4)


def test_log_holder_budget_refinement_monotone():
    box = px.Box([0.0], [0.5])
    f = px.affine_exponent(2.0, [1.0], box)
    c_small = px.log_holder_estimate(f, box, 200).c_r
    c_big = px.log_holder_estimate(f, box, 400).c_r
    assert c_big >= c_small - 1e-15


def test_log_holder_borderline_field():
    # p(x) = 2 + 1/|log|x|| is exactly log-Hoelder with constant about 1:
    # |p(x)-p(0)| |log|x|| = 1 for pairs through the origin.
    box = px.Box([0.0], [0.25])

    def ev(pts):
        r = np.abs(pts[:, 0])
        out = np.where(r > 0, 2.0 + 1.0 / np.abs(np.log(np.maximum(r, 1e-300))), 2.0)
        return out

    f = px.ExponentField(ev, 2.0, 2.0 + 1.0 / np.log(4.0), domain=box)
    cert = px.log_holder_estimate(f, box, 500000)
    assert 0.8 <= cert.c_r <= 1.05


def test_scale_bound_certified():
    # every sampled r <= R satisfies r^-(gap) <= k_r by construction
    box = px.Box([0.0], [1.0])
    f = px.affine_exponent(2.0, [0.5], box)
    cert = px.log_holder_estimate(f, box, 10000)
    assert cert.k_r >= 1.0
    # spot check one ball against the certificate
    lo, hi = px.band(f, px.Ball([0.5], 0.25), 0.01)
    assert 0.25 ** (-(hi - lo)) <= cert.k_r * (1 + 1e-9)


def test_gradient_fallback_matches_analytic():
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.affine_exponent(2.0, [0.3, -0.2], box)
    pts = np.array([[0.4, 0.6], [0.1, 0.9]])
    g_analytic = f.gradient_at(pts)
    f_no_grad = px.ExponentField(f.evaluator, f.p1, f.p2, domain=box)
    g_fd = f_no_grad.gradient_at(pts)
    assert np.allclose(g_analytic, [[0.3, -0.2], [0.3, -0.2]])
    assert np.allclose(g_fd, g_analytic, atol=1e-8)


def test_dual_exponent():
    box = px.Box([0.0], [1.0])
    f = px.affine_exponent(2.0, [1.0], box)  # p in [2, 3]
    d = px.dual_exponent(f)
    pts = np.array([[0.0], [1.0], [0.5]])
    assert np.allclose(d(pts), f(pts) / (f(pts) - 1.0))
    assert d.p1 == pytest.approx(1.5)   # conjugate of 3
    assert d.p2 == pytest.approx(2.0)   # conjugate of 2


def scale_bound_reference(field, domain, pair_budget):
    """k_r of log_holder_estimate as the loop over radii and centres."""
    pts = _dyadic_lattice(domain, pair_budget)
    n, vals = pts.shape[0], field(pts)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    r_cap = min(0.5, float(domain.diameter) / 2.0)
    h_min = float(np.min(domain.widths)) / max(1, round(n ** (1.0 / domain.n_axes)) - 1)
    radii = np.geomspace(max(2 * h_min, 1e-6 * r_cap), r_cap, 8) if r_cap > 2 * h_min else [r_cap]
    k_r = 1.0
    for r in radii:
        for i in range(0, n, max(1, n // 64)):
            inside = dist[i] <= r
            if np.count_nonzero(inside) >= 2:
                k_r = max(k_r, float(r ** -(vals[inside].max() - vals[inside].min())))
    return k_r


@pytest.mark.parametrize("field, budget", [
    (px.affine_exponent(2.0, [1.0], px.Box([0.0], [0.5])), 400),
    (px.radial_exponent([0.2, 0.7], 1.5, 2.0, px.Box([0.0, 0.0], [1.0, 1.0])), 20000),
    (px.affine_exponent(2.5, [0.3, -0.2, 0.4], px.Box([0.0] * 3, [1.0, 0.5, 1.0])), 200000),
    (px.constant_exponent(3.0), 1000),
])
def test_scale_bound_matches_loop_over_balls(field, budget):
    domain = field.domain or px.Box([0.0], [1.0])
    cert = px.log_holder_estimate(field, domain, budget)
    ref = scale_bound_reference(field, domain, budget)
    assert abs(cert.k_r - ref) <= np.spacing(ref)
