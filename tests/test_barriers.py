import math

import numpy as np
import pytest

import pxlap as px
import pxlap.barriers as barriers
from conftest import pointwise_reference
from pxlap.barriers import annulus_samples


def test_barrier_boundary_values_exact():
    # dyadic centers and radii keep the sphere points exactly representable
    for mu, delta, A in ((1.0, 1.0, 1.0), (8.0, 0.125, 2.5), (32.0, 0.03125, 0.3)):
        params = px.BarrierParams([0.25, -0.5], delta, mu, A)
        e = np.array([1.0, 0.0])
        v_out, _ = px.barrier_eval(params, params.x0 + delta * e)
        v_in, _ = px.barrier_eval(params, params.x0 + 0.5 * delta * e)
        assert abs(v_out) <= 1e-14 * A
        assert abs(v_in - A) <= 1e-14 * A


def test_barrier_closed_form_value():
    params = px.BarrierParams([0.0], 1.0, 1.0, 1.0)
    v, g = px.barrier_eval(params, [0.75])
    expect = (math.exp(-0.5625) - math.exp(-1.0)) / (math.exp(-0.25) - math.exp(-1.0))
    assert v == pytest.approx(expect, rel=1e-14)
    # gradient formula: A * exp(-mu q) * (-2 mu (x-x0)/delta^2) / normalizer
    gx = math.exp(-0.5625) * (-2.0 * 0.75) / (math.exp(-0.25) - math.exp(-1.0))
    assert g[0] == pytest.approx(gx, rel=1e-14)


def test_barrier_params_reject_vanishing_normalizer():
    # e^(-mu/4) underflows past mu ~ 2980; e^(-mu/4) and e^(-mu) round to 1 for tiny mu
    for mu in (3000.0, math.inf, 1e-20):
        with pytest.raises(ValueError, match="normalizer"):
            px.BarrierParams([0.0, 0.0], 1.0, mu, 1.0)
    assert px.BarrierParams([0.0, 0.0], 1.0, 2900.0, 1.0).normalizer > 0.0
    template = px.BarrierParams([0.0, 0.0], 1.0, 4.0, 1.0)
    with pytest.raises(ValueError, match="normalizer"):
        px.subsolution_mu_sweep(template, px.constant_exponent(2.0), [8.0, 3000.0], 0.05)


@pytest.mark.parametrize("name, value", [("delta", math.inf), ("delta", math.nan),
                                         ("a_level", math.inf), ("a_level", math.nan),
                                         ("a_level", -1.0)])
def test_barrier_params_reject_bad_values(name, value):
    args = {"x0": [0.0, 0.0], "delta": 1.0, "mu": 8.0, "a_level": 1.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        px.BarrierParams(**args)


@pytest.mark.parametrize("resolution, n_dir, message", [
    (-1.0, 32, "resolution must be finite and positive"),
    (0.0, 32, "resolution must be finite and positive"),
    (math.nan, 32, "resolution must be finite and positive"),
    (math.inf, 32, "resolution must be finite and positive"),
    (0.1, 0, "n_dir must be at least 1"),
])
def test_annulus_samples_reject_bad_values(resolution, n_dir, message):
    with pytest.raises(ValueError, match=message):
        annulus_samples([0.0, 0.0], 0.5, 1.0, resolution, n_dir)


@pytest.mark.parametrize("M, mu, message", [
    (1.0, 0.0, "mu must be finite and positive"),
    (1.0, math.nan, "mu must be finite and positive"),
    (1.0, math.inf, "mu must be finite and positive"),
    (math.inf, 4.0, "M must be finite and positive"),
    (math.nan, 4.0, "M must be finite and positive"),
])
def test_gaussian_scan_rejects_bad_values(M, mu, message):
    with pytest.raises(ValueError, match=message):
        px.gaussian_lower_bound_scan(M, mu, px.constant_exponent(2.0), (0.5, 1.0), 0.05,
                                     center=[0.0, 0.0])

def test_barrier_radial_monotone():
    params = px.BarrierParams([0.0, 0.0], 0.7, 9.0, 2.0)
    rs = np.linspace(1e-3, 3.0, 200)
    vals = [px.barrier_eval(params, [r, 0.0])[0] for r in rs]
    # nonincreasing everywhere; strictly decreasing until the Gaussian tail
    # falls below float resolution of the constant offset
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    near = [v for r, v in zip(rs, vals) if r <= 1.2 * params.delta]
    assert all(a > b for a, b in zip(near, near[1:]))


def test_barrier_gradient_matches_finite_differences():
    params = px.BarrierParams([0.1, 0.4], 0.8, 6.0, 1.7)
    w = px.barrier_smooth(params)
    rng = np.random.default_rng(2)
    pts = rng.random((20, 2))
    h = 1e-6
    _, g = px.barrier_eval(params, pts)
    for a in range(2):
        e = np.zeros(2)
        e[a] = h
        fd = (px.barrier_eval(params, pts + e)[0] - px.barrier_eval(params, pts - e)[0]) / (2 * h)
        assert g[:, a] == pytest.approx(fd, rel=1e-6, abs=1e-8)
    # Hessian against gradient differences
    H = w.hessian(pts[:1])[0]
    for a in range(2):
        e = np.zeros(2)
        e[a] = h
        fd = (px.barrier_eval(params, pts[0] + e)[1] - px.barrier_eval(params, pts[0] - e)[1]) / (2 * h)
        assert np.allclose(H[:, a], fd, rtol=1e-5, atol=1e-6)


def test_scan_gaussian_laplacian_signs():
    # p = 2, n = 2, raw threshold: min of Delta w over [delta/2, delta]
    # crosses zero at mu = 2n = 4.
    f2 = px.constant_exponent(2.0)
    base = px.BarrierParams([0.0, 0.0], 1.0, 4.0, 1.0)
    s4 = px.barrier_subsolution_scan(base, f2, 0.05)
    assert abs(s4.min_operator_value) <= 1e-12
    s8 = px.barrier_subsolution_scan(px.BarrierParams([0.0, 0.0], 1.0, 8.0, 1.0), f2, 0.05)
    assert s8.min_operator_value > 0
    s1 = px.barrier_subsolution_scan(px.BarrierParams([0.0, 0.0], 1.0, 1.0, 1.0), f2, 0.05)
    assert s1.min_operator_value < 0
    assert np.linalg.norm(s1.argmin) == pytest.approx(0.5, abs=1e-12)


def test_bracket_threshold_2n():
    f2 = px.constant_exponent(2.0)
    base = px.BarrierParams([0.0, 0.0], 1.0, 2.0, 1.0)
    lo, hi = px.bracket_subsolution_mu(base, f2, 2.0, 8.0, 0.05)
    assert lo <= 4.0 <= hi
    assert hi - lo <= 0.02
    # any delta: threshold is delta-independent
    base2 = px.BarrierParams([0.0, 0.0], 0.25, 2.0, 1.0)
    lo2, hi2 = px.bracket_subsolution_mu(base2, f2, 2.0, 8.0, 0.0125)
    assert lo2 <= 4.0 <= hi2 and hi2 - lo2 <= 0.02
    # the benchmark's bracket: resolution 0.02, width 0.004
    lo3, hi3 = px.bracket_subsolution_mu(base, f2, 2.0, 8.0, 0.02, width=0.004)
    assert lo3 <= 4.0 <= hi3 and hi3 - lo3 <= 0.008


@pytest.fixture
def scans(monkeypatch):
    """The operator scans the test makes, cut off after 200 so that a
    bisection that does not stop fails the test instead of hanging it."""
    made = []
    pointwise = barriers.p_laplacian_pointwise

    def counted(*args, **kwargs):
        made.append(1)
        if len(made) > 200:
            raise RuntimeError("the bisection does not stop")
        return pointwise(*args, **kwargs)

    monkeypatch.setattr(barriers, "p_laplacian_pointwise", counted)
    return made


@pytest.mark.parametrize("width", [0.0, -1.0, np.nan, np.inf])
def test_bracket_rejects_a_width_that_is_not_finite_and_positive(width, scans):
    base = px.BarrierParams([0.0, 0.0], 1.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="width must be finite and positive"):
        px.bracket_subsolution_mu(base, px.constant_exponent(2.0), 2.0, 8.0, 0.05, width=width)


def test_bracket_below_the_float_spacing_ends_at_adjacent_floats(scans):
    # 2 * width is below the spacing of the floats near mu = 4: the bisection
    # used to reach adjacent floats and then halve forever.
    base = px.BarrierParams([0.0, 0.0], 1.0, 2.0, 1.0)
    lo, hi = px.bracket_subsolution_mu(base, px.constant_exponent(2.0), 2.0, 8.0, 0.05,
                                       width=1e-17)
    assert hi == np.nextafter(lo, np.inf) and lo <= 4.0 <= hi
    assert len(scans) <= 60


# -- scans against the per-point reference ----------------------------------------

def barrier_scan_reference(params, field, resolution, reg_eps=0.0, n_dir=32):
    """The barrier scan as a per-point loop over the scalar operator formula:
    the first strict minimum."""
    pts = annulus_samples(params.x0, params.delta / 2.0, params.delta, resolution, n_dir)
    w = px.barrier_smooth(params)
    best, arg = np.inf, pts[0]
    for x in pts:
        v = pointwise_reference(w, field, x, reg_eps)
        if v < best:
            best, arg = v, x
    return best, arg, pts.shape[0]


def gaussian_scan_reference(M, mu, field, annulus, resolution, center, reg_eps=0.0, n_dir=32):
    """The normalized Gaussian scan as a per-point loop over the scalar operator
    formula: the first strict minimum."""
    c = np.asarray(center, dtype=float)
    value = lambda pts: M * np.exp(-mu * np.sum((pts - c) ** 2, axis=1))
    gradient = lambda pts: value(pts)[:, None] * (-2.0 * mu) * (pts - c)

    def hessian(pts):
        d = pts - c
        return (-2.0 * mu * value(pts))[:, None, None] * (
            np.eye(d.shape[1]) - 2.0 * mu * d[:, :, None] * d[:, None, :])

    w = px.SmoothFunction(value, gradient, hessian)
    pts = annulus_samples(c, annulus[0], annulus[1], resolution, n_dir)
    best, arg = np.inf, pts[0]
    for x in pts:
        op = pointwise_reference(w, field, x, reg_eps)
        p = float(field(x[None, :])[0])
        g = gradient(x[None, :])[0]
        s = math.sqrt(float(g @ g) + reg_eps**2)
        q = (1.0 / mu) * math.exp(mu * float(np.sum((x - c) ** 2))) / M * s ** (2.0 - p) * op
        if q < best:
            best, arg = q, x
    return best, arg, pts.shape[0]


UNIT_SQUARE = px.Box([0.0, 0.0], [1.0, 1.0])
CUBE = px.Box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
SCAN_CASES = {
    # name: (field, center, barrier delta, mu, Gaussian annulus, resolution, reg_eps)
    "p2": (px.constant_exponent(2.0), [0.0, 0.0], 1.0, 4.0, (0.5, 1.0), 0.02, 0.0),
    # +-r samples tie exactly in 1d, so this case pins the first-minimum rule
    "p3-1d": (px.constant_exponent(3.0), [0.0], 1.0, 4.0, (0.5, 1.0), 0.05, 0.0),
    # the exponent and barrier check of perfbench/verify_config.json
    "verify-affine": (px.affine_exponent(2.5, [0.4, 0.2], UNIT_SQUARE), [0.5, 0.5],
                      0.4, 8.0, (0.2, 0.4), 0.002, 0.0),
    "radial": (px.radial_exponent([0.3, 0.6], 1.6, 1.5, UNIT_SQUARE), [0.5, 0.5],
               0.4, 16.0, (0.2, 0.4), 0.01, 1e-8),
    "radial-3d": (px.radial_exponent([0.1, -0.2, 0.0], 3.2, -0.5, CUBE), [0.0, 0.0, 0.0],
                  0.8, 12.0, (0.4, 0.8), 0.05, 1e-8),
}


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_scans_match_per_point_reference(case):
    field, center, delta, mu, annulus, res, reg_eps = SCAN_CASES[case]
    params = px.BarrierParams(center, delta, mu, 1.0)
    scan = px.barrier_subsolution_scan(params, field, res, reg_eps)
    best, arg, samples = barrier_scan_reference(params, field, res, reg_eps)
    # abs: the p = 2, mu = 4 minimum is 0 up to roundoff
    assert scan.min_operator_value == pytest.approx(best, rel=1e-13, abs=1e-12)
    assert np.array_equal(scan.argmin, arg)
    assert scan.samples == samples
    g = px.gaussian_lower_bound_scan(2.5, mu, field, annulus, res, reg_eps, center=center)
    best, arg, samples = gaussian_scan_reference(2.5, mu, field, annulus, res, center, reg_eps)
    assert g.lhs_min == pytest.approx(best, rel=1e-13, abs=1e-12)
    assert np.array_equal(g.argmin, arg)
    assert g.samples == samples


def test_gaussian_bound_scan_overflow_raises():
    # e^(mu |x|^2) overflows on the outer sphere; the scan refuses to return
    # a minimum built from inf and nan
    f2 = px.constant_exponent(2.0)
    with pytest.raises(FloatingPointError, match="overflow"):
        px.gaussian_lower_bound_scan(1.0, 1000.0, f2, (0.5, 1.0), 0.05, center=[0.0, 0.0])


def test_sweep_finds_subsolution_for_lipschitz_p():
    box = px.Box([-1.0, -1.0], [1.0, 1.0])
    field = px.affine_exponent(2.0, [0.05, 0.0], box)  # |grad p| = 0.05
    base = px.BarrierParams([0.0, 0.0], 0.1, 8.0, 1.0)
    hits = px.subsolution_mu_sweep(base, field, [8, 16, 32, 64], 0.005)
    assert any(ok for _, _, ok in hits)


def test_gaussian_bound_scan_p2_formula():
    f2 = px.constant_exponent(2.0)
    for mu in (4.0, 8.0, 16.0):
        r = px.gaussian_lower_bound_scan(1.0, mu, f2, (0.5, 1.0), 0.05, center=[0.0, 0.0])
        assert r.lhs_min == pytest.approx(2.0 * (mu / 2.0 - 2.0), abs=1e-6)
        assert r.abs_log_m == 0.0
        assert r.grad_p_sup == 0.0


def test_gaussian_bound_scan_amplitude_enters():
    f2 = px.constant_exponent(2.0)
    r = px.gaussian_lower_bound_scan(math.e, 8.0, f2, (0.5, 1.0), 0.1, center=[0.0, 0.0])
    assert r.abs_log_m == pytest.approx(1.0)
    # for p = 2 the normalized quantity is amplitude-free
    assert r.lhs_min == pytest.approx(2.0 * (8.0 / 2.0 - 2.0), abs=1e-6)


def test_gaussian_bound_scan_linear_growth_variable_p():
    box = px.Box([-2.0, -2.0], [2.0, 2.0])
    field = px.affine_exponent(2.0, [0.05, 0.0], box)
    mus = np.array([8.0, 16.0, 32.0, 64.0])
    mins = [px.gaussian_lower_bound_scan(1.0, m, field, (0.5, 1.0), 0.05).lhs_min
            for m in mus]
    slope = np.polyfit(mus, mins, 1)[0]
    assert slope > 0


def test_gaussian_bound_scan_argument_errors():
    f2 = px.constant_exponent(2.0)
    with pytest.raises(ValueError, match="inner radius"):
        px.gaussian_lower_bound_scan(1.0, 8.0, f2, (0.0, 1.0), 0.1, center=[0.0, 0.0])
    with pytest.raises(ValueError, match="r1 > r2"):
        px.gaussian_lower_bound_scan(1.0, 8.0, f2, (1.0, 0.5), 0.1, center=[0.0, 0.0])


# -- maximum principle -----------------------------------------------------------

def test_max_principle_classifications():
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    zero = px.GridFunction.constant(box, 16, 0.0)
    assert px.strong_max_principle_check(zero, 0.2).classification == "identically_zero"
    pos = px.GridFunction.from_callable(box, 16, lambda p: 0.3 + p[:, 0])
    assert px.strong_max_principle_check(pos, 0.2).classification == "strictly_positive"
    vals = pos.values.copy()
    vals[7:9, 7:9] = 0.0
    assert px.strong_max_principle_check(pos.like(vals), 0.2).classification == "violation"
    with pytest.raises(ValueError, match="negative"):
        px.strong_max_principle_check(pos.like(pos.values - 1.0), 0.2)
    # a margin that leaves no node: the shrunk box lies between the nodes 4/9 and 5/9
    pos9 = px.GridFunction.from_callable(box, 9, lambda p: 0.3 + p[:, 0])
    with pytest.raises(ValueError, match=r"^box \[0\.49 0\.49\]\.\.\[0\.51 0\.51\]: no grid"):
        px.strong_max_principle_check(pos9, 0.49)


@pytest.mark.parametrize("zero_tol", [math.nan, math.inf, -1.0])
def test_zero_tol_must_be_finite(zero_tol):
    # a NaN tolerance fails every comparison it is in: a positive u would be
    # classified a violation, and a u(y) of 0.3 would pass as vanishing
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    u = px.GridFunction.from_callable(box, 16, lambda p: 0.3 + p[:, 0])
    with pytest.raises(ValueError, match="zero_tol must be finite and >= 0"):
        px.strong_max_principle_check(u, 0.2, zero_tol)
    with pytest.raises(ValueError, match="zero_tol must be finite and >= 0"):
        px.hopf_slope(u, [0.0, 0.5], [1.0, 0.0], [0.0625, 0.125], zero_tol)

def test_max_principle_solved_harmonic():
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    field = px.constant_exponent(2.0, domain=box)
    for cells in (16, 32):
        f = px.GridFunction.constant(box, cells, 0.0)
        bdry = lambda pts: np.maximum(0.0, pts[:, 0] - 0.5)
        res = px.solve_dirichlet(px.ProblemSpec(box, field, f, bdry, reg_eps=0.0, tol=1e-10))
        out = px.strong_max_principle_check(res.solution, 2.0 / cells)
        assert out.classification == "strictly_positive"


# -- hopf ------------------------------------------------------------------------

def test_hopf_cone_exact():
    box = px.Box([-1.0, -1.0], [1.0, 1.0])
    cone = px.GridFunction.from_callable(box, 64, lambda p: 1.0 - np.linalg.norm(p, axis=1))
    r = px.hopf_slope(cone, [1.0, 0.0], [-1.0, 0.0], [1.0 / 32, 2.0 / 32, 4.0 / 32])
    assert np.all(r.slopes == 1.0)
    assert r.c0_estimate == 1.0


def test_hopf_zero_function():
    box = px.Box([-1.0], [1.0])
    zero = px.GridFunction.constant(box, 32, 0.0)
    r = px.hopf_slope(zero, [1.0], [-1.0], [0.125, 0.25])
    assert r.c0_estimate == 0.0


def test_hopf_errors():
    box = px.Box([-1.0, -1.0], [1.0, 1.0])
    cone = px.GridFunction.from_callable(box, 32, lambda p: 1.0 - np.linalg.norm(p, axis=1))
    with pytest.raises(ValueError, match="zero_tol"):
        px.hopf_slope(cone, [0.0, 0.0], [1.0, 0.0], [0.125])  # u(0) = 1, not a zero
    with pytest.raises(ValueError, match="exits"):
        px.hopf_slope(cone, [1.0, 0.0], [1.0, 0.0], [0.5])  # outward step leaves box


@pytest.mark.parametrize("direction", [[0.0, 0.0], [np.nan, 1.0], [-np.inf, 0.0]],
                         ids=["zero", "nan", "inf"])
def test_hopf_rejects_a_direction_without_length(direction):
    # a zero direction used to divide by zero and then report a probe outside the box
    box = px.Box([-1.0, -1.0], [1.0, 1.0])
    cone = px.GridFunction.from_callable(box, 32, lambda p: 1.0 - np.linalg.norm(p, axis=1))
    with pytest.raises(ValueError, match="^direction must be finite and nonzero$"):
        px.hopf_slope(cone, [1.0, 0.0], direction, [0.125])


def test_hopf_solved_positive_solution():
    # p-harmonic in 1d with u(0) = 0, u(1) = 1 is linear: slope 1 at the zero end
    box = px.Box([0.0], [1.0])
    f = px.GridFunction.constant(box, 128, 0.0)
    field = px.constant_exponent(4.0, domain=box)
    res = px.solve_dirichlet(px.ProblemSpec(box, field, f, lambda p: p[:, 0], reg_eps=1e-8))
    r = px.hopf_slope(res.solution, [0.0], [1.0], [1.0 / 128, 2.0 / 128, 4.0 / 128])
    assert r.c0_estimate > 0.9


def bracket_reference(template, field, mu_lo, mu_hi, resolution, width):
    """The bisection of bracket_subsolution_mu with a full scan at every mu."""

    def scan_min(mu):
        p = px.BarrierParams(template.x0, template.delta, mu, template.a_level)
        return px.barrier_subsolution_scan(p, field, resolution).min_operator_value

    lo, hi = mu_lo, mu_hi
    assert scan_min(lo) < 0.0 <= scan_min(hi)
    while hi - lo > 2.0 * width:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if scan_min(mid) < 0.0 else (lo, mid)
    return lo, hi


@pytest.mark.parametrize("field, center", [
    (px.constant_exponent(2.0), [0.0, 0.0]),
    (px.constant_exponent(2.0), [0.0, 0.0, 0.0]),
    (px.affine_exponent(2.5, [0.4, 0.2], UNIT_SQUARE), [0.5, 0.5]),
    (px.affine_exponent(2.5, [0.3, 0.2, 0.1], px.Box([0.0] * 3, [1.0] * 3)), [0.5, 0.5, 0.5]),
])
def test_bracket_matches_bisection_over_full_scans(field, center):
    template = px.BarrierParams(center, 0.4, 2.0, 1.0)
    got = px.bracket_subsolution_mu(template, field, 1.0, 40.0, 0.05, width=0.01)
    assert got == bracket_reference(template, field, 1.0, 40.0, 0.05, 0.01)
