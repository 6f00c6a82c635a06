import numpy as np
import pytest

import pxlap as px
from conftest import random_grid, reference_caccioppoli
from pxlap.quadrature import lq_norm


def affine_u(cells=512):
    box = px.Box([-1.0], [1.0])
    return px.GridFunction.from_callable(box, cells, lambda pts: 1.0 + pts[:, 0])


# -- harnack_mu ----------------------------------------------------------------

def test_mu_zero_source():
    box = px.Box([-1.0], [1.0])
    f = px.GridFunction.constant(box, 64, 0.0)
    field = px.constant_exponent(2.0, domain=box)
    assert px.harnack_mu(f, px.Ball([0.0], 0.2), np.inf, field) == 0.0


def test_mu_sup_norm_substitution():
    box = px.Box([-4.2, -4.2], [4.2, 4.2])
    f = px.GridFunction.constant(box, 64, 8.0)
    field = px.constant_exponent(3.0, domain=box)
    mu = px.harnack_mu(f, px.Ball([0.0, 0.0], 1.0), np.inf, field)
    assert mu == pytest.approx(np.sqrt(8.0), rel=1e-12)


def test_mu_l2_quadrature_1d():
    # R = 1/4, q0 = 2, f = 1: mu = R^(1 - 1/2) ||1||_{L2(B_1)} = 0.5 sqrt(2),
    # the 1d ball B_1 having measure 2.
    box = px.Box([-1.0], [1.0])
    f = px.GridFunction.constant(box, 256, 1.0)
    field = px.constant_exponent(2.0, domain=box)
    mu = px.harnack_mu(f, px.Ball([0.0], 0.25), 2.0, field)
    assert mu == pytest.approx(0.5 * np.sqrt(2.0), rel=1e-12)


def test_mu_exact_scaling_constant_source():
    box = px.Box([-1.0], [1.0])
    field = px.constant_exponent(2.0, domain=box)
    for c, R in ((2.0, 0.1), (5.0, 0.2)):
        f = px.GridFunction.constant(box, 64, c)
        mu = px.harnack_mu(f, px.Ball([0.0], R), np.inf, field)
        assert mu == pytest.approx(R * c, rel=1e-12)


def test_mu_monotone_in_source_norm():
    box = px.Box([-1.0], [1.0])
    field = px.constant_exponent(2.0, domain=box)
    ball = px.Ball([0.0], 0.2)
    mus = [px.harnack_mu(px.GridFunction.constant(box, 64, c), ball, 4.0, field)
           for c in (0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(mus, mus[1:]))


def test_mu_admissibility_errors():
    box = px.Box([-1.0], [1.0])
    f = px.GridFunction.constant(box, 64, 1.0)
    field = px.constant_exponent(2.0, domain=box)
    with pytest.raises(ValueError, match="q0 must exceed"):
        px.harnack_mu(f, px.Ball([0.0], 0.2), 0.5, field)
    with pytest.raises(ValueError, match="escapes"):
        px.harnack_mu(f, px.Ball([0.9], 0.25), 2.0, field)
    with pytest.raises(ValueError, match="radius"):
        px.harnack_mu(px.GridFunction.constant(px.Box([-9.0], [9.0]), 64, 1.0),
                      px.Ball([0.0], 2.0), 2.0, field)


def test_mu_dilate_without_nodes():
    # The 4R dilate (radius 0.004 around (0.51, 0.51)) falls between the
    # nodes of the 1/8 lattice; p_minus over it used to be numpy's
    # "zero-size array" error.
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.constant(box, 8, 1.0)
    field = px.constant_exponent(2.0, domain=box)
    with pytest.raises(ValueError, match=r"ball at \[0\.51 0\.51\], radius 0\.001: no grid nodes "
                                         r"inside its 4R dilate \(radius 0\.004\)"):
        px.harnack_mu(f, px.Ball([0.51, 0.51], 0.001), np.inf, field)


def test_mu_over_a_dilate_without_cell_weight():
    # The 4R dilate of radius 0.002 holds the node (0.5, 0.5) but no cell
    # weight: q0 = inf reads f there, a finite q0 used to give mu = 0.
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    f = px.GridFunction.constant(box, 8, -1.0)
    field = px.constant_exponent(2.0, domain=box)
    ball = px.Ball([0.5, 0.5], 0.0005)
    assert px.harnack_mu(f, ball, np.inf, field) == pytest.approx(0.0005, rel=1e-12)
    with pytest.raises(ValueError, match=r"radius 0\.002: no cell weight inside"):
        px.harnack_mu(f, ball, 4.0, field)


# -- harnack_check --------------------------------------------------------------

def test_check_constant_function():
    box = px.Box([-1.0], [1.0])
    u = px.GridFunction.constant(box, 64, 3.0)
    rep = px.harnack_check(u, px.Ball([0.0], 1.0), 0.0)
    assert rep.c_emp == pytest.approx(3.0 / 4.0, rel=1e-12)
    assert rep.c_emp < 1.0


def test_check_affine_example():
    rep = px.harnack_check(affine_u(), px.Ball([0.0], 0.25), 0.0)
    assert rep.sup_u == pytest.approx(1.25, abs=1e-12)
    assert rep.inf_u == pytest.approx(0.75, abs=1e-12)
    assert rep.c_emp == pytest.approx(1.25, rel=1e-12)


def test_check_negative_sample_rejected():
    # u >= 0 on B_R itself but negative inside the 4R dilate
    box = px.Box([-1.0], [1.0])
    u = px.GridFunction.from_callable(box, 64, lambda pts: pts[:, 0])
    with pytest.raises(ValueError, match="negative"):
        px.harnack_check(u, px.Ball([0.2], 0.2), 0.0)


def test_check_reports_p_band():
    box = px.Box([-1.0], [1.0])
    field = px.affine_exponent(3.0, [1.0], box)  # p = 3 + x
    rep = px.harnack_check(affine_u(), px.Ball([0.0], 0.1), 0.0, field)
    # band over node samples of B_0.4, quantized by the grid spacing 1/256
    assert rep.p_band[0] == pytest.approx(3.0 - 0.4, abs=1.0 / 128)
    assert rep.p_band[1] == pytest.approx(3.0 + 0.4, abs=1.0 / 128)


def test_scale_invariance_constant_p():
    # sup u / (inf u + R mu) is invariant under (u, f) -> (t u, t^(p-1) f)
    box = px.Box([0.0], [1.0])
    cells = 256
    u = px.GridFunction.from_callable(box, cells, lambda pts: pts[:, 0] * (1 - pts[:, 0]))
    f = px.GridFunction.constant(box, cells, -2.0)
    field = px.constant_exponent(2.0, domain=box)
    ball = px.Ball([0.5], 0.1)
    base = None
    for t in (0.1, 1.0, 10.0, 100.0):
        mu = px.harnack_mu(f.like(np.abs(t ** (2 - 1) * f.values)), ball, np.inf, field)
        rep = px.harnack_check(u.like(t * u.values), ball, mu)
        ratio = px.scale_invariant_ratio(rep)
        base = ratio if base is None else base
        assert ratio == pytest.approx(base, rel=1e-9)


def test_stability_drift_flag():
    box = px.Box([0.0], [1.0])
    u = px.GridFunction.from_callable(box, 512, lambda pts: pts[:, 0] * (1 - pts[:, 0]))
    f = px.GridFunction.constant(box, 512, 2.0)
    field = px.constant_exponent(2.0, domain=box)
    out = px.harnack_stability(u, f, [0.5], 0.1, np.inf, field)
    assert len(out["reports"]) == 3
    assert out["drift"] <= 2.0
    assert not out["anomalous"]


@pytest.mark.parametrize("levels", [0, -1, 2.5])
def test_stability_rejects_bad_levels(levels):
    # levels = 0 used to fail in min() of an empty list
    box = px.Box([0.0], [1.0])
    u = px.GridFunction.constant(box, 64, 1.0)
    with pytest.raises(ValueError, match=rf"^levels must be an integer >= 1, got {levels}$"):
        px.harnack_stability(u, u, [0.5], 0.1, np.inf, px.constant_exponent(2.0), levels)


def test_dependence_probe_monotone():
    box = px.Box([0.0], [1.0])
    v = px.GridFunction.from_callable(box, 128, lambda pts: 0.5 + pts[:, 0] * (1 - pts[:, 0]))
    rows = px.dependence_probe(v, px.Ball([0.5], 0.1), [1, 4, 16, 64])
    cs = [c for _, c in rows]
    assert all(a < b for a, b in zip(cs, cs[1:]))


# -- weak harnack ---------------------------------------------------------------

def test_weak_harnack_constant():
    box = px.Box([-1.0], [1.0])
    u = px.GridFunction.constant(box, 64, 2.5)
    for t0 in (0.5, 1.0, 3.0):
        r = px.weak_harnack_check(u, [0.0], 0.25, t0)
        assert r.ratio == pytest.approx(1.0, rel=1e-12)
        assert r.lhs <= r.rhs * (1 + 1e-9)


def test_weak_harnack_affine_oracle():
    r = px.weak_harnack_check(affine_u(4096), [0.0], 0.5, 1.0, min_value="off")
    assert r.lhs == pytest.approx(0.5, abs=1e-12)
    assert r.rhs == pytest.approx(1.0, abs=1e-12)
    assert r.ratio == pytest.approx(0.5, abs=1e-11)


def test_weak_harnack_quadratic_in_unit_range():
    box = px.Box([-1.0, -1.0], [1.0, 1.0])
    u = px.GridFunction.from_callable(box, 64, lambda pts: 1.0 + np.sum(pts**2, axis=1))
    r = px.weak_harnack_check(u, [0.0, 0.0], 0.4, 1.0)
    assert 0.0 < r.ratio <= 1.0


def test_weak_harnack_hypothesis_modes():
    u = affine_u()
    with pytest.raises(ValueError, match="u >= 1"):
        px.weak_harnack_check(u, [0.0], 0.25, 1.0)
    shifted = px.weak_harnack_check(u, [0.0], 0.25, 1.0, min_value="shift")
    assert shifted.lhs == pytest.approx(1.75, abs=1e-12)
    with pytest.raises(ValueError):
        px.weak_harnack_check(u, [0.0], 0.25, 0.0)


@pytest.mark.parametrize("t0", [np.inf, np.nan, 0.0, -1.0])
def test_weak_harnack_rejects_bad_t0(t0):
    u = px.GridFunction.constant(px.Box([-1.0], [1.0]), 64, 2.5)
    with pytest.raises(ValueError, match="t0 must be finite and positive"):
        px.weak_harnack_check(u, [0.0], 0.25, t0)

# -- caccioppoli -----------------------------------------------------------------

def caccioppoli_setup(cells=2048):
    box = px.Box([0.0], [1.0])
    u = px.GridFunction.from_callable(box, cells, lambda pts: 1.0 + pts[:, 0])
    eta = px.hat_cutoff(u, [0.5], 0.25)
    H = u.like(np.zeros(u.dims))
    field = px.constant_exponent(2.0, domain=box)
    return u, eta, H, field


def test_caccioppoli_exact_integrals():
    # lhs = int eta^2 = 1/6; cutoff term = 16 int_{1.25}^{1.75} t^2 dt.
    u, eta, H, field = caccioppoli_setup()
    r = px.caccioppoli_check(u, 1.0, eta, H, field, C_probe=1.0)
    assert r.lhs == pytest.approx(1.0 / 6.0, abs=1e-6)
    assert r.zero_order_term == pytest.approx(1.0 / 6.0, abs=1e-6)
    assert r.cutoff_term == pytest.approx(16.0 * 3.40625 / 3.0, abs=1e-5)
    assert r.source_term == 0.0
    assert r.holds


def test_caccioppoli_trivial_cases():
    u, eta, H, field = caccioppoli_setup(128)
    ones = u.like(np.ones(u.dims))
    r = px.caccioppoli_check(ones, 2.0, eta, H, field, C_probe=0.5)
    assert r.lhs == 0.0 and r.holds
    eta0 = u.like(np.zeros(u.dims))
    with pytest.raises(ValueError, match="cutoff eta: no cell weight inside its support"):
        px.caccioppoli_check(u, 1.0, eta0, H, field, C_probe=1.0)


def test_caccioppoli_hypothesis_errors():
    u, eta, H, field = caccioppoli_setup(128)
    with pytest.raises(ValueError, match="gamma"):
        px.caccioppoli_check(u, 0.0, eta, H, field, 1.0)
    low = u.like(u.values - 0.8)  # drops below 1 on supp eta
    with pytest.raises(ValueError, match="u >= 1"):
        px.caccioppoli_check(low, 1.0, eta, H, field, 1.0)


@pytest.mark.parametrize("gamma, C_probe, message", [
    (np.inf, 1.0, "gamma must be finite and nonzero"),
    (np.nan, 1.0, "gamma must be finite and nonzero"),
    (1.0, np.nan, "C_probe must be finite and >= 0"),
    (1.0, np.inf, "C_probe must be finite and >= 0"),
    (1.0, -1.0, "C_probe must be finite and >= 0"),
])
def test_caccioppoli_rejects_bad_parameters(gamma, C_probe, message):
    u, eta, H, field = caccioppoli_setup(128)
    with pytest.raises(ValueError, match=message):
        px.caccioppoli_check(u, gamma, eta, H, field, C_probe)

def test_caccioppoli_source_term_enters():
    u, eta, _, field = caccioppoli_setup(512)
    H1 = u.like(np.ones(u.dims))
    r0 = px.caccioppoli_check(u, 1.0, eta, u.like(np.zeros(u.dims)), field, 1.0)
    r1 = px.caccioppoli_check(u, 1.0, eta, H1, field, 1.0)
    assert r1.source_term > 0
    assert r1.rhs > r0.rhs


@pytest.mark.parametrize("cutoff", ["hat_cutoff", "bump_cutoff"])
@pytest.mark.parametrize("rho", [np.nan, np.inf, 0.0, -1.0])
def test_cutoffs_reject_bad_rho(cutoff, rho):
    # a NaN rho gave a cutoff of zeros, and the Caccioppoli check 0 <= 0
    u = caccioppoli_setup(128)[0]
    with pytest.raises(ValueError, match="rho must be finite and positive"):
        getattr(px, cutoff)(u, [0.5], rho)

@pytest.mark.parametrize("n_axes", [2, 3])
@pytest.mark.parametrize("gamma", [1.0, -0.5])
def test_caccioppoli_matches_geometry_reference(n_axes, gamma, geometry_builds):
    u = random_grid(n_axes, seed=2)
    u = u.like(1.0 + np.abs(u.values))
    H = random_grid(n_axes, seed=3)
    eta = px.bump_cutoff(u, [0.25, 0.75, 0.1][:n_axes], 0.7)
    assert 0 < np.count_nonzero(eta.values) < eta.values.size
    field = px.affine_exponent(2.2, [0.3, -0.2, 0.1][:n_axes], u.box)
    got = px.caccioppoli_check(u, gamma, eta, H, field, C_probe=1.5)
    assert geometry_builds == [u.dims]
    want = reference_caccioppoli(u, gamma, eta, H, field, 1.5)
    for name in ("lhs", "rhs", "zero_order_term", "cutoff_term", "source_term",
                 "p_minus", "p_plus"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-13), name
    assert got.holds == want.holds


# -- local bound -----------------------------------------------------------------

def test_local_bound_trivial_and_nested():
    box = px.Box([-1.0], [1.0])
    u0 = px.GridFunction.constant(box, 64, 0.0)
    r = px.local_bound_check(u0, px.Ball([0.0], 0.2), px.Ball([0.0], 0.5), 1.0, 1.0)
    assert r.sup_inner == 0.0 and r.holds
    u5 = px.GridFunction.constant(px.Box([0.0], [1.0]), 64, 5.0)
    r5 = px.local_bound_check(u5, px.Ball([0.5], 0.2), px.Ball([0.5], 0.45), 1.0, 1.0)
    assert r5.sup_inner == 5.0
    assert r5.holds  # 5 <= 1 * (1 + ||5||_{L1} approx 4.5) on the 0.45-ball
    with pytest.raises(ValueError, match="not contained"):
        px.local_bound_check(u0, px.Ball([0.0], 0.5), px.Ball([0.4], 0.2), 1.0, 1.0)


def test_local_bound_rejects_regions_the_lattice_does_not_sample():
    # An outer ball with no cell weight used to give norm_outer 0.0 and a
    # verdict; an inner ball between the nodes has no sup.
    u = px.GridFunction.constant(px.Box([0.0, 0.0], [1.0, 1.0]), 8, 0.5)
    with pytest.raises(ValueError, match=r"radius 0\.002: no cell weight inside"):
        px.local_bound_check(u, px.Ball([0.5, 0.5], 0.001), px.Ball([0.5, 0.5], 0.002), 1.0, 1.0)
    with pytest.raises(ValueError, match=r"^ball at \[0\.51 0\.51\], radius 0\.001: no grid"):
        px.local_bound_check(u, px.Ball([0.51, 0.51], 0.001), px.Ball([0.5, 0.5], 0.3), 1.0, 1.0)


@pytest.mark.parametrize("C_probe", [np.nan, np.inf, -1.0])
def test_local_bound_rejects_bad_c_probe(C_probe):
    u = px.GridFunction.constant(px.Box([0.0], [1.0]), 64, 5.0)
    with pytest.raises(ValueError, match="C_probe must be finite and >= 0"):
        px.local_bound_check(u, px.Ball([0.5], 0.2), px.Ball([0.5], 0.45), 1.0, C_probe)


def test_local_bound_sup_norm_over_a_box():
    # t = inf takes the max of |u| over the outer region's nodes, for a box
    # as for a ball; u = 4x + y - 1 peaks at the corner (0.75, 0.75) of the box
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    u = px.GridFunction.from_callable(box, 16, lambda pts: 4.0 * pts[:, 0] + pts[:, 1] - 1.0)
    inner = px.Ball([0.5, 0.5], 0.1)
    r = px.local_bound_check(u, inner, px.Box([0.25, 0.25], [0.75, 0.75]), np.inf, 1.0)
    assert r.norm_outer == pytest.approx(2.75, rel=1e-12)
    assert r.bound_value == pytest.approx(3.75, rel=1e-12)
    ball = px.local_bound_check(u, inner, px.Ball([0.5, 0.5], 0.25), np.inf, 1.0)
    assert ball.norm_outer == lq_norm(u, np.inf, px.Ball([0.5, 0.5], 0.25))

def test_local_bound_solved_example():
    box = px.Box([0.0], [1.0])
    f = px.GridFunction.constant(box, 256, -2.0)
    field = px.constant_exponent(2.0, domain=box)
    res = px.solve_dirichlet(px.ProblemSpec(box, field, f, 0.0, reg_eps=0.0))
    r = px.local_bound_check(res.solution, px.Ball([0.5], 0.1), px.Ball([0.5], 0.4), 2.0, 1.0)
    assert r.sup_inner == pytest.approx(0.25, abs=1e-6)
    assert r.holds


# -- holder ----------------------------------------------------------------------

def test_holder_linear_exponent_one():
    box = px.Box([-1.0], [1.0])
    u = px.GridFunction.from_callable(box, 2048, lambda pts: np.abs(pts[:, 0]))
    h = 1.0 / 1024
    radii = np.array([512, 256, 128, 64, 32, 16, 8], dtype=float) * h
    tr = px.holder_estimate(u, [0.0], radii)
    assert abs(tr.fitted_exponent - 1.0) <= 0.05


def test_holder_sqrt_exponent_half():
    box = px.Box([-1.0], [1.0])
    u = px.GridFunction.from_callable(box, 2048, lambda pts: np.abs(pts[:, 0]) ** 0.5)
    h = 1.0 / 1024
    radii = np.array([512, 256, 128, 64, 32, 16, 8], dtype=float) * h
    tr = px.holder_estimate(u, [0.0], radii)
    assert abs(tr.fitted_exponent - 0.5) <= 0.05


def test_holder_constant_flag_and_errors():
    box = px.Box([-1.0], [1.0])
    u = px.GridFunction.constant(box, 256, 7.0)
    tr = px.holder_estimate(u, [0.0], [0.5, 0.25, 0.125, 0.0625])
    assert tr.constant and tr.fitted_exponent is None
    with pytest.raises(ValueError, match="4 radii"):
        px.holder_estimate(u, [0.0], [0.5, 0.25, 0.125])
    with pytest.raises(ValueError, match="decreasing"):
        px.holder_estimate(u, [0.0], [0.5, 0.5, 0.25, 0.125])
    with pytest.raises(ValueError, match="escapes"):
        px.holder_estimate(u, [0.9], [0.5, 0.25, 0.125, 0.0625])


def test_holder_oscillations_monotone_on_solution():
    box = px.Box([0.0], [1.0])
    f = px.GridFunction.constant(box, 512, -2.0)
    field = px.constant_exponent(2.0, domain=box)
    res = px.solve_dirichlet(px.ProblemSpec(box, field, f, 0.0, reg_eps=0.0))
    tr = px.holder_estimate(res.solution, [0.5], [0.4, 0.2, 0.1, 0.05, 0.025])
    assert np.all(np.diff(tr.oscillations) <= 1e-15)
    assert tr.fitted_exponent is not None


def test_holder_delta_candidate():
    assert px.holder_delta_candidate(1, np.inf, 2.0) == pytest.approx(2.0)
    assert px.holder_delta_candidate(2, 4.0, 3.0) == pytest.approx(1.25)
    # q0 > n gives delta > 1, the regime of differentiable decay
    assert px.holder_delta_candidate(2, 8.0, 2.0) > 1.0


def test_holder_floor_on_manufactured_suite():
    # solutions with bounded sources keep their oscillation-fit exponent
    # bounded away from zero; the decay candidate is recorded alongside
    cases = [
        (px.Box([0.0], [1.0]), 2.0, -2.0, 0.0, [0.3], 0.0),
        (px.Box([-1.0], [1.0]), 3.0, 1.0, 0.0, [0.5], 1e-8),
        (px.Box([0.0], [1.0]), 4.0, 0.0, lambda p: p[:, 0], [0.5], 1e-8),
    ]
    radii = [0.2, 0.1, 0.05, 0.025, 0.0125]
    for box, p0, fc, bdry, center, reg in cases:
        f = px.GridFunction.constant(box, 512, fc)
        field = px.constant_exponent(p0, domain=box)
        res = px.solve_dirichlet(px.ProblemSpec(box, field, f, bdry, reg_eps=reg))
        assert res.converged
        tr = px.holder_estimate(res.solution, center, radii)
        assert tr.fitted_exponent is not None and tr.fitted_exponent >= 0.5
        delta = px.holder_delta_candidate(1, np.inf, p0)
        assert delta > 0.0
