import dataclasses

import numpy as np
import pytest

import pxlap as px
from conftest import STRUCTURE_COEFFICIENTS, reference_mu_general, reference_structure_check


def setup_1d(p_lo=1.8, p_slope=1.0, cells=16):
    box = px.Box([0.0], [1.0])
    like = px.GridFunction.constant(box, cells, 0.0)
    field = px.affine_exponent(p_lo, [p_slope], box)
    return box, like, field


def test_bounds_validation():
    box, like, field = setup_1d()
    with pytest.raises(ValueError, match="alpha"):
        px.StructureBounds.constants(like, field, alpha=0.0, m0=1.0)
    with pytest.raises(ValueError, match="q2"):
        px.StructureBounds.constants(like, field, alpha=1.0, m0=1.0, q2=1.0)
    with pytest.raises(ValueError, match="q0"):
        # n/(p1-1) = 1/0.8 = 1.25, so q0 = 1.2 is inadmissible
        px.StructureBounds.constants(like, field, alpha=1.0, m0=1.0, q0=1.2)
    with pytest.raises(ValueError, match="nonnegative"):
        px.StructureBounds(like, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0,
                           np.inf, np.inf, np.inf, np.inf)


@pytest.mark.parametrize("name,value",
                         [(n, v) for n in ("alpha", "m0", "b") + STRUCTURE_COEFFICIENTS
                          for v in (np.nan, np.inf, -1.0)] + [("alpha", 0.0)])
def test_scalars_must_be_finite_and_in_range(name, value):
    # b = nan would make every natural-growth bound nan and hide violations
    _, like, field = setup_1d()
    kw = {"alpha": 1.0, name: value}
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        px.StructureBounds.constants(like, field, **kw)


def test_bounds_are_frozen():
    _, like, field = setup_1d()
    bounds = px.StructureBounds.constants(like, field, alpha=1.0, m0=1.0)
    assert isinstance(bounds.k1, float)
    with pytest.raises(dataclasses.FrozenInstanceError):
        bounds.alpha = float("inf")


@pytest.mark.parametrize("which,value", [("A", np.nan), ("B", np.nan), ("B", np.inf)])
def test_non_finite_flux_is_an_error(which, value):
    _, like, field = setup_1d()
    bounds = px.StructureBounds.constants(like, field, alpha=1.0, k1=1.0, m0=1.0)
    samples = px.structure_sample_lattice(like, 1.0)
    base = px.p_laplacian_flux(field)

    def spoiled(fn):
        def out(pts, s, xi):
            vals = np.array(fn(pts, s, xi), dtype=float)
            vals[3] = value
            return vals
        return out

    pair = px.FluxPair(spoiled(base.A), base.B) if which == "A" \
        else px.FluxPair(base.A, spoiled(base.B))
    with pytest.raises(ValueError, match=f"flux {which} is not finite at sample 3"):
        px.check_conditions(pair, bounds, field, samples)


def _all_coefficient_case(n_axes):
    box = px.Box([0.0] * n_axes, [1.0, 0.7][:n_axes])
    like = px.GridFunction.constant(box, (12, 9)[:n_axes], 0.0)
    field = px.affine_exponent(1.8, [0.6, -0.3][:n_axes], box)
    bounds = px.StructureBounds.constants(like, field, alpha=1.0, g0=0.3, g1=0.2,
                                          f_src=0.4, c0=0.5, c1=0.6, c2=0.7,
                                          k1=0.8, k2=0.9, m0=1.0, b=0.05)

    def B(pts, s, xi):
        return 0.3 + 0.5 * np.abs(s) + 1.2 * np.linalg.norm(xi, axis=1) ** (field(pts) - 1.0)

    pair = px.FluxPair(px.structure.scaled_flux(field, 0.85).A, B)
    return like, field, bounds, pair


@pytest.mark.parametrize("n_axes", [1, 2])
@pytest.mark.parametrize("natural_growth", [False, True])
def test_check_matches_grid_coefficient_reference(n_axes, natural_growth):
    like, field, bounds, pair = _all_coefficient_case(n_axes)
    samples = px.structure_sample_lattice(like, 1.0, seed=5)
    check = px.check_conditions_natural_growth if natural_growth else px.check_conditions
    rep = check(pair, bounds, field, samples)
    violations, max_slack = reference_structure_check(pair, bounds, field, samples,
                                                      natural_growth)
    for name in max_slack:  # every condition holds on some samples and fails on others
        assert 0 < sum(c == name for c, _ in violations) < samples.size
    assert [(v.condition, v.index) for v in rep.violations] == violations
    assert rep.max_slack == pytest.approx(max_slack, rel=1e-12)


@pytest.mark.parametrize("natural_growth", [False, True])
def test_violation_records_are_the_samples_they_name(natural_growth):
    # Each condition's records are gathered at once from its violating
    # indices; they must hold what a per-sample loop read: the condition's
    # sides and slack as Python floats, x and xi as the sample's rows, in
    # the reference's list and order.  With k1 = 0, (2) fails at every
    # sample with A != 0.
    like, field, _, pair = _all_coefficient_case(2)
    bounds = dataclasses.replace(_all_coefficient_case(2)[2], k1=0.0)
    samples = px.structure_sample_lattice(like, 1.0, seed=3)
    check = px.check_conditions_natural_growth if natural_growth else px.check_conditions
    rep = check(pair, bounds, field, samples)
    violations, _ = reference_structure_check(pair, bounds, field, samples, natural_growth)
    assert [(v.condition, v.index) for v in rep.violations] == violations
    assert sum(v.condition == "2" for v in rep.violations) > samples.size // 2
    for v in rep.violations:
        i = v.index
        assert type(i) is int and all(type(f) is float for f in (v.s, v.lhs, v.rhs, v.slack))
        assert np.array_equal(v.x, samples.points[i]) and np.array_equal(v.xi, samples.gradients[i])
        assert v.s == samples.states[i]
        assert v.slack == (v.rhs - v.lhs if v.condition == "1" else v.lhs - v.rhs) > 0


def test_k1_zero_report_equals_records_built_one_by_one():
    # The report builds a record when it is read.  Each one read, by
    # iteration, index or slice, equals the Violation built here per sample
    # from the conditions' sides: field by field, in type and value, and it
    # stays frozen.  With k1 = 0, (2) fails at most samples and (1) and (3)
    # at some, so the records run over three conditions.
    like, field, _, pair = _all_coefficient_case(2)
    bounds = dataclasses.replace(_all_coefficient_case(2)[2], k1=0.0)
    samples = px.structure_sample_lattice(like, 1.0, seed=3)
    rep = px.check_conditions(pair, bounds, field, samples)
    pts, s, xi = samples.points, samples.states, samples.gradients
    p, A, B = field(pts), pair.A(pts, s, xi), pair.B(pts, s, xi)
    xin, abs_s = np.linalg.norm(xi, axis=1), np.abs(s)
    b = bounds
    sides = [("1", np.sum(A * xi, axis=1), b.alpha * xin**p - b.c0 * abs_s**p - b.g0),
             ("2", np.linalg.norm(A, axis=1),
              b.g1 + b.c1 * abs_s ** (p - 1.0) + b.k1 * xin ** (p - 1.0)),
             ("3", np.abs(B), b.f_src + b.c2 * abs_s ** (p - 1.0) + b.k2 * xin ** (p - 1.0))]
    ref = []
    for name, lhs, rhs in sides:
        slack = rhs - lhs if name == "1" else lhs - rhs
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        for i in range(samples.size):
            if slack[i] > 1e-12 + 1e-12 * scale[i]:
                ref.append(px.structure.Violation(
                    name, i, pts[i].copy(), float(s[i]), xi[i].copy(), float(lhs[i]),
                    float(rhs[i]), float(slack[i])))
    assert {v.condition for v in ref} == {"1", "2", "3"}
    fields = [f.name for f in dataclasses.fields(px.structure.Violation)]
    assert fields == ["condition", "index", "x", "s", "xi", "lhs", "rhs", "slack"]
    assert len(rep.violations) == len(ref) and not rep.ok
    picks = [0, len(ref) // 2, len(ref) - 1, -1]
    for got in (list(rep.violations), [rep.violations[k] for k in range(len(ref))],
                rep.violations[::-1][::-1]):
        for v, r in zip(got, ref, strict=True):
            for name in fields:
                a, b = getattr(v, name), getattr(r, name)
                assert type(a) is type(b)
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
    assert [rep.violations[k].index for k in picks] == [ref[k].index for k in picks]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.violations[0].slack = 0.0
    with pytest.raises(IndexError):
        rep.violations[len(ref)]


def test_structure_check_makes_no_interp_call(monkeypatch):
    like, field, bounds, pair = _all_coefficient_case(2)
    samples = px.structure_sample_lattice(like, 1.0)
    calls = []
    interp = px.GridFunction.interp

    def counted(self, pts):
        calls.append(self.dims)
        return interp(self, pts)

    monkeypatch.setattr(px.GridFunction, "interp", counted)
    px.check_conditions(pair, bounds, field, samples)
    px.check_conditions_natural_growth(pair, bounds, field, samples)
    assert calls == []


def test_p_laplacian_flux_passes_all_conditions():
    _, like, field = setup_1d()
    bounds = px.StructureBounds.constants(like, field, alpha=1.0, k1=1.0, m0=1.0)
    samples = px.structure_sample_lattice(like, 1.0, seed=0)
    rep = px.check_conditions(px.p_laplacian_flux(field), bounds, field, samples)
    assert rep.ok
    assert rep.n_samples == samples.size


def test_source_bound_with_grid_f():
    # B pulled from a grid file stays under the f term of condition (3)
    _, like, field = setup_1d()
    fgrid = like.like(np.full(like.dims, 2.0))
    pair = px.structure.grid_source(px.p_laplacian_flux(field), fgrid)
    bounds = px.StructureBounds.constants(like, field, alpha=1.0, k1=1.0,
                                          f_src=2.0, m0=1.0)
    samples = px.structure_sample_lattice(like, 1.0)
    assert px.check_conditions(pair, bounds, field, samples).ok


def test_zero_flux_violates_ellipticity_everywhere():
    _, like, field = setup_1d()
    bounds = px.StructureBounds.constants(like, field, alpha=1.0, m0=1.0)
    samples = px.structure_sample_lattice(like, 1.0, seed=1)
    rep = px.check_conditions(px.zero_flux(), bounds, field, samples)
    viol_1 = [v for v in rep.violations if v.condition == "1"]
    n_nonzero = int(np.count_nonzero(np.linalg.norm(samples.gradients, axis=1) > 0))
    assert len(viol_1) == n_nonzero
    # report carries both sides and positive slack
    v = viol_1[0]
    assert v.slack > 0 and v.rhs > v.lhs


def test_state_bound_enforced():
    _, like, field = setup_1d()
    bounds = px.StructureBounds.constants(like, field, alpha=1.0, k1=1.0, m0=0.5)
    bad = px.SampleSet(np.array([[0.5]]), np.array([0.7]), np.array([[1.0]]))
    with pytest.raises(ValueError, match="exceeds m0"):
        px.check_conditions(px.p_laplacian_flux(field), bounds, field, bad)


def test_natural_growth_reduces_to_plain_when_b_zero():
    _, like, field = setup_1d()
    bounds = px.StructureBounds.constants(like, field, alpha=1.0, k1=1.0, m0=1.0, b=0.0)

    def B(pts, s, xi):
        return 0.3 * np.linalg.norm(xi, axis=1) ** (field(pts) - 1.0)

    pair = px.FluxPair(px.p_laplacian_flux(field).A, B)
    samples = px.structure_sample_lattice(like, 1.0, seed=2)
    r_plain = px.check_conditions(pair, bounds, field, samples)
    r_ng = px.check_conditions_natural_growth(pair, bounds, field, samples)
    # sample for sample identical outcome when b = 0 (k2 = 0 here so both violate)
    assert len(r_plain.violations) == len(r_ng.violations)
    for a, b in zip(r_plain.violations, r_ng.violations):
        assert a.index == b.index and a.slack == pytest.approx(b.slack, rel=1e-15)


def test_natural_growth_gradient_power_term():
    _, like, field = setup_1d()
    bounds = px.StructureBounds.constants(like, field, alpha=1.0, k1=1.0, m0=1.0, b=1.0)
    samples = px.structure_sample_lattice(like, 1.0, seed=3)

    def B_ok(pts, s, xi):
        return np.linalg.norm(xi, axis=1) ** field(pts)

    def B_bad(pts, s, xi):
        return 2.0 * np.linalg.norm(xi, axis=1) ** field(pts)

    pair_ok = px.FluxPair(px.p_laplacian_flux(field).A, B_ok)
    pair_bad = px.FluxPair(px.p_laplacian_flux(field).A, B_bad)
    assert px.check_conditions_natural_growth(pair_ok, bounds, field, samples).ok
    rep = px.check_conditions_natural_growth(pair_bad, bounds, field, samples)
    assert not rep.ok
    # the excess shows at every nonzero gradient sample
    assert all(v.condition == "3'" for v in rep.violations)


def test_exponential_transform_factors():
    _, like, field = setup_1d()
    pair = px.p_laplacian_flux(field)
    pts = np.array([[0.5]])
    xi = np.array([[2.0]])
    # b = 0: identity
    b0 = px.StructureBounds.constants(like, field, alpha=1.0, m0=1.0, b=0.0)
    t0 = px.exponential_transform(pair, b0, "sub")
    assert np.allclose(t0.A(pts, np.array([0.3]), xi), pair.A(pts, np.array([0.3]), xi))
    # s = m0: factor one
    b1 = px.StructureBounds.constants(like, field, alpha=1.0, m0=1.0, b=0.7)
    t1 = px.exponential_transform(pair, b1, "sub")
    assert np.allclose(t1.A(pts, np.array([1.0]), xi), pair.A(pts, np.array([1.0]), xi))
    # b = alpha, m0 = 1, s = 0, sub: factor e^-1
    t2 = px.exponential_transform(pair, px.StructureBounds.constants(
        like, field, alpha=1.0, m0=1.0, b=1.0), "sub")
    got = t2.A(pts, np.array([0.0]), xi)
    assert np.allclose(got, np.exp(-1.0) * pair.A(pts, np.array([0.0]), xi), rtol=1e-15)
    # super direction is the reciprocal rescale
    t3 = px.exponential_transform(pair, px.StructureBounds.constants(
        like, field, alpha=1.0, m0=1.0, b=1.0), "super")
    got3 = t3.A(pts, np.array([0.0]), xi)
    assert np.allclose(got3, np.exp(1.0) * pair.A(pts, np.array([0.0]), xi), rtol=1e-15)
    with pytest.raises(ValueError, match="direction"):
        px.exponential_transform(pair, b1, "down")


def test_sub_transform_keeps_ellipticity_with_reduced_alpha():
    _, like, field = setup_1d()
    bounds = px.StructureBounds.constants(like, field, alpha=1.0, k1=1.0, m0=1.0, b=0.5)
    sub = px.exponential_transform(px.p_laplacian_flux(field), bounds, "sub")
    samples = px.structure_sample_lattice(like, 1.0, seed=0)
    alpha_new = bounds.alpha * np.exp(-(bounds.b / bounds.alpha) * bounds.m0)
    rep = px.check_conditions(sub, bounds, field, samples, conditions=("1",),
                              alpha_override=alpha_new)
    assert rep.ok


def test_mu_general_zero_and_substitution():
    box = px.Box([-1.0, -1.0], [1.0, 1.0])
    like = px.GridFunction.constant(box, 32, 0.0)
    field = px.constant_exponent(2.0, domain=box)
    b0 = px.StructureBounds.constants(like, field, alpha=1.0, m0=1.0)
    assert px.mu_general(b0, px.Ball([0.0, 0.0], 0.2), field) == 0.0
    # q2 = inf, p = 2, R = 1/4, |f| = 4: mu = (R * 4)^(1/(2-1)) = 1
    b1 = px.StructureBounds.constants(like, field, alpha=1.0, m0=1.0, f_src=4.0)
    assert px.mu_general(b1, px.Ball([0.0, 0.0], 0.25), field) == pytest.approx(1.0, rel=1e-12)
    # n = 2, q2 = 2: exponent 1 - n/q2 = 0, so mu = ||1||_{L2(B_1)} = sqrt(pi)
    b2 = px.StructureBounds.constants(like, field, alpha=1.0, m0=1.0, f_src=1.0, q2=2.0)
    mu = px.mu_general(b2, px.Ball([0.0, 0.0], 0.25), field)
    assert mu == pytest.approx(np.sqrt(np.pi), rel=5e-3)


@pytest.mark.parametrize("n_axes", [1, 2])
@pytest.mark.parametrize("q", [2.0, 4.0, np.inf])
def test_mu_general_matches_grid_reference(n_axes, q):
    box = px.Box([-1.0] * n_axes, [1.0] * n_axes)
    like = px.GridFunction.constant(box, (64, 24)[:n_axes], 0.0)
    field = px.affine_exponent(2.6, [0.2, 0.1][:n_axes], box)
    bounds = px.StructureBounds.constants(like, field, alpha=1.0, m0=1.0, g0=0.7,
                                          g1=1.3, f_src=2.1, q0=q, q1=q, q2=q)
    ball = px.Ball([0.05] * n_axes, 0.2)
    mu = px.mu_general(bounds, ball, field)
    assert mu > 0
    assert mu == pytest.approx(reference_mu_general(bounds, ball, field), rel=1e-12)


def test_mu_general_monotone_in_norms():
    box = px.Box([-1.0], [1.0])
    like = px.GridFunction.constant(box, 64, 0.0)
    field = px.constant_exponent(2.0, domain=box)
    ball = px.Ball([0.0], 0.2)
    prev = -1.0
    for c in (0.5, 1.0, 2.0):
        b = px.StructureBounds.constants(like, field, alpha=1.0, m0=1.0,
                                         f_src=c, g0=c, g1=c)
        mu = px.mu_general(b, ball, field)
        assert mu > prev
        prev = mu


def test_mu_general_bounded_power_across_radii():
    # mu^(p_plus - p_minus) stays bounded over shrinking radii for a
    # log-Hoelder (here Lipschitz) exponent field.
    box = px.Box([-1.0], [1.0])
    like = px.GridFunction.constant(box, 256, 0.0)
    field = px.affine_exponent(2.0, [0.5], box)
    vals = []
    for R in (0.25, 0.125, 0.0625, 0.03125):
        ball = px.Ball([0.0], R)
        b = px.StructureBounds.constants(like, field, alpha=1.0, m0=1.0, g0=1.0, q0=4.0)
        mu = px.mu_general(b, ball, field)
        nodes = like.nodes()
        inside = ball.dilate(4.0).contains(nodes)
        p = field(nodes[inside])
        vals.append(mu ** (p.max() - p.min()))
    assert max(vals) <= 10.0


def test_mu_general_dilate_escape():
    box = px.Box([-1.0], [1.0])
    like = px.GridFunction.constant(box, 32, 0.0)
    field = px.constant_exponent(2.0, domain=box)
    b = px.StructureBounds.constants(like, field, alpha=1.0, m0=1.0, f_src=1.0)
    with pytest.raises(ValueError, match="escapes"):
        px.mu_general(b, px.Ball([0.8], 0.25), field)


def test_mu_general_dilate_without_nodes():
    # The 4R dilate [0.009, 0.017] falls between the nodes 0 and 1/16.
    box = px.Box([-1.0], [1.0])
    like = px.GridFunction.constant(box, 32, 0.0)
    field = px.constant_exponent(2.0, domain=box)
    b = px.StructureBounds.constants(like, field, alpha=1.0, f_src=1.0)
    with pytest.raises(ValueError, match=r"ball at \[0\.013\], radius 0\.001: no grid nodes inside"):
        px.mu_general(b, px.Ball([0.013], 0.001), field)


@pytest.mark.parametrize("name, value, least", [
    ("max_nodes", 0, 1), ("n_radii", 0, 1), ("n_dir", 0, 1), ("n_dir", 2.5, 1),
    ("n_states", -1, 0),
])
def test_sample_lattice_rejects_bad_counts(name, value, least):
    # max_nodes = 0 divided by zero; n_radii = 0 or n_dir = 0 built no sample
    # and the check passed over none
    _, like, _ = setup_1d()
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= {least}, got {value}$"):
        px.structure_sample_lattice(like, 1.0, **{name: value})
    assert np.all(px.structure_sample_lattice(like, 1.0, n_states=0).states == 0.0)


def test_sample_lattice_deterministic():
    _, like, _ = setup_1d()
    s1 = px.structure_sample_lattice(like, 1.0, seed=42)
    s2 = px.structure_sample_lattice(like, 1.0, seed=42)
    assert np.array_equal(s1.points, s2.points)
    assert np.array_equal(s1.gradients, s2.gradients)
    s3 = px.structure_sample_lattice(like, 1.0, seed=43)
    assert not np.array_equal(s3.gradients, s1.gradients)
    # states stay within [0, m0], gradients span the decade ladder
    assert s1.states.min() == 0.0 and s1.states.max() <= 1.0
    mags = np.linalg.norm(s1.gradients, axis=1)
    assert mags.min() == pytest.approx(1e-3) and mags.max() == pytest.approx(1e3)
