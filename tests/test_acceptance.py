"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is sized to finish within a five-minute budget on a
laptop.
"""

import time

import numpy as np

import pxlap as px

_T0 = time.monotonic()


def _report(num, name, ok):
    print(f"\n[ACCEPTANCE] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")


def solve_const_p(lo, hi, cells, p, f_const, dirichlet, **kw):
    box = px.Box([lo], [hi])
    f = px.GridFunction.constant(box, cells, f_const)
    field = px.constant_exponent(p, domain=box)
    kw.setdefault("tol", 1e-9)
    res = px.solve_dirichlet(px.ProblemSpec(box, field, f, dirichlet, **kw))
    assert res.converged, res.message
    return res


def rel_err(res, exact_fn):
    x = res.solution.nodes()[:, 0]
    exact = exact_fn(x)
    return np.abs(res.solution.values - exact).max() / np.abs(exact).max()


def test_criterion_1_solver_oracle_equivalence():
    ok = False
    try:
        t_start = time.monotonic()
        # p = 2, f = -2, u = x(1-x): h = 1/256 and one refinement
        errs2 = [rel_err(solve_const_p(0.0, 1.0, c, 2.0, -2.0, 0.0, reg_eps=0.0),
                         lambda x: x * (1 - x)) for c in (256, 512)]
        assert errs2[0] <= 1e-3
        # p = 4, f = 0, linear boundary data: u = x at h = 1/512
        errs4 = [rel_err(solve_const_p(0.0, 1.0, c, 4.0, 0.0, lambda p: p[:, 0],
                                       reg_eps=1e-8), lambda x: x)
                 for c in (256, 512)]
        assert errs4[1] <= 1e-2
        # p = 3, f = 1 on (-1, 1): u = (2/3)(|x|^(3/2) - 1) at h = 1/512
        exact3 = lambda x: (2.0 / 3.0) * (np.abs(x) ** 1.5 - 1.0)
        errs3 = [rel_err(solve_const_p(-1.0, 1.0, 2 * c, 3.0, 1.0, 0.0, reg_eps=1e-8),
                         exact3) for c in (256, 512)]
        assert errs3[1] <= 1e-2

        # observed order over the refinement, at least 0.9 of nominal
        # (nominal 2 for p = 2, 1 otherwise).  The p = 2 and p = 4 solutions
        # are reproduced identically by the scheme (errors at solver
        # tolerance), which counts as attaining any order.
        for errs, nominal in ((errs2, 2.0), (errs4, 1.0), (errs3, 1.0)):
            if max(errs) < 1e-8:
                continue
            order = np.log2(errs[0] / errs[1])
            assert order >= 0.9 * nominal, f"order {order} < 0.9 * {nominal}"

        assert time.monotonic() - t_start <= 300.0
        ok = True
    finally:
        _report(1, "solver oracle equivalence", ok)


def test_criterion_2_luxemburg_norm():
    ok = False
    try:
        cfg = px.NormConfig(bisection_tol=1e-12, max_iter=400)
        # constant-p agreement with the classical quadrature norm
        rng = np.random.default_rng(0)
        box = px.Box([0.0], [1.0])
        vals = rng.random(129) + 0.25
        u = px.GridFunction(129, [0.0], [1.0 / 128], vals)
        mid = 0.5 * (vals[:-1] + vals[1:])  # the midpoint rule on cells of width 1/128
        for p0 in (1.5, 2.0, 3.0, 4.5):
            classical = float(np.sum(np.abs(mid) ** p0 / 128) ** (1.0 / p0))
            lux = px.luxemburg_norm(u, px.constant_exponent(p0), cfg)
            assert abs(lux - classical) / classical <= 1e-8

        # piecewise p in {2, 4}: the quartic root sqrt(2 / (sqrt(5) - 1))
        g = px.GridFunction.constant(px.Box([0.0], [2.0]), 256, 1.0)
        field24 = px.piecewise_exponent(0, 1.0, 2.0, 4.0)
        root = float(np.sqrt(2.0 / (np.sqrt(5.0) - 1.0)))
        assert abs(px.luxemburg_norm(g, field24, cfg) - root) <= 1e-6

        # homogeneity over random scales
        w = px.GridFunction.from_callable(box, 128, lambda p: np.sin(4 * p[:, 0]) + 1.5)
        fvar = px.affine_exponent(1.7, [1.1], box)
        base = px.luxemburg_norm(w, fvar, cfg)
        for t in rng.uniform(1e-2, 1e2, size=12):
            scaled = px.luxemburg_norm(w.like(t * w.values), fvar, cfg)
            assert abs(scaled - t * base) <= 1e-8 * max(1.0, t * base)
        ok = True
    finally:
        _report(2, "luxemburg norm", ok)


def test_criterion_3_harnack_harness(tmp_path):
    ok = False
    try:
        # manufactured positive p = 2 solution
        box = px.Box([0.0], [1.0])
        cells = 512
        f = px.GridFunction.constant(box, cells, -2.0)
        field = px.constant_exponent(2.0, domain=box)
        res = px.solve_dirichlet(px.ProblemSpec(box, field, f, 0.0, reg_eps=0.0, tol=1e-10))
        u = res.solution

        # c_emp stability over R, R/2, R/4
        stab = px.harnack_stability(u, f, [0.5], 0.1, np.inf, field)
        assert stab["drift"] <= 2.0 and not stab["anomalous"]

        # scale invariance of sup/(inf + R mu) under (u, f) -> (t u, t^(p-1) f)
        ball = px.Ball([0.5], 0.1)
        ratios = []
        for t in (0.1, 1.0, 10.0, 100.0):
            mu = px.harnack_mu(f.like(np.abs(t * f.values)), ball, np.inf, field)
            rep = px.harnack_check(u.like(t * u.values), ball, mu)
            ratios.append(px.scale_invariant_ratio(rep))
        for r in ratios[1:]:
            assert abs(r - ratios[0]) <= 1e-9 * ratios[0]

        # variable-p dependence probe writes a monotone trend file
        pfield = px.piecewise_exponent(0, 0.5, 2.0, 3.0, domain=box)
        fz = px.GridFunction.constant(box, 256, 0.0)
        vres = px.solve_dirichlet(px.ProblemSpec(box, pfield, fz,
                                                 lambda p: 1.0 + p[:, 0], reg_eps=1e-8))
        assert vres.converged
        rows = px.dependence_probe(vres.solution, px.Ball([0.5], 0.1), [1, 4, 16, 64])
        trend = px.write_trend_csv(rows, ["k", "c_emp"], tmp_path / "dependence_trend.csv")
        assert trend.exists()
        cs = [c for _, c in rows]
        assert all(a <= b for a, b in zip(cs, cs[1:])), "trend not monotone"
        ok = True
    finally:
        _report(3, "harnack harness", ok)


def test_criterion_4_holder_recovery():
    ok = False
    try:
        box = px.Box([-1.0], [1.0])
        h = 1.0 / 1024
        ks = np.unique(np.round(np.geomspace(8, 800, 14)).astype(int))[::-1]
        radii = ks * h  # spans two decades, radii on exact grid multiples
        assert radii[0] / radii[-1] >= 100.0
        for beta in (0.25, 0.5, 0.75, 1.0):
            u = px.GridFunction.from_callable(
                box, 2048, lambda p: np.abs(p[:, 0]) ** beta)
            tr = px.holder_estimate(u, [0.0], radii)
            assert abs(tr.fitted_exponent - beta) <= 0.05, \
                f"beta {beta}: fitted {tr.fitted_exponent}"
        ok = True
    finally:
        _report(4, "holder exponent recovery", ok)


def test_criterion_5_barrier_threshold():
    ok = False
    try:
        # p = 2, n = 2: sign change brackets 2n = 4 within +-0.01
        f2 = px.constant_exponent(2.0)
        base = px.BarrierParams([0.0, 0.0], 1.0, 2.0, 1.0)
        lo, hi = px.bracket_subsolution_mu(base, f2, 2.0, 8.0, 0.02, width=0.004)
        assert abs(lo - 4.0) <= 0.01 and abs(hi - 4.0) <= 0.01

        # Lipschitz p with |grad p| <= 0.05, p inside [1.5, 3]: some mu <= 64
        # gives a subsolution at delta = 0.1
        box = px.Box([-1.0, -1.0], [1.0, 1.0])
        field = px.affine_exponent(2.0, [0.05, 0.0], box)
        tmpl = px.BarrierParams([0.0, 0.0], 0.1, 8.0, 1.0)
        sweep = px.subsolution_mu_sweep(tmpl, field, [8, 16, 32, 64], 0.0025,
                                        tol=1e-10)
        assert any(hit for _, _, hit in sweep)
        ok = True
    finally:
        _report(5, "barrier subsolution threshold", ok)


def test_criterion_6_gaussian_bound_linearity():
    ok = False
    try:
        f2 = px.constant_exponent(2.0)
        for mu in (4.0, 8.0, 16.0):
            scan = px.gaussian_lower_bound_scan(1.0, mu, f2, (0.5, 1.0), 0.025,
                                                center=[0.0, 0.0])
            assert abs(scan.lhs_min - 2.0 * (mu / 2.0 - 2.0)) <= 1e-6
        box = px.Box([-2.0, -2.0], [2.0, 2.0])
        fvar = px.affine_exponent(2.0, [0.05, 0.0], box)
        mus = np.array([8.0, 16.0, 32.0, 64.0])
        mins = [px.gaussian_lower_bound_scan(1.0, m, fvar, (0.5, 1.0), 0.025).lhs_min
                for m in mus]
        assert np.polyfit(mus, mins, 1)[0] > 0
        ok = True
    finally:
        _report(6, "normalized operator linearity in mu", ok)


def test_criterion_7_maximum_principle_suite():
    ok = False
    try:
        box = px.Box([0.0, 0.0], [1.0, 1.0])
        field = px.constant_exponent(2.0, domain=box)
        for cells in (16, 32):
            f = px.GridFunction.constant(box, cells, 0.0)
            bdry = lambda p: np.maximum(0.0, p[:, 0] - 0.5)
            res = px.solve_dirichlet(px.ProblemSpec(box, field, f, bdry,
                                                    reg_eps=0.0, tol=1e-10))
            out = px.strong_max_principle_check(res.solution, 2.0 / cells)
            assert out.classification == "strictly_positive", (cells, out)

        zero = px.GridFunction.constant(box, 16, 0.0)
        assert px.strong_max_principle_check(zero, 0.2).classification == "identically_zero"

        pos = px.GridFunction.from_callable(box, 32, lambda p: 0.5 + p[:, 0])
        vals = pos.values.copy()
        vals[14:18, 14:18] = 0.0
        assert px.strong_max_principle_check(pos.like(vals), 0.1).classification == "violation"

        cone_box = px.Box([-1.0, -1.0], [1.0, 1.0])
        cone = px.GridFunction.from_callable(
            cone_box, 64, lambda p: 1.0 - np.linalg.norm(p, axis=1))
        hop = px.hopf_slope(cone, [1.0, 0.0], [-1.0, 0.0],
                            [1.0 / 32, 2.0 / 32, 4.0 / 32])
        assert hop.c0_estimate == 1.0  # exactly
        ok = True
    finally:
        _report(7, "maximum principle suite", ok)


def test_criterion_8_caccioppoli_exact():
    ok = False
    try:
        # u = 1 + x, gamma = 1, p = 2, hat cutoff at 0.5 of width 1/4, H = 0.
        # Exact integrals: lhs = int eta^2 = 2 rho/3 = 1/6 (since |u'| = 1),
        # zero-order term = 1/6, cutoff term = (1/rho^2) int_{1.25}^{1.75}
        # t^2 dt = 16 (1.75^3 - 1.25^3)/3 = 54.5/3.  The two sides agree with
        # C = 0 already, so C = 1 is an analytically sufficient probe.
        box = px.Box([0.0], [1.0])
        u = px.GridFunction.from_callable(box, 4096, lambda p: 1.0 + p[:, 0])
        eta = px.hat_cutoff(u, [0.5], 0.25)
        H = u.like(np.zeros(u.dims))
        field = px.constant_exponent(2.0, domain=box)
        lhs_exact = 1.0 / 6.0
        cutoff_exact = 54.5 / 3.0
        c_sufficient = 1.0
        r = px.caccioppoli_check(u, 1.0, eta, H, field, C_probe=c_sufficient)
        assert abs(r.lhs - lhs_exact) <= 1e-6
        assert abs(r.zero_order_term - lhs_exact) <= 1e-6
        assert abs(r.cutoff_term - cutoff_exact) <= 1e-6
        assert abs(r.rhs - (lhs_exact + c_sufficient * cutoff_exact)) <= 2e-6
        assert r.holds
        ok = True
    finally:
        _report(8, "caccioppoli estimate", ok)


def test_criterion_9_structure_checker():
    ok = False
    try:
        box = px.Box([0.0], [1.0])
        like = px.GridFunction.constant(box, 16, 0.0)
        field = px.affine_exponent(1.8, [1.0], box)
        samples = px.structure_sample_lattice(like, 1.0, seed=0)

        # model flux passes (1)(2)(3) with zero violations
        bounds = px.StructureBounds.constants(like, field, alpha=1.0, k1=1.0, m0=1.0)
        pair = px.p_laplacian_flux(field)
        assert px.check_conditions(pair, bounds, field, samples).ok

        # exponential sub-transform keeps (1) with alpha e^(-(b/alpha) m0)
        # sample-wise within 1e-12 relative slack
        bt = px.StructureBounds.constants(like, field, alpha=1.0, k1=1.0, m0=1.0, b=0.5)
        sub = px.exponential_transform(pair, bt, "sub")
        alpha_new = bt.alpha * np.exp(-(bt.b / bt.alpha) * bt.m0)
        rep = px.check_conditions(sub, bt, field, samples, conditions=("1",),
                                  alpha_override=alpha_new)
        assert rep.ok, rep.violations[:3]

        # constructed violations are caught
        r_zero = px.check_conditions(px.zero_flux(), bounds, field, samples)
        n_nonzero = int(np.count_nonzero(np.linalg.norm(samples.gradients, axis=1) > 0))
        assert len([v for v in r_zero.violations if v.condition == "1"]) == n_nonzero

        def B_bad(pts, s, xi):
            return 2.0 * np.linalg.norm(xi, axis=1) ** field(pts)

        bb = px.StructureBounds.constants(like, field, alpha=1.0, k1=1.0, m0=1.0, b=1.0)
        r_bad = px.check_conditions_natural_growth(
            px.FluxPair(pair.A, B_bad), bb, field, samples)
        assert len(r_bad.violations) == samples.size
        ok = True
    finally:
        _report(9, "structure condition checker", ok)


def test_total_runtime_budget():
    # the whole acceptance module must fit the five-minute budget
    elapsed = time.monotonic() - _T0
    print(f"\n[ACCEPTANCE] total elapsed: {elapsed:.1f}s")
    assert elapsed <= 300.0
