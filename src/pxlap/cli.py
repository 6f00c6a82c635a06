"""Batch front end: solve problems and run verification checks from configs.

Subcommands: solve, verify, norm, barrier-scan, structure-check.  Configs
are JSON (key set in the README); command-line flags override config values,
never the other way round.  Exit status 0 means every requested check ran
without error; measured inequalities do not fail a run, hard invariant
violations and missing files do.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import barriers as bar
from . import config as cf
from . import harnack as hk
from . import structure as st
from .grid import Ball, read_gridfunction, write_gridfunction
from .norms import luxemburg_norm, modular, sobolev_norm
from .reports import CheckRecord, write_reports
from .solver import solve_dirichlet

EXIT_OK, EXIT_CHECK, EXIT_USAGE = 0, 1, 2

# Every check kind of a verify config, and whether it runs on the solution of
# the config's problem.
CHECKS = {"harnack": True, "weak-harnack": True, "caccioppoli": True, "holder": True,
          "local-bound": True, "barrier": False, "max-principle": True, "hopf": True,
          "structure": False, "norm": True}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="pxlap", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve the configured Dirichlet problem")
    ps.add_argument("config")
    _common(ps)

    pv = sub.add_parser("verify", help="run the configured checks and write reports")
    pv.add_argument("config")
    _common(pv)

    pn = sub.add_parser("norm", help="variable-exponent norms of a grid file")
    pn.add_argument("grid")
    pn.add_argument("--exponent", required=True, help="JSON exponent config")
    pn.add_argument("--output", default=None)

    pb = sub.add_parser("barrier-scan", help="subsolution scan of the annulus barrier")
    pb.add_argument("--center", required=True, help="comma-separated coordinates")
    pb.add_argument("--delta", type=float, required=True)
    pb.add_argument("--mu", type=float, required=True)
    pb.add_argument("--a-level", type=float, default=1.0)
    pb.add_argument("--resolution", type=float, default=0.01)
    pb.add_argument("--exponent", required=True, help="JSON exponent config")
    pb.add_argument("--output", default=None)

    pc = sub.add_parser("structure-check", help="structure conditions for a flux config")
    pc.add_argument("config")
    _common(pc)

    args = ap.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "norm":
            return _cmd_norm(args)
        if args.command == "barrier-scan":
            return _cmd_barrier(args)
        if args.command == "structure-check":
            return _cmd_structure(args)
    except cf.ConfigError as e:
        print(f"pxlap: config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as e:
        print(f"pxlap: {e}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default=None, help="report directory (overrides config)")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--cells", type=int, default=None, help="override problem cells")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--reg-eps", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)


def _load(args) -> tuple:
    cfg = cf.load_config(args.config)
    base = Path(args.config).resolve().parent
    prob = cfg.get("problem")
    if prob is not None:
        for key, val in (("cells", args.cells), ("tol", args.tol),
                         ("reg_eps", args.reg_eps), ("max_iter", args.max_iter)):
            if val is not None:
                prob[key] = val
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.output is not None:
        cfg["output"] = args.output
    cfg.setdefault("seed", 0)
    cfg.setdefault("output", "pxlap-reports")
    return cfg, base


def _cmd_solve(args) -> int:
    cfg, base = _load(args)
    if "problem" not in cfg:
        raise cf.ConfigError("solve needs a 'problem' section")
    spec = cf.build_problem(cfg["problem"], base)
    res = solve_dirichlet(spec)
    out = Path(cfg["output"])
    out.mkdir(parents=True, exist_ok=True)
    write_gridfunction(res.solution, out / "solution.pxgrid")
    rec = CheckRecord("solve", "ok" if res.converged else "error",
                      detail={"residual": res.residual, "iterations": res.iterations,
                              "converged": res.converged, "message": res.message,
                              "energy_first": res.energy_trace[0],
                              "energy_last": res.energy_trace[-1]})
    write_reports([rec], out, meta={"config": str(args.config), "seed": cfg["seed"]})
    print(f"solve: converged={res.converged} iterations={res.iterations} "
          f"residual={res.residual:.3e} -> {out / 'solution.pxgrid'}")
    return EXIT_OK if res.converged else EXIT_CHECK


def _cmd_verify(args) -> int:
    cfg, base = _load(args)
    checks = cfg.get("checks", [])
    for c in checks:
        if c.get("kind") not in CHECKS:
            raise cf.ConfigError(f"unknown check kind {c.get('kind')!r}")
    spec = solution = None
    if "problem" in cfg:
        spec = cf.build_problem(cfg["problem"], base)
    records = []
    failed = False
    for c in checks:
        kind = c["kind"]
        try:
            if CHECKS[kind] and solution is None:
                if spec is None:
                    raise cf.ConfigError(f"check '{kind}' needs a 'problem' section")
                res = solve_dirichlet(spec)
                if not res.converged:
                    raise RuntimeError(f"solver did not converge: {res.message}")
                solution = res.solution
            records.append(_run_check(c, spec, solution, cfg["seed"], base))
        except Exception as e:  # one bad check must not hide the others
            failed = True
            records.append(CheckRecord(kind, "error", detail={"message": str(e)}))
    write_reports(records, cfg["output"], meta={"config": str(args.config), "seed": cfg["seed"]})
    for r in records:
        print(f"{r.check}: {r.status}" + ("" if r.status == "ok" else f" ({r.detail.get('message')})"))
    return EXIT_CHECK if failed else EXIT_OK


def _run_check(c: dict, spec, u, seed: int, base) -> CheckRecord:
    kind = c["kind"]
    if kind == "harnack":
        ball = Ball(c["center"], float(c["radius"]))
        mu = hk.harnack_mu(spec.rhs, ball, cf.parse_q(c.get("q0", "inf")), spec.field)
        rep = hk.harnack_check(u, ball, mu, spec.field)
        return CheckRecord("harnack", center=list(ball.center), radius=ball.radius,
                           lhs=rep.sup_u, rhs=rep.inf_u + ball.radius * (1 + mu),
                           ratio=rep.c_emp, p_minus=rep.p_band[0], p_plus=rep.p_band[1],
                           mu=mu, detail={"sup": rep.sup_u, "inf": rep.inf_u})
    if kind == "weak-harnack":
        r = hk.weak_harnack_check(u, c["center"], float(c["radius"]),
                                  float(c.get("t0", 1.0)),
                                  min_value=c.get("min_value", "shift"))
        return CheckRecord("weak-harnack", center=list(np.atleast_1d(c["center"])),
                           radius=r.radius, lhs=r.lhs, rhs=r.rhs, ratio=r.ratio,
                           detail={"t0": r.t0})
    if kind == "caccioppoli":
        cut = hk.hat_cutoff if c.get("cutoff", "bump") == "hat" else hk.bump_cutoff
        eta = cut(u, c["center"], float(c["rho"]))
        H = u.like(np.full(u.dims, float(c.get("H", 0.0))))
        r = hk.caccioppoli_check(u, float(c.get("gamma", 1.0)), eta, H, spec.field,
                                 float(c.get("c_probe", 1.0)))
        return CheckRecord("caccioppoli", center=list(np.atleast_1d(c["center"])),
                           radius=float(c["rho"]), lhs=r.lhs, rhs=r.rhs,
                           ratio=(r.lhs / r.rhs if r.rhs else None),
                           p_minus=r.p_minus, p_plus=r.p_plus,
                           detail={"holds": r.holds, "gamma": c.get("gamma", 1.0)})
    if kind == "holder":
        # oscillation monotonicity is a hard invariant: holder_estimate
        # raises on violation, which surfaces as a check error (nonzero exit)
        tr = hk.holder_estimate(u, c["center"], c["radii"])
        return CheckRecord("holder", center=list(tr.center), radius=float(tr.radii[0]),
                           ratio=tr.fitted_exponent,
                           detail={"oscillations": tr.oscillations,
                                   "radii": tr.radii, "constant": tr.constant,
                                   "fit_residual": tr.fit_residual})
    if kind == "local-bound":
        inner = Ball(c["inner_center"], float(c["inner_radius"]))
        outer = Ball(c.get("outer_center", c["inner_center"]), float(c["outer_radius"]))
        r = hk.local_bound_check(u, inner, outer, float(c.get("t", 1.0)),
                                 float(c.get("c_probe", 1.0)))
        return CheckRecord("local-bound", center=list(inner.center), radius=inner.radius,
                           lhs=r.sup_inner, rhs=r.bound_value,
                           ratio=(r.sup_inner / r.bound_value if r.bound_value else None),
                           detail={"holds": r.holds, "norm_outer": r.norm_outer})
    if kind == "barrier":
        field = spec.field if spec is not None and "exponent" not in c \
            else cf.build_exponent(c["exponent"], None, base)
        params = bar.BarrierParams(c["center"], float(c["delta"]), float(c["mu"]),
                                   float(c.get("a_level", 1.0)))
        scan = bar.barrier_subsolution_scan(params, field, float(c.get("resolution", 0.01)))
        return CheckRecord("barrier", center=list(params.x0), radius=params.delta,
                           lhs=scan.min_operator_value, mu=params.mu,
                           detail={"argmin": scan.argmin, "samples": scan.samples})
    if kind == "max-principle":
        r = bar.strong_max_principle_check(u, float(c.get("margin", 0.1)),
                                           c.get("zero_tol"))
        return CheckRecord("max-principle", lhs=r.interior_min, rhs=r.max_abs,
                           detail={"classification": r.classification,
                                   "zero_tol": r.zero_tol})
    if kind == "hopf":
        r = bar.hopf_slope(u, c["point"], c["direction"], c["steps"], c.get("zero_tol"))
        return CheckRecord("hopf", center=list(np.atleast_1d(c["point"])),
                           lhs=r.c0_estimate, detail={"slopes": r.slopes})
    if kind == "structure":
        return _structure_record(c, spec, seed, base)
    if kind == "norm":
        field = spec.field
        lam = float(c.get("lam", 1.0))
        return CheckRecord("norm", lhs=luxemburg_norm(u, field),
                           rhs=sobolev_norm(u, field),
                           detail={"modular_at_lam": modular(u, field, lam), "lam": lam})
    raise cf.ConfigError(f"unknown check kind {kind!r}")


def _structure_record(c: dict, spec, seed: int, base) -> CheckRecord:
    if spec is not None and "exponent" not in c:
        field, like = spec.field, spec.rhs
    else:
        domcfg = np.asarray(c["domain"], dtype=float)
        from .grid import Box, GridFunction
        box = Box(domcfg[:, 0], domcfg[:, 1])
        field = cf.build_exponent(c["exponent"], box, base)
        like = GridFunction.constant(box, c.get("cells", 16), 0.0)
    consts = {k: float(c.get(k, 0.0)) for k in
              ("g0", "g1", "f_src", "c0", "c1", "c2", "k1", "k2", "b")}
    bounds = st.StructureBounds.constants(
        like, field, alpha=float(c.get("alpha", 1.0)), m0=float(c.get("m0", 1.0)),
        q0=cf.parse_q(c.get("q0", "inf")), q1=cf.parse_q(c.get("q1", "inf")),
        q2=cf.parse_q(c.get("q2", "inf")), t2=cf.parse_q(c.get("t2", "inf")), **consts)
    pair = cf.build_flux(c.get("flux", "p-laplacian"), field, base)
    if c.get("transform") in ("sub", "super"):
        pair = st.exponential_transform(pair, bounds, c["transform"])
    samples = st.structure_sample_lattice(like, bounds.m0, seed=seed,
                                          **c.get("samples", {}))
    checker = st.check_conditions_natural_growth if c.get("natural_growth") \
        else st.check_conditions
    rep = checker(pair, bounds, field, samples)
    worst = max(rep.max_slack.values()) if rep.max_slack else None
    return CheckRecord("structure", lhs=float(len(rep.violations)), rhs=worst,
                       detail={"n_samples": rep.n_samples,
                               "max_slack": rep.max_slack,
                               "violations": [
                                   {"condition": v.condition, "x": v.x, "s": v.s,
                                    "lhs": v.lhs, "rhs": v.rhs, "slack": v.slack}
                                   for v in rep.violations[:50]]})


def _cmd_norm(args) -> int:
    g = read_gridfunction(args.grid)
    field = cf.build_exponent(json.loads(args.exponent), g.box)
    lux, sob = luxemburg_norm(g, field), sobolev_norm(g, field)
    print(f"luxemburg={lux!r} sobolev={sob!r}")
    if args.output:
        rec = CheckRecord("norm", lhs=lux, rhs=sob)
        write_reports([rec], args.output, meta={"grid": args.grid})
    return EXIT_OK


def _cmd_barrier(args) -> int:
    c = {"kind": "barrier", "center": [float(t) for t in args.center.split(",")],
         "delta": args.delta, "mu": args.mu, "a_level": args.a_level,
         "resolution": args.resolution, "exponent": json.loads(args.exponent)}
    rec = _run_check(c, None, None, 0, None)
    print(f"barrier scan: min={rec.lhs!r} at {rec.detail['argmin'].tolist()} "
          f"({rec.detail['samples']} samples)")
    if args.output:
        write_reports([rec], args.output, meta={})
    return EXIT_OK


def _cmd_structure(args) -> int:
    cfg, base = _load(args)
    check = cfg.get("check") or {}
    check.setdefault("kind", "structure")
    spec = cf.build_problem(cfg["problem"], base) if "problem" in cfg else None
    try:
        rec = _structure_record(check, spec, cfg["seed"], base)
    except Exception as e:
        print(f"structure-check: error: {e}", file=sys.stderr)
        return EXIT_CHECK
    write_reports([rec], cfg["output"], meta={"config": str(args.config)})
    nviol = int(rec.lhs)
    print(f"structure-check: {nviol} violation(s) over {rec.detail['n_samples']} samples")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
