"""pxlap's seams and the per-layer metrics computed from their spans.

Each seam is patched where its caller looks the name up: `pxlap.cli` imports
`solve_dirichlet`, `write_reports` and the norms by name, `pxlap.barriers`
imports `p_laplacian_pointwise` by name, and the solver reaches SciPy through
the `scipy.sparse.linalg` module object.
"""

from __future__ import annotations

from pathlib import Path

from tracer import Tracer

LINEAR_SOLVERS = ("spsolve", "splu", "spilu", "cg", "factorized")
HARNACK_CHECKS = ("harnack_mu", "harnack_check", "weak_harnack_check", "caccioppoli_check",
                  "holder_estimate", "local_bound_check")


def _solved(tr, res, args, kwargs):
    tr.count("solver.newton_iterations", getattr(res, "iterations", 0))


def _linear(tr, res, args, kwargs):
    A = args[0] if args else kwargs.get("A")
    nnz = getattr(A, "nnz", None)
    if nnz is not None:
        tr.peak("solver.matrix_nnz", nnz)
        tr.last_matrix = (A, kwargs.get("permc_spec"))


def _scanned(tr, res, args, kwargs):
    tr.count("barriers.scan_samples", getattr(res, "samples", 0))


def _structure(tr, res, args, kwargs):
    tr.count("structure.samples", getattr(res, "n_samples", 0))


def _reported(tr, res, args, kwargs):
    paths = list(res.values()) if isinstance(res, dict) else []
    if paths:
        paths.append(Path(paths[0]).parent / "run_meta.json")
    tr.count("reports.bytes", sum(Path(p).stat().st_size for p in paths if Path(p).exists()))


def install(tr: Tracer) -> None:
    """Wrap every seam; the ones a commit lacks end up in tr.absent."""
    import pxlap.exponent
    import pxlap.quadrature
    import pxlap.structure

    tr.installed.clear()
    tr.absent.clear()
    for mod in ("pxlap", "pxlap.solver", "pxlap.cli"):
        tr.wrap(mod, "solve_dirichlet", "solver.solve", _solved)
    for mod in ("pxlap", "pxlap.solver"):
        tr.wrap(mod, "weak_residual", "solver.weak_residual")
    for fn in LINEAR_SOLVERS:
        tr.wrap("scipy.sparse.linalg", fn, "solver.linear_solve", _linear)

    geo = getattr(pxlap.quadrature, "CellGeometry", None)
    if geo is None:
        tr.absent.append("pxlap.quadrature.CellGeometry")
    else:
        tr.wrap(geo, "build", "quadrature.geometry_build")
        tr.wrap(geo, "corner_gradients", "quadrature.corner_gradients")
    tr.wrap(pxlap.exponent.ExponentField, "__call__", "exponent.field_eval")

    tr.wrap("pxlap.barriers", "p_laplacian_pointwise", "barriers.pointwise")
    for fn in ("barrier_subsolution_scan", "gaussian_lower_bound_scan"):
        tr.wrap("pxlap.barriers", fn, "barriers.scan", _scanned)
    tr.wrap("pxlap.barriers", "bracket_subsolution_mu", "barriers.bracket")
    tr.wrap("pxlap.barriers", "strong_max_principle_check", "barriers.max_principle")
    tr.wrap("pxlap.barriers", "hopf_slope", "barriers.hopf")

    for fn in HARNACK_CHECKS:
        tr.wrap("pxlap.harnack", fn, f"harnack.{fn}")
    for fn in ("hat_cutoff", "bump_cutoff"):
        tr.wrap("pxlap.harnack", fn, "harnack.cutoff")

    for mod in ("pxlap.norms", "pxlap.cli"):
        for fn in ("luxemburg_norm", "sobolev_norm"):
            tr.wrap(mod, fn, "norms.luxemburg")
        tr.wrap(mod, "modular", "norms.modular")
    for mod in ("pxlap.norms", "pxlap.harnack"):
        tr.wrap(mod, "lt_average", "norms.lt_average")

    for fn in ("check_conditions", "check_conditions_natural_growth"):
        tr.wrap("pxlap.structure", fn, "structure.check", _structure)
    tr.wrap("pxlap.structure", "structure_sample_lattice", "structure.sample_lattice")
    tr.wrap(pxlap.structure.StructureBounds, "constants", "structure.bounds")

    tr.wrap("pxlap.cli", "write_reports", "reports.write", _reported)
    tr.wrap("pxlap.cli", "main", "cli.main")
    tr.wrap("pxlap.config", "load_config", "config.load")
    tr.wrap("pxlap.config", "build_problem", "config.build_problem")
    for mod in ("pxlap", "pxlap.grid", "pxlap.config", "pxlap.cli"):
        tr.wrap(mod, "read_gridfunction", "grid.read")


def op_metrics(spans: dict, counts: dict, peaks: dict) -> dict:
    """Per-layer metrics of one operation.

    spans maps a span name to (calls, total_s, self_s); counts and peaks map
    a counter key to its value in this operation.
    """
    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    barrier_spans = ("barriers.scan", "barriers.bracket", "barriers.max_principle",
                     "barriers.hopf")
    harnack_s = {fn: total(f"harnack.{fn}") for fn in HARNACK_CHECKS}
    return {
        "solver.solve_s": total("solver.solve"),
        "solver.self_s": own("solver.solve"),
        "solver.newton_iterations": counts.get("solver.newton_iterations", 0.0),
        "solver.linear_solves": calls("solver.linear_solve"),
        "solver.linear_solve_s": total("solver.linear_solve"),
        "solver.linear_solve_errors": counts.get("solver.linear_solve.errors", 0.0),
        "solver.matrix_nnz": peaks.get("solver.matrix_nnz", 0.0),
        "solver.weak_residual_s": total("solver.weak_residual"),
        "quadrature.geometry_builds": calls("quadrature.geometry_build"),
        "quadrature.geometry_build_s": total("quadrature.geometry_build"),
        "quadrature.corner_gradient_calls": calls("quadrature.corner_gradients"),
        "quadrature.corner_gradient_s": total("quadrature.corner_gradients"),
        "exponent.field_evals": calls("exponent.field_eval"),
        "exponent.field_eval_s": total("exponent.field_eval"),
        "barriers.pointwise_calls": calls("barriers.pointwise"),
        "barriers.pointwise_s": total("barriers.pointwise"),
        "barriers.scan_calls": calls("barriers.scan"),
        "barriers.scan_samples": counts.get("barriers.scan_samples", 0.0),
        "barriers.scan_s": total("barriers.scan"),
        "barriers.self_s": sum(own(n) for n in barrier_spans),
        "harnack.check_calls": sum(calls(f"harnack.{fn}") for fn in HARNACK_CHECKS),
        "harnack.check_s": sum(harnack_s.values()),
        **{f"harnack.{fn}_s": s for fn, s in harnack_s.items()},
        "norms.luxemburg_calls": calls("norms.luxemburg"),
        "norms.luxemburg_s": total("norms.luxemburg"),
        "structure.check_s": total("structure.check"),
        "structure.samples": counts.get("structure.samples", 0.0),
        "reports.write_s": total("reports.write"),
        "reports.bytes": counts.get("reports.bytes", 0.0),
        "cli.verify_s": total("cli.main"),
        "cli.self_s": own("cli.main"),
        "config.load_s": total("config.load"),
        "grid.read_s": total("grid.read"),
    }
