"""Workloads and metric definitions of the benchmark.

This module is the single source of the names in BENCHMARK.json:
`python3 perfbench/spec.py` rewrites that file from the tables below, and
the self-tests check that the committed file matches them.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 36

WORKLOADS = [
    ("solve2d-singular",
     "64^2 cells, p=1.5: the eps-continuation ladder runs ~25 Newton steps, so "
     "Hessian assembly, slicing and line-search energy trials carry over half the time"),
    ("solve3d-degenerate",
     "16^3 cells, affine p in [2.5, 3.1]: 5 Newton steps on the 27-point matrix, whose "
     "sparse LU (L+U fill 14x its nnz) takes ~45% of the time, so linear-solve changes show"),
    ("verify-harness",
     "pxlap verify with all ten checks on 48^2 cells plus barrier bracket and "
     "Gaussian scans: per-point operator loops dominate, the solver is minor"),
]

# (name, unit, better, bound); the bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("time_to_solution_s", "s", "lower", 0.25),
    ("time_to_verdict_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit); every per-layer metric is a median over traced operations of
# the per-operation value, and lower is better for all of them.
PER_LAYER = [
    ("solver.solve_s", "s"),
    ("solver.self_s", "s"),
    ("solver.newton_iterations", "count"),
    ("solver.linear_solves", "count"),
    ("solver.linear_solve_s", "s"),
    ("solver.linear_solve_errors", "count"),
    ("solver.matrix_nnz", "count"),
    ("solver.lu_fill_nnz", "count"),
    ("solver.weak_residual_s", "s"),
    ("quadrature.geometry_builds", "count"),
    ("quadrature.geometry_build_s", "s"),
    ("quadrature.corner_gradient_calls", "count"),
    ("quadrature.corner_gradient_s", "s"),
    ("exponent.field_evals", "count"),
    ("exponent.field_eval_s", "s"),
    ("barriers.pointwise_calls", "count"),
    ("barriers.pointwise_s", "s"),
    ("barriers.scan_calls", "count"),
    ("barriers.scan_samples", "count"),
    ("barriers.scan_s", "s"),
    ("barriers.self_s", "s"),
    ("harnack.check_calls", "count"),
    ("harnack.check_s", "s"),
    ("harnack.harnack_mu_s", "s"),
    ("harnack.harnack_check_s", "s"),
    ("harnack.weak_harnack_check_s", "s"),
    ("harnack.caccioppoli_check_s", "s"),
    ("harnack.holder_estimate_s", "s"),
    ("harnack.local_bound_check_s", "s"),
    ("norms.luxemburg_calls", "count"),
    ("norms.luxemburg_s", "s"),
    ("structure.check_s", "s"),
    ("structure.samples", "count"),
    ("reports.write_s", "s"),
    ("reports.bytes", "B"),
    ("cli.verify_s", "s"),
    ("cli.self_s", "s"),
    ("config.load_s", "s"),
    ("grid.read_s", "s"),
    ("trace.overhead_s", "s"),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER],
    }


def main() -> None:
    path = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
