"""Newton benchmark at fixed sizes: a base revision against the working tree.

Runs solve_dirichlet on 2d p = 1.5 at 64^2 cells (the size of the perfbench
``solve2d-singular`` workload, with f = -1; its band of half-bandwidth 64 is
stored with 65 sub-diagonals so that LAPACK factors it blocked) and at sizes
the perfbench workloads do not reach (2d p = 1.5 at 128^2 and 256^2 cells, 3d
affine p at 24^3 and 32^3), ten times for each of base and change,
interleaved, each solve in its own process pinned to one CPU with one BLAS
thread.  Per size it records the wall time of the solve, Newton iterations,
LAPACK band factorizations (all of the solve's, the warm start's too where a
tree factors for it) and the time spent in them, in all and per call, CG
iterations, the weak residual against tol, the wall time of that
``weak_residual`` call, the minor page faults taken during the solve (the
change in ``ru_minflt``) and the worker's peak resident set size, then writes
everything to one JSON file.

Other load on the pinned CPU slows a worker as much as a slower tree does.
So each worker also times the host reference kernel of ``perfbench/hostref.py``
right before and right after its solve, and divides the solve time by the host
factor around it, the mean of the two kernel times over the kernel's nominal
time: the host-scaled time.  The kernel and the one-BLAS-thread settings of
``perfbench/bench_env.py`` are imported, not copied.  The speed-up is given as
the ratio of the median times and as the median of the ratios of the base and
change runs made back to back, both raw and host-scaled.  The spread is given
as the quartiles of each side's solve times and as the number of back-to-back
pairs in which the change was faster.  A case's ``resolved`` is true only
when, on the host-scaled times, one side won at least 9 of every 10 pairs
and the two medians differ by more than the base's interquartile range;
anything less is not told apart from drift of the host's speed:

    python3 scripts/bench_newton.py --base HEAD~1 --out BENCH_newton.json

The base tree is the ``src`` of ``--base`` exported with ``git archive``; the
change is the working tree's ``src``.  Factorizations are counted and timed by
wrapping ``scipy.linalg.cholesky_banded``; CG iterations are read from
``SolveResult.history`` (a tree without it reports 0).  The counting adds well
under a millisecond per solve.  The peak RSS is the worker process's
``ru_maxrss`` after the weak residual, so it covers the interpreter, numpy,
scipy and the reference kernel's few MB as well as the solve.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

CASES = {
    "2d-p1.5-64": (2, 64),
    "2d-p1.5-128": (2, 128),
    "2d-p1.5-256": (2, 256),
    "3d-affine-24": (3, 24),
    "3d-affine-32": (3, 32),
}

REPEATS = 10  # runs per side and case

PERFBENCH = str(REPO / "perfbench")  # hostref and bench_env, imported read-only


def worker(case: str) -> dict:
    """Solve one case in this process and return its record."""
    import resource
    import time

    import scipy.linalg as sla

    import pxlap as px

    sys.path.insert(0, PERFBENCH)
    from hostref import HostReference

    factorizations = []  # the seconds of each call
    real = sla.cholesky_banded

    def counted(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            factorizations.append(time.perf_counter() - t0)

    sla.cholesky_banded = counted

    n_axes, cells = CASES[case]
    box = px.Box([0.0] * n_axes, [1.0] * n_axes)
    if n_axes == 2:
        field = px.constant_exponent(1.5, domain=box)
    else:
        field = px.affine_exponent(2.5, [0.3, 0.2, 0.1], box)
    f = px.GridFunction.constant(box, cells, -1.0)
    spec = px.ProblemSpec(box, field, f, 0.0, reg_eps=1e-8, tol=1e-7)

    host = HostReference()
    host.sample()
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    res = px.solve_dirichlet(spec)
    t1 = time.perf_counter()
    minor_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
    host_factor = host.bracket()
    t2 = time.perf_counter()
    weak_residual = px.weak_residual(res.solution, spec)
    t3 = time.perf_counter()
    return {
        "time_s": t1 - t0,
        "host_factor": host_factor,
        "host_samples_s": host.samples,
        "scaled_time_s": (t1 - t0) / host_factor,
        "weak_residual_s": t3 - t2,
        "iterations": res.iterations,
        "converged": bool(res.converged),
        "weak_residual": weak_residual,
        "tol": spec.tol,
        "factorizations": len(factorizations),
        "factorization_s": sum(factorizations),
        "cg_iterations": sum(r.get("cg_iters", 0) for r in getattr(res, "history", [])),
        "minor_faults": minor_faults,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def export_base(rev: str, dest: Path) -> Path:
    data = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def run_one(src: Path, case: str, cpu: int, threads: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), **threads)
    out = subprocess.run([sys.executable, __file__, "--worker", case], env=env, check=True,
                         capture_output=True, text=True,
                         preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(runs: list) -> dict:
    times = [r["time_s"] for r in runs]
    scaled = [r["scaled_time_s"] for r in runs]
    return {
        "median_time_s": statistics.median(times),
        "quartiles_time_s": statistics.quantiles(times, n=4, method="inclusive"),
        "median_scaled_time_s": statistics.median(scaled),
        "quartiles_scaled_time_s": statistics.quantiles(scaled, n=4, method="inclusive"),
        "median_host_factor": statistics.median(r["host_factor"] for r in runs),
        "median_factorization_s": statistics.median(r["factorization_s"] for r in runs),
        "median_factorization_per_call_s": statistics.median(
            r["factorization_s"] / max(r["factorizations"], 1) for r in runs),
        "median_weak_residual_s": statistics.median(r["weak_residual_s"] for r in runs),
        "iterations": sorted({r["iterations"] for r in runs}),
        "factorizations": sorted({r["factorizations"] for r in runs}),
        "cg_iterations": sorted({r["cg_iterations"] for r in runs}),
        "median_minor_faults": statistics.median(r["minor_faults"] for r in runs),
        "max_peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "all_converged": all(r["converged"] and r["weak_residual"] <= r["tol"] for r in runs),
        "max_weak_residual": max(r["weak_residual"] for r in runs),
        "tol": runs[0]["tol"],
    }


def resolved(paired: list, base: dict, change: dict) -> bool:
    """Whether, on host-scaled times (paired: their base / change ratios), one
    side won at least 9 of every 10 back-to-back pairs, and the medians
    differ by more than the base's interquartile range."""
    q1, _, q3 = base["quartiles_scaled_time_s"]
    won = max(sum(p > 1.0 for p in paired), sum(p < 1.0 for p in paired))
    one_sided = 10 * won >= 9 * len(paired)
    return (one_sided
            and abs(base["median_scaled_time_s"] - change["median_scaled_time_s"]) > q3 - q1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--worker", choices=sorted(CASES), help=argparse.SUPPRESS)
    ap.add_argument("--base", help="git revision of the base tree, e.g. HEAD~1")
    ap.add_argument("--out", type=Path, help="JSON file to write")
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.worker)))
        return 0
    if not args.base or not args.out:
        ap.error("--base and --out are required")
    sys.path.insert(0, PERFBENCH)
    from bench_env import BLAS_THREADS

    cpu = min(os.sched_getaffinity(0))
    rev = subprocess.run(["git", "-C", str(REPO), "rev-parse", args.base], check=True,
                         capture_output=True, text=True).stdout.strip()
    sides = {"change": REPO / "src"}
    results = {case: {"base": [], "change": []} for case in CASES}
    with tempfile.TemporaryDirectory() as tmp:
        sides["base"] = export_base(rev, Path(tmp))
        for rep in range(REPEATS):
            order = ("base", "change") if rep % 2 == 0 else ("change", "base")
            for case in CASES:
                for side in order:
                    rec = run_one(sides[side], case, cpu, BLAS_THREADS)
                    results[case][side].append(rec)
                    print(f"{case:14s} {side:6s} {rec['time_s']:8.3f} s  "
                          f"host x{rec['host_factor']:.2f}  "
                          f"weak_residual {1e3 * rec['weak_residual_s']:6.1f} ms  "
                          f"it={rec['iterations']:3d} "
                          f"factor={rec['factorizations']:3d} "
                          f"({1e3 * rec['factorization_s']:.0f} ms) cg={rec['cg_iterations']:4d} "
                          f"faults={rec['minor_faults']:6d} "
                          f"rss={rec['peak_rss_mb']:6.1f} MB",
                          file=sys.stderr, flush=True)

    report = {
        "what": "solve_dirichlet, f = -1, zero Dirichlet data, reg_eps 1e-8, tol 1e-7; "
                "2d p = 1.5, 3d p = 2.5 + 0.3x + 0.2y + 0.1z",
        "base_rev": rev,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "cpu_pinned": cpu, "blas_threads": 1},
        "repeats": REPEATS,
        "cases": {},
    }
    for case in CASES:
        base, change = (summary(results[case][s]) for s in ("base", "change"))
        pairs = list(zip(results[case]["base"], results[case]["change"]))
        paired = [b["time_s"] / c["time_s"] for b, c in pairs]
        scaled = [b["scaled_time_s"] / c["scaled_time_s"] for b, c in pairs]
        report["cases"][case] = {
            "base": base, "change": change,
            "speedup": base["median_time_s"] / change["median_time_s"],
            "median_paired_speedup": statistics.median(paired),
            "paired_speedups": paired,
            "pairs_change_won": sum(p > 1.0 for p in paired),
            "scaled_speedup": base["median_scaled_time_s"] / change["median_scaled_time_s"],
            "median_paired_scaled_speedup": statistics.median(scaled),
            "paired_scaled_speedups": scaled,
            "pairs_change_won_scaled": sum(p > 1.0 for p in scaled),
            "resolved": resolved(scaled, base, change),
            "runs": results[case],
        }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    def quartiles(side):
        return "/".join(f"{t:.3f}" for t in side["quartiles_time_s"])

    for case, row in report["cases"].items():
        print(f"{case:14s} base {quartiles(row['base'])} s  change "
              f"{quartiles(row['change'])} s (quartiles)  x{row['speedup']:.2f} "
              f"(paired x{row['median_paired_speedup']:.2f}, change won "
              f"{row['pairs_change_won']}/{len(row['paired_speedups'])}; host-scaled "
              f"x{row['scaled_speedup']:.2f}, paired x{row['median_paired_scaled_speedup']:.2f}, "
              f"change won {row['pairs_change_won_scaled']}/{len(row['paired_scaled_speedups'])}, "
              f"{'resolved' if row['resolved'] else 'not resolved'})  "
              f"factorizations {row['base']['factorizations']} -> "
              f"{row['change']['factorizations']} "
              f"({1e3 * row['base']['median_factorization_s']:.0f} -> "
              f"{1e3 * row['change']['median_factorization_s']:.0f} ms; per call "
              f"{1e3 * row['base']['median_factorization_per_call_s']:.2f} -> "
              f"{1e3 * row['change']['median_factorization_per_call_s']:.2f} ms)  weak_residual "
              f"{1e3 * row['base']['median_weak_residual_s']:.1f} -> "
              f"{1e3 * row['change']['median_weak_residual_s']:.1f} ms  "
              f"minor faults {row['base']['median_minor_faults']:.0f} -> "
              f"{row['change']['median_minor_faults']:.0f}  "
              f"peak RSS {row['base']['max_peak_rss_mb']:.0f} "
              f"-> {row['change']['max_peak_rss_mb']:.0f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
