"""Same results check: the solves of a base revision against the working tree's, bit for bit.

Each tree (the base's ``src`` by ``git archive``) solves, in one process, seeds 0-3 x
inputs 0-7 of ``solve2d-singular`` and ``solve3d-degenerate``, the ``verify-harness``
problem at seeds 0-3, and f = -1 - 0.5 cos(3 sum x) at p = 6, 1.1 and 3 on 64^2, 12^3
and 128^2 cells.  The solution bytes, energy traces, residuals, messages, iterations,
histories and ``verify-harness`` report.json bytes must be equal, else exit status 1:

    python3 scripts/same_solves.py --base HEAD~1
"""

from __future__ import annotations

import argparse
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
IMPORTS = [str(REPO / "scripts"), str(REPO / "perfbench")]  # read-only


def worker(tmp: Path) -> dict:
    """Every problem's record by name; a verify-harness one also holds the report bytes."""
    import numpy as np

    import pxlap as px
    import pxlap.cli

    sys.path[:0] = IMPORTS
    from workloads import VerifyWorkload, get

    def record(spec):
        res = px.solve_dirichlet(spec)
        return {"solution": res.solution.values.tobytes(), "energy_trace": res.energy_trace,
                "residual": res.residual, "message": res.message,
                "iterations": res.iterations, "history": res.history}

    out = {}
    for name in ("solve2d-singular", "solve3d-degenerate"):
        for seed in range(4):
            (w := get(name)).setup(seed, tmp)
            out |= {f"{name}/{seed}/{k}": record(w.prepare(k)) for k in range(8)}
    for seed in range(4):
        (w := VerifyWorkload()).setup(seed, tmp / f"verify{seed}")
        out[f"verify-harness/{seed}"] = rec = record(w.spec)
        pxlap.cli.main(["verify", str(w.config), "--output", str(w.outdir)])
        rec["report.json"] = (w.outdir / "report.json").read_bytes()
    cos = lambda x: -1.0 - 0.5 * np.cos(3.0 * x.sum(axis=1))
    for p in (6.0, 1.1, 3.0):
        for n, cells in ((2, 64), (3, 12), (2, 128)):
            box = px.Box([0.0] * n, [1.0] * n)
            f = px.GridFunction.from_callable(box, cells, cos)
            out[f"cos/p{p}/{n}d-{cells}"] = record(
                px.ProblemSpec(box, px.constant_exponent(p, domain=box), f, 0.0))
    return out


def compare(base: dict, change: dict) -> list:
    """'name: field' for each field whose pickled bytes differ between the sides, or
    that one side lacks, and 'name: missing on one side' for each unmatched problem."""
    diffs = [f"{name}: missing on one side" for name in sorted(base.keys() ^ change.keys())]
    for name in sorted(base.keys() & change.keys()):
        a, b = base[name], change[name]
        diffs += [f"{name}: {key}" for key in sorted(a.keys() | b.keys())
                  if key not in a or key not in b or pickle.dumps(a[key]) != pickle.dumps(b[key])]
    return diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="git revision of the base tree, e.g. HEAD~1")
    ap.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        with tempfile.TemporaryDirectory() as tmp:
            args.worker.write_bytes(pickle.dumps(worker(Path(tmp))))
        return 0
    if not args.base:
        ap.error("--base is required")
    sys.path[:0] = IMPORTS
    from bench_env import BLAS_THREADS
    from bench_newton import export_base

    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for side, src in (("base", export_base(args.base, Path(tmp))), ("change", REPO / "src")):
            dest = Path(tmp) / f"{side}.pickle"
            subprocess.run([sys.executable, __file__, "--worker", str(dest)], check=True,
                           env=dict(os.environ, PYTHONPATH=str(src), **BLAS_THREADS),
                           stdout=subprocess.DEVNULL)
            runs[side] = pickle.loads(dest.read_bytes())
    diffs = compare(runs["base"], runs["change"])
    print("\n".join(diffs) or f"all {len(runs['base'])} problems equal")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
