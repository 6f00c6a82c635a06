"""Same results check: the solves of a base revision against the working tree's, bit for bit.

Each tree (the base's ``src`` by ``git archive``) solves, in one process, seeds 0-3 x
inputs 0-7 of ``solve2d-singular`` and ``solve3d-degenerate``, the ``verify-harness``
problem at seeds 0-3, and f = -1 - 0.5 cos(3 sum x) at p = 6, 1.1 and 3 on 64^2, 12^3
and 128^2 cells: 77 problems.  The solution bytes, energy traces, residuals, messages,
iterations, histories and ``verify-harness`` report.json bytes must be equal, else exit
status 1:

    python3 scripts/same_solves.py --base HEAD~1

For each problem that differs it also prints whether the iterations, the message and
the step records are equal, the largest relative difference of the solution, the
energy trace, the residual and the step records' floats, every step record float
whose value is equal but whose type differs (np.float64 against float), and for
report.json the largest relative difference of its float leaves and every other leaf
that differs.  Then one line per family, the problem name up to its first '/', says
how many of its problems are equal, e.g. "verify-harness: 4 of 4 equal".  Two lines
per family, the kink family's too, give each side's Newton steps, CG iterations and
factorizations in total, and each compared problem that takes more Newton steps on
the working tree is named.

Each tree also solves the kink family, 42 problems with the same source and zero data
where p < 2 and the last eps is tiny: 1d, p = 1.2, 1.3 and 1.4 on 64, 128, 256 and 512
cells at (reg_eps, tol) = (1e-10, 1e-8), (1e-10, 1e-10) and (1e-8, 1e-7), and 2d at
reg_eps = 0, p = 1.1 and 1.2 on 24^2, 32^2 and 48^2 cells.  Changes to the line search
and the continuation are meant to move these, so they are not compared bit for bit:
one line per side gives their stalls (unconverged solves) and Newton steps in total,
and then each kink problem that takes more steps on the working tree is named.
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
KINK = "kink/"


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

    def cos(n, cells, p, **kw):
        box = px.Box([0.0] * n, [1.0] * n)
        f = px.GridFunction.from_callable(
            box, cells, lambda x: -1.0 - 0.5 * np.cos(3.0 * x.sum(axis=1)))
        return record(px.ProblemSpec(box, px.constant_exponent(p, domain=box), f, 0.0, **kw))

    for p in (6.0, 1.1, 3.0):
        for n, cells in ((2, 64), (3, 12), (2, 128)):
            out[f"cos/p{p}/{n}d-{cells}"] = cos(n, cells, p)
    for p in (1.2, 1.3, 1.4):
        for cells in (64, 128, 256, 512):
            for reg_eps, tol in ((1e-10, 1e-8), (1e-10, 1e-10), (1e-8, 1e-7)):
                out[f"{KINK}p{p}/1d-{cells}/eps{reg_eps:g}-tol{tol:g}"] = cos(
                    1, cells, p, reg_eps=reg_eps, tol=tol)
    for p in (1.1, 1.2):
        for cells in (24, 32, 48):
            out[f"{KINK}p{p}/2d-{cells}/eps0-tol1e-07"] = cos(2, cells, p, reg_eps=0.0)
    return out


def split(run: dict) -> tuple:
    """(the problems compared bit for bit, the kink family) of one side's records."""
    kink = {name: rec for name, rec in run.items() if name.startswith(KINK)}
    return {name: rec for name, rec in run.items() if name not in kink}, kink


def family(name: str) -> str:
    """The family of a problem: its name up to the first '/'."""
    return name.split("/")[0]


def more_steps(base: dict, change: dict) -> list:
    """'name: a -> b Newton steps' for each problem on both sides that takes more
    Newton steps on the change, in name order."""
    return [f"{name}: {base[name]['iterations']} -> {change[name]['iterations']} Newton steps"
            for name in sorted(base.keys() & change.keys())
            if change[name]["iterations"] > base[name]["iterations"]]


def kink_lines(base: dict, change: dict) -> list:
    """One line per side with the kink family's stalls and Newton steps in total,
    then one per kink problem that takes more steps on the change."""
    lines = [f"kink family, {side}: {sum(r['message'] != '' for r in run.values())} of "
             f"{len(run)} stall, {sum(r['iterations'] for r in run.values())} Newton steps"
             for side, run in (("base", base), ("change", change))]
    return lines + more_steps(base, change)


def work_lines(base: dict, change: dict) -> list:
    """Per family in name order, one line per side with its Newton steps, CG
    iterations (the step records' cg_iters) and factorizations (steps whose
    linear solve is "factor") in total."""
    lines = []
    for fam in sorted({family(name) for name in base.keys() | change.keys()}):
        for side, run in (("base", base), ("change", change)):
            steps = [r for name, rec in run.items() if family(name) == fam
                     for r in rec["history"] if "it" in r]
            lines.append(f"{fam}, {side}: {len(steps)} Newton steps, "
                         f"{sum(r['cg_iters'] for r in steps)} CG iterations, "
                         f"{sum(r['linear'] == 'factor' for r in steps)} factorizations")
    return lines


def differing(a: dict, b: dict) -> list:
    """The fields of two records whose pickled bytes differ, or that one lacks."""
    return [key for key in sorted(a.keys() | b.keys())
            if key not in a or key not in b or pickle.dumps(a[key]) != pickle.dumps(b[key])]


def compare(base: dict, change: dict) -> list:
    """'name: field' for each field whose pickled bytes differ between the sides, or
    that one side lacks, and 'name: missing on one side' for each unmatched problem."""
    diffs = [f"{name}: missing on one side" for name in sorted(base.keys() ^ change.keys())]
    for name in sorted(base.keys() & change.keys()):
        diffs += [f"{name}: {key}" for key in differing(base[name], change[name])]
    return diffs


def tallies(base: dict, change: dict) -> list:
    """'family: k of n equal' per family, the problem name up to its first '/', in
    name order; a problem on one side only counts as not equal."""
    counts = {}
    for name in sorted(base.keys() | change.keys()):
        tally = counts.setdefault(family(name), [0, 0])
        tally[0] += name in base and name in change and not differing(base[name], change[name])
        tally[1] += 1
    return [f"{fam}: {equal} of {total} equal" for fam, (equal, total) in counts.items()]


def rel_diff(a, b) -> float:
    """max |a - b| / max(|a|, |b|) over two float sequences, 0 where they are equal
    (NaN with NaN too), inf where their lengths differ or one is NaN."""
    import numpy as np

    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.where(same, 0.0, np.nan_to_num(rel, nan=np.inf)), initial=0.0))


def leaves(x, path: str = "") -> dict:
    """{path: value} of every leaf of nested dicts and lists, in their order."""
    if isinstance(x, dict):
        return {k: v for key, val in x.items() for k, v in leaves(val, f"{path}.{key}").items()}
    if isinstance(x, list):
        return {k: v for i, val in enumerate(x) for k, v in leaves(val, f"{path}[{i}]").items()}
    return {path: x}


def leaf_diffs(a, b) -> tuple:
    """(the largest relative difference over the float leaves that both sides have
    at one path, 'path: a != b' for every other leaf that differs or that one side
    lacks, 'path: type != type' for every float leaf whose values are equal but
    whose types differ).  Integers, strings, booleans and None are compared exactly."""
    la, lb = leaves(a), leaves(b)
    floats, others, types = ([], []), [], []
    for path in list(la) + [q for q in lb if q not in la]:
        va, vb = la.get(path, "<missing>"), lb.get(path, "<missing>")
        if isinstance(va, float) and isinstance(vb, float):
            floats[0].append(va)
            floats[1].append(vb)
            if type(va) is not type(vb) and va == vb:
                types.append(f"{path}: {type(va).__name__} != {type(vb).__name__}")
        elif type(va) is not type(vb) or va != vb:
            others.append(f"{path}: {va!r} != {vb!r}")
    return rel_diff(*floats), others, types


def explain(a: dict, b: dict) -> list:
    """Lines that say what differs between two records of one problem, and by how much."""
    import json

    import numpy as np

    def equal(key):
        return "equal" if pickle.dumps(a.get(key)) == pickle.dumps(b.get(key)) else "differ"

    step_rel, step_others, step_types = leaf_diffs(a.get("history"), b.get("history"))
    steps = ("differ: " + "; ".join(step_others[:5]) + (" ..." if len(step_others) > 5 else "")
             if step_others else "equal but for floats" if step_rel != 0.0 else
             "equal but for types" if step_types else equal("history"))
    sol = [np.frombuffer(r.get("solution", b""), dtype=float) for r in (a, b)]
    lines = [f"  iterations {equal('iterations')}, message {equal('message')}, "
             f"step records {steps}",
             f"  max relative difference: solution {rel_diff(*sol):.2e}, energy trace "
             f"{rel_diff(a.get('energy_trace', []), b.get('energy_trace', [])):.2e}, residual "
             f"{rel_diff(a.get('residual', np.nan), b.get('residual', np.nan)):.2e}, "
             f"step record floats {step_rel:.2e}"]
    if step_types:
        lines.append("  step record types differ: " + "; ".join(step_types))
    if "report.json" in a and "report.json" in b:
        rel, others, types = leaf_diffs(*(json.loads(r["report.json"]) for r in (a, b)))
        lines.append(f"  report.json: max relative difference of its floats {rel:.2e}"
                     + "".join(f"; {o}" for o in others + types))
    return lines


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
    (base, base_kink), (change, change_kink) = split(runs["base"]), split(runs["change"])
    diffs = compare(base, change)
    print("\n".join(diffs) or f"all {len(base)} problems equal")
    for name in sorted(base.keys() & change.keys()):
        if differing(base[name], change[name]):
            print("\n".join([f"{name}:"] + explain(base[name], change[name])))
    print("\n".join(tallies(base, change) + work_lines(runs["base"], runs["change"])
                    + more_steps(base, change) + kink_lines(base_kink, change_kink)))
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
