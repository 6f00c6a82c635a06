"""pxlap benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload solve2d-singular --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # every workload, one table

Each operation starts when the previous one ends.  With --trace 0 the run
measures the end-to-end metrics untraced; with --trace 1 it runs half the
window untraced and half traced (same inputs) and reports the per-layer
metrics, including the tracing overhead.  An untraced run also times a fixed
reference kernel (hostref.py) around every operation and every set-up, and
reports each time scaled to the host's nominal speed.  The last line of
standard output is one JSON object {correct, attempted, failed, metrics}; the
full record (the environment, every sample, raw and scaled tail percentiles,
absent seams) goes to perfbench/results/, and the traced run's spans to a
.npz next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_env
import spec

# Modules that import numpy are imported after bench_env.prepare() has pinned
# the BLAS threads, which numpy reads once, when it loads.

SETUP_PROBES = 5
MIN_OPS = 3
WORKLOAD_NAMES = [name for name, _ in spec.WORKLOADS]


def measure(wl, seconds: float, min_ops: int, tracer=None, host=None) -> tuple:
    """Closed loop from input index 0 until the next operation would overrun `seconds`.

    With a tracer, every input runs twice in a row, once untraced and once
    traced, and the order alternates between inputs.  Slow drift of the
    machine and any advantage of the second run of an input then cancel in
    the tracing overhead.  With a host reference, each sample also gets the
    host factor around it.  Returns (untraced samples, traced samples).
    """
    import layers

    plain, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        inp = wl.prepare(index)
        last = 0.0
        for with_tracer in ([False] if tracer is None else [index % 2 == 1, index % 2 == 0]):
            if with_tracer:
                layers.install(tracer)
                try:
                    traced.append(_operation(wl, inp, index, tracer))
                finally:
                    tracer.unwrap_all()
            else:
                plain.append(_operation(wl, inp, index))
            last += (traced if with_tracer else plain)[-1]["wall_s"]
        if host is not None:
            plain[-1]["host_factor"] = host.bracket()
        index += 1
        if index >= min_ops and time.perf_counter() - start + last > seconds:
            return plain, traced


def _operation(wl, inp, index: int, tracer=None) -> dict:
    if tracer is not None:
        tracer.op_id = index
        span = tracer.begin("op")
    t0 = time.perf_counter()
    try:
        values, failures = wl.run(inp)
    except Exception as e:  # an operation that raises is a failed operation
        values, failures = {}, [f"{type(e).__name__}: {e}"]
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.finish(span)
    for msg in failures:
        print(f"op {index} failed: {msg}", file=sys.stderr)
    return {"index": index, "traced": tracer is not None, "wall_s": wall,
            "values": values, "failures": failures}


def summarize(values: list) -> dict:
    """Median, the highest listed percentile with >= 10 samples beyond it, and n."""
    n = len(values)
    tail = None
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            tail = {"percentile": p, "value": q}
            break
    return {"median": statistics.median(values) if values else None, "n": n, "tail": tail}


def setup_probe(name: str, seed: int) -> float:
    workdir = bench_env.WORK / f"{name}-probe"
    out = subprocess.run(
        [sys.executable, str(bench_env.HERE / "setup_probe.py"), "--workload", name,
         "--seed", str(seed), "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy
    import scipy

    sha = None
    if (bench_env.ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench_env.ROOT,
                                 capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "cpu_model": cpu, "nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in bench_env.BLAS_THREADS},
        "seed": seed, "load": "closed loop, one client, one process",
    }


def lu_fill(last_matrix) -> float:
    """L+U nonzeros of splu on the solver's last matrix, with the ordering it asked for."""
    if last_matrix is None:
        return 0.0
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    A, permc = last_matrix
    lu = spla.splu(sp.csc_matrix(A), permc_spec=permc or "COLAMD")
    return float(lu.L.nnz + lu.U.nnz)


def layer_metrics(tracer, traced: list, plain: list) -> dict:
    import layers

    per_op = tracer.per_op()
    fill = lu_fill(tracer.last_matrix)
    rows = []
    for s in traced:
        op = s["index"]
        counts = {k: v for (o, k), v in tracer.counts.items() if o == op}
        peaks = {k: v for (o, k), v in tracer.peaks.items() if o == op}
        row = layers.op_metrics(per_op.get(op, {}), counts, peaks)
        row["solver.lu_fill_nnz"] = fill if row["solver.linear_solves"] else 0.0
        rows.append(row)
    overhead = [t["wall_s"] - p["wall_s"] for t, p in zip(traced, plain)]
    out = {name: statistics.median(float(r[name]) for r in rows) for name in rows[0]}
    out["trace.overhead_s"] = statistics.median(overhead)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import pxlap

    if not Path(pxlap.__file__).resolve().is_relative_to(bench_env.SRC):
        raise SystemExit(f"perfbench: imported pxlap from {pxlap.__file__}, not {bench_env.SRC}")
    import workloads
    from hostref import REF_NOMINAL_S, HostReference
    from tracer import Tracer

    wl = workloads.get(name)
    workdir = bench_env.WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    host = None if trace else HostReference()
    setup_samples = []
    if host is not None:
        host.sample()
        for _ in range(SETUP_PROBES):
            raw = setup_probe(name, seed)
            setup_samples.append({"wall_s": raw, "host_factor": host.bracket()})
    wl.setup(seed, workdir)
    wl.warm()
    if host is not None:
        host.sample()

    record = {"workload": name, "trace": int(trace), "seconds": seconds,
              "environment": environment(seed)}
    if not trace:
        samples, _ = measure(wl, seconds, MIN_OPS, host=host)
    else:
        tracer = Tracer()
        plain, traced = measure(wl, seconds, 2, tracer)
        samples = plain + traced
        record["seams"] = {"installed": tracer.installed, "absent": tracer.absent}
        bench_env.RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.save(bench_env.RESULTS / f"{name}-spans.npz")

    untraced = [s for s in samples if not s["traced"]]
    ok = [s for s in untraced if not s["failures"]] or untraced
    # Untraced times are scaled to the host's nominal speed (hostref.py);
    # raw_timings keeps the wall times as measured.
    timings, raw_timings = {}, {}
    for key in ("time_to_solution_s", "time_to_verdict_s", "verify_s", "scan_s"):
        vals = [s["values"][key] for s in ok if key in s["values"]]
        if vals:
            raw_timings[key] = summarize(vals)
            timings[key] = summarize([s["values"][key] / s.get("host_factor", 1.0)
                                      for s in ok if key in s["values"]])
    if "time_to_solution_s" not in timings:
        raise SystemExit(f"perfbench: no operation of {name} completed")
    failed = sum(1 for s in samples if s["failures"])
    record.update(samples=samples, timings=timings, raw_timings=raw_timings,
                  setup_samples=setup_samples, attempted=len(samples), failed=failed,
                  fail_rate=failed / len(samples))

    units = dict((n, u) for n, u, _, _ in spec.END_TO_END) | dict(spec.PER_LAYER)
    if trace:
        values = layer_metrics(tracer, traced, plain)
        record["per_layer"] = values
    else:
        timings["setup_s"] = summarize([s["wall_s"] / s["host_factor"] for s in setup_samples])
        raw_timings["setup_s"] = summarize([s["wall_s"] for s in setup_samples])
        values = {
            "time_to_solution_s": timings["time_to_solution_s"]["median"],
            "time_to_verdict_s": timings["time_to_verdict_s"]["median"],
            "setup_s": timings["setup_s"]["median"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["host"] = {"nominal_s": REF_NOMINAL_S, "samples": host.samples}
    bench_env.RESULTS.mkdir(parents=True, exist_ok=True)
    (bench_env.RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    for key, st in timings.items():
        tail = st["tail"]
        tail_txt = f", p{tail['percentile']} {tail['value']:.4f}" if tail else ""
        raw_txt = "" if trace else f"; wall {raw_timings[key]['median']:.4f}"
        print(f"{name}: {key} median {st['median']:.4f} s (n={st['n']}{tail_txt}{raw_txt})")
    print(f"{name}: fail_rate {record['fail_rate']:.3f} ({failed}/{len(samples)})")
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        for t in ([0, 1] if trace else [0]):
            out = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(t)],
                capture_output=True, text=True, timeout=900)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                print(f"{name}: exited {out.returncode}", file=sys.stderr)
                return out.returncode
            lines = out.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            entry = results.setdefault(name, {"correct": True, "metrics": {}})
            entry["correct"] &= res["correct"]
            entry["metrics"].update(res["metrics"])
            if t == 0:
                entry["fail_rate"] = res["failed"] / res["attempted"]
    print()
    for name, entry in results.items():
        print(f"{name}: fail_rate {entry['fail_rate']:.3f}")
        for metric, m in entry["metrics"].items():
            print(f"  {metric:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bench_env.prepare()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
