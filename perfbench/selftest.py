"""Self-tests of the benchmark: gates, tracer, input generator, output contract.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

Kept out of the package's test suite (the file name does not match test_*.py)
because the contract tests run the benchmark itself for a few seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_env  # noqa: E402

bench_env.prepare()

import numpy as np  # noqa: E402

import gates  # noqa: E402
import layers  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


# -- gates ---------------------------------------------------------------------

def test_solve_gate_rejects_residual_above_tol():
    assert gates.solve_gate(True, "", 5e-8, 1e-7) == []
    assert gates.solve_gate(True, "", 2e-7, 1e-7)
    assert gates.solve_gate(True, "", math.nan, 1e-7)
    assert gates.solve_gate(True, "", math.inf, 1e-7)
    assert gates.solve_gate(False, "budget exhausted", 5e-8, 1e-7)


def test_bracket_gate_rejects_bracket_without_exact_threshold():
    assert gates.bracket_gate(3.998, 4.003) == []
    assert gates.bracket_gate(4.001, 4.009)
    assert gates.bracket_gate(3.990, 3.999)


def test_gaussian_gate_rejects_wrong_minimum():
    mu, r2 = 16.0, 0.5
    exact = 2.0 * (2.0 * mu * r2**2 - 2)
    assert gates.gaussian_gate(exact * (1 + 1e-13), mu, r2, 2) == []
    assert gates.gaussian_gate(exact * (1 + 1e-6), mu, r2, 2)
    assert gates.gaussian_gate(math.nan, mu, r2, 2)


def _report_bytes(records) -> bytes:
    return (json.dumps(records, indent=2, sort_keys=True) + "\n").encode()


def test_verify_gate_rejects_mutated_or_invalid_report():
    import pxlap

    schema = pxlap.load_report_schema()
    rec = {"check": "norm", "status": "ok", "center": None, "R": None, "lhs": 1.5,
           "rhs": 2.5, "ratio": None, "p_minus": None, "p_plus": None, "mu": None,
           "detail": {"lam": 1.0}}
    good = _report_bytes([rec])
    assert gates.verify_gate(0, good, schema, None) == []
    assert gates.verify_gate(0, good, schema, good) == []
    mutated = _report_bytes([dict(rec, lhs=1.5000000000000002)])
    assert gates.verify_gate(0, mutated, schema, good)
    assert gates.verify_gate(1, good, schema, good)
    invalid = _report_bytes([{k: v for k, v in rec.items() if k != "detail"}])
    assert gates.verify_gate(0, invalid, schema, None)
    errored = _report_bytes([dict(rec, status="error")])
    assert gates.verify_gate(0, errored, schema, None)
    assert gates.verify_gate(0, b"not json", schema, None)


# -- tracer --------------------------------------------------------------------

class _Toy:
    @classmethod
    def make(cls, x):
        return x + 1

    def work(self, n):
        return sum(range(n))


def test_tracer_self_time_and_classmethod_round_trip():
    import time

    tr = Tracer()
    orig = _Toy.__dict__["make"]
    tr.wrap(_Toy, "make", "toy.make")
    tr.wrap(_Toy, "work", "toy.work")
    assert _Toy.make(1) == 2
    tr.op_id = 3
    outer = tr.begin("outer")
    time.sleep(0.02)
    _Toy().work(10)
    inner = tr.begin("inner")
    time.sleep(0.03)
    tr.finish(inner)
    tr.finish(outer)
    tr.unwrap_all()
    assert _Toy.__dict__["make"] is orig

    per = tr.per_op()[3]
    calls, total, own = per["outer"]
    assert calls == 1 and total >= 0.05
    assert abs(own - (total - per["inner"][1] - per["toy.work"][1])) < 1e-9
    assert 0.015 <= own < total - 0.025
    assert per["inner"][0] == 1 and per["toy.work"][0] == 1
    assert tr.per_op()[-1]["toy.make"][0] == 1


def test_missing_seam_is_reported_absent():
    tr = Tracer()
    tr.wrap("pxlap.solver", "no_such_function", "x")
    tr.wrap("pxlap.no_such_module", "f", "y")
    assert tr.absent == ["pxlap.solver.no_such_function", "pxlap.no_such_module.f"]
    assert tr.installed == []


def test_tracer_counts_errors_and_reraises():
    tr = Tracer()

    class Boom:
        @staticmethod
        def go():
            raise RuntimeError("singular")

    tr.wrap(Boom, "go", "solver.linear_solve")
    try:
        Boom.go()
    except RuntimeError:
        pass
    else:
        raise AssertionError("exception swallowed")
    assert tr.counts[(-1, "solver.linear_solve.errors")] == 1.0


def test_install_finds_every_seam_and_restores():
    import pxlap.barriers
    import scipy.sparse.linalg as spla

    before = (pxlap.barriers.p_laplacian_pointwise, spla.spsolve)
    tr = Tracer()
    layers.install(tr)
    try:
        assert tr.absent == []
        assert pxlap.barriers.p_laplacian_pointwise is not before[0]
    finally:
        tr.unwrap_all()
    assert (pxlap.barriers.p_laplacian_pointwise, spla.spsolve) == before


# -- inputs --------------------------------------------------------------------

def test_seeded_source_is_deterministic_and_below_minus_one():
    a = workloads.seeded_source([0, 0], [1, 1], 16, seed=3, index=1)
    b = workloads.seeded_source([0, 0], [1, 1], 16, seed=3, index=1)
    c = workloads.seeded_source([0, 0], [1, 1], 16, seed=4, index=1)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.values.max() <= -1.0 and a.values.min() >= -1.5
    assert a.dims == (17, 17)


# -- output contract -----------------------------------------------------------

def test_benchmark_json_matches_spec():
    committed = json.loads((bench_env.ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    for w in committed["workloads"]:
        assert len(w["why"]) <= 200
    assert {m["name"] for m in committed["end_to_end"]} >= {"setup_s"}


def test_layer_metric_names_match_spec():
    names = set(layers.op_metrics({}, {}, {})) | {"solver.lu_fill_nnz", "trace.overhead_s"}
    assert names == {n for n, _ in spec.PER_LAYER}


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_printed_metrics_match_benchmark_json():
    for trace, table in (("0", spec.END_TO_END), ("1", spec.PER_LAYER)):
        out = _run(["--workload", "verify-harness", "--seed", "5", "--seconds", "1",
                    "--trace", trace], bench_env.ROOT)
        assert out.returncode == 0, out.stderr
        res = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 2
        assert set(res["metrics"]) == {row[0] for row in table}
        units = {row[0]: row[1] for row in table}
        for name, m in res["metrics"].items():
            assert m["unit"] == units[name] and math.isfinite(m["value"])
        if trace == "0":
            rec = json.loads((bench_env.RESULTS / "verify-harness-seed5-trace0.json").read_text())
            ops = rec["samples"]
            assert len(rec["host"]["samples"]) == 2 + len(rec["setup_samples"]) + len(ops)
            scaled = [s["values"]["time_to_solution_s"] / s["host_factor"] for s in ops]
            assert all(s["host_factor"] > 0 for s in ops)
            assert math.isclose(res["metrics"]["time_to_solution_s"]["value"],
                                statistics.median(scaled))


def test_blas_threads_pinned_before_numpy_loads():
    code = "import sys; sys.path.insert(0, 'perfbench'); import run; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=bench_env.ROOT,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False", out.stderr


def test_refuses_to_run_without_sources():
    bare = bench_env.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(bench_env.ROOT / "BENCHMARK.json", bare)
    try:
        out = _run(["--workload", "solve2d-singular", "--seed", "0", "--seconds", "1",
                    "--trace", "0"], bare)
        assert out.returncode != 0
        assert '"metrics"' not in out.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
