"""The verdict of scripts/bench_newton.py on synthetic runs: every speed claim cites it."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_newton.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_newton", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(scaled_times, host_factor=0.5, weak_residual=1e-9):
    """Worker records with the given host-scaled solve times."""
    return [{"time_s": t * host_factor, "scaled_time_s": t, "host_factor": host_factor,
             "factorization_s": 0.01, "weak_residual_s": 0.002, "iterations": 10,
             "factorizations": 4, "cg_iterations": 21, "minor_faults": 3000,
             "peak_rss_mb": 99.0, "converged": True, "weak_residual": weak_residual,
             "tol": 1e-7} for t in scaled_times]


def verdict(bench, base_times, change_times):
    """resolved as the script takes it: on the base / change ratios of the pairs."""
    base, change = runs(base_times), runs(change_times)
    paired = [b["scaled_time_s"] / c["scaled_time_s"] for b, c in zip(base, change)]
    return bench.resolved(paired, bench.summary(base), bench.summary(change))


BASE = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # IQR 0.045, median 1.045
WON = [t - 0.10 for t in BASE]  # medians 0.10 apart


def test_summary_of_synthetic_runs(bench):
    row = bench.summary(runs(BASE))
    assert row["median_scaled_time_s"] == pytest.approx(1.045, abs=1e-12)
    assert row["median_time_s"] == pytest.approx(0.5225, abs=1e-12)
    assert row["quartiles_scaled_time_s"] == pytest.approx([1.0225, 1.045, 1.0675], abs=1e-12)
    assert row["all_converged"] and row["cg_iterations"] == [21]
    assert row["median_factorization_per_call_s"] == pytest.approx(0.0025, abs=1e-15)
    assert not bench.summary(runs(BASE[:9]) + runs([1.0], weak_residual=1e-6))["all_converged"]


def test_ten_runs_per_side(bench):
    assert bench.REPEATS == 10


def test_every_pair_won_and_medians_apart_is_resolved(bench):
    assert verdict(bench, BASE, WON)


def test_every_pair_lost_and_medians_apart_is_resolved(bench):
    assert verdict(bench, BASE, [t + 0.10 for t in BASE])


def test_one_lost_pair_of_ten_is_resolved(bench):
    # 9 of 10 pairs won, the medians 0.10 apart, twice the base IQR
    assert verdict(bench, BASE, WON[:9] + [1.20])
    assert verdict(bench, BASE, [t + 0.10 for t in BASE[:9]] + [0.90])


def test_two_lost_pairs_of_ten_are_not_resolved(bench):
    # 8 of 10 pairs won, although the medians are 0.10 apart
    assert not verdict(bench, BASE, WON[:8] + [1.20, 1.20])
    assert not verdict(bench, BASE, [t + 0.10 for t in BASE[:8]] + [0.90, 0.90])


def test_one_lost_pair_of_five_is_not_resolved(bench):
    # 4 of 5 is less than 9 of every 10
    base = BASE[::2]
    assert verdict(bench, base, [t - 0.10 for t in base])
    assert not verdict(bench, base, [t - 0.10 for t in base[:4]] + [1.20])


def test_medians_inside_the_base_iqr_are_not_resolved(bench):
    # every pair won, but the medians are 0.05 apart and the base IQR is 0.225
    base = [1.00 + 0.05 * i for i in range(10)]
    assert not verdict(bench, base, [t - 0.05 for t in base])
