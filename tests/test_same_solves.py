"""The comparison of scripts/same_solves.py on synthetic records."""

import copy
import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_solves.py"


@pytest.fixture(scope="module")
def same():
    spec = importlib.util.spec_from_file_location("same_solves", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def records():
    """Two problems' records as a worker writes them, one with a verify report."""
    history = [{"scale": 0.5, "energy_p2": -0.1, "energy": -0.2},
               {"stage_eps": 1e-2, "it": 1, "residual": 0.3, "step": 1.0, "backtracks": 0,
                "direction": "newton", "linear": "factor", "cg_iters": 0, "eps_h": 1e-2}]
    solve = {"solution": np.linspace(0.0, 1.0, 9).tobytes(), "energy_trace": [-0.2, -0.25],
             "residual": 1e-8, "message": "", "iterations": 1, "history": history}
    return {"solve2d-singular/0/0": solve,
            "verify-harness/0": {**copy.deepcopy(solve), "report.json": b'[{"check": "norm"}]'}}


def test_equal_records_have_no_difference(same):
    assert same.compare(records(), records()) == []


def test_one_flipped_bit_of_a_solution_is_a_difference(same):
    change = records()
    sol = bytearray(change["solve2d-singular/0/0"]["solution"])
    sol[17] ^= 1
    change["solve2d-singular/0/0"]["solution"] = bytes(sol)
    assert same.compare(records(), change) == ["solve2d-singular/0/0: solution"]
    # a float off by one unit in the last place too, here in a history record
    change = records()
    rec = change["verify-harness/0"]["history"][1]
    rec["residual"] = float(np.nextafter(rec["residual"], 1.0))
    assert same.compare(records(), change) == ["verify-harness/0: history"]


def test_an_extra_history_record_is_a_difference(same):
    change = records()
    change["solve2d-singular/0/0"]["history"].append({"it": 2})
    assert same.compare(records(), change) == ["solve2d-singular/0/0: history"]


def test_a_report_or_a_problem_on_one_side_only_is_a_difference(same):
    change = records()
    del change["verify-harness/0"]["report.json"]
    change["cos/p6.0/2d-64"] = records()["solve2d-singular/0/0"]
    assert same.compare(records(), change) == ["cos/p6.0/2d-64: missing on one side",
                                               "verify-harness/0: report.json"]


def test_tallies_count_the_equal_problems_of_each_family(same):
    base, change = records(), records()
    assert same.tallies(base, change) == ["solve2d-singular: 1 of 1 equal",
                                          "verify-harness: 1 of 1 equal"]
    change["verify-harness/0"]["residual"] *= 1.0 + 1e-15
    change["solve2d-singular/1/0"] = records()["solve2d-singular/0/0"]  # on one side only
    base["cos/p6.0/2d-64"] = change["cos/p6.0/2d-64"] = records()["solve2d-singular/0/0"]
    assert same.tallies(base, change) == ["cos: 1 of 1 equal", "solve2d-singular: 1 of 2 equal",
                                          "verify-harness: 0 of 1 equal"]


def test_explain_equal_but_for_rounding(same):
    # the solution, the trace, the residual and one history float off by
    # rounding: the counts, the message and the step path stay equal
    base, change = records(), records()
    rec = change["solve2d-singular/0/0"]
    sol = np.frombuffer(rec["solution"], dtype=float).copy()
    sol[4] *= 1.0 + 1e-13
    rec["solution"] = sol.tobytes()
    rec["energy_trace"][1] *= 1.0 + 2e-15
    rec["residual"] *= 1.0 - 3e-14
    rec["history"][1]["residual"] *= 1.0 + 4e-12
    steps, rel = same.explain(base["solve2d-singular/0/0"], rec)
    assert steps == "  iterations equal, message equal, step records equal but for floats"
    words = rel.replace(",", "").split()
    got = {key: float(words[words.index(key.split()[-1]) + 1])
           for key in ("solution", "trace", "residual", "floats")}
    assert got == pytest.approx({"solution": 1e-13, "trace": 2e-15, "residual": 3e-14,
                                 "floats": 4e-12}, rel=0.02)
    assert same.explain(base["verify-harness/0"], base["verify-harness/0"]) == [
        "  iterations equal, message equal, step records equal",
        "  max relative difference: solution 0.00e+00, energy trace 0.00e+00, residual 0.00e+00, "
        "step record floats 0.00e+00",
        "  report.json: max relative difference of its floats 0.00e+00"]


def test_explain_names_what_is_not_rounding(same):
    base, change = records(), records()
    rec = change["verify-harness/0"]
    rec["iterations"], rec["message"] = 2, "line search stalled"
    rec["history"][1].update(cg_iters=3, linear="pcg")
    rec["history"].append({"it": 2})
    rec["energy_trace"].append(-0.3)
    rec["report.json"] = b'[{"check": "norm", "lhs": 1.5}]'
    base["verify-harness/0"]["report.json"] = b'[{"check": "harnack", "lhs": 1.0}]'
    steps, rel, report = same.explain(base["verify-harness/0"], rec)
    assert steps == ("  iterations differ, message differ, step records differ: "
                     "[1].linear: 'factor' != 'pcg'; [1].cg_iters: 0 != 3; "
                     "[2].it: '<missing>' != 2")
    assert "energy trace inf" in rel
    assert report == ("  report.json: max relative difference of its floats 3.33e-01; "
                      "[0].check: 'harnack' != 'norm'")


def test_rel_diff_of_nan_and_zero(same):
    assert same.rel_diff([np.nan, 0.0, 1.0], [np.nan, 0.0, 1.0]) == 0.0
    assert same.rel_diff([1.0], [np.nan]) == np.inf
    assert same.rel_diff([0.0], [1e-300]) == 1.0
    assert same.rel_diff([1.0, 2.0], [1.0]) == np.inf


def test_explain_names_leaves_that_differ_only_in_type(same):
    # np.float64 against float at equal values: the pickles differ, the float
    # difference is 0, and each such leaf is named with both type names
    base, change = records(), records()
    history = base["verify-harness/0"]["history"]
    history[0]["energy"] = np.float64(history[0]["energy"])
    history[1]["eps_h"] = np.float64(history[1]["eps_h"])
    assert same.compare(base, change) == ["verify-harness/0: history"]
    steps, rel, types, report = same.explain(base["verify-harness/0"], change["verify-harness/0"])
    assert steps == "  iterations equal, message equal, step records equal but for types"
    assert rel.endswith("step record floats 0.00e+00")
    assert types == ("  step record types differ: [0].energy: float64 != float; "
                     "[1].eps_h: float64 != float")
    assert report == "  report.json: max relative difference of its floats 0.00e+00"
    # a float that also moved counts as a float difference, not a type one
    history[1]["eps_h"] = np.float64(2e-2)
    steps, rel, types, _ = same.explain(base["verify-harness/0"], change["verify-harness/0"])
    assert steps.endswith("step records equal but for floats")
    assert types == "  step record types differ: [0].energy: float64 != float"


def kink_run(steps):
    """Kink family records, as a worker writes them, of {cells: (iterations, converged)}."""
    return {f"kink/p1.2/1d-{cells}/eps1e-10-tol1e-10": {
        "iterations": it, "message": "" if ok else "iteration budget exhausted (residual 1e-09)"}
        for cells, (it, ok) in steps.items()}


def test_kink_family_is_reported_not_compared(same):
    base, change = records(), records()
    base |= kink_run({64: (200, False), 128: (30, True)})
    change |= kink_run({64: (39, True), 128: (31, True)})
    (base, base_kink), (change, change_kink) = same.split(base), same.split(change)
    assert same.compare(base, change) == [] and len(base) == 2
    assert same.kink_lines(base_kink, change_kink) == [
        "kink family, base: 1 of 2 stall, 230 Newton steps",
        "kink family, change: 0 of 2 stall, 70 Newton steps",
        "kink/p1.2/1d-128/eps1e-10-tol1e-10: 30 -> 31 Newton steps"]


def test_work_lines_total_each_family_and_side(same):
    # Newton steps, CG iterations and factorizations summed over each family's
    # step records; the start record, which has no "it", is not a step
    base, change = records(), records()
    rec = change["solve2d-singular/0/0"]
    rec["iterations"] = 2
    rec["history"].append({**rec["history"][1], "it": 2, "linear": "pcg", "cg_iters": 3})
    change["cos/p6.0/2d-64"] = copy.deepcopy(rec)  # on the change only
    assert same.work_lines(base, change) == [
        "cos, base: 0 Newton steps, 0 CG iterations, 0 factorizations",
        "cos, change: 2 Newton steps, 3 CG iterations, 1 factorizations",
        "solve2d-singular, base: 1 Newton steps, 0 CG iterations, 1 factorizations",
        "solve2d-singular, change: 2 Newton steps, 3 CG iterations, 1 factorizations",
        "verify-harness, base: 1 Newton steps, 0 CG iterations, 1 factorizations",
        "verify-harness, change: 1 Newton steps, 0 CG iterations, 1 factorizations"]


def test_more_steps_names_each_compared_problem_that_takes_more(same):
    base, change = records(), records()
    change["solve2d-singular/0/0"]["iterations"] = 3
    change["verify-harness/0"]["iterations"] = 0  # fewer steps: not named
    change["cos/p6.0/2d-64"] = records()["solve2d-singular/0/0"]  # on one side only
    assert same.more_steps(base, change) == ["solve2d-singular/0/0: 1 -> 3 Newton steps"]
