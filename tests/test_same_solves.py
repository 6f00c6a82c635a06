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
