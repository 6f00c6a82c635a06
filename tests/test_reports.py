import json
import math

import numpy as np
import pytest

import pxlap as px


def test_check_record_serialization(tmp_path):
    rec = px.CheckRecord("harnack", center=[0.5], radius=0.1, lhs=1.25,
                         rhs=np.float64(1.0), ratio=1.25, mu=0.2,
                         detail={"argmin": np.array([0.1, 0.2]), "flag": True})
    obj = rec.to_obj()
    assert obj["R"] == 0.1
    assert obj["rhs"] == 1.0
    assert obj["detail"]["argmin"] == [0.1, 0.2]
    # NaN p-band becomes null, keeping the JSON standard-compliant
    rec2 = px.CheckRecord("weak-harnack", p_minus=float("nan"))
    assert rec2.to_obj()["p_minus"] is None


def test_write_reports_layout(tmp_path):
    recs = [px.CheckRecord("holder", ratio=0.5, center=[0.0], radius=0.4),
            px.CheckRecord("norm", lhs=3.0, rhs=4.0)]
    paths = px.write_reports(recs, tmp_path / "out", meta={"seed": 0})
    data = json.loads(paths["json"].read_text())
    assert len(data) == 2 and data[0]["check"] == "holder"
    lines = paths["csv"].read_text().splitlines()
    assert lines[0] == "check,center,R,lhs,rhs,ratio,p_minus,p_plus,mu"
    assert lines[1].startswith("holder,0.0,0.4")
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    assert "written_at" in meta and meta["seed"] == 0


def test_schema_rejects_malformed_record():
    jsonschema = pytest.importorskip("jsonschema")
    schema = px.load_report_schema()
    good = [px.CheckRecord("harnack").to_obj()]
    jsonschema.validate(good, schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate([{"check": "harnack"}], schema)  # missing fields


def test_trend_csv(tmp_path):
    rows = [(1, 0.5), (4, 0.7), (16, 0.9)]
    path = px.write_trend_csv(rows, ["k", "c_emp"], tmp_path / "trend.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "k,c_emp"
    assert len(lines) == 4


def test_weak_harnack_t_limit():
    assert px.weak_harnack_t_limit(2, 1.5) == pytest.approx(2.0 / 0.5 * 0.5)
    assert math.isinf(px.weak_harnack_t_limit(1, 2.0))
    # below the limit the comparison is evaluable on a positive profile
    box = px.Box([-1.0, -1.0], [1.0, 1.0])
    u = px.GridFunction.from_callable(box, 32, lambda p: 1.0 + np.sum(p**2, axis=1))
    t_cap = px.weak_harnack_t_limit(2, 1.5)
    r = px.weak_harnack_check(u, [0.0, 0.0], 0.4, 0.9 * t_cap)
    assert 0.0 < r.ratio <= 1.0


def test_dirichlet_data_must_be_finite():
    box = px.Box([0.0], [1.0])
    f = px.GridFunction.constant(box, 16, 0.0)
    field = px.constant_exponent(2.0, domain=box)
    spec = px.ProblemSpec(box, field, f, lambda pts: np.where(pts[:, 0] > 0.5, np.inf, 0.0))
    with pytest.raises(ValueError, match="finite"):
        spec.dirichlet_values()


def test_report_json_is_strict(tmp_path):
    # inf has no JSON literal: it is written as null, like NaN, so that
    # report.json parses without the Infinity / NaN extensions
    rec = px.CheckRecord("norm", lhs=float("inf"), rhs=-np.inf,
                         detail={"modular_at_lam": np.float64(np.inf), "list": [1.0, np.nan]})
    paths = px.write_reports([rec], tmp_path / "out")

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    (obj,) = json.loads(paths["json"].read_text(), parse_constant=reject)
    assert obj["lhs"] is None and obj["rhs"] is None
    assert obj["detail"] == {"modular_at_lam": None, "list": [1.0, None]}
