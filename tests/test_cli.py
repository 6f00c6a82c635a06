import json

import numpy as np
import pytest

import pxlap as px
from pxlap.cli import main
from pxlap.config import ConfigError, build_problem


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def manufactured_config(outdir, checks):
    return {
        "seed": 0,
        "output": str(outdir),
        "problem": {
            "domain": [[0.0, 1.0]],
            "cells": 256,
            "exponent": {"kind": "constant", "value": 2.0},
            "rhs": {"kind": "constant", "value": -2.0},
            "dirichlet": {"kind": "zero"},
            "reg_eps": 0.0,
            "tol": 1e-9,
        },
        "checks": checks,
    }


def test_empty_checks_exit_zero(tmp_path):
    cfg = write_config(tmp_path, {"output": str(tmp_path / "out"), "checks": []})
    assert main(["verify", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report == []


def test_unknown_check_name_rejected(tmp_path):
    cfg = write_config(tmp_path, {"output": str(tmp_path / "out"),
                                  "checks": [{"kind": "telepathy"}]})
    assert main(["verify", cfg]) == 2


def test_verify_without_problem_section(tmp_path):
    # barrier and structure checks carry their own exponent configs
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"output": str(out), "seed": 1, "checks": [
        {"kind": "barrier", "center": [0.0, 0.0], "delta": 1.0, "mu": 8.0,
         "exponent": {"kind": "constant", "value": 2.0}, "resolution": 0.05},
        {"kind": "structure", "domain": [[0.0, 1.0]], "cells": 8,
         "exponent": {"kind": "constant", "value": 2.0},
         "alpha": 1.0, "k1": 1.0, "m0": 1.0, "flux": "p-laplacian"},
    ]})
    assert main(["verify", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report[0]["lhs"] > 0        # mu = 8 > 2n: subsolution on the annulus
    assert report[1]["lhs"] == 0.0     # no violations


def test_missing_config_file():
    assert main(["verify", "/nonexistent/nope.json"]) == 2


def test_verify_golden_values(tmp_path, capsys):
    # library-level oracle for the same manufactured problem
    box = px.Box([0.0], [1.0])
    f = px.GridFunction.constant(box, 256, -2.0)
    field = px.constant_exponent(2.0, domain=box)
    res = px.solve_dirichlet(px.ProblemSpec(box, field, f, 0.0, reg_eps=0.0, tol=1e-9))
    ball = px.Ball([0.5], 0.1)
    mu = px.harnack_mu(f, ball, np.inf, field)
    want = px.harnack_check(res.solution, ball, mu, field)

    out = tmp_path / "out"
    cfg = write_config(tmp_path, manufactured_config(out, [
        {"kind": "harnack", "center": [0.5], "radius": 0.1, "q0": "inf"},
        {"kind": "holder", "center": [0.5], "radii": [0.4, 0.2, 0.1, 0.05, 0.025]},
    ]))
    assert main(["verify", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [r["check"] for r in report] == ["harnack", "holder"]
    harnack = report[0]
    assert harnack["status"] == "ok"
    assert harnack["ratio"] == pytest.approx(want.c_emp, rel=1e-12)
    assert harnack["mu"] == pytest.approx(mu, rel=1e-12)
    holder = report[1]
    assert holder["ratio"] is not None  # fitted decay exponent
    # CSV aggregate has the documented column set
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == "check,center,R,lhs,rhs,ratio,p_minus,p_plus,mu"


def test_verify_deterministic_bodies(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    checks = [{"kind": "structure", "alpha": 1.0, "k1": 1.0, "m0": 1.0,
               "flux": "p-laplacian"},
              {"kind": "weak-harnack", "center": [0.5], "radius": 0.1}]
    cfg1 = write_config(tmp_path, manufactured_config(out1, checks), "a.json")
    cfg2 = write_config(tmp_path, manufactured_config(out2, checks), "b.json")
    assert main(["verify", cfg1]) == 0
    assert main(["verify", cfg2]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def test_verify_builds_one_geometry_per_solve_and_per_cell_integral(tmp_path, geometry_builds):
    # the solve builds the lattice geometry, which its weak residual shares;
    # the caccioppoli check, and the Luxemburg norm, Sobolev norm and modular
    # of the norm check, each build one to integrate over the cells
    out = tmp_path / "out"
    cfg = manufactured_config(out, [
        {"kind": "caccioppoli", "center": [0.5], "rho": 0.2, "gamma": 1.0, "cutoff": "bump"},
        {"kind": "norm"},
    ])
    cfg["problem"]["dirichlet"] = {"kind": "constant", "value": 2.0}  # u >= 1 for caccioppoli
    assert main(["verify", write_config(tmp_path, cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [r["status"] for r in report] == ["ok", "ok"]
    assert len(geometry_builds) == 5


def test_report_schema_validates(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, manufactured_config(out, [
        {"kind": "harnack", "center": [0.5], "radius": 0.1, "q0": "inf"},
        {"kind": "max-principle", "margin": 0.1},
        {"kind": "hopf", "point": [0.0], "direction": [1.0],
         "steps": [0.00390625, 0.0078125]},
        {"kind": "barrier", "center": [0.0, 0.0], "delta": 1.0, "mu": 8.0,
         "exponent": {"kind": "constant", "value": 2.0}, "resolution": 0.05},
        {"kind": "norm"},
    ]))
    assert main(["verify", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, px.load_report_schema())


def test_check_error_nonzero_exit_names_check(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, manufactured_config(out, [
        {"kind": "harnack", "center": [0.5], "radius": 0.4, "q0": "inf"},  # 4R escapes
    ]))
    assert main(["verify", cfg]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report[0]["check"] == "harnack"
    assert report[0]["status"] == "error"
    assert "escapes" in report[0]["detail"]["message"]


BARRIER_P2 = {"kind": "barrier", "center": [0.0, 0.0], "delta": 1.0, "mu": 8.0,
              "exponent": {"kind": "constant", "value": 2.0}, "resolution": 0.05}


@pytest.mark.parametrize("check, name", [
    ({"kind": "weak-harnack", "center": [0.5], "radius": 0.1, "t0": "inf",
      "min_value": "shift"}, "t0"),
    ({"kind": "caccioppoli", "center": [0.5], "rho": 0.2, "c_probe": float("nan")}, "C_probe"),
    ({"kind": "local-bound", "inner_center": [0.5], "inner_radius": 0.1, "outer_radius": 0.2,
      "c_probe": float("nan")}, "C_probe"),
    ({**BARRIER_P2, "a_level": float("nan")}, "a_level"),
    ({**BARRIER_P2, "resolution": -1}, "resolution"),
    ({"kind": "caccioppoli", "center": [0.5], "rho": float("nan")}, "rho"),
    ({"kind": "max-principle", "margin": 0.1, "zero_tol": float("nan")}, "zero_tol"),
])
def test_bad_check_parameter_is_an_error_record(tmp_path, check, name):
    # json reads NaN and Infinity and float() reads "inf": such a parameter
    # gives an error record naming it, not an ok record with null or wrong numbers
    out = tmp_path / "out"
    cfg = manufactured_config(out, [check])
    cfg["problem"]["dirichlet"] = {"kind": "constant", "value": 2.0}  # u >= 1 for caccioppoli
    assert main(["verify", write_config(tmp_path, cfg)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report[0]["status"] == "error"
    assert f"{name} must be finite" in report[0]["detail"]["message"]

def test_norm_check_overflow_is_an_error_record(tmp_path):
    # the modular at lam = 1e-200 overflows: an error record naming lam,
    # not an ok record whose modular_at_lam is null
    out = tmp_path / "out"
    cfg = manufactured_config(out, [{"kind": "norm", "lam": 1e-200}])
    assert main(["verify", write_config(tmp_path, cfg)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report[0]["check"] == "norm" and report[0]["status"] == "error"
    assert "lambda = 1e-200" in report[0]["detail"]["message"]


def test_large_exponents_give_finite_numbers_and_strict_json(tmp_path):
    # (u + 1)^1e4 and u^1000 overflow for u = 5 + x; the L^t average and the
    # L^t norm factor out their largest sample, so both checks report finite
    # numbers, and report.json carries no Infinity or NaN literal
    out = tmp_path / "out"
    cfg = {"seed": 0, "output": str(out),
           "problem": {"domain": [[0.0, 1.0], [0.0, 1.0]], "cells": 16,
                       "exponent": {"kind": "constant", "value": 3.0},
                       "rhs": {"kind": "constant", "value": -1.0},
                       "dirichlet": {"kind": "affine", "offset": 5.0, "coeffs": [1.0, 0.0]}},
           "checks": [{"kind": "weak-harnack", "center": [0.5, 0.5], "radius": 0.2, "t0": 1e4},
                      {"kind": "local-bound", "inner_center": [0.5, 0.5], "inner_radius": 0.1,
                       "outer_radius": 0.3, "t": 1000.0}]}
    path = write_config(tmp_path, cfg)
    assert main(["verify", path]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    weak, local = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert weak["status"] == local["status"] == "ok"
    u = px.solve_dirichlet(build_problem(cfg["problem"], tmp_path)).solution
    shifted = u.values.reshape(-1)[px.Ball([0.5, 0.5], 0.4).contains(u.nodes())] + 1.0
    assert shifted.min() <= weak["rhs"] <= shifted.max()
    assert weak["ratio"] == weak["lhs"] / weak["rhs"]
    assert 0.0 < local["detail"]["norm_outer"] < np.inf
    assert local["rhs"] == 1.0 + local["detail"]["norm_outer"]
    assert local["detail"]["holds"] is (local["lhs"] <= local["rhs"]) is True


def test_solve_subcommand_writes_solution(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, manufactured_config(out, []))
    assert main(["solve", cfg]) == 0
    sol = px.read_gridfunction(out / "solution.pxgrid")
    x = sol.nodes()[:, 0]
    assert np.abs(sol.values - x * (1 - x)).max() <= 1e-6


def test_solve_flag_overrides_config(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, manufactured_config(out, []))
    assert main(["solve", cfg, "--cells", "32"]) == 0
    sol = px.read_gridfunction(out / "solution.pxgrid")
    assert sol.dims == (33,)


def test_norm_subcommand(tmp_path, capsys):
    g = px.GridFunction.constant(px.Box([0.0], [1.0]), 64, 3.0)
    path = tmp_path / "u.pxgrid"
    px.write_gridfunction(g, path)
    assert main(["norm", str(path), "--exponent", '{"kind": "constant", "value": 2.0}']) == 0
    text = capsys.readouterr().out
    lux = float(text.split("luxemburg=")[1].split()[0])
    assert lux == pytest.approx(3.0, rel=1e-9)


def test_barrier_scan_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["barrier-scan", "--center", "0,0", "--delta", "1.0", "--mu", "8.0",
               "--exponent", '{"kind": "constant", "value": 2.0}',
               "--resolution", "0.05", "--output", str(out)])
    assert rc == 0
    scan = px.barrier_subsolution_scan(px.BarrierParams([0.0, 0.0], 1.0, 8.0, 1.0),
                                       px.constant_exponent(2.0), 0.05)
    assert capsys.readouterr().out == (
        f"barrier scan: min={scan.min_operator_value!r} at {scan.argmin.tolist()} "
        f"({scan.samples} samples)\n")
    # the report body is the record the scan's flags have always written
    ref = tmp_path / "ref"
    px.write_reports([px.CheckRecord("barrier", center=[0.0, 0.0], radius=1.0,
                                     lhs=scan.min_operator_value, mu=8.0,
                                     detail={"argmin": scan.argmin, "samples": scan.samples})],
                     ref, meta={})
    for name in ("report.json", "report.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()
    assert json.loads((out / "report.json").read_text())[0]["lhs"] > 0


def test_structure_check_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "output": str(out),
        "check": {"kind": "structure", "domain": [[0.0, 1.0]], "cells": 8,
                  "exponent": {"kind": "constant", "value": 2.0},
                  "alpha": 1.0, "k1": 1.0, "m0": 1.0, "flux": "p-laplacian"},
    })
    assert main(["structure-check", cfg]) == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_structure_check_rejects_fractional_cells(tmp_path, capsys):
    # int() made 8.5 cells 8
    cfg = write_config(tmp_path, {
        "output": str(tmp_path / "out"),
        "check": {"kind": "structure", "domain": [[0.0, 1.0]], "cells": 8.5,
                  "exponent": {"kind": "constant", "value": 2.0}, "alpha": 1.0, "m0": 1.0},
    })
    assert main(["structure-check", cfg]) == 1
    assert "cells must be whole numbers, got 8.5" in capsys.readouterr().err


def test_structure_check_rejects_nan_b(tmp_path, capsys):
    # json reads the NaN literal; a nan b would hide every natural-growth violation
    cfg = write_config(tmp_path, {
        "output": str(tmp_path / "out"),
        "check": {"kind": "structure", "domain": [[0.0, 1.0]], "cells": 8,
                  "exponent": {"kind": "constant", "value": 2.0}, "alpha": 1.0,
                  "m0": 1.0, "b": float("nan"), "natural_growth": True},
    })
    assert "NaN" in open(cfg).read()
    assert main(["structure-check", cfg]) == 1
    assert "b must be finite" in capsys.readouterr().err


def test_unsampled_region_and_empty_structure_samples_are_error_records(tmp_path):
    # An 8-cell square: the local-bound outer ball (radius 0.002) holds no
    # cell weight, and n_radii = 0 builds no structure sample.  Both used to
    # be ok records, holds: true with norm_outer 0.0 and 0 samples.
    out = tmp_path / "out"
    cfg = manufactured_config(out, [
        {"kind": "local-bound", "inner_center": [0.5, 0.5], "inner_radius": 0.001,
         "outer_radius": 0.002},
        {"kind": "structure", "flux": "p-laplacian", "alpha": 1.0, "k1": 1.0, "m0": 1.0,
         "samples": {"n_radii": 0}},
    ])
    cfg["problem"].update(domain=[[0.0, 1.0], [0.0, 1.0]], cells=8,
                          rhs={"kind": "constant", "value": -1.0})
    assert main(["verify", write_config(tmp_path, cfg)]) == 1
    local, structure = json.loads((out / "report.json").read_text())
    assert local["status"] == structure["status"] == "error"
    assert local["detail"]["message"] == ("ball at [0.5 0.5], radius 0.002: "
                                          "no cell weight inside")
    assert structure["detail"]["message"] == "n_radii must be an integer >= 1, got 0"


def test_unsampled_cutoff_is_an_error_record(tmp_path):
    # An 8-cell square with u = 2: a bump of radius 0.01 at (0.51, 0.51)
    # vanishes at every node, so no cell samples the cutoff.  It used to be
    # an ok record, holds: true with lhs = rhs = 0.
    out = tmp_path / "out"
    cfg = manufactured_config(out, [{"kind": "caccioppoli", "center": [0.51, 0.51],
                                     "rho": 0.01}])
    cfg["problem"].update(domain=[[0.0, 1.0], [0.0, 1.0]], cells=8, rhs=0.0,
                          dirichlet={"kind": "constant", "value": 2.0})
    assert main(["verify", write_config(tmp_path, cfg)]) == 1
    (record,) = json.loads((out / "report.json").read_text())
    assert record["status"] == "error"
    assert record["detail"]["message"] == "cutoff eta: no cell weight inside its support"


@pytest.mark.parametrize("key, value, message", [
    ("reg_eps", -1.0, r"problem: reg_eps must be finite and >= 0, got -1\.0"),
    ("exponent", {"kind": "constant", "value": 0.5},
     r"problem key 'exponent': need 1 < p1 <= p2 < inf, got p1=0\.5"),
    ("max_iter", 2.5, r"problem key 'max_iter' must be an integer, got 2\.5"),
    ("reg_eps", True, r"problem key 'reg_eps' must be a number, got True"),
    ("tol", True, r"problem key 'tol' must be a number, got True"),
    ("max_iter", True, r"problem key 'max_iter' must be a number, got True"),
    ("cells", 16.9, r"problem: cells must be whole numbers, got 16\.9"),
    ("cells", True, r"problem: cells must be whole numbers, got True"),
], ids=["negative-reg_eps", "exponent-below-one", "fractional-max_iter", "bool-reg_eps",
        "bool-tol", "bool-max_iter", "fractional-cells", "bool-cells"])
def test_bad_problem_value_is_a_config_error(tmp_path, capsys, key, value, message):
    # These used to end in a ValueError traceback with exit 1, the code of a
    # failed check, or to run silently: max_iter 2.5 with int(2.5) = 2, a
    # JSON true as tol or reg_eps 1.0, and as max_iter a one-step solve; cells
    # 16.9 solved on 16 cells, and true failed on "no interior node".
    cfg = manufactured_config(tmp_path / "out", [{"kind": "norm"}])
    cfg["problem"][key] = value
    with pytest.raises(ConfigError, match=message):
        build_problem(cfg["problem"])
    assert main(["verify", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pxlap: config error: ") and key in err


@pytest.mark.parametrize("cells", [None, 48, [48, 48]], ids=["no-cells", "48", "list"])
def test_field_dirichlet_is_sampled_on_the_rhs_file_lattice(tmp_path, cells):
    # With no cells key the ramp data went on 64 cells, the rhs file has 48:
    # the solve raised "dirichlet grid does not match the rhs lattice", and
    # verify recorded every solution check as an error.
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    px.write_gridfunction(px.GridFunction.constant(box, 48, -1.0), tmp_path / "rhs.pxgrid")
    cfg = manufactured_config(tmp_path / "out", [{"kind": "max-principle", "margin": 0.1}])
    cfg["problem"].update(domain=[[0.0, 1.0], [0.0, 1.0]], rhs={"file": "rhs.pxgrid"},
                          dirichlet={"kind": "ramp", "axis": 0, "threshold": 0.5},
                          exponent={"kind": "constant", "value": 2.5}, reg_eps=1e-8, tol=1e-7)
    del cfg["problem"]["cells"]
    if cells is not None:
        cfg["problem"]["cells"] = cells
    spec = build_problem(cfg["problem"], tmp_path)
    assert spec.dirichlet.same_lattice(spec.rhs) and spec.rhs.dims == (49, 49)
    assert px.solve_dirichlet(spec).converged
    assert main(["verify", write_config(tmp_path, cfg)]) == 0


@pytest.mark.parametrize("cells", [64, [48, 32], 47.5])
def test_cells_that_disagree_with_the_rhs_file_is_a_config_error(tmp_path, capsys, cells):
    box = px.Box([0.0, 0.0], [1.0, 1.0])
    px.write_gridfunction(px.GridFunction.constant(box, 48, -1.0), tmp_path / "rhs.pxgrid")
    cfg = manufactured_config(tmp_path / "out", [{"kind": "norm"}])
    cfg["problem"].update(domain=[[0.0, 1.0], [0.0, 1.0]], rhs={"file": "rhs.pxgrid"},
                          cells=cells)
    with pytest.raises(ConfigError, match=r"(problem key 'cells' is .* but the rhs file has "
                                          r"\[48, 48\]$|problem: cells must be whole numbers)"):
        build_problem(cfg["problem"], tmp_path)
    assert main(["verify", write_config(tmp_path, cfg)]) == 2
    assert "cells" in capsys.readouterr().err
