"""The three seeded workloads: input generation, one operation, and its gates.

The seed drives only the perturbation of the source f; every exponent field
is fixed, so each workload keeps its p regime.  pxlap receives only the
generated inputs.  A workload object is set up once, then `run(prepare(k))`
is one operation of a closed loop, timed from outside and gated inside.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

import gates

VERIFY_CONFIG = Path(__file__).resolve().parent / "verify_config.json"


def seeded_source(lo, hi, cells: int, seed: int, index: int = 0):
    """f = -1 - sum_j a_j (1 + cos(pi k_j . t + phi_j)) / 2 on the lattice, so f <= -1.

    t = (x - lo) / (hi - lo) is the unit-box coordinate; two modes with
    wave vectors k_j in {1, 2}^n, phases phi_j and amplitudes a_j in
    [0.1, 0.25] are drawn from the stream (seed, index).
    """
    import pxlap

    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    n = lo.size
    rng = np.random.default_rng([seed, index])
    waves = rng.integers(1, 3, size=(2, n))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=2)
    amps = rng.uniform(0.1, 0.25, size=2)
    axis = np.arange(cells + 1) / cells
    t = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1)
    f = -1.0 - sum(a * 0.5 * (1.0 + np.cos(np.pi * (t @ k) + ph))
                   for a, k, ph in zip(amps, waves, phases))
    return pxlap.GridFunction((cells + 1,) * n, lo, (hi - lo) / cells, f)


class SolveWorkload:
    """solve_dirichlet on the unit box with zero Dirichlet data.

    Operation k solves the problem whose source comes from the stream
    (seed, k), so a run's median spans several sources of the same family.
    """

    reg_eps, tol = 1e-8, 1e-7

    def __init__(self, name: str, n_axes: int, cells: int, exponent):
        self.name, self.n_axes, self.cells, self.exponent = name, n_axes, cells, exponent

    def setup(self, seed: int, workdir: Path) -> None:
        import pxlap

        self.seed = seed
        self.box = pxlap.Box([0.0] * self.n_axes, [1.0] * self.n_axes)
        self.field = self.exponent(pxlap, self.box)
        self.prepare(0)

    def prepare(self, index: int, max_iter: int = 200):
        import pxlap

        f = seeded_source(self.box.lo, self.box.hi, self.cells, self.seed, index)
        return pxlap.ProblemSpec(self.box, self.field, f, 0.0, reg_eps=self.reg_eps,
                                 tol=self.tol, max_iter=max_iter)

    def warm(self) -> None:
        """A few full-size Newton steps: code paths load and the allocator settles."""
        import pxlap

        pxlap.solve_dirichlet(self.prepare(0, max_iter=4))

    def run(self, spec) -> tuple:
        import pxlap

        t0 = time.perf_counter()
        res = pxlap.solve_dirichlet(spec)
        t1 = time.perf_counter()
        wres = pxlap.weak_residual(res.solution, spec)
        t2 = time.perf_counter()
        values = {"time_to_solution_s": t1 - t0, "time_to_verdict_s": t2 - t0,
                  "newton_iterations": res.iterations}
        return values, gates.solve_gate(res.converged, res.message, wres, spec.tol)


class VerifyWorkload:
    """Solve the committed config's problem, run `pxlap verify` on it, then the scans.

    The config's rhs is the seeded source, written next to a copy of the
    config as the PXGRID file it names.  One operation: solve_dirichlet of
    the config's problem through the API, the verify command in-process, a
    p = 2 barrier bracket on mu in [2, 8] and Gaussian scans over a mu ladder.
    """

    name = "verify-harness"
    gaussian_mus = (4.0, 8.0, 16.0, 32.0, 64.0)
    gaussian_annulus = (0.5, 1.0)

    def setup(self, seed: int, workdir: Path) -> None:
        import pxlap
        import pxlap.cli  # noqa: F401  (the operation calls pxlap.cli.main)
        import pxlap.config as cf

        workdir.mkdir(parents=True, exist_ok=True)
        cfg = json.loads(VERIFY_CONFIG.read_text())
        prob = cfg["problem"]
        dom = np.asarray(prob["domain"], dtype=float)
        f = seeded_source(dom[:, 0], dom[:, 1], prob["cells"], seed)
        pxlap.write_gridfunction(f, workdir / prob["rhs"]["file"])
        self.config = workdir / VERIFY_CONFIG.name
        shutil.copyfile(VERIFY_CONFIG, self.config)
        self.spec = cf.build_problem(cf.load_config(self.config)["problem"], workdir)
        self.outdir = workdir / "reports"
        self.schema = pxlap.load_report_schema()
        self.p2 = pxlap.constant_exponent(2.0)
        self.template = pxlap.BarrierParams([0.0, 0.0], 1.0, 2.0, 1.0)
        self.reference = None

    def prepare(self, index: int):
        return None

    def warm(self) -> None:
        self.run(None)
        self.reference = None

    def run(self, _) -> tuple:
        import pxlap
        import pxlap.barriers as bar
        import pxlap.cli

        t0 = time.perf_counter()
        res = pxlap.solve_dirichlet(self.spec)
        t1 = time.perf_counter()
        wres = pxlap.weak_residual(res.solution, self.spec)
        t2 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = pxlap.cli.main(["verify", str(self.config), "--output", str(self.outdir)])
        t3 = time.perf_counter()
        lo, hi = bar.bracket_subsolution_mu(self.template, self.p2, 2.0, 8.0, 0.02, width=0.004)
        scans = [bar.gaussian_lower_bound_scan(1.0, mu, self.p2, self.gaussian_annulus, 0.025,
                                               center=[0.0, 0.0])
                 for mu in self.gaussian_mus]
        t4 = time.perf_counter()

        report = (self.outdir / "report.json").read_bytes()
        failures = gates.solve_gate(res.converged, res.message, wres, self.spec.tol)
        failures += gates.verify_gate(code, report, self.schema, self.reference)
        failures += gates.bracket_gate(lo, hi)
        for mu, scan in zip(self.gaussian_mus, scans):
            failures += gates.gaussian_gate(scan.lhs_min, mu, self.gaussian_annulus[0], 2)
        if self.reference is None and not failures:
            self.reference = report
        values = {"time_to_solution_s": t1 - t0, "time_to_verdict_s": t4 - t0,
                  "verify_s": t3 - t2, "scan_s": t4 - t3, "newton_iterations": res.iterations}
        return values, failures


def _p15(px, box):
    return px.constant_exponent(1.5, domain=box)


def _p_affine3d(px, box):
    return px.affine_exponent(2.5, [0.3, 0.2, 0.1], box)


def get(name: str):
    if name == "solve2d-singular":
        return SolveWorkload(name, 2, 64, _p15)
    if name == "solve3d-degenerate":
        return SolveWorkload(name, 3, 16, _p_affine3d)
    if name == "verify-harness":
        return VerifyWorkload()
    raise ValueError(f"unknown workload {name!r}")
