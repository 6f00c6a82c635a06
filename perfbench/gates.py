"""Correctness gates.  Each returns a list of failure messages, empty on success.

An operation whose gates return any message counts as failed.  The gates
compare against exact or independently computed values and are never relaxed
to make a run pass.
"""

from __future__ import annotations

import json
import math

P2_THRESHOLD_2D = 4.0  # exact barrier threshold mu = 2n for p = 2, n = 2


def solve_gate(converged: bool, message: str, weak_res: float, tol: float) -> list:
    out = []
    if not converged:
        out.append(f"solve did not converge: {message}")
    if not math.isfinite(weak_res):
        out.append(f"weak residual is not finite: {weak_res}")
    elif weak_res > tol:
        out.append(f"weak residual {weak_res:.3e} exceeds tol {tol:.3e}")
    return out


def verify_gate(exit_code: int, report_bytes: bytes, schema: dict,
                reference: bytes | None) -> list:
    """pxlap verify exited 0, report.json validates, and its bytes repeat."""
    import jsonschema

    out = []
    if exit_code != 0:
        out.append(f"pxlap verify exited {exit_code}")
    try:
        report = json.loads(report_bytes)
        jsonschema.validate(report, schema)
    except (ValueError, jsonschema.ValidationError) as e:
        out.append(f"report.json does not validate: {str(e).splitlines()[0]}")
    else:
        bad = [r.get("check") for r in report if r.get("status") != "ok"]
        if bad:
            out.append(f"checks did not run cleanly: {bad}")
    if reference is not None and report_bytes != reference:
        out.append("report.json differs from the first repetition of this run")
    return out


def bracket_gate(lo: float, hi: float, threshold: float = P2_THRESHOLD_2D) -> list:
    if lo <= threshold <= hi:
        return []
    return [f"mu bracket [{lo}, {hi}] excludes the exact threshold {threshold}"]


def gaussian_gate(lhs_min: float, mu: float, r_inner: float, n_axes: int,
                  rtol: float = 1e-9) -> list:
    """For p = 2 the scan minimum is 2 (2 mu r2^2 - n), attained on the inner sphere."""
    want = 2.0 * (2.0 * mu * r_inner**2 - n_axes)
    if abs(lhs_min - want) <= rtol * max(1.0, abs(want)):
        return []
    return [f"Gaussian scan at mu={mu}: minimum {lhs_min!r}, exact {want!r}"]
