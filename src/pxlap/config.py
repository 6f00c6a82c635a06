"""Build package objects from structured-text (JSON) run configs.

Scalar fields (rhs, dirichlet) and exponent fields come from small named
forms with parameters, or from PXGRID files; flux pairs come from the named
forms of the structure module.  The full key set is documented in the
README.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import structure as st
from .exponent import (ExponentField, affine_exponent, constant_exponent,
                       grid_exponent, piecewise_exponent, radial_exponent)
from .grid import Box, GridFunction, read_gridfunction, row_norm
from .solver import ProblemSpec

__all__ = ["ConfigError", "load_config", "build_problem", "build_exponent",
           "build_scalar_field", "build_flux", "parse_q"]

class ConfigError(ValueError):
    pass


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {p} is not valid JSON: {e}") from e


def parse_q(v) -> float:
    if isinstance(v, str):
        if v.lower() in ("inf", "infinity"):
            return np.inf
        raise ConfigError(f"bad integrability exponent {v!r}")
    return float(v)


def _resolve(path, base: Path | None):
    p = Path(path)
    if not p.is_absolute() and base is not None:
        p = base / p
    if not p.exists():
        raise ConfigError(f"grid file not found: {p}")
    return p


def build_exponent(cfg: dict, domain: Box | None, base: Path | None = None) -> ExponentField:
    if "file" in cfg:
        return grid_exponent(read_gridfunction(_resolve(cfg["file"], base)))
    kind = cfg.get("kind")
    if kind == "constant":
        return constant_exponent(cfg["value"], domain=domain)
    if kind == "affine":
        if domain is None:
            raise ConfigError("affine exponent needs a domain")
        return affine_exponent(cfg["offset"], cfg["coeffs"], domain)
    if kind == "radial":
        if domain is None:
            raise ConfigError("radial exponent needs a domain")
        return radial_exponent(cfg["center"], cfg["offset"], cfg["slope"], domain)
    if kind == "piecewise":
        return piecewise_exponent(cfg["axis"], cfg["threshold"], cfg["left"],
                                  cfg["right"], domain=domain)
    raise ConfigError(f"unknown exponent kind {kind!r}")


def _scalar_callable(cfg: dict):
    kind = cfg.get("kind")
    if kind in ("zero",):
        return lambda pts: np.zeros(pts.shape[0])
    if kind == "constant":
        v = float(cfg["value"])
        return lambda pts: np.full(pts.shape[0], v)
    if kind == "affine":
        coeffs = np.atleast_1d(np.asarray(cfg["coeffs"], dtype=float))
        off = float(cfg.get("offset", 0.0))
        return lambda pts: off + pts @ coeffs
    if kind == "radial_power":
        c = np.atleast_1d(np.asarray(cfg["center"], dtype=float))
        beta = float(cfg["exponent"])
        scale = float(cfg.get("scale", 1.0))
        off = float(cfg.get("offset", 0.0))
        return lambda pts: off + scale * row_norm(pts - c) ** beta
    if kind == "ramp":
        a = int(cfg.get("axis", 0))
        t = float(cfg.get("threshold", 0.0))
        scale = float(cfg.get("scale", 1.0))
        return lambda pts: scale * np.maximum(0.0, pts[:, a] - t)
    raise ConfigError(f"unknown scalar field kind {kind!r}")


def build_scalar_field(cfg, box: Box, cells, base: Path | None = None) -> GridFunction:
    if isinstance(cfg, dict) and "file" in cfg:
        return read_gridfunction(_resolve(cfg["file"], base))
    if isinstance(cfg, (int, float)):
        cfg = {"kind": "constant", "value": cfg}
    return GridFunction.from_callable(box, cells, _scalar_callable(cfg))


def build_problem(cfg: dict, base: Path | None = None) -> ProblemSpec:
    """The ProblemSpec of a config's problem section.  A missing key, or a
    value that the exponent field or ProblemSpec rejects, is a ConfigError
    naming the key."""
    try:
        dom = np.asarray(cfg["domain"], dtype=float)
        box = Box(dom[:, 0], dom[:, 1])
        cells = cfg.get("cells", 64)
        rhs = build_scalar_field(cfg.get("rhs", 0.0), box, cells, base)
        try:
            field = build_exponent(cfg["exponent"], box, base)
        except ValueError as e:
            raise ConfigError(f"problem key 'exponent': {e}") from e
        diricfg = cfg.get("dirichlet", 0.0)
        if isinstance(diricfg, dict):
            dirichlet = build_scalar_field(diricfg, box, cells, base)
        else:
            dirichlet = float(diricfg)
        max_iter = cfg.get("max_iter", 200)
        if not (isinstance(max_iter, (int, float)) and float(max_iter).is_integer()):
            raise ConfigError(f"problem key 'max_iter' must be an integer, got {max_iter!r}")
        # ProblemSpec's errors start with the name of the field, which is the key
        return ProblemSpec(box, field, rhs, dirichlet, reg_eps=float(cfg.get("reg_eps", 1e-8)),
                           tol=float(cfg.get("tol", 1e-7)), max_iter=int(max_iter))
    except KeyError as e:
        raise ConfigError(f"problem config is missing key {e}") from e
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"problem: {e}") from e


def build_flux(cfg, field: ExponentField, base: Path | None = None) -> st.FluxPair:
    if isinstance(cfg, str):
        cfg = {"kind": cfg}
    kind = cfg.get("kind")
    if kind == "p-laplacian":
        pair = st.p_laplacian_flux(field)
    elif kind == "scaled":
        pair = st.scaled_flux(field, float(cfg["factor"]))
    elif kind == "zero":
        pair = st.zero_flux()
    else:
        raise ConfigError(f"unknown flux kind {kind!r}")
    src = cfg.get("source")
    if src is not None:
        if isinstance(src, dict) and "file" in src:
            pair = st.grid_source(pair, read_gridfunction(_resolve(src["file"], base)))
        elif isinstance(src, dict) and src.get("kind") == "constant":
            pair = st.constant_source(pair, float(src["value"]))
        elif isinstance(src, (int, float)):
            pair = st.constant_source(pair, float(src))
        elif not (isinstance(src, dict) and src.get("kind") == "zero"):
            raise ConfigError(f"unknown source config {src!r}")
    return pair
