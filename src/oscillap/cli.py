"""Command-line front end: config in, audit-ready reports and plot data out.

Every command reads one JSON config file, validates it against a schema
before touching any mathematics, and writes its outputs atomically into
the chosen directory.  Reports embed the sha256 of the config bytes and
the toolkit version so a result can always be traced to its inputs.

Exit codes: 0 success, 2 configuration problem, 3 computation failure,
4 property violation (a certified inequality failed beyond tolerance).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .errors import EmptyGrid, OscillapError, StalledAtCriticalPoint
from .nonlinearity import find_zeros, nonlinearity_from_json
from .primitives import PrimitiveCalculus, extended_real
from .shoot_plap import (
    BifurcationDiagram,
    HitZero,
    ShootConfig,
    UnresolvedBracket,
    check_necessary_conditions,
    diagram_csv_lines,
    shoot,
)
from .shoot_pucci import PucciShootConfig
from .thresholds import BallGeometry, Operator, compute_thresholds
from .variational import (
    Potential,
    radial_grid,
    run_sequence,
    sequence_csv_lines,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_VIOLATION = 4

# tolerances the audit sections fall back to when the config is silent
DEFAULT_ENERGY_RESIDUAL_TOL = 1e-6
DEFAULT_BOUND_SLACK_TOL = 1e-8

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["nonlinearity", "operator", "geometry"],
    "additionalProperties": False,
    "properties": {
        "nonlinearity": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"type": "string"},
                "r": {"type": "number"},
                "samples": {"type": "array"},
                "direction": {"enum": ["zero", "infinity"]},
            },
            "additionalProperties": False,
        },
        "operator": {
            "type": "object",
            "minProperties": 1,
            "maxProperties": 1,
            "additionalProperties": False,
            "properties": {
                "plap": {
                    "type": "object",
                    "required": ["p"],
                    "properties": {"p": {"type": "number", "exclusiveMinimum": 1}},
                    "additionalProperties": False,
                },
                "pucci": {
                    "type": "object",
                    "required": ["Lambda"],
                    "properties": {"Lambda": {"type": "number", "minimum": 1}},
                    "additionalProperties": False,
                },
            },
        },
        "geometry": {
            "type": "object",
            "required": ["N", "R"],
            "properties": {
                "N": {"type": "integer", "minimum": 1},
                "R": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "scan": {
            "type": "object",
            "required": ["c_min", "c_max", "points"],
            "properties": {
                "c_min": {"type": "number", "exclusiveMinimum": 0},
                "c_max": {"type": "number", "exclusiveMinimum": 0},
                "points": {"type": "integer", "minimum": 0},
                "log_spacing": {"type": "boolean"},
                "lambda_star": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                },
            },
            "additionalProperties": False,
        },
        "shoot": {
            "type": "object",
            "required": ["c"],
            "properties": {
                "c": {"type": "number", "exclusiveMinimum": 0},
                "lambda": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "minimize": {
            "type": "object",
            "required": ["K", "lambda"],
            "properties": {
                "K": {"type": "integer", "minimum": 1},
                "lambda": {"type": "number", "minimum": 0},
                "grid_cells": {"type": "integer", "minimum": 2},
                "grading": {"type": "number", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "certify": {
            "type": "object",
            "properties": {"diagram_csv": {"type": "string"}},
            "additionalProperties": False,
        },
        "tolerances": {
            "type": "object",
            "properties": {
                "tol_ode": {"type": "number", "exclusiveMinimum": 0},
                "event_tol": {"type": "number", "exclusiveMinimum": 0},
                "r_max": {"type": "number", "exclusiveMinimum": 0},
                "tol_stat": {"type": "number", "exclusiveMinimum": 0},
                "energy_residual": {"type": "number", "exclusiveMinimum": 0},
                "bound_slack": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "zeros": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "output": {
            "type": "object",
            "properties": {"dir": {"type": "string"}},
            "additionalProperties": False,
        },
    },
}


def _has_type(value, name: str) -> bool:
    """JSON Schema's types: true is not a number, and 3.0 is an integer."""
    if name in ("number", "integer"):
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and (name == "number" or isinstance(value, int)
                     or value.is_integer()))
    return isinstance(value, {"object": dict, "array": list, "string": str,
                              "boolean": bool}[name])


def schema_errors(value, schema: dict, path: tuple = ()):
    """Yield ``(path, message)`` for each way ``value`` breaks ``schema``.

    Implements, with JSON Schema (draft 2020-12) semantics, exactly the
    keywords ``CONFIG_SCHEMA`` uses; any other keyword raises ValueError
    whatever the value.  A keyword checks only values of the type it
    constrains, and errors come in the schema's key order.
    """
    is_object = isinstance(value, dict)
    for key, want in schema.items():
        if key == "type":
            if not _has_type(value, want):
                yield path, f"{value!r} is not of type {want!r}"
        elif key == "enum":   # of strings, where == is JSON's equality
            if value not in want:
                yield path, f"{value!r} is not one of {want!r}"
        elif key in ("minimum", "exclusiveMinimum"):
            strict = key == "exclusiveMinimum"
            if _has_type(value, "number") and (value <= want if strict
                                               else value < want):
                yield path, (f"{value!r} is less than {'or equal to ' * strict}"
                             f"the minimum of {want!r}")
        elif key == "required":
            for name in want if is_object else ():
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "properties":
            for name, sub in want.items() if is_object else ():
                if name in value:
                    yield from schema_errors(value[name], sub, path + (name,))
        elif key == "additionalProperties" and want is False:
            extra = sorted(set(value) - set(schema.get("properties", {}))
                           if is_object else ())
            if extra:
                verb = "was" if len(extra) == 1 else "were"
                yield path, (f"Additional properties are not allowed "
                             f"({', '.join(map(repr, extra))} {verb} "
                             f"unexpected)")
        elif key in ("minProperties", "maxProperties"):
            few = key == "minProperties"
            if is_object and (len(value) < want if few else len(value) > want):
                yield path, (f"{value!r} has too {'few' if few else 'many'} "
                             f"properties")
        elif key == "items":
            for i, item in enumerate(value if isinstance(value, list) else ()):
                yield from schema_errors(item, want, path + (i,))
        elif key != "$schema":
            raise ValueError(f"schema keyword {key!r}: {want!r} is not "
                             f"implemented")


class ConfigError(Exception):
    """Anything wrong with the config file or its interpretation."""


class PropertyViolation(Exception):
    """A certified inequality failed beyond tolerance."""


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, obj: dict) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")


def _reject_constant(name: str):
    """``json`` accepts NaN and Infinity, which JSON does not."""
    raise ConfigError(f"config is not valid JSON: {name} is not a number")


def _in_float_range(text: str) -> str:
    """A JSON number's text, refused beyond the float range: the program
    computes with every config number as a float."""
    if math.isinf(float(text)):
        raise ConfigError(f"config number {text[:20]}{'...' * (len(text) > 20)}"
                          f" is too large for a float")
    return text


#: command-line overrides: (flag, config section or None for the top
#: level, key, commands that read it, or None for all).  The ``Run``
#: accessors that read an overridden value check that their command is
#: listed (``Run._reads``), so a command that starts reading one fails
#: loudly until it is listed here instead of ignoring the flag.
_OVERRIDES = (
    ("points", "scan", "points", ("diagram",)),
    ("lambda_star", "scan", "lambda_star", ("diagram",)),
    ("tol_ode", "tolerances", "tol_ode", ("shoot", "pucci-shoot", "diagram")),
    ("seed", None, "seed", None),
)


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> None:
    """Write the command's flag overrides into the config, so the schema
    checks them with the file's values.

    A flag for a section the command does not read is ignored, and the
    scan values only replace those of a scan section the file has (the
    command reports a missing one).  JSON has no NaN or Infinity, so a flag
    carrying one is refused here, as in the file.
    """
    for flag, section, key, commands in _OVERRIDES:
        value = getattr(args, flag)
        if value is None or (commands is not None
                             and args.command not in commands):
            continue
        for v in value if isinstance(value, list) else [value]:
            if not math.isfinite(v):
                raise ConfigError(f"--{flag.replace('_', '-')} {v!r} is not "
                                  f"a finite number")
        if section == "tolerances" and section not in cfg:
            cfg[section] = {}   # optional: its keys have defaults
        target = cfg if section is None else cfg.get(section)
        if isinstance(target, dict):
            target[key] = value


class Run:
    """One validated config, with the CLI overrides written into it."""

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        self.out_dir = args.out
        try:
            with open(args.config, "rb") as fh:
                raw = fh.read()
        except OSError as ex:
            raise ConfigError(f"cannot read config: {ex}")
        self.sha256 = hashlib.sha256(raw).hexdigest()
        try:
            cfg = json.loads(raw, parse_constant=_reject_constant,
                             parse_int=lambda t: int(_in_float_range(t)),
                             parse_float=lambda t: float(_in_float_range(t)))
        except json.JSONDecodeError as ex:
            raise ConfigError(f"config is not valid JSON: {ex}")
        if isinstance(cfg, dict):
            _apply_overrides(cfg, args)
        errors = sorted(schema_errors(cfg, CONFIG_SCHEMA), key=lambda e: e[0])
        if errors:
            where, message = errors[0]
            where = "/".join(str(p) for p in where) or "<root>"
            raise ConfigError(f"config rejected at {where}: {message}")
        self.cfg = cfg

        try:
            self.nl = nonlinearity_from_json(cfg["nonlinearity"])
        except OscillapError as ex:
            raise ConfigError(f"nonlinearity spec: {ex}")
        self.N = int(cfg["geometry"]["N"])
        self.R = float(cfg["geometry"]["R"])
        op = cfg["operator"]
        if "plap" in op:
            self.operator = Operator.p_laplacian(float(op["plap"]["p"]))
        else:
            self.operator = Operator.pucci(float(op["pucci"]["Lambda"]))
        #: the operator's shot config at unit height and default controls
        self.shooter = (ShootConfig if self.operator.kind == "p_laplacian"
                        else PucciShootConfig)(self.operator.parameter,
                                               self.N, 1.0)

        tol = cfg.get("tolerances", {})
        self.tol_ode = float(tol.get("tol_ode", 1e-8))
        self.event_tol = float(tol.get("event_tol", 1e-10))
        self.r_max = float(tol.get("r_max", 50.0))
        self.tol_stat = float(tol.get("tol_stat", 1e-8))
        self.energy_tol = float(tol.get("energy_residual",
                                        DEFAULT_ENERGY_RESIDUAL_TOL))
        self.slack_tol = float(tol.get("bound_slack", DEFAULT_BOUND_SLACK_TOL))

        self.seed = int(cfg.get("seed", 0))
        self.zeros_count = int(cfg.get("zeros", 12))
        if self.out_dir is None:
            self.out_dir = cfg.get("output", {}).get("dir", ".")
        os.makedirs(self.out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def stamp(self) -> dict:
        return {"version": __version__, "config_sha256": self.sha256,
                "seed": self.seed}

    def _reads(self, flag: str) -> None:
        """Guard of an accessor that reads the value ``flag`` overrides."""
        commands = next(cmds for f, _, _, cmds in _OVERRIDES if f == flag)
        if commands is not None and self.command not in commands:
            raise RuntimeError(f"{self.command} reads the value of --"
                               f"{flag.replace('_', '-')} but is not listed "
                               f"for it in _OVERRIDES")

    def shoot_config(self, c: float, lambda_shoot: float = 1.0):
        """The operator's shot config at height c with this run's controls."""
        self._reads("tol_ode")
        return dataclasses.replace(
            self.shooter, c=float(c), lambda_shoot=lambda_shoot,
            r_max=self.r_max, tol_ode=self.tol_ode, event_tol=self.event_tol)

    def scan_grid(self) -> np.ndarray:
        self._reads("points")
        if "scan" not in self.cfg:
            raise ConfigError("this command needs a 'scan' section")
        scan = self.cfg["scan"]
        lo, hi = float(scan["c_min"]), float(scan["c_max"])
        n = int(scan["points"])
        if n == 0:
            raise ConfigError("scan has zero points")
        if not lo <= hi:
            raise ConfigError(f"scan needs c_min <= c_max, got [{lo}, {hi}]")
        if scan.get("log_spacing", False):
            return np.geomspace(lo, hi, n)
        return np.linspace(lo, hi, n)

    def stars(self) -> List[float]:
        self._reads("lambda_star")
        return [float(v) for v in self.cfg.get("scan", {}).get("lambda_star", [])]


def cmd_analyze(run: Run) -> int:
    # both operators' thresholds: the one the config did not choose is
    # taken at p = 2 or Lambda = 1, where the two coincide; the config's
    # limits are those of its threshold report
    pc = PrimitiveCalculus(run.nl)
    plap = (run.operator if run.operator.kind == "p_laplacian"
            else Operator.p_laplacian(2.0))
    pucci = run.operator if run.operator.kind == "pucci" else Operator.pucci(1.0)
    other = pucci if run.operator is plap else plap
    other_limits = other.limits(run.nl)
    asc = find_zeros(run.nl, run.zeros_count).ascending()
    report = compute_thresholds(run.operator, pc, BallGeometry(run.N, run.R),
                                run.nl.direction, count=run.zeros_count)
    limits = {run.operator.which: report.limits, other.which: other_limits}
    lim_plain, lim_weighted = limits["F"], limits["F_Lambda"]
    s = np.geomspace(min(asc) / 10.0, max(asc), 64)
    F, F_lo, _ = pc.extrema_many(s)
    payload = {
        **run.stamp(),
        "nonlinearity": run.cfg["nonlinearity"],
        "zeros": [float(z) for z in asc],
        "samples": {
            "s": [float(v) for v in s],
            "F": [float(v) for v in F],
            "Fbar": [float(v) for v in F - F_lo],
            "F_Lambda": [float(v) for v in pc.F_Lambda_many(s, pucci.weight)],
        },
        "limits": {"F": lim_plain.to_json(), "F_Lambda": lim_weighted.to_json()},
        "lambda_under": {
            "p_laplacian": extended_real(plap.lambda_under(run.R, lim_plain)),
            "pucci": extended_real(pucci.lambda_under(run.R, lim_weighted))},
        "thresholds": report.to_json(),
    }
    _write_json(run.path("analysis.json"), payload)
    print(f"analysis.json: lambda_under={extended_real(report.lambda_under)} "
          f"lambda_bar={extended_real(report.lambda_bar)}")
    return EXIT_OK


def _trajectory_payload(run: Run, res, outcome_extra: dict) -> dict:
    return {
        **run.stamp(),
        "operator": run.operator.to_json(),
        "geometry": {"N": run.N, "R": run.R},
        "outcome": outcome_extra,
        "n_steps": int(res.n_steps),
        # JSON has no nan: a shot without a zero has no estimate
        "rho_error_estimate": (float(res.rho_error_estimate)
                               if math.isfinite(res.rho_error_estimate) else None),
        "lambda_rescaled": _json_real(res.lambda_rescaled),
        "r": [float(x) for x in res.r],
        "v": [float(x) for x in res.v],
        "vp": [float(x) for x in res.vp],
        "q_sign_changes": int(res.q_sign_changes),
    }


def _json_real(x):
    """x as JSON can hold it: null for None and nan (no bound where
    Gbar(c) <= 0 leaves no slack over it), "inf" or "-inf" past the float
    range."""
    return None if x is None or x != x else extended_real(x)


def _stalled_payload(run: Run, ex: StalledAtCriticalPoint) -> dict:
    return {
        **run.stamp(),
        "operator": run.operator.to_json(),
        "geometry": {"N": run.N, "R": run.R},
        "outcome": {"kind": "Stalled", "c": ex.c,
                    "message": "f vanishes at the initial height; "
                               "the trajectory never leaves it"},
    }


def _shoot(run: Run, kind: str, wrong_operator: str) -> int:
    """The shoot and pucci-shoot commands: one shot of the config's operator."""
    if "shoot" not in run.cfg:
        raise ConfigError("this command needs a 'shoot' section")
    if run.operator.kind != kind:
        raise ConfigError(wrong_operator)
    sec = run.cfg["shoot"]
    cfg = run.shoot_config(sec["c"], float(sec.get("lambda", 1.0)))
    try:
        res = shoot(cfg, run.nl)
    except StalledAtCriticalPoint as ex:
        _write_json(run.path("trajectory.json"), _stalled_payload(run, ex))
        print("trajectory.json: outcome=Stalled")
        return EXIT_OK
    out = res.outcome
    extra = {"kind": out.kind, **dataclasses.asdict(out)}
    if isinstance(out, HitZero):
        d = check_necessary_conditions(res, PrimitiveCalculus(run.nl), run.R)
        extra["diagnostics"] = {k: _json_real(v)
                                for k, v in dataclasses.asdict(d).items()}
    _write_json(run.path("trajectory.json"), _trajectory_payload(run, res, extra))
    print(f"trajectory.json: outcome={out.kind}")
    return EXIT_OK


def cmd_shoot(run: Run) -> int:
    return _shoot(run, "p_laplacian",
                  "'shoot' drives the p-Laplacian; use pucci-shoot")


def cmd_pucci_shoot(run: Run) -> int:
    return _shoot(run, "pucci", "'pucci-shoot' needs the pucci operator")


def _audit_rows(rows, energy_tol: float, slack_tol: float) -> dict:
    """Inequality audit over the HitZero rows of a scan of either operator."""
    hits = [r for r in rows if r.outcome == "HitZero"]
    max_resid = max((r.energy_residual for r in hits), default=0.0)
    area_bad = [r.c for r in hits if not r.area_ok]
    bound_bad = [r.c for r in hits
                 if math.isfinite(r.lower_bound)
                 and r.lam < r.lower_bound - slack_tol]
    audit = {
        "rows": len(rows),
        "zero_hits": len(hits),
        "max_energy_residual": extended_real(max_resid),
        "energy_residual_tolerance": energy_tol,
        "necessary_conditions_failed_at": area_bad,
        "lower_bound_failed_at": bound_bad,
        "bound_slack_tolerance": slack_tol,
    }
    audit["pass"] = (max_resid <= energy_tol and not area_bad and not bound_bad)
    return audit


def cmd_diagram(run: Run) -> int:
    grid = run.scan_grid()
    zeros = find_zeros(run.nl, run.zeros_count)
    diag = BifurcationDiagram.scan(run.shoot_config(grid[0]), run.nl, run.R,
                                   grid, zeros)
    stars = list(dict.fromkeys(run.stars()))   # a repeated level once
    unresolved: List[UnresolvedBracket] = []
    found = diag.solutions_at(stars, unresolved)
    star_report = {}
    for star in stars:
        crossings = [x for x in found if x.level == star]
        star_report[f"{star:.17g}"] = {
            "count": len(crossings),
            "crossings": [
                {"c": x.c, "lambda": x.lam, "rho": x.rho,
                 "zero_interval_index": x.zero_interval_index}
                for x in crossings
            ],
            "unresolved": [{"c_lo": b.c_lo, "c_hi": b.c_hi,
                            "zero_interval_index": b.zero_interval_index}
                           for b in unresolved if b.level == star],
        }
    summary = {**run.stamp(), "operator": run.operator.to_json(),
               "geometry": {"N": run.N, "R": run.R},
               "lambda_star": star_report}
    outcomes: dict = {}
    for r in diag.rows:
        outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1
    summary["outcomes"] = outcomes
    summary["audit"] = _audit_rows(diag.rows, run.energy_tol, run.slack_tol)
    if diag.counts is not None:
        summary["time_map"] = diag.counts
    _atomic_write(run.path("diagram.csv"),
                  "\n".join(diagram_csv_lines(diag)) + "\n")
    _write_json(run.path("diagram_summary.json"), summary)
    print(f"diagram.csv: {len(diag.rows)} rows; audit "
          f"{'pass' if summary['audit']['pass'] else 'FAIL'}")
    if not summary["audit"]["pass"]:
        raise PropertyViolation("diagram audit failed; see diagram_summary.json")
    return EXIT_OK


def cmd_minimize(run: Run) -> int:
    if "minimize" not in run.cfg:
        raise ConfigError("this command needs a 'minimize' section")
    if run.operator.kind != "p_laplacian":
        raise ConfigError("the variational mechanism needs the p-Laplacian")
    sec = run.cfg["minimize"]
    K = int(sec["K"])
    lam = float(sec["lambda"])
    cells = int(sec.get("grid_cells", 200))
    grading = float(sec.get("grading", 2.0))
    p = run.operator.parameter
    pc = PrimitiveCalculus(run.nl)
    zeros = find_zeros(run.nl, max(K + 1, run.zeros_count))
    report = compute_thresholds(run.operator, pc, BallGeometry(run.N, run.R),
                                run.nl.direction, count=max(K, 4))
    gammas = [row.gamma for row in report.rows]
    delta = report.rows[0].delta
    grid = radial_grid(run.R, cells, delta=delta, grading=grading)
    pot = Potential.p_laplacian(p, validation_seed=run.seed)
    items = run_sequence(run.nl, pot, lam, zeros, gammas, grid, K, N=run.N,
                         pc=pc, lambda_bar=report.lambda_bar,
                         tol_stat=run.tol_stat)
    lines = sequence_csv_lines(items)
    _atomic_write(run.path("sequence.csv"), "\n".join(lines) + "\n")
    payload = {
        **run.stamp(),
        "lambda": lam,
        "lambda_bar": extended_real(report.lambda_bar),
        "grid": [float(x) for x in grid],
        "items": [
            {
                "n": it.n,
                "alpha_n": it.alpha_n,
                "gamma_n": it.gamma_n,
                "sup_norm": it.sup_norm,
                "energy": it.energy,
                "zero_interval_index": it.zero_interval_index,
                "trivial": it.trivial,
                "residual": it.result.residual,
                "iterations": it.result.iterations,
                "start_index": it.result.start_index,
                "values": [float(v) for v in it.result.u.values],
            }
            for it in items
        ],
    }
    _write_json(run.path("minimize.json"), payload)
    sups = ", ".join(f"{it.sup_norm:.6g}" for it in items)
    print(f"sequence.csv: K={K} sup norms [{sups}]")
    return EXIT_OK


def _read_diagram_csv(path: str) -> List[dict]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as ex:
        raise ConfigError(f"cannot read diagram CSV: {ex}")
    needed = {"c", "outcome", "lambda", "lower_bound"}
    if rows and not needed <= set(rows[0]):
        raise ConfigError(f"{path} is not a diagram CSV (missing columns)")
    return rows


def cmd_certify(run: Run) -> int:
    limits = run.operator.limits(run.nl)
    under = run.operator.lambda_under(run.R, limits)
    cert = {
        **run.stamp(),
        "operator": run.operator.to_json(),
        "geometry": {"N": run.N, "R": run.R},
        "ell": run.nl.direction,
        "L_minus": extended_real(limits.L_minus),
        "L_plus": extended_real(limits.L_plus),
        "classification": limits.classification,
        "lambda_under": extended_real(under),
        "formula": run.operator.under_formula,
        "statement": ("no parameter below lambda_under admits positive "
                      "radial solutions on the ball whose heights tend to "
                      "the accumulation point (no bifurcation from it)"),
    }
    violation = None
    diagram_path = run.cfg.get("certify", {}).get("diagram_csv")
    if diagram_path is not None:
        rows = _read_diagram_csv(diagram_path)
        checked = 0
        bad: List[dict] = []
        min_under_slack = math.inf
        min_bound_slack = math.inf
        for row in rows:
            if row["outcome"] != "HitZero":
                continue
            checked += 1
            lam = float(row["lambda"])
            bound = float(row["lower_bound"])
            if math.isfinite(under):
                min_under_slack = min(min_under_slack, lam - under)
            if math.isfinite(bound):
                min_bound_slack = min(min_bound_slack, lam - bound)
            under_ok = (not math.isfinite(under)
                        or lam >= under - run.energy_tol)
            bound_ok = (not math.isfinite(bound)
                        or lam >= bound - run.slack_tol)
            if not (under_ok and bound_ok):
                bad.append({"c": float(row["c"]), "lambda": lam,
                            "lower_bound": bound})
        cert["empirical"] = {
            "diagram_csv": diagram_path,
            "solutions_checked": checked,
            "violations": bad,
            "min_slack_vs_lambda_under": extended_real(min_under_slack),
            "min_slack_vs_per_solution_bound": extended_real(min_bound_slack),
            "tolerances": {"lambda_under": run.energy_tol,
                           "per_solution": run.slack_tol},
        }
        if bad:
            violation = (f"{len(bad)} of {checked} solutions fall below "
                         f"the nonexistence bound")
    _write_json(run.path("certificate.json"), cert)
    print(f"certificate.json: lambda_under={extended_real(under)}"
          + (f"; empirical check over {cert['empirical']['solutions_checked']}"
             f" solutions" if "empirical" in cert else ""))
    if violation:
        raise PropertyViolation(violation)
    return EXIT_OK


COMMANDS = {
    "analyze": cmd_analyze,
    "shoot": cmd_shoot,
    "pucci-shoot": cmd_pucci_shoot,
    "diagram": cmd_diagram,
    "minimize": cmd_minimize,
    "certify": cmd_certify,
}


def _parse_lambda_star(text: str) -> List[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad level list {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty level list")
    return vals


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, help="JSON config path")
    shared.add_argument("--out", default=None, help="output directory")
    shared.add_argument("--lambda-star", type=_parse_lambda_star, default=None,
                        metavar="V[,V...]",
                        help="solution levels for diagram refinement")
    shared.add_argument("--points", type=int, default=None,
                        help="override scan point count")
    shared.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    shared.add_argument("--tol-ode", type=float, default=None,
                        help="override the integrator tolerance")

    parser = argparse.ArgumentParser(
        prog="oscillap",
        description="Radial oscillating-nonlinearity toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[shared])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        run = Run(args)
    except ConfigError as ex:
        print(f"error: {args.command}: {ex}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return command(run)
    except (ConfigError, EmptyGrid) as ex:
        code, message = EXIT_CONFIG, str(ex)
    except PropertyViolation as ex:
        code, message = EXIT_VIOLATION, str(ex)
    except OscillapError as ex:
        code, message = EXIT_COMPUTE, str(ex)
    except ArithmeticError as ex:   # a float overflowed or was divided by 0
        code, message = EXIT_COMPUTE, f"numerical failure: {ex}"
    print(f"error: {args.command}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
