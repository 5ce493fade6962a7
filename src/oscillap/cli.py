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
from jsonschema import Draft202012Validator

from . import __version__
from .errors import EmptyGrid, OscillapError, StalledAtCriticalPoint
from .nonlinearity import find_zeros, nonlinearity_from_json
from .primitives import PrimitiveCalculus
from .shoot_plap import (
    BifurcationDiagram,
    HitZero,
    ShootConfig,
    UnresolvedBracket,
    diagram_csv_lines,
    shoot,
)
from .shoot_pucci import PucciShootConfig

# Not called here (both operators scan through ``BifurcationDiagram.scan``);
# the names stay because perfbench/tracing.py spans them in this module.
from .shoot_plap import diagram  # noqa: F401
from .shoot_pucci import pucci_scan  # noqa: F401
from .thresholds import (
    BallGeometry,
    Operator,
    compute_thresholds,
    lambda_under_plap,
    lambda_under_pucci,
)
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


def _ext(x: float):
    """Extended-real encoding: JSON has no inf."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


class Run:
    """One validated config plus the CLI overrides that apply to it."""

    def __init__(self, args: argparse.Namespace):
        self.out_dir = args.out
        try:
            with open(args.config, "rb") as fh:
                raw = fh.read()
        except OSError as ex:
            raise ConfigError(f"cannot read config: {ex}")
        self.sha256 = hashlib.sha256(raw).hexdigest()
        try:
            cfg = json.loads(raw)
        except json.JSONDecodeError as ex:
            raise ConfigError(f"config is not valid JSON: {ex}")
        errors = sorted(Draft202012Validator(CONFIG_SCHEMA).iter_errors(cfg),
                        key=lambda e: list(e.absolute_path))
        if errors:
            where = "/".join(str(p) for p in errors[0].absolute_path) or "<root>"
            raise ConfigError(f"config rejected at {where}: {errors[0].message}")
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
            self.shooter = ShootConfig
        else:
            self.operator = Operator.pucci(float(op["pucci"]["Lambda"]))
            self.shooter = PucciShootConfig

        tol = dict(cfg.get("tolerances", {}))
        if args.tol_ode is not None:
            tol["tol_ode"] = args.tol_ode
        self.tol_ode = float(tol.get("tol_ode", 1e-8))
        self.event_tol = float(tol.get("event_tol", 1e-10))
        self.r_max = float(tol.get("r_max", 50.0))
        self.tol_stat = float(tol.get("tol_stat", 1e-8))
        self.energy_tol = float(tol.get("energy_residual",
                                        DEFAULT_ENERGY_RESIDUAL_TOL))
        self.slack_tol = float(tol.get("bound_slack", DEFAULT_BOUND_SLACK_TOL))

        self.points_override = args.points
        self.lambda_star = args.lambda_star
        self.seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        self.zeros_count = int(cfg.get("zeros", 12))
        if self.out_dir is None:
            self.out_dir = cfg.get("output", {}).get("dir", ".")
        os.makedirs(self.out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def stamp(self) -> dict:
        return {"version": __version__, "config_sha256": self.sha256,
                "seed": self.seed}

    def shoot_config(self, c: float, lambda_shoot: float = 1.0):
        """The operator's shot config at height c with this run's controls."""
        return self.shooter(self.operator.parameter, self.N, float(c),
                            lambda_shoot=lambda_shoot, r_max=self.r_max,
                            tol_ode=self.tol_ode, event_tol=self.event_tol)

    def calculus(self) -> PrimitiveCalculus:
        if self.operator.kind == "p_laplacian":
            return PrimitiveCalculus(self.nl, p=self.operator.parameter)
        return PrimitiveCalculus(self.nl, p=2.0, Lambda=self.operator.parameter)

    def scan_grid(self) -> np.ndarray:
        if "scan" not in self.cfg:
            raise ConfigError("this command needs a 'scan' section")
        scan = self.cfg["scan"]
        lo, hi = float(scan["c_min"]), float(scan["c_max"])
        n = int(self.points_override if self.points_override is not None
                else scan["points"])
        if n == 0:
            raise ConfigError("scan has zero points")
        if not lo <= hi:
            raise ConfigError(f"scan needs c_min <= c_max, got [{lo}, {hi}]")
        if scan.get("log_spacing", False):
            return np.geomspace(lo, hi, n)
        return np.linspace(lo, hi, n)

    def stars(self) -> List[float]:
        if self.lambda_star is not None:
            return self.lambda_star
        return [float(v) for v in self.cfg.get("scan", {}).get("lambda_star", [])]


def _limits_both(run: Run):
    """Limit estimates and nonexistence thresholds for both operators.

    The plain primitive drives the p-Laplacian formula; the sign-weighted
    one drives the Pucci formula (at Lambda = 1 when the config chose the
    p-Laplacian, where the two coincide for p = 2).
    """
    pc = run.calculus()
    direction = run.nl.direction
    Lambda = run.operator.parameter if run.operator.kind == "pucci" else 1.0
    lim_plain = pc.estimate_limits(which="F", direction=direction)
    lim_weighted = pc.estimate_limits(which="F_Lambda", direction=direction)

    def threshold(limits, formula):
        if limits.classification == "BothZero":
            return math.inf
        if limits.classification != "FinitePair":
            return 0.0
        return formula(limits.L_minus, limits.L_plus)

    p = run.operator.parameter if run.operator.kind == "p_laplacian" else 2.0
    under_plap = threshold(lim_plain,
                           lambda lm, lp: lambda_under_plap(p, run.R, lm, lp))
    under_pucci = threshold(lim_weighted,
                            lambda lm, lp: lambda_under_pucci(Lambda, run.R, lm, lp))
    return pc, lim_plain, lim_weighted, under_plap, under_pucci


def cmd_analyze(run: Run) -> int:
    pc, lim_plain, lim_weighted, under_plap_v, under_pucci_v = _limits_both(run)
    zeros = find_zeros(run.nl, run.zeros_count)
    asc = zeros.ascending()
    report = compute_thresholds(pc, BallGeometry(run.N, run.R),
                                run.nl.direction, count=run.zeros_count,
                                operator=run.operator)
    s = np.geomspace(min(asc) / 10.0, max(asc), 64)
    payload = {
        **run.stamp(),
        "nonlinearity": run.cfg["nonlinearity"],
        "zeros": [float(z) for z in asc],
        "samples": {
            "s": [float(v) for v in s],
            "F": [float(v) for v in pc.F_many(s)],
            "Fbar": [float(pc.Fbar(float(v))) for v in s],
            "F_Lambda": [float(v) for v in pc.F_Lambda_many(s)],
        },
        "limits": {"F": lim_plain.to_json(), "F_Lambda": lim_weighted.to_json()},
        "lambda_under": {"p_laplacian": _ext(under_plap_v),
                         "pucci": _ext(under_pucci_v)},
        "thresholds": report.to_json(),
    }
    _write_json(run.path("analysis.json"), payload)
    print(f"analysis.json: lambda_under={_ext(report.lambda_under)} "
          f"lambda_bar={_ext(report.lambda_bar)}")
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
        "lambda_rescaled": res.lambda_rescaled,
        "r": [float(x) for x in res.r],
        "v": [float(x) for x in res.v],
        "vp": [float(x) for x in res.vp],
        "q_sign_changes": int(res.q_sign_changes),
    }


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
        extra["diagnostics"] = dataclasses.asdict(
            cfg.audit(res, run.calculus(), run.R))
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
        "max_energy_residual": max_resid,
        "energy_residual_tolerance": energy_tol,
        "necessary_conditions_failed_at": area_bad,
        "lower_bound_failed_at": bound_bad,
        "bound_slack_tolerance": slack_tol,
    }
    audit["pass"] = (max_resid <= energy_tol and not area_bad and not bound_bad)
    return audit


def cmd_diagram(run: Run) -> int:
    grid = run.scan_grid()
    pc = run.calculus()
    zeros = find_zeros(run.nl, run.zeros_count)
    if run.stars() and run.operator.kind == "pucci":
        raise ConfigError("lambda-star refinement is p-Laplacian only")
    diag = BifurcationDiagram.scan(run.shoot_config(grid[0]), run.nl, run.R,
                                   grid, zeros, pc)
    star_report = {}
    for star in run.stars():
        unresolved: List[UnresolvedBracket] = []
        crossings = diag.solutions_at(star, unresolved)
        star_report[f"{star:.17g}"] = {
            "count": len(crossings),
            "crossings": [
                {"c": x.c, "lambda": x.lam, "rho": x.rho,
                 "zero_interval_index": x.zero_interval_index}
                for x in crossings
            ],
            "unresolved": [dataclasses.asdict(b) for b in unresolved],
        }
    summary = {**run.stamp(), "operator": run.operator.to_json(),
               "geometry": {"N": run.N, "R": run.R},
               "lambda_star": star_report}
    outcomes: dict = {}
    for r in diag.rows:
        outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1
    summary["outcomes"] = outcomes
    summary["audit"] = _audit_rows(diag.rows, run.energy_tol, run.slack_tol)
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
    pc = run.calculus()
    zeros = find_zeros(run.nl, max(K + 1, run.zeros_count))
    report = compute_thresholds(pc, BallGeometry(run.N, run.R),
                                run.nl.direction, count=max(K, 4),
                                operator=run.operator)
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
        "lambda_bar": _ext(report.lambda_bar),
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
    pc, lim_plain, lim_weighted, under_plap_v, under_pucci_v = _limits_both(run)
    if run.operator.kind == "p_laplacian":
        limits, under = lim_plain, under_plap_v
        formula = "(p-1)/(p*R^p*(L_plus - min(0, L_minus)))"
    else:
        limits, under = lim_weighted, under_pucci_v
        formula = "1/(2*Lambda*R^2*(L_plus - min(0, L_minus)))"
    cert = {
        **run.stamp(),
        "operator": run.operator.to_json(),
        "geometry": {"N": run.N, "R": run.R},
        "ell": run.nl.direction,
        "L_minus": _ext(limits.L_minus),
        "L_plus": _ext(limits.L_plus),
        "limits_are_estimates": True,
        "classification": limits.classification,
        "lambda_under": _ext(under),
        "formula": formula,
        "caveat": "limits are numerical estimates",
        "statement": ("no parameter below lambda_under admits a positive "
                      "radial solution on the ball"),
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
            "min_slack_vs_lambda_under": _ext(min_under_slack),
            "min_slack_vs_per_solution_bound": _ext(min_bound_slack),
            "tolerances": {"lambda_under": run.energy_tol,
                           "per_solution": run.slack_tol},
        }
        if bad:
            violation = (f"{len(bad)} of {checked} solutions fall below "
                         f"the nonexistence bound")
    _write_json(run.path("certificate.json"), cert)
    print(f"certificate.json: lambda_under={_ext(under)}"
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
