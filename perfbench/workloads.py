"""Seeded config generator and the command sessions of each workload.

A workload is a fixed list of CLI commands (a *session*) over config files
that this module generates from a seed.  The seed only jitters the scan
ranges, the lambda-star levels and the minimize lambda; it never changes
the number of heights, levels or commands, so the work per session stays
comparable across seeds.  Every config uses ``power_sin r=1``, the
canonical f(s) = s (1 + sin s).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (command, config file, output subdirectory) in session order
    commands: Tuple[Tuple[str, str, str], ...]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "scan",
        "three ~200-height diagrams (p=2 N=1, p=3 N=2, Pucci): many short "
        "shots, event location, lambda-star reshoots and Pucci restarts",
        (("diagram", "plap2.json", "plap2"),
         ("diagram", "plap3.json", "plap3"),
         ("diagram", "pucci.json", "pucci")),
    ),
    Workload(
        "minimize",
        "analyze, minimize, certify: no shooting; primitives quadrature, "
        "L-BFGS-B, limit estimates and golden-section thresholds",
        (("analyze", "staircase.json", "staircase"),
         ("minimize", "staircase.json", "staircase"),
         ("certify", "staircase.json", "staircase")),
    ),
)}

_NONLINEARITY = {"kind": "power_sin", "r": 1.0}


def _jitter(rng: random.Random, value: float, share: float) -> float:
    """value scaled by a uniform factor in [1 - share/2, 1 + share/2]."""
    return value * (1.0 + share * (rng.random() - 0.5))


def _config(operator: dict, N: int, **sections) -> dict:
    return {"nonlinearity": dict(_NONLINEARITY), "operator": operator,
            "geometry": {"N": N, "R": 1.0}, "seed": 0, **sections}


def _scan(rng: random.Random, c_min: float, c_max: float, points: int,
          **extra) -> dict:
    return {"c_min": _jitter(rng, c_min, 0.1), "c_max": _jitter(rng, c_max, 0.02),
            "points": points, **extra}


def make_configs(workload: str, seed: int) -> Dict[str, dict]:
    """Config file name -> config for one workload; same seed, same configs.

    Tolerances and levels are part of the workload; README.md ("Findings")
    gives the measurements behind each choice:

    * the CLI default tol_ode 1e-8 fails the 1e-6 energy-residual audit on
      the p=3 scan, so each diagram states a tolerance that passes;
    * a lambda-star bracket that straddles a zero of f makes the refinement
      chase the pole of lambda(c) and exit 3, so levels stay below lambda at
      grid rows next to a zero.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan":
        return {
            "plap2.json": _config(
                {"plap": {"p": 2.0}}, 1,
                scan=_scan(rng, 0.5, 30.0, 200, lambda_star=[
                    _jitter(rng, 3.0, 0.2), _jitter(rng, 5.0, 0.2)]),
                tolerances={"tol_ode": 1e-10}),
            "plap3.json": _config(
                {"plap": {"p": 3.0}}, 2,
                scan=_scan(rng, 0.5, 30.0, 200,
                           lambda_star=[_jitter(rng, 70.0, 0.2)]),
                tolerances={"tol_ode": 1e-12}),
            "pucci.json": _config(
                {"pucci": {"Lambda": 2.0}}, 2,
                scan=_scan(rng, 0.5, 30.0, 200),
                tolerances={"tol_ode": 1e-10}),
        }
    if workload == "minimize":
        return {"staircase.json": _config(
            {"plap": {"p": 2.0}}, 1,
            minimize={"K": 3, "lambda": _jitter(rng, 110.0, 0.05),
                      "grid_cells": 120})}
    raise KeyError(f"unknown workload {workload!r}")


def write_configs(workload: str, seed: int, directory: str) -> List[str]:
    """Write the workload's configs into ``directory``; return their paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, cfg in make_configs(workload, seed).items():
        path = os.path.join(directory, name)
        with open(path, "w") as fh:
            fh.write(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths
