"""Output checks run after every session, outside the timed region.

A session fails on any nonzero exit code or any failed check below; each
check returns a list of failure messages (empty when the session passed).
The zeros of f(s) = s (1 + sin s) are known in closed form,
alpha_k = 3 pi / 2 + 2 pi (k - 1), so gap labels are checked against
those rather than against the program's own zero finder.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from typing import Dict, List

from oscillap import (PowerTimesOnePlusSin, PucciShootConfig, ShootConfig,
                      pucci_shoot, shoot)

#: |lambda - level| / level allowed for a refined lambda-star crossing
CROSSING_RTOL = 1e-6
#: |lambda_grid - lambda_ref| / lambda_ref against an independent 1e-12 shot;
#: typical gaps are below 1e-8, but heights within ~1e-3 of a touch zero of f
#: start next to an equilibrium and reach 2.3e-6 at tol_ode 1e-11
REFERENCE_RTOL = 1e-5
REFERENCE_TOL_ODE = 1e-12
#: independently re-shot grid heights per diagram per session
REFERENCE_HEIGHTS = 2
#: |lambda_under - 1| allowed for p = 2, where both limits of F/s^2 are 1/2
LAMBDA_UNDER_ATOL = 1e-3


def gap_index(c: float) -> int:
    """1-based k with alpha_{k-1} < c <= alpha_k (alpha_0 = 0)."""
    return max(1, math.ceil((c - 1.5 * math.pi) / (2.0 * math.pi)) + 1)


def _reference_lambda(cfg: dict, c: float) -> float:
    """lambda on the config's ball from an independent tight-tolerance shot."""
    nl = PowerTimesOnePlusSin(cfg["nonlinearity"]["r"])
    N, R = cfg["geometry"]["N"], cfg["geometry"]["R"]
    op = cfg["operator"]
    if "plap" in op:
        p = op["plap"]["p"]
        res = shoot(ShootConfig(p, N, c, tol_ode=REFERENCE_TOL_ODE), nl)
    else:
        p = 2.0
        res = pucci_shoot(PucciShootConfig(op["pucci"]["Lambda"], N, c,
                                           tol_ode=REFERENCE_TOL_ODE), nl)
    return (res.outcome.rho / R) ** p


def check_diagram(cfg: dict, out: Dict[str, bytes], rng: random.Random) -> List[str]:
    bad: List[str] = []
    rows = list(csv.DictReader(io.StringIO(out["diagram.csv"].decode())))
    summary = json.loads(out["diagram_summary.json"])
    if len(rows) != cfg["scan"]["points"]:
        bad.append(f"{len(rows)} diagram rows, expected {cfg['scan']['points']}")
    if not summary["audit"]["pass"]:
        bad.append("diagram audit failed")
    for level in cfg["scan"].get("lambda_star", []):
        entry = summary["lambda_star"][f"{level:.17g}"]
        if entry["count"] == 0:
            bad.append(f"no crossing of lambda* = {level!r}")
        for x in entry["crossings"]:
            if abs(x["lambda"] - level) > CROSSING_RTOL * level:
                bad.append(f"crossing at c={x['c']!r} has lambda {x['lambda']!r}, "
                           f"level {level!r}")
            if gap_index(x["c"]) != x["zero_interval_index"]:
                bad.append(f"crossing at c={x['c']!r} labelled gap "
                           f"{x['zero_interval_index']}, lies in {gap_index(x['c'])}")
    hits = [r for r in rows if r["outcome"] == "HitZero"]
    for row in rng.sample(hits, min(REFERENCE_HEIGHTS, len(hits))):
        c, lam = float(row["c"]), float(row["lambda"])
        ref = _reference_lambda(cfg, c)
        if abs(lam - ref) > REFERENCE_RTOL * ref:
            bad.append(f"lambda({c!r}) = {lam!r}, independent shot gives {ref!r}")
    return bad


def check_staircase(cfg: dict, out: Dict[str, bytes]) -> List[str]:
    bad: List[str] = []
    items = json.loads(out["minimize.json"])["items"]
    sups = [it["sup_norm"] for it in items]
    if len(items) != cfg["minimize"]["K"]:
        bad.append(f"{len(items)} minimize levels, expected {cfg['minimize']['K']}")
    if any(it["trivial"] or not it["sup_norm"] > 0.0 for it in items):
        bad.append(f"trivial minimizer among sup norms {sups}")
    if any(b <= a for a, b in zip(sups, sups[1:])):
        bad.append(f"sup norms not strictly increasing: {sups}")
    gaps = [gap_index(s) for s in sups]
    if len(set(gaps)) != len(gaps):
        bad.append(f"sup norms {sups} share a zero gap")
    if gaps != [it["zero_interval_index"] for it in items]:
        bad.append(f"sup norms {sups} lie in gaps {gaps}, labelled "
                   f"{[it['zero_interval_index'] for it in items]}")
    under = json.loads(out["analysis.json"])["lambda_under"]["p_laplacian"]
    if not abs(under - 1.0) <= LAMBDA_UNDER_ATOL:
        bad.append(f"analyze lambda_under {under!r}, expected 1 for p=2")
    certified = json.loads(out["certificate.json"])["lambda_under"]
    if certified != under:
        bad.append(f"certify lambda_under {certified!r} != analyze {under!r}")
    return bad


def check_session(configs: Dict[str, dict], commands, rcs: List[object],
                  reports: Dict[str, bytes], reference: Dict[str, bytes],
                  rng: random.Random) -> List[str]:
    """Every check on one session's exit codes and report files.

    ``reports`` maps "<output dir>/<file>" to bytes; ``reference`` is the
    same map from the run's first session, which every later session must
    reproduce byte for byte.
    """
    bad = [f"{cmd} {cfg} exited {rc}" for (cmd, cfg, _), rc in zip(commands, rcs)
           if rc != 0]
    if reference is not None and reports != reference:
        differ = sorted(k for k in set(reports) | set(reference)
                        if reports.get(k) != reference.get(k))
        bad.append(f"reports differ from the first session: {differ}")
    checked = set()
    for cmd, cfg_name, out_name in commands:
        if (cfg_name, out_name) in checked:
            continue
        checked.add((cfg_name, out_name))
        out = {k.split("/", 1)[1]: v for k, v in reports.items()
               if k.startswith(out_name + "/")}
        try:
            if cmd == "diagram":
                bad += check_diagram(configs[cfg_name], out, rng)
            else:
                bad += check_staircase(configs[cfg_name], out)
        except (KeyError, ValueError, TypeError, AttributeError) as ex:
            bad.append(f"{out_name}: unreadable report ({type(ex).__name__}: {ex})")
    return bad
