"""Radial shooting for the maximal Pucci extremal equation.

The equation -M+(D^2 v) = lambda f(v) for radial v reduces to a scalar
second-order ODE whose diffusion coefficient switches between Lambda and
1/Lambda with the sign of v''.  Resolving the switch through the sign of
q := lambda f(v) + (N-1) v'/(Lambda r) (provably equivalent and computable
from the state) gives the explicit right-hand side

    v'' = -Lambda * q   when q >= 0,      v'' = -q / Lambda   otherwise,

continuous in the state with a derivative kink at q = 0.  The integrator
steps exactly onto each q sign change and restarts there, counting the
switches; crossing the kink blindly would degrade the embedded pair.

Decay is structural here: trajectories whose v' returns to zero at a
positive height are classified Bounced outright (the radial solutions
this equation models decay strictly until their first zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ._rk import BatchEvent, Event, integrate, integrate_batch
from .errors import (
    DomainError,
    EmptyGrid,
    NonConvergence,
    NonpositiveFbar,
    NotAZeroHit,
    StalledAtCriticalPoint,
)
from .nonlinearity import Nonlinearity, ZeroSequence
from .primitives import PrimitiveCalculus
from .shoot_plap import (
    STALL_TOL,
    Bounced,
    HitZero,
    HorizonExceeded,
    Outcome,
    ShootResult,
    _fmt,
)
from .thresholds import pucci_per_solution_lower_bound


@dataclass(frozen=True)
class PucciShootConfig:
    """One radial Pucci shot: ellipticity ratio, height, and controls."""

    Lambda: float
    N: int
    c: float
    lambda_shoot: float = 1.0
    r_max: float = 50.0
    tol_ode: float = 1e-10
    event_tol: float = 1e-12
    max_switches: int = 10_000

    def __post_init__(self):
        if not self.Lambda >= 1.0:
            raise DomainError(f"ellipticity ratio must be >= 1, got {self.Lambda!r}")
        if int(self.N) != self.N or self.N < 1:
            raise DomainError(f"dimension must be a positive integer, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        if not self.c > 0.0:
            raise DomainError(f"height must be positive, got {self.c!r}")
        if not self.lambda_shoot > 0.0:
            raise DomainError(f"shooting parameter must be positive, got "
                              f"{self.lambda_shoot!r}")
        if not (self.r_max > 0.0 and self.tol_ode > 0.0 and self.event_tol > 0.0):
            raise DomainError("horizon and tolerances must be positive")


@dataclass
class PucciDiagnostics:
    """Slack of the Lambda-weighted decay inequality and its consequences."""

    min_pointwise_slack: float       # worst slack of the pointwise inequality
    residual_max: float              # normalized worst violation (0 if it holds)
    rescaled_bound_slack: float      # lambda minus the per-solution bound
    F_at_max_ok: bool
    area_condition_ok: bool


def _series_start(cfg: PucciShootConfig, fc: float):
    """(r0, (v, v') at r0, error scales) of a shot with f(c) = fc."""
    Lam, N, c, lam = cfg.Lambda, cfg.N, cfg.c, cfg.lambda_shoot
    if fc > 0.0:
        a0 = -Lam * lam * fc / N
    else:
        a0 = -lam * fc * Lam / (Lam * Lam + (N - 1))
    r0 = max(cfg.event_tol, 1e-6 * cfg.r_max)
    cmax = max(1.0, c)
    return r0, (c + 0.5 * a0 * r0 * r0, a0 * r0), (cmax, cmax)


def pucci_shoot(cfg: PucciShootConfig, nl: Nonlinearity) -> ShootResult:
    """Integrate the switched equation outward until v = 0 or a bounce.

    Starts on the consistency series at the origin: solving the q >= 0
    branch with v' ~ v''(0) r gives v''(0) = -Lambda lambda f(c)/N when
    f(c) > 0; for f(c) < 0 the q < 0 branch gives
    v''(0) = -lambda f(c) Lambda / (Lambda^2 + N - 1).  The result reports
    the number of q sign changes met along the way.
    """
    Lam, N, c, lam = cfg.Lambda, cfg.N, cfg.c, cfg.lambda_shoot
    fc = nl.eval(c)
    if abs(fc) <= STALL_TOL * max(1.0, c):
        raise StalledAtCriticalPoint(c, fc)

    f0 = nl.f0
    feval = nl.eval
    nm1 = N - 1

    def qval(r: float, y: Tuple[float, ...]) -> float:
        v, u = y
        fv = feval(v) if v > 0.0 else f0
        return lam * fv + nm1 * u / (Lam * r)

    def rhs(r: float, y: Tuple[float, ...]) -> Tuple[float, float]:
        q = qval(r, y)
        return (y[1], -Lam * q if q >= 0.0 else -q / Lam)

    r0, (v0, u0), scale = _series_start(cfg, fc)
    events = [Event(lambda t, y: y[0], direction=-1),   # first zero
              Event(lambda t, y: y[1], direction=+1),   # v' back to 0
              Event(qval, direction=0)]                 # diffusion switch

    rs: List[float] = [0.0, r0]
    vs: List[float] = [c, v0]
    vps: List[float] = [0.0, u0]

    def rec(t: float, y: Tuple[float, ...]) -> None:
        rs.append(t)
        vs.append(y[0])
        vps.append(y[1])

    t, y = r0, (v0, u0)
    n_steps = 0
    err_v = 0.0
    switches = 0
    outcome: Optional[Outcome] = None
    while True:
        res = integrate(rhs, t, y, cfg.r_max, rtol=cfg.tol_ode, scale=scale,
                        events=events, record=rec, event_tol=cfg.event_tol)
        n_steps += res.n_steps
        err_v += res.error_accum[0]
        if res.status == "end":
            outcome = HorizonExceeded(res.t)
            break
        if res.event_index == 0:
            outcome = HitZero(res.t)
            y = res.y
            break
        if res.event_index == 1:
            outcome = Bounced(res.t, res.y[0])
            break
        switches += 1
        if switches > cfg.max_switches:
            raise NonConvergence(
                f"more than {cfg.max_switches} diffusion switches (chattering?)")
        t, y = res.t, res.y

    rho_err = math.nan
    if isinstance(outcome, HitZero):
        rho_err = err_v / max(abs(y[1]), 1e-300)

    n = len(rs)
    return ShootResult(cfg, outcome, np.array(rs), np.array(vs),
                       np.array(vps), np.zeros(n), n_steps, rho_err,
                       q_sign_changes=switches)


def pucci_shoot_batch(cfg: PucciShootConfig, heights: Sequence[float],
                      nl: Nonlinearity) -> List[Optional[ShootResult]]:
    """``pucci_shoot`` at every height, all heights as lanes of one batch.

    ``cfg`` gives everything but the height.  Returns one result per
    height, in order, and None where ``pucci_shoot`` would raise
    StalledAtCriticalPoint.  A lane meeting a q sign change steps exactly
    onto it, counts it and restarts there, as ``pucci_shoot`` does.
    """
    return list(_pucci_shots(cfg, heights, nl))


def _pucci_shots(cfg: PucciShootConfig, heights: Sequence[float],
                 nl: Nonlinearity) -> Iterator[Optional[ShootResult]]:
    """``pucci_shoot_batch``'s results one at a time."""
    cfgs = [replace(cfg, c=float(c)) for c in heights]
    Lam, N, lam = cfg.Lambda, cfg.N, cfg.lambda_shoot
    f0 = nl.f0
    nm1 = N - 1

    lanes, starts, scales = [], [], []
    for i, lane_cfg in enumerate(cfgs):
        fc = nl.eval(lane_cfg.c)
        if abs(fc) <= STALL_TOL * max(1.0, lane_cfg.c):
            continue
        r0, start, scale = _series_start(lane_cfg, fc)
        lanes.append(i)
        starts.append(start)
        scales.append(scale)
    if not lanes:
        yield from (None for _ in cfgs)
        return

    def qval(r, y):
        v, u = y[0], y[1]
        fv = np.where(v > 0.0, nl.eval_many(v), f0)
        return lam * fv + nm1 * u / (Lam * r)

    def rhs(r, y):
        q = qval(r, y)
        return (y[1], np.where(q >= 0.0, -Lam * q, -q / Lam))

    events = [BatchEvent(lambda t, y: y[0], direction=-1),     # first zero
              BatchEvent(lambda t, y: y[1], direction=+1),     # v' back to 0
              BatchEvent(qval, direction=0, ends=False)]       # diffusion switch
    res = integrate_batch(rhs, np.full(len(lanes), r0), np.array(starts).T,
                          cfg.r_max, cfg.tol_ode, np.array(scales).T,
                          events=events, max_restarts=cfg.max_switches,
                          event_tol=cfg.event_tol)

    lane_of = {i: j for j, i in enumerate(lanes)}
    for i in range(len(cfgs)):
        if i not in lane_of:
            yield None
            continue
        j = lane_of[i]
        v0, u0 = starts[j]
        t_s, y_s = res.samples(j)
        t_end, y_end = float(res.t[j]), res.y[:, j]
        rho_err = math.nan
        if res.event_index[j] == 0:
            outcome: Outcome = HitZero(t_end)
            rho_err = float(res.error_accum[0, j]) / max(abs(y_end[1]), 1e-300)
        elif res.event_index[j] == 1:
            outcome = Bounced(t_end, float(y_end[0]))
        else:
            outcome = HorizonExceeded(t_end)
        n = len(t_s) + 2
        yield ShootResult(
            cfgs[i], outcome, np.concatenate(([0.0, r0], t_s)),
            np.concatenate(([cfgs[i].c, v0], y_s[0])),
            np.concatenate(([0.0, u0], y_s[1])), np.zeros(n),
            int(res.n_steps[j]), rho_err,
            q_sign_changes=int(res.restarts[j]))


def pucci_rescale(res: ShootResult, R: float,
                  lambda_shoot: Optional[float] = None) -> float:
    """Parameter on the radius-R ball: dilation scales lambda by (rho/R)^2.

    The operator is positively 1-homogeneous in the Hessian, so the Pucci
    rescaling exponent is always 2 regardless of Lambda.
    """
    if not isinstance(res.outcome, HitZero):
        raise NotAZeroHit(f"cannot rescale a {res.outcome.kind} trajectory")
    if not R > 0.0:
        raise DomainError(f"radius must be positive, got {R!r}")
    if lambda_shoot is None:
        lambda_shoot = res.config.lambda_shoot
    lam = lambda_shoot * (res.outcome.rho / R) ** 2
    res.lambda_rescaled = lam
    return lam


def pucci_inequality_check(res: ShootResult, pc: PrimitiveCalculus,
                           lam: Optional[float] = None, R: float = 1.0,
                           tol: float = 1e-8) -> PucciDiagnostics:
    """Audit the Lambda-weighted decay inequality along the trajectory.

    Pointwise: (1/(2 Lambda)) v'^2 <= lam (F_Lambda(c) - F_Lambda(v)),
    with lam the parameter of the trajectory's own frame; the recorded
    residual is the normalized violation (zero when the inequality
    holds).  Also audits the rescaled per-solution bound
    lambda >= c^2/(2 Lambda R^2 Fbar_Lambda(c)) on the radius-R ball and
    the sign/area necessary conditions, and fills ``res.diagnostics``.
    """
    if lam is None:
        lam = res.config.lambda_shoot
    Lam = res.config.Lambda
    c = res.config.c
    v = np.clip(res.v, 0.0, None)
    lhs = res.vp ** 2 / (2.0 * Lam)
    rhs = lam * (pc.F_Lambda(c) - pc.F_Lambda_many(v))
    slack = rhs - lhs
    min_slack = float(slack.min())
    residual = float(np.max(np.maximum(0.0, -slack) / (1.0 + np.abs(rhs))))

    lam_R = pucci_rescale(res, R)
    bound_slack = lam_R - pucci_per_solution_lower_bound(pc, c, Lam, R)
    Fc = pc.F(c)
    sign_ok = Fc >= -tol
    area_ok = (Fc - pc.running_max(c)) >= -tol
    d = PucciDiagnostics(min_slack, residual, float(bound_slack),
                         bool(sign_ok), bool(area_ok))
    res.diagnostics = d
    return d


PUCCI_CSV_COLUMNS = ("c", "outcome", "rho", "lambda", "F_c", "Fbar_c",
                     "lower_bound", "energy_residual", "area_ok",
                     "zero_interval_index", "q_sign_changes")


@dataclass(frozen=True)
class PucciDiagramRow:
    c: float
    outcome: str
    rho: float
    lam: float
    F_c: float
    Fbar_c: float              # the Lambda-weighted primitive range
    lower_bound: float
    energy_residual: float     # normalized violation of the decay inequality
    area_ok: Optional[bool]
    zero_interval_index: int
    q_sign_changes: int


def pucci_scan(nl: Nonlinearity, Lambda: float, N: int, R: float,
               c_grid: Sequence[float], zeros: ZeroSequence,
               pc: Optional[PrimitiveCalculus] = None,
               lambda_shoot: float = 1.0, tol_ode: float = 1e-8,
               event_tol: float = 1e-10,
               r_max: float = 50.0) -> List[PucciDiagramRow]:
    """One Pucci shot per grid height, all heights in one lockstep batch.

    The row schema mirrors the p-Laplacian diagram with the weighted
    primitives in the Fbar and bound columns plus the switch count.
    """
    if len(c_grid) == 0:
        raise EmptyGrid("scan needs at least one height")
    if pc is None:
        pc = PrimitiveCalculus(nl, p=2.0, Lambda=Lambda)
    heights = [float(c) for c in c_grid]
    cfg = PucciShootConfig(Lambda, N, heights[0], lambda_shoot=lambda_shoot,
                           r_max=r_max, tol_ode=tol_ode, event_tol=event_tol)
    rows: List[PucciDiagramRow] = []
    for c, res in zip(heights, _pucci_shots(cfg, heights, nl)):
        F_c = pc.F(c)
        Fbar_c = pc.Fbar_Lambda(c)
        idx = zeros.interval_index(c)
        try:
            bound = pucci_per_solution_lower_bound(pc, c, Lambda, R)
        except NonpositiveFbar:
            bound = math.nan
        if res is None:
            rows.append(PucciDiagramRow(c, "Stalled", math.nan, math.nan,
                                        F_c, Fbar_c, bound, math.nan, None,
                                        idx, 0))
        elif isinstance(res.outcome, HitZero):
            d = pucci_inequality_check(res, pc, R=R)
            rows.append(PucciDiagramRow(
                c, "HitZero", res.outcome.rho, res.lambda_rescaled, F_c,
                Fbar_c, bound, d.residual_max,
                bool(d.F_at_max_ok and d.area_condition_ok), idx,
                res.q_sign_changes))
        else:
            rows.append(PucciDiagramRow(c, res.outcome.kind, math.nan,
                                        math.nan, F_c, Fbar_c, bound,
                                        math.nan, None, idx,
                                        res.q_sign_changes))
    return rows


def pucci_csv_lines(rows: Sequence[PucciDiagramRow]) -> List[str]:
    lines = [",".join(PUCCI_CSV_COLUMNS)]
    for r in rows:
        area = "" if r.area_ok is None else ("true" if r.area_ok else "false")
        lines.append(",".join([
            _fmt(r.c), r.outcome, _fmt(r.rho), _fmt(r.lam), _fmt(r.F_c),
            _fmt(r.Fbar_c), _fmt(r.lower_bound), _fmt(r.energy_residual),
            area, str(r.zero_interval_index), str(r.q_sign_changes),
        ]))
    return lines
