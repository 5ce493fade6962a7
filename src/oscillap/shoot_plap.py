"""Radial shooting: first-zero location, diagnostics and diagrams.

The Dirichlet problem on a ball is solved by integrating the radial
equation outward from the center at unit parameter and height c, locating
the first radius rho with v = 0, and rescaling: u(r) = v(rho r / R) solves
the problem on the radius-R ball with lambda = (rho/R)^e, e the operator's
rescaling exponent.  A scan over c yields the bifurcation diagram lambda(c)
whose level sets are the solutions at a given parameter.

One shooting path serves both radial operators.  A shot config is the
operator: ``ShootConfig`` here for the p-Laplacian, ``PucciShootConfig``
in ``shoot_pucci`` for the maximal Pucci operator.  Each supplies its
origin series, its scalar and batched right-hand sides, its events with
their end-or-restart rules, its w -> v' map and rescaling exponent, and its
weighted Fbar, per-solution bound and audit; ``shoot``, ``shoot_batch``,
the diagram rows, the CSV and the lambda-star refinement are shared.

The p-Laplacian state is (v, w, z) with w = |v'|^{p-2} v' the flux (the
equation is smooth in w even where the operator degenerates at v' = 0)
and z the accumulated path term of the energy identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import (TYPE_CHECKING, ClassVar, Iterator, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np
from scipy.optimize import brentq

from ._rk import Event, integrate, integrate_batch
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
from .thresholds import per_solution_lower_bound

if TYPE_CHECKING:
    from .shoot_pucci import PucciDiagnostics, PucciShootConfig

#: |f(c)| at or below this (scaled) means the trajectory never leaves c
STALL_TOL = 1e-12


def _check_controls(cfg) -> None:
    """Validate the fields every shot config has; N becomes an int."""
    if int(cfg.N) != cfg.N or cfg.N < 1:
        raise DomainError(f"dimension must be a positive integer, got {cfg.N!r}")
    object.__setattr__(cfg, "N", int(cfg.N))
    if not cfg.c > 0.0:
        raise DomainError(f"height must be positive, got {cfg.c!r}")
    if not cfg.lambda_shoot > 0.0:
        raise DomainError(f"shooting parameter must be positive, got "
                          f"{cfg.lambda_shoot!r}")
    if not cfg.r_max > 0.0:
        raise DomainError(f"horizon must be positive, got {cfg.r_max!r}")
    if not cfg.tol_ode > 0.0:
        raise DomainError(f"tolerance must be positive, got {cfg.tol_ode!r}")
    if not cfg.event_tol > 0.0:
        raise DomainError(f"event tolerance must be positive, got "
                          f"{cfg.event_tol!r}")


@dataclass(frozen=True)
class ShootConfig:
    """One radial p-Laplacian shot: operator, height, and integration controls."""

    p: float
    N: int
    c: float
    lambda_shoot: float = 1.0
    r_max: float = 50.0
    tol_ode: float = 1e-10
    event_tol: float = 1e-12
    max_bounces: int = 200

    #: what a restarting event passes through
    restart_name: ClassVar[str] = "turning points"
    #: whether results and rows report the restarts as q sign changes
    reports_switches: ClassVar[bool] = False

    def __post_init__(self):
        if not self.p > 1.0:
            raise DomainError(f"exponent must exceed 1, got {self.p!r}")
        _check_controls(self)

    @property
    def exponent(self) -> float:
        """Rescaling exponent: lambda on the radius-R ball is
        lambda_shoot (rho/R)^exponent."""
        return self.p

    @property
    def max_restarts(self) -> int:
        return self.max_bounces

    def series_start(self, fc: float):
        """(r0, (v, w, z) at r0, error scales) of a shot with f(c) = fc.

        The two-term series is the unique branch symmetric at the origin.
        """
        p, N, c, lam = self.p, self.N, self.c, self.lambda_shoot
        q = 1.0 / (p - 1.0)
        pq = 1.0 + q
        r0 = max(self.event_tol, 1e-6 * self.r_max)
        K = math.copysign((lam * abs(fc) / N) ** q, fc)
        v0 = c - (p - 1.0) / p * K * r0 ** pq
        w0 = -lam * fc * r0 / N
        z0 = (N - 1) * (lam * abs(fc) / N) ** pq * (p - 1.0) / p * r0 ** pq
        cmax = max(1.0, c)
        return r0, (v0, w0, z0), (cmax, cmax ** (p - 1.0), cmax ** p)

    def slope(self, w):
        """v' from the flux w, for a float or an array."""
        return np.copysign(np.abs(w) ** (1.0 / (self.p - 1.0)), w)

    def system(self, nl: Nonlinearity, batched: bool = False):
        """(right-hand side, events) of the radial equation in (v, w, z).

        The events are v = 0 (the first zero, which ends the shot) and
        w = 0 (a turning point: a bounce where f(v) <= 0 there, otherwise
        integration continues through the tangency).  ``batched`` gives
        the (lanes,)-array form for ``integrate_batch``.
        """
        lam, f0 = self.lambda_shoot, nl.f0
        q = 1.0 / (self.p - 1.0)
        pq = 1.0 + q  # p/(p-1)
        nm1 = self.N - 1
        if batched:
            def f_of(v):
                return np.where(v > 0.0, nl.eval_many(v), f0)

            def rhs(r, y):
                v, w = y[0], y[1]
                aw = np.abs(w)
                return (np.copysign(aw ** q, w), -lam * f_of(v) - nm1 * w / r,
                        nm1 * aw ** pq / r)
        else:
            feval = nl.eval

            def f_of(v):
                return feval(v) if v > 0.0 else f0

            def rhs(r: float, y: Tuple[float, ...]) -> Tuple[float, float, float]:
                v, w, _ = y
                aw = abs(w)
                avp = aw ** q
                vp = avp if w >= 0.0 else -avp
                fv = feval(v) if v > 0.0 else f0
                dw = -lam * fv - nm1 * w / r
                dz = nm1 * aw ** pq / r
                return (vp, dw, dz)
        return rhs, [Event(lambda t, y: y[0], direction=-1),
                     Event(lambda t, y: y[1], direction=0,
                           ends=lambda t, y: f_of(y[0]) <= 0.0)]

    def calculus(self, nl: Nonlinearity) -> PrimitiveCalculus:
        return PrimitiveCalculus(nl, p=self.p)

    def Fbar(self, pc: PrimitiveCalculus, c: float) -> float:
        return pc.Fbar(c)

    def lower_bound(self, pc: PrimitiveCalculus, c: float, R: float) -> float:
        return per_solution_lower_bound(pc, c, self.p, R)

    def audit(self, res: ShootResult, pc: PrimitiveCalculus,
              R: float) -> Diagnostics:
        return check_necessary_conditions(res, pc, self.p, R)


@dataclass(frozen=True)
class HitZero:
    """The trajectory reached v = 0 at radius rho."""

    rho: float
    kind: ClassVar[str] = "HitZero"


@dataclass(frozen=True)
class Bounced:
    """v' returned to 0 at positive height with no zero ahead."""

    r_turn: float
    v_turn: float
    kind: ClassVar[str] = "Bounced"


@dataclass(frozen=True)
class Stalled:
    """f(c) = 0: the constant trajectory (recorded by diagram scans)."""

    c: float
    kind: ClassVar[str] = "Stalled"


@dataclass(frozen=True)
class HorizonExceeded:
    """No zero and no turning point before r_max."""

    r_reached: float
    kind: ClassVar[str] = "HorizonExceeded"


Outcome = Union[HitZero, Bounced, Stalled, HorizonExceeded]


@dataclass
class Diagnostics:
    energy_residual_max: float
    F_at_max_ok: bool
    area_condition_ok: bool
    lower_bound_slack: float

    @property
    def residual(self) -> float:
        """What a diagram row reports as its energy residual."""
        return self.energy_residual_max


@dataclass
class ShootResult:
    """Trajectory samples plus outcome and (once computed) diagnostics."""

    config: ShootConfig
    outcome: Outcome
    r: np.ndarray
    v: np.ndarray
    vp: np.ndarray
    z: np.ndarray
    n_steps: int
    rho_error_estimate: float
    lambda_rescaled: Optional[float] = None
    diagnostics: Optional[Union[Diagnostics, PucciDiagnostics]] = None
    q_sign_changes: int = 0  # diffusion switches; 0 unless the operator reports them

    @property
    def trajectory(self) -> np.ndarray:
        """Sampled (r, v, v') triples, one row per accepted step."""
        return np.column_stack([self.r, self.v, self.vp])


def _result(cfg, outcome: Outcome, r: np.ndarray, y: np.ndarray,
            vp: np.ndarray, n_steps: int, err_v: float,
            restarts: int) -> ShootResult:
    """ShootResult of one shot from its samples: radii ``r``, states
    ``y[components, k]`` and slopes ``vp``, from the origin to the state
    where the shot ended (the zero, for a HitZero)."""
    rho_err = math.nan
    if isinstance(outcome, HitZero):
        rho_err = err_v / max(abs(cfg.slope(y[1, -1])), 1e-300)
    z = y[2] if len(y) > 2 else np.zeros(len(r))
    return ShootResult(cfg, outcome, r, y[0], vp, z, n_steps, float(rho_err),
                       q_sign_changes=restarts if cfg.reports_switches else 0)


def _outcome(event_index: int, t: float, v: float) -> Outcome:
    """Outcome of a shot ended by this event (-1: the horizon).

    Event 0 is the first zero; every other ending event is a bounce.
    """
    if event_index < 0:
        return HorizonExceeded(t)
    return HitZero(t) if event_index == 0 else Bounced(t, v)


def shoot(cfg, nl: Nonlinearity) -> ShootResult:
    """Integrate outward from height c until v = 0, a bounce, or the horizon.

    ``cfg`` is either operator (``ShootConfig`` or ``PucciShootConfig``).
    Starts on its symmetric origin series (the (N-1)/r term is singular at
    r = 0) and watches its events: the first zero ends the shot as
    HitZero, any other ending event as Bounced, and a restarting event is
    stepped onto exactly and integrated on from, at most
    ``cfg.max_restarts`` times.
    """
    c = cfg.c
    fc = nl.eval(c)
    if abs(fc) <= STALL_TOL * max(1.0, c):
        raise StalledAtCriticalPoint(c, fc)

    rhs, events = cfg.system(nl)
    r0, y, scale = cfg.series_start(fc)
    rs: List[float] = [0.0, r0]
    ys: List[Tuple[float, ...]] = [(c,) + (0.0,) * (len(y) - 1), y]

    def rec(t: float, y: Tuple[float, ...]) -> None:
        rs.append(t)
        ys.append(y)

    t = r0
    n_steps = 0
    err_v = 0.0
    restarts = 0
    while True:
        res = integrate(rhs, t, y, cfg.r_max, rtol=cfg.tol_ode, scale=scale,
                        events=events, record=rec, event_tol=cfg.event_tol)
        n_steps += res.n_steps
        err_v += res.error_accum[0]
        t, y = res.t, res.y
        if res.status == "end":
            outcome = HorizonExceeded(t)
            break
        if events[res.event_index].ends_at(t, y):
            outcome = _outcome(res.event_index, t, y[0])
            break
        restarts += 1
        if restarts > cfg.max_restarts:
            raise NonConvergence(
                f"more than {cfg.max_restarts} {cfg.restart_name} before any zero")

    slope = cfg.slope
    return _result(cfg, outcome, np.array(rs), np.array(ys).T,
                   np.array([slope(s[1]) for s in ys]), n_steps, err_v, restarts)


def shoot_batch(cfg, heights: Sequence[float],
                nl: Nonlinearity) -> List[Optional[ShootResult]]:
    """``shoot`` at every height, all heights advancing as lanes of one batch.

    ``cfg`` (either operator) gives everything but the height.  Returns
    one result per height, in order, and None where ``shoot`` would raise
    StalledAtCriticalPoint.  Each lane starts on the same origin series,
    follows the same step control and events as ``shoot`` (restarting
    where ``shoot`` does), and records every accepted step; only the event
    offsets differ, because they are located on the dense output (within
    the integration tolerance).
    """
    return list(_shots(cfg, heights, nl))


def _shots(cfg, heights: Sequence[float],
           nl: Nonlinearity) -> Iterator[Optional[ShootResult]]:
    """``shoot_batch``'s results one at a time, so a caller that audits and
    drops each trajectory never holds all of them."""
    cfgs = [replace(cfg, c=float(c)) for c in heights]
    lanes, starts, scales = [], [], []
    for i, lane_cfg in enumerate(cfgs):
        fc = nl.eval(lane_cfg.c)
        if abs(fc) <= STALL_TOL * max(1.0, lane_cfg.c):
            continue
        r0, start, scale = lane_cfg.series_start(fc)
        lanes.append(i)
        starts.append(start)
        scales.append(scale)
    if not lanes:
        yield from (None for _ in cfgs)
        return

    rhs, events = cfg.system(nl, batched=True)
    res = integrate_batch(rhs, np.full(len(lanes), r0), np.array(starts).T,
                          cfg.r_max, cfg.tol_ode, np.array(scales).T,
                          events=events, max_restarts=cfg.max_restarts,
                          event_tol=cfg.event_tol)

    lane_of = {i: j for j, i in enumerate(lanes)}
    for i, lane_cfg in enumerate(cfgs):
        if i not in lane_of:
            yield None
            continue
        j = lane_of[i]
        start = starts[j]
        origin = (lane_cfg.c,) + (0.0,) * (len(start) - 1)
        t_s, y_s = res.samples(j)
        t_end = float(res.t[j])
        vp = np.concatenate(([0.0, lane_cfg.slope(start[1])],
                             lane_cfg.slope(y_s[1])))
        yield _result(lane_cfg,
                      _outcome(res.event_index[j], t_end, float(res.y[0, j])),
                      np.concatenate(([0.0, r0], t_s)),
                      np.column_stack([origin, start, y_s]), vp,
                      int(res.n_steps[j]), float(res.error_accum[0, j]),
                      int(res.restarts[j]))


def rescale_to_ball(res: ShootResult, R: float, p: float) -> float:
    """Parameter on the radius-R ball for this trajectory's profile.

    The rescaled profile u(r) = v(rho r / R) keeps the same maximum c and
    solves the problem at lambda = lambda_shoot * (rho/R)^p, with p the
    operator's rescaling exponent (``res.config.exponent``).
    """
    if not isinstance(res.outcome, HitZero):
        raise NotAZeroHit(f"cannot rescale a {res.outcome.kind} trajectory")
    if not R > 0.0:
        raise DomainError(f"radius must be positive, got {R!r}")
    lam = res.config.lambda_shoot * (res.outcome.rho / R) ** p
    res.lambda_rescaled = lam
    return lam


def energy_residual(res: ShootResult, pc: PrimitiveCalculus,
                    lam: Optional[float] = None) -> float:
    """Worst relative defect of the radial energy identity along the samples.

    The identity equates (p-1)/p |v'|^p plus the accumulated path term
    with lambda (F(c) - F(v(r))); its residual is the integrator's primary
    self-check.  ``lam`` defaults to the shooting parameter.
    """
    if lam is None:
        lam = res.config.lambda_shoot
    p = res.config.p
    Fc = pc.F(res.config.c)
    v = np.clip(res.v, 0.0, None)  # event overshoot may leave v at -event_tol
    lhs = (p - 1.0) / p * np.abs(res.vp) ** p + res.z
    rhs = lam * (Fc - pc.F_many(v))
    return float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))))


def check_necessary_conditions(res: ShootResult, pc: PrimitiveCalculus,
                               p: float, R: float,
                               tol: float = 1e-8) -> Diagnostics:
    """Audit a zero-hitting trajectory against the solvability conditions.

    Fills ``res.diagnostics`` with: the energy-identity residual, the sign
    check F(c) >= -tol, the area condition (F(c) at least the running
    maximum of F on [0, c], computed exactly from the tracked extrema),
    and the slack of the per-solution lower bound on the rescaled lambda.
    """
    lam = rescale_to_ball(res, R, p)
    c = res.config.c
    Fc = pc.F(c)
    sign_ok = Fc >= -tol
    area_ok = (Fc - pc.running_max(c)) >= -tol
    slack = lam - per_solution_lower_bound(pc, c, p, R)
    energy = energy_residual(res, pc)
    d = Diagnostics(energy, bool(sign_ok), bool(area_ok), float(slack))
    res.diagnostics = d
    return d


@dataclass(frozen=True)
class DiagramRow:
    """One grid height of a scan.  For the Pucci operator ``Fbar_c`` and
    ``lower_bound`` use the Lambda-weighted primitive, ``energy_residual``
    is the normalized violation of the decay inequality, and
    ``q_sign_changes`` counts the diffusion switches (None otherwise)."""

    c: float
    outcome: str
    rho: float
    lam: float
    F_c: float
    Fbar_c: float
    lower_bound: float
    energy_residual: float
    area_ok: Optional[bool]
    zero_interval_index: int
    q_sign_changes: Optional[int] = None


@dataclass(frozen=True)
class Crossing:
    """One solution of lambda(c) = lambda_star located inside a branch."""

    c: float
    lam: float
    rho: float
    zero_interval_index: int


@dataclass(frozen=True)
class UnresolvedBracket:
    """Heights between which a crossing is expected but was not located."""

    c_lo: float
    c_hi: float
    zero_interval_index: int


#: refinement stops once |lambda - level| <= REFINE_RTOL * lambda ...
REFINE_RTOL = 1e-9
#: ... or the bracket is narrower than REFINE_XTOL * max(1, c)
REFINE_XTOL = 1e-12
#: refinement rounds before the best iterate so far is kept
REFINE_MAX_ITER = 100
#: inner guard heights sit this share of the estimated error from the estimate
GUARD_RATIO = 0.1
#: a row below the level next to a zero alpha of f is bracketed against
#: alpha -/+ alpha 10^-j for these j, nearest the row first (a zero is a pole
#: of lambda(c), so some such height lies above any level)
POLE_OFFSETS = tuple(10.0 ** -j for j in range(2, 8))


@dataclass
class BifurcationDiagram:
    """Scan of lambda(c) over a height grid, with per-row diagnostics.

    ``op`` is the shot config (either operator) every row was shot with;
    its own height is not used.
    """

    rows: Tuple[DiagramRow, ...]
    zeros: ZeroSequence
    nl: Nonlinearity
    pc: PrimitiveCalculus
    op: Union[ShootConfig, PucciShootConfig]
    R: float

    @classmethod
    def scan(cls, op, nl: Nonlinearity, R: float, c_grid: Sequence[float],
             zeros: ZeroSequence,
             pc: Optional[PrimitiveCalculus] = None) -> BifurcationDiagram:
        """One shot per grid height, all heights in one lockstep batch, in grid order.

        Heights where f vanishes are recorded as Stalled rows rather than
        failing the scan.  ``pc`` defaults to the operator's primitives.
        """
        if len(c_grid) == 0:
            raise EmptyGrid("a scan needs at least one height")
        if pc is None:
            pc = op.calculus(nl)
        heights = [float(c) for c in c_grid]
        rows = tuple(_diagram_row(c, res, op, pc, zeros, R)
                     for c, res in zip(heights, _shots(op, heights, nl)))
        return cls(rows, zeros, nl, pc, op, R)

    def branches(self) -> List[Tuple[int, int]]:
        """Maximal index ranges [i, j) of consecutive zero-hitting rows."""
        out: List[Tuple[int, int]] = []
        start = None
        for i, row in enumerate(self.rows):
            if row.outcome == "HitZero":
                if start is None:
                    start = i
            elif start is not None:
                out.append((start, i))
                start = None
        if start is not None:
            out.append((start, len(self.rows)))
        return out

    def _lambdas(self, heights: Sequence[float]) -> np.ndarray:
        """lambda on the ball at each height from one batch; nan without a zero."""
        return np.array([
            rescale_to_ball(res, self.R, self.op.exponent)
            if res is not None and isinstance(res.outcome, HitZero) else math.nan
            for res in _shots(self.op, heights, self.nl)])

    def _pole_brackets(self, lambda_star: float, rows, unresolved) -> list:
        """Brackets between rows below the level and heights next to their zeros.

        ``rows`` holds (row, zero, -1 when the row lies below the zero or
        +1 above it).  The candidates alpha -/+ alpha 10^-j are shot in one
        batch; the first one (from the row toward the zero) that hits zero
        above the level closes the bracket, the last one below the level
        (or the row) opens it.
        """
        heights = [a * (1.0 + sgn * d) for row, a, sgn in rows
                   for d in POLE_OFFSETS
                   if (a * (1.0 + sgn * d) - row.c) * sgn < 0.0]
        lams = dict(zip(heights, self._lambdas(heights))) if heights else {}
        out = []
        for row, a, sgn in rows:
            path = [(row.c, 1.0 - lambda_star / row.lam)]
            for d in POLE_OFFSETS:
                c = a * (1.0 + sgn * d)
                if (c - row.c) * sgn < 0.0 and not math.isnan(lams[c]):
                    path.append((c, 1.0 - lambda_star / lams[c]))
            up = next((k for k, (_, g) in enumerate(path) if g > 0.0), None)
            if up is None:
                unresolved.append(UnresolvedBracket(
                    min(row.c, a), max(row.c, a), row.zero_interval_index))
                continue
            out.append(_Bracket.on_path(path, up - 1))
        return out

    def solutions_at(self, lambda_star: float,
                     unresolved: Optional[List[UnresolvedBracket]] = None
                     ) -> List[Crossing]:
        """All heights where the diagram crosses the level lambda_star, by height.

        Adjacent zero-hitting rows of one zero gap whose lambdas bracket
        the level are refined together: each round shoots the heights
        proposed by every open bracket in one batch (see ``_Bracket``).
        Refinement works on g = 1 - lambda_star / lambda, which stays smooth
        up to the poles of lambda(c).  The first estimate interpolates the
        bracketing grid rows and their neighbours (while lambda stays
        monotone), and the lambda of the best iterate of the last round is
        reported, without a further shot.  A zero alpha of f between
        adjacent rows is a pole of lambda(c), so such rows never form a
        bracket; instead each of them below the level is bracketed against
        the first height alpha -/+ alpha 10^-j (j = 2..7) whose shot hits
        zero above the level.  Brackets that cannot be closed that way, or
        whose refinement shots all miss zero, are appended to
        ``unresolved`` (when given) instead of failing.
        """
        if not lambda_star > 0.0:
            raise DomainError(f"level must be positive, got {lambda_star!r}")
        if unresolved is None:
            unresolved = []
        asc = self.zeros.ascending()
        out: List[Crossing] = []
        brackets: List[_Bracket] = []
        pole_rows = []  # (row, zero, -1 below the zero or +1 above it)
        for i0, i1 in self.branches():
            for i in range(i0, i1):
                row = self.rows[i]
                g0 = row.lam - lambda_star
                if g0 == 0.0:
                    out.append(Crossing(row.c, row.lam, row.rho,
                                        row.zero_interval_index))
                    continue
                if i + 1 >= i1:
                    continue
                nxt = self.rows[i + 1]
                if g0 * (nxt.lam - lambda_star) >= 0.0:
                    continue
                if row.zero_interval_index == nxt.zero_interval_index:
                    gap = [r for r in self.rows[max(i0, i - 1):min(i1, i + 3)]
                           if r.zero_interval_index == row.zero_interval_index]
                    brackets.append(_Bracket.on_path(
                        [(r.c, 1.0 - lambda_star / r.lam) for r in gap],
                        gap.index(row)))
                elif (row.c < nxt.c) == (g0 < 0.0):    # below the level on the left
                    low = min(row, nxt, key=lambda x: x.c)
                    pole_rows.append((low, asc[low.zero_interval_index - 1], -1))
                else:
                    low = max(row, nxt, key=lambda x: x.c)
                    pole_rows.append((low, asc[low.zero_interval_index - 2], 1))
        if pole_rows:
            brackets += self._pole_brackets(lambda_star, pole_rows, unresolved)
        for _ in range(REFINE_MAX_ITER):
            if not brackets:
                break
            heights = [b.proposals() for b in brackets]
            lams = self._lambdas([c for hs in heights for c in hs])
            live = []
            start = 0
            for b, hs in zip(brackets, heights):
                own = lams[start:start + len(hs)]
                start += len(hs)
                shots = [(c, 1.0 - lambda_star / lam, lam)
                         for c, lam in zip(hs, own) if not math.isnan(lam)]
                if not shots:
                    unresolved.append(UnresolvedBracket(
                        b.c_lo, b.c_hi, self.zeros.interval_index(b.c_lo)))
                    continue
                c, _, lam = min(shots, key=lambda x: abs(x[1]))
                if b.update(shots, REFINE_RTOL):
                    rho = self.R * (lam / self.op.lambda_shoot) ** (
                        1.0 / self.op.exponent)
                    out.append(Crossing(float(c), float(lam), float(rho),
                                        self.zeros.interval_index(float(c))))
                else:
                    live.append(b)
            brackets = live
        return sorted(out, key=lambda x: x.c)


def _interpolated_root(pts: list, a: float, b: float) -> float:
    """Root in [a, b] of the polynomial through the (c, g) points.

    The points include (a, g(a)) and (b, g(b)) with opposite signs; nan
    when rounding in the interpolant loses that sign change.
    """
    cs = [c for c, _ in pts]
    coef = [g for _, g in pts]
    n = len(pts)
    for j in range(1, n):                 # Newton divided differences
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (cs[i] - cs[i - j])

    def poly(x):
        v = coef[-1]
        for i in range(n - 2, -1, -1):
            v = v * (x - cs[i]) + coef[i]
        return v
    if not poly(a) * poly(b) < 0.0:
        return math.nan
    return float(brentq(poly, a, b, xtol=1e-15 * max(1.0, abs(b)), rtol=1e-15))


class _Bracket:
    """One sign change of g(c) = 1 - level / lambda(c) under refinement.

    Keeps the current bracket [a, b] and every point (c, g) known on the
    same monotone piece of lambda(c), from which the next heights are
    interpolated.
    """

    def __init__(self, a: float, ga: float, b: float, gb: float, pts: list):
        self.a, self.ga, self.b, self.gb = a, ga, b, gb
        self.c_lo, self.c_hi = sorted((a, b))
        self.pts = pts

    @classmethod
    def on_path(cls, path: list, k: int) -> "_Bracket":
        """Bracket path[k], path[k+1] of (c, g) points ordered along c.

        Up to one more neighbour on each side joins the interpolation
        points while g stays strictly monotone along the path.
        """
        lo, hi = k, k + 1
        sgn = math.copysign(1.0, path[hi][1] - path[lo][1])
        if lo > 0 and (path[lo][1] - path[lo - 1][1]) * sgn > 0.0:
            lo -= 1
        if hi + 1 < len(path) and (path[hi + 1][1] - path[hi][1]) * sgn > 0.0:
            hi += 1
        (a, ga), (b, gb) = path[k], path[k + 1]
        return cls(a, ga, b, gb, list(path[lo:hi + 1]))

    def proposals(self) -> List[float]:
        """Heights to shoot next: the best estimate and guards around it.

        The estimate is the root in the bracket of the cubic through its
        two ends and the two other known points nearest to them.  Guards sit
        one estimated error, and a tenth of it, on either side, the error
        being the distance to the root from one point fewer (to the
        midpoint when the ends are all that is known).  One round then
        usually shrinks the bracket to that width, and the next
        interpolates between close points.
        """
        a, b = sorted((self.a, self.b))
        ends = [(self.a, self.ga), (self.b, self.gb)]
        others = sorted((q for q in self.pts if q[0] not in (a, b)),
                        key=lambda q: min(abs(q[0] - a), abs(q[0] - b)))
        secant = self.b - self.gb * (self.b - self.a) / (self.gb - self.ga)
        x = _interpolated_root(ends + others[:2], a, b)
        coarse = (_interpolated_root(ends + others[:1], a, b) if others
                  else 0.5 * (a + b))
        if math.isnan(x):
            x, coarse = secant, 0.5 * (a + b)
        elif math.isnan(coarse):
            coarse = secant
        delta = max(abs(x - coarse), 10.0 * REFINE_XTOL * max(1.0, abs(x)))
        guards = (x - delta, x - GUARD_RATIO * delta, x + GUARD_RATIO * delta,
                  x + delta)
        return [x] + [c for c in guards if a < c < b]

    def update(self, shots: list, gtol: float) -> bool:
        """Take shot (c, g, lambda) triples; True once one is close enough.

        The bracket becomes the narrowest pair of neighbouring known points
        with opposite signs.
        """
        self.pts += [(c, g) for c, g, _ in shots]
        inside = sorted([(self.a, self.ga), (self.b, self.gb)]
                        + [(c, g) for c, g, _ in shots
                           if min(self.a, self.b) < c < max(self.a, self.b)])
        pairs = [(p, q) for p, q in zip(inside, inside[1:])
                 if (p[1] > 0.0) != (q[1] > 0.0)]
        if pairs:
            (self.a, self.ga), (self.b, self.gb) = min(
                pairs, key=lambda pq: pq[1][0] - pq[0][0])
        best = min(abs(g) for _, g, _ in shots)
        return (best <= gtol or abs(self.b - self.a)
                <= REFINE_XTOL * max(1.0, abs(self.a), abs(self.b)))


def _diagram_row(c: float, res: Optional[ShootResult], op,
                 pc: PrimitiveCalculus, zeros: ZeroSequence,
                 R: float) -> DiagramRow:
    """CSV row of one height from its shot (None where f(c) = 0)."""
    F_c = pc.F(c)
    Fbar_c = op.Fbar(pc, c)
    idx = zeros.interval_index(c)
    try:
        bound = op.lower_bound(pc, c, R)
    except NonpositiveFbar:
        bound = math.nan
    switches = (0 if res is None else res.q_sign_changes) \
        if op.reports_switches else None
    if res is None:
        return DiagramRow(c, "Stalled", math.nan, math.nan, F_c, Fbar_c,
                          bound, math.nan, None, idx, switches)
    if isinstance(res.outcome, HitZero):
        d = op.audit(res, pc, R)
        return DiagramRow(c, "HitZero", res.outcome.rho,
                          res.lambda_rescaled, F_c, Fbar_c, bound, d.residual,
                          bool(d.F_at_max_ok and d.area_condition_ok), idx,
                          switches)
    return DiagramRow(c, res.outcome.kind, math.nan, math.nan, F_c,
                      Fbar_c, bound, math.nan, None, idx, switches)


def diagram(nl: Nonlinearity, p: float, N: int, R: float,
            c_grid: Sequence[float], zeros: ZeroSequence,
            pc: Optional[PrimitiveCalculus] = None,
            lambda_shoot: float = 1.0, tol_ode: float = 1e-8,
            event_tol: float = 1e-10, r_max: float = 50.0
            ) -> BifurcationDiagram:
    """p-Laplacian ``BifurcationDiagram.scan`` of the grid."""
    op = ShootConfig(p, N, 1.0, lambda_shoot=lambda_shoot, r_max=r_max,
                     tol_ode=tol_ode, event_tol=event_tol)
    return BifurcationDiagram.scan(op, nl, R, c_grid, zeros, pc)


CSV_COLUMNS = ("c", "outcome", "rho", "lambda", "F_c", "Fbar_c",
               "lower_bound", "energy_residual", "area_ok",
               "zero_interval_index")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_lines(rows: Sequence[DiagramRow], switches: bool) -> List[str]:
    """Deterministic CSV encoding of scan rows, one line per grid height;
    ``switches`` adds the q_sign_changes column."""
    lines = [",".join(CSV_COLUMNS + ("q_sign_changes",) * switches)]
    for r in rows:
        area = "" if r.area_ok is None else ("true" if r.area_ok else "false")
        lines.append(",".join([
            _fmt(r.c), r.outcome, _fmt(r.rho), _fmt(r.lam), _fmt(r.F_c),
            _fmt(r.Fbar_c), _fmt(r.lower_bound), _fmt(r.energy_residual),
            area, str(r.zero_interval_index),
        ] + [str(r.q_sign_changes)] * switches))
    return lines


def diagram_csv_lines(diag: BifurcationDiagram) -> List[str]:
    """Deterministic CSV encoding of the scan, one line per grid height."""
    return _csv_lines(diag.rows, diag.op.reports_switches)


def write_diagram_csv(diag: BifurcationDiagram, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(diagram_csv_lines(diag)) + "\n")


def clustered_heights(zeros: ZeroSequence, k_range: Tuple[int, int] = (2, 7),
                      base_points: int = 12,
                      c_min: Optional[float] = None,
                      c_max: Optional[float] = None) -> np.ndarray:
    """Height grid refined geometrically toward each zero of f.

    Near a zero alpha the diagram spikes, so crossings of large levels
    live at heights alpha (1 +/- 10^-k); the grid places those points for
    k in ``k_range`` on both sides plus ``base_points`` uniform heights
    per gap, and never lands exactly on a zero.
    """
    asc = zeros.ascending()
    pts: List[float] = []
    for a in asc:
        for k in range(k_range[0], k_range[1] + 1):
            off = a * 10.0 ** -k
            pts.append(a - off)
            pts.append(a + off)
    edges = [0.0] + list(asc)
    for lo, hi in zip(edges[:-1], edges[1:]):
        pts.extend(np.linspace(lo, hi, base_points + 2)[1:-1])
    arr = np.unique(np.array(pts, dtype=float))
    if c_min is not None:
        arr = arr[arr >= c_min]
    if c_max is not None:
        arr = arr[arr <= c_max]
    return arr
