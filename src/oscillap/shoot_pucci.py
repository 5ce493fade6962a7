"""Radial shooting for the maximal Pucci extremal equation.

The equation -M+(D^2 v) = lambda f(v) for radial v reduces to a scalar
second-order ODE whose diffusion coefficient switches between Lambda and
1/Lambda with the sign of v''.  Resolving the switch through the sign of
q := lambda f(v) + (N-1) v'/(Lambda r) (provably equivalent and computable
from the state) gives the explicit right-hand side

    v'' = -Lambda * q   when q >= 0,      v'' = -q / Lambda   otherwise,

continuous in the state with a derivative kink at q = 0 when Lambda > 1.
The integrator steps exactly onto each q sign change and restarts there,
counting the switches; crossing the kink blindly would degrade the
embedded pair.

Decay is structural here: trajectories whose v' returns to zero at a
positive height are classified Bounced outright (the radial solutions
this equation models decay strictly until their first zero).

This module holds only what is Pucci-specific: the operator config (its
switched right-hand side, origin series and events), its diagnostics and
the inequality audit.  Shots, batches, scans, rows and CSV run on the
shared path of ``shoot_plap``; the ``pucci_*`` names are that path's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

# ``integrate`` is not called here (the shared ``shoot`` integrates); the
# name stays because perfbench/tracing.py spans it in this module.
from ._rk import Event, integrate  # noqa: F401
from .errors import DomainError
from .nonlinearity import Nonlinearity, ZeroSequence
from .primitives import PrimitiveCalculus
from .shoot_plap import (
    CSV_COLUMNS,
    BifurcationDiagram,
    DiagramRow,
    ShootResult,
    _check_controls,
    _csv_lines,
    rescale_to_ball,
    shoot,
    shoot_batch,
)
from .thresholds import pucci_per_solution_lower_bound


@dataclass(frozen=True)
class PucciShootConfig:
    """One radial Pucci shot: ellipticity ratio, height, and controls.

    The operator object of the shared shooting path (see ``shoot_plap``).
    """

    Lambda: float
    N: int
    c: float
    lambda_shoot: float = 1.0
    r_max: float = 50.0
    tol_ode: float = 1e-10
    event_tol: float = 1e-12
    max_switches: int = 10_000

    #: what a restarting event passes through
    restart_name: ClassVar[str] = "diffusion switches"
    #: whether results and rows report the restarts as q sign changes
    reports_switches: ClassVar[bool] = True
    #: the operator is positively 1-homogeneous in the Hessian, so the
    #: rescaling exponent is 2 regardless of Lambda
    exponent: ClassVar[float] = 2.0

    def __post_init__(self):
        if not self.Lambda >= 1.0:
            raise DomainError(f"ellipticity ratio must be >= 1, got {self.Lambda!r}")
        _check_controls(self)

    @property
    def max_restarts(self) -> int:
        return self.max_switches

    def series_start(self, fc: float):
        """(r0, (v, v') at r0, error scales) of a shot with f(c) = fc.

        Solving the q >= 0 branch with v' ~ v''(0) r gives
        v''(0) = -Lambda lambda f(c)/N when f(c) > 0; for f(c) < 0 the
        q < 0 branch gives v''(0) = -lambda f(c) Lambda / (Lambda^2 + N - 1).
        """
        Lam, N, c, lam = self.Lambda, self.N, self.c, self.lambda_shoot
        if fc > 0.0:
            a0 = -Lam * lam * fc / N
        else:
            a0 = -lam * fc * Lam / (Lam * Lam + (N - 1))
        r0 = max(self.event_tol, 1e-6 * self.r_max)
        cmax = max(1.0, c)
        return r0, (c + 0.5 * a0 * r0 * r0, a0 * r0), (cmax, cmax)

    def slope(self, u):
        """v' from the state's second component, which is v' itself."""
        return u

    def system(self, nl: Nonlinearity, batched: bool = False):
        """(right-hand side, events) of the switched equation in (v, v').

        The events are v = 0 (the first zero) and v' = 0 (a bounce), which
        end the shot, and, when Lambda > 1, the diffusion switch q = 0,
        stepped onto exactly and restarted from.  At Lambda = 1 the
        right-hand side has no kink, so a shot restarts nowhere and
        reports no switches.  ``batched`` gives the (lanes,)-array form for
        ``integrate_batch``.
        """
        Lam, lam, f0 = self.Lambda, self.lambda_shoot, nl.f0
        nm1 = self.N - 1
        if batched:
            def qval(r, y):
                v, u = y[0], y[1]
                fv = np.where(v > 0.0, nl.eval_many(v), f0)
                return lam * fv + nm1 * u / (Lam * r)

            def rhs(r, y):
                q = qval(r, y)
                return (y[1], np.where(q >= 0.0, -Lam * q, -q / Lam))
        else:
            feval = nl.eval

            def qval(r: float, y: Tuple[float, ...]) -> float:
                v, u = y
                fv = feval(v) if v > 0.0 else f0
                return lam * fv + nm1 * u / (Lam * r)

            def rhs(r: float, y: Tuple[float, ...]) -> Tuple[float, float]:
                q = qval(r, y)
                return (y[1], -Lam * q if q >= 0.0 else -q / Lam)
        events = [Event(lambda t, y: y[0], direction=-1),   # first zero
                  Event(lambda t, y: y[1], direction=+1)]   # v' back to 0
        if Lam > 1.0:
            events.append(Event(qval, direction=0, ends=False))  # diffusion switch
        return rhs, events

    def calculus(self, nl: Nonlinearity) -> PrimitiveCalculus:
        return PrimitiveCalculus(nl, p=2.0, Lambda=self.Lambda)

    def Fbar(self, pc: PrimitiveCalculus, c: float) -> float:
        return pc.Fbar_Lambda(c)

    def lower_bound(self, pc: PrimitiveCalculus, c: float, R: float) -> float:
        return pucci_per_solution_lower_bound(pc, c, self.Lambda, R)

    def audit(self, res: ShootResult, pc: PrimitiveCalculus,
              R: float) -> PucciDiagnostics:
        return pucci_inequality_check(res, pc, R=R)


@dataclass
class PucciDiagnostics:
    """Slack of the Lambda-weighted decay inequality and its consequences."""

    min_pointwise_slack: float       # worst slack of the pointwise inequality
    residual_max: float              # normalized worst violation (0 if it holds)
    rescaled_bound_slack: float      # lambda minus the per-solution bound
    F_at_max_ok: bool
    area_condition_ok: bool

    @property
    def residual(self) -> float:
        """What a diagram row reports as its energy residual."""
        return self.residual_max


#: ``shoot`` and ``shoot_batch`` run either operator; these are their
#: names for a ``PucciShootConfig``
pucci_shoot = shoot
pucci_shoot_batch = shoot_batch


def pucci_rescale(res: ShootResult, R: float) -> float:
    """Parameter on the radius-R ball: dilation scales lambda by (rho/R)^2."""
    return rescale_to_ball(res, R, res.config.exponent)


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


PUCCI_CSV_COLUMNS = CSV_COLUMNS + ("q_sign_changes",)
#: a Pucci scan row: ``DiagramRow`` with its switch count set
PucciDiagramRow = DiagramRow


def pucci_scan(nl: Nonlinearity, Lambda: float, N: int, R: float,
               c_grid: Sequence[float], zeros: ZeroSequence,
               pc: Optional[PrimitiveCalculus] = None,
               lambda_shoot: float = 1.0, tol_ode: float = 1e-8,
               event_tol: float = 1e-10,
               r_max: float = 50.0) -> List[DiagramRow]:
    """Rows of the Pucci ``BifurcationDiagram.scan`` of the grid."""
    op = PucciShootConfig(Lambda, N, 1.0, lambda_shoot=lambda_shoot,
                          r_max=r_max, tol_ode=tol_ode, event_tol=event_tol)
    return list(BifurcationDiagram.scan(op, nl, R, c_grid, zeros, pc).rows)


def pucci_csv_lines(rows: Sequence[DiagramRow]) -> List[str]:
    """``diagram_csv_lines`` of Pucci rows, with the q_sign_changes column."""
    return _csv_lines(rows, True)
