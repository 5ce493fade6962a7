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

This module holds only what is Pucci-specific: the shot config (its
switched right-hand side, origin series and events).  Shots, batches,
the audit of the Lambda-weighted decay inequality, scans, rows and CSV
run on the shared path of ``shoot_plap``, and ``thresholds.Operator``
owns the rescaling exponent, the weighted primitives and the
per-solution bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._rk import Event
from .nonlinearity import Nonlinearity
from .shoot_plap import _check_controls, shoot
from .thresholds import Operator


@dataclass(frozen=True)
class PucciShootConfig:
    """One radial Pucci shot: ellipticity ratio, height, and controls.

    The Pucci shot config of the shared shooting path (see ``shoot_plap``).
    """

    Lambda: float
    N: int
    c: float
    lambda_shoot: float = 1.0
    r_max: float = 50.0
    tol_ode: float = 1e-10
    event_tol: float = 1e-12

    #: diffusion switches a shot may pass through before NonConvergence
    max_restarts: ClassVar[int] = 10_000
    #: whether results and rows report the restarts as q sign changes
    reports_switches: ClassVar[bool] = True

    def __post_init__(self):
        Operator.pucci(self.Lambda)   # validates Lambda
        _check_controls(self)

    @property
    def operator(self) -> Operator:
        return Operator.pucci(self.Lambda)

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

    def system(self, nl: Nonlinearity):
        """(right-hand side, events) of the switched equation in (v, v'),
        on (lanes,) radii and (components, lanes) states for
        ``integrate_batch``.

        The events are v = 0 (the first zero) and v' = 0 (a bounce), which
        end the shot, and, when Lambda > 1, the diffusion switch q = 0,
        stepped onto exactly and restarted from.  At Lambda = 1 the
        right-hand side has no kink, so a shot restarts nowhere and
        reports no switches.
        """
        Lam, lam = self.Lambda, self.lambda_shoot
        nm1 = self.N - 1

        def qval(r, y):   # eval_many is f(0) below 0 already
            return lam * nl.eval_many(y[0]) + nm1 * y[1] / (Lam * r)

        def rhs(r, y):
            q = qval(r, y)
            return (y[1], np.where(q >= 0.0, -Lam * q, -q / Lam))
        events = [Event(lambda t, y: y[0], direction=-1),   # first zero
                  Event(lambda t, y: y[1], direction=+1)]   # v' back to 0
        if Lam > 1.0:
            events.append(Event(qval, direction=0, ends=False))  # diffusion switch
        return rhs, events


#: ``shoot`` runs either operator; this is its name for a
#: ``PucciShootConfig``
pucci_shoot = shoot
