"""Embedded Dormand-Prince 5(4) stepper: one trajectory or a batch of lanes.

The radial shooting problems integrate 2- or 3-component systems whose
right-hand sides are a handful of float operations.  ``integrate`` works
on plain tuples of floats; per-step overhead stays in the microsecond
range, which a generic array-based solver cannot match for one
trajectory.  Its events are located by sign change between accepted
steps: the crossing offset is solved by bracketed root finding on the map
``tau -> g(one RK5 step of size tau from the step start)``, which is
smooth in tau and reuses the already-computed first stage.

``integrate_batch`` advances many independent trajectories (lanes) of the
same system in lockstep on ``(components, lanes)`` arrays, so the
per-step interpreter overhead is paid once per lockstep iteration rather
than once per lane.  Each lane keeps its own step size and controller
state; it shares the tableau, error norm, controller constants and
first-step heuristic with ``integrate``.  Its events are located on the
free 4th-order dense output of the pair (Dormand & Prince 1980; Shampine
1986, "Some practical Runge-Kutta formulas"; Hairer-Norsett-Wanner I,
II.6) by a vectorized Illinois iteration, and one RK5 step of the located
size gives the state at the event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.optimize import brentq

from .errors import NonConvergence, NonintegrableStep

# Dormand-Prince coefficients
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# fifth-minus-fourth order error weights
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ALPHA = 0.7 / 5.0   # PI step controller exponents for a 5th-order pair
_BETA = 0.4 / 5.0
_REJECT_EXP = -0.2   # step shrink exponent after a rejected step
_ERR_FLOOR = 1e-10   # smallest error carried into the PI controller
# first step: a 1% change of the scaled state, else a fixed share of the span
_H0_SHARE = 0.01
_H0_FALLBACK = 1e-4
_H0_FLOOR = 1e-12    # share of the span
_H_UNDERFLOW = 1e-14  # relative to max(1, |t|)
_MAX_STEPS = 500_000  # attempted steps per integration (per restart in a batch)

# the same tableau as (weight, stage index) terms for the batched stepper,
# summed in the order ``_stages`` and ``_step`` use, so a lane's stage
# arithmetic is the scalar one
_A_TERMS = (((_A21, 0),), ((_A31, 0), (_A32, 1)),
            ((_A41, 0), (_A42, 1), (_A43, 2)),
            ((_A51, 0), (_A52, 1), (_A53, 2), (_A54, 3)),
            ((_A61, 0), (_A62, 1), (_A63, 2), (_A64, 3), (_A65, 4)))
_C_NODES = (_C2, _C3, _C4, _C5)
_B_TERMS = ((_B1, 0), (_B3, 2), (_B4, 3), (_B5, 4), (_B6, 5))
_E_TERMS = ((_E1, 0), (_E3, 2), (_E4, 3), (_E5, 4), (_E6, 5), (_E7, 6))
# 4th-order continuous extension (Hairer-Norsett-Wanner I, II.6 / dopri5)
_D_TERMS = ((-12715105075 / 11282082432, 0), (87487479700 / 32700410799, 2),
            (-10690763975 / 1880347072, 3), (701980252875 / 199316789632, 4),
            (-1453857185 / 822651844, 5), (69997945 / 29380423, 6))


def _stages(f, t, y, h, k1):
    """Stages k2..k6 and the 5th-order solution for one step of size h."""
    n = len(y)
    y2 = tuple(y[i] + h * _A21 * k1[i] for i in range(n))
    k2 = f(t + _C2 * h, y2)
    y3 = tuple(y[i] + h * (_A31 * k1[i] + _A32 * k2[i]) for i in range(n))
    k3 = f(t + _C3 * h, y3)
    y4 = tuple(y[i] + h * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i])
               for i in range(n))
    k4 = f(t + _C4 * h, y4)
    y5 = tuple(y[i] + h * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i]
                           + _A54 * k4[i]) for i in range(n))
    k5 = f(t + _C5 * h, y5)
    y6 = tuple(y[i] + h * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i]
                           + _A64 * k4[i] + _A65 * k5[i]) for i in range(n))
    k6 = f(t + h, y6)
    ynew = tuple(y[i] + h * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i]
                             + _B5 * k5[i] + _B6 * k6[i]) for i in range(n))
    return k2, k3, k4, k5, k6, ynew


def _step(f, t, y, h, k1):
    """One embedded step: returns (ynew, k7, per-component error estimate)."""
    n = len(y)
    _, k3, k4, k5, k6, ynew = _stages(f, t, y, h, k1)
    k7 = f(t + h, ynew)
    err = tuple(h * (_E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i]
                     + _E6 * k6[i] + _E7 * k7[i]) for i in range(n))
    return ynew, k7, err


def _advance(f, t, y, h, k1):
    """Fifth-order solution only, for event localization probes."""
    return _stages(f, t, y, h, k1)[-1]


@dataclass
class Event:
    """Sign-change event on a scalar function of the state.

    ``direction``: -1 fires on + -> -, +1 on - -> +, 0 on any flip.  An
    event starting at g = 0 stays disarmed until g moves off zero, so a
    restart exactly on the crossing does not re-fire immediately.

    ``ends`` says what the trajectory does once the event fires: True ends
    it at the event, False steps exactly onto it and restarts there with a
    fresh first step, and a callable (t, y) -> bool decides from the state
    at the event.  ``integrate_batch`` applies the rule per lane;
    ``integrate`` returns at every fired event and leaves it to its caller.
    For a batch, ``g`` and a callable ``ends`` take (lanes,) times and
    (components, lanes) states and return one value per lane.
    """

    g: Callable[[float, Tuple[float, ...]], float]
    direction: int = 0
    ends: Union[bool, Callable] = True

    def ends_at(self, t, y):
        """Whether the trajectory ends at this event, fired at (t, y)."""
        return self.ends(t, y) if callable(self.ends) else self.ends


@dataclass
class IntegrateResult:
    status: str                 # "event" or "end"
    t: float
    y: Tuple[float, ...]
    event_index: Optional[int]
    n_steps: int
    error_accum: Tuple[float, ...]  # summed |local error| per component


def integrate(
    f: Callable[[float, Tuple[float, ...]], Tuple[float, ...]],
    t0: float,
    y0: Tuple[float, ...],
    t_end: float,
    rtol: float,
    scale: Sequence[float],
    events: Sequence[Event] = (),
    record: Optional[Callable[[float, Tuple[float, ...]], None]] = None,
    max_steps: int = _MAX_STEPS,
    event_tol: float = 1e-12,
    first_step: Optional[float] = None,
) -> IntegrateResult:
    """Integrate y' = f(t, y) from t0 to t_end or the first fired event.

    ``scale`` gives per-component magnitudes; the error test uses
    tolerance rtol*(scale_i + |y_i|) per component.  ``record`` is called
    after every accepted step (and at the event point).  Raises
    NonintegrableStep on step-size underflow and NonConvergence when the
    step budget runs out.
    """
    if not t_end > t0:
        raise NonConvergence(f"empty integration span [{t0!r}, {t_end!r}]")
    n = len(y0)
    t, y = t0, tuple(float(v) for v in y0)
    k1 = f(t, y)

    # reference signs for event arming; 0 means not yet armed
    signs = [_sign(ev.g(t, y)) for ev in events]

    def tolv(a, b):
        return tuple(rtol * (scale[i] + max(abs(a[i]), abs(b[i])))
                     for i in range(n))

    if first_step is not None:
        h = float(first_step)
    else:
        d0 = max(abs(y[i]) / scale[i] for i in range(n))
        d1 = max(abs(k1[i]) / scale[i] for i in range(n))
        h = (_H0_SHARE * d0 / d1 if d1 > 0 and d0 > 0
             else (t_end - t0) * _H0_FALLBACK)
        h = max(h, _H0_FLOOR * (t_end - t0))
    h = min(h, t_end - t)

    err_prev = 1.0
    err_accum = [0.0] * n
    steps = 0
    while True:
        if steps >= max_steps:
            raise NonConvergence(
                f"integration exceeded {max_steps} steps at t={t!r}",
                best=(t, y))
        if h < _H_UNDERFLOW * max(1.0, abs(t)):
            raise NonintegrableStep(
                f"step size underflow: h={h!r} at t={t!r}")
        last = h >= t_end - t
        if last:
            h = t_end - t

        ynew, k7, le = _step(f, t, y, h, k1)
        steps += 1
        tv = tolv(y, ynew)
        err = math.sqrt(sum((le[i] / tv[i]) ** 2 for i in range(n)) / n)

        if not err <= 1.0:   # a NaN error is a rejection too, as in the batch
            h *= max(_MIN_FACTOR, _SAFETY * err ** _REJECT_EXP)
            continue

        # event scan over the accepted span
        hit_tau, hit_idx = None, None
        for idx, ev in enumerate(events):
            g1 = ev.g(t + h, ynew)
            s1 = _sign(g1)
            s0 = signs[idx]
            if s0 == 0:
                signs[idx] = s1
                continue
            fired = (s1 != s0 and s1 != 0) or (s1 == 0)
            if fired and ev.direction != 0 and s0 != -ev.direction:
                fired = False
            if not fired:
                continue
            tau = _locate(f, ev.g, t, y, k1, h, event_tol)
            if hit_tau is None or tau < hit_tau:
                hit_tau, hit_idx = tau, idx

        for i in range(n):
            err_accum[i] += abs(le[i])

        if hit_tau is not None:
            t_ev = t + hit_tau
            y_ev = _advance(f, t, y, hit_tau, k1) if hit_tau < h else ynew
            if record is not None:
                record(t_ev, y_ev)
            return IntegrateResult("event", t_ev, y_ev, hit_idx, steps,
                                   tuple(err_accum))

        t, y, k1 = t + h, ynew, k7
        for idx, ev in enumerate(events):
            s = _sign(ev.g(t, y))
            if s != 0:
                signs[idx] = s
        if record is not None:
            record(t, y)
        if last:
            return IntegrateResult("end", t, y, None, steps, tuple(err_accum))

        fac = _SAFETY * err ** -_ALPHA * err_prev ** _BETA if err > 0 else _MAX_FACTOR
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
        h = min(h, t_end - t)
        err_prev = max(err, _ERR_FLOOR)


def _sign(x: float) -> int:
    if x > 0.0:
        return 1
    if x < 0.0:
        return -1
    return 0


def _locate(f, g, t, y, k1, h, event_tol):
    """Offset tau in (0, h] where g crosses zero along the step."""

    def phi(tau):
        if tau == 0.0:
            return g(t, y)
        return g(t + tau, _advance(f, t, y, tau, k1))

    lo, hi = 0.0, h
    flo, fhi = phi(lo), phi(hi)
    if fhi == 0.0:
        return hi
    if flo == 0.0 or flo * fhi > 0.0:
        # the sign flip came from the arming logic (start at 0); bisect a
        # bracket by marching from the left endpoint
        probe = h * 1e-6
        while probe < h:
            fp = phi(probe)
            if fp != 0.0 and fp * fhi < 0.0:
                lo, flo = probe, fp
                break
            probe *= 8.0
        else:
            return hi
    tau = float(brentq(phi, lo, hi, xtol=max(event_tol, 1e-15), rtol=1e-15))
    # Bias the returned offset strictly past the crossing: brentq can stop a
    # hair on the near side, and a caller restarting there would re-detect
    # the same crossing forever.  phi(h) is on the far side, so this ends.
    snear = flo > 0.0
    step = max(event_tol, 4e-16 * abs(t), 1e-15 * h)
    while tau < h:
        ft = phi(tau)
        if ft == 0.0 or (ft > 0.0) != snear:
            break
        tau = min(h, tau + step)
        step *= 4.0
    return tau


# -- batched lockstep stepper ---------------------------------------------

#: Illinois iterations allowed per located event (about 5 are typical)
_MAX_ILLINOIS = 60
#: ``Event`` under the name batched callers import

#: ``Event`` under the name the ``integrate_batch`` tests use
BatchEvent = Event


@dataclass
class BatchResult:
    """Per-lane outcome of ``integrate_batch``, in input lane order."""

    event_index: np.ndarray    # event that ended each lane; -1 at t_end
    t: np.ndarray
    y: np.ndarray              # (components, lanes) state at the end or event
    n_steps: np.ndarray        # attempted steps over all restarts
    restarts: np.ndarray       # events passed through with a restart
    error_accum: np.ndarray    # (components, lanes) summed |local error|
    rec_t: np.ndarray          # every recorded sample of every lane ...
    rec_y: np.ndarray          # ... as (components, samples), unsorted
    rec_index: List[np.ndarray]  # per lane, its sample positions in order

    def samples(self, lane: int) -> Tuple[np.ndarray, np.ndarray]:
        """(t, y[components, k]) of one lane after every accepted step and
        at every located event, in order."""
        ix = self.rec_index[lane]
        return self.rec_t[ix], self.rec_y[:, ix]


def _first_steps(y, k1, scale, t, t_end):
    """``integrate``'s first-step heuristic, one step per lane."""
    d0 = np.max(np.abs(y) / scale, axis=0)
    d1 = np.max(np.abs(k1) / scale, axis=0)
    span = t_end - t
    good = (d1 > 0.0) & (d0 > 0.0)
    h = np.where(good, _H0_SHARE * d0 / np.where(good, d1, 1.0),
                 span * _H0_FALLBACK)
    return np.minimum(np.maximum(h, _H0_FLOOR * span), span)


def _weighted(terms, k):
    """Sum of w * k[j] over (w, j) terms, left to right."""
    (w, j), *rest = terms
    acc = w * k[j]
    for w, j in rest:
        acc = acc + w * k[j]
    return acc


def _stages_batch(f, t, y, h, k):
    """Fill stages k[1:6] of a step of size h (k[0] given); return the RK5 solution.

    ``k`` is a (7, components, lanes) buffer.  The arithmetic per lane is
    that of ``_stages``.
    """
    k[1] = f(t + _C2 * h, y + h * _A21 * k[0])
    for i in range(1, 4):
        k[i + 1] = f(t + _C_NODES[i] * h, y + h * _weighted(_A_TERMS[i], k))
    k[5] = f(t + h, y + h * _weighted(_A_TERMS[4], k))
    return y + h * _weighted(_B_TERMS, k)


def _rk5_to(f, t, y, k1, tau):
    """RK5 solution after one step of size tau per lane (event states)."""
    k = np.empty((7,) + y.shape)
    k[0] = k1
    return _stages_batch(f, t, y, tau, k)


def _illinois(g, t, dense, h, glo, ghi, tol):
    """Offsets in (0, h] just past a sign change of g along the dense output.

    ``dense(theta)`` is the dense-output state at t + theta h for every
    lane; ``glo`` and ``ghi`` are g at the step start and end, of opposite
    signs.  Returns the far end of each final bracket, so the offset lies
    on the far side of the crossing as the dense output sees it.
    """
    lo, hi = np.zeros_like(h), h.copy()
    side = np.zeros(h.shape, dtype=int)   # endpoint replaced last: -1 lo, +1 hi
    for _ in range(_MAX_ILLINOIS):
        live = hi - lo > tol
        if not live.any():
            break
        with np.errstate(invalid="ignore", divide="ignore"):
            x = hi - ghi * (hi - lo) / (ghi - glo)
        x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
        gx = np.asarray(g(t + x, dense(x / h)), dtype=float)
        zero = live & (gx == 0.0)
        far = live & ~zero & (np.sign(gx) == np.sign(ghi))
        near = live & ~zero & ~far
        # the endpoint kept twice in a row gets its value halved (Illinois)
        glo = np.where(near, gx, np.where(far & (side == 1), 0.5 * glo, glo))
        ghi = np.where(far, gx, np.where(near & (side == -1), 0.5 * ghi, ghi))
        lo = np.where(near | zero, x, lo)
        hi = np.where(far | zero, x, hi)
        side = np.where(far, 1, np.where(near, -1, side))
    return hi


def _locate_batch(f, events, fired, t, y, ynew, h, k, g1, signs, event_tol):
    """Earliest fired event per lane: (event index, offset, state at the event).

    Offsets come from the dense output; the state is one RK5 step of the
    located size.  Where the event function is still on the near side
    there, the offset moves forward (as ``_locate`` does) until it is past
    the crossing, so a restart at the event does not see it again.
    """
    n, m = y.shape
    hk = h * k
    r2 = ynew - y
    r3 = hk[0] - r2
    r4 = r2 - hk[6] - r3
    r5 = _weighted(_D_TERMS, hk)
    tol = np.maximum(event_tol, 1e-15 * h)

    which = np.full(m, -1)
    tau = h.copy()
    slope = np.zeros(m)   # |g| change per unit t over the step, for nudges
    for e, ev in enumerate(events):
        sub = np.nonzero(fired[e])[0]
        if sub.size == 0:
            continue
        ghi = g1[e, sub]
        glo = np.asarray(ev.g(t[sub], y[:, sub]), dtype=float)
        te = h[sub].copy()
        # a flip seen only through arming (start at g = 0) keeps the step end
        br = np.nonzero((ghi != 0.0) & (glo * ghi < 0.0))[0]
        if br.size:
            L = sub[br]
            c0, c2, c3, c4, c5 = (a[:, L] for a in (y, r2, r3, r4, r5))

            def dense(th):
                return c0 + th * (c2 + (1.0 - th) * (
                    c3 + th * (c4 + (1.0 - th) * c5)))

            te[br] = _illinois(ev.g, t[L], dense, h[L], glo[br], ghi[br], tol[L])
        better = (which[sub] < 0) | (te < tau[sub])
        lanes = sub[better]
        tau[lanes] = te[better]
        which[lanes] = e
        slope[lanes] = np.abs(ghi - glo)[better] / h[lanes]

    y_ev = ynew.copy()
    step = np.maximum(tol, 4e-16 * np.abs(t))
    inner = np.nonzero(tau < h)[0]
    while inner.size:
        y_ev[:, inner] = _rk5_to(f, t[inner], y[:, inner], k[0][:, inner],
                                 tau[inner])
        g_ev = np.zeros(inner.size)
        for e, ev in enumerate(events):
            sel = np.nonzero(which[inner] == e)[0]
            if sel.size:
                lanes = inner[sel]
                g_ev[sel] = ev.g(t[lanes] + tau[lanes], y_ev[:, lanes])
        near = (g_ev != 0.0) & (np.sign(g_ev) == signs[which[inner], inner])
        inner, g_ev = inner[near], g_ev[near]
        # jump twice the linearized distance to the crossing, at least ``step``
        with np.errstate(divide="ignore", invalid="ignore"):
            jump = np.where(slope[inner] > 0.0,
                            2.0 * np.abs(g_ev) / slope[inner], 0.0)
        tau[inner] = np.minimum(h[inner],
                                tau[inner] + np.maximum(step[inner], jump))
        step[inner] *= 4.0
        full = inner[tau[inner] >= h[inner]]
        y_ev[:, full] = ynew[:, full]
        inner = inner[tau[inner] < h[inner]]
    return which, tau, y_ev


#: initial sample capacity per lane; pages are only touched as samples
#: arrive, and starting large avoids regrowth copies (the radial shots of
#: a 200-height scan take 60-600 steps)
_SAMPLES_PER_LANE = 512


class _Samples:
    """Samples of all lanes in recording order, in buffers grown in place.

    ``ndarray.resize`` reallocates without a second copy of the samples, so
    recording a batch holds each sample once.
    """

    def __init__(self, n: int, capacity: int):
        self.lane = np.empty(capacity, dtype=np.int32)
        self.t = np.empty(capacity)
        self.y = np.empty((capacity, n))   # one row per sample
        self.size = 0

    def add(self, lane: np.ndarray, t: np.ndarray, y: np.ndarray) -> None:
        end = self.size + len(lane)
        if end > len(self.t):
            cap = max(len(self.t) + len(self.t) // 2, end)
            self.lane.resize(cap, refcheck=False)
            self.t.resize(cap, refcheck=False)
            self.y.resize((cap, self.y.shape[1]), refcheck=False)
        self.lane[self.size:end] = lane
        self.t[self.size:end] = t
        self.y[self.size:end] = y.T
        self.size = end

    def trim(self) -> None:
        self.lane.resize(self.size, refcheck=False)
        self.t.resize(self.size, refcheck=False)
        self.y.resize((self.size, self.y.shape[1]), refcheck=False)


def _event_values(events, t, y, m):
    """(events, lanes) array of every event function at (t, y)."""
    return np.array([ev.g(t, y) for ev in events], dtype=float).reshape(-1, m)


def integrate_batch(
    f: Callable[[np.ndarray, np.ndarray], Sequence[np.ndarray]],
    t0: np.ndarray,
    y0: np.ndarray,
    t_end: float,
    rtol: float,
    scale: np.ndarray,
    events: Sequence[Event] = (),
    max_restarts: int = 10_000,
    event_tol: float = 1e-12,
) -> BatchResult:
    """Integrate y' = f(t, y) for every lane until t_end or an ending event.

    ``y0`` is a (components, lanes) array, ``scale`` broadcasts to it, and
    ``t0`` holds one start per lane.  ``f`` and each event's ``g`` take a
    (lanes,) time and a (components, lanes) state of the lanes still
    running.  Each lane follows ``integrate``'s step control on its own:
    error test, PI controller, step budget per (re)start,
    and the same event sign and arming rules.  Finished lanes leave the
    working set; a lane whose fired events all end it unconditionally is
    finished at once and its event is located with the others after the
    loop.  Raises NonintegrableStep on step-size underflow in any lane and
    NonConvergence when a lane runs out of steps or restarts.
    """
    t = np.array(t0, dtype=float).ravel()
    y = np.array(y0, dtype=float).reshape(-1, t.size)
    n, m = y.shape
    scale = np.array(np.broadcast_to(np.asarray(scale, dtype=float), (n, m)))
    if not np.all(t_end > t):
        raise NonConvergence(f"empty integration span ending at {t_end!r}")
    final = np.array([ev.ends is True for ev in events], dtype=bool).reshape(-1, 1)
    armed_dir = np.array([ev.direction for ev in events], dtype=float).reshape(-1, 1)

    res = BatchResult(np.full(m, -1), np.empty(m), np.empty((n, m)),
                      np.zeros(m, dtype=int), np.zeros(m, dtype=int),
                      np.zeros((n, m)), np.empty(0), np.empty((n, 0)), [])
    recs = _Samples(n, _SAMPLES_PER_LANE * m)
    later = []   # steps whose events are located after the loop

    lane = np.arange(m, dtype=np.int32)
    k = np.empty((7, n, m))
    k[0] = f(t, y)
    h = _first_steps(y, k[0], scale, t, t_end)
    err_prev = np.ones(m)
    steps = np.zeros(m, dtype=int)       # since the lane's last (re)start
    total = np.zeros(m, dtype=int)
    restarts = np.zeros(m, dtype=int)
    acc = np.zeros((n, m))
    signs = np.sign(_event_values(events, t, y, m))

    while lane.size:
        if steps.max() >= _MAX_STEPS:
            i = int(np.argmax(steps))
            raise NonConvergence(
                f"integration exceeded {_MAX_STEPS} steps at t={t[i]!r}",
                best=(float(t[i]), tuple(y[:, i])))
        tiny = h < _H_UNDERFLOW * np.maximum(1.0, np.abs(t))
        if tiny.any():
            i = int(np.argmax(tiny))
            raise NonintegrableStep(
                f"step size underflow: h={h[i]!r} at t={t[i]!r}")
        last = h >= t_end - t
        h = np.where(last, t_end - t, h)

        ynew = _stages_batch(f, t, y, h, k)
        k[6] = f(t + h, ynew)
        le = h * _weighted(_E_TERMS, k)
        steps += 1
        total += 1
        tv = rtol * (scale + np.maximum(np.abs(y), np.abs(ynew)))
        err = np.sqrt(np.sum((le / tv) ** 2, axis=0) / n)
        ok = err <= 1.0
        if not ok.all():
            rej = ~ok
            # fmax, like the scalar max(), shrinks a NaN-error step by the floor
            h[rej] *= np.fmax(_MIN_FACTOR, _SAFETY * err[rej] ** _REJECT_EXP)
            if not ok.any():
                continue
        acc += np.where(ok, np.abs(le), 0.0)

        # event scan over the accepted spans
        tn = t + h
        g1 = _event_values(events, tn, ynew, lane.size)
        s1 = np.sign(g1)
        fired = (ok & (signs != 0.0) & (s1 != signs)
                 & ((armed_dir == 0.0) | (signs == -armed_dir)))
        hit = fired.any(axis=0)
        defer = hit & ~(fired & ~final).any(axis=0)
        now = np.nonzero(hit & ~defer)[0]
        done = (ok & last & ~hit) | defer
        restart = np.zeros(lane.size, dtype=bool)
        t_acc, y_acc = tn, ynew
        if now.size:
            which, tau, y_ev = _locate_batch(
                f, events, fired[:, now], t[now], y[:, now], ynew[:, now],
                h[now], k[:, :, now], g1[:, now], signs[:, now], event_tol)
            t_acc, y_acc = tn.copy(), ynew.copy()
            t_acc[now] = t[now] + tau
            y_acc[:, now] = y_ev
            ends = np.zeros(now.size, dtype=bool)
            for e, ev in enumerate(events):
                sel = np.nonzero(which == e)[0]
                if sel.size:
                    ends[sel] = ev.ends_at(t_acc[now[sel]], y_ev[:, sel])
            done[now[ends]] = True
            restart[now[~ends]] = True
            res.event_index[lane[now[ends]]] = which[ends]
        if defer.any():
            d = np.nonzero(defer)[0]
            later.append((lane[d], t[d], y[:, d], ynew[:, d], h[d], k[:, :, d],
                          g1[:, d], fired[:, d], signs[:, d]))
        rec = ok & ~defer
        recs.add(lane[rec], t_acc[rec], y_acc[:, rec])

        # accepted lanes without an event move on under the PI controller
        move = ok & ~done & ~restart
        if move.any():
            e_ok = np.where(err > 0.0, err, 1.0)
            fac = np.where(err > 0.0,
                           _SAFETY * e_ok ** -_ALPHA * err_prev ** _BETA,
                           _MAX_FACTOR)
            t = np.where(move, tn, t)
            y = np.where(move, ynew, y)
            k[0] = np.where(move, k[6], k[0])
            signs = np.where(move & (s1 != 0.0), s1, signs)
            h = np.where(move, np.minimum(
                h * np.minimum(_MAX_FACTOR, np.maximum(_MIN_FACTOR, fac)),
                t_end - t), h)
            err_prev = np.where(move, np.maximum(err, _ERR_FLOOR), err_prev)
        if restart.any():
            r = np.nonzero(restart)[0]
            restarts[r] += 1
            if restarts.max() > max_restarts:
                raise NonConvergence(
                    f"more than {max_restarts} restarts at events")
            if not np.all(t_end > t_acc[r]):
                raise NonConvergence(
                    f"empty integration span ending at {t_end!r}")
            t[r] = t_acc[r]
            y[:, r] = y_acc[:, r]
            k[0][:, r] = f(t[r], y[:, r])
            h[r] = _first_steps(y[:, r], k[0][:, r], scale[:, r], t[r], t_end)
            err_prev[r] = 1.0
            steps[r] = 0
            signs[:, r] = np.sign(_event_values(events, t[r], y[:, r], r.size))

        if done.any():
            fin = lane[done]
            res.t[fin] = t_acc[done]
            res.y[:, fin] = y_acc[:, done]
            res.n_steps[fin] = total[done]
            res.restarts[fin] = restarts[done]
            res.error_accum[:, fin] = acc[:, done]
            keep = ~done
            lane, t, y, h = lane[keep], t[keep], y[:, keep], h[keep]
            k = k[:, :, keep]
            scale, acc, signs = scale[:, keep], acc[:, keep], signs[:, keep]
            err_prev, steps = err_prev[keep], steps[keep]
            total, restarts = total[keep], restarts[keep]

    if later:
        ids, tl, yl, ynl, hl, kl, gl, fl, sl = (
            np.concatenate(part, axis=-1) for part in zip(*later))
        which, tau, y_ev = _locate_batch(f, events, fl, tl, yl, ynl, hl, kl,
                                         gl, sl, event_tol)
        res.event_index[ids] = which
        res.t[ids] = tl + tau
        res.y[:, ids] = y_ev
        recs.add(ids, tl + tau, y_ev)

    recs.trim()
    res.rec_t, res.rec_y = recs.t, recs.y.T
    cuts = np.cumsum(np.bincount(recs.lane, minlength=m))[:-1]
    res.rec_index = np.split(np.argsort(recs.lane, kind="stable"), cuts)
    return res
