"""Embedded Dormand-Prince 5(4) stepper on a batch of lanes.

The radial shooting problems are 2- or 3-component systems whose
right-hand sides are a handful of float operations.  ``integrate_batch``
advances many independent trajectories (lanes) of the same system in
lockstep on ``(components, lanes)`` arrays, so the per-step interpreter
overhead is paid once per lockstep iteration rather than once per lane.
Each lane keeps its own step size and controller state.  One trajectory
is a batch of one lane: it takes the same steps as it would in any
batch, at about 8 times the cost of a loop over plain floats, which the
package does not keep (a command that shoots one height spends most of
its wall time starting up).

Events are watched by sign change between accepted steps, carrying each
step's end values into the next step as its start values.  A lane
brackets the events fired over one step together and follows the
earliest crossing, with one rule, ``_Illinois`` (the Illinois modified
regula falsi; Dowell & Jarratt 1971; Shampine & Thompson 2000, "Event
location for ordinary differential equations").  It brackets the crossing
offset on exact RK5 steps of the trial size from the step start, which
reuse the step's first stage, and returns the far end of its final
bracket: the offset is past the crossing as the trajectory sees it, and
the state there is the one the last far-side probe computed.  A fired
event whose g does not change sign strictly across the step (g = 0 at an
end, as when the flip is seen only through arming) keeps the step end.

Where the probes run is what keeps them cheap in a batch.  A lane whose
step fires an event stays at the step start, and its next lockstep steps
are the probes, computed alongside the other lanes' ordinary steps; the
far end's FSAL stage and event values then start any restart.  The same
exact probes taken as separate re-steps after each iteration raised event
location on a 200-height Pucci scan from about 0.14 s to 0.22-0.36 s;
taken as lockstep steps, they brought that whole batch (Lambda = 2,
N = 2, tol 1e-10) from 0.24-0.25 s with the dense probe to 0.15-0.17 s
(2-core VM).  Lanes whose fired events all end them are set aside and
probe together once the others are done, so they never keep the others
off the no-event and all-lanes-move fast paths.

Each lane applies one end-or-restart rule at a fired event: the event's
``ends`` either ends the trajectory there or steps exactly onto it and
restarts with a fresh first step, up to ``max_restarts`` times (see
``Event``).

What a lockstep iteration costs is the number of numpy calls, not the
arithmetic, so the batch keeps that number small without changing a bit
of any lane:

* the whole batch runs under one numpy error state (invalid operations
  and division by zero ignored), entered once rather than per right-hand
  side, and the caller's state comes back on return or raise;
* each stage sum ``y + h * sum(a_j k_j)`` is accumulated in place, term by
  term in the order the tableau lists them, and then scaled and shifted
  in place; IEEE products and sums commute, so this gives the bits of the
  out-of-place expression (a ``tensordot`` or fused sum would not).

``brentq`` is the bracketed root finder behind the zero and crossing
polishers elsewhere in the package: Brent's method (Brent 1973,
*Algorithms for Minimization without Derivatives*, ch. 4) in the step
order of scipy's ``brentq.c``, so located roots and probe counts match
that implementation exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

from .errors import NonConvergence, NonintegrableStep

# Dormand-Prince tableau: the nodes c2..c5, a21, and the weights of stages
# 3-6, of the RK5 solution and of the fifth-minus-fourth order error as
# (weight, stage index) terms, summed left to right
_C_NODES = (1 / 5, 3 / 10, 4 / 5, 8 / 9)
_A21 = 1 / 5
_A_TERMS = (((3 / 40, 0), (9 / 40, 1)),
            ((44 / 45, 0), (-56 / 15, 1), (32 / 9, 2)),
            ((19372 / 6561, 0), (-25360 / 2187, 1), (64448 / 6561, 2),
             (-212 / 729, 3)),
            ((9017 / 3168, 0), (-355 / 33, 1), (46732 / 5247, 2), (49 / 176, 3),
             (-5103 / 18656, 4)))
_B_TERMS = ((35 / 384, 0), (500 / 1113, 2), (125 / 192, 3), (-2187 / 6784, 4),
            (11 / 84, 5))
_E_TERMS = ((71 / 57600, 0), (-71 / 16695, 2), (71 / 1920, 3),
            (-17253 / 339200, 4), (22 / 525, 5), (-1 / 40, 6))

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
_MAX_STEPS = 500_000  # attempted steps per lane and (re)start


@dataclass
class Event:
    """Sign-change event on a scalar function of the state.

    ``direction``: -1 fires on + -> -, +1 on - -> +, 0 on any flip.  An
    event starting at g = 0 stays disarmed until g moves off zero, so a
    restart exactly on the crossing does not re-fire immediately.

    ``ends`` says what the trajectory does once the event fires: True ends
    it at the event, False steps exactly onto it and restarts there with a
    fresh first step and step budget, and a callable (t, y) -> bool decides
    from the state at the event.  ``integrate_batch`` applies this rule
    per lane and raises NonConvergence after ``max_restarts`` restarts.
    ``g`` and a callable ``ends`` take (lanes,) times and (components,
    lanes) states and return one value per lane.
    """

    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    direction: int = 0
    ends: Union[bool, Callable] = True

    def ends_at(self, t, y):
        """Whether the trajectory ends at this event, fired at (t, y)."""
        return self.ends(t, y) if callable(self.ends) else self.ends


def _restarts_exhausted(max_restarts: int) -> NonConvergence:
    return NonConvergence(f"more than {max_restarts} restarts at events")


#: Illinois iterations allowed per located event (about 5 are typical)
_MAX_ILLINOIS = 60
#: share of the bracket width a probe moves inward from an end that the
#: secant rounds onto
_NUDGE = 2.0 ** -40


class _Illinois:
    """Illinois modified regula falsi (Dowell & Jarratt 1971) on the
    earliest crossing among the events fired over one step of size h.

    The bracket [lo, hi] of offsets from the step start begins as [0, h].
    Every candidate event is on its start side at lo and the tracked one
    (``event``) is past its crossing at hi, so the earliest crossing lies
    in (lo, hi].  The caller probes the offset ``trial()`` with one exact
    RK5 step of that size from the step start, passes the event values and
    its own state there to ``update``, and stops at ``done``.  ``hi`` is
    then the located offset, on the far side of the crossing as the probes
    see it, and ``at_hi`` the caller's state there.  A probe that finds
    another candidate past its crossing while the tracked one is not moves
    the bracket onto that earlier crossing.

    The updates run on Python floats, whose arithmetic is the same IEEE
    arithmetic numpy's would be.
    """

    def __init__(self, h, g0, g1, fired, tol, at_h):
        """``g0`` and ``g1`` map each event index to its value at offsets 0
        and h, ``fired`` lists the fired events in index order, ``tol`` is
        the bracket width to reach and ``at_h`` the caller's state at h."""
        # a flip seen only through arming, or onto g = 0, keeps the step end
        self.cand = [e for e in fired if g1[e] != 0.0 and g0[e] * g1[e] < 0.0]
        self.event = (self.cand or fired)[0]
        self.far = {e: math.copysign(1.0, g1[e]) for e in self.cand}
        self.lo, self.hi, self.tol = 0.0, h, tol
        self.g_lo = g0   # every event's value at lo
        self.glo, self.ghi = g0[self.event], g1[self.event]
        self.side = 0    # endpoint replaced last: -1 lo, +1 hi
        self.at_hi = at_h
        self.probes = 0

    @property
    def done(self) -> bool:
        return (not self.cand or self.hi - self.lo <= self.tol
                or self.probes >= _MAX_ILLINOIS)

    def trial(self) -> float:
        a, b, ga, gb = self.lo, self.hi, self.glo, self.ghi
        # a zero denominator gives inf or nan in numpy, hence the midpoint
        x = b - gb * (b - a) / (gb - ga) if gb != ga else math.nan
        if a < x < b:
            return x
        # a secant that rounds onto an end puts the crossing within rounding
        # of it: a probe just inside that end closes the bracket, where the
        # midpoint would start a bisection of log2(width / tol) probes
        if x <= a:
            return a + max((b - a) * _NUDGE, 2.0 * math.ulp(a))
        if x >= b:
            return b - max((b - a) * _NUDGE, 2.0 * math.ulp(b))
        return 0.5 * (a + b)

    def update(self, x, gx, at_x) -> None:
        """Take the probe at offset x: ``gx`` maps each candidate event to
        its value there, ``at_x`` is the caller's state there."""
        self.probes += 1
        past = [e for e in self.cand if gx[e] == 0.0 or gx[e] * self.far[e] > 0.0]
        if not past:   # every candidate on its start side: x is the new lo
            if self.side == -1:   # the endpoint kept twice in a row is halved
                self.ghi *= 0.5
            self.lo, self.glo, self.g_lo, self.side = x, gx[self.event], gx, -1
            return
        if self.event not in past:   # an earlier crossing of another event
            self.event = past[0]
            self.glo = self.g_lo[self.event]
        elif self.side == 1:
            self.glo *= 0.5
        self.hi, self.ghi, self.side, self.at_hi = x, gx[self.event], 1, at_x
        if self.ghi == 0.0:   # on the root
            self.lo = x


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float,
           rtol: float, maxiter: int = 100) -> float:
    """Root of f in the sign-change bracket [a, b] by Brent's method.

    Stops when the bracket half-width falls below
    ``delta = (xtol + rtol*|x|)/2``; every step moves at least delta.
    Raises NonConvergence when f is nan or ``maxiter`` steps run out.
    """
    def probe(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NonConvergence(f"root finder met f = nan at x = {x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = probe(xpre), probe(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:   # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:              # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = probe(xcur)
    raise NonConvergence(
        f"root finder did not converge in {maxiter} steps near x = {xcur!r}")


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
    """The first step of each lane: a 1% change of its scaled state over
    its scaled slope, else a fixed share of its span, and never below a
    floor share of it or past its end."""
    d0 = np.max(np.abs(y) / scale, axis=0)
    d1 = np.max(np.abs(k1) / scale, axis=0)
    span = t_end - t
    good = (d1 > 0.0) & (d0 > 0.0)
    h = np.where(good, _H0_SHARE * d0 / np.where(good, d1, 1.0),
                 span * _H0_FALLBACK)
    return np.minimum(np.maximum(h, _H0_FLOOR * span), span)


def _weighted(terms, k):
    """Sum of w * k[j] over (w, j) terms, left to right, summed in place."""
    (w, j), *rest = terms
    acc = w * k[j]
    for w, j in rest:
        acc += w * k[j]
    return acc


def _shifted(y, h, terms, k):
    """y + h * (sum of w * k[j]), the sum left to right, all in place.

    a * h and a + y are h * a and y + a (IEEE multiplication and addition
    commute), so the bits are those of the out-of-place expression.
    """
    acc = _weighted(terms, k)
    acc *= h
    acc += y
    return acc


def _stages_batch(f, t, y, h, k):
    """Fill stages k[1:6] of a step of size h (k[0] given); return the RK5 solution.

    ``k`` is a (7, components, lanes) buffer.
    """
    # h * a21 first: ``_shifted`` would round (a21 k1) h, other bits
    k[1] = f(t + _C_NODES[0] * h, y + h * _A21 * k[0])
    for i in range(3):
        k[i + 2] = f(t + _C_NODES[i + 1] * h, _shifted(y, h, _A_TERMS[i], k))
    k[5] = f(t + h, _shifted(y, h, _A_TERMS[3], k))
    return _shifted(y, h, _B_TERMS, k)


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
    running; ``f`` returns one array per component.  Each lane has its
    own step control: the error test, with tolerance rtol*(scale_i +
    max|y_i|) per component over the step, a PI controller, a step budget
    per (re)start, and the event sign, arming and end-or-restart rules of
    ``Event``; the other lanes change none of its decisions.  A lane
    whose step fires an event stays at the step start and its next
    lockstep steps are the exact RK5 probes of the Illinois rule, which
    locates the event within ``event_tol`` on the far side of the
    crossing; probes are not attempted steps (not in ``n_steps``), add no
    local error and skip the step-size check.
    Finished lanes leave the working set; a lane whose fired events all end
    it unconditionally leaves it at once and probes with the other such
    lanes after the rest are done.  The whole batch
    runs under one numpy error state that ignores invalid operations and
    division by zero (``f`` and ``g`` need not guard lanes whose values are
    masked or rejected), and the caller's state is restored on return or
    raise.  Raises NonintegrableStep on step-size underflow in any lane and
    NonConvergence when a lane runs out of steps or restarts.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        return _lockstep(f, t0, y0, t_end, rtol, scale, events, max_restarts,
                         event_tol)


def _take(cols, at):
    """The lanes at positions ``at`` (the last axis) of every per-lane array
    in ``cols``; ``take`` on positions is the cheapest numpy copy of them."""
    return [c.take(at, axis=-1) for c in cols]


def _lockstep(f, t0, y0, t_end, rtol, scale, events, max_restarts, event_tol):
    """``integrate_batch`` inside its error state."""
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

    lane = np.arange(m, dtype=np.int32)
    k = np.empty((7, n, m))
    k[0] = f(t, y)
    h = _first_steps(y, k[0], scale, t, t_end)
    err_prev = np.ones(m)
    steps = np.zeros(m, dtype=int)       # since the lane's last (re)start
    total = np.zeros(m, dtype=int)
    restarts = np.zeros(m, dtype=int)
    acc = np.zeros((n, m))
    g0 = _event_values(events, t, y, m)  # event values at each lane's t
    signs = np.sign(g0)
    # a probing lane stays at its step start and its steps are the probes
    # of its bracket; lanes set aside all probe once the others are done
    probing = np.zeros(m, dtype=bool)
    brackets = {}   # lane id -> its _Illinois while it probes
    aside = []

    while lane.size or aside:
        if not lane.size:
            (lane, t, y, h, k, scale, acc, g0, signs, err_prev, steps, total,
             restarts, probing) = (np.concatenate(c, axis=-1) for c in zip(*aside))
            aside = []
        if steps.max() >= _MAX_STEPS:
            i = int(np.argmax(steps))
            raise NonConvergence(
                f"integration exceeded {_MAX_STEPS} steps at t={t[i]!r}",
                best=(float(t[i]), tuple(y[:, i])))
        tiny = h < _H_UNDERFLOW * np.maximum(1.0, np.abs(t))
        pp = np.flatnonzero(probing)
        if pp.size:
            probes = [brackets[i] for i in lane[pp].tolist()]
            xs = [br.trial() for br in probes]
            h[pp] = xs
            tiny[pp] = False
        if tiny.any():
            i = int(np.argmax(tiny))
            raise NonintegrableStep(
                f"step size underflow: h={h[i]!r} at t={t[i]!r}")
        span = t_end - t
        last = h >= span
        h = np.minimum(h, span)

        ynew = _stages_batch(f, t, y, h, k)
        tn = t + h
        k[6] = f(tn, ynew)
        le = _weighted(_E_TERMS, k)
        le *= h
        steps += 1
        total += 1
        tv = rtol * (scale + np.maximum(np.abs(y), np.abs(ynew)))
        err = np.sqrt(np.add.reduce((le / tv) ** 2, axis=0) / n)
        ok = err <= 1.0
        if pp.size:   # a probe is no attempted step and adds no error
            steps[pp] -= 1
            total[pp] -= 1
            ok[pp] = False
        n_ok = np.count_nonzero(ok)
        if n_ok < lane.size:
            rej = ~ok
            # fmax shrinks a NaN-error step by the floor
            h[rej] *= np.fmax(_MIN_FACTOR, _SAFETY * err[rej] ** _REJECT_EXP)
            if not n_ok and not pp.size:
                continue
            acc += np.where(ok, np.abs(le), 0.0)
        else:
            acc += np.abs(le)

        # event values over the accepted spans and at the probes; a bracket
        # keeps, per lane, the state, FSAL stage and event values at its hi
        g1 = _event_values(events, tn, ynew, lane.size)
        located = []   # (position, bracket) of every lane whose event is found
        if pp.size:
            gp = g1[:, pp].T.tolist()
            at = np.concatenate((ynew, k[6], g1))[:, pp]
            for j, (i, br) in enumerate(zip(pp.tolist(), probes)):
                br.update(xs[j], gp[j], at[:, j])
                if br.done:
                    located.append((i, br))
        s1 = np.sign(g1)
        fired = ok & (signs != 0.0) & (s1 != signs)
        if np.count_nonzero(fired):
            fired &= (armed_dir == 0.0) | (signs == -armed_dir)
        away = []      # positions of the lanes set aside
        if not np.count_nonzero(fired):
            done = ok & last
            if n_ok == lane.size:
                recs.add(lane, tn, ynew)
            else:
                recs.add(lane[ok], tn[ok], ynew[:, ok])
            move = ok & ~done
        else:
            hit = fired.any(axis=0)
            go = ok & ~hit
            done = go & last
            recs.add(lane[go], tn[go], ynew[:, go])
            move = go & ~done
            # each firing lane stays at its step start and brackets its
            # events; one whose fired events all end it is set aside
            ix = np.flatnonzero(hit)
            ending = (~(fired[:, ix] & ~final).any(axis=0)).tolist()
            gl0, gl1 = g0[:, ix].T.tolist(), g1[:, ix].T.tolist()
            fl = fired[:, ix].T.tolist()
            at = np.concatenate((ynew, k[6], g1))[:, ix]
            tol = np.maximum(event_tol, 1e-15 * h[ix]).tolist()
            for j, i in enumerate(ix.tolist()):
                br = _Illinois(float(h[i]), gl0[j], gl1[j],
                               [e for e, x in enumerate(fl[j]) if x], tol[j],
                               at[:, j])
                if br.done:
                    located.append((i, br))
                    continue
                brackets[int(lane[i])] = br
                probing[i] = True
                if ending[j]:
                    away.append(i)

        if located:
            # a located lane's step ends at the far end of its bracket
            li = np.array([i for i, _ in located])
            brs = [br for _, br in located]
            for j in lane[li].tolist():
                brackets.pop(j, None)
            probing[li] = False
            which = np.array([br.event for br in brs])
            at = np.array([br.at_hi for br in brs]).T
            tn[li] = t[li] + np.array([br.hi for br in brs])
            ynew[:, li] = at[:n]
            recs.add(lane[li], tn[li], ynew[:, li])
            ends = np.zeros(li.size, dtype=bool)
            for e, ev in enumerate(events):
                sel = np.flatnonzero(which == e)
                if sel.size:
                    ends[sel] = ev.ends_at(tn[li[sel]], at[:n, sel])
            done[li[ends]] = True
            res.event_index[lane[li[ends]]] = which[ends]
            if not ends.all():   # the rest restart from their event
                back = ~ends
                r = li[back]
                restarts[r] += 1
                if restarts.max() > max_restarts:
                    raise _restarts_exhausted(max_restarts)
                if not np.all(t_end > tn[r]):
                    raise NonConvergence(
                        f"empty integration span ending at {t_end!r}")
                t[r], y[:, r], k[0][:, r] = tn[r], ynew[:, r], at[n:2 * n, back]
                h[r] = _first_steps(y[:, r], k[0][:, r], scale[:, r], t[r], t_end)
                err_prev[r] = 1.0
                steps[r] = 0
                g0[:, r] = at[2 * n:, back]
                signs[:, r] = np.sign(g0[:, r])

        n_move = np.count_nonzero(move)
        if n_move:
            pos = err > 0.0
            fac = np.where(pos, _SAFETY * np.where(pos, err, 1.0) ** -_ALPHA
                           * err_prev ** _BETA, _MAX_FACTOR)
            h_next = np.minimum(
                h * np.minimum(_MAX_FACTOR, np.maximum(_MIN_FACTOR, fac)),
                t_end - tn)
            err_next = np.maximum(err, _ERR_FLOOR)
            s_next = np.where(s1 != 0.0, s1, signs)
            if n_move == lane.size:
                t, y, h, err_prev, g0, signs = tn, ynew, h_next, err_next, g1, s_next
                k[0] = k[6]
            else:
                for dst, src in ((t, tn), (y, ynew), (k[0], k[6]), (g0, g1),
                                 (signs, s_next), (h, h_next),
                                 (err_prev, err_next)):
                    np.copyto(dst, src, where=move)

        gone = done
        if away:
            gone = done.copy()
            gone[away] = True
        if gone.any():
            fin = lane[done]
            res.t[fin] = tn[done]
            res.y[:, fin] = ynew[:, done]
            res.n_steps[fin] = total[done]
            res.restarts[fin] = restarts[done]
            res.error_accum[:, fin] = acc[:, done]
            cols = (lane, t, y, h, k, scale, acc, g0, signs, err_prev, steps,
                    total, restarts, probing)
            if away:
                aside.append(_take(cols, away))
            (lane, t, y, h, k, scale, acc, g0, signs, err_prev, steps, total,
             restarts, probing) = _take(cols, np.flatnonzero(~gone))

    recs.trim()
    res.rec_t, res.rec_y = recs.t, recs.y.T
    cuts = np.cumsum(np.bincount(recs.lane, minlength=m))[:-1]
    res.rec_index = np.split(np.argsort(recs.lane, kind="stable"), cuts)
    return res
