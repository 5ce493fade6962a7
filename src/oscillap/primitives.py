"""Primitive calculus for oscillating nonlinearities.

Everything downstream consumes antiderivatives of f rather than f itself:

* ``F(s) = integral_0^s f(t) dt`` (``F_many``)
* ``F_Lambda(s) = integral f^+ - (1/Lambda^2) integral f^-
                = F(s) + (1 - 1/Lambda^2) F^-(s)`` (``F_Lambda_many``), with
  the weight Lambda an argument of each call and
  ``F^-(s) = integral_0^s max(-f, 0)`` the one stored sign part, so
  F_Lambda at Lambda = 1 is F itself
* the running extrema of F_Lambda over [0, s], F's at the default
  Lambda = 1, batched with F_Lambda itself in ``extrema_many``; the range
  ``Fbar(s) = F(s) - min over [0, s] of F`` is its value less its minimum

All of them describe f alone: the exponent e, the weight Lambda and the
primitive G come from the operator (``thresholds.Operator``).  The limits
of G(s)/s^e toward 0 or infinity need no primitive values: each kind
states the leading term of G there (``Nonlinearity.tail``), and
``Operator.limits`` reads them off it.

F comes from one of four backends, each answering the vectorized
``F_many(s)``; which one serves a nonlinearity depends on its kind:

* ``CustomTable``: the interpolant is piecewise linear, so F is piecewise
  quadratic and every primitive (including the negative part F^-) is
  computed exactly from prefix sums.  No quadrature error at all.
* ``ReciprocalOscillation``: naive quadrature misses infinitely many
  oscillations near 0.  Substituting u = 1/t turns the oscillatory piece into
  ``S_b(x) = integral_x^infinity u^(-b) sin u du`` with b = 1/r + 2 and
  x = 1/s, evaluated by a power series (x < 1), cached half-period panels
  (1 <= x < 13 pi), and repeated integration by parts (x >= 13 pi).
* ``PowerTimesOnePlusSin`` with integer r = n (1 <= n <= 12): repeated
  integration by parts gives F in closed form, with the sine series below
  s = n/2 where the closed form cancels.  Non-integer r takes the panel
  quadrature below.
* everything else: adaptive panel quadrature with a prefix checkpoint
  cache, so the millions of F evaluations issued during shooting extend an
  existing prefix instead of recomputing from 0.  Panels on a fixed
  lattice compare the 21-point Gauss-Kronrod sum with its embedded
  10-point Gauss sum and bisect on disagreement; F at a point does not
  depend on which points were asked for before it.

The N = 1 time map (``shoot_plap.time_map``) integrates through the same
Kronrod panel (``_kronrod``) and bisection (``_bisect``), with its own
acceptance rule.

F^- is zero for f >= 0, exact for a table, and otherwise one more panel
cache on max(-f, 0).

Running extrema of F are tracked at the sign changes of f (the only interior
points where F can turn around) plus the endpoints, which makes Fbar
exact up to the accuracy of F itself.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, QuadratureFailure
from .nonlinearity import (
    CustomTable,
    Nonlinearity,
    PowerTimesOnePlusSin,
    ReciprocalOscillation,
)

#: the 21-point Gauss-Kronrod rule on [-1, 1] and the weights of its
#: embedded 10-point Gauss rule, zero off the Gauss nodes (QUADPACK
#: ``qk21``; Piessens et al. 1983), from the nodes in [0, 1) down
_HALF = np.array([
    # node, Kronrod weight, Gauss weight
    (0.99565716302580808074, 0.011694638867371874278, 0.0),
    (0.97390652851717172008, 0.032558162307964727479, 0.066671344308688137594),
    (0.93015749135570822600, 0.054755896574351996031, 0.0),
    (0.86506336668898451073, 0.075039674810919952767, 0.14945134915058059315),
    (0.78081772658641689706, 0.093125454583697605535, 0.0),
    (0.67940956829902440623, 0.10938715880229764190, 0.21908636251598204400),
    (0.56275713466860468334, 0.12349197626206585108, 0.0),
    (0.43339539412924719080, 0.13470921731147332593, 0.26926671930999635509),
    (0.29439286270146019813, 0.14277593857706008080, 0.0),
    (0.14887433898163121088, 0.14773910490133849137, 0.29552422471475287017),
    (0.0, 0.14944555400291690566, 0.0)])
_XK = np.concatenate([-_HALF[:-1, 0], _HALF[::-1, 0]])
_WK, _WG = (np.concatenate([_HALF[:-1, k], _HALF[::-1, k]]) for k in (1, 2))
#: the ten nodes in [-1, 0) as offsets from -1, and the others from 1
_FROM_LO, _FROM_HI = 1.0 + _XK[:10], 1.0 - _XK[10:]

#: default relative quadrature tolerance
TOL_QUAD = 1e-10
#: checkpoint spacing; half a period of the catalog oscillations
PANEL_WIDTH = math.pi / 2.0
#: ``CachedPrefix`` serves F on this many lattice panels, [0, 6.6e6],
#: and refuses a farther point before it builds anything
MAX_LATTICE_PANELS = 2 ** 22
#: multiple of the rounding-level terms a Kronrod panel is accepted at;
#: for s^3 (1 + sin s) on [6e3, 1e4] the pure-rounding disagreements
#: reach about half of the terms at factor eps
_ROUNDING = 4.0 * np.finfo(float).eps
#: ``_bisect`` caps a panel after this many bisections, or when its row
#: has this many more panels left to bisect than it started with
MAX_BISECTIONS, MAX_ROW_PANELS = 40, 1024
#: panels per integrand call: 21 x 10 inner nodes of 8 bytes in a few
#: arrays keep the working arrays of a slice under about 2 MB
_SLICE = 512


def _row_sums(fv: np.ndarray, w: np.ndarray) -> np.ndarray:
    """fv @ w with row bits independent of the row count, unlike BLAS's."""
    return np.einsum("ij,j->i", fv, w)


def _kronrod_nodes(fvec, lo: np.ndarray, hi: np.ndarray):
    """fvec at the Kronrod nodes of each panel [lo, hi], one row per
    panel, with the half-widths and midpoints.  Nodes are placed from the
    nearer end: from the rounded midpoint the whole panel shifts, and the
    prefix of sin s drifts ten times further (2e-9 by s = 1e6)."""
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    nodes = np.concatenate([lo[:, None] + half[:, None] * _FROM_LO,
                            hi[:, None] - half[:, None] * _FROM_HI], axis=1)
    return fvec(nodes), half, mid


def _kronrod(fv: np.ndarray, half: np.ndarray, noise: np.ndarray):
    """(Kronrod sum, |Kronrod - Gauss|, rounding level) of panels of
    half-width ``half`` from the integrand at their Kronrod nodes, one row
    per panel.

    The rounding level is _ROUNDING times the weighted sum of |fv| plus
    ``noise``, the integrand's own rounding in units of eps (per panel).
    Bisecting cannot shrink a disagreement at that level, so each caller
    accepts a panel there or at its own tolerance."""
    k, g = half * _row_sums(fv, _WK), half * _row_sums(fv, _WG)
    rounding = _ROUNDING * (np.abs(half) * _row_sums(np.abs(fv), _WK) + noise)
    return k, np.abs(k - g), rounding


class _Panels(NamedTuple):
    """Accepted panels of ``_bisect``: their fields, Kronrod sums, gaps
    and kept values, whether each was accepted only at a limit, and the
    bisections behind each."""

    fields: dict
    value: np.ndarray
    err: np.ndarray
    kept: np.ndarray
    capped: np.ndarray
    depth: np.ndarray


def _bisect(evaluate, split, fields: dict, depth: np.ndarray) -> _Panels:
    """Evaluate panels and bisect the rejected ones until none is left.

    ``fields`` holds one array per panel field ("row" among them) and
    ``depth`` the bisections behind each panel so far.  ``evaluate`` maps
    a slice of the fields to (Kronrod sum, gap, accepted, a value kept per
    panel), and ``split`` maps the rejected panels' fields and kept values
    to the fields of their two halves that change, all first halves
    before all second halves; the others are copied.  A panel is accepted
    as it is, and counted as capped, once bisected MAX_BISECTIONS times
    here, when its gap is not finite, or when its row has more panels to
    bisect than MAX_ROW_PANELS plus those it started with.
    """
    out = []
    budget = np.bincount(fields["row"]) + MAX_ROW_PANELS
    bisections = 0   # behind every panel left, in this call
    while depth.size:
        parts = [evaluate({k: v[i:i + _SLICE] for k, v in fields.items()})
                 for i in range(0, depth.size, _SLICE)]
        value, err, ok, kept = (parts[0] if len(parts) == 1 else
                                (np.concatenate(x) for x in zip(*parts)))
        capped = ~ok & ((bisections >= MAX_BISECTIONS) | ~np.isfinite(err))
        pending = ~ok & ~capped
        if np.count_nonzero(pending) > MAX_ROW_PANELS:   # else no row is crowded
            row = fields["row"]
            capped |= pending & (np.bincount(row[pending], minlength=budget.size)
                                 > budget)[row]
        done = ok | capped
        out.append(({k: v[done] for k, v in fields.items()},
                    value[done], err[done], kept[done], capped[done], depth[done]))
        more = ~done
        rejected = {k: v[more] for k, v in fields.items()}
        halves = split(rejected, kept[more])
        fields = {k: halves[k] if k in halves else np.concatenate([v, v])
                  for k, v in rejected.items()}
        depth = np.concatenate([depth[more] + 1] * 2)
        bisections += 1
    return _Panels({k: np.concatenate([f[k] for f, *_ in out]) for k in fields},
                   *(np.concatenate([x[i] for x in out]) for i in range(1, 6)))


def _halve(f: dict, _kept) -> dict:
    """The two halves of the panels [lo, hi], as ``_bisect`` splits them."""
    mid = 0.5 * (f["lo"] + f["hi"])
    return {"lo": np.concatenate([f["lo"], mid]),
            "hi": np.concatenate([mid, f["hi"]])}


class CachedPrefix:
    """Prefix antiderivative cache on Kronrod panels.

    Panels sit on the lattice k * PANEL_WIDTH, split at the kinks of the
    integrand, and are bisected (``_bisect``, one row each) until their
    Kronrod and Gauss sums agree to ``tol`` (relative above 1, absolute
    below) or to rounding; a capped panel raises QuadratureFailure.  Each
    leaf ends in a checkpoint t_k with prefix value I_k ~ integral_0^{t_k}
    f, summed left to right.  A query at s adds one Kronrod panel over the
    remainder, which lies inside one leaf.  Checkpoints depend only on the
    integrand and each panel sum only on its own row, so F at a point has
    the same bits whatever was asked before it and whatever shares its call.

    An extension publishes the checkpoints and prefix values together as
    one tuple, and each query reads the snapshot it was handed.  Two
    extensions that overlap build the same checkpoints, so the later one to
    publish may at worst shrink the cache; it never hands a reader a
    snapshot that ends short of the reader's point.
    """

    def __init__(self, fvec, tol=TOL_QUAD, kinks=None):
        self._fvec = fvec
        self.tol = float(tol)
        self._kinks = kinks if kinks is not None else (lambda a, b: [])
        self._state = (np.array([0.0]), np.array([0.0]))  # (t, I)

    def _panels(self, f: dict):
        """``_bisect``'s evaluation of the panels [lo, hi].  Besides f's
        own rounding, each node sits within eps |mid| of its exact place,
        which moves f by up to eps |mid| times its variation."""
        fv, half, mid = _kronrod_nodes(self._fvec, f["lo"], f["hi"])
        k, err, rounding = _kronrod(
            fv, half, np.abs(mid) * np.abs(np.diff(fv, axis=1)).sum(axis=1))
        ok = (err <= self.tol * np.maximum(1.0, np.abs(k))) | (err <= rounding)
        return k, err, ok, k

    def _extend(self, target: float) -> tuple:
        """Checkpoints reaching at least ``target``; returns the (t, I)
        snapshot it built, which reaches ``target`` whatever another
        extension publishes meanwhile."""
        state = t_old, I_old = self._state
        a = float(t_old[-1])  # a lattice point
        if target <= a:
            return state
        if not target < MAX_LATTICE_PANELS * PANEL_WIDTH:
            raise QuadratureFailure(f"F at {target!r} is past the prefix cache's "
                                    f"{MAX_LATTICE_PANELS} quadrature panels")
        k = math.floor(target / PANEL_WIDTH) + 1  # k * PANEL_WIDTH > target
        edges = np.arange(round(a / PANEL_WIDTH), k + 1) * PANEL_WIDTH
        ks = [x for x in self._kinks(a, edges[-1]) if a < x < edges[-1]]
        if ks:
            edges = np.unique(np.concatenate([edges, np.asarray(ks, dtype=float)]))
        ends, vals = [], [I_old[-1:]]
        chunk = 32768
        for lo in range(0, len(edges) - 1, chunk):
            e = edges[lo:lo + chunk + 1]
            n = e.size - 1
            p = _bisect(self._panels, _halve,
                        {"row": np.arange(n), "lo": e[:-1], "hi": e[1:]},
                        np.zeros(n, dtype=int))
            if p.capped.any():
                x0, x1 = p.fields["lo"][p.capped][0], p.fields["hi"][p.capped][0]
                raise QuadratureFailure(f"panel [{x0:.17g}, {x1:.17g}] is unresolved")
            order = np.argsort(p.fields["hi"])
            ends.append(p.fields["hi"][order])
            vals.append(p.value[order])
        state = (np.concatenate([t_old, *ends]),
                 np.concatenate([I_old, np.cumsum(np.concatenate(vals))[1:]]))
        self._state = state
        return state

    # -- queries ----------------------------------------------------------

    def F_many(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if s.size == 0:
            return np.zeros_like(s)
        if s.min() < 0.0:
            raise DomainError("prefix integral asked at negative s")
        smax = float(s.max())
        t, I = self._state
        if smax > t[-1]:
            t, I = self._extend(smax)
        idx = np.searchsorted(t, s, side="right") - 1
        a = t[idx]
        out = I[idx].copy()
        live = s > a
        if np.any(live):
            fv, half, _ = _kronrod_nodes(self._fvec, a[live], s[live])
            out[live] += half * _row_sums(fv, _WK)
        return out


class _ExactTablePrefix:
    """Exact primitive of a piecewise-linear interpolant and of its
    negative part.

    The node list is refined with every interior crossing root so that each
    segment carries a single sign; prefix sums then make F and F- exact.
    Beyond the last node the integrand is clamped constant.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        rx = [float(xs[0])]
        ry = [float(ys[0])]
        for i in range(len(xs) - 1):
            y0, y1 = float(ys[i]), float(ys[i + 1])
            if y0 * y1 < 0.0:
                root = float(xs[i]) + (float(xs[i + 1]) - float(xs[i])) * y0 / (y0 - y1)
                rx.append(root)
                ry.append(0.0)
            rx.append(float(xs[i + 1]))
            ry.append(y1)
        self.rx = np.array(rx)
        self.ry = np.array(ry)
        h = np.diff(self.rx)
        seg = 0.5 * (self.ry[:-1] + self.ry[1:]) * h
        self.negative = self.ry[:-1] + self.ry[1:] < 0.0
        self.P = np.concatenate([[0.0], np.cumsum(seg)])
        self.Pm = np.concatenate([[0.0], np.cumsum(np.where(self.negative, -seg, 0.0))])
        with np.errstate(divide="ignore", invalid="ignore"):
            self.slope = np.where(h > 0, np.diff(self.ry) / h, 0.0)
        self.y_end = float(self.ry[-1])

    def _locate(self, s: np.ndarray):
        idx = np.clip(np.searchsorted(self.rx, s, side="right") - 1, 0, len(self.rx) - 2)
        t = s - self.rx[idx]
        return idx, t

    def _eval(self, s: np.ndarray, minus: bool) -> np.ndarray:
        """F at s, or F- when ``minus``."""
        s = np.asarray(s, dtype=float)
        inside = s < self.rx[-1]
        idx, t = self._locate(np.where(inside, s, self.rx[-1]))
        part = self.ry[idx] * t + 0.5 * self.slope[idx] * t * t
        tail = np.maximum(s - self.rx[-1], 0.0)
        if not minus:
            return self.P[idx] + part + self.y_end * tail
        out = self.Pm[idx] + np.where(self.negative[idx], -part, 0.0)
        return out + max(-self.y_end, 0.0) * tail

    def F_many(self, s):
        return self._eval(s, False)

    def Fminus_many(self, s):
        return self._eval(s, True)


class _ReciprocalPrimitive:
    """Analytic primitive of f(s) = s^a (1 + sin(1/s)) with a = 1/r > 0.

    F(s) = s^(a+1)/(a+1) + S_b(1/s) with b = a + 2 and
    S_b(x) = integral_x^infinity u^(-b) sin u du.  S_b is evaluated by

    * power series on x < 1 (anchored at S_b(1)),
    * one Kronrod panel [x, k pi] plus cached values S_b(k pi) on 1 <= x < 13 pi,
    * repeated integration by parts for x >= 13 pi (asymptotic, term-decreasing).
    """

    _KMAX = 13

    def __init__(self, a: float):
        self.a = float(a)
        self.b = self.a + 2.0
        self._edge = math.pi * np.arange(1, self._KMAX + 1)
        vals = np.empty(self._KMAX)
        vals[-1] = self._asym(float(self._edge[-1]))
        for k in range(self._KMAX - 2, -1, -1):
            vals[k] = (self._panel_sb(float(self._edge[k]), float(self._edge[k + 1]))
                       + vals[k + 1])
        self._edge_vals = vals
        self._sb1 = self._panel_sb(1.0, float(self._edge[0])) + float(vals[0])

    def _panel_sb(self, a: float, b: float) -> float:
        half = 0.5 * (b - a)
        u = 0.5 * (a + b) + half * _XK
        return half * float(np.dot(u ** (-self.b) * np.sin(u), _WK))

    def _asym(self, x: float) -> float:
        total = 0.0
        mult = 1.0
        beta = self.b
        kind = 0  # 0: contributing mult * S_beta, 1: mult * C_beta
        cx, sx = math.cos(x), math.sin(x)
        for _ in range(64):
            xb = x ** (-beta)
            if kind == 0:
                total += mult * xb * cx
                mult = -mult * beta
                kind = 1
            else:
                total += -mult * xb * sx
                mult = mult * beta
                kind = 0
            beta += 1.0
            if abs(mult) * x ** (-beta) <= 1e-17 * (1.0 + abs(total)):
                return total
        raise QuadratureFailure(
            f"integration-by-parts tail for S_{self.b}({x}) failed to converge"
        )

    def _series(self, x: float) -> float:
        """S_b(x) - S_b(1) for 0 < x < 1, from the sine power series."""
        total = 0.0
        fact = 1.0  # (2j+1)!
        for j in range(24):
            if j > 0:
                fact *= (2 * j) * (2 * j + 1)
            e = 2 * j + 2 - self.b
            if abs(e) < 1e-12:
                term = math.log(1.0 / x) / fact
            else:
                term = (1.0 - x**e) / (e * fact)
            if j % 2:
                term = -term
            total += term
            if j > 2 and abs(term) <= 1e-17 * (1.0 + abs(total)):
                break
        return total

    def Sb(self, x: float) -> float:
        if x == math.inf:   # 1/s past the float range: the tail is 0
            return 0.0
        if x >= self._edge[-1]:
            return self._asym(x)
        if x >= 1.0:
            k = int(np.searchsorted(self._edge, x, side="left"))
            return self._panel_sb(x, float(self._edge[k])) + float(self._edge_vals[k])
        return self._series(x) + self._sb1

    def F_many(self, s):
        s = np.asarray(s, dtype=float)
        out = np.empty(s.shape)
        flat, res = s.ravel(), out.ravel()
        for i in range(flat.size):
            x = float(flat[i])
            res[i] = (0.0 if x <= 0.0
                      else x ** (self.a + 1.0) / (self.a + 1.0) + self.Sb(1.0 / x))
        return out


class _PowerSinPrimitive:
    """Closed-form primitive of f(s) = s^n (1 + sin s) for integer n >= 1.

    Integrating s^n sin s by parts n times gives

        F(s) = s^(n+1)/(n+1) + n! cos(n pi/2)
               - sum_{k=0..n} n!/(n-k)! s^(n-k) cos(s + k pi/2),

    kept as s^(n+1)/(n+1) + P(0) - P(s) cos s + Q(s) sin s, where P and Q
    collect the even and the odd k.  The sum cancels toward n! as s -> 0,
    so below s = max(1/2, n/2) F comes from the sine series

        F(s) = s^(n+1)/(n+1) + sum_j (-1)^j s^(n+2j+2) / ((2j+1)! (n+2j+2))

    instead, truncated where its next term drops below 1e-17.  Both parts
    are Horner polynomials around one sin and one cos, so small arrays stay
    cheap.  Against 120-digit references on [1e-6, 1e6] the relative error
    is at most 8e-16 for n <= 4 and 6.1e-14 for n <= 12.
    """

    #: largest exponent served; n! and the cancellation grow beyond it
    MAX_N = 12

    def __init__(self, n: int):
        self.n = int(n)
        fact = [math.factorial(self.n) // math.factorial(self.n - k)
                for k in range(self.n + 1)]
        # coefficient k multiplies s^(n-k): highest degree first, as polyval
        self._P = np.array([f * (1, 0, -1, 0)[k % 4] for k, f in enumerate(fact)],
                           dtype=float)
        self._Q = np.array([f * (0, 1, 0, -1)[k % 4] for k, f in enumerate(fact)],
                           dtype=float)
        self._edge = max(0.5, 0.5 * self.n)
        terms = next(j for j in itertools.count(1)
                     if self._edge ** (2 * j) / math.factorial(2 * j + 1) <= 1e-17)
        self._series = np.array([
            (-1) ** j / (math.factorial(2 * j + 1) * (self.n + 2 * j + 2))
            for j in reversed(range(terms))])

    def F_many(self, s):
        s = np.asarray(s, dtype=float)
        x = s.reshape(-1)
        lead = x ** (self.n + 1) / (self.n + 1)
        out = (lead + self._P[-1] - np.polyval(self._P, x) * np.cos(x)
               + np.polyval(self._Q, x) * np.sin(x))
        small = x < self._edge
        if small.any():
            xs = x[small]
            out[small] = lead[small] + xs ** (self.n + 2) * np.polyval(self._series, xs * xs)
        return out.reshape(s.shape)


class _ExtremaTable:
    """Running extrema of a primitive, cached at the sign changes of f.

    Between consecutive sign changes F is monotone, so the running minimum and
    maximum over [0, s] are attained at 0, at a stored sign change, or at s:
    one evaluation at s and one lookup among the stored prefix extrema.
    An extension publishes (span, points, prefix minima, prefix maxima) as
    one tuple, and each query reads the snapshot it was handed.  A primitive
    value depends only on its point, so two extensions that overlap store
    the same entries, and the later one to publish may at worst shrink the
    span; it never hands a reader a snapshot short of the reader's point.
    """

    def __init__(self, value_many_fn, sign_changes_fn):
        self._value_many = value_many_fn
        self._sign_changes = sign_changes_fn
        empty = np.array([], dtype=float)
        self._state = (0.0, empty, empty, empty)

    def _ensure(self, s: float) -> tuple:
        """A snapshot covering [0, s]: the current one, or the one built."""
        state = span, pts, premin, premax = self._state
        if s <= span:
            return state
        new = np.array([x for x in self._sign_changes(s) if x > span],
                       dtype=float)
        if new.size:
            vals = np.asarray(self._value_many(new))
            mins = np.minimum.accumulate(vals)
            maxs = np.maximum.accumulate(vals)
            if pts.size:
                mins = np.minimum(mins, premin[-1])
                maxs = np.maximum(maxs, premax[-1])
            pts = np.concatenate([pts, new])
            premin = np.concatenate([premin, mins])
            premax = np.concatenate([premax, maxs])
        state = (s, pts, premin, premax)
        self._state = state
        return state

    def extrema_many(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(value, min, max) of the primitive at each s, the extrema over
        [0, s] including both endpoints; s >= 0 in any order."""
        s = np.asarray(s, dtype=float)
        G = np.asarray(self._value_many(s), dtype=float)
        if not s.size:
            return G, G.copy(), G.copy()
        _, pts, premin, premax = self._ensure(float(s.max()))
        lo = np.where(G < 0.0, G, 0.0)
        hi = np.where(G > 0.0, G, 0.0)
        k = np.searchsorted(pts, s, side="right") - 1
        past = k >= 0
        if past.any():
            m, M = premin[k[past]], premax[k[past]]
            lo[past] = np.where(m < lo[past], m, lo[past])
            hi[past] = np.where(M > hi[past], M, hi[past])
        return G, lo, hi


def extended_real(x: float):
    """JSON encoding of an extended real: JSON has no inf."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


class PrimitiveCalculus:
    """All primitive and asymptotic calculus for one nonlinearity ``nl``."""

    def __init__(self, nl: Nonlinearity):
        self.nl = nl

        if isinstance(nl, CustomTable):
            backend = _ExactTablePrefix(nl.xs, nl.ys)
        elif (isinstance(nl, PowerTimesOnePlusSin) and nl.r.is_integer()
              and nl.r <= _PowerSinPrimitive.MAX_N):
            backend = _PowerSinPrimitive(int(nl.r))
        elif isinstance(nl, ReciprocalOscillation):
            backend = _ReciprocalPrimitive(nl.exponent)
        else:
            backend = CachedPrefix(nl.eval_many, kinks=nl.kink_points)
        self.backend = backend

        # F- = integral max(-f, 0): exact for a table, 0 for f >= 0, and
        # otherwise a panel cache split at the sign changes of f as well
        if isinstance(backend, _ExactTablePrefix):
            self._Fminus_many = backend.Fminus_many
        elif nl.nonneg:
            self._Fminus_many = lambda s: np.zeros_like(np.asarray(s, dtype=float))
        else:
            def kinks_split(a, b):
                ks = set(nl.kink_points(a, b))
                ks.update(x for x in nl.sign_change_points(b) if a < x < b)
                return sorted(ks)

            self._Fminus_many = CachedPrefix(
                lambda s: np.maximum(-nl.eval_many(s), 0.0),
                kinks=kinks_split).F_many

        #: Lambda -> running extrema of F_Lambda (of F at Lambda = 1)
        self._extrema: dict = {}

    # -- plain primitives ---------------------------------------------------

    def F(self, s: float) -> float:
        """F(s) = integral_0^s f, with F(0) = 0: the one-point ``F_many``."""
        return float(self.F_many(np.array([s], dtype=float))[0])

    def F_many(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if s.size and s.min() < 0.0:
            raise DomainError("primitives are defined on s >= 0")
        return np.asarray(self.backend.F_many(s), dtype=float)

    def F_Lambda_many(self, s, Lambda: float) -> np.ndarray:
        """F + (1 - 1/Lambda^2) F^-: ``F_many`` itself at Lambda = 1."""
        F = self.F_many(s)
        if Lambda == 1.0:
            return F
        return F + (1.0 - 1.0 / (Lambda * Lambda)) * self._Fminus_many(s)

    # -- running extrema and derived primitives ------------------------------

    def extrema_many(self, s, Lambda: float = 1.0
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """F_Lambda at each s with its (min, max) over [0, s], as three
        arrays; F's at the default Lambda.  One ``F_Lambda_many`` call and
        one lookup in the sign-change table serve every point."""
        table = self._extrema.get(Lambda)
        if table is None:
            table = self._extrema[Lambda] = _ExtremaTable(
                lambda x: self.F_Lambda_many(x, Lambda), self.nl.sign_change_points)
        return table.extrema_many(s)
