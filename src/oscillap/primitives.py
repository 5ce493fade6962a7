"""Primitive calculus for oscillating nonlinearities.

Everything downstream consumes antiderivatives of f rather than f itself:

* ``F(s)   = integral_0^s f(t) dt``
* ``Fbar(s) = F(s) - min over [0, s] of F``   (drawdown from the running minimum)
* ``F_Lambda(s) = integral f^+ - (1/Lambda^2) integral f^-``  and its Fbar analogue
* ``F_under(s1, s2) = min over t in [0, s1] of integral_t^{s2} f
                    = F(s2) - max over [0, s1] of F``

plus tail growth estimates ``liminf/limsup F(s)/s^p`` toward the oscillation
limit (0 or infinity).

Evaluation strategy by kind:

* ``CustomTable``: the interpolant is piecewise linear, so F is piecewise
  quadratic and every primitive (including the sign-split parts) is computed
  exactly from prefix sums.  No quadrature error at all.
* ``ReciprocalOscillation``: naive quadrature misses infinitely many
  oscillations near 0.  Substituting u = 1/t turns the oscillatory piece into
  ``S_b(x) = integral_x^infinity u^(-b) sin u du`` with b = 1/r + 2 and
  x = 1/s, evaluated by a power series (x < 1), cached half-period panels
  (1 <= x < 13 pi), and repeated integration by parts (x >= 13 pi).
* ``PowerTimesOnePlusSin`` with integer r = n (1 <= n <= 12): repeated
  integration by parts gives F in closed form, with the sine series below
  s = n/2 where the closed form cancels.  Non-integer r takes the panel
  quadrature below.
* everything else, ``ClippedBelowFirstZero`` wrappers included: adaptive
  panel quadrature with a prefix checkpoint cache, so the millions of F
  evaluations issued during shooting extend an existing prefix instead of
  recomputing from 0.  Panels compare embedded Gauss rules (21 vs 10 nodes)
  and bisect on disagreement.

Running extrema of F are tracked at the sign changes of f (the only interior
points where F can turn around) plus the endpoints, which makes Fbar and
F_under exact up to the accuracy of F itself.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureFailure
from .nonlinearity import (
    ClippedBelowFirstZero,
    CustomTable,
    DIRECTION_INFINITY,
    DIRECTION_ZERO,
    Nonlinearity,
    PowerTimesOnePlusSin,
    ReciprocalOscillation,
)

_X21, _W21 = np.polynomial.legendre.leggauss(21)
_X10, _W10 = np.polynomial.legendre.leggauss(10)

#: default relative quadrature tolerance
TOL_QUAD = 1e-10
#: default checkpoint spacing; half a period of the catalog oscillations
PANEL_WIDTH = math.pi / 2.0


class CachedPrefix:
    """Prefix antiderivative cache with embedded-pair panel quadrature.

    Checkpoints 0 = t_0 < t_1 < ... < t_m carry exact-prefix values
    I_k ~ integral_0^{t_k} f.  A query at s reuses the largest checkpoint
    below s and integrates only the remainder, which by construction contains
    no kink of the integrand and spans at most one panel width.

    Thread-safe for concurrent reads: extensions are serialized by a lock
    and publish the checkpoints and prefix values together as one tuple, and
    each query reads one such snapshot.
    """

    def __init__(self, fvec, tol=TOL_QUAD, panel_width=PANEL_WIDTH, kinks=None,
                 max_depth=28):
        self._fvec = fvec
        self.tol = float(tol)
        self.width = float(panel_width)
        self._kinks = kinks if kinks is not None else (lambda a, b: [])
        self.max_depth = int(max_depth)
        self._state = (np.array([0.0]), np.array([0.0]))  # (t, I)
        self._lock = threading.Lock()

    # -- panel machinery ------------------------------------------------

    def _panel_pair(self, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (GL21, |GL21 - GL10|) over consecutive edge pairs."""
        a, b = edges[:-1], edges[1:]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        n21 = mid[:, None] + half[:, None] * _X21[None, :]
        n10 = mid[:, None] + half[:, None] * _X10[None, :]
        f21 = np.asarray(self._fvec(n21.ravel()), dtype=float).reshape(n21.shape)
        f10 = np.asarray(self._fvec(n10.ravel()), dtype=float).reshape(n10.shape)
        g21 = half * (f21 @ _W21)
        g10 = half * (f10 @ _W10)
        return g21, np.abs(g21 - g10)

    def _refine(self, a: float, b: float, depth: int) -> float:
        if depth > self.max_depth:
            raise QuadratureFailure(
                f"panel [{a!r}, {b!r}] exceeded subdivision depth {self.max_depth}"
            )
        g21, err = self._panel_pair(np.array([a, b]))
        if err[0] <= self.tol * max(1.0, abs(g21[0])):
            return float(g21[0])
        m = 0.5 * (a + b)
        if not (a < m < b):
            raise QuadratureFailure(f"panel [{a!r}, {b!r}] underflowed while refining")
        return self._refine(a, m, depth + 1) + self._refine(m, b, depth + 1)

    def _segment(self, a: float, b: float) -> float:
        """Adaptive integral over [a, b]; no caching, no interior kinks assumed."""
        if b == a:
            return 0.0
        return self._refine(a, b, 0)

    def _extend(self, target: float) -> tuple:
        """Checkpoints reaching at least ``target``; returns the (t, I) snapshot."""
        with self._lock:
            t_old, I_old = self._state
            a = float(t_old[-1])
            if target <= a:
                return self._state
            n = max(1, int(math.ceil((target - a) / self.width)))
            edges = np.linspace(a, target, n + 1)
            ks = [k for k in self._kinks(a, target) if a < k < target]
            if ks:
                edges = np.unique(np.concatenate([edges, np.asarray(ks, dtype=float)]))
            vals = np.empty(len(edges) - 1)
            chunk = 32768
            for lo in range(0, len(vals), chunk):
                hi = min(lo + chunk, len(vals))
                g21, err = self._panel_pair(edges[lo:hi + 1])
                bad = err > self.tol * np.maximum(1.0, np.abs(g21))
                for j in np.nonzero(bad)[0]:
                    g21[j] = self._refine(float(edges[lo + j]), float(edges[lo + j + 1]), 0)
                vals[lo:hi] = g21
            self._state = (np.concatenate([t_old, edges[1:]]),
                           np.concatenate([I_old, I_old[-1] + np.cumsum(vals)]))
            return self._state

    # -- queries ----------------------------------------------------------

    def value(self, s: float) -> float:
        if s < 0.0:
            raise DomainError(f"prefix integral asked at negative s = {s!r}")
        if s == 0.0:
            return 0.0
        t, I = self._state
        if s > t[-1]:
            t, I = self._extend(s)
        i = int(np.searchsorted(t, s, side="right")) - 1
        t_i = float(t[i])
        base = float(I[i])
        if t_i == s:
            return base
        return base + self._segment(t_i, s)

    def value_many(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if s.size == 0:
            return np.zeros_like(s)
        if np.any(s < 0.0):
            raise DomainError("prefix integral asked at negative s")
        smax = float(s.max())
        t, I = self._state
        if smax > t[-1]:
            t, I = self._extend(smax)
        idx = np.searchsorted(t, s, side="right") - 1
        a = t[idx]
        out = I[idx].copy()
        h = s - a
        live = h > 0.0
        if np.any(live):
            al, hl = a[live], h[live]
            half = 0.5 * hl
            nodes = (al + half)[:, None] + half[:, None] * _X21[None, :]
            fv = np.asarray(self._fvec(nodes.ravel()), dtype=float).reshape(nodes.shape)
            out[live] += half * (fv @ _W21)
        return out


class _ExactTablePrefix:
    """Exact primitives of a piecewise-linear interpolant and its sign parts.

    The node list is refined with every interior crossing root so that each
    segment carries a single sign; prefix sums then make F, F+ and F- exact.
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
        sgn = np.sign(self.ry[:-1] + self.ry[1:])
        self.seg_sign = sgn
        self.P = np.concatenate([[0.0], np.cumsum(seg)])
        self.Pp = np.concatenate([[0.0], np.cumsum(np.where(sgn > 0, seg, 0.0))])
        self.Pm = np.concatenate([[0.0], np.cumsum(np.where(sgn < 0, -seg, 0.0))])
        with np.errstate(divide="ignore", invalid="ignore"):
            self.slope = np.where(h > 0, np.diff(self.ry) / h, 0.0)
        self.y_end = float(self.ry[-1])

    def _locate(self, s: np.ndarray):
        idx = np.clip(np.searchsorted(self.rx, s, side="right") - 1, 0, len(self.rx) - 2)
        t = s - self.rx[idx]
        return idx, t

    def _eval(self, s: np.ndarray, P: np.ndarray, want: int) -> np.ndarray:
        """want = 0 for F, +1 for F_plus, -1 for F_minus."""
        s = np.asarray(s, dtype=float)
        inside = s < self.rx[-1]
        idx, t = self._locate(np.where(inside, s, self.rx[-1]))
        part = self.ry[idx] * t + 0.5 * self.slope[idx] * t * t
        if want == 0:
            out = P[idx] + part
        elif want > 0:
            out = P[idx] + np.where(self.seg_sign[idx] > 0, part, 0.0)
        else:
            out = P[idx] + np.where(self.seg_sign[idx] < 0, -part, 0.0)
        tail = np.maximum(s - self.rx[-1], 0.0)
        if want == 0:
            out = out + self.y_end * tail
        elif want > 0:
            out = out + (self.y_end if self.y_end > 0 else 0.0) * tail
        else:
            out = out + (-self.y_end if self.y_end < 0 else 0.0) * tail
        return out

    def F_many(self, s):
        return self._eval(s, self.P, 0)

    def Fplus_many(self, s):
        return self._eval(s, self.Pp, +1)

    def Fminus_many(self, s):
        return self._eval(s, self.Pm, -1)


class _ReciprocalPrimitive:
    """Analytic primitive of f(s) = s^a (1 + sin(1/s)) with a = 1/r > 0.

    F(s) = s^(a+1)/(a+1) + S_b(1/s) with b = a + 2 and
    S_b(x) = integral_x^infinity u^(-b) sin u du.  S_b is evaluated by

    * power series on x < 1 (anchored at S_b(1)),
    * one Gauss panel [x, k pi] plus cached values S_b(k pi) on 1 <= x < 13 pi,
    * repeated integration by parts for x >= 13 pi (asymptotic, term-decreasing).
    """

    _KMAX = 13

    def __init__(self, a: float, tol=TOL_QUAD):
        self.a = float(a)
        self.b = self.a + 2.0
        self.tol = float(tol)
        self._edge = math.pi * np.arange(1, self._KMAX + 1)
        vals = np.empty(self._KMAX)
        vals[-1] = self._asym(float(self._edge[-1]))
        for k in range(self._KMAX - 2, -1, -1):
            vals[k] = self._gl_sb(float(self._edge[k]), float(self._edge[k + 1])) + vals[k + 1]
        self._edge_vals = vals
        self._sb1 = self._gl_sb(1.0, float(self._edge[0])) + float(vals[0])

    def _gl_sb(self, a: float, b: float) -> float:
        half = 0.5 * (b - a)
        u = 0.5 * (a + b) + half * _X21
        return half * float(np.dot(u ** (-self.b) * np.sin(u), _W21))

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
        if x >= self._edge[-1]:
            return self._asym(x)
        if x >= 1.0:
            k = int(np.searchsorted(self._edge, x, side="left"))
            return self._gl_sb(x, float(self._edge[k])) + float(self._edge_vals[k])
        return self._series(x) + self._sb1

    def F(self, s: float) -> float:
        if s <= 0.0:
            return 0.0
        return s ** (self.a + 1.0) / (self.a + 1.0) + self.Sb(1.0 / s)

    def F_many(self, s):
        s = np.asarray(s, dtype=float)
        out = np.empty(s.shape)
        flat, res = s.ravel(), out.ravel()
        for i in range(flat.size):
            res[i] = self.F(float(flat[i]))
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

    def F(self, s: float) -> float:
        return float(self.F_many(np.array([s]))[0])


class _ExtremaTable:
    """Running extrema of a primitive, cached at the sign changes of f.

    Between consecutive sign changes F is monotone, so the running minimum and
    maximum over [0, s] are attained at 0, at a stored sign change, or at s.
    Extensions are serialized by a lock and publish (span, points, prefix
    minima, prefix maxima) as one tuple; each query reads one snapshot.
    """

    def __init__(self, value_fn, value_many_fn, sign_changes_fn):
        self._value = value_fn
        self._value_many = value_many_fn
        self._sign_changes = sign_changes_fn
        empty = np.array([], dtype=float)
        self._state = (0.0, empty, empty, empty)
        self._lock = threading.Lock()

    def _ensure(self, s: float) -> tuple:
        """A snapshot covering [0, s]."""
        state = self._state
        if s <= state[0]:
            return state
        with self._lock:
            span, pts, premin, premax = state = self._state
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
            self._state = (s, pts, premin, premax)
            return self._state

    def extrema(self, s: float) -> tuple[float, float]:
        """(min, max) of the primitive over [0, s], both including endpoints."""
        _, pts, premin, premax = self._ensure(s)
        fs = self._value(s)
        lo = min(0.0, fs)
        hi = max(0.0, fs)
        k = int(np.searchsorted(pts, s, side="right"))
        if k:
            lo = min(lo, float(premin[k - 1]))
            hi = max(hi, float(premax[k - 1]))
        return lo, hi


_CLASSIFICATIONS = ("FinitePair", "PlusInfinite", "MinusInfinite", "BothZero")


@dataclass(frozen=True)
class LimitEstimate:
    """Tail estimate of liminf/limsup of a ratio toward the oscillation limit.

    These are numerical ESTIMATES over a finite window, never certified
    limits; ``window`` records the abscissae actually sampled.
    """

    L_minus: float
    L_plus: float
    window: tuple
    classification: str
    which: str = "F"
    direction: str = DIRECTION_INFINITY

    def __post_init__(self):
        if self.classification not in _CLASSIFICATIONS:
            raise DomainError(f"unknown classification {self.classification!r}")
        if not (self.L_minus <= self.L_plus):
            raise DomainError("limit estimate needs L_minus <= L_plus")

    def to_json(self) -> dict:
        def enc(x):
            if math.isinf(x):
                return "inf" if x > 0 else "-inf"
            return x

        return {
            "L_minus": enc(self.L_minus),
            "L_plus": enc(self.L_plus),
            "classification": self.classification,
            "which": self.which,
            "direction": self.direction,
            "is_estimate": True,
            "window": [float(self.window[0]), float(self.window[-1])],
            "window_points": len(self.window),
        }


def classify_ratio_samples(
    svals,
    ratios,
    direction: str,
    tail_decades: int = 3,
    divergence_ratio: float = 10.0,
    zero_tol: float = 1e-6,
    which: str = "F",
) -> LimitEstimate:
    """Turn sampled ratios F(s)/s^p into a LimitEstimate.

    The tail window is the final ``tail_decades`` decades toward the limit.
    Divergence is declared when per-decade extremes grow by at least
    ``divergence_ratio`` between every pair of consecutive decades.
    """
    s = np.asarray(svals, dtype=float)
    r = np.asarray(ratios, dtype=float)
    if s.size < 4:
        raise DomainError("need at least 4 samples to estimate limits")
    order = np.argsort(s)
    s, r = s[order], r[order]

    logs = np.log10(s)
    if direction == DIRECTION_INFINITY:
        hi = logs[-1]
        tail_mask = logs >= hi - tail_decades
        toward = 1  # larger s is closer to the limit
    else:
        lo = logs[0]
        tail_mask = logs <= lo + tail_decades
        toward = -1
    st, rt = s[tail_mask], r[tail_mask]

    # equal log-width windows across the tail, ordered toward the limit
    lt = np.log10(st)
    nwin = max(2, int(tail_decades))
    edges = np.linspace(lt.min(), lt.max(), nwin + 1)
    buckets = np.clip(np.searchsorted(edges, lt, side="right") - 1, 0, nwin - 1)
    if toward < 0:
        buckets = (nwin - 1) - buckets
    sups = np.array([rt[buckets == k].max() for k in range(nwin)])
    infs = np.array([rt[buckets == k].min() for k in range(nwin)])

    def _diverges(seq, sign):
        # monotone growth toward the limit plus an overall blow-up factor;
        # the half keeps the verdict stable when window extremes land a few
        # samples away from the true oscillation peaks
        vals = sign * seq
        if len(vals) < 2 or np.any(vals <= 0):
            return False
        if not np.all(vals[1:] >= vals[:-1]):
            return False
        return bool(vals[-1] >= 0.5 * divergence_ratio ** (len(vals) - 1) * vals[0])

    plus_div = _diverges(sups, +1.0)
    minus_div = _diverges(infs, -1.0)

    # limit estimates come from the window nearest the limit point
    near = buckets == nwin - 1
    L_plus = math.inf if plus_div else float(rt[near].max())
    L_minus = -math.inf if minus_div else float(rt[near].min())

    # decay toward zero: mirrored trend test on window magnitudes
    amax = np.array([np.abs(rt[buckets == k]).max() for k in range(nwin)])
    shrinks = (np.all(amax[1:] <= amax[:-1])
               and amax[-1] <= amax[0] * 2.0 / divergence_ratio ** (nwin - 1))

    if minus_div:
        cls = "MinusInfinite"
    elif plus_div:
        cls = "PlusInfinite"
    elif shrinks or max(abs(L_minus), abs(L_plus)) <= zero_tol:
        cls = "BothZero"
    else:
        cls = "FinitePair"
    return LimitEstimate(L_minus, L_plus, tuple(float(x) for x in st), cls,
                         which=which, direction=direction)


class PrimitiveCalculus:
    """All primitive and asymptotic calculus for one nonlinearity.

    Parameters
    ----------
    nl : Nonlinearity
    p : growth exponent of the comparison power s^p (p > 1)
    Lambda : ellipticity constant for the F_Lambda family (1 when unused)
    tol_quad : relative quadrature tolerance
    """

    def __init__(self, nl: Nonlinearity, p: float, Lambda: float = 1.0,
                 tol_quad: float = TOL_QUAD, panel_width: float = PANEL_WIDTH,
                 max_depth: int = 28):
        if not (p > 1.0):
            raise DomainError(f"growth exponent p must exceed 1, got {p!r}")
        if not (Lambda >= 1.0):
            raise DomainError(f"Lambda must be >= 1, got {Lambda!r}")
        self.nl = nl
        self.p = float(p)
        self.Lambda = float(Lambda)
        self.tol_quad = float(tol_quad)

        base = nl.base if isinstance(nl, ClippedBelowFirstZero) else nl
        if isinstance(nl, CustomTable):
            exact = _ExactTablePrefix(nl.xs, nl.ys)
            self._F_many_impl = exact.F_many
            self._Fplus_many_impl = exact.Fplus_many
            self._Fminus_many_impl = exact.Fminus_many
            self._F_impl = lambda s: float(exact.F_many(np.array([s]))[0])
            self._exact = exact
        elif (isinstance(nl, PowerTimesOnePlusSin) and nl.r.is_integer()
              and nl.r <= _PowerSinPrimitive.MAX_N):
            ps = _PowerSinPrimitive(int(nl.r))
            self._F_impl = ps.F
            self._F_many_impl = ps.F_many
            # f >= 0 so the sign split is trivial
            self._Fplus_many_impl = ps.F_many
            self._Fminus_many_impl = lambda s: np.zeros_like(np.asarray(s, dtype=float))
            self._exact = None
        elif isinstance(nl, ReciprocalOscillation):
            rec = _ReciprocalPrimitive(nl.exponent, tol=tol_quad)
            self._F_impl = rec.F
            self._F_many_impl = rec.F_many
            # f >= 0 so the sign split is trivial
            self._Fplus_many_impl = rec.F_many
            self._Fminus_many_impl = lambda s: np.zeros_like(np.asarray(s, dtype=float))
            self._exact = None
        else:
            kinks = lambda a, b: nl.kink_points(a, b)
            cache = CachedPrefix(nl.eval_many, tol=tol_quad,
                                 panel_width=panel_width, kinks=kinks,
                                 max_depth=max_depth)
            self._F_impl = cache.value
            self._F_many_impl = cache.value_many
            if nl.nonneg:
                self._Fplus_many_impl = cache.value_many
                self._Fminus_many_impl = lambda s: np.zeros_like(
                    np.asarray(s, dtype=float))
            else:
                def kinks_split(a, b):
                    ks = set(nl.kink_points(a, b))
                    ks.update(x for x in nl.sign_change_points(b) if a < x < b)
                    return sorted(ks)

                plus = CachedPrefix(
                    lambda s: np.maximum(nl.eval_many(s), 0.0), tol=tol_quad,
                    panel_width=panel_width, kinks=kinks_split, max_depth=max_depth)
                minus = CachedPrefix(
                    lambda s: np.maximum(-nl.eval_many(s), 0.0), tol=tol_quad,
                    panel_width=panel_width, kinks=kinks_split, max_depth=max_depth)
                self._Fplus_many_impl = plus.value_many
                self._Fminus_many_impl = minus.value_many
            self._exact = None

        self._extrema_F = _ExtremaTable(self.F, self.F_many, nl.sign_change_points)
        self._extrema_FL = _ExtremaTable(self.F_Lambda, self.F_Lambda_many,
                                         nl.sign_change_points)

    # -- plain primitives ---------------------------------------------------

    def F(self, s: float) -> float:
        """F(s) = integral_0^s f, with F(0) = 0."""
        if s < 0.0:
            raise DomainError(f"primitives are defined on s >= 0, got {s!r}")
        return float(self._F_impl(s))

    def F_many(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if np.any(s < 0.0):
            raise DomainError("primitives are defined on s >= 0")
        return np.asarray(self._F_many_impl(s), dtype=float)

    def Fplus(self, s: float) -> float:
        return float(self._Fplus_many_impl(np.array([float(s)]))[0])

    def Fminus(self, s: float) -> float:
        return float(self._Fminus_many_impl(np.array([float(s)]))[0])

    def F_Lambda(self, s: float) -> float:
        """F_Lambda(s) = integral f^+ - (1/Lambda^2) integral f^-."""
        return self.Fplus(s) - self.Fminus(s) / (self.Lambda * self.Lambda)

    def F_Lambda_many(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return (np.asarray(self._Fplus_many_impl(s), dtype=float)
                - np.asarray(self._Fminus_many_impl(s), dtype=float)
                / (self.Lambda * self.Lambda))

    # -- running extrema and derived primitives ------------------------------

    def running_min(self, s: float) -> float:
        """min of F over [0, s]; never exceeds min(0, F(s))."""
        return self._extrema_F.extrema(s)[0]

    def running_max(self, s: float) -> float:
        return self._extrema_F.extrema(s)[1]

    def Fbar(self, s: float) -> float:
        """Fbar(s) = F(s) - min over [0, s] of F; always >= max(0, F(s))."""
        lo, _ = self._extrema_F.extrema(s)
        return self.F(s) - lo

    def Fbar_Lambda(self, s: float) -> float:
        lo, _ = self._extrema_FL.extrema(s)
        return self.F_Lambda(s) - lo

    def F_under(self, s1: float, s2: float) -> float:
        """min over t in [0, s1] of integral_t^{s2} f = F(s2) - max over [0, s1] F."""
        if s1 > s2:
            raise DomainError(f"F_under needs s1 <= s2, got {s1!r} > {s2!r}")
        if s1 < 0.0:
            raise DomainError("F_under needs s1 >= 0")
        _, hi = self._extrema_F.extrema(s1)
        return self.F(s2) - hi

    # -- tail growth estimates ------------------------------------------------

    def estimate_limits(
        self,
        which: str = "F",
        direction: str | None = None,
        decades: float = 6.0,
        points: int = 200,
        tail_decades: int = 3,
        anchor: float = 1.0,
        divergence_ratio: float = 10.0,
        zero_tol: float = 1e-6,
    ) -> LimitEstimate:
        """Estimate liminf/limsup of F(s)/s^p (or F_Lambda(s)/s^2) toward ell.

        Samples a geometric grid of ``points`` abscissae spanning ``decades``
        decades that ends (direction "infinity") or starts (direction "zero")
        at ``anchor``; the reported extremes cover the final ``tail_decades``
        decades toward the limit.  The result is an estimate and is flagged
        as such in serialized reports.
        """
        if which not in ("F", "F_Lambda"):
            raise DomainError(f"which must be 'F' or 'F_Lambda', got {which!r}")
        direction = direction or self.nl.direction
        if direction == DIRECTION_INFINITY:
            svals = np.geomspace(anchor, anchor * 10.0**decades, points)
        elif direction == DIRECTION_ZERO:
            svals = np.geomspace(anchor * 10.0**-decades, anchor, points)
        else:
            raise DomainError(f"unknown direction {direction!r}")
        if which == "F":
            ratios = self.F_many(svals) / svals**self.p
        else:
            ratios = self.F_Lambda_many(svals) / svals**2
        return classify_ratio_samples(
            svals, ratios, direction, tail_decades=tail_decades,
            divergence_ratio=divergence_ratio, zero_tol=zero_tol, which=which)
