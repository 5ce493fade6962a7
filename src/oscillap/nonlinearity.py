"""Oscillating nonlinearities f on [0, oo) and their zero sequences.

The toolkit studies continuous right-hand sides f whose positive zeros
alpha_1, alpha_2, ... accumulate either at infinity or at zero.  The catalog
covers the closed forms used throughout the package plus a piecewise-linear
table type for everything else:

* ``PowerTimesOnePlusSin``:   f(s) = s^r (1 + sin s),        zeros -> oo
* ``ReciprocalOscillation``:  f(s) = s^(1/r) (1 + sin(1/s)), zeros -> 0
* ``EnvelopeTimesOnePlusSin``: f(s) = g(s) (1 + sin s) with g a nondecreasing
  positive sampled envelope,                                  zeros -> oo
* ``PureSine``:               f(s) = sin s,                   zeros -> oo
* ``CustomTable``:            piecewise-linear interpolant of samples

Each instance carries a ``direction`` attribute naming the limit the analysis
targets ("zero" or "infinity").  The direction is independent of the kind: a
power-type f can be analysed near 0 even though its zeros live at infinity
(in that case ``find_zeros`` reports that no zero sequence accumulates there).

Zeros come in two flavours.  Crossing zeros (sign changes, e.g. sin s at k pi)
are polished by bracketed root finding.  Touch zeros (f >= 0 with isolated
zeros, e.g. 1 + sin s at 3 pi/2 + 2 pi k) admit no sign-change bracket; for
catalog kinds their locations are analytic and exact in double precision, and
for tables they sit exactly on interpolation nodes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from ._rk import brentq
from .errors import DomainError, NoZerosFound

TWO_PI = 2.0 * math.pi
#: default absolute tolerance for |f(alpha_n)| at reported zeros
ZERO_TOLERANCE = 1e-9

DIRECTION_ZERO = "zero"
DIRECTION_INFINITY = "infinity"
_DIRECTIONS = (DIRECTION_ZERO, DIRECTION_INFINITY)


def _check_direction(direction: str) -> str:
    if direction not in _DIRECTIONS:
        raise DomainError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    return direction


#: the smallest s > 0 whose reciprocal is finite (about 1/DBL_MAX)
_INVERTIBLE = float(np.nextafter(1.0 / np.finfo(float).max, 1.0))


def _sign_weighted(c: float, Lambda: float) -> float:
    """The coefficient of F_Lambda where f has the constant sign of c:
    f^- is weighed by 1/Lambda^2."""
    return c if c >= 0.0 else c / (Lambda * Lambda)


class Nonlinearity:
    """Base class: a continuous f on [0, oo) with structural metadata.

    Subclasses implement scalar ``eval`` and vectorized ``eval_many`` plus the
    structural queries the primitive calculus needs: where f changes sign
    (running extrema of its antiderivative live there), where the integrand
    has kinks (quadrature panels must not straddle them), where its zeros
    accumulate, and the leading term of its primitive toward 0 and infinity
    (``tail``).  ``eval_many`` extends f below 0 by f(0), as the radial
    equations do once a trajectory passes its zero, so the shooting
    right-hand sides call it on any state.
    """

    kind: str = "abstract"

    def __init__(self, direction: str):
        self.direction = _check_direction(direction)

    # -- evaluation ---------------------------------------------------------

    def eval(self, s: float) -> float:
        raise NotImplementedError

    @property
    def f0(self) -> float:
        """f(0), recorded for the sign check f(0) >= 0."""
        return self.eval(0.0)

    # -- structure ----------------------------------------------------------

    @property
    def nonneg(self) -> bool:
        """True when f >= 0 everywhere on [0, oo) by construction; False
        also where that is not known (a table, whose primitives are exact
        either way)."""
        return False

    @property
    def zero_accumulation(self) -> str | None:
        """Where the zeros of f accumulate ("zero", "infinity", or None)."""
        return None

    def analytic_zeros(self, count: int) -> list[float] | None:
        """First ``count`` positive zeros in increasing order, if closed-form."""
        return None

    def sign_change_points(self, s: float) -> list[float]:
        """Points in (0, s] where f changes sign, in increasing order."""
        return []

    def kink_points(self, a: float, b: float) -> list[float]:
        """Abscissae in (a, b) where f is not differentiable (table nodes)."""
        return []

    def tail(self, direction: str, Lambda: float) -> tuple[float, float]:
        """Leading term (m, c) of the primitive toward ``direction``:
        F_Lambda(s) = c s^m + o(s^m) as s -> 0 or infinity, with
        F_Lambda = F + (1 - 1/Lambda^2) F^- (F itself at Lambda = 1)."""
        raise NotImplementedError


class PowerTimesOnePlusSin(Nonlinearity):
    """f(s) = s^r (1 + sin s) with r > 0; nonnegative, touch zeros at 3pi/2 + 2pi k."""

    kind = "power_sin"

    def __init__(self, r: float, direction: str = DIRECTION_INFINITY):
        super().__init__(direction)
        if not (r > 0):
            raise DomainError(f"power exponent r must be positive, got {r!r}")
        self.r = float(r)

    def eval(self, s: float) -> float:
        if s == 0.0:
            return 0.0
        return s**self.r * (1.0 + math.sin(s))

    def eval_many(self, s):
        s = np.where(s > 0.0, s, 0.0)
        return s ** self.r * (1.0 + np.sin(s))

    @property
    def nonneg(self) -> bool:
        return True

    @property
    def zero_accumulation(self) -> str:
        return DIRECTION_INFINITY

    def analytic_zeros(self, count: int) -> list[float]:
        # touch zeros of 1 + sin s; exact locations, no bracket exists
        return [1.5 * math.pi + TWO_PI * k for k in range(count)]

    def tail(self, direction: str, Lambda: float) -> tuple[float, float]:
        # F = s^(r+1)/(r+1) + integral t^r sin t: O(s^r) by parts toward
        # infinity, O(s^(r+2)) toward 0; f >= 0, so F_Lambda = F
        return self.r + 1.0, 1.0 / (self.r + 1.0)


class ReciprocalOscillation(Nonlinearity):
    """f(s) = s^(1/r) (1 + sin(1/s)) with r > 0 and f(0) = 0 by continuity.

    The oscillation accumulates at the origin: touch zeros at s = 1/(3pi/2 + 2pi k).
    Below ``_INVERTIBLE``, where 1/s overflows, 1 + sin(1/s) is taken as
    1, its mean, in ``eval`` and ``eval_many`` alike: f is then s^(1/r),
    within s^(1/r) of the true value.
    """

    kind = "reciprocal_sin"

    def __init__(self, r: float, direction: str = DIRECTION_ZERO):
        super().__init__(direction)
        if not (r > 0 and math.isfinite(1.0 / r)):
            raise DomainError(f"parameter r must be positive with a finite "
                              f"reciprocal, got {r!r}")
        self.r = float(r)
        self.exponent = 1.0 / float(r)  # f ~ s^exponent near 0

    def eval(self, s: float) -> float:
        if s <= 0.0:
            return 0.0
        return s**self.exponent * (1.0 + math.sin(1.0 / s) if s >= _INVERTIBLE
                                   else 1.0)

    def eval_many(self, s):
        s = np.asarray(s, dtype=float)
        resolved = s >= _INVERTIBLE
        wave = np.where(resolved, np.sin(1.0 / np.where(resolved, s, 1.0)), 0.0)
        return np.where(s > 0.0, s, 0.0)**self.exponent * (1.0 + wave)

    @property
    def nonneg(self) -> bool:
        return True

    @property
    def zero_accumulation(self) -> str:
        return DIRECTION_ZERO

    def analytic_zeros(self, count: int) -> list[float]:
        # increasing order: the k-th largest zero is 1/(3pi/2), so invert
        ks = range(count - 1, -1, -1)
        return [1.0 / (1.5 * math.pi + TWO_PI * k) for k in ks]

    def tail(self, direction: str, Lambda: float) -> tuple[float, float]:
        # F = s^(a+1)/(a+1) + S_b(1/s) with a = 1/r and S_b(x) = O(x^-b)
        # toward 0; toward infinity sin(1/s) ~ 1/s adds O(s^a); f >= 0
        a = self.exponent
        return a + 1.0, 1.0 / (a + 1.0)


class PureSine(Nonlinearity):
    """f(s) = sin s; sign-changing with crossing zeros at k pi."""

    kind = "pure_sine"

    def __init__(self, direction: str = DIRECTION_INFINITY):
        super().__init__(direction)

    def eval(self, s: float) -> float:
        return math.sin(s)

    def eval_many(self, s):
        return np.sin(np.where(s > 0.0, s, 0.0))

    @property
    def zero_accumulation(self) -> str:
        return DIRECTION_INFINITY

    def analytic_zeros(self, count: int) -> list[float]:
        return [math.pi * (k + 1) for k in range(count)]

    def tail(self, direction: str, Lambda: float) -> tuple[float, float]:
        # F = 1 - cos s ~ s^2/2 toward 0; toward infinity F is bounded and
        # F^- = integral max(-sin, 0) ~ s/pi
        if direction == DIRECTION_ZERO:
            return 2.0, 0.5
        return 1.0, (1.0 - 1.0 / (Lambda * Lambda)) / math.pi

    def sign_change_points(self, s: float) -> list[float]:
        # s / pi may round below k at s = k pi: try one k more
        kmax = int(math.floor(s / math.pi)) + 1
        return [math.pi * k for k in range(1, kmax + 1) if math.pi * k <= s]


def _validate_samples(samples, what: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        arr = np.asarray(samples, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"{what} needs [s, value] pairs of numbers")
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise DomainError(f"{what} needs at least two [s, value] pairs")
    xs, ys = arr[:, 0].copy(), arr[:, 1].copy()
    if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(ys)):
        raise DomainError(f"{what} contains non-finite entries")
    if xs[0] != 0.0:
        raise DomainError(f"{what} must start at abscissa 0, got {xs[0]!r}")
    if not np.all(np.diff(xs) > 0.0):
        raise DomainError(f"{what} abscissae must be strictly increasing")
    return xs, ys


class _TableMixin:
    """Shared piecewise-linear machinery over validated (xs, ys) samples.

    Beyond the last node the interpolant is clamped to the final value, which
    keeps f continuous and bounded on all of [0, oo).
    """

    xs: np.ndarray
    ys: np.ndarray

    def _init_table(self, xs: np.ndarray, ys: np.ndarray):
        self.xs = xs
        self.ys = ys
        self._xs_list = xs.tolist()  # python list: fast scalar bisect
        self._ys_list = ys.tolist()
        self._slopes = np.diff(ys) / np.diff(xs)

    def _interp(self, s: float) -> float:
        xs = self._xs_list
        if s <= 0.0:
            return self._ys_list[0]
        if s >= xs[-1]:
            return self._ys_list[-1]
        i = bisect.bisect_right(xs, s) - 1
        return self._ys_list[i] + self._slopes[i] * (s - xs[i])

    def _interp_many(self, s):
        return np.interp(np.asarray(s, dtype=float), self.xs, self.ys)

    def kink_points(self, a: float, b: float) -> list[float]:
        return [float(x) for x in self.xs if a < x < b]

    def _node_zeros(self) -> list[float]:
        """All zeros of the interpolant at positive s, increasing order."""
        xs, ys = self.xs, self.ys
        zeros: list[float] = []
        for i in range(len(xs) - 1):
            y0, y1 = ys[i], ys[i + 1]
            if y0 == 0.0 and xs[i] > 0.0:
                zeros.append(float(xs[i]))
            if y0 * y1 < 0.0:
                root = xs[i] + (xs[i + 1] - xs[i]) * y0 / (y0 - y1)
                zeros.append(float(root))
        if ys[-1] == 0.0 and xs[-1] > 0.0:
            zeros.append(float(xs[-1]))
        return zeros

    def _crossings(self) -> list[float]:
        """Points where the interpolant strictly changes sign."""
        xs, ys = self.xs, self.ys
        out: list[float] = []
        last_sign = 0
        for i in range(len(xs) - 1):
            y0, y1 = ys[i], ys[i + 1]
            if y0 * y1 < 0.0:
                root = xs[i] + (xs[i + 1] - xs[i]) * y0 / (y0 - y1)
                out.append(float(root))
                last_sign = 1 if y1 > 0 else -1
            else:
                if y0 != 0.0:
                    if last_sign == 0:
                        last_sign = 1 if y0 > 0 else -1
                    elif (y0 > 0) != (last_sign > 0):
                        out.append(float(xs[i]))  # sign flip through a node zero
                        last_sign = 1 if y0 > 0 else -1
        if len(ys) and ys[-1] != 0.0 and last_sign != 0:
            if (ys[-1] > 0) != (last_sign > 0):  # pragma: no cover - defensive
                out.append(float(xs[-1]))
        return out


class EnvelopeTimesOnePlusSin(_TableMixin, Nonlinearity):
    """f(s) = g(s) (1 + sin s) with g a nondecreasing positive sampled envelope."""

    kind = "envelope_sin"

    def __init__(self, samples, direction: str = DIRECTION_INFINITY):
        Nonlinearity.__init__(self, direction)
        xs, ys = _validate_samples(samples, "envelope table")
        if not np.all(ys > 0.0):
            raise DomainError("envelope values must be positive")
        if not np.all(np.diff(ys) >= 0.0):
            raise DomainError("envelope values must be nondecreasing")
        self._init_table(xs, ys)

    def eval(self, s: float) -> float:
        return self._interp(s) * (1.0 + math.sin(s))

    def eval_many(self, s):
        s = np.where(s > 0.0, s, 0.0)
        return self._interp_many(s) * (1.0 + np.sin(s))

    @property
    def nonneg(self) -> bool:
        return True

    @property
    def zero_accumulation(self) -> str:
        return DIRECTION_INFINITY

    def analytic_zeros(self, count: int) -> list[float]:
        return [1.5 * math.pi + TWO_PI * k for k in range(count)]

    def tail(self, direction: str, Lambda: float) -> tuple[float, float]:
        # F ~ g(0) s toward 0, and g_last (s - cos s) + const past the last
        # node; g > 0, so F_Lambda = F
        return 1.0, float(self.ys[0 if direction == DIRECTION_ZERO else -1])


class CustomTable(_TableMixin, Nonlinearity):
    """Piecewise-linear interpolant of (s, f(s)) samples, clamped beyond the last node."""

    kind = "table"

    def __init__(self, samples, direction: str = DIRECTION_INFINITY):
        Nonlinearity.__init__(self, direction)
        xs, ys = _validate_samples(samples, "sample table")
        self._init_table(xs, ys)

    def eval(self, s: float) -> float:
        return self._interp(s)

    def eval_many(self, s):
        return self._interp_many(s)

    def table_zeros(self) -> list[float]:
        return self._node_zeros()

    def tail(self, direction: str, Lambda: float) -> tuple[float, float]:
        # f is clamped to y_last past the last node; toward 0, F = f(0) s
        # + O(s^2), or k s^2/2 on the first segment of slope k if f(0) = 0
        if direction == DIRECTION_INFINITY:
            return 1.0, _sign_weighted(float(self.ys[-1]), Lambda)
        if self.ys[0] != 0.0:
            return 1.0, _sign_weighted(float(self.ys[0]), Lambda)
        return 2.0, _sign_weighted(float(self._slopes[0]), Lambda) / 2.0

    def sign_change_points(self, s: float) -> list[float]:
        return [x for x in self._crossings() if 0.0 < x <= s]


@dataclass(frozen=True)
class ZeroSequence:
    """The first positive zeros of f, ordered toward the limit.

    ``alphas`` decreases toward 0 for direction "zero" and increases toward
    infinity for direction "infinity".  ``find_zeros`` checks every entry
    against |f(alpha_n)| <= ZERO_TOLERANCE.
    """

    alphas: tuple
    direction: str

    def __post_init__(self):
        _check_direction(self.direction)
        if len(self.alphas) == 0:
            raise DomainError("empty zero sequence")
        if any(a <= 0.0 for a in self.alphas):
            raise DomainError("zeros must be positive")
        diffs = np.diff(self.alphas)
        if self.direction == DIRECTION_INFINITY:
            if not np.all(diffs > 0.0):
                raise DomainError("zeros must strictly increase toward infinity")
        else:
            if not np.all(diffs < 0.0):
                raise DomainError("zeros must strictly decrease toward zero")

    def ascending(self) -> tuple:
        """The same zeros sorted increasingly (useful for interval lookups)."""
        if self.direction == DIRECTION_INFINITY:
            return self.alphas
        return tuple(reversed(self.alphas))

    def interval_index(self, c: float) -> int:
        """1-based k with alpha_{k-1} < c <= alpha_k in ascending order (alpha_0 := 0).

        Heights above the last stored zero get index len(alphas) + 1.
        """
        if c <= 0.0:
            raise DomainError("height must be positive")
        asc = self.ascending()
        return bisect.bisect_left(list(asc), c) + 1


def _polish_crossing(nl: Nonlinearity, seed: float, halfwidth: float) -> float:
    """Refine a sign-change zero by bracketed root finding around the seed."""
    lo, hi = seed - halfwidth, seed + halfwidth
    flo, fhi = nl.eval(lo), nl.eval(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        return seed  # no bracket: seed already machine-precision
    return brentq(nl.eval, lo, hi, xtol=1e-15, rtol=1e-15)


def find_zeros(nl: Nonlinearity, count: int) -> ZeroSequence:
    """Locate the first ``count`` positive zeros of f in the direction of ell.

    Catalog kinds use analytic zero locations (crossing zeros polished by a
    bracketed root finder); tables scan segment sign changes and node touch
    zeros of the interpolant.  Raises NoZerosFound when fewer than ``count``
    zeros exist toward the requested limit.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")

    accum = nl.zero_accumulation
    if accum is not None:
        if accum != nl.direction:
            raise NoZerosFound(
                f"{nl.kind} zeros accumulate at {accum}, not at {nl.direction}; "
                f"no zero sequence exists toward the requested limit"
            )
        seeds = nl.analytic_zeros(count)
        if isinstance(nl, PureSine):
            zeros = [_polish_crossing(nl, z, 0.5) for z in seeds]
        else:
            zeros = list(seeds)
        if nl.direction == DIRECTION_ZERO:
            zeros = sorted(zeros, reverse=True)
    else:
        if not isinstance(nl, CustomTable):
            raise NoZerosFound(f"no zero enumeration available for kind {nl.kind!r}")
        zeros = nl.table_zeros()
        if nl.direction == DIRECTION_ZERO:
            zeros = sorted(zeros, reverse=True)
        if len(zeros) < count:
            raise NoZerosFound(
                f"found {len(zeros)} zero(s) within the table span, needed {count}"
            )
        zeros = zeros[:count]

    bad = [z for z in zeros if abs(nl.eval(z)) > ZERO_TOLERANCE]
    if bad:
        raise NoZerosFound(
            f"candidate zeros failed |f| <= {ZERO_TOLERANCE:g} at {bad[:3]}"
        )
    return ZeroSequence(tuple(zeros), nl.direction)


# -- JSON interface ----------------------------------------------------------

_KINDS = {
    "power_sin": PowerTimesOnePlusSin,
    "reciprocal_sin": ReciprocalOscillation,
    "envelope_sin": EnvelopeTimesOnePlusSin,
    "pure_sine": PureSine,
    "table": CustomTable,
}


def nonlinearity_from_json(obj: dict) -> Nonlinearity:
    """Build a catalog nonlinearity from its JSON description.

    Schema: {"kind": ..., "r": real?, "samples": [[s, f], ...]?,
    "direction": "zero"|"infinity"?}.  Missing directions default per kind.
    """
    if not isinstance(obj, dict):
        raise DomainError("nonlinearity spec must be a JSON object")
    kind = obj.get("kind")
    if kind not in _KINDS:
        raise DomainError(f"unknown nonlinearity kind {kind!r}")
    direction = {"direction": obj["direction"]} if "direction" in obj else {}
    if kind in ("power_sin", "reciprocal_sin"):
        if "r" not in obj:
            raise DomainError(f"kind {kind!r} requires parameter r")
        return _KINDS[kind](float(obj["r"]), **direction)
    if kind in ("envelope_sin", "table"):
        if "samples" not in obj:
            raise DomainError(f"kind {kind!r} requires samples")
        return _KINDS[kind](obj["samples"], **direction)
    return PureSine(**direction)
