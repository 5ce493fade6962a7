"""Existence and nonexistence thresholds for radial problems on balls.

Two families of constants are computed from the primitive calculus of a
nonlinearity f:

* a closed-form nonexistence threshold ``lambda_under`` built from the
  exact liminf/limsup of F(s)/s^p toward the accumulation point, below
  which no bifurcation from that point occurs, and

* an existence sequence ``lambda_n = (C2/C1) * gamma_n^p / Fbar(gamma_n)``
  whose limit ``lambda_bar`` certifies parameter values with infinitely
  many solutions nearby.

Both are reported together in a :class:`ThresholdReport` so the ordering
``lambda_under <= lambda_bar`` can be audited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, InfeasibleDelta, NonpositiveFbar
from .nonlinearity import (
    DIRECTION_INFINITY,
    DIRECTION_ZERO,
    Nonlinearity,
    ZeroSequence,
    find_zeros,
)
from .primitives import PrimitiveCalculus, extended_real

#: relative slack allowed when auditing lambda_under <= lambda_bar
ORDER_TOL = 1e-12

#: number of candidate boundary-layer widths tried per gamma_n
DELTA_GRID_POINTS = 64


_CLASSIFICATIONS = ("FinitePair", "PlusInfinite", "MinusInfinite", "BothZero")


@dataclass(frozen=True)
class TailLimits:
    """liminf/limsup of G(s)/s^e toward the oscillation limit, exact from
    the leading term of G there (``Operator.limits``)."""

    L_minus: float
    L_plus: float
    classification: str
    which: str = "F"
    direction: str = DIRECTION_INFINITY

    def __post_init__(self):
        if self.classification not in _CLASSIFICATIONS:
            raise DomainError(f"unknown classification {self.classification!r}")
        if not (self.L_minus <= self.L_plus):
            raise DomainError("tail limits need L_minus <= L_plus")

    def to_json(self) -> dict:
        return {
            "L_minus": extended_real(self.L_minus),
            "L_plus": extended_real(self.L_plus),
            "classification": self.classification,
            "which": self.which,
            "direction": self.direction,
        }


@dataclass(frozen=True)
class BallGeometry:
    """Ball of radius R in dimension N."""

    N: int
    R: float

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 1:
            raise DomainError(f"dimension must be a positive integer, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        if not (self.R > 0.0 and math.isfinite(self.R)):
            raise DomainError(f"radius must be positive and finite, got {self.R!r}")

    @property
    def unit_ball_volume(self) -> float:
        """Volume of the unit ball in dimension N."""
        return math.pi ** (self.N / 2.0) / math.gamma(self.N / 2.0 + 1.0)

    @property
    def measure(self) -> float:
        """Volume of the ball."""
        return self.unit_ball_volume * self.R ** self.N


@dataclass(frozen=True)
class Operator:
    """Which radial operator the thresholds refer to.

    It owns everything outside the ODE that tells the two operators apart:
    the rescaling exponent e and the weight w (``exponent``, ``weight``:
    (p, 1) for the p-Laplacian, (2, Lambda) for Pucci), the primitive G of
    a nonlinearity's ``PrimitiveCalculus`` it reads (F_Lambda at Lambda = w,
    which is F at w = 1; ``primitive``, ``Gbar_many``), the limits of
    G(s)/s^e from the nonlinearity's leading term (``limits``), and the
    two closed forms the nonexistence argument gives in (e, w, G):
    ``lambda_under`` and the per-solution ``bound``.  The primitives
    describe f alone; this is the one place that knows e and w.
    """

    kind: str        # "p_laplacian" or "pucci"
    parameter: float  # the exponent p, or the ellipticity ratio Lambda

    def __post_init__(self):
        if self.kind not in ("p_laplacian", "pucci"):
            raise DomainError(f"unknown operator kind {self.kind!r}")
        if self.kind == "p_laplacian" and not self.parameter > 1.0:
            raise DomainError(f"exponent must exceed 1, got {self.parameter!r}")
        if self.kind == "pucci" and not self.parameter >= 1.0:
            raise DomainError(f"ellipticity ratio must be >= 1, got {self.parameter!r}")

    @classmethod
    def p_laplacian(cls, p: float) -> "Operator":
        return cls("p_laplacian", float(p))

    @classmethod
    def pucci(cls, Lambda: float) -> "Operator":
        return cls("pucci", float(Lambda))

    def to_json(self) -> dict:
        key = "p" if self.kind == "p_laplacian" else "Lambda"
        return {"kind": self.kind, key: self.parameter}

    @property
    def exponent(self) -> float:
        """Rescaling exponent e: lambda on the radius-R ball is
        lambda_shoot (rho/R)^e.  Pucci is positively 1-homogeneous in the
        Hessian, so its e is 2 whatever Lambda."""
        return self.parameter if self.kind == "p_laplacian" else 2.0

    @property
    def weight(self) -> float:
        """Weight w of the closed forms: 1, or Lambda for Pucci."""
        return 1.0 if self.kind == "p_laplacian" else self.parameter

    @property
    def which(self) -> str:
        """The name reports give G: the plain ``"F"`` of the p-Laplacian or
        the sign-weighted ``"F_Lambda"`` of Pucci."""
        return "F" if self.kind == "p_laplacian" else "F_Lambda"

    def primitive(self, pc: PrimitiveCalculus):
        """G in ``pc`` as (G at many points, (G, min, max of G on [0, s]) at
        many points): ``F_Lambda_many`` and ``extrema_many`` at Lambda = w."""
        w = self.weight
        return (lambda s: pc.F_Lambda_many(s, w)), (lambda s: pc.extrema_many(s, w))

    def Gbar_many(self, pc: PrimitiveCalculus, s) -> np.ndarray:
        """Range of G on [0, s] at each s: G(s) - min over [0, s] of G
        (Fbar at w = 1)."""
        G, lo, _ = pc.extrema_many(s, self.weight)
        return G - lo

    def limits(self, nl: Nonlinearity,
               direction: Optional[str] = None) -> TailLimits:
        """liminf/limsup of G(s)/s^e toward ``direction``, by default the
        nonlinearity's, from the leading term G = c s^m + o(s^m) there
        (``Nonlinearity.tail`` at Lambda = w).  The ratio is c s^(m-e)
        + o(s^(m-e)), so both limits are 0 when c = 0 or s^(m-e) -> 0,
        both c when m == e, and both +inf or -inf, by the sign of c,
        otherwise.  m == e compares the floats exactly as the config gives
        them: a p one rounding away from r + 1 is another exponent."""
        direction = direction or nl.direction
        if direction not in (DIRECTION_ZERO, DIRECTION_INFINITY):
            raise DomainError(f"unknown direction {direction!r}")
        m, c = nl.tail(direction, self.weight)
        e = self.exponent
        if c == 0.0 or (m < e if direction == DIRECTION_INFINITY else m > e):
            L, classification = 0.0, "BothZero"
        elif m == e:
            L, classification = c, "FinitePair"
        elif c > 0.0:
            L, classification = math.inf, "PlusInfinite"
        else:
            L, classification = -math.inf, "MinusInfinite"
        return TailLimits(L, L, classification, self.which, direction)

    @property
    def under_formula(self) -> str:
        """The closed form of ``lambda_under`` as reports state it."""
        if self.kind == "p_laplacian":
            return "(p-1)/(p*R^p*(L_plus - min(0, L_minus)))"
        return "1/(2*Lambda*R^2*(L_plus - min(0, L_minus)))"

    def lambda_under(self, R: float, limits: TailLimits) -> float:
        """Nonexistence threshold on the radius-R ball from the limits of
        G(s)/s^e: below (e-1)/(e w R^e (L_plus - min(0, L_minus))) no
        bifurcation from the accumulation point occurs, that is, no
        sequence of positive radial solutions whose heights tend to it.
        inf when both limits vanish or the limsup is negative, finite
        (FinitePair) or not (MinusInfinite): no such bifurcation at any
        parameter, though solutions of other heights may still exist.  0
        when the limits diverge to +inf (PlusInfinite): no range is
        certified."""
        if limits.classification in ("BothZero", "MinusInfinite"):
            return math.inf
        if limits.classification == "PlusInfinite":
            return 0.0
        if not R > 0.0:
            raise DomainError(f"radius must be positive, got {R!r}")
        L_minus, L_plus = limits.L_minus, limits.L_plus
        if not (math.isfinite(L_minus) and math.isfinite(L_plus)):
            raise DomainError(
                f"closed-form threshold needs finite limits, got ({L_minus!r}, {L_plus!r})")
        if L_plus < 0.0 or (L_minus == 0.0 and L_plus == 0.0):
            return math.inf
        e = self.exponent
        return (e - 1.0) / (e * self.weight * R ** e * (L_plus - min(0.0, L_minus)))

    def bound(self, c: float, Gbar: float, R: float) -> float:
        """Per-solution bound: a radial solution of max height c on the
        radius-R ball has lambda >= (e-1) c^e / (e w R^e Gbar), with
        Gbar = Gbar(c) the range of G on [0, c] (``Gbar_many``).  Raises
        NonpositiveFbar when Gbar <= 0."""
        if not c > 0.0:
            raise DomainError(f"height must be positive, got {c!r}")
        if not R > 0.0:
            raise DomainError(f"radius must be positive, got {R!r}")
        if not Gbar > 0.0:
            raise NonpositiveFbar(
                f"range of {self.which} at height {c!r} is {Gbar!r}; no finite bound")
        e = self.exponent
        return (e - 1.0) * c ** e / (e * self.weight * R ** e * Gbar)


class ThresholdRow(NamedTuple):
    """One term of the existence sequence."""

    gamma: float
    delta: float
    C1: float
    C2: float
    lam: float


def _kappa(M: float, ell: str) -> float:
    # volume fraction the comparison argument must keep: 1/(1+M) when the
    # heights shrink to zero, half that when they grow without bound
    if ell == DIRECTION_ZERO:
        return 1.0 / (1.0 + M)
    return 1.0 / (2.0 * (1.0 + M))


def lambda_n_sequence(operator: Operator, pc: PrimitiveCalculus,
                      geom: BallGeometry, gammas: Sequence[float],
                      M: float = 0.0, beta: float = 1.0,
                      ell: str = DIRECTION_INFINITY) -> List[ThresholdRow]:
    """Existence sequence lambda_n = (C2/C1) gamma_n^p / Gbar(gamma_n).

    For each height gamma_n the boundary-layer width delta is chosen on a
    geometric grid to minimize lambda_n subject to C1 > 0, where

        C1 = kappa*|B| - |layer|,   C2 = (beta/p)*|B|/delta^p,

    with kappa = 1/(1+M) toward zero and 1/(2(1+M)) toward infinity, p the
    operator's exponent and Gbar its primitive range, taken at every height
    by one ``Operator.Gbar_many`` call: plain Fbar, or the sign-weighted
    one of the Pucci variant.
    """
    if M < 0.0 or not math.isfinite(M):
        raise DomainError(f"M must be finite and >= 0, got {M!r}")
    if not (beta > 0.0):
        raise DomainError(f"beta must be positive, got {beta!r}")
    if ell not in (DIRECTION_ZERO, DIRECTION_INFINITY):
        raise DomainError(f"unknown accumulation direction {ell!r}")

    p = operator.exponent
    N, R = geom.N, geom.R
    omega = geom.unit_ball_volume
    measure = geom.measure

    kappa = _kappa(M, ell)
    # C1(delta) > 0  <=>  (R - delta)^N > (1 - kappa) R^N
    delta_max = R * (1.0 - (1.0 - kappa) ** (1.0 / N))
    if not delta_max > 0.0:
        raise InfeasibleDelta(
            f"no boundary layer width in (0, {R!r}) keeps C1 positive (M={M!r})")
    grid = delta_max * np.geomspace(1e-4, 1.0 - 2.0 ** -12, DELTA_GRID_POINTS)

    C2_grid = (beta / p) * measure / grid ** p
    C1_grid = kappa * measure - omega * (R ** N - (R - grid) ** N)
    feasible = C1_grid > 0.0
    if not feasible.any():
        raise InfeasibleDelta("every candidate boundary layer width leaves C1 <= 0")
    ratio = np.where(feasible, C2_grid / np.where(feasible, C1_grid, 1.0), math.inf)
    # the delta dependence factorizes out of lambda_n, so one grid minimum serves
    j = int(np.argmin(ratio))

    for g in gammas:
        if not (g > 0.0 and math.isfinite(g)):
            raise DomainError(f"heights must be positive and finite, got {g!r}")
    rows: List[ThresholdRow] = []
    for g, fb in zip(gammas, operator.Gbar_many(pc, np.array(gammas, dtype=float))):
        fb = float(fb)
        if not fb > 0.0:
            raise NonpositiveFbar(
                f"primitive range at height {g!r} is {fb!r}; threshold undefined")
        rows.append(ThresholdRow(float(g), float(grid[j]), float(C1_grid[j]),
                                 float(C2_grid[j]), float(ratio[j] * g ** p / fb)))
    return rows


def lambda_bar_estimate(rows: Sequence[ThresholdRow]) -> Tuple[float, bool]:
    """Limit of the existence sequence: last-quartile mean plus trend flag.

    The flag reports whether the computed lambda_n are monotone, a sanity
    signal that the sequence has settled; the mean is never extrapolated.
    """
    if not rows:
        raise DomainError("cannot estimate a limit from an empty sequence")
    lams = np.array([r.lam for r in rows], dtype=float)
    k = max(1, len(lams) // 4)
    bar = float(lams[-k:].mean())
    d = np.diff(lams)
    tol = 1e-12 * np.abs(lams[:-1])
    monotone = bool(len(d) == 0 or np.all(d >= -tol) or np.all(d <= tol))
    return bar, monotone


#: points of each gap's first grid of Gbar(s)/s^e ...
HEIGHT_GRID_POINTS = 201
#: ... then rounds of local grids of this many points around the best
#: point, each spanning two spacings of the grid before it
HEIGHT_POLISH_POINTS = 21
HEIGHT_POLISH_ROUNDS = 8
#: the limit of G(s)/s^e at 0 reaches the first gap's best ratio when it
#: is within this share below it: near 0 the ratio of 1 - cos s to s^2
#: reads 1/2 + 1 ulp, so rounding alone would decide the comparison
FIRST_GAP_RTOL = 1e-12


def propose_gammas(pc: PrimitiveCalculus, zeros: ZeroSequence, operator: Operator,
                   count: Optional[int] = None) -> List[float]:
    """Candidate heights: maximizers of Gbar(s)/s^e between successive
    zeros, with e and Gbar the operator's (``Operator.Gbar_many``), so the
    heights are those of the operator's own existence sequence.

    Every gap is searched at once: the best of 201 evenly spaced points,
    then 8 rounds of 21 points around the best so far, each round's
    spacing a tenth of the last one's, all clipped to the gap less 1e-12
    of its width at each end.  Each round is one ``Gbar_many`` call over
    every gap, and the last spacing is 5e-11 of the gap's width.  Where
    the ratio peaks at an end of its gap (at the zero that ends a gap of
    f < 0, say), the height sits 1e-12 of the width inside it.

    The returned heights interleave the zeros; gaps whose best ratio is
    not positive are skipped.  Toward infinity the gap (0, alpha_1) is
    skipped as well when the limit of G(s)/s^e as s -> 0
    (``Operator.limits``) is at least its best ratio, within
    ``FIRST_GAP_RTOL``: the supremum is then approached at s -> 0 and is
    no height.  That covers f(0) > 0 and F ~ c s^m with m < e, where the
    ratio is unbounded at 0, and a ratio that tends to a finite limit
    from below (1 - cos s over s^2 tends to 1/2).  Canonical
    s (1 + sin s) at p = 2 keeps its first gap: its best ratio 0.936
    exceeds the limit 1/2.  Every other gap then has a positive ratio (G
    rises from 0, so each zero where f turns negative tops the running
    minimum), and n zeros still give n - 1 heights.  Results are ordered
    toward the accumulation point.
    """
    asc = list(zeros.ascending())
    if zeros.direction == DIRECTION_INFINITY:
        gaps = list(zip([0.0] + asc[:-1], asc))
    else:
        gaps = list(zip(asc[:-1], asc[1:]))[::-1]  # march toward 0
    if not gaps:
        return []
    a, b = np.array(gaps).T
    lo, hi = a + 1e-12 * (b - a), b - 1e-12 * (b - a)   # inside the gap
    e = operator.exponent

    def best(s):
        """Per gap (row of s), the point of largest ratio and that ratio."""
        s = np.clip(s, lo[:, None], hi[:, None])
        ratio = operator.Gbar_many(pc, s.ravel()).reshape(s.shape) / s ** e
        k = np.argmax(ratio, axis=1)
        rows = np.arange(len(s))
        return s[rows, k], ratio[rows, k]

    step = (hi - lo) / (HEIGHT_GRID_POINTS - 1)
    x, ratio = best(lo[:, None] + step[:, None] * np.arange(HEIGHT_GRID_POINTS))
    offsets = np.linspace(-1.0, 1.0, HEIGHT_POLISH_POINTS)
    for _ in range(HEIGHT_POLISH_ROUNDS):
        x, ratio = best(x[:, None] + step[:, None] * offsets)
        step = step * 2.0 / (HEIGHT_POLISH_POINTS - 1)
    if (zeros.direction == DIRECTION_INFINITY
            and operator.limits(pc.nl, DIRECTION_ZERO).L_plus
            >= ratio[0] * (1.0 - FIRST_GAP_RTOL)):
        x, ratio = x[1:], ratio[1:]
    out = [float(g) for g, r in zip(x, ratio) if r > 0.0]
    return out if count is None else out[:count]


def estimate_M(pc: PrimitiveCalculus, gammas: Sequence[float]) -> float:
    """Smallest constant with -min F on [0, gamma] <= M * F(gamma) sampled.

    Zero when F never dips below 0 on the sampled heights.
    """
    for g in gammas:
        if not (g > 0.0):
            raise DomainError(f"heights must be positive, got {g!r}")
    worst = 0.0
    F, lo, _ = pc.extrema_many(np.array(gammas, dtype=float))
    for g, Fg, low in zip(gammas, F.tolist(), lo.tolist()):
        dip = max(0.0, -low)
        if dip == 0.0:
            continue
        if not Fg > 0.0:
            raise DomainError(
                f"F({g!r}) = {Fg!r} <= 0 while F dips below zero; no finite "
                "constant bounds the dip at this height")
        worst = max(worst, dip / Fg)
    return worst


@dataclass(frozen=True)
class ThresholdReport:
    """Both thresholds for one nonlinearity/operator pair, with provenance.

    ``lambda_under`` is the closed-form nonexistence threshold (may be 0
    when the limits diverge to +inf and no range is certified, or inf in
    the degenerate cases); ``lambda_bar`` the existence sequence limit.
    """

    lambda_under: float
    lambda_bar: float
    rows: Tuple[ThresholdRow, ...]
    M: float
    limits: TailLimits
    operator: Operator
    geometry: BallGeometry
    beta: float
    direction: str
    monotone: bool

    def __post_init__(self):
        if self.lambda_under < 0.0 or math.isnan(self.lambda_under):
            raise DomainError(f"lambda_under must be >= 0, got {self.lambda_under!r}")
        if self.lambda_bar < 0.0 or math.isnan(self.lambda_bar):
            raise DomainError(f"lambda_bar must be >= 0, got {self.lambda_bar!r}")
        for r in self.rows:
            if not (r.C1 > 0.0 and r.C2 > 0.0 and r.lam > 0.0):
                raise DomainError(f"invalid sequence row {r!r}")
        if (math.isfinite(self.lambda_under) and math.isfinite(self.lambda_bar)
                and self.lambda_under > self.lambda_bar * (1.0 + ORDER_TOL)):
            raise DomainError(
                f"threshold ordering violated: lambda_under={self.lambda_under!r} "
                f"> lambda_bar={self.lambda_bar!r}")

    def to_json(self) -> dict:
        kappa_formula = ("1/(1+M)" if self.direction == DIRECTION_ZERO
                         else "1/(2*(1+M))")
        return {
            "lambda_under": extended_real(self.lambda_under),
            "lambda_bar": extended_real(self.lambda_bar),
            "lambda_bar_monotone": self.monotone,
            "M": self.M,
            "beta": self.beta,
            "direction": self.direction,
            "operator": self.operator.to_json(),
            "geometry": {"N": self.geometry.N, "R": self.geometry.R},
            "limits": self.limits.to_json(),
            "sequence": [
                {"gamma": r.gamma, "delta": r.delta, "C1": r.C1,
                 "C2": r.C2, "lambda": r.lam}
                for r in self.rows
            ],
            "formulas": {
                "lambda_under": self.operator.under_formula,
                "lambda_n": "(C2/C1)*gamma^p/Fbar(gamma)",
                "C1": f"kappa*|B| - |layer|, kappa = {kappa_formula}",
                "C2": "(beta/p)*|B|/delta^p",
                "lambda_bar": "mean of the last quartile of lambda_n",
            },
        }


def compute_thresholds(operator: Operator, pc: PrimitiveCalculus,
                       geom: BallGeometry, direction: str,
                       gammas: Optional[Sequence[float]] = None,
                       count: int = 12, M: Optional[float] = None,
                       beta: float = 1.0) -> ThresholdReport:
    """Assemble the full report: limits, both thresholds, and the sequence.

    ``operator`` gives the exponent e, the limits of G(s)/s^e and
    lambda_under (``Operator.lambda_under``) and the primitive range of the
    sequence.  ``gammas`` defaults to maximizers of the operator's own
    Gbar(s)/s^e between the first ``count + 1`` zeros of f
    (``propose_gammas``); ``M`` defaults to the sampled dip constant.
    """
    limits = operator.limits(pc.nl, direction)
    under = operator.lambda_under(geom.R, limits)

    if gammas is None:
        zeros = find_zeros(pc.nl, count + 1)
        gammas = propose_gammas(pc, zeros, operator, count=count)
    if not gammas:
        raise DomainError("no usable heights: every zero gap had Fbar <= 0")
    if M is None:
        M = estimate_M(pc, gammas)

    rows = lambda_n_sequence(operator, pc, geom, gammas, M=M, beta=beta,
                             ell=direction)
    bar, monotone = lambda_bar_estimate(rows)
    return ThresholdReport(under, bar, tuple(rows), float(M), limits,
                           operator, geom, float(beta), direction, monotone)
