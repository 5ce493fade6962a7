"""Existence and nonexistence thresholds for radial problems on balls.

Two families of constants are computed from the primitive calculus of a
nonlinearity f:

* a closed-form nonexistence threshold ``lambda_under`` built from the
  liminf/limsup of F(s)/s^p toward the accumulation point, below which no
  positive radial solution on the ball can exist, and

* an existence sequence ``lambda_n = (C2/C1) * gamma_n^p / Fbar(gamma_n)``
  whose limit ``lambda_bar`` certifies parameter values with infinitely
  many solutions nearby.

Both are reported together in a :class:`ThresholdReport` so the ordering
``lambda_under <= lambda_bar`` can be audited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, InfeasibleDelta, NonpositiveFbar
from .nonlinearity import (
    DIRECTION_INFINITY,
    DIRECTION_ZERO,
    ZeroSequence,
    find_zeros,
)
from .primitives import LimitEstimate, PrimitiveCalculus, extended_real

#: relative slack allowed when auditing lambda_under <= lambda_bar
ORDER_TOL = 1e-12

#: number of candidate boundary-layer widths tried per gamma_n
DELTA_GRID_POINTS = 64


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
    which is F at w = 1; ``primitive``, ``Gbar``), the limits of
    G(s)/s^e (``limits``), and the two closed forms the nonexistence
    argument gives in (e, w, G): ``lambda_under`` and the per-solution
    ``bound``.  The primitives describe f alone; this is the one place
    that knows e and w.
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
        """G in ``pc`` as (G at many points, (min, max) of G on [0, s]):
        ``F_Lambda_many`` and ``extrema`` at Lambda = w."""
        w = self.weight
        return (lambda s: pc.F_Lambda_many(s, w)), (lambda s: pc.extrema(s, w))

    def Gbar(self, pc: PrimitiveCalculus, s: float) -> float:
        """Range of G on [0, s]: G(s) - min over [0, s] of G
        (``PrimitiveCalculus.Fbar`` at w = 1)."""
        lo, _ = pc.extrema(s, self.weight)
        return pc.F_Lambda(s, self.weight) - lo

    def limits(self, pc: PrimitiveCalculus,
               direction: Optional[str] = None) -> LimitEstimate:
        """Estimated liminf/limsup of G(s)/s^e toward ``direction``, by
        default the nonlinearity's (``PrimitiveCalculus.estimate_limits``)."""
        G_many, _ = self.primitive(pc)
        return pc.estimate_limits(G_many, self.exponent, self.which,
                                  direction or pc.nl.direction)

    @property
    def under_formula(self) -> str:
        """The closed form of ``lambda_under`` as reports state it."""
        if self.kind == "p_laplacian":
            return "(p-1)/(p*R^p*(L_plus - min(0, L_minus)))"
        return "1/(2*Lambda*R^2*(L_plus - min(0, L_minus)))"

    def lambda_under(self, R: float, limits: LimitEstimate) -> float:
        """Nonexistence threshold on the radius-R ball from the limits of
        G(s)/s^e: below (e-1)/(e w R^e (L_plus - min(0, L_minus))) no
        positive radial solution exists.  inf when both limits vanish or
        the limsup is negative (no positive solution for any parameter), and
        0 when a limit diverges (no window is certified)."""
        if limits.classification == "BothZero":
            return math.inf
        if limits.classification != "FinitePair":
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
        Gbar = Gbar(c) the range of G on [0, c] (``Gbar``).  Raises
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
    operator's exponent and Gbar its primitive range (``Operator.Gbar``):
    plain Fbar, or the sign-weighted one of the Pucci variant.
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

    rows: List[ThresholdRow] = []
    for g in gammas:
        if not (g > 0.0 and math.isfinite(g)):
            raise DomainError(f"heights must be positive and finite, got {g!r}")
        fb = operator.Gbar(pc, g)
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


class ScalarMinimum(NamedTuple):
    """Result of :func:`minimize_scalar`: the minimizer, f there, f calls."""

    x: float
    fun: float
    nfev: int


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_MAX_EVALS = 500


def minimize_scalar(func: Callable[[float], float], bounds: Tuple[float, float],
                    xatol: float) -> ScalarMinimum:
    """Minimize func on [a, b] by Brent's bounded search.

    Golden-section steps with parabolic steps where the parabola through
    the three best points is trusted (Brent 1973, ch. 5), in the step order
    of scipy's ``minimize_scalar(method="bounded")``, so minimizers and
    call counts match it.  Stops when the bracket around the best point
    shrinks to about ``xatol`` or after 500 calls.
    """
    a, b = bounds
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:   # try a parabola through xf, nfc and fulc
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_EVALS:
            break
    return ScalarMinimum(xf, fx, num)


def propose_gammas(pc: PrimitiveCalculus, zeros: ZeroSequence, operator: Operator,
                   count: Optional[int] = None) -> List[float]:
    """Candidate heights: maximizers of Gbar(s)/s^e between successive
    zeros, with e and Gbar the operator's (``Operator.Gbar``), so the
    heights are those of the operator's own existence sequence.

    One bounded Brent search (golden section with parabolic steps) runs per
    gap between consecutive zeros of f (plus the gap from 0 for zeros
    marching to infinity), so the returned heights interleave the zeros.
    Gaps whose best ratio is not positive are skipped.  Results are ordered
    toward the accumulation point.
    """
    asc = list(zeros.ascending())
    if zeros.direction == DIRECTION_INFINITY:
        gaps = list(zip([0.0] + asc[:-1], asc))
    else:
        gaps = list(zip(asc[:-1], asc[1:]))[::-1]  # march toward 0

    e = operator.exponent
    out: List[float] = []
    for lo, hi in gaps:
        if count is not None and len(out) >= count:
            break
        a = lo + 1e-12 * (hi - lo) if lo == 0.0 else lo
        g = minimize_scalar(lambda s: -operator.Gbar(pc, s) / s ** e, (a, hi),
                            xatol=1e-10 * hi).x
        if operator.Gbar(pc, g) > 0.0:
            out.append(g)
    return out


def estimate_M(pc: PrimitiveCalculus, gammas: Sequence[float]) -> float:
    """Smallest constant with -min F on [0, gamma] <= M * F(gamma) sampled.

    Zero when F never dips below 0 on the sampled heights.
    """
    worst = 0.0
    for g in gammas:
        if not (g > 0.0):
            raise DomainError(f"heights must be positive, got {g!r}")
        dip = max(0.0, -pc.running_min(g))
        if dip == 0.0:
            continue
        Fg = pc.F(g)
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
    when the limits diverge and no window is certified, or inf in the
    degenerate cases); ``lambda_bar`` the existence sequence limit.
    """

    lambda_under: float
    lambda_bar: float
    rows: Tuple[ThresholdRow, ...]
    M: float
    limits: LimitEstimate
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
    limits = operator.limits(pc, direction)
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
