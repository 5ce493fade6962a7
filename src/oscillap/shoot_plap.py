"""Radial shooting: first-zero location, diagnostics and diagrams.

The Dirichlet problem on a ball is solved by integrating the radial
equation outward from the center at unit parameter and height c, locating
the first radius rho with v = 0, and rescaling: u(r) = v(rho r / R) solves
the problem on the radius-R ball with lambda = (rho/R)^e, e the operator's
rescaling exponent.  A scan over c yields the bifurcation diagram lambda(c)
whose level sets are the solutions at a given parameter.

One shooting path serves both radial operators.  A shot config holds
one operator's ODE: ``ShootConfig`` here for the p-Laplacian,
``PucciShootConfig`` in ``shoot_pucci`` for the maximal Pucci operator.
Each supplies its origin series, its right-hand side on (lanes,) arrays,
its events with their end-or-restart rules and its w -> v' map, and names
its ``thresholds.Operator``, which owns the rest (the rescaling exponent,
the primitives and the per-solution bound); ``shoot``, ``shoot_batch``,
the necessary-conditions audit, the diagram rows, the CSV and the
lambda-star refinement are shared.  Every shot runs on one integrator,
``_rk.integrate_batch``: ``shoot`` is a batch of one height.

At N = 1 a diagram does not shoot.  The radial equation is autonomous
there, so the first zero of every height is the time map (``time_map``),
a quadrature accurate to about 1e-13 relative where f is smooth: the rows
and the lambda-star refinement of either operator take rho, the outcome
and lambda from it.  At N = 1 ``tol_ode`` and ``event_tol`` therefore
control only ``shoot`` and ``shoot_batch`` (the ``shoot`` and
``pucci-shoot`` commands), and ``r_max`` still marks a height whose first
zero lies beyond it as HorizonExceeded.  An N = 1 row's
``energy_residual`` is the time map's relative self-check gap (its
Kronrod against its Gauss sums, with rounding), so the diagram audit's
energy-residual tolerance bounds it, and a height the quadrature cannot
resolve fails the audit instead of reporting a wrong lambda.  An N = 1
Pucci row's ``q_sign_changes`` is the number of sign changes of f below c
(above the bounce, for a Bounced row), and 0 at Lambda = 1.

The p-Laplacian state is (v, w, z) with w = |v'|^{p-2} v' the flux (the
equation is smooth in w even where the operator degenerates at v' = 0)
and z the accumulated path term of the energy identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import (TYPE_CHECKING, ClassVar, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple, Union)

import numpy as np

from ._rk import Event, brentq, integrate_batch
from .errors import (
    DomainError,
    EmptyGrid,
    NonpositiveFbar,
    NotAZeroHit,
    StalledAtCriticalPoint,
)
from .nonlinearity import Nonlinearity, ZeroSequence
from .primitives import (_SLICE, _WK, _XK, PrimitiveCalculus, _bisect, _halve,
                         _kronrod, _row_sums)
from .thresholds import Operator

if TYPE_CHECKING:
    from .shoot_pucci import PucciShootConfig

#: |f(c)| at or below this (scaled) means the trajectory never leaves c
STALL_TOL = 1e-12
#: slack the audits allow in the sign and area conditions on F
AUDIT_TOL = 1e-8


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

    #: turning points a shot may pass through before NonConvergence
    max_restarts: ClassVar[int] = 200
    #: whether results and rows report the restarts as q sign changes
    reports_switches: ClassVar[bool] = False

    def __post_init__(self):
        Operator.p_laplacian(self.p)   # validates p
        _check_controls(self)

    @property
    def operator(self) -> Operator:
        return Operator.p_laplacian(self.p)

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

    def system(self, nl: Nonlinearity):
        """(right-hand side, events) of the radial equation in (v, w, z),
        on (lanes,) radii and (components, lanes) states for
        ``integrate_batch``.

        The events are v = 0 (the first zero, which ends the shot) and
        w = 0 (a turning point: a bounce where f(v) <= 0 there, otherwise
        integration continues through the tangency).
        """
        lam = self.lambda_shoot
        q = 1.0 / (self.p - 1.0)
        pq = 1.0 + q  # p/(p-1)
        nm1 = self.N - 1
        f_of = nl.eval_many   # f(0) below 0 already

        def rhs(r, y):
            v, w = y[0], y[1]
            aw = np.abs(w)
            # at p = 2 the flux is the slope: copysign(|w|, w) is w
            vp = w if q == 1.0 else np.copysign(aw ** q, w)
            return (vp, -lam * f_of(v) - nm1 * w / r, nm1 * aw ** pq / r)
        return rhs, [Event(lambda t, y: y[0], direction=-1),
                     Event(lambda t, y: y[1], direction=0,
                           ends=lambda t, y: f_of(y[0]) <= 0.0)]


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
class HorizonExceeded:
    """No zero and no turning point before r_max."""

    r_reached: float
    kind: ClassVar[str] = "HorizonExceeded"


Outcome = Union[HitZero, Bounced, HorizonExceeded]


@dataclass
class Diagnostics:
    """The necessary conditions audited along one zero-hitting shot."""

    residual: float        # normalized worst violation of the energy relation
    min_slack: float       # worst pointwise slack of that relation
    bound_slack: float     # lambda on the ball minus the per-solution bound
    F_at_max_ok: bool
    area_condition_ok: bool


class HeightPrimitives(NamedTuple):
    """What a diagram row and its audit take from the primitives at one
    height c: F(c), the operator's own primitive G (``Operator.primitive``:
    F_Lambda at its weight, F itself at weight 1) at c with its range
    Gbar(c) and its max Gmax on [0, c], and the operator's per-solution
    bound (nan where Gbar(c) <= 0).
    ``Fbar`` is Gbar, by the name the diagram rows give it."""

    F: float
    Fbar: float
    bound: float
    G: float
    Gmax: float

    @classmethod
    def many(cls, op: Operator, pc: PrimitiveCalculus, cs: Sequence[float],
             R: float) -> List[HeightPrimitives]:
        """The primitives of ``op`` at each height c on the radius-R ball,
        from one ``extrema_many`` call (and one ``F_many`` call unless G is
        F); the bound stays one Python-float call per height."""
        cs = [float(c) for c in cs]
        s = np.array(cs, dtype=float)
        _, extrema_many = op.primitive(pc)
        G, lo, hi = (x.tolist() for x in extrema_many(s))
        F = G if op.weight == 1.0 else pc.F_many(s).tolist()
        out = []
        for c, f, g, low, high in zip(cs, F, G, lo, hi):
            try:
                b = op.bound(c, g - low, R)
            except NonpositiveFbar:
                b = math.nan
            out.append(cls(f, g - low, b, g, high))
        return out

    @classmethod
    def at(cls, op: Operator, pc: PrimitiveCalculus, c: float,
           R: float) -> HeightPrimitives:
        """The one-point ``many``."""
        return cls.many(op, pc, [c], R)[0]


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
    diagnostics: Optional[Diagnostics] = None
    q_sign_changes: int = 0  # diffusion switches; 0 unless the operator reports them


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
    The one-height ``shoot_batch``; raises StalledAtCriticalPoint where it
    yields None.
    """
    [res] = shoot_batch(cfg, [cfg.c], nl)
    if res is None:
        raise StalledAtCriticalPoint(cfg.c, nl.eval(cfg.c))
    return res


def shoot_batch(cfg, heights: Sequence[float],
                nl: Nonlinearity) -> Iterator[Optional[ShootResult]]:
    """One shot per height, all heights advancing as lanes of one batch.

    ``cfg`` (either operator) gives everything but the height.  Yields
    one result per height, in order, and None where f(c) vanishes (to
    STALL_TOL) and the trajectory never leaves c; a caller that audits and
    drops each trajectory never holds all of them.  Each lane starts on
    the operator's symmetric origin series (the (N-1)/r term is singular
    at r = 0), records every accepted step and watches the operator's
    events: the first zero ends the shot as HitZero, any other ending
    event as Bounced, and a restarting event is stepped onto exactly and
    integrated on from, at most ``cfg.max_restarts`` times.  A lane's
    steps do not depend on the other lanes (``integrate_batch``).
    """
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

    rhs, events = cfg.system(nl)
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


def _ball_lambda(cfg, rho: float, R: float) -> float:
    """lambda_shoot (rho/R)^e: the parameter on the radius-R ball of the
    profile whose first zero at unit parameter is rho."""
    return cfg.lambda_shoot * (rho / R) ** cfg.operator.exponent


def rescale_to_ball(res: ShootResult, R: float) -> float:
    """Parameter on the radius-R ball for this trajectory's profile.

    The rescaled profile u(r) = v(rho r / R) keeps the same maximum c and
    solves the problem at lambda = lambda_shoot * (rho/R)^e, with e the
    operator's rescaling exponent (``res.config.operator.exponent``).
    """
    if not isinstance(res.outcome, HitZero):
        raise NotAZeroHit(f"cannot rescale a {res.outcome.kind} trajectory")
    if not R > 0.0:
        raise DomainError(f"radius must be positive, got {R!r}")
    lam = _ball_lambda(res.config, res.outcome.rho, R)
    res.lambda_rescaled = lam
    return lam


#: the 5-point Gauss rule on [0, 1] (weights summing to 2) that sums g
#: over each gap between neighbouring Kronrod nodes, at most 0.075 q of
#: the panel's range in s (0.15 at p = 2): where the 10-point rule
#: resolves g on the whole panel, five points resolve it on such a gap;
#: the literals are numpy's 5-point Gauss-Legendre rule, bit for bit
_XGAP = 0.5 * (1.0 + np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                               0.5384693101056831, 0.906179845938664]))
_WGAP = np.array([0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
                  0.4786286704993663, 0.23692688505618928])
#: a time-map panel is accepted once its Kronrod and Gauss sums agree to
#: this share of the Kronrod sum, or to rounding
TIME_MAP_TOL = 1e-13


class TimeMap(NamedTuple):
    """The first zero of one N = 1 height from the time map (``time_map``)."""

    outcome: str    # HitZero, Bounced, HorizonExceeded or Stalled
    rho: float      # first-zero radius; nan when Bounced or Stalled
    gap: float      # relative gap of the Kronrod and Gauss sums behind rho
    switches: int   # sign changes of f passed before the zero or the bounce
    panels: int     # quadrature panels kept, of g and of the time integral
    depth: int      # deepest bisection of a panel between split points
    resolved: bool  # False where a panel was kept only at a limit


def _weighted(nl: Nonlinearity, w: float):
    """g = G' at many points: f at weight 1, else f^+ - f^-/w^2."""
    if w == 1.0:
        return nl.eval_many
    w2 = w * w

    def g(s):
        fv = nl.eval_many(s)
        return np.where(fv >= 0.0, fv, fv / w2)
    return g


def _time_map_panels(k, err, rounding, kept):
    """``_kronrod``'s panels for ``_bisect``: accepted at TIME_MAP_TOL of
    |K| or at rounding, their gap the larger of err and rounding."""
    ok = (err <= TIME_MAP_TOL * np.abs(k)) | (err <= rounding)
    return k, np.maximum(err, rounding), ok, kept


def time_map(cfg, heights: Sequence[float], nl: Nonlinearity,
             zeros: Sequence[float] = ()) -> List[TimeMap]:
    """``shoot`` at N = 1 without shooting: every height's first zero from
    the time map, all heights vectorized together.

    ``cfg`` is either operator's N = 1 shot config; its own height is not
    used.  At N = 1 the radial equation conserves (e-1)/(e w) |v'|^e +
    lam G(v), with e, w and G the operator's exponent, weight and
    primitive (``thresholds.Operator``), so the first zero is

        rho = ((e-1)/(e lam w))^(1/e) integral_0^c ds / D(s)^(1/e),
        D(s) = G(c) - G(s) = integral_s^c g,  g = G' = f or f^+ - f^-/w^2,

    the classical time map (Laetsch 1970); for Pucci (e = 2, w = Lambda)
    it is the p = 2 time map of F_Lambda over sqrt(Lambda).  A height is
    Stalled where ``shoot`` stalls, Bounced where D(s) <= 0 for some
    s < c (v' returns to 0 first), HorizonExceeded where rho > r_max, and
    HitZero otherwise.  The time to a bounce is not computed, so a bounce
    past r_max is still Bounced.  ``switches`` counts the sign changes of
    f above the zero or the bounce where w > 1 (Pucci's diffusion
    switches) and is 0 at w = 1.

    D is never the difference of two primitive values, which cancels for
    large c.  Panels run between c, the ``zeros`` below it, the sign
    changes and kinks of f and 0, so g is smooth and of one sign on each.
    First each panel's integral of g is resolved (21-point Kronrod sum
    against its embedded 10-point Gauss sum, bisecting where they
    disagree), and D at the panel ends is their sum from c.  D is monotone
    on each panel, so those ends decide a bounce.  Then ds / D^(1/e) is
    integrated in t, with s = c - t^q and q = e/(e-1), which removes the
    endpoint singularity.  D at each Kronrod node is D at its panel's near
    end plus g summed gap by gap between the nodes, and panels are
    bisected until the two sums agree.  A zero of f just below c needs
    panels graded toward it, and the split at (c - zero)^(1/q) starts that
    grading.

    ``gap`` sums each panel's disagreement, or its rounding level where
    that is larger, over the integral (plus, for a g panel kept at a
    limit, its disagreement over the smallest D).  The rounding level
    counts the rounding of f itself: eps times the height's largest |g|,
    and eps |s| |g'| from rounding s, summed into D from c.  A panel still
    unresolved at a limit of ``primitives._bisect`` (MAX_BISECTIONS
    bisections, or MAX_ROW_PANELS extra panels left in its height) is
    kept, its disagreement in the gap, and the height is marked
    unresolved.
    Each height's arithmetic depends on that height alone, so it gets the
    same bits alone or in any grid.
    """
    if cfg.N != 1:
        raise DomainError(f"the time map needs N = 1, got N = {cfg.N}")
    cs = np.array([float(c) for c in heights])
    if not np.all(cs > 0.0):
        raise DomainError(f"height must be positive, got {cs[~(cs > 0.0)][0]!r}")
    op = cfg.operator
    e, w = op.exponent, op.weight
    q = e / (e - 1.0)
    g = _weighted(nl, w)
    out: List[TimeMap] = [TimeMap("Stalled", math.nan, math.nan, 0, 0, 0, True)
                          for _ in cs]
    live = np.array([abs(nl.eval(c)) > STALL_TOL * max(1.0, c) for c in cs.tolist()],
                    dtype=bool)
    c_row = cs[live]   # the heights that leave c, one row each
    K = c_row.size
    if not K:
        return out
    top = float(c_row.max())
    changes = np.array(nl.sign_change_points(top), dtype=float)
    splits = np.unique(np.concatenate([
        np.asarray(list(zeros), dtype=float), changes,
        np.asarray(nl.kink_points(0.0, top), dtype=float)]))
    splits = np.concatenate(([0.0], splits[splits > 0.0]))
    # row k: panels from c down through the m_k splits below it to 0
    m = np.searchsorted(splits, c_row) - 1
    row = np.repeat(np.arange(K), m + 1)
    j = np.arange(row.size) - np.repeat(np.cumsum(m + 1) - (m + 1), m + 1)
    above = np.append(splits, math.inf)[m[row] - j + 1]
    first = {"row": row, "lo": splits[m[row] - j],
             "hi": np.where(j == 0, c_row[row], above)}

    # 1. the integral of g over each panel [lo, hi], resolved
    def g_nodes(f):
        # from the midpoint, not from the ends as ``_kronrod_nodes`` does:
        # the rows keep their bits
        half = 0.5 * (f["hi"] - f["lo"])
        mid = 0.5 * (f["hi"] + f["lo"])
        return g(mid[:, None] + half[:, None] * _XK), half, mid

    def g_panels(f):
        gv, half, mid = g_nodes(f)
        # g at each node is off by up to eps times the height's largest
        # |g| (1 + sin s near -1 loses the rest) and eps |s| |g'|
        variation = np.abs(np.diff(gv, axis=1)).sum(axis=1)
        noise = 2.0 * np.abs(half) * f["scale"] + np.abs(mid) * variation
        return _time_map_panels(*_kronrod(gv, half, noise), variation)

    n = row.size   # each height's largest |g| on the nodes of its split panels
    peak = np.concatenate([np.abs(g_nodes({k: v[i:i + _SLICE]
                                           for k, v in first.items()})[0]).max(axis=1)
                           for i in range(0, n, _SLICE)])
    scale = np.maximum.reduceat(peak, np.searchsorted(row, np.arange(K)))
    first["scale"] = scale[row]
    a = _bisect(g_panels, _halve, first, np.zeros(n, dtype=int))

    # D and the variation of g at the panel ends, summed from c; a bounce
    # where D reaches 0
    order = np.lexsort((-a.fields["hi"], a.fields["row"]))
    row, lo, hi = (a.fields[k][order] for k in ("row", "lo", "hi"))
    capped = a.capped[order]
    count = np.bincount(row, minlength=K)
    pos = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)

    def from_c(values):
        """Sums from c to the panel ends, one row of the table a height:
        column j + 1 ends at the far end of the height's j-th panel."""
        table = np.zeros((K, int(count.max()) + 1))
        table[row, pos + 1] = values
        return np.cumsum(table, axis=1)

    D = from_c(a.value[order])
    D_far, D_near = D[row, pos + 1], D[row, pos]
    V_near = from_c(a.kept[order])[row, pos]
    down = count.copy()   # each height's first panel where D reaches 0
    np.minimum.at(down, row[D_far <= 0.0], pos[D_far <= 0.0])
    bounced = down < count
    cut = np.where(bounced, lo[np.cumsum(count) - count + np.minimum(down, count - 1)],
                   0.0)
    switches = (np.zeros(K, dtype=int) if w == 1.0 else
                np.searchsorted(changes, c_row) - np.searchsorted(changes, cut, "right"))
    # an error in a g panel moves D at every s below it, and the smallest
    # such D bounds the relative error it brings into rho
    below = np.minimum.accumulate(np.where(np.arange(D.shape[1]) <= count[:, None],
                                           D, math.inf)[:, ::-1], axis=1)[:, ::-1]
    weight = e * below[row, pos + 1]
    gap = np.bincount(row, np.divide(a.err[order], weight, out=np.zeros(row.size),
                                     where=capped & (weight > 0.0)), K)
    resolved = np.bincount(row, capped, K) == 0
    panels = count.copy()
    depth = np.zeros(K, dtype=int)
    np.maximum.at(depth, row, a.depth[order])

    # 2. the time integral of each height that does not bounce
    def t_panels(f):
        half = 0.5 * (f["t_hi"] - f["t_lo"])
        t = 0.5 * (f["t_hi"] + f["t_lo"])[:, None] + half[:, None] * _XK
        # D at each node: D at the near end plus g summed gap by gap
        ends = np.concatenate([(f["t_lo"] ** q)[:, None], t ** q], axis=1)
        L = np.diff(ends, axis=1)
        gv = g((f["c"][:, None] - ends[:, :-1])[:, :, None] - L[:, :, None] * _XGAP)
        Dn = f["D"][:, None] + np.cumsum(
            0.5 * L * np.einsum("ijk,k->ij", gv, _WGAP), axis=1)
        # ... and the variation of g from c to each node, gap by gap
        Vn = f["V"][:, None] + np.cumsum(
            np.abs(np.diff(gv[:, :, 0], axis=1, prepend=gv[:, :1, 0])), axis=1)
        phi = q * t ** (q - 1.0) * Dn ** (-1.0 / e)
        # D sums g over [s, c], each value off by up to eps (scale + s |g'|)
        noise = _row_sums(np.abs(phi) * (f["scale"][:, None] * ends[:, 1:]
                                         + f["c"][:, None] * Vn) / (e * Dn), _WK)
        center = _XK.size // 2
        return _time_map_panels(*_kronrod(phi, half, np.abs(half) * noise),
                                np.stack([Dn[:, center], Vn[:, center]], axis=1))

    def t_halves(f, center):
        mid = 0.5 * (f["t_lo"] + f["t_hi"])   # the center node: D, V known
        return {"t_lo": np.concatenate([f["t_lo"], mid]),
                "t_hi": np.concatenate([mid, f["t_hi"]]),
                "D": np.concatenate([f["D"], center[:, 0]]),
                "V": np.concatenate([f["V"], center[:, 1]])}

    keep = ~bounced[row]
    total = np.zeros(K)
    if keep.any():
        c = c_row[row[keep]]
        b = _bisect(t_panels, t_halves, {
            "row": row[keep], "c": c, "D": D_near[keep], "V": V_near[keep],
            "scale": scale[row[keep]], "t_lo": (c - hi[keep]) ** (1.0 / q),
            "t_hi": (c - lo[keep]) ** (1.0 / q)}, a.depth[order][keep])
        # bincount adds each height's panels in t order, whatever the
        # other heights, so a height's sums have the same bits alone
        order = np.lexsort((b.fields["t_lo"], b.fields["row"]))
        row = b.fields["row"][order]
        total = np.bincount(row, b.value[order], K)
        gap += np.divide(np.bincount(row, b.err[order], K), total,
                         out=np.zeros(K), where=total > 0.0)
        resolved &= np.bincount(row, b.capped[order], K) == 0
        panels += np.bincount(row, minlength=K)
        np.maximum.at(depth, row, b.depth[order])
    coef = ((e - 1.0) / (e * cfg.lambda_shoot * w)) ** (1.0 / e)
    for k, i in enumerate(np.flatnonzero(live).tolist()):
        if bounced[k]:
            out[i] = TimeMap("Bounced", math.nan, math.nan, int(switches[k]),
                             int(panels[k]), int(depth[k]), bool(resolved[k]))
            continue
        rho, row_gap = coef * float(total[k]), float(gap[k])
        if not math.isfinite(row_gap):
            row_gap, resolved[k] = math.inf, False
        out[i] = TimeMap("HitZero" if rho <= cfg.r_max else "HorizonExceeded",
                         rho, row_gap, int(switches[k]), int(panels[k]),
                         int(depth[k]), bool(resolved[k]))
    return out


def check_necessary_conditions(res: ShootResult, pc: PrimitiveCalculus,
                               R: float,
                               at: Optional[HeightPrimitives] = None
                               ) -> Diagnostics:
    """Audit a zero-hitting trajectory of either operator against the
    necessary conditions on a solution of max height c.

    The energy relation, with e, w and G the operator's exponent, weight
    and primitive (``thresholds.Operator``) and lam the shooting parameter,

        (e-1)/(e w) |v'|^e + z  =  lam (G(c) - G(v))   along the samples,

    is the p-Laplacian energy identity (z its accumulated path term) and,
    as ``<=`` with z = 0, the Pucci decay inequality.  The residual is its
    worst violation relative to 1 + |rhs|: both ways for the identity, only
    lhs > rhs for the inequality.  Also audited: the sign and area
    conditions G(c) >= 0 and G(c) >= max of G on [0, c] (up to AUDIT_TOL),
    and the slack of lambda on the radius-R ball over the per-solution
    bound (nan where Gbar(c) <= 0).  Fills ``res.diagnostics``; ``at``
    holds the primitives at the trajectory's height when the caller has
    them.
    """
    lam = rescale_to_ball(res, R)
    op, c = res.config.operator, res.config.c
    G_many, _ = op.primitive(pc)
    if at is None:
        at = HeightPrimitives.at(op, pc, c, R)
    e = op.exponent
    v = np.clip(res.v, 0.0, None)  # event overshoot may leave v at -event_tol
    lhs = np.abs(res.vp) ** e * ((e - 1.0) / e) / op.weight + res.z
    rhs = res.config.lambda_shoot * (at.G - G_many(v))
    slack = rhs - lhs
    violation = np.abs(slack) if op.kind == "p_laplacian" else np.maximum(0.0, -slack)
    d = Diagnostics(float(np.max(violation / (1.0 + np.abs(rhs)))),
                    float(slack.min()), float(lam - at.bound),
                    bool(at.G >= -AUDIT_TOL),
                    bool((at.G - at.Gmax) >= -AUDIT_TOL))
    res.diagnostics = d
    return d


@dataclass(frozen=True)
class DiagramRow:
    """One grid height of a scan.  For the Pucci operator ``Fbar_c`` and
    ``lower_bound`` use the Lambda-weighted primitive, ``energy_residual``
    is the normalized violation of the decay inequality, and
    ``q_sign_changes`` counts the diffusion switches (None otherwise).  At
    N = 1 ``energy_residual`` is the time map's self-check gap and
    ``q_sign_changes`` the sign changes of f the profile passes."""

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
    """One solution of lambda(c) = level located inside a branch."""

    c: float
    lam: float
    rho: float
    zero_interval_index: int
    level: float


@dataclass(frozen=True)
class UnresolvedBracket:
    """Heights between which a crossing of the level is expected but was
    not located."""

    c_lo: float
    c_hi: float
    zero_interval_index: int
    level: float


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
    its own height is not used.  At N = 1 every lambda comes from the time
    map (``time_map``), and ``counts`` tallies its work: rows, refinement
    heights, panels kept, the deepest bisection and the unresolved
    heights.  It is None at N >= 2, where every lambda comes from a shot.
    """

    rows: Tuple[DiagramRow, ...]
    zeros: ZeroSequence
    nl: Nonlinearity
    pc: PrimitiveCalculus
    op: Union[ShootConfig, PucciShootConfig]
    R: float
    counts: Optional[dict] = None

    @classmethod
    def scan(cls, op, nl: Nonlinearity, R: float, c_grid: Sequence[float],
             zeros: ZeroSequence,
             pc: Optional[PrimitiveCalculus] = None) -> BifurcationDiagram:
        """One row per grid height, in grid order: at N = 1 from the time
        map of every height at once, otherwise from one shot per height,
        all heights in one lockstep batch.

        Heights where f vanishes are recorded as Stalled rows rather than
        failing the scan.  ``pc`` defaults to the primitives of ``nl``.
        """
        if len(c_grid) == 0:
            raise EmptyGrid("a scan needs at least one height")
        if pc is None:
            pc = PrimitiveCalculus(nl)
        heights = [float(c) for c in c_grid]
        ats = HeightPrimitives.many(op.operator, pc, heights, R)
        counts = None
        if op.N == 1:
            maps = time_map(op, heights, nl, zeros.alphas)
            counts = {"rows": 0, "refinement_heights": 0, "panels": 0,
                      "deepest_bisection": 0, "unresolved_heights": []}
            _tally(counts, "rows", heights, maps)
            fields = ((m.outcome, m.rho, m.gap, m.switches) for m in maps)
        else:
            fields = _shot_fields(op, heights, nl, ats, pc, R)
        rows = tuple(_diagram_row(c, *row, at, zeros, R, op)
                     for c, row, at in zip(heights, fields, ats))
        return cls(rows, zeros, nl, pc, op, R, counts)

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
        """lambda on the ball at each height, from the time map at N = 1
        and from one batch of shots otherwise; nan without a zero, and
        where the time map is unresolved."""
        if self.op.N == 1:
            maps = time_map(self.op, heights, self.nl, self.zeros.alphas)
            if self.counts is not None:
                _tally(self.counts, "refinement_heights", heights, maps)
            return np.array([_ball_lambda(self.op, m.rho, self.R)
                             if m.outcome == "HitZero" and m.resolved else math.nan
                             for m in maps])
        return np.array([
            rescale_to_ball(res, self.R)
            if res is not None and isinstance(res.outcome, HitZero) else math.nan
            for res in shoot_batch(self.op, heights, self.nl)])

    def _level_brackets(self, lambda_star: float, found: List[Crossing]):
        """Where adjacent zero-hitting rows bracket the level.

        Rows exactly on the level go to ``found``.  Returns the brackets of
        rows in one zero gap, and the pole rows: (row, zero, -1 when the row
        lies below the zero or +1 above it) for each row below the level
        whose neighbour across a zero lies above it.
        """
        asc = self.zeros.ascending()
        brackets: List[_Bracket] = []
        pole_rows = []
        for i0, i1 in self.branches():
            for i in range(i0, i1):
                row = self.rows[i]
                g0 = row.lam - lambda_star
                if g0 == 0.0:
                    found.append(Crossing(row.c, row.lam, row.rho,
                                          row.zero_interval_index, lambda_star))
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
        return brackets, pole_rows

    @staticmethod
    def _pole_heights(row, a: float, sgn: int) -> List[float]:
        """Heights a -/+ a 10^-j between a pole row and its zero, row side first."""
        return [a * (1.0 + sgn * d) for d in POLE_OFFSETS
                if (a * (1.0 + sgn * d) - row.c) * sgn < 0.0]

    def _pole_brackets(self, lambda_star: float, rows, lams: dict,
                       unresolved: List[UnresolvedBracket]) -> List[_Bracket]:
        """Brackets between rows below the level and heights next to their zeros.

        ``rows`` are the pole rows of ``_level_brackets`` and ``lams`` the
        lambda of each of their ``_pole_heights``.  The first such height
        (from the row toward the zero) that hits zero above the level closes
        the bracket, the last one below the level (or the row) opens it.
        """
        out = []
        for row, a, sgn in rows:
            path = [(row.c, 1.0 - lambda_star / row.lam)]
            for c in self._pole_heights(row, a, sgn):
                if not math.isnan(lams[c]):
                    path.append((c, 1.0 - lambda_star / lams[c]))
            up = next((k for k, (_, g) in enumerate(path) if g > 0.0), None)
            if up is None:
                unresolved.append(UnresolvedBracket(
                    min(row.c, a), max(row.c, a), row.zero_interval_index,
                    lambda_star))
                continue
            out.append(_Bracket.on_path(path, up - 1))
        return out

    def solutions_at(self, lambda_star,
                     unresolved: Optional[List[UnresolvedBracket]] = None
                     ) -> List[Crossing]:
        """All heights where the diagram crosses the level lambda_star.

        ``lambda_star`` is one level or a sequence of levels.  The result
        holds each level's crossings by height, level after level, each
        tagged with its level; ``unresolved`` (when given) receives the
        unresolved brackets the same way.  Adjacent zero-hitting rows of
        one zero gap whose lambdas bracket the level are refined, all
        levels together: each round shoots the heights proposed by every
        open bracket of every level in one batch (see ``_Bracket``), and
        each bracket's proposals depend on its own shots only, so a level
        gets the same crossings alone or with others.
        Refinement works on g = 1 - lambda_star / lambda, which stays smooth
        up to the poles of lambda(c).  The first estimate interpolates the
        bracketing grid rows and their neighbours (while lambda stays
        monotone), and the lambda of the best iterate of the last round is
        reported, without a further shot.  A zero alpha of f between
        adjacent rows is a pole of lambda(c), so such rows never form a
        bracket; instead each of them below the level is bracketed against
        the first height alpha -/+ alpha 10^-j (j = 2..7) whose shot hits
        zero above the level.  Those heights ride in the first round's
        batch, and their brackets join from the second round on.  Brackets
        that cannot be closed that way, or whose refinement shots all miss
        zero, are reported as unresolved instead of failing.
        """
        levels = [float(x) for x in np.atleast_1d(lambda_star)]
        for level in levels:
            if not level > 0.0:
                raise DomainError(f"level must be positive, got {level!r}")
        found: List[List[Crossing]] = [[] for _ in levels]
        missed: List[List[UnresolvedBracket]] = [[] for _ in levels]
        late: List[list] = [[] for _ in levels]  # (round, rank, bracket) missed in refinement
        live = []    # (level index, rank among the level's brackets, bracket)
        poles = []   # (level index, its pole rows, its first pole rank)
        for k, level in enumerate(levels):
            brackets, pole_rows = self._level_brackets(level, found[k])
            live += [(k, rank, b) for rank, b in enumerate(brackets)]
            if pole_rows:
                poles.append((k, pole_rows, len(brackets)))
        # two levels may share a pole row: shoot each height once
        cands = list(dict.fromkeys(c for _, rows, _ in poles for pole in rows
                                   for c in self._pole_heights(*pole)))
        while live or cands:
            proposals = [b.proposals() for _, _, b in live]
            heights = cands + [c for hs in proposals for c in hs]
            lams = iter(self._lambdas(heights) if heights else ())
            if cands:   # the first round: close the pole brackets
                known = dict(zip(cands, lams))
                for k, rows, first in poles:
                    closed = self._pole_brackets(levels[k], rows, known, missed[k])
                    live += [(k, first + i, b) for i, b in enumerate(closed)]
                cands = []
            going = []
            for (k, rank, b), hs in zip(live, proposals):
                shots = [(c, 1.0 - levels[k] / lam, lam)
                         for c, lam in zip(hs, lams) if not math.isnan(lam)]
                b.rounds += 1
                if not shots:
                    late[k].append((b.rounds, rank, UnresolvedBracket(
                        b.c_lo, b.c_hi, self.zeros.interval_index(b.c_lo),
                        levels[k])))
                    continue
                c, _, lam = min(shots, key=lambda x: abs(x[1]))
                if b.update(shots, REFINE_RTOL):
                    rho = self.R * (lam / self.op.lambda_shoot) ** (
                        1.0 / self.op.operator.exponent)
                    found[k].append(Crossing(float(c), float(lam), float(rho),
                                             self.zeros.interval_index(float(c)),
                                             levels[k]))
                elif b.rounds < REFINE_MAX_ITER:
                    going.append((k, rank, b))
            live = going + live[len(proposals):]
        if unresolved is not None:
            # a level alone meets its brackets' misses round by round, in
            # rank order
            for k, entries in enumerate(late):
                unresolved += missed[k] + [
                    u for _, _, u in sorted(entries, key=lambda e: e[:2])]
        return [x for xs in found for x in sorted(xs, key=lambda x: x.c)]


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
    return brentq(poly, a, b, xtol=1e-15 * max(1.0, abs(b)), rtol=1e-15)


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
        self.rounds = 0   # refinement rounds taken

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


def _tally(counts: dict, key: str, heights: Sequence[float],
           maps: Sequence[TimeMap]) -> None:
    """Add the time maps of ``heights`` to a diagram's ``counts`` under
    ``key`` ("rows" or "refinement_heights")."""
    counts[key] += len(maps)
    counts["panels"] += sum(m.panels for m in maps)
    counts["deepest_bisection"] = max([counts["deepest_bisection"]]
                                      + [m.depth for m in maps])
    counts["unresolved_heights"] += [float(c) for c, m in zip(heights, maps)
                                     if not m.resolved]


def _shot_fields(op, heights: Sequence[float], nl: Nonlinearity,
                 ats: Sequence[HeightPrimitives], pc: PrimitiveCalculus,
                 R: float):
    """(outcome, rho, energy residual, switches) of each height's shot,
    all heights in one batch; the residual is the audit's
    (``check_necessary_conditions``)."""
    for res, at in zip(shoot_batch(op, heights, nl), ats):
        if res is None:
            yield "Stalled", math.nan, math.nan, 0
        elif isinstance(res.outcome, HitZero):
            yield ("HitZero", res.outcome.rho,
                   check_necessary_conditions(res, pc, R, at).residual,
                   res.q_sign_changes)
        else:
            yield res.outcome.kind, math.nan, math.nan, res.q_sign_changes


def _diagram_row(c: float, outcome: str, rho: float, residual: float,
                 switches: int, at: HeightPrimitives, zeros: ZeroSequence,
                 R: float, op) -> DiagramRow:
    """CSV row of one height of the shot config ``op`` from its outcome,
    first zero, energy residual and switches, and its primitives; the sign
    and area conditions are audited on the primitives."""
    idx = zeros.interval_index(c)
    switches = switches if op.reports_switches else None
    if outcome != "HitZero":
        return DiagramRow(c, outcome, math.nan, math.nan, at.F, at.Fbar,
                          at.bound, math.nan, None, idx, switches)
    return DiagramRow(c, "HitZero", rho, _ball_lambda(op, rho, R), at.F,
                      at.Fbar, at.bound, residual,
                      bool(at.G >= -AUDIT_TOL and at.G - at.Gmax >= -AUDIT_TOL),
                      idx, switches)


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


def clustered_heights(zeros: ZeroSequence, c_min: Optional[float] = None,
                      c_max: Optional[float] = None) -> np.ndarray:
    """Height grid refined geometrically toward each zero of f.

    Near a zero alpha the diagram spikes, so crossings of large levels
    live at heights alpha (1 +/- 10^-k); the grid places those points for
    k = 2..7 on both sides plus 12 uniform heights per gap, and never
    lands exactly on a zero.
    """
    asc = zeros.ascending()
    pts: List[float] = []
    for a in asc:
        for k in range(2, 8):
            off = a * 10.0 ** -k
            pts.append(a - off)
            pts.append(a + off)
    edges = [0.0] + list(asc)
    for lo, hi in zip(edges[:-1], edges[1:]):
        pts.extend(np.linspace(lo, hi, 14)[1:-1])
    arr = np.unique(np.array(pts, dtype=float))
    if c_min is not None:
        arr = arr[arr >= c_min]
    if c_max is not None:
        arr = arr[arr <= c_max]
    return arr
