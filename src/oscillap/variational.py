"""Discrete radial energy minimization for the truncated problem.

The existence mechanism works on one truncation level at a time: cut the
nonlinearity to zero above a zero alpha_n, minimize the (now coercive)
energy over radial profiles vanishing at r = R, and certify nontriviality
by showing a ramp comparison function already has negative energy.  The
minimizer of the truncated problem is an honest solution of the original
one because it never leaves [0, alpha_n].

Energies here are per unit solid angle: the angular factor is a positive
constant that shifts no minimizer and flips no sign, and dropping it makes
the one-dimensional surrogate (N = 1 on [0, 1]) integrate to the textbook
value directly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dptsv

# Not called here (the descent is projected Newton); the name stays because
# perfbench/tracing.py spans it in this module.
from scipy.optimize import minimize as _scipy_minimize  # noqa: F401

from .errors import DomainError, NonConvergence
from .nonlinearity import Nonlinearity, ZeroSequence
from .primitives import PrimitiveCalculus

DEFAULT_TOL_STAT = 1e-8
DEFAULT_MAX_ITER = 500


class TruncatedNonlinearity:
    """f frozen to f(0) below zero and cut to 0 above the level alpha_n.

    Continuity at alpha_n holds because the level is a zero of f; the
    constructor refuses levels where it is not.
    """

    def __init__(self, base: Nonlinearity, alpha_n: float,
                 pc: Optional[PrimitiveCalculus] = None,
                 zero_tolerance: float = 1e-9):
        if not alpha_n > 0.0:
            raise DomainError(f"truncation level must be positive, got {alpha_n!r}")
        f_alpha = base.eval(alpha_n)
        if abs(f_alpha) > zero_tolerance * max(1.0, alpha_n):
            raise DomainError(
                f"truncation level {alpha_n!r} is not a zero: f = {f_alpha!r}")
        self.base = base
        self.alpha_n = float(alpha_n)
        self.pc = pc if pc is not None else PrimitiveCalculus(base, p=2.0)
        self._F_alpha = self.pc.F(self.alpha_n)
        self._f0 = base.f0

    def eval_many(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        inside = self.base.eval_many(np.clip(s, 0.0, self.alpha_n))
        out = np.where(s < 0.0, self._f0, inside)
        return np.where(s > self.alpha_n, 0.0, out)

    def eval(self, s: float) -> float:
        return float(self.eval_many(np.array([s]))[0])

    def F_many(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        inside = self.pc.F_many(np.clip(s, 0.0, self.alpha_n))
        out = np.where(s < 0.0, self._f0 * s, inside)
        return np.where(s > self.alpha_n, self._F_alpha, out)

    def F(self, s: float) -> float:
        return float(self.F_many(np.array([s]))[0])


def _default_phi(p: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    def phi(r, xi):
        return np.abs(xi) ** p / p
    return phi


def _default_phi_prime(p: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    def phi_prime(r, xi):
        # |xi|^(p-1) sign(xi): the form |xi|^(p-2) xi is inf * 0 at xi = 0
        # for p < 2
        return np.sign(xi) * np.abs(xi) ** (p - 1.0) if p != 2.0 else xi
    return phi_prime


@dataclass
class Potential:
    """Gradient potential Phi(r, xi) with two-sided p-power bounds.

    The growth bounds, Phi(r, 0) = 0, and midpoint convexity in xi are
    checked on a seeded sample at construction; they are sampled
    hypotheses, not proofs.
    """

    phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    alpha_bound: float
    beta_bound: float
    p: float
    phi_prime: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    sample_radius: float = 1.0
    validation_seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.alpha_bound <= self.beta_bound):
            raise DomainError("growth bounds need 0 < alpha <= beta")
        if not self.p > 1.0:
            raise DomainError(f"exponent must exceed 1, got {self.p!r}")
        rng = np.random.default_rng(self.validation_seed)
        r = rng.uniform(0.0, self.sample_radius, 48)
        xi = rng.uniform(-10.0, 10.0, 48)
        vals = np.asarray(self.phi(r, xi), dtype=float)
        lo = self.alpha_bound / self.p * np.abs(xi) ** self.p
        hi = self.beta_bound / self.p * np.abs(xi) ** self.p
        pad = 1e-12 * (1.0 + hi)
        if np.any(vals < lo - pad) or np.any(vals > hi + pad):
            raise DomainError("potential escapes its p-power growth bounds")
        zero = np.asarray(self.phi(r, np.zeros_like(r)), dtype=float)
        if np.any(np.abs(zero) > 1e-12):
            raise DomainError("potential must vanish at xi = 0")
        xi2 = rng.uniform(-10.0, 10.0, 48)
        mid = np.asarray(self.phi(r, 0.5 * (xi + xi2)), dtype=float)
        avg = 0.5 * (vals + np.asarray(self.phi(r, xi2), dtype=float))
        if np.any(mid > avg + pad):
            raise DomainError("potential fails midpoint convexity in xi")

    @classmethod
    def p_laplacian(cls, p: float, validation_seed: int = 0) -> "Potential":
        return cls(_default_phi(p), 1.0, 1.0, p,
                   phi_prime=_default_phi_prime(p),
                   validation_seed=validation_seed)

    def slope(self, r: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """d Phi / d xi, analytic when provided, else central differences."""
        if self.phi_prime is not None:
            return np.asarray(self.phi_prime(r, xi), dtype=float)
        h = 1e-6 * (1.0 + np.abs(xi))
        return (np.asarray(self.phi(r, xi + h), dtype=float)
                - np.asarray(self.phi(r, xi - h), dtype=float)) / (2.0 * h)


@dataclass
class GridFunction:
    """Nodal radial profile on 0 = r_0 < ... < r_J = R, zero at the boundary."""

    r: np.ndarray
    values: np.ndarray
    N: int
    p: float

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.r.ndim != 1 or len(self.r) < 2:
            raise DomainError("grid needs at least two nodes")
        if self.r[0] != 0.0 or np.any(np.diff(self.r) <= 0.0):
            raise DomainError("grid must increase strictly from 0")
        if self.values.shape != self.r.shape:
            raise DomainError("values and grid shapes differ")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("values must be finite")
        if self.values[-1] != 0.0:
            raise DomainError("boundary value must be exactly 0")

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def radial_grid(R: float, J: int, N: int = 1, delta: Optional[float] = None,
                grading: float = 2.0) -> np.ndarray:
    """J-cell grid on [0, R], graded finer toward R; optional node at R-delta.

    Ramps kink at R - delta, so placing a node there keeps the quadrature
    error clean; grading puts resolution where the ramps live.
    """
    if not (R > 0.0 and J >= 2):
        raise DomainError("need R > 0 and at least two cells")
    x = np.linspace(0.0, 1.0, J + 1)
    r = R * (1.0 - (1.0 - x) ** grading)
    r[0], r[-1] = 0.0, R
    if delta is not None:
        if not 0.0 < delta < R:
            raise DomainError(f"delta must sit inside (0, R), got {delta!r}")
        knot = R - delta
        r = np.unique(np.append(r, knot))
        keep = np.ones(len(r), dtype=bool)
        near = np.abs(r - knot) < 1e-12 * R
        near[np.argmin(np.abs(r - knot))] = False
        keep &= ~near
        r = r[keep]
    return r


def _cells(u: GridFunction):
    r, vals = u.r, u.values
    h = np.diff(r)
    rm = 0.5 * (r[1:] + r[:-1])
    um = 0.5 * (vals[1:] + vals[:-1])
    du = np.diff(vals) / h
    w = (r[1:] ** u.N - r[:-1] ** u.N) / u.N
    return h, rm, um, du, w


def assemble_energy(u: GridFunction, tn: TruncatedNonlinearity,
                    pot: Potential, lam: float) -> float:
    """Midpoint-rule energy per unit solid angle.

    Each cell contributes (Phi(r_mid, Du) - lam F_n(u_mid)) times the
    r^{N-1}-weighted cell measure, with Du the difference quotient.
    """
    if pot.p != u.p:
        raise DomainError(f"potential exponent {pot.p} != grid function {u.p}")
    _, rm, um, du, w = _cells(u)
    return float(np.sum((np.asarray(pot.phi(rm, du), dtype=float)
                         - lam * tn.F_many(um)) * w))


def _energy_gradient(vals: np.ndarray, grid_r: np.ndarray, N: int,
                     tn: TruncatedNonlinearity, pot: Potential,
                     lam: float) -> np.ndarray:
    """Gradient in the free nodes u_0..u_{J-1} (boundary node is fixed)."""
    h = np.diff(grid_r)
    rm = 0.5 * (grid_r[1:] + grid_r[:-1])
    um = 0.5 * (vals[1:] + vals[:-1])
    du = np.diff(vals) / h
    w = (grid_r[1:] ** N - grid_r[:-1] ** N) / N
    sl = pot.slope(rm, du) * w / h          # d(cell Phi term)/d(Du) * dDu/du
    fm = 0.5 * lam * tn.eval_many(um) * w   # d(cell F term)/d(u at either node)
    g = np.zeros(len(vals))
    g[:-1] -= sl
    g[1:] += sl
    g[:-1] -= fm
    g[1:] -= fm
    return g[:-1]


def energy_gradient(u: GridFunction, tn: TruncatedNonlinearity,
                    pot: Potential, lam: float) -> np.ndarray:
    return _energy_gradient(u.values, u.r, u.N, tn, pot, lam)


@dataclass
class MinimizeResult:
    """Winning iterate of the multi-start projected Newton descent.

    ``iterations`` counts the Newton steps the winning start took.
    """

    u: GridFunction
    energy: float
    residual: float
    iterations: int
    start_index: int
    active_lower: np.ndarray
    active_upper: np.ndarray
    energy_trace: List[float] = field(repr=False, default_factory=list)

    def to_json(self) -> dict:
        return {
            "grid": [float(x) for x in self.u.r],
            "values": [float(x) for x in self.u.values],
            "energy": self.energy,
            "residual": self.residual,
            "iterations": self.iterations,
            "start_index": self.start_index,
            "active_lower": [bool(b) for b in self.active_lower],
            "active_upper": [bool(b) for b in self.active_upper],
        }


def _cell_stiffness(grid_r: np.ndarray, N: int, pot: Potential,
                    vals: np.ndarray, floor: float) -> np.ndarray:
    """Second derivative of each cell's Phi term in either of its nodes.

    Cell i contributes Phi''(Du_i) w_i / h_i^2 times [[1, -1], [-1, 1]] to
    the Hessian.  Phi'' comes from central differences of the slope at
    max(|Du_i|, floor): degenerate potentials (p > 2) have zero curvature
    at Du = 0, so the floor keeps the probe off it.
    """
    h = np.diff(grid_r)
    rm = 0.5 * (grid_r[:-1] + grid_r[1:])
    w = (grid_r[1:] ** N - grid_r[:-1] ** N) / N
    xi = np.maximum(np.abs(np.diff(vals) / h), floor)
    step = 1e-6 * xi
    curv = (pot.slope(rm, xi + step) - pot.slope(rm, xi - step)) / (2.0 * step)
    return np.maximum(curv, 0.0) * w / h ** 2


def _node_scales(stiffness: np.ndarray) -> np.ndarray:
    """Hessian-diagonal scale of each free node's gradient entry.

    Gradient components at tiny graded cells are naturally huge (the
    curvature grows like w/h^2), so a raw max-norm target is unattainable
    there.  Dividing by the local second derivative turns each entry into
    a Newton step: the displacement that would zero the node's residual.
    That is comparable across the grid and across potentials.
    """
    d = np.zeros(len(stiffness) + 1)
    d[:-1] += stiffness
    d[1:] += stiffness
    return np.maximum(d[:-1], 1e-300)


def _masked_residual(vals: np.ndarray, g: np.ndarray, alpha_n: float,
                     scales: np.ndarray) -> float:
    """Max scaled |gradient| over nodes whose bound does not absorb the push."""
    free = np.abs(g) / scales
    at_low = (vals[:-1] <= 0.0) & (g > 0.0)
    at_high = (vals[:-1] >= alpha_n) & (g < 0.0)
    free[at_low | at_high] = 0.0
    return float(np.max(free)) if len(free) else 0.0


#: Armijo sufficient-decrease fraction and the backtracking limit
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 60
#: Levenberg shifts, in units of the node scales, tried until the shifted
#: free block is positive definite
_SHIFTS = (0.0,) + tuple(10.0 ** k for k in range(-3, 31))


def _hessian_bands(vals: np.ndarray, grid_r: np.ndarray, N: int,
                   tn: TruncatedNonlinearity, pot: Potential, lam: float,
                   stiffness: np.ndarray, floor: float):
    """Diagonal and off-diagonal of the energy Hessian in the free nodes.

    Cell i adds its stiffness times [[1, -1], [-1, 1]] and the source term
    -lam f'(u_mid) w/4 times [[1, 1], [1, 1]]; f' comes from central
    differences, since the Hessian only steers and stationarity is checked
    on the exact gradient.
    """
    h = np.diff(grid_r)
    rm = 0.5 * (grid_r[:-1] + grid_r[1:])
    w = (grid_r[1:] ** N - grid_r[:-1] ** N) / N
    um = 0.5 * (vals[1:] + vals[:-1])
    ds = 1e-6 * (1.0 + np.abs(um))
    fprime = (tn.eval_many(um + ds) - tn.eval_many(um - ds)) / (2.0 * ds)
    src = -0.25 * lam * fprime * w
    # singular potentials (p < 2) have unbounded curvature at Du = 0, which
    # the floor understates, and Newton steps on such a slope flip the sign
    # of Du instead of converging; below the floor the secant Phi'(Du)/Du,
    # whose quadratic lies above Phi there, steers instead
    du = np.abs(np.diff(vals) / h)
    xi = np.maximum(du, 1e-6 * floor)
    secant = pot.slope(rm, xi) / xi * w / h ** 2
    stiffness = np.where(du < floor, np.maximum(stiffness, secant), stiffness)
    diag = np.zeros(len(vals))
    diag[:-1] += stiffness + src
    diag[1:] += stiffness + src
    return diag[:-1], (src - stiffness)[:-1]


def _descend(start: np.ndarray, grid_r: np.ndarray, N: int, p: float,
             tn: TruncatedNonlinearity, pot: Potential, lam: float,
             tol_stat: float, max_iter: int):
    """Projected Newton descent from one start (Bertsekas 1982).

    Each cell couples only its two nodes, so the Hessian is tridiagonal
    (``_hessian_bands``).  Nodes within eps of a bound that the gradient
    pushes outward form the active set and take the scaled gradient step;
    the free block takes the Newton step, with a Levenberg shift grown
    until its LDL^T pivots are positive where the energy is nonconvex.
    Projected Armijo backtracking keeps the energy trace monotone; a step
    the shift shortened is stretched while the energy keeps falling.

    Returns (converged, values, energy, residual, iterations, trace);
    ``iterations`` counts Newton steps and the residual is the masked,
    scaled Euler-Lagrange gradient at the returned values.
    """
    alpha_n = tn.alpha_n
    # slope floor of the curvature probe, tied to the natural
    # displacement/length scale
    floor = 1e-3 * max(alpha_n / (grid_r[-1] - grid_r[0]), 1e-8)
    vals = np.clip(np.asarray(start, dtype=float), 0.0, alpha_n)
    vals[-1] = 0.0

    def energy(v):
        return assemble_energy(GridFunction(grid_r, v, N, p), tn, pot, lam)

    # the gradient scales with lambda, so the target does too
    tol_eff = tol_stat * max(1.0, lam)
    e = energy(vals)
    trace: List[float] = [e]
    nit = 0
    while True:
        g = _energy_gradient(vals, grid_r, N, tn, pot, lam)
        stiff = _cell_stiffness(grid_r, N, pot, vals, floor)
        scales = _node_scales(stiff)
        res = _masked_residual(vals, g, alpha_n, scales)
        if res <= tol_eff or nit >= max_iter:
            break
        x = vals[:-1]
        gap = float(np.max(np.abs(x - np.clip(x - g / scales, 0.0, alpha_n))))
        eps = min(1e-3 * alpha_n, gap)
        active = (((x <= eps) & (g > 0.0))
                  | ((x >= alpha_n - eps) & (g < 0.0)))
        free = ~active

        diag, off = _hessian_bands(vals, grid_r, N, tn, pot, lam, stiff, floor)
        off = np.where(free[:-1] & free[1:], off, 0.0)
        rhs = np.where(free, -g, 0.0)
        for mu in _SHIFTS:
            _, _, step, info = dptsv(np.where(free, diag + mu * scales, 1.0),
                                     off, rhs)
            if info == 0 and np.all(np.isfinite(step)):
                break
        else:
            step = -g / scales
        step[active] = -g[active] / scales[active]

        def armijo(t):
            trial = np.append(np.clip(x + t * step, 0.0, alpha_n), 0.0)
            e_trial = energy(trial)
            model = (t * float(np.dot(g[free], step[free]))
                     + float(np.dot(g[active], trial[:-1][active] - x[active])))
            return e_trial <= e + _ARMIJO * model, trial, e_trial

        t = 1.0
        for _ in range(_MAX_BACKTRACKS):
            ok, trial, e_trial = armijo(t)
            if ok:
                break
            t *= 0.5
        else:
            break  # no descent left at this precision
        if mu > 0.0 and t == 1.0:
            while True:
                ok, longer, e_longer = armijo(2.0 * t)
                if not (ok and e_longer < e_trial):
                    break
                t, trial, e_trial = 2.0 * t, longer, e_longer
        vals, e = trial, e_trial
        trace.append(e)
        nit += 1
    return res <= tol_eff, vals, e, res, nit, trace


def minimize(tn: TruncatedNonlinearity, pot: Potential, lam: float,
             grid: np.ndarray, N: int = 1,
             tol_stat: float = DEFAULT_TOL_STAT,
             max_iter: int = DEFAULT_MAX_ITER) -> MinimizeResult:
    """Box-constrained global-minimum surrogate over [0, alpha_n]^J.

    Runs the projected Newton descent from three starts (zero, a ramp at the
    truncation level, the half-level constant) and keeps the lowest
    converged energy, ties broken by start index.  The box projection is
    exact and legitimate: the continuous minimizer provably lies in it.
    """
    if lam < 0.0:
        raise DomainError(f"lambda must be nonnegative, got {lam!r}")
    grid_r = np.asarray(grid, dtype=float)
    R = grid_r[-1]
    alpha_n = tn.alpha_n
    p = pot.p

    ramp = np.minimum(1.0, (R - grid_r) / (0.25 * R)) * alpha_n
    ramp[-1] = 0.0
    half = np.full(len(grid_r), 0.5 * alpha_n)
    half[-1] = 0.0
    starts = [np.zeros(len(grid_r)), ramp, half]

    winners = []
    failures = []
    for si, s0 in enumerate(starts):
        ok, vals, e, res, it, trace = _descend(s0, grid_r, N, p, tn, pot,
                                               lam, tol_stat, max_iter)
        (winners if ok else failures).append((e, si, vals, res, it, trace))
    if not winners:
        e, si, vals, res, it, _ = min(failures)
        raise NonConvergence(
            f"no start reached stationarity within {max_iter} iterations "
            f"(best energy {e!r} from start {si})",
            best=vals, residual=res)
    e, si, vals, res, it, trace = min(winners, key=lambda wv: (wv[0], wv[1]))
    u = GridFunction(grid_r, vals, N, p)
    g = _energy_gradient(vals, grid_r, N, tn, pot, lam)
    return MinimizeResult(
        u, e, res, it, si,
        active_lower=(vals[:-1] <= 0.0) & (g > 0.0),
        active_upper=(vals[:-1] >= alpha_n) & (g < 0.0),
        energy_trace=trace)


def comparison_function(gamma_n: float, delta: float, grid: np.ndarray,
                        N: int = 1, p: float = 2.0) -> GridFunction:
    """Plateau-and-ramp profile gamma_n min(1, (R - r)/delta) on the grid."""
    grid_r = np.asarray(grid, dtype=float)
    R = grid_r[-1]
    if not 0.0 < delta < R:
        raise DomainError(f"delta must sit inside (0, R), got {delta!r}")
    if not gamma_n > 0.0:
        raise DomainError(f"plateau height must be positive, got {gamma_n!r}")
    vals = gamma_n * np.minimum(1.0, (R - grid_r) / delta)
    vals[-1] = 0.0
    return GridFunction(grid_r, vals, N, p)


def negativity_test(tn: TruncatedNonlinearity, pot: Potential, lam: float,
                    gamma_n: float, delta: float, grid: np.ndarray,
                    N: int = 1) -> bool:
    """True iff the ramp at gamma_n already has negative energy at lam."""
    w = comparison_function(gamma_n, delta, grid, N=N, p=pot.p)
    return assemble_energy(w, tn, pot, lam) < 0.0


@dataclass(frozen=True)
class SequenceItem:
    n: int
    alpha_n: float
    gamma_n: float
    sup_norm: float
    energy: float
    zero_interval_index: int
    trivial: bool
    result: MinimizeResult


SEQUENCE_CSV_COLUMNS = ("n", "alpha_n", "sup_norm", "energy", "interval_index")


def run_sequence(nl: Nonlinearity, pot: Potential, lam: float,
                 zeros: ZeroSequence, gammas: Sequence[float],
                 grid: np.ndarray, K: int, N: int = 1,
                 pc: Optional[PrimitiveCalculus] = None,
                 lambda_bar: Optional[float] = None,
                 tol_stat: float = DEFAULT_TOL_STAT,
                 max_iter: int = DEFAULT_MAX_ITER) -> List[SequenceItem]:
    """Minimize at the first K truncation levels and track the sup norms.

    Truncation levels walk the zeros toward the accumulation target (up
    for divergent height sequences, down toward 0 for vanishing ones), so
    the reported sup norms exhibit the trend the theory predicts.
    """
    if K < 1:
        raise DomainError("need at least one truncation level")
    if len(gammas) < K:
        raise DomainError(f"need {K} plateau heights, got {len(gammas)}")
    if lambda_bar is not None and not lam > lambda_bar:
        warnings.warn(
            f"lambda = {lam!r} is not above the existence threshold "
            f"{lambda_bar!r}; nontriviality is not guaranteed", stacklevel=2)
    if pc is None:
        pc = PrimitiveCalculus(nl, p=pot.p)
    asc = zeros.ascending()
    if len(asc) < K:
        raise DomainError(f"need {K} zeros, got {len(asc)}")
    toward_zero = nl.direction == "zero"
    levels = asc[::-1][:K] if toward_zero else asc[:K]

    def one(n_idx: int) -> SequenceItem:
        alpha_n = float(levels[n_idx])
        tn = TruncatedNonlinearity(nl, alpha_n, pc=pc)
        mres = minimize(tn, pot, lam, grid, N=N, tol_stat=tol_stat,
                        max_iter=max_iter)
        sup = mres.u.sup_norm
        trivial = sup <= 1e-12 * max(1.0, alpha_n)
        # the zero profile lies in no oscillation interval; record 0
        idx = 0 if trivial else zeros.interval_index(sup)
        return SequenceItem(n_idx + 1, alpha_n, float(gammas[n_idx]), sup,
                            mres.energy, idx, trivial, mres)

    return [one(i) for i in range(K)]


def sequence_csv_lines(items: Sequence[SequenceItem]) -> List[str]:
    lines = [",".join(SEQUENCE_CSV_COLUMNS)]
    for it in items:
        lines.append(",".join([
            str(it.n), f"{it.alpha_n:.17g}", f"{it.sup_norm:.17g}",
            f"{it.energy:.17g}", str(it.zero_interval_index),
        ]))
    return lines
