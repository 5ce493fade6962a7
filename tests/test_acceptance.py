"""Acceptance suite: one test per shipped guarantee.

Each test is a self-contained witness of one advertised property, from
closed-form shooting oracles through the variational existence mechanism.
They run on desk-scale grids so the whole file stays under a couple of
minutes on one machine.
"""

import math

import numpy as np
import pytest

from oscillap import (
    BallGeometry,
    BifurcationDiagram,
    EnvelopeTimesOnePlusSin,
    GridFunction,
    HitZero,
    Operator,
    Potential,
    PowerTimesOnePlusSin,
    PrimitiveCalculus,
    PucciShootConfig,
    PureSine,
    ReciprocalOscillation,
    ShootConfig,
    TailLimits,
    TruncatedNonlinearity,
    assemble_energy,
    check_necessary_conditions,
    clustered_heights,
    compute_thresholds,
    find_zeros,
    lambda_n_sequence,
    minimize,
    propose_gammas,
    radial_grid,
    rescale_to_ball,
    shoot,
    shoot_batch,
)
from oscillap.variational import _energy_gradient

from helpers import negativity_test, tabulate

PI = math.pi
NL = PowerTimesOnePlusSin(1.0)          # f(s) = s (1 + sin s)
ZEROS = find_zeros(NL, 12)
ALPHA_3 = 5.5 * PI
LINEAR = tabulate(lambda s: s, 30.0, 30000)
CONSTANT = tabulate(lambda s: 1.0, 5.0, 50)
#: the p-Laplacian shot controls of the scans below
SCAN = ShootConfig(2.0, 1, 1.0, tol_ode=1e-8, event_tol=1e-10)


@pytest.fixture(scope="module")
def existence_scan():
    """Clustered-height diagram for the canonical instance, p=2, N=1, R=1."""
    pc = PrimitiveCalculus(NL)
    report = compute_thresholds(Operator.p_laplacian(2.0), pc,
                                BallGeometry(1, 1.0), "infinity")
    heights = clustered_heights(ZEROS, c_max=40.0)
    diag = BifurcationDiagram.scan(SCAN, NL, 1.0, heights, ZEROS, pc)
    return report, diag


@pytest.fixture(scope="module")
def nonexistence_scan():
    """Log-spaced scan of large heights, c in [10, 1e4]."""
    pc = PrimitiveCalculus(NL)
    grid = np.geomspace(10.0, 1e4, 240)
    diag = BifurcationDiagram.scan(SCAN, NL, 1.0, grid, ZEROS, pc)
    return pc, diag


def test_criterion_1_shooting_oracles():
    # p=2, N=1, f(u)=u: v = c cos r, first zero at pi/2
    res = shoot(ShootConfig(2.0, 1, 1.0, tol_ode=1e-10), LINEAR)
    assert isinstance(res.outcome, HitZero)
    assert abs(res.outcome.rho - PI / 2) <= 1e-7 * (PI / 2)

    # p=2, N=3, f=1: v = c - r^2/6, zero at sqrt(6)
    res = shoot(ShootConfig(2.0, 3, 1.0, tol_ode=1e-10), CONSTANT)
    assert isinstance(res.outcome, HitZero)
    assert abs(res.outcome.rho - math.sqrt(6.0)) <= 1e-7 * math.sqrt(6.0)

    # p=3, N=1, f=1: |v'|v' = -r, zero at (3/2)^(2/3)
    res = shoot(ShootConfig(3.0, 1, 1.0, tol_ode=1e-10), CONSTANT)
    rho_exact = 1.5 ** (2.0 / 3.0)
    assert isinstance(res.outcome, HitZero)
    assert abs(res.outcome.rho - rho_exact) <= 1e-6 * rho_exact


def test_criterion_2_energy_identity_across_scan():
    """Energy identity residual stays under 1e-6 on 500-point scans."""
    grid = np.linspace(0.5, 30.0, 500)
    for p in (2.0, 3.0):
        pc = PrimitiveCalculus(NL)
        for N in (1, 2, 3):
            op = ShootConfig(p, N, 1.0, tol_ode=1e-12, event_tol=1e-10)
            diag = BifurcationDiagram.scan(op, NL, 1.0, grid, ZEROS, pc)
            hits = [r for r in diag.rows if r.outcome == "HitZero"]
            assert hits, f"no solutions on the scan at p={p}, N={N}"
            worst = max(r.energy_residual for r in hits)
            assert worst <= 1e-6, f"p={p} N={N}: residual {worst:.2e}"


def test_criterion_3_solution_count_grows_with_lambda(existence_scan):
    """At lambda* = 10 lambda_bar the diagram yields >= 5 solutions whose
    max heights fall in 5 distinct zero gaps and increase toward infinity."""
    report, diag = existence_scan
    star = 10.0 * report.lambda_bar
    crossings = diag.solutions_at(star)
    assert len(crossings) >= 5

    heights = [x.c for x in crossings]
    assert heights == sorted(heights)
    asc = ZEROS.ascending()
    edges = [0.0] + list(asc)
    first_per_gap = {}
    for x in crossings:
        first_per_gap.setdefault(x.zero_interval_index, x)
        k = x.zero_interval_index
        assert edges[k - 1] < x.c <= edges[k]   # height sits in its labeled gap
        assert x.lam == pytest.approx(star, rel=1e-6)
    assert len(first_per_gap) >= 5
    picked = [first_per_gap[k].c for k in sorted(first_per_gap)]
    assert all(a < b for a, b in zip(picked, picked[1:]))


def test_criterion_4_nonexistence_threshold_respected(nonexistence_scan):
    """Both limits of F(s)/s^2 are exactly 1/2, so the threshold formula
    gives exactly 1, and every solution on [10, 1e4] sits above it and
    above the per-solution bound (p-1) c^p / (p R^p Fbar(c))."""
    plap = Operator.p_laplacian(2.0)
    halves = plap.limits(NL)
    assert (halves.L_minus, halves.L_plus) == (0.5, 0.5)
    assert plap.lambda_under(1.0, halves) == 1.0

    pc, diag = nonexistence_scan
    hits = [r for r in diag.rows if r.outcome == "HitZero"]
    assert len(hits) >= 200
    F, lo, _ = pc.extrema_many([r.c for r in hits])
    for r, Fbar in zip(hits, F - lo):
        assert r.lam >= 1.0 - 1e-6
        bound = (2.0 - 1.0) * r.c ** 2.0 / (2.0 * 1.0 * Fbar)
        assert r.lam >= bound - 1e-8
        assert r.lower_bound == pytest.approx(bound, rel=1e-12)


def test_criterion_5_necessary_conditions_hold(existence_scan,
                                               nonexistence_scan):
    """Sign and area conditions hold on every computed solution."""
    _, diag_a = existence_scan
    _, diag_b = nonexistence_scan
    hits = [r for d in (diag_a, diag_b) for r in d.rows
            if r.outcome == "HitZero"]
    assert len(hits) >= 300
    for r in hits:
        assert r.F_c >= -1e-8
        assert r.area_ok is True


def test_criterion_6_pucci_consistency():
    # Lambda = 1 collapses to the Laplacian: match p=2 shoots on 50 cases,
    # one batch of each operator per dimension
    rng = np.random.default_rng(20260819)
    cases = [(float(rng.uniform(0.5, 25.0)), int(rng.integers(1, 4)))
             for _ in range(50)]
    worst = 0.0
    for N in (1, 2, 3):
        heights = [c for c, n in cases if n == N]
        plap = shoot_batch(ShootConfig(2.0, N, 1.0, tol_ode=1e-11), heights, NL)
        pucci = shoot_batch(PucciShootConfig(1.0, N, 1.0, tol_ode=1e-11),
                            heights, NL)
        for a, b in zip(plap, pucci):
            assert isinstance(a.outcome, HitZero) and isinstance(b.outcome, HitZero)
            worst = max(worst, abs(a.outcome.rho - b.outcome.rho) / a.outcome.rho)
    assert worst <= 1e-7

    # the weighted decay inequality holds along every Lambda = 2 trajectory
    pcL = PrimitiveCalculus(NL)
    checked = 0
    for res in shoot_batch(PucciShootConfig(2.0, 2, 1.0, tol_ode=1e-10),
                           np.linspace(0.5, 25.0, 40), NL):
        if res is not None and isinstance(res.outcome, HitZero):
            d = check_necessary_conditions(res, pcL, 1.0)
            assert d.min_slack >= -1e-8
            checked += 1
    assert checked >= 30

    # threshold formulas coincide exactly at Lambda = 1, p = 2
    for R, Lm, Lp in [(1.0, 0.5, 0.5), (2.0, 0.5, 0.5),
                      (1.0, -0.25, 0.75), (3.0, 0.0, 2.0)]:
        limits = TailLimits(Lm, Lp, "FinitePair")
        assert Operator.pucci(1.0).lambda_under(R, limits) == \
            Operator.p_laplacian(2.0).lambda_under(R, limits)


def test_criterion_7_variational_mechanism():
    # quadratic convergence on the constant-source oracle, E -> -lambda^2/6
    tn = TruncatedNonlinearity(CONSTANT, 40.0, zero_tolerance=math.inf)
    pot = Potential.p_laplacian(2.0)
    errs = []
    for J in (32, 64, 128):
        res = minimize(tn, pot, 1.0, radial_grid(1.0, J, grading=1.0), N=1)
        assert res.residual <= 1e-8
        errs.append(abs(res.energy + 1.0 / 6.0))
    assert math.log2(errs[0] / errs[1]) >= 1.9
    assert math.log2(errs[1] / errs[2]) >= 1.9

    # canonical instance truncated at the third zero, lambda = 2 lambda_3
    pc = PrimitiveCalculus(NL)
    zeros8 = find_zeros(NL, 8)
    gammas = propose_gammas(pc, zeros8, Operator.p_laplacian(2.0), count=6)
    row = lambda_n_sequence(Operator.p_laplacian(2.0), pc, BallGeometry(1, 1.0),
                            gammas)[2]
    lam = 2.0 * row.lam
    grid = radial_grid(1.0, 200, delta=row.delta)
    tnc = TruncatedNonlinearity(NL, ALPHA_3, pc=pc)
    assert negativity_test(tnc, pot, lam, row.gamma, row.delta, grid)
    res = minimize(tnc, pot, lam, grid, N=1)
    assert res.u.sup_norm > 0.01 * ALPHA_3        # nontrivial
    assert float(res.u.values.min()) >= 0.0       # trapped in the box,
    assert float(res.u.values.max()) <= ALPHA_3   # exactly

    # the minimizer's height shot back through the ODE recovers lambda
    bridge = shoot(ShootConfig(2.0, 1, res.u.sup_norm, tol_ode=1e-10), NL)
    lam_hat = rescale_to_ball(bridge, 1.0)
    assert abs(lam_hat - lam) <= 0.02 * lam


def test_criterion_8_primitive_calculus():
    # closed forms at 1e-8 relative
    pc_power = PrimitiveCalculus(NL)
    s = np.linspace(0.05, 40.0, 200)
    want = s * s / 2 + np.sin(s) - s * np.cos(s)
    np.testing.assert_allclose(pc_power.F_many(s), want, rtol=1e-8)

    unit = PrimitiveCalculus(
        EnvelopeTimesOnePlusSin(np.array([[0.0, 1.0], [50.0, 1.0]])))
    assert unit.F(2 * PI) == pytest.approx(2 * PI, rel=1e-8)
    assert unit.F(PI / 3) == pytest.approx(PI / 3 + 0.5, rel=1e-8)

    cos_tab = PrimitiveCalculus(tabulate(math.cos, 7.0, 60001))
    F, lo, _ = cos_tab.extrema_many([2 * PI])
    assert F[0] - lo[0] == pytest.approx(1.0, rel=1e-8)   # Fbar(2 pi)

    sine = PrimitiveCalculus(PureSine())
    assert sine.F_Lambda_many([2 * PI], 2.0)[0] == pytest.approx(1.5, rel=1e-8)
    # min over t in [0, pi] of the integral of sin from t to 2 pi
    _, _, hi = sine.extrema_many([PI])
    assert sine.F(2 * PI) - hi[0] == pytest.approx(-2.0, abs=1e-8)

    # threshold ordering lambda_under <= lambda_bar on both model instances
    rep = compute_thresholds(Operator.p_laplacian(2.0), pc_power,
                             BallGeometry(1, 1.0), "infinity")
    assert 0.0 < rep.lambda_under <= rep.lambda_bar < math.inf

    rec = PrimitiveCalculus(ReciprocalOscillation(2.0))
    rep2 = compute_thresholds(Operator.p_laplacian(1.5), rec, BallGeometry(1, 1.0),
                              "zero", count=6)
    assert 0.0 < rep2.lambda_under <= rep2.lambda_bar < math.inf


def test_criterion_9_gradient_check():
    """Discrete gradient vs central differences at 100 random states."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(100):
        p = 2.0 if trial % 2 == 0 else 3.0
        J = int(rng.integers(8, 20))
        grid = radial_grid(1.0, J, grading=float(rng.uniform(1.0, 2.0)))
        alpha = float(rng.uniform(2.0, 20.0))
        vals = rng.uniform(0.15 * alpha, 0.85 * alpha, size=len(grid))
        vals[-1] = 0.0
        tn = TruncatedNonlinearity(NL, alpha, zero_tolerance=math.inf)
        pot = Potential.p_laplacian(p)
        lam = float(rng.uniform(0.5, 30.0))
        g = _energy_gradient(vals, grid, 1, tn, pot, lam)
        step = 1e-6 * max(1.0, alpha)
        fd = np.zeros_like(g)
        for i in range(len(g)):
            vp, vm = vals.copy(), vals.copy()
            vp[i] += step
            vm[i] -= step
            ep = assemble_energy(GridFunction(grid, vp, 1, p), tn, pot, lam)
            em = assemble_energy(GridFunction(grid, vm, 1, p), tn, pot, lam)
            fd[i] = (ep - em) / (2.0 * step)
        worst = max(worst, np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(fd))))
    assert worst <= 1e-6
