"""Switched-diffusion shooting tests: closed forms and p=2 consistency."""

import dataclasses
import math

import numpy as np
import pytest

from oscillap.errors import DomainError, NotAZeroHit, StalledAtCriticalPoint
from oscillap.nonlinearity import (
    PowerTimesOnePlusSin,
    PureSine,
    find_zeros,
)
from oscillap.primitives import PrimitiveCalculus
from oscillap.shoot_plap import (
    CSV_COLUMNS,
    BifurcationDiagram,
    Bounced,
    HitZero,
    ShootConfig,
    check_necessary_conditions,
    diagram_csv_lines,
    rescale_to_ball,
    shoot,
    shoot_batch,
    time_map,
)
from oscillap.shoot_pucci import PucciShootConfig, pucci_shoot
from oscillap.thresholds import BallGeometry, Operator, compute_thresholds

from helpers import tabulate

LINEAR = tabulate(lambda s: s, 30.0, 30000)
CONSTANT = tabulate(lambda s: 1.0, 5.0, 50)
CANONICAL = PowerTimesOnePlusSin(1.0)


def test_unit_ratio_linear_is_cosine():
    """At ratio 1 the switch collapses to the Laplacian: v = cos r."""
    res = pucci_shoot(PucciShootConfig(1.0, 1, 1.0, tol_ode=1e-11), LINEAR)
    assert isinstance(res.outcome, HitZero)
    assert abs(res.outcome.rho - math.pi / 2) <= 1e-9
    assert res.q_sign_changes == 0
    pc = PrimitiveCalculus(LINEAR)
    d = check_necessary_conditions(res, pc, 1.0)
    # the decay inequality is an identity for this profile
    assert d.residual <= 1e-12
    assert d.min_slack >= -1e-12


def test_ratio_two_parabola():
    """Lambda=2, N=1, f=1 at lambda=1 solves exactly as 1 - r^2."""
    res = pucci_shoot(PucciShootConfig(2.0, 1, 1.0, tol_ode=1e-11), CONSTANT)
    assert isinstance(res.outcome, HitZero)
    assert abs(res.outcome.rho - 1.0) <= 1e-12
    assert np.max(np.abs(res.v - (1.0 - res.r ** 2))) <= 1e-12
    pc = PrimitiveCalculus(CONSTANT)
    d = check_necessary_conditions(res, pc, 2.0)
    assert d.residual <= 1e-12
    assert res.lambda_rescaled == pytest.approx(0.25, rel=1e-12)
    assert d.bound_slack >= -1e-8


def test_rescale_exponent_is_two():
    res = pucci_shoot(PucciShootConfig(2.0, 1, 1.0, tol_ode=1e-10), CONSTANT)
    rho = res.outcome.rho
    assert rescale_to_ball(res, rho) == pytest.approx(1.0, rel=1e-12)
    assert rescale_to_ball(res, rho / 3.0) == pytest.approx(9.0, rel=1e-12)
    with pytest.raises(DomainError):
        rescale_to_ball(res, 0.0)


def test_origin_series_positive_f():
    # early samples follow v = c - (Lambda lambda f(c)/N) r^2/2
    res = pucci_shoot(PucciShootConfig(2.0, 2, 3.0, tol_ode=1e-10), CANONICAL)
    a0 = -2.0 * CANONICAL.eval(3.0) / 2.0
    mask = (res.r > 0.0) & (res.r < 0.01)
    assert np.any(mask)
    pred = 3.0 + 0.5 * a0 * res.r[mask] ** 2
    assert np.max(np.abs(res.v[mask] - pred)) <= 1e-7


def test_origin_series_negative_f():
    """A height where f < 0 starts rising with the q < 0 branch curvature."""
    Lam, N, lam, c = 2.0, 3, 5.0, 4.0
    res = pucci_shoot(PucciShootConfig(Lam, N, c, lambda_shoot=lam,
                                       r_max=200.0, tol_ode=1e-10), PureSine())
    a0 = -lam * math.sin(c) * Lam / (Lam * Lam + N - 1)
    assert a0 > 0.0
    mask = (res.r > 0.0) & (res.r < 0.01)
    assert np.any(mask)
    pred = c + 0.5 * a0 * res.r[mask] ** 2
    assert np.max(np.abs(res.v[mask] - pred)) <= 1e-7
    assert isinstance(res.outcome, Bounced)


@pytest.mark.parametrize("Lam", [1.5, 2.0])
@pytest.mark.parametrize("nl", [CANONICAL, PureSine()], ids=["power_sin", "sin"])
def test_n1_pucci_is_the_p2_time_map_of_F_Lambda(nl, Lam):
    # at N = 1, rho = rho_{p=2}[F_Lambda] / sqrt(Lambda): the time map of
    # the weighted primitive against tight shots of the switched equation
    heights = np.linspace(0.7, 20.0, 12)
    maps = time_map(PucciShootConfig(Lam, 1, 1.0), heights, nl,
                    find_zeros(nl, 8).alphas)
    rising = [nl.eval(c) < 0.0 for c in heights]
    shots = iter(shoot_batch(PucciShootConfig(Lam, 1, 1.0, tol_ode=1e-13),
                             [c for c, up in zip(heights, rising) if not up], nl))
    for c, m, up in zip(heights, maps, rising):
        if up:   # the shot first rises above c: Bounced at c
            assert m.outcome == "Bounced" and m.switches == 0
            continue
        res = next(shots)
        assert m.outcome == res.outcome.kind, c
        assert m.switches == res.q_sign_changes, c
        if m.outcome == "HitZero":
            assert abs(m.rho / res.outcome.rho - 1.0) <= 1e-10, c


_COS_TABLE = tabulate(lambda s: math.cos(s) + 0.3, 40.0, 800)


@pytest.mark.parametrize("nl", [CANONICAL, PureSine(), _COS_TABLE],
                         ids=["power_sin", "sin", "cos table"])
def test_n1_rows_at_unit_ratio_are_the_p2_rows_bit_for_bit(nl):
    zeros = find_zeros(nl, 6)
    grid = np.linspace(0.5, 20.0, 40)
    pucci = BifurcationDiagram.scan(PucciShootConfig(1.0, 1, 1.0), nl, 1.5,
                                    grid, zeros).rows
    plap = BifurcationDiagram.scan(ShootConfig(2.0, 1, 1.0), nl, 1.5,
                                   grid, zeros).rows
    assert {r.q_sign_changes for r in pucci} == {0}   # no switch at Lambda = 1
    assert [repr(dataclasses.replace(r, q_sign_changes=None)) for r in pucci] \
        == [repr(r) for r in plap]


def test_n1_switches_count_the_sign_changes_of_f_below_c():
    grid = np.linspace(0.5, 20.0, 40)
    rows = BifurcationDiagram.scan(PucciShootConfig(2.0, 1, 1.0), PureSine(),
                                   1.0, grid, find_zeros(PureSine(), 8)).rows
    hits = [r for r in rows if r.outcome == "HitZero"]
    assert hits
    for r in hits:
        assert r.q_sign_changes == math.floor(r.c / math.pi)


def test_unit_ratio_matches_p2_shoots():
    rng = np.random.default_rng(5)
    cases = [(float(rng.uniform(0.5, 60.0)), int(rng.integers(1, 4)))
             for _ in range(12)]
    for N in (1, 2, 3):
        heights = [c for c, n in cases if n == N]
        pucci = shoot_batch(PucciShootConfig(1.0, N, 1.0, tol_ode=1e-11),
                            heights, CANONICAL)
        plap = shoot_batch(ShootConfig(2.0, N, 1.0, tol_ode=1e-11), heights,
                           CANONICAL)
        for a, b in zip(pucci, plap):
            assert a.outcome.kind == b.outcome.kind
            if isinstance(a.outcome, HitZero):
                rel = abs(a.outcome.rho - b.outcome.rho) / b.outcome.rho
                assert rel <= 1e-7


def test_switch_count_logged():
    res = pucci_shoot(PucciShootConfig(2.0, 2, 11.0, tol_ode=1e-9), CANONICAL)
    assert isinstance(res.outcome, HitZero)
    assert 1 <= res.q_sign_changes <= 50


def test_regression_canonical_height_three():
    # frozen from a tol=1e-11 run of the same configuration
    res = pucci_shoot(PucciShootConfig(2.0, 2, 3.0, tol_ode=1e-9), CANONICAL)
    assert res.outcome.rho == pytest.approx(1.3255479888303856, rel=1e-6)
    assert rescale_to_ball(res, 1.0) == pytest.approx(1.75707747069228, rel=1e-6)


def test_bounce_and_stall():
    res = pucci_shoot(PucciShootConfig(2.0, 3, 7.5, lambda_shoot=5.0,
                                       r_max=200.0, tol_ode=1e-9), PureSine())
    assert isinstance(res.outcome, Bounced)
    assert res.outcome.v_turn > 0.0
    with pytest.raises(NotAZeroHit):
        rescale_to_ball(res, 1.0)
    with pytest.raises(StalledAtCriticalPoint):
        pucci_shoot(PucciShootConfig(1.0, 1, math.pi), PureSine())


def test_scan_rows_and_csv():
    zeros = find_zeros(CANONICAL, 4)
    alpha1 = zeros.ascending()[0]
    op = PucciShootConfig(2.0, 2, 1.0, tol_ode=1e-9, event_tol=1e-10)
    diag = BifurcationDiagram.scan(op, CANONICAL, 1.0,
                                   [3.0, float(alpha1), 7.0], zeros)
    rows = diag.rows
    assert [r.outcome for r in rows] == ["HitZero", "Stalled", "HitZero"]
    assert rows[1].q_sign_changes == 0
    assert rows[0].energy_residual <= 1e-10  # inequality violation, not defect
    assert rows[0].area_ok is True and rows[1].area_ok is None
    lines = diagram_csv_lines(diag)
    columns = CSV_COLUMNS + ("q_sign_changes",)
    assert lines[0] == ",".join(columns)
    parts = lines[1].split(",")
    assert len(parts) == len(columns)
    assert float(parts[3]) == rows[0].lam
    diag2 = BifurcationDiagram.scan(op, CANONICAL, 1.0,
                                    [3.0, float(alpha1), 7.0], zeros)
    assert diagram_csv_lines(diag2) == lines


def test_area_condition_uses_weighted_primitive():
    """The decay inequality implies the sign and area conditions for
    F_Lambda, not for F: at this height F(c) = 1.726 lies below max F = 2,
    but F_Lambda(c) = 3.226 is the running max of F_Lambda."""
    c = 8.6667
    res = pucci_shoot(PucciShootConfig(2.0, 2, c), PureSine())
    assert isinstance(res.outcome, HitZero)
    pc = PrimitiveCalculus(PureSine())
    d = check_necessary_conditions(res, pc, 1.0)
    assert d.residual == 0.0
    assert d.F_at_max_ok and d.area_condition_ok
    F, _, Fmax = pc.extrema_many([c])
    assert F[0] < Fmax[0] - 0.2
    G, _, Gmax = pc.extrema_many([c], 2.0)
    assert G[0] == pytest.approx(Gmax[0], rel=1e-12)


def test_primitives_of_any_lambda_serve_a_pucci_shot():
    """One PrimitiveCalculus serves every Lambda: after Lambda = 1 queries
    it still gives a Lambda = 2 shot its own F_Lambda.  Lambda = 1 values
    would fail the area condition at this height with residual 0.339, and
    a scan would write Fbar_c 1.726 for 3.226 and lower_bound 10.88 for
    5.82.  p-Laplacian audits read F from the same primitives."""
    c = 8.6667
    cfg = PucciShootConfig(2.0, 2, c)
    pc = PrimitiveCalculus(PureSine())
    pc.extrema_many([c], 1.0)
    res = pucci_shoot(cfg, PureSine())
    assert isinstance(res.outcome, HitZero)
    d = check_necessary_conditions(res, pc, 1.0)
    assert d.residual == 0.0
    assert d.area_condition_ok
    row, = BifurcationDiagram.scan(cfg, PureSine(), 1.0, [c],
                                   find_zeros(PureSine(), 4), pc).rows
    assert row.Fbar_c == pytest.approx(3.226, abs=5e-4)
    assert row.lower_bound == pytest.approx(5.82, abs=5e-3)
    plap = shoot(ShootConfig(2.0, 2, 7.0, tol_ode=1e-9), CANONICAL)
    weighted = PrimitiveCalculus(CANONICAL)
    weighted.extrema_many([7.0], 2.0)
    assert check_necessary_conditions(plap, weighted, 1.0).residual <= 1e-8


def test_shared_primitives_match_fresh_ones():
    """A p = 2 scan, a Pucci Lambda = 2 scan and both operators' thresholds
    on one PrimitiveCalculus give the rows and reports of fresh ones."""
    nl = PureSine()
    zeros = find_zeros(nl, 8)
    heights = np.linspace(0.5, 12.0, 24)
    shots = (ShootConfig(2.0, 2, 1.0, tol_ode=1e-9),
             PucciShootConfig(2.0, 2, 1.0, tol_ode=1e-9))
    operators = (Operator.p_laplacian(2.0), Operator.pucci(2.0))
    geom = BallGeometry(2, 1.0)

    def outputs(primitives):
        rows = [diagram_csv_lines(BifurcationDiagram.scan(
            cfg, nl, 1.0, heights, zeros, primitives())) for cfg in shots]
        reports = [compute_thresholds(op, primitives(), geom, "infinity",
                                      count=6).to_json() for op in operators]
        return rows, reports

    shared = PrimitiveCalculus(nl)
    assert outputs(lambda: shared) == outputs(lambda: PrimitiveCalculus(nl))


def test_lambda_star_crossings_on_pucci_scan():
    """Refined crossings of a Lambda = 2 scan sit on the level, checked
    against independent tol_ode 1e-12 shots."""
    op = PucciShootConfig(2.0, 2, 1.0, tol_ode=1e-10)
    diag = BifurcationDiagram.scan(op, CANONICAL, 1.0, np.linspace(0.5, 20.0, 60),
                                   find_zeros(CANONICAL, 8))
    for level in (5.0, 20.0):
        unresolved = []
        crossings = diag.solutions_at(level, unresolved)
        assert len(crossings) >= 5 and not unresolved
        shots = shoot_batch(PucciShootConfig(2.0, 2, 1.0, tol_ode=1e-12),
                            [x.c for x in crossings], CANONICAL)
        for res in shots:
            assert rescale_to_ball(res, 1.0) == pytest.approx(level, rel=1e-6)


def test_config_validation():
    with pytest.raises(DomainError):
        PucciShootConfig(0.9, 1, 1.0)  # ratio below 1
    with pytest.raises(DomainError):
        PucciShootConfig(1.0, 0, 1.0)
    with pytest.raises(DomainError):
        PucciShootConfig(1.0, 1, 0.0)
    with pytest.raises(DomainError):
        PucciShootConfig(1.0, 1, 1.0, r_max=-2.0)
