"""Shooting integrator tests against closed-form radial profiles."""

import math

import numpy as np
import pytest

from oscillap.errors import (
    DomainError,
    EmptyGrid,
    NotAZeroHit,
    StalledAtCriticalPoint,
)
from oscillap.cli import _audit_rows
from oscillap.nonlinearity import (
    CustomTable,
    PowerTimesOnePlusSin,
    PureSine,
    ReciprocalOscillation,
    ZeroSequence,
    find_zeros,
)
from oscillap.primitives import PrimitiveCalculus
from oscillap.shoot_plap import (
    CSV_COLUMNS,
    BifurcationDiagram,
    Bounced,
    HitZero,
    HorizonExceeded,
    ShootConfig,
    check_necessary_conditions,
    clustered_heights,
    diagram_csv_lines,
    rescale_to_ball,
    shoot,
    shoot_batch,
    time_map,
)

from helpers import tabulate

LINEAR = tabulate(lambda s: s, 30.0, 30000)
CONSTANT = tabulate(lambda s: 1.0, 5.0, 50)
CANONICAL = PowerTimesOnePlusSin(1.0)


@pytest.fixture(scope="module")
def pc_canonical():
    return PrimitiveCalculus(CANONICAL)


def test_linear_first_zero_and_profile():
    """p=2, N=1, f(u)=u decays as c cos(r); first zero at pi/2."""
    res = shoot(ShootConfig(2.0, 1, 1.0, tol_ode=1e-10), LINEAR)
    assert isinstance(res.outcome, HitZero)
    rho = res.outcome.rho
    assert abs(rho - math.pi / 2) <= 1e-9 * (math.pi / 2)
    assert np.max(np.abs(res.v - np.cos(res.r))) <= 1e-8
    assert np.max(np.abs(res.vp + np.sin(res.r))) <= 1e-8


def test_linear_eigenvalue_on_unit_ball():
    res = shoot(ShootConfig(2.0, 1, 2.5, tol_ode=1e-10), LINEAR)
    lam = rescale_to_ball(res, 1.0)
    assert abs(lam - math.pi ** 2 / 4) <= 1e-9 * math.pi ** 2
    assert res.lambda_rescaled == lam


#: lambda = rho^2 of the first zero for f(s) = s (1 + sin s), p = 2, N = 1,
#: from the time map rho^2 = (integral_0^c ds / sqrt(F(c) - F(s)))^2 / 2 with
#: F(s) = s^2/2 + sin s - s cos s, by mpmath quadrature at 50 and at 70
#: digits, which agree
TIME_MAP_LAMBDA = {1.0: 1.4201503793794764, 2.5: 1.3979212211641313,
                   4.0: 4.284217197323066, 6.0: 5.9203862642004234,
                   9.0: 1.7085750542270205, 13.0: 3.0431036963089098,
                   17.0: 6.110675111333477, 22.0: 2.048757284190779,
                   28.0: 2.0108637423721943}


def test_tight_shots_match_the_time_map():
    errors = []
    shots = shoot_batch(ShootConfig(2.0, 1, 1.0, tol_ode=1e-13),
                        list(TIME_MAP_LAMBDA), CANONICAL)
    for res, lam in zip(shots, TIME_MAP_LAMBDA.values()):
        errors.append(abs(rescale_to_ball(res, 1.0) / lam - 1.0))
    assert np.median(errors) <= 6e-13
    assert max(errors) <= 1.5e-12


# -- the N = 1 time map --------------------------------------------------------

def test_time_map_matches_the_mpmath_values():
    heights = list(TIME_MAP_LAMBDA)
    maps = time_map(ShootConfig(2.0, 1, 1.0), heights, CANONICAL,
                    find_zeros(CANONICAL, 6).alphas)
    for (c, lam), m in zip(TIME_MAP_LAMBDA.items(), maps):
        assert m.outcome == "HitZero" and m.resolved
        assert abs(m.rho ** 2 / lam - 1.0) <= 1e-12, c
        assert m.gap <= 1e-12


def _agrees_or_fails_the_audit(rows, rhos):
    """Each zero-hitting row's rho is within 1e-10 of its reference, or
    the rows fail the diagram audit at its default tolerances."""
    hits = [(r, rho) for r, rho in zip(rows, rhos) if r.outcome == "HitZero"]
    assert len(hits) == len(rows)
    agree = all(abs(r.rho / rho - 1.0) <= 1e-10 for r, rho in hits)
    return agree or not _audit_rows(rows, 1e-6, 1e-8)["pass"]


def test_time_map_next_to_a_touch_zero_at_a_large_height():
    # c lies 0.002 above the touch zero alpha_474, where a tol 1e-12 shot
    # misses lambda by 1e-5; the reference is the time map at 80 digits
    # in t with s = c - t^2, split at every zero below c (mpmath)
    c, lam = 2976.6610595, 19.914914236297719801
    zeros = find_zeros(CANONICAL, 480)
    dg = BifurcationDiagram.scan(ShootConfig(2.0, 1, 1.0), CANONICAL, 1.0,
                                 [c], zeros)
    assert _agrees_or_fails_the_audit(dg.rows, [math.sqrt(lam)])


#: a table with a V-shaped touch zero at 4 (slope 20 on either side)
V_TABLE = CustomTable([[0.0, 1.0], [2.0, 3.0], [3.9, 2.0], [4.0, 0.0],
                       [4.1, 2.0], [6.0, 3.0], [10.0, 5.0]])


def test_time_map_1e_12_from_a_touch_zero():
    # references: the time map of the exact piecewise-quadratic F at 80
    # digits (mpmath), in t with s = c - t^2; f(c) = 2e-11 there, and
    # rounding the nodes next to c to doubles moves f by 1e-4 of itself,
    # so these rows fail the audit rather than report a wrong lambda
    rhos = {4.0 - 1e-12: 7.4774390450155730389, 4.0 + 1e-12: 7.8286797815676082381}
    dg = BifurcationDiagram.scan(ShootConfig(2.0, 1, 1.0, r_max=1e3), V_TABLE,
                                 1.0, list(rhos), ZeroSequence((4.0,), "infinity"))
    assert _agrees_or_fails_the_audit(dg.rows, list(rhos.values()))


def test_time_map_flags_what_it_cannot_resolve():
    # the zeros of reciprocal_sin accumulate at 0, so no finite set of
    # panels resolves g below the last zero split: the height is marked
    # unresolved, and its gap still bounds the error.  The references are
    # the time map at 40 digits (mpmath), with the closed form
    # F(s) = 2/3 s^(3/2) + Im(e^(-3 pi i/4) Gamma(-3/2, -i/s)) and the
    # integral split where sin(1/s) = 0; tight shots are within 1e-12
    nl = ReciprocalOscillation(2.0)
    rhos = {0.3: 1.510658420432497037807907, 0.5: 1.012996839194852558879197}
    maps = time_map(ShootConfig(2.0, 1, 1.0), list(rhos), nl,
                    find_zeros(nl, 8).alphas)
    for m, ref in zip(maps, rhos.values()):
        assert m.outcome == "HitZero" and not m.resolved
        assert abs(m.rho / ref - 1.0) <= m.gap


def test_time_map_row_is_the_same_alone_or_in_a_grid():
    zeros = find_zeros(CANONICAL, 6)
    op = ShootConfig(2.0, 1, 1.0)
    grid = np.linspace(0.5, 30.0, 200)
    lines = diagram_csv_lines(BifurcationDiagram.scan(op, CANONICAL, 1.0, grid,
                                                      zeros))
    for c, line in zip(grid, lines[1:]):
        alone = BifurcationDiagram.scan(op, CANONICAL, 1.0, [c], zeros)
        assert diagram_csv_lines(alone)[1] == line


def test_time_map_outcomes_on_a_sign_changing_f():
    # sin: heights whose F(c) lies below an earlier max of F bounce (f(c) < 0
    # among them), k pi stalls, and the rest hit zero like tight shots
    heights = [0.7, 2.0, math.pi, 3.6, 4.4, 5.2, 6.0, 7.5, 9.0]
    maps = time_map(ShootConfig(2.0, 1, 1.0), heights, PureSine())
    shots = shoot_batch(ShootConfig(2.0, 1, 1.0, tol_ode=1e-13), heights,
                        PureSine())
    for c, m, res in zip(heights, maps, shots):
        if res is None:   # the shot stalls
            assert m.outcome == "Stalled"
            continue
        if math.sin(c) < 0.0:   # the shot first rises above c
            assert m.outcome == "Bounced"
            continue
        assert m.outcome == res.outcome.kind, c
        if m.outcome == "HitZero":
            assert m.rho == pytest.approx(res.outcome.rho, rel=1e-10)
    assert {m.outcome for m in maps} == {"HitZero", "Bounced", "Stalled"}


def test_time_map_needs_one_dimension():
    with pytest.raises(DomainError):
        time_map(ShootConfig(2.0, 2, 1.0), [1.0], CANONICAL)
    with pytest.raises(DomainError):
        time_map(ShootConfig(2.0, 1, 1.0), [1.0, -1.0], CANONICAL)


def test_constant_source_three_dims():
    """p=2, N=3, f=1 gives the parabola c - r^2/6; zero at sqrt(6c)."""
    res = shoot(ShootConfig(2.0, 3, 1.0, tol_ode=1e-10), CONSTANT)
    assert isinstance(res.outcome, HitZero)
    assert abs(res.outcome.rho - math.sqrt(6.0)) <= 1e-9
    assert np.max(np.abs(res.v - (1.0 - res.r ** 2 / 6.0))) <= 1e-9
    pc = PrimitiveCalculus(CONSTANT)
    assert check_necessary_conditions(res, pc, 1.0).residual <= 1e-10


def test_degenerate_diffusion_constant_source():
    # p=3, N=1, f=1: |v'|v' = -r, so v = 1 - (2/3) r^{3/2}
    res = shoot(ShootConfig(3.0, 1, 1.0, tol_ode=1e-10), CONSTANT)
    rho_exact = 1.5 ** (2.0 / 3.0)
    assert isinstance(res.outcome, HitZero)
    assert abs(res.outcome.rho - rho_exact) <= 1e-7 * rho_exact
    pc = PrimitiveCalculus(CONSTANT)
    assert check_necessary_conditions(res, pc, 1.0).residual <= 1e-7


def test_rescale_exponent_and_identity():
    res = shoot(ShootConfig(3.0, 1, 1.0, tol_ode=1e-10), CONSTANT)
    rho = res.outcome.rho
    assert rescale_to_ball(res, rho) == pytest.approx(1.0, rel=1e-12)
    # halving the ball radius scales lambda by 2^p
    assert rescale_to_ball(res, rho / 2.0) == pytest.approx(8.0, rel=1e-12)
    with pytest.raises(DomainError):
        rescale_to_ball(res, -1.0)


def test_rescale_rejects_non_hits():
    res = shoot(ShootConfig(2.0, 1, 4.5, r_max=100.0), PureSine())
    assert isinstance(res.outcome, Bounced)
    with pytest.raises(NotAZeroHit):
        rescale_to_ball(res, 1.0)


def test_stall_at_critical_height():
    with pytest.raises(StalledAtCriticalPoint):
        shoot(ShootConfig(2.0, 1, math.pi), PureSine())


def test_bounce_in_a_primitive_well():
    """Heights between sine zeros climb the hill and fall back symmetrically.

    At N=1 the energy is conserved, so the trajectory started at c = 4.5
    rises over the hump at 2 pi and turns around exactly where F returns
    to F(c), which is v = c again by symmetry.
    """
    res = shoot(ShootConfig(2.0, 1, 4.5, lambda_shoot=1.0, r_max=100.0,
                            tol_ode=1e-10), PureSine())
    assert isinstance(res.outcome, Bounced)
    assert res.outcome.r_turn > 0.0
    assert abs(res.outcome.v_turn - 4.5) <= 1e-6
    assert res.v.max() > 2.0 * math.pi  # passed through the tangency, not stopped


def test_horizon_exceeded():
    res = shoot(ShootConfig(2.0, 2, 7.0, r_max=0.5), CANONICAL)
    assert isinstance(res.outcome, HorizonExceeded)
    assert res.outcome.r_reached == pytest.approx(0.5)


def test_monotone_decay_until_first_zero():
    res = shoot(ShootConfig(2.0, 2, 7.0, tol_ode=1e-9), CANONICAL)
    assert isinstance(res.outcome, HitZero)
    assert np.all(np.diff(res.v) < 0.0)
    assert np.all(res.vp <= 0.0)
    assert res.v[0] == 7.0 and res.r[0] == 0.0


def test_refinement_consistent_with_error_estimate():
    a = shoot(ShootConfig(2.0, 2, 7.0, tol_ode=1e-8), CANONICAL)
    b = shoot(ShootConfig(2.0, 2, 7.0, tol_ode=5e-9), CANONICAL)
    assert abs(a.outcome.rho - b.outcome.rho) < 10.0 * a.rho_error_estimate


def test_energy_residual_flags_corruption(pc_canonical):
    res = shoot(ShootConfig(2.0, 2, 7.0, tol_ode=1e-9), CANONICAL)
    assert check_necessary_conditions(res, pc_canonical, 1.0).residual <= 1e-8
    res.vp = res.vp * 1.1
    assert check_necessary_conditions(res, pc_canonical, 1.0).residual > 0.01


def test_necessary_conditions_on_canonical(pc_canonical):
    res = shoot(ShootConfig(2.0, 2, 7.0, tol_ode=1e-9), CANONICAL)
    d = check_necessary_conditions(res, pc_canonical, 1.0)
    assert d.F_at_max_ok and d.area_condition_ok
    assert d.bound_slack >= -1e-8
    assert d.residual <= 1e-8
    assert res.diagnostics is d


def test_diagram_flat_for_linear_source():
    """lambda(c) is constant when f is linear: every height rescales alike."""
    zs = ZeroSequence(np.array([1e6]), "infinity")
    pc = PrimitiveCalculus(LINEAR)
    op = ShootConfig(2.0, 1, 1.0, tol_ode=1e-9, event_tol=1e-10)
    dg = BifurcationDiagram.scan(op, LINEAR, 1.0,
                                 np.linspace(1.0, 25.0, 8), zs, pc)
    lams = np.array([row.lam for row in dg.rows])
    assert np.max(np.abs(lams - math.pi ** 2 / 4)) <= 1e-8
    assert dg.branches() == [(0, 8)]


def test_diagram_rows_and_stall(pc_canonical):
    zeros = find_zeros(CANONICAL, 4)
    alpha1 = zeros.ascending()[0]
    grid = [3.0, float(alpha1), 7.0]
    op = ShootConfig(2.0, 2, 1.0, tol_ode=1e-9, event_tol=1e-10)
    dg = BifurcationDiagram.scan(op, CANONICAL, 1.0, grid, zeros, pc_canonical)
    assert [row.outcome for row in dg.rows] == ["HitZero", "Stalled", "HitZero"]
    stalled = dg.rows[1]
    assert math.isnan(stalled.rho) and math.isnan(stalled.lam)
    assert stalled.area_ok is None
    assert [row.zero_interval_index for row in dg.rows] == [1, 1, 2]
    hit = dg.rows[2]
    assert hit.lam > 0.0 and hit.rho > 0.0
    assert hit.energy_residual <= 1e-8
    assert hit.lower_bound <= hit.lam


def test_diagram_csv_layout(pc_canonical):
    zeros = find_zeros(CANONICAL, 4)
    op = ShootConfig(2.0, 2, 1.0, tol_ode=1e-9, event_tol=1e-10)
    dg = BifurcationDiagram.scan(op, CANONICAL, 1.0,
                                 [3.0, 7.0], zeros, pc_canonical)
    lines = diagram_csv_lines(dg)
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert len(first) == len(CSV_COLUMNS)
    # 17 significant digits round-trip exactly
    assert float(first[0]) == 3.0
    assert float(first[3]) == dg.rows[0].lam
    assert first[8] in ("true", "false")
    # a second identical scan serializes byte for byte
    dg2 = BifurcationDiagram.scan(op, CANONICAL, 1.0,
                                  [3.0, 7.0], zeros, pc_canonical)
    assert diagram_csv_lines(dg2) == lines


def test_diagram_empty_grid(pc_canonical):
    zeros = find_zeros(CANONICAL, 4)
    op = ShootConfig(2.0, 2, 1.0, tol_ode=1e-8, event_tol=1e-10)
    with pytest.raises(EmptyGrid):
        BifurcationDiagram.scan(op, CANONICAL, 1.0, [], zeros, pc_canonical)


def test_solutions_at_crossing_level(pc_canonical):
    zeros = find_zeros(CANONICAL, 4)
    grid = clustered_heights(zeros, c_min=2.0, c_max=25.0)
    op = ShootConfig(2.0, 2, 1.0, tol_ode=1e-8, event_tol=1e-10)
    dg = BifurcationDiagram.scan(op, CANONICAL, 1.0, grid, zeros, pc_canonical)
    sols = dg.solutions_at(541.0)
    assert len(sols) >= 3
    cs = [s.c for s in sols]
    assert cs == sorted(cs)
    for s in sols:
        assert abs(s.lam - 541.0) <= 1e-6 * 541.0
        assert s.zero_interval_index == zeros.interval_index(s.c)


def test_clustered_heights_straddle_zeros():
    zeros = find_zeros(CANONICAL, 6)
    grid = clustered_heights(zeros, c_min=1.0, c_max=40.0)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] >= 1.0 and grid[-1] <= 40.0
    for a in zeros.ascending():
        if not 1.0 < a < 40.0:
            continue
        assert np.any((grid > a * 0.99) & (grid < a))
        assert np.any((grid > a) & (grid < a * 1.01))


def test_config_validation():
    with pytest.raises(DomainError):
        ShootConfig(1.0, 1, 1.0)  # p must exceed 1
    with pytest.raises(DomainError):
        ShootConfig(2.0, 0, 1.0)
    with pytest.raises(DomainError):
        ShootConfig(2.0, 1, -1.0)
    with pytest.raises(DomainError):
        ShootConfig(2.0, 1, 1.0, lambda_shoot=0.0)
    with pytest.raises(DomainError):
        ShootConfig(2.0, 1, 1.0, tol_ode=-1e-9)
