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
from oscillap.nonlinearity import (
    CustomTable,
    PowerTimesOnePlusSin,
    PureSine,
    ZeroSequence,
    find_zeros,
)
from oscillap.primitives import PrimitiveCalculus
from oscillap.shoot_plap import (
    CSV_COLUMNS,
    Bounced,
    HitZero,
    HorizonExceeded,
    ShootConfig,
    check_necessary_conditions,
    clustered_heights,
    diagram,
    diagram_csv_lines,
    energy_residual,
    rescale_to_ball,
    shoot,
)

LINEAR = CustomTable.from_function(lambda s: s, 30.0, 30000)
CONSTANT = CustomTable.from_function(lambda s: 1.0, 5.0, 50)
CANONICAL = PowerTimesOnePlusSin(1.0)


@pytest.fixture(scope="module")
def pc_canonical():
    return PrimitiveCalculus(CANONICAL, p=2.0)


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
    lam = rescale_to_ball(res, 1.0, 2.0)
    assert abs(lam - math.pi ** 2 / 4) <= 1e-9 * math.pi ** 2
    assert res.lambda_rescaled == lam


def test_constant_source_three_dims():
    """p=2, N=3, f=1 gives the parabola c - r^2/6; zero at sqrt(6c)."""
    res = shoot(ShootConfig(2.0, 3, 1.0, tol_ode=1e-10), CONSTANT)
    assert isinstance(res.outcome, HitZero)
    assert abs(res.outcome.rho - math.sqrt(6.0)) <= 1e-9
    assert np.max(np.abs(res.v - (1.0 - res.r ** 2 / 6.0))) <= 1e-9
    pc = PrimitiveCalculus(CONSTANT, p=2.0)
    assert energy_residual(res, pc) <= 1e-10


def test_degenerate_diffusion_constant_source():
    # p=3, N=1, f=1: |v'|v' = -r, so v = 1 - (2/3) r^{3/2}
    res = shoot(ShootConfig(3.0, 1, 1.0, tol_ode=1e-10), CONSTANT)
    rho_exact = 1.5 ** (2.0 / 3.0)
    assert isinstance(res.outcome, HitZero)
    assert abs(res.outcome.rho - rho_exact) <= 1e-7 * rho_exact
    pc = PrimitiveCalculus(CONSTANT, p=3.0)
    assert energy_residual(res, pc) <= 1e-7


def test_rescale_exponent_and_identity():
    res = shoot(ShootConfig(3.0, 1, 1.0, tol_ode=1e-10), CONSTANT)
    rho = res.outcome.rho
    assert rescale_to_ball(res, rho, 3.0) == pytest.approx(1.0, rel=1e-12)
    # halving the ball radius scales lambda by 2^p
    assert rescale_to_ball(res, rho / 2.0, 3.0) == pytest.approx(8.0, rel=1e-12)
    with pytest.raises(DomainError):
        rescale_to_ball(res, -1.0, 3.0)


def test_rescale_rejects_non_hits():
    res = shoot(ShootConfig(2.0, 1, 4.5, r_max=100.0), PureSine())
    assert isinstance(res.outcome, Bounced)
    with pytest.raises(NotAZeroHit):
        rescale_to_ball(res, 1.0, 2.0)


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
    assert energy_residual(res, pc_canonical) <= 1e-8
    res.vp = res.vp * 1.1
    assert energy_residual(res, pc_canonical) > 0.01


def test_necessary_conditions_on_canonical(pc_canonical):
    res = shoot(ShootConfig(2.0, 2, 7.0, tol_ode=1e-9), CANONICAL)
    d = check_necessary_conditions(res, pc_canonical, 2.0, 1.0)
    assert d.F_at_max_ok and d.area_condition_ok
    assert d.lower_bound_slack >= -1e-8
    assert d.energy_residual_max <= 1e-8
    assert res.diagnostics is d


def test_diagram_flat_for_linear_source():
    """lambda(c) is constant when f is linear: every height rescales alike."""
    zs = ZeroSequence(np.array([1e6]), "infinity")
    pc = PrimitiveCalculus(LINEAR, p=2.0)
    dg = diagram(LINEAR, 2.0, 1, 1.0, np.linspace(1.0, 25.0, 8), zs, pc=pc,
                 tol_ode=1e-9)
    lams = np.array([row.lam for row in dg.rows])
    assert np.max(np.abs(lams - math.pi ** 2 / 4)) <= 1e-8
    assert dg.branches() == [(0, 8)]


def test_diagram_rows_and_stall(pc_canonical):
    zeros = find_zeros(CANONICAL, 4)
    alpha1 = zeros.ascending()[0]
    grid = [3.0, float(alpha1), 7.0]
    dg = diagram(CANONICAL, 2.0, 2, 1.0, grid, zeros, pc=pc_canonical,
                 tol_ode=1e-9)
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
    dg = diagram(CANONICAL, 2.0, 2, 1.0, [3.0, 7.0], zeros, pc=pc_canonical,
                 tol_ode=1e-9)
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
    dg2 = diagram(CANONICAL, 2.0, 2, 1.0, [3.0, 7.0], zeros, pc=pc_canonical,
                  tol_ode=1e-9)
    assert diagram_csv_lines(dg2) == lines


def test_diagram_empty_grid(pc_canonical):
    zeros = find_zeros(CANONICAL, 4)
    with pytest.raises(EmptyGrid):
        diagram(CANONICAL, 2.0, 2, 1.0, [], zeros, pc=pc_canonical)


def test_solutions_at_crossing_level(pc_canonical):
    zeros = find_zeros(CANONICAL, 4)
    grid = clustered_heights(zeros, c_min=2.0, c_max=25.0)
    dg = diagram(CANONICAL, 2.0, 2, 1.0, grid, zeros, pc=pc_canonical,
                 tol_ode=1e-8)
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
