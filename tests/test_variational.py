"""Discrete energy minimization tests against closed-form minimizers."""

import math
import warnings

import numpy as np
import pytest

from oscillap.errors import DomainError, NonConvergence
from oscillap.nonlinearity import (
    CustomTable,
    PowerTimesOnePlusSin,
    ReciprocalOscillation,
    find_zeros,
)
from oscillap.primitives import PrimitiveCalculus
from oscillap.thresholds import BallGeometry, lambda_n_sequence, propose_gammas
from oscillap.variational import (
    SEQUENCE_CSV_COLUMNS,
    GridFunction,
    Potential,
    TruncatedNonlinearity,
    assemble_energy,
    comparison_function,
    energy_gradient,
    minimize,
    negativity_test,
    radial_grid,
    run_sequence,
    sequence_csv_lines,
)

CONSTANT = CustomTable.from_function(lambda s: 1.0, 5.0, 50)
CANONICAL = PowerTimesOnePlusSin(1.0)
ALPHA_3 = 5.5 * math.pi  # third zero of s (1 + sin s)


@pytest.fixture(scope="module")
def pc_canonical():
    return PrimitiveCalculus(CANONICAL, p=2.0)


@pytest.fixture(scope="module")
def canonical_row(pc_canonical):
    """Threshold row whose truncation level is the third zero."""
    zeros = find_zeros(CANONICAL, 8)
    gammas = propose_gammas(pc_canonical, zeros, count=6)
    rows = lambda_n_sequence(pc_canonical, BallGeometry(1, 1.0), gammas)
    row = rows[2]
    assert abs(row.gamma - 15.579236424909) <= 1e-9
    return row


@pytest.fixture(scope="module")
def canonical_minimum(pc_canonical, canonical_row):
    tn = TruncatedNonlinearity(CANONICAL, ALPHA_3, pc=pc_canonical)
    pot = Potential.p_laplacian(2.0)
    lam = 2.0 * canonical_row.lam
    grid = radial_grid(1.0, 200, delta=canonical_row.delta)
    return tn, pot, lam, grid, minimize(tn, pot, lam, grid, N=1)


def test_truncation_clamps_and_extends():
    pc = PrimitiveCalculus(CANONICAL, p=2.0)
    tn = TruncatedNonlinearity(CANONICAL, ALPHA_3, pc=pc)
    s = np.array([-2.0, 0.0, 1.0, ALPHA_3, ALPHA_3 + 5.0])
    f = tn.eval_many(s)
    assert f[0] == CANONICAL.f0 == 0.0
    assert f[2] == pytest.approx(CANONICAL.eval(1.0), rel=1e-14)
    assert abs(f[3]) <= 1e-9
    assert f[4] == 0.0
    # primitive freezes at the level and is linear below zero
    F = tn.F_many(s)
    assert F[4] == pytest.approx(pc.F(ALPHA_3), rel=1e-14)
    assert F[0] == pytest.approx(-2.0 * CANONICAL.f0, abs=1e-14)
    eps = 1e-7
    assert tn.F(ALPHA_3 - eps) == pytest.approx(tn.F(ALPHA_3 + eps), abs=1e-10)


def test_truncation_rejects_non_zero_level():
    with pytest.raises(DomainError):
        TruncatedNonlinearity(CANONICAL, 3.0)
    # explicit opt-out admits levels that are not zeros
    tn = TruncatedNonlinearity(CONSTANT, 4.0, zero_tolerance=math.inf)
    assert tn.eval(5.0) == 0.0
    with pytest.raises(DomainError):
        TruncatedNonlinearity(CANONICAL, -1.0)


def test_potential_validation():
    pot = Potential.p_laplacian(2.0)
    assert pot.p == 2.0
    xi = np.array([-1.5, 0.0, 2.0])
    assert np.allclose(pot.phi(0.5, xi), xi ** 2 / 2.0)
    assert np.allclose(pot.slope(0.5, xi), xi)

    def kinked(r, xi):
        # min of two convex branches kinks downward at |xi| = 4
        return np.minimum(xi ** 2, xi ** 2 / 2 + 8.0)

    with pytest.raises(DomainError):
        Potential(kinked, 1.0, 2.0, 2.0)
    with pytest.raises(DomainError):
        Potential(lambda r, xi: xi ** 2 / 2.0, 2.0, 2.0, 2.0)
    with pytest.raises(DomainError):
        Potential(lambda r, xi: xi ** 2 / 2.0 + 1.0, 1.0, 3.0, 2.0)
    with pytest.raises(DomainError):
        Potential(lambda r, xi: xi ** 2 / 2.0, 1.0, 0.5, 2.0)


def test_potential_difference_slope():
    def weighted(r, xi):
        return 0.5 * (1.0 + r ** 2) * xi ** 2

    pot = Potential(weighted, 1.0, 2.0, 2.0)
    r = np.array([0.3, 0.7])
    xi = np.array([-1.5, 2.0])
    assert np.max(np.abs(pot.slope(r, xi) - (1.0 + r ** 2) * xi)) <= 1e-8


def test_radial_grid_shape_and_knot():
    r = radial_grid(1.0, 50)
    assert r[0] == 0.0 and r[-1] == 1.0
    assert np.all(np.diff(r) > 0.0)
    # grading refines toward the boundary
    assert np.diff(r)[-1] < np.diff(r)[0]
    delta = 0.3224
    rk = radial_grid(1.0, 50, delta=delta)
    assert np.min(np.abs(rk - (1.0 - delta))) <= 1e-12
    with pytest.raises(DomainError):
        radial_grid(-1.0, 50)
    with pytest.raises(DomainError):
        radial_grid(1.0, 1)
    with pytest.raises(DomainError):
        radial_grid(1.0, 50, delta=2.0)


def test_grid_function_validation():
    r = np.array([0.0, 0.5, 1.0])
    u = GridFunction(r, np.array([2.0, 1.0, 0.0]), 1, 2.0)
    assert u.sup_norm == 2.0
    with pytest.raises(DomainError):
        GridFunction(np.array([0.1, 0.5, 1.0]), np.zeros(3), 1, 2.0)
    with pytest.raises(DomainError):
        GridFunction(np.array([0.0, 0.5, 0.5]), np.zeros(3), 1, 2.0)
    with pytest.raises(DomainError):
        GridFunction(r, np.array([1.0, 1.0, 0.5]), 1, 2.0)
    with pytest.raises(DomainError):
        GridFunction(r, np.array([1.0, math.nan, 0.0]), 1, 2.0)


def test_assemble_energy_oracle():
    """Midpoint quadrature reproduces the parabola energy at rate 2."""
    tn = TruncatedNonlinearity(CONSTANT, 40.0, zero_tolerance=math.inf)
    pot = Potential.p_laplacian(2.0)
    errs = []
    for J in (16, 32, 64):
        r = radial_grid(1.0, J, grading=1.0)
        u = GridFunction(r, 0.5 * (1.0 - r ** 2), 1, 2.0)
        errs.append(abs(assemble_energy(u, tn, pot, 1.0) + 1.0 / 6.0))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)
    # zero profile carries zero energy when F(0) = 0
    z = GridFunction(radial_grid(1.0, 16), np.zeros(17), 1, 2.0)
    pc = PrimitiveCalculus(CANONICAL, p=2.0)
    tnc = TruncatedNonlinearity(CANONICAL, ALPHA_3, pc=pc)
    assert assemble_energy(z, tnc, pot, 7.0) == 0.0
    with pytest.raises(DomainError):
        assemble_energy(z, tnc, Potential.p_laplacian(3.0), 1.0)


def test_gradient_matches_difference_quotients():
    """Analytic gradient against central differences at random states."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(100):
        p = 2.0 if trial % 2 == 0 else 3.0
        J = int(rng.integers(8, 20))
        grid = radial_grid(1.0, J, grading=float(rng.uniform(1.0, 2.0)))
        alpha = float(rng.uniform(2.0, 20.0))
        # interior band keeps Du away from 0 where p != 2 degenerates
        vals = rng.uniform(0.15 * alpha, 0.85 * alpha, size=len(grid))
        vals[-1] = 0.0
        tn = TruncatedNonlinearity(CANONICAL, alpha, zero_tolerance=math.inf)
        pot = Potential.p_laplacian(p)
        lam = float(rng.uniform(0.5, 30.0))
        g = energy_gradient(GridFunction(grid, vals, 1, p), tn, pot, lam)
        step = 1e-6 * max(1.0, alpha)
        fd = np.zeros_like(g)
        for i in range(len(g)):
            vp = vals.copy()
            vp[i] += step
            vm = vals.copy()
            vm[i] -= step
            ep = assemble_energy(GridFunction(grid, vp, 1, p), tn, pot, lam)
            em = assemble_energy(GridFunction(grid, vm, 1, p), tn, pot, lam)
            fd[i] = (ep - em) / (2.0 * step)
        worst = max(worst, np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(fd))))
    assert worst <= 1e-6


def test_minimize_zero_lambda_is_trivial():
    pc = PrimitiveCalculus(CANONICAL, p=2.0)
    tn = TruncatedNonlinearity(CANONICAL, ALPHA_3, pc=pc)
    res = minimize(tn, Potential.p_laplacian(2.0), 0.0, radial_grid(1.0, 40))
    assert res.energy == 0.0
    assert res.u.sup_norm == 0.0
    assert res.start_index == 0
    with pytest.raises(DomainError):
        minimize(tn, Potential.p_laplacian(2.0), -1.0, radial_grid(1.0, 40))


def test_minimize_linear_oracle_converges_quadratically():
    """Constant source on [0, 1]: u = (1 - r^2)/2, E = -1/6."""
    tn = TruncatedNonlinearity(CONSTANT, 40.0, zero_tolerance=math.inf)
    pot = Potential.p_laplacian(2.0)
    errs = []
    for J in (32, 64, 128):
        grid = radial_grid(1.0, J, grading=1.0)
        res = minimize(tn, pot, 1.0, grid, N=1)
        assert res.residual <= 1e-8
        errs.append(abs(res.energy + 1.0 / 6.0))
        nodal = np.max(np.abs(res.u.values - 0.5 * (1.0 - grid ** 2)))
        assert nodal <= (1.0 / J) ** 2
    assert math.log2(errs[0] / errs[1]) >= 1.9
    assert math.log2(errs[1] / errs[2]) >= 1.9


def test_minimize_degenerate_exponent_oracle():
    """p=3 constant source: u = (2/3)(1 - r^{3/2}), E = -4/15."""
    tn = TruncatedNonlinearity(CONSTANT, 4.0, zero_tolerance=math.inf)
    res = minimize(tn, Potential.p_laplacian(3.0), 1.0,
                   radial_grid(1.0, 64, grading=1.0), N=1)
    assert res.residual <= 1e-8
    assert abs(res.energy + 4.0 / 15.0) <= 1e-4
    exact = (2.0 / 3.0) * (1.0 - res.u.r ** 1.5)
    assert np.max(np.abs(res.u.values - exact)) <= 5e-4


def test_minimize_singular_exponent_oracle():
    """p=1.5 constant source: u = (1 - r^3)/3, E = -1/12."""
    tn = TruncatedNonlinearity(CONSTANT, 4.0, zero_tolerance=math.inf)
    res = minimize(tn, Potential.p_laplacian(1.5), 1.0,
                   radial_grid(1.0, 64, grading=1.0), N=1)
    assert res.residual <= 1e-8
    assert abs(res.energy + 1.0 / 12.0) <= 1e-4
    exact = (1.0 - res.u.r ** 3) / 3.0
    assert np.max(np.abs(res.u.values - exact)) <= 5e-4


@pytest.mark.parametrize("N", [2, 3])
def test_minimize_finds_nontrivial_winner_in_higher_dimension(pc_canonical, N):
    """Truncated at alpha_3 with lambda = 60 the nontrivial minimizer wins.

    A descent that cannot finish its nontrivial starts leaves the zero
    start, stationary because f(0) = 0, as the only converged one.
    """
    tn = TruncatedNonlinearity(CANONICAL, ALPHA_3, pc=pc_canonical)
    lam = 60.0
    res = minimize(tn, Potential.p_laplacian(2.0), lam,
                   radial_grid(1.0, 200, delta=0.1), N=N)
    assert res.start_index in (1, 2)
    assert res.energy < 0.0
    assert res.u.sup_norm > 0.01 * ALPHA_3
    assert res.residual <= 1e-8 * lam


def test_minimize_canonical_instance(canonical_minimum, canonical_row):
    tn, pot, lam, grid, res = canonical_minimum
    assert res.residual <= 1e-8 * max(1.0, lam)
    assert res.energy == pytest.approx(-12008.731135, abs=1e-2)
    assert res.u.sup_norm == pytest.approx(17.2668, abs=2e-3)
    assert res.u.sup_norm > 0.01 * ALPHA_3
    assert res.start_index in (1, 2)
    assert float(res.u.values.min()) >= 0.0
    assert float(res.u.values.max()) <= ALPHA_3
    # energy trace never climbs
    trace = res.energy_trace
    assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:]))
    blob = res.to_json()
    assert set(blob) >= {"grid", "values", "energy", "residual",
                         "iterations", "start_index"}
    # rerun reproduces the winner bit-for-bit
    res2 = minimize(tn, pot, lam, grid, N=1)
    assert res2.energy == res.energy
    assert res2.start_index == res.start_index
    assert np.array_equal(res2.u.values, res.u.values)


def test_minimize_reports_nonconvergence():
    tn = TruncatedNonlinearity(CONSTANT, 4.0, zero_tolerance=math.inf)
    with pytest.raises(NonConvergence) as ex:
        minimize(tn, Potential.p_laplacian(3.0), 1.0,
                 radial_grid(1.0, 64, grading=1.0), max_iter=1)
    assert ex.value.best is not None
    assert ex.value.residual > 0.0


def test_comparison_function_profile():
    grid = radial_grid(1.0, 50, delta=0.25)
    w = comparison_function(3.0, 0.25, grid)
    assert w.values[-1] == 0.0
    on_plateau = grid <= 0.75 + 1e-12
    assert np.allclose(w.values[on_plateau], 3.0)
    ramp = ~on_plateau
    assert np.allclose(w.values[ramp], 3.0 * (1.0 - grid[ramp]) / 0.25)
    with pytest.raises(DomainError):
        comparison_function(3.0, 1.5, grid)
    with pytest.raises(DomainError):
        comparison_function(-3.0, 0.25, grid)


def test_negativity_flips_with_lambda(pc_canonical, canonical_row):
    tn = TruncatedNonlinearity(CANONICAL, ALPHA_3, pc=pc_canonical)
    pot = Potential.p_laplacian(2.0)
    grid = radial_grid(1.0, 200, delta=canonical_row.delta)
    gamma, delta = canonical_row.gamma, canonical_row.delta
    assert negativity_test(tn, pot, 2.0 * canonical_row.lam, gamma, delta, grid)
    assert not negativity_test(tn, pot, 0.0, gamma, delta, grid)


def test_sequence_sup_norms_grow_toward_infinity(pc_canonical):
    zeros = find_zeros(CANONICAL, 6)
    gammas = propose_gammas(pc_canonical, zeros, count=4)
    rows = lambda_n_sequence(pc_canonical, BallGeometry(1, 1.0), gammas)
    lam_bar = max(row.lam for row in rows)
    grid = radial_grid(1.0, 120)
    items = run_sequence(CANONICAL, Potential.p_laplacian(2.0), 2.0 * lam_bar,
                         zeros, gammas, grid, K=4, pc=pc_canonical,
                         lambda_bar=lam_bar)
    sups = [it.sup_norm for it in items]
    assert all(b > a for a, b in zip(sups, sups[1:]))
    assert all(it.sup_norm <= it.alpha_n for it in items)
    assert all(not it.trivial for it in items)
    assert [it.zero_interval_index for it in items] == [1, 2, 3, 4]
    lines = sequence_csv_lines(items)
    assert lines[0] == ",".join(SEQUENCE_CSV_COLUMNS)
    assert len(lines) == 5
    assert lines[1].startswith("1,4.7123889803846897,")
    assert lines == sequence_csv_lines(items)


def test_sequence_sup_norms_shrink_toward_zero():
    nl = ReciprocalOscillation(0.5)
    pc = PrimitiveCalculus(nl, p=2.0)
    zeros = find_zeros(nl, 6)
    gammas = propose_gammas(pc, zeros, count=3)
    rows = lambda_n_sequence(pc, BallGeometry(1, 1.0), gammas, ell="zero")
    lam_bar = max(row.lam for row in rows)
    items = run_sequence(nl, Potential.p_laplacian(2.0), 2.0 * lam_bar,
                         zeros, gammas, radial_grid(1.0, 100), K=3, pc=pc,
                         lambda_bar=lam_bar)
    sups = [it.sup_norm for it in items]
    assert all(b < a for a, b in zip(sups, sups[1:]))
    assert all(not it.trivial for it in items)
    # truncation levels also walk downward
    levels = [it.alpha_n for it in items]
    assert all(b < a for a, b in zip(levels, levels[1:]))


def test_sequence_warns_below_threshold(pc_canonical):
    zeros = find_zeros(CANONICAL, 3)
    gammas = propose_gammas(pc_canonical, zeros, count=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        items = run_sequence(CANONICAL, Potential.p_laplacian(2.0), 1.0,
                             zeros, gammas, radial_grid(1.0, 30), K=1,
                             pc=pc_canonical, lambda_bar=28.93)
    assert len(caught) == 1
    assert "threshold" in str(caught[0].message)
    # lambda this small cannot beat the gradient term: minimum is trivial
    assert items[0].trivial


def test_sequence_reruns_identically(pc_canonical):
    zeros = find_zeros(CANONICAL, 3)
    gammas = propose_gammas(pc_canonical, zeros, count=2)
    grid = radial_grid(1.0, 60)
    first = run_sequence(CANONICAL, Potential.p_laplacian(2.0), 70.0,
                         zeros, gammas, grid, K=2, pc=pc_canonical)
    second = run_sequence(CANONICAL, Potential.p_laplacian(2.0), 70.0,
                          zeros, gammas, grid, K=2, pc=pc_canonical)
    assert sequence_csv_lines(first) == sequence_csv_lines(second)
    for a, b in zip(first, second):
        assert np.array_equal(a.result.u.values, b.result.u.values)
        assert a.result.iterations == b.result.iterations
    with pytest.raises(DomainError):
        run_sequence(CANONICAL, Potential.p_laplacian(2.0), 70.0, zeros,
                     gammas, grid, K=0, pc=pc_canonical)
    with pytest.raises(DomainError):
        run_sequence(CANONICAL, Potential.p_laplacian(2.0), 70.0, zeros,
                     gammas, grid, K=5, pc=pc_canonical)
