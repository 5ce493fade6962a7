"""Batched lockstep shooting against the scalar single-trajectory path.

``shoot`` and ``pucci_shoot`` integrate one height at a time and stay the
reference; the batched engine must reproduce their outcomes, and their
lambdas to well inside the integration tolerance, lane by lane.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillap._rk import Event, integrate, integrate_batch
from oscillap.errors import NonConvergence, StalledAtCriticalPoint
from oscillap.nonlinearity import (
    CustomTable,
    PowerTimesOnePlusSin,
    PureSine,
    ZeroSequence,
    find_zeros,
)
from oscillap.primitives import PrimitiveCalculus
from oscillap.shoot_plap import (
    HitZero,
    ShootConfig,
    diagram,
    rescale_to_ball,
    shoot,
    shoot_batch,
)
from oscillap.shoot_pucci import (
    PucciShootConfig,
    pucci_scan,
    pucci_shoot,
    pucci_shoot_batch,
)

CANONICAL = PowerTimesOnePlusSin(1.0)
CANONICAL_ZEROS = find_zeros(CANONICAL, 6)
#: batched rows match scalar shots to this relative tolerance on lambda
ROW_RTOL = 1e-7
TOL_ODE = 1e-10


# -- the engine on closed forms ---------------------------------------------

def _oscillator(t, y):
    return (y[1], -y[0])


def test_batch_event_matches_closed_form_zero():
    # y'' = -w^2 y from (1, 0) reaches zero at pi / (2 w); w rides along as
    # a constant third component, so each lane has its own frequency
    w = np.array([0.5, 1.0, 3.0, 10.0])
    res = integrate_batch(lambda t, y: (y[1], -y[2] ** 2 * y[0], 0.0 * y[2]),
                          np.zeros(4), np.array([np.ones(4), np.zeros(4), w]),
                          50.0, 1e-11, 1.0,
                          events=[Event(lambda t, y: y[0], direction=-1)],
                          event_tol=1e-13)
    assert list(res.event_index) == [0, 0, 0, 0]
    np.testing.assert_allclose(res.t, math.pi / (2.0 * w), rtol=1e-9)


def test_batch_lanes_finish_independently():
    # starts at different phases reach the zero at different times; lanes
    # that end early leave the batch and the others keep their own steps
    phase = np.array([0.0, 0.5, 1.0, 1.5])
    y0 = np.array([np.cos(phase), -np.sin(phase)])
    res = integrate_batch(_oscillator, np.zeros(4), y0, 20.0, 1e-11, 1.0,
                          events=[Event(lambda t, y: y[0], -1)],
                          event_tol=1e-13)
    np.testing.assert_allclose(res.t, math.pi / 2 - phase, rtol=1e-9)
    assert list(res.event_index) == [0, 0, 0, 0]
    lengths = set()
    for j, t_end in enumerate(res.t):
        ts, ys = res.samples(j)
        assert np.all(np.diff(ts) > 0.0) and ts[-1] == t_end
        assert abs(ys[0, -1]) <= 1e-9
        lengths.add(len(ts))
    assert len(lengths) > 1


def test_batch_restart_events_are_counted():
    # y = cos t crosses zero at pi/2 + k pi; a restarting event counts them
    res = integrate_batch(_oscillator, np.zeros(2),
                          np.array([[1.0, 1.0], [0.0, 0.0]]),
                          10.0, 1e-10, 1.0,
                          events=[Event(lambda t, y: y[0], 0, ends=False)])
    assert list(res.event_index) == [-1, -1]
    assert list(res.restarts) == [3, 3]   # pi/2, 3pi/2, 5pi/2 < 10
    assert np.all(res.t == 10.0)
    np.testing.assert_allclose(res.y[0], math.cos(10.0), atol=1e-8)


def test_scalar_and_batch_share_the_end_or_restart_rule():
    # y = cos t restarts at its zeros pi/2, 3pi/2 and at the turning point
    # pi, where y < 0, and ends at the turning point 2 pi
    events = [Event(lambda t, y: y[0], 0, ends=False),
              Event(lambda t, y: y[1], 0, ends=lambda t, y: y[0] > 0.0)]

    def scalar(budget):
        return integrate(_oscillator, 0.0, (1.0, 0.0), 10.0, 1e-10, (1.0, 1.0),
                         events=events, max_restarts=budget)

    def batch(budget):
        return integrate_batch(_oscillator, np.zeros(1), np.array([[1.0], [0.0]]),
                               10.0, 1e-10, 1.0, events=events,
                               max_restarts=budget)

    one, lanes = scalar(3), batch(3)
    assert (one.event_index, one.restarts) == (1, 3)
    assert (lanes.event_index[0], lanes.restarts[0]) == (1, 3)
    assert abs(one.t - 2.0 * math.pi) <= 1e-8
    assert abs(lanes.t[0] - one.t) <= 1e-8
    for run in (scalar, batch):
        with pytest.raises(NonConvergence,
                           match=r"^more than 2 restarts at events$"):
            run(2)


# -- batched rows equal scalar rows -----------------------------------------

def _scalar_lambda(cfg, nl, R=1.0):
    """(outcome kind, lambda or nan) of one scalar shot; None when stalled."""
    try:
        res = shoot(cfg, nl)
    except StalledAtCriticalPoint:
        return None
    if isinstance(res.outcome, HitZero):
        return res.outcome.kind, rescale_to_ball(res, R, cfg.p)
    return res.outcome.kind, math.nan


def _assert_rows_match_scalar(nl, p, N, heights, zeros):
    pc = PrimitiveCalculus(nl, p=p)
    dg = diagram(nl, p, N, 1.0, heights, zeros, pc=pc, tol_ode=TOL_ODE)
    for row in dg.rows:
        ref = _scalar_lambda(ShootConfig(p, N, row.c, tol_ode=TOL_ODE,
                                         event_tol=1e-10), nl)
        if ref is None:
            assert row.outcome == "Stalled"
            continue
        assert row.outcome == ref[0]
        if row.outcome == "HitZero":
            assert row.lam == pytest.approx(ref[1], rel=ROW_RTOL)


def _away_from(zeros, margin=1e-3):
    return lambda c: all(abs(c - a) > margin * a for a in zeros)


_heights = st.lists(st.floats(0.5, 30.0), min_size=1, max_size=4)


@settings(max_examples=12, deadline=None)
@given(p=st.sampled_from([2.0, 3.0]), N=st.sampled_from([1, 2, 3]),
       heights=_heights.map(lambda hs: [c for c in hs
                                        if _away_from(CANONICAL_ZEROS.alphas)(c)]))
def test_batched_rows_match_scalar_power_sin(p, N, heights):
    if heights:
        _assert_rows_match_scalar(CANONICAL, p, N, heights, CANONICAL_ZEROS)


_waves = st.lists(st.tuples(st.floats(-0.3, 0.3), st.floats(0.2, 2.0),
                            st.floats(0.0, 2.0 * math.pi)),
                  min_size=1, max_size=3)


@settings(max_examples=12, deadline=None)
@given(p=st.sampled_from([2.0, 3.0]), N=st.sampled_from([1, 2, 3]),
       waves=_waves, heights=_heights)
def test_batched_rows_match_scalar_table(p, N, waves, heights):
    # A random positive f, tabulated finely.  Every node is a kink that the
    # error control only roughly sees, and the two paths take slightly
    # different steps (numpy's vectorized pow differs from libm's in the
    # last bit), so each carries its own integration error: about 1e-6 in
    # lambda on 65 nodes over [0, 32] at tol 1e-10, 3e-7 on 3201 nodes and
    # 5e-9 on 32001, the resolution used here.
    table = CustomTable.from_function(
        lambda s: 1.0 + sum(a * math.sin(w * s + ph) for a, w, ph in waves),
        32.0, 32000)
    _assert_rows_match_scalar(table, p, N, heights,
                              ZeroSequence((1e6,), "infinity"))


def test_batched_rows_match_scalar_through_bounces():
    # sin changes sign: heights in (pi, 2 pi) start uphill and turn, some
    # bounce, kpi stalls; every outcome kind must match the scalar shot
    heights = [0.7, 2.0, math.pi, 3.6, 4.4, 5.2, 6.0, 7.5, 9.0]
    nl = PureSine()
    pc = PrimitiveCalculus(nl, p=2.0)
    dg = diagram(nl, 2.0, 2, 1.0, heights, find_zeros(nl, 4), pc=pc,
                 tol_ode=TOL_ODE)
    kinds = {row.outcome for row in dg.rows}
    assert {"HitZero", "Bounced", "Stalled"} <= kinds
    _assert_rows_match_scalar(nl, 2.0, 2, heights, find_zeros(nl, 4))


def test_pucci_batch_matches_scalar_shots():
    heights = np.linspace(0.5, 30.0, 23)
    cfg = PucciShootConfig(2.0, 2, 1.0, tol_ode=TOL_ODE)
    for c, res in zip(heights, pucci_shoot_batch(cfg, heights, CANONICAL)):
        ref = pucci_shoot(PucciShootConfig(2.0, 2, float(c), tol_ode=TOL_ODE),
                          CANONICAL)
        assert res.outcome.kind == ref.outcome.kind
        assert res.q_sign_changes == ref.q_sign_changes
        assert res.outcome.rho == pytest.approx(ref.outcome.rho, rel=ROW_RTOL)


@settings(max_examples=8, deadline=None)
@given(N=st.sampled_from([1, 2, 3]), heights=_heights)
def test_pucci_at_unit_ellipticity_matches_laplacian_batch(N, heights):
    # Lambda = 1 makes both Pucci operators the Laplacian, i.e. p = 2
    heights = [c for c in heights if _away_from(CANONICAL_ZEROS.alphas)(c)]
    if not heights:
        return
    pucci = pucci_scan(CANONICAL, 1.0, N, 1.0, heights, CANONICAL_ZEROS,
                       tol_ode=TOL_ODE)
    plap = diagram(CANONICAL, 2.0, N, 1.0, heights, CANONICAL_ZEROS,
                   tol_ode=TOL_ODE).rows
    for a, b in zip(pucci, plap):
        assert a.outcome == b.outcome
        if a.outcome == "HitZero":
            assert a.lam == pytest.approx(b.lam, rel=ROW_RTOL)


_GRID = np.linspace(0.5, 30.0, 199)


@settings(max_examples=6, deadline=None)
@given(c=st.floats(0.5, 30.0).filter(_away_from(CANONICAL_ZEROS.alphas)),
       p=st.sampled_from([2.0, 3.0]))
def test_row_does_not_depend_on_the_rest_of_the_batch(c, p):
    cfg = ShootConfig(p, 2, 1.0, tol_ode=TOL_ODE)
    alone = shoot_batch(cfg, [c], CANONICAL)[0]
    grid = np.sort(np.append(_GRID, c))
    within = shoot_batch(cfg, grid, CANONICAL)[int(np.searchsorted(grid, c))]
    assert alone.config.c == within.config.c == c
    assert alone.outcome.kind == within.outcome.kind
    assert within.outcome.rho == pytest.approx(alone.outcome.rho, rel=1e-10)


# -- lambda-star refinement ---------------------------------------------------

def test_unclosable_pole_bracket_is_reported_not_raised():
    # Doctor two rows around alpha_1 so they straddle a level no height
    # next to alpha_1 reaches: the bracket is reported as unresolved.
    alpha1 = CANONICAL_ZEROS.alphas[0]
    dg = diagram(CANONICAL, 2.0, 1, 1.0, [4.0, 5.5], CANONICAL_ZEROS,
                 tol_ode=TOL_ODE)
    assert [r.zero_interval_index for r in dg.rows] == [1, 2]
    dg.rows = (dataclasses.replace(dg.rows[0], lam=1.0),
               dataclasses.replace(dg.rows[1], lam=2e12))
    unresolved = []
    assert dg.solutions_at(1e12, unresolved) == []
    assert len(unresolved) == 1
    assert (unresolved[0].c_lo, unresolved[0].c_hi) == (4.0, alpha1)
    assert unresolved[0].zero_interval_index == 1
    assert dg.solutions_at(1e12) == []


def test_refined_crossings_sit_on_the_level():
    # every crossing of a 120-row grid, refined in shared batches, within
    # the refinement tolerance of the level and inside its own gap
    grid = np.linspace(0.5, 30.0, 120)
    dg = diagram(CANONICAL, 2.0, 1, 1.0, grid, CANONICAL_ZEROS, tol_ode=TOL_ODE)
    for level in (3.0, 5.0, 40.0):
        xs = dg.solutions_at(level)
        assert xs and [x.c for x in xs] == sorted(x.c for x in xs)
        for x in xs:
            assert x.lam == pytest.approx(level, rel=1e-8)
            assert x.zero_interval_index == CANONICAL_ZEROS.interval_index(x.c)
            ref = _scalar_lambda(ShootConfig(2.0, 1, x.c, tol_ode=TOL_ODE,
                                             event_tol=1e-10), CANONICAL)
            assert ref[1] == pytest.approx(level, rel=ROW_RTOL)
