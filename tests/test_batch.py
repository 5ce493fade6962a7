"""Batched lockstep shooting: the one integrator on closed forms, and
each lane against independent references.

Every shot runs on ``_rk.integrate_batch``; ``shoot`` and ``pucci_shoot``
are batches of one height.  The engine is held to closed-form zeros and
event locations.  A shot, or a diagram row at N >= 2, is held to the same
height as a lane of another grid (alone, or among other heights); an
N = 1 row, which comes from the time map, to a tighter shot.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oscillap import _rk
from oscillap._rk import Event, integrate_batch
from oscillap.cli import main
from oscillap.errors import NonConvergence, NonintegrableStep
from oscillap.nonlinearity import (
    EnvelopeTimesOnePlusSin,
    PowerTimesOnePlusSin,
    PureSine,
    ReciprocalOscillation,
    ZeroSequence,
    find_zeros,
    nonlinearity_from_json,
)
from oscillap.primitives import PrimitiveCalculus
from oscillap.shoot_plap import (
    BifurcationDiagram,
    HitZero,
    ShootConfig,
    rescale_to_ball,
    shoot,
    shoot_batch,
)
from oscillap.shoot_pucci import PucciShootConfig

from helpers import tabulate

CANONICAL = PowerTimesOnePlusSin(1.0)
CANONICAL_ZEROS = find_zeros(CANONICAL, 6)
#: diagram rows match their reference shots to this relative tolerance on
#: lambda
ROW_RTOL = 1e-7
TOL_ODE = 1e-10
#: the p = 2 shot configs of the canonical scans below: N = 1 rows and
#: refinement heights come from the time map, N = 2 ones from shots
P2 = {N: ShootConfig(2.0, N, 1.0, tol_ode=TOL_ODE, event_tol=1e-10)
      for N in (1, 2)}


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


def test_batch_event_matches_closed_form_zero_tightly():
    # each lane brackets the crossing on exact RK5 steps from its step
    # start, so at a tight tolerance the zero lands within rounding of
    # pi / (2 w), not a fixed event_tol past it
    w = np.array([0.5, 0.7, 1.0, 1.3, 2.0, 3.0, 5.0, 10.0])
    res = integrate_batch(lambda t, y: (y[1], -y[2] ** 2 * y[0], 0.0 * y[2]),
                          np.zeros(w.size),
                          np.array([np.ones(w.size), np.zeros(w.size), w]),
                          50.0, 1e-13, 1.0,
                          events=[Event(lambda t, y: y[0], direction=-1)],
                          event_tol=1e-12)
    assert list(res.event_index) == [0] * w.size
    assert np.max(np.abs(res.t - math.pi / (2.0 * w))) <= 1e-13


def test_located_event_costs_one_re_step_per_probe(monkeypatch):
    # a step or a probe is 6 right-hand-side calls (the first stage is the
    # last one's end), after one at the start: the state at a located
    # event, and the first stage of the restart there, are the last
    # far-side probe's, not one more RK5 step of the located size
    calls = {"rhs": 0, "probes": 0}
    update = _rk._Illinois.update

    def rhs(t, y):
        calls["rhs"] += 1
        return _oscillator(t, y)

    def counted_update(self, *args):
        calls["probes"] += 1
        return update(self, *args)

    monkeypatch.setattr(_rk._Illinois, "update", counted_update)
    res = integrate_batch(rhs, np.zeros(1), np.array([[1.0], [0.0]]), 10.0,
                          1e-10, 1.0,
                          events=[Event(lambda t, y: y[0], 0, ends=False),
                                  Event(lambda t, y: y[1], 1)])
    # y' turns up at pi, after one restart at pi / 2
    assert (res.event_index[0], res.restarts[0]) == (1, 1)
    assert calls["probes"] > 0
    assert calls["rhs"] == 1 + 6 * (res.n_steps[0] + calls["probes"])


@pytest.mark.parametrize("root", [0.25, 0.7])
def test_illinois_closes_a_bracket_whose_secant_rounds_onto_an_end(root):
    # g is +1e-19 at the double `root` and negative at the next one: the
    # first probe lands there on the near side, and every later secant
    # rounds back onto it; bisecting from there took about 40 probes
    def g(x):
        return (root - x) + 1e-19

    br = _rk._Illinois(1.0, [g(0.0)], [g(1.0)], [0], 1e-12, None)
    while not br.done:
        x = br.trial()
        br.update(x, [g(x)], x)
    assert br.probes <= 3
    assert root < br.hi <= root + 1e-12 and br.at_hi == br.hi


def _slow_oscillator(t, y):
    # u = cos(e t), v = -sin(e t), with the rate e as a constant component
    return (y[2] * y[1], -y[2] * y[0], 0.0 * y[2])


def _crossing(at):
    """Event where v falls through -sin(e * at), at t = at."""
    return lambda t, y: y[1] + np.sin(y[2] * at)


def _two_event_runs(events):
    """A batch of rates 0.01 and 0.005 on [0, 1]: the first step,
    0.01 |y| / |y'| >= 1, spans [0, 1] and fires every event."""
    return integrate_batch(_slow_oscillator, np.zeros(2),
                           np.array([[1.0, 1.0], [0.0, 0.0], [0.01, 0.005]]),
                           1.0, 1e-10, 1.0, events=events, event_tol=1e-12)


def test_step_firing_two_events_ends_at_the_earlier_crossing():
    # event 1 crosses first, so each lane must leave event 0's bracket
    lanes = _two_event_runs([Event(_crossing(0.5), -1),
                             Event(_crossing(0.3), -1)])
    assert list(lanes.n_steps) == [1, 1]
    assert list(lanes.event_index) == [1, 1]
    assert np.max(np.abs(lanes.t - 0.3)) <= 1e-9


@pytest.mark.parametrize("early_ends", [True, False])
def test_step_firing_an_ending_and_a_restarting_event(early_ends):
    # the earlier crossing (0.3) decides: it ends the run, or the run
    # restarts there and ends at the other crossing (0.5)
    lanes = _two_event_runs([Event(_crossing(0.5), -1, ends=not early_ends),
                             Event(_crossing(0.3), -1, ends=early_ends)])
    index, at, restarts = (1, 0.3, 0) if early_ends else (0, 0.5, 1)
    assert list(lanes.event_index) == [index, index]
    assert list(lanes.restarts) == [restarts, restarts]
    assert np.max(np.abs(lanes.t - at)) <= 1e-9


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

    def batch(budget):
        return integrate_batch(_oscillator, np.zeros(1), np.array([[1.0], [0.0]]),
                               10.0, 1e-10, 1.0, events=events,
                               max_restarts=budget)

    lanes = batch(3)
    assert (lanes.event_index[0], lanes.restarts[0]) == (1, 3)
    assert abs(lanes.t[0] - 2.0 * math.pi) <= 1e-8
    with pytest.raises(NonConvergence, match=r"^more than 2 restarts at events$"):
        batch(2)


# -- diagram rows equal their heights' shots ----------------------------------

def _shot_lambdas(cfg, heights, nl, R=1.0):
    """(outcome kind, lambda or nan) of each height's shot, None where it
    stalls, from one batch of ``cfg``'s shots."""
    out = []
    for res in shoot_batch(cfg, heights, nl):
        if res is None:
            out.append(None)
        elif isinstance(res.outcome, HitZero):
            out.append((res.outcome.kind, rescale_to_ball(res, R)))
        else:
            out.append((res.outcome.kind, math.nan))
    return out


def _assert_rows_match_shots(nl, p, N, heights, zeros):
    # N = 1 rows come from the time map, exact to quadrature accuracy, so
    # their reference is a tighter shot: at tol 1e-10 a p = 3 shot at
    # c = 30 is 3.0e-7 off in lambda, at 1e-12 9.5e-10.  N >= 2 rows come
    # from a batch of their heights; the reference shoots them in the
    # reverse order, so no lane keeps its place or its neighbours
    pc = PrimitiveCalculus(nl)
    op = ShootConfig(p, N, 1.0, tol_ode=TOL_ODE, event_tol=1e-10)
    dg = BifurcationDiagram.scan(op, nl, 1.0, heights, zeros, pc)
    ref_op = ShootConfig(p, N, 1.0, tol_ode=TOL_ODE if N > 1 else 1e-12,
                         event_tol=1e-10)
    refs = _shot_lambdas(ref_op, [row.c for row in dg.rows][::-1], nl)[::-1]
    for row, ref in zip(dg.rows, refs):
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
        _assert_rows_match_shots(CANONICAL, p, N, heights, CANONICAL_ZEROS)


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
    table = tabulate(
        lambda s: 1.0 + sum(a * math.sin(w * s + ph) for a, w, ph in waves),
        32.0, 32000)
    _assert_rows_match_shots(table, p, N, heights,
                              ZeroSequence((1e6,), "infinity"))


def test_batched_rows_match_scalar_through_bounces():
    # sin changes sign: heights in (pi, 2 pi) start uphill and turn, some
    # bounce, kpi stalls; every outcome kind must match the scalar shot
    heights = [0.7, 2.0, math.pi, 3.6, 4.4, 5.2, 6.0, 7.5, 9.0]
    nl = PureSine()
    pc = PrimitiveCalculus(nl)
    op = ShootConfig(2.0, 2, 1.0, tol_ode=TOL_ODE, event_tol=1e-10)
    dg = BifurcationDiagram.scan(op, nl, 1.0, heights, find_zeros(nl, 4), pc)
    kinds = {row.outcome for row in dg.rows}
    assert {"HitZero", "Bounced", "Stalled"} <= kinds
    _assert_rows_match_shots(nl, 2.0, 2, heights, find_zeros(nl, 4))


def _interleaved(heights):
    """The heights with their midpoints between them, and the positions of
    the heights in that grid."""
    grid = np.sort(np.concatenate([heights, 0.5 * (heights[1:] + heights[:-1])]))
    return grid, np.searchsorted(grid, heights)


def test_pucci_batch_matches_scalar_shots():
    # each lane, restarts included, against the same height in a grid with
    # a new neighbour between every two heights
    heights = np.linspace(0.5, 30.0, 23)
    cfg = PucciShootConfig(2.0, 2, 1.0, tol_ode=TOL_ODE)
    grid, at = _interleaved(heights)
    refs = list(shoot_batch(cfg, grid, CANONICAL))
    for c, res, j in zip(heights, shoot_batch(cfg, heights, CANONICAL), at):
        ref = refs[j]
        assert ref.config.c == c
        assert res.outcome.kind == ref.outcome.kind
        assert res.q_sign_changes == ref.q_sign_changes
        assert res.outcome.rho == pytest.approx(ref.outcome.rho, rel=ROW_RTOL)


@pytest.mark.parametrize("cfg", [
    ShootConfig(2.0, 1, 1.0, tol_ode=1e-10, event_tol=1e-10),
    ShootConfig(3.0, 2, 1.0, tol_ode=1e-12, event_tol=1e-10),
    PucciShootConfig(2.0, 2, 1.0, tol_ode=1e-10, event_tol=1e-10),
], ids=["p2-N1", "p3-N2", "pucci2-N2"])
def test_batch_and_scalar_probe_alike(cfg):
    # every lane locates its events on its own exact RK5 steps, so the
    # first zeros of the same heights in two grids agree far inside
    # event_tol
    heights = np.array([1.0, 2.5, 4.0, 6.0, 9.0, 13.0, 17.0, 22.0, 28.0])
    grid, at = _interleaved(heights)
    refs = list(shoot_batch(cfg, grid, CANONICAL))
    for c, res, j in zip(heights, shoot_batch(cfg, heights, CANONICAL), at):
        ref = refs[j]
        assert ref.config.c == c
        assert res.outcome.kind == ref.outcome.kind == "HitZero"
        assert res.outcome.rho == pytest.approx(ref.outcome.rho, rel=1e-13), c


@settings(max_examples=8, deadline=None)
@given(N=st.sampled_from([1, 2, 3]), heights=_heights)
def test_pucci_at_unit_ellipticity_matches_laplacian_batch(N, heights):
    # Lambda = 1 makes both Pucci operators the Laplacian, i.e. p = 2
    heights = [c for c in heights if _away_from(CANONICAL_ZEROS.alphas)(c)]
    if not heights:
        return
    pucci = BifurcationDiagram.scan(
        PucciShootConfig(1.0, N, 1.0, tol_ode=TOL_ODE, event_tol=1e-10),
        CANONICAL, 1.0, heights, CANONICAL_ZEROS).rows
    op = ShootConfig(2.0, N, 1.0, tol_ode=TOL_ODE, event_tol=1e-10)
    plap = BifurcationDiagram.scan(op, CANONICAL, 1.0,
                                   heights, CANONICAL_ZEROS).rows
    for a, b in zip(pucci, plap):
        assert a.outcome == b.outcome
        if a.outcome == "HitZero":
            assert a.lam == pytest.approx(b.lam, rel=ROW_RTOL)
        # the one audit reads F_Lambda at Lambda = 1, which is F
        assert a.Fbar_c == pytest.approx(b.Fbar_c, rel=ROW_RTOL)
        assert a.lower_bound == pytest.approx(b.lower_bound, rel=ROW_RTOL)
        assert a.area_ok == b.area_ok


_GRID = np.linspace(0.5, 30.0, 199)


@settings(max_examples=6, deadline=None)
@given(c=st.floats(0.5, 30.0).filter(_away_from(CANONICAL_ZEROS.alphas)),
       p=st.sampled_from([2.0, 3.0]))
def test_row_does_not_depend_on_the_rest_of_the_batch(c, p):
    cfg = ShootConfig(p, 2, 1.0, tol_ode=TOL_ODE)
    [alone] = shoot_batch(cfg, [c], CANONICAL)
    grid = np.sort(np.append(_GRID, c))
    shots = list(shoot_batch(cfg, grid, CANONICAL))
    within = shots[int(np.searchsorted(grid, c))]
    assert alone.config.c == within.config.c == c
    assert alone.outcome.kind == within.outcome.kind
    assert within.outcome.rho == pytest.approx(alone.outcome.rho, rel=1e-10)


@settings(max_examples=4, deadline=None)
@given(c=st.floats(0.5, 30.0).filter(_away_from(CANONICAL_ZEROS.alphas)))
def test_pucci_row_does_not_depend_on_the_rest_of_the_batch(c):
    # a Lambda = 2 shot restarts at every diffusion switch, each lane on
    # its own: one height alone is the same height in a 199-height grid
    cfg = PucciShootConfig(2.0, 2, c, tol_ode=TOL_ODE)
    alone = shoot(cfg, CANONICAL)
    grid = np.sort(np.append(_GRID, c))
    within = list(shoot_batch(cfg, grid, CANONICAL))[int(np.searchsorted(grid, c))]
    assert alone.config.c == within.config.c == c
    assert alone.outcome.kind == within.outcome.kind
    assert alone.q_sign_changes == within.q_sign_changes
    assert within.outcome.rho == pytest.approx(alone.outcome.rho, rel=1e-10)


# -- lambda-star refinement ---------------------------------------------------
# Each test runs at N = 1, where rows and refinement heights come from the
# time map, and at N = 2, where they come from batches of shots.

def test_unclosable_pole_bracket_is_reported_not_raised():
    # Doctor two rows around alpha_1 so they straddle a level no height
    # next to alpha_1 reaches: the bracket is reported as unresolved.
    alpha1 = CANONICAL_ZEROS.alphas[0]
    for N in (1, 2):
        dg = BifurcationDiagram.scan(P2[N], CANONICAL, 1.0,
                                     [4.0, 5.5], CANONICAL_ZEROS)
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
    # the refinement tolerance of the level and inside its own gap; the
    # last level of each N also crosses pole brackets
    grid = np.linspace(0.5, 30.0, 120)
    for N, levels in ((1, (3.0, 5.0, 40.0)), (2, (5.0, 10.0, 80.0))):
        dg = BifurcationDiagram.scan(P2[N], CANONICAL, 1.0, grid,
                                     CANONICAL_ZEROS)
        assert dg._level_brackets(levels[-1], [])[1]
        for level in levels:
            xs = dg.solutions_at(level)
            assert xs and [x.c for x in xs] == sorted(x.c for x in xs)
            refs = _shot_lambdas(P2[N], [x.c for x in xs], CANONICAL)
            for x, ref in zip(xs, refs):
                assert x.lam == pytest.approx(level, rel=1e-8)
                assert x.zero_interval_index == CANONICAL_ZEROS.interval_index(x.c)
                assert ref[1] == pytest.approx(level, rel=ROW_RTOL)


def _levels_together_and_alone(dg, levels, monkeypatch):
    """(crossings, unresolved, rounds) of refining ``levels`` together and
    of refining each alone, counting the rounds (``_lambdas`` calls: one
    time map or one batch of shots each)."""
    calls = []
    lambdas = dg._lambdas

    def counted(heights):
        calls.append(1)
        return lambdas(heights)

    monkeypatch.setattr(dg, "_lambdas", counted)
    unresolved = []
    together = dg.solutions_at(levels, unresolved)
    shared = len(calls)
    alone = []
    for level in levels:
        calls.clear()
        missed = []
        alone.append((dg.solutions_at(level, missed), missed, len(calls)))
    return (together, unresolved, shared), alone


def _assert_shared_rounds_change_nothing(dg, levels, monkeypatch):
    (together, unresolved, shared), alone = _levels_together_and_alone(
        dg, levels, monkeypatch)
    assert together == [x for xs, _, _ in alone for x in xs]
    assert unresolved == [u for _, missed, _ in alone for u in missed]
    assert shared <= max(rounds for _, _, rounds in alone)
    return together, unresolved


def _pole_scans():
    """The canonical 200-row scan at N = 1 and at N = 2."""
    grid = np.linspace(0.4845, 29.788, 200)
    return [BifurcationDiagram.scan(P2[N], CANONICAL, 1.0, grid,
                                    find_zeros(CANONICAL, 12)) for N in (1, 2)]


def test_shared_rounds_match_levels_alone_through_a_pole(monkeypatch):
    # 41.93 brackets a crossing against a height next to a zero (a pole
    # bracket, its heights shot in the first round: next to alpha_2 at
    # N = 1, to alpha_4 at N = 2); 5.0 has none
    for dg in _pole_scans():
        assert dg._level_brackets(41.93, [])[1]
        assert not dg._level_brackets(5.0, [])[1]
        together, _ = _assert_shared_rounds_change_nothing(dg, [41.93, 5.0],
                                                           monkeypatch)
        assert [x.level for x in together] == sorted(
            (x.level for x in together), reverse=True)
        assert {x.level for x in together} == {41.93, 5.0}


def test_levels_sharing_a_pole_row_shoot_its_heights_once(monkeypatch):
    # both levels lie between the pole rows' lambdas and their neighbours
    # across a zero, so they propose the same heights next to it
    for dg in _pole_scans():
        poles = dg._level_brackets(41.93, [])[1]
        assert poles and poles == dg._level_brackets(41.95, [])[1]
        shot = []
        lambdas = dg._lambdas

        def counted(heights):
            shot.append(list(heights))
            return lambdas(heights)

        monkeypatch.setattr(dg, "_lambdas", counted)
        together = dg.solutions_at([41.93, 41.95])
        assert {x.level for x in together} == {41.93, 41.95}
        assert all(len(set(hs)) == len(hs) for hs in shot)


def test_shared_rounds_match_levels_alone_on_pucci(monkeypatch):
    op = PucciShootConfig(2.0, 2, 1.0, tol_ode=TOL_ODE)
    dg = BifurcationDiagram.scan(op, CANONICAL, 1.0,
                                 np.linspace(0.5, 20.0, 60),
                                 find_zeros(CANONICAL, 8))
    together, _ = _assert_shared_rounds_change_nothing(dg, [5.0, 20.0],
                                                       monkeypatch)
    assert all(sum(x.level == level for x in together) >= 5
               for level in (5.0, 20.0))


def test_shared_rounds_keep_unclosable_brackets_apart(monkeypatch):
    # the doctored rows of test_unclosable_pole_bracket_is_reported_not_raised
    for N in (1, 2):
        dg = BifurcationDiagram.scan(P2[N], CANONICAL, 1.0,
                                     [4.0, 5.5], CANONICAL_ZEROS)
        dg.rows = (dataclasses.replace(dg.rows[0], lam=1.0),
                   dataclasses.replace(dg.rows[1], lam=2e12))
        together, unresolved = _assert_shared_rounds_change_nothing(
            dg, [1e12, 1.5e12], monkeypatch)
        assert together == []
        assert [u.level for u in unresolved] == [1e12, 1.5e12]


# -- lean right-hand sides and one error state ---------------------------------

def _reference_eval(nl, v):
    """f(v) at v > 0, guarded by its own ``errstate`` and ``where``: the
    reference the lean ``eval_many`` must match bit for bit."""
    s = np.asarray(v, dtype=float)
    if isinstance(nl, PowerTimesOnePlusSin):
        pos = s > 0.0
        with np.errstate(invalid="ignore"):
            out = np.where(pos, s, 1.0) ** nl.r * (1.0 + np.sin(s))
        return np.where(pos, out, 0.0)
    if isinstance(nl, ReciprocalOscillation):
        # 1 + sin(1/v) is 1 where 1/v overflows
        safe = np.where(s > 0.0, s, 1.0)
        with np.errstate(over="ignore"):
            inv = 1.0 / safe
        wave = np.sin(np.where(np.isinf(inv), 0.0, inv))
        out = safe ** nl.exponent * (1.0 + np.where(np.isinf(inv), 0.0, wave))
        return np.where(s > 0.0, out, 0.0)
    if isinstance(nl, PureSine):
        return np.sin(s)
    if isinstance(nl, EnvelopeTimesOnePlusSin):
        return nl._interp_many(s) * (1.0 + np.sin(s))
    return nl._interp_many(s)


def _reference_system(op, nl):
    """(rhs, event functions, ends of the turning-point event or None) of
    the radial equations with f(0) below 0 by an explicit ``where``: the
    reference for ``system(nl)``."""
    lam, f0, nm1 = op.lambda_shoot, nl.f0, op.N - 1

    def f_of(v):
        return np.where(v > 0.0, _reference_eval(nl, v), f0)

    if isinstance(op, ShootConfig):
        q = 1.0 / (op.p - 1.0)
        pq = 1.0 + q

        def rhs(r, y):
            v, w = y[0], y[1]
            aw = np.abs(w)
            return (np.copysign(aw ** q, w), -lam * f_of(v) - nm1 * w / r,
                    nm1 * aw ** pq / r)
        return (rhs, [lambda t, y: y[0], lambda t, y: y[1]],
                lambda t, y: f_of(y[0]) <= 0.0)
    Lam = op.Lambda

    def qval(r, y):
        return lam * f_of(y[0]) + nm1 * y[1] / (Lam * r)

    def rhs(r, y):
        q = qval(r, y)
        return (y[1], np.where(q >= 0.0, -Lam * q, -q / Lam))
    gs = [lambda t, y: y[0], lambda t, y: y[1]] + [qval] * (Lam > 1.0)
    return rhs, gs, None


def _same_bits(a, b):
    # bytewise: tells -0.0 from 0.0 and takes a NaN as equal only to the
    # very same NaN, which value comparison never does
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


_table_samples = st.lists(st.floats(-1.0, 2.0), min_size=2, max_size=6).map(
    lambda ys: [[2.0 * i, y] for i, y in enumerate(ys)])
_catalog = st.one_of(
    st.builds(lambda r: {"kind": "power_sin", "r": r},
              st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])),
    st.builds(lambda r: {"kind": "reciprocal_sin", "r": r},
              st.sampled_from([0.5, 1.0, 2.0])),
    st.just({"kind": "pure_sine"}),
    st.builds(lambda ys: {"kind": "envelope_sin",
                          "samples": [[2.0 * i, y] for i, y in enumerate(ys)]},
              st.lists(st.floats(0.1, 2.0), min_size=2, max_size=6).map(sorted)),
    st.builds(lambda s: {"kind": "table", "samples": s}, _table_samples))
_shot_ops = st.one_of(
    st.builds(lambda p, N, lam: ShootConfig(p, N, 1.0, lambda_shoot=lam),
              st.sampled_from([1.5, 2.0, 3.0]), st.integers(1, 3),
              st.floats(0.1, 50.0)),
    st.builds(lambda L, N, lam: PucciShootConfig(L, N, 1.0, lambda_shoot=lam),
              st.sampled_from([1.0, 2.0]), st.integers(1, 3),
              st.floats(0.1, 50.0)))
_values = st.one_of(st.floats(-5.0, 40.0),
                    st.sampled_from([0.0, -0.0, 1e-300, -1e-300]))


@settings(max_examples=60, deadline=None)
@given(spec=_catalog, op=_shot_ops,
       lanes=st.lists(st.tuples(_values, _values, st.floats(1e-6, 10.0)),
                      min_size=1, max_size=8))
# below 1/DBL_MAX, 1/v overflows and f(v) of reciprocal_sin is v^(1/r) on both sides
@example(spec={"kind": "reciprocal_sin", "r": 0.5},
         op=ShootConfig(1.5, 1, 1.0, lambda_shoot=1.0),
         lanes=[(2.225073858507203e-309, 0.0, 1.0)])
def test_lean_right_hand_sides_give_the_same_bits(spec, op, lanes):
    nl = nonlinearity_from_json(spec)
    # every state also has v <= 0 and w = 0 lanes, which give q = 0 where f(0) = 0
    lanes = lanes + [(-1.0, 0.0, 0.5), (0.0, 0.0, 1.0), (-0.0, -0.0, 2.0)]
    v, w, r = (np.array(col) for col in zip(*lanes))
    y = np.array([v, w, np.abs(w)])[:2 if isinstance(op, PucciShootConfig) else 3]
    rhs, events = op.system(nl)
    ref_rhs, ref_gs, ref_ends = _reference_system(op, nl)
    with np.errstate(all="ignore"):
        got, want = rhs(r, y), ref_rhs(r, y)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert _same_bits(a, b)
        assert len(events) == len(ref_gs)
        for ev, g in zip(events, ref_gs):
            assert _same_bits(ev.g(r, y), g(r, y))
        if ref_ends is not None:
            assert _same_bits(events[1].ends_at(r, y), ref_ends(r, y))


def test_batch_restores_the_error_state(monkeypatch):
    # the batch runs under its own error state and hands the caller's back,
    # also when it raises
    events = [Event(lambda t, y: y[0], 0, ends=False)]

    def run(**kwargs):
        return integrate_batch(_oscillator, np.zeros(2),
                               np.array([[1.0, 1.0], [0.0, 0.0]]),
                               10.0, 1e-10, 1.0, events=events, **kwargs)

    with np.errstate(all="warn"):
        before = np.geterr()
        run()
        assert np.geterr() == before
        with pytest.raises(NonConvergence, match="restarts"):
            run(max_restarts=1)
        assert np.geterr() == before
        with monkeypatch.context() as m:
            m.setattr(_rk, "_MAX_STEPS", 5)
            with pytest.raises(NonConvergence, match="steps"):
                run()
        assert np.geterr() == before
        with warnings.catch_warnings(), pytest.raises(NonintegrableStep):
            warnings.simplefilter("ignore")
            # y' = y^2 from y(0) = 1 blows up at t = 1
            integrate_batch(lambda t, y: (y[0] * y[0],), np.zeros(1),
                            np.ones((1, 1)), 2.0, 1e-10, 1.0)
        assert np.geterr() == before


@pytest.mark.parametrize("operator, N, tol_ode", [
    ({"plap": {"p": 2.0}}, 1, 1e-10),
    ({"plap": {"p": 3.0}}, 2, 1e-12),
    ({"pucci": {"Lambda": 2.0}}, 2, 1e-10),
])
def test_scan_diagrams_raise_no_runtime_warning(tmp_path, operator, N, tol_ode):
    # the three 200-height diagrams of the scan benchmark, warnings as errors
    cfg = {"nonlinearity": {"kind": "power_sin", "r": 1.0}, "operator": operator,
           "geometry": {"N": N, "R": 1.0}, "tolerances": {"tol_ode": tol_ode},
           "scan": {"c_min": 0.5, "c_max": 30.0, "points": 200}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["diagram", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
