import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oscillap.errors import DomainError, QuadratureFailure
from oscillap.nonlinearity import (
    CustomTable,
    EnvelopeTimesOnePlusSin,
    PowerTimesOnePlusSin,
    PureSine,
    ReciprocalOscillation,
)
from oscillap.primitives import (
    MAX_LATTICE_PANELS,
    PANEL_WIDTH,
    TOL_QUAD,
    CachedPrefix,
    PrimitiveCalculus,
    _PowerSinPrimitive,
    _WG,
    _WK,
    _XK,
)
from oscillap.shoot_plap import _WGAP, _XGAP, HeightPrimitives
from oscillap.thresholds import Operator, TailLimits

from helpers import tabulate

PI = math.pi

# f(s) = s (1 + sin s) has the closed-form antiderivative s^2/2 + sin s - s cos s
def F_power1(s):
    return s * s / 2 + math.sin(s) - s * math.cos(s)


@pytest.fixture(scope="module")
def pc_power():
    return PrimitiveCalculus(PowerTimesOnePlusSin(1.0))


@pytest.fixture(scope="module")
def pc_sine():
    return PrimitiveCalculus(PureSine())


def test_primitive_closed_form_power_sin(pc_power):
    s = np.linspace(0.05, 40.0, 200)
    want = np.array([F_power1(x) for x in s])
    np.testing.assert_allclose(pc_power.F_many(s), want, rtol=1e-8)
    assert pc_power.F(10.0) == pytest.approx(50 + math.sin(10) - 10 * math.cos(10),
                                             rel=1e-10)
    assert pc_power.F(0.0) == 0.0


def _quadrature_reference(n):
    """1e-12 panel quadrature of s^n (1 + sin s), swept to 1e4 at once.

    The one sweep keeps later queries to their remainder panels.
    """
    cache = CachedPrefix(PowerTimesOnePlusSin(float(n)).eval_many, tol=1e-12)
    cache.F_many(np.array([1e4]))
    return cache


_QUADRATURE_REFERENCE = {n: _quadrature_reference(n) for n in (1, 2, 3)}


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 3]),
       s=st.lists(st.floats(1e-6, 1e4), min_size=1, max_size=8))
def test_power_sin_closed_form_matches_quadrature(n, s):
    """Integer r takes the closed form; it matches 1e-12 panel quadrature."""
    pc = PrimitiveCalculus(PowerTimesOnePlusSin(float(n)))
    s = np.array(s)
    want = _QUADRATURE_REFERENCE[n].F_many(s)
    np.testing.assert_allclose(pc.F_many(s), want, rtol=1e-12)
    assert pc.F(float(s[0])) == pytest.approx(want[0], rel=1e-12)
    np.testing.assert_array_equal(pc.F_Lambda_many(s, 1.0), pc.F_many(s))


def test_primitive_zero_function():
    z = CustomTable(np.array([[0.0, 0.0], [40.0, 0.0]]))
    pc = PrimitiveCalculus(z)
    for s in (0.0, 1.0, 17.3):
        assert pc.F(s) == 0.0
    assert list(_fbar(pc, [0.0, 1.0, 17.3])) == [0.0] * 3


def test_primitive_one_plus_sin_envelope():
    nl = EnvelopeTimesOnePlusSin(np.array([[0.0, 1.0], [50.0, 1.0]]))
    pc = PrimitiveCalculus(nl)
    # F(s) = s + 1 - cos s for the unit envelope
    assert pc.F(2 * PI) == pytest.approx(2 * PI, rel=1e-10)
    assert pc.F(PI / 3) == pytest.approx(PI / 3 + 0.5, rel=1e-10)


def _fbar(pc, s):
    """Fbar = F - its running minimum at each s."""
    F, lo, _ = pc.extrema_many(s)
    return F - lo


def test_fbar_equals_f_for_nonnegative(pc_power):
    s = np.linspace(0.0, 30.0, 100)
    np.testing.assert_allclose(_fbar(pc_power, s), pc_power.F_many(s),
                               rtol=1e-12, atol=1e-12)


def test_fbar_cos_table():
    # F = sin s dips to -1 at 3pi/2, so Fbar(2pi) = 0 - (-1) = 1
    tab = tabulate(math.cos, 7.0, 60001)
    pc = PrimitiveCalculus(tab)
    fb = _fbar(pc, [2 * PI, 0.0])
    assert fb[0] == pytest.approx(1.0, rel=1e-8)
    assert fb[1] == 0.0


def test_fbar_dominates_f_and_zero(pc_sine):
    s = np.linspace(0.0, 25.0, 120)
    fb = _fbar(pc_sine, s)
    assert np.all(fb >= -1e-12)
    assert np.all(fb >= pc_sine.F_many(s) - 1e-12)


def test_fbar_nondecreasing_for_nonnegative_f(pc_power):
    s = np.linspace(0.0, 40.0, 400)
    diffs = np.diff(_fbar(pc_power, s))
    assert np.all(diffs >= -1e-9)


def test_f_lambda_identity_at_one():
    pc = PrimitiveCalculus(PureSine())
    s = np.linspace(0.0, 20.0, 80)
    F = pc.F_many(s)
    assert np.all(np.abs(pc.F_Lambda_many(s, 1.0) - F) <= 1e-10 * (1 + np.abs(F)))


def test_f_lambda_equals_f_for_nonnegative():
    pc = PrimitiveCalculus(PowerTimesOnePlusSin(1.0))
    s = np.array([0.5, 3.0, 11.0])
    np.testing.assert_allclose(pc.F_Lambda_many(s, 3.0), pc.F_many(s), rtol=1e-12)


def test_f_lambda_sine_closed_form(pc_sine):
    # over [0, 2pi]: int f+ = 2, int f- = 2, so F_Lambda = 2 - 2/4 = 1.5
    assert pc_sine.F_Lambda_many([2 * PI], 2.0)[0] == pytest.approx(1.5, rel=1e-8)


def _sine_negative_part(s):
    """integral_0^s max(-sin t, 0) dt: 2 per period, 1 + cos r past pi."""
    k, r = divmod(s, 2 * PI)
    return 2.0 * k + (1.0 + math.cos(r) if r > PI else 0.0)


def test_f_splits_into_signed_parts():
    """F- = integral max(-f, 0) against independent values: 0 for f >= 0,
    the closed form for sin, and a dense trapezoid sum for a table."""
    rng = np.random.default_rng(7)
    tab = tabulate(lambda s: math.sin(1.3 * s) - 0.2, 30.0, 3001)
    grid = np.linspace(0.0, 25.0, 2_500_001)
    neg = np.maximum(-tab.eval_many(grid), 0.0)
    trapezoid = np.concatenate([[0.0], np.cumsum(0.5 * (neg[1:] + neg[:-1])
                                                 * np.diff(grid))])
    cases = [
        (PrimitiveCalculus(PowerTimesOnePlusSin(1.0)), lambda s: 0.0),
        (PrimitiveCalculus(PureSine()), _sine_negative_part),
        (PrimitiveCalculus(ReciprocalOscillation(2.0)), lambda s: 0.0),
        (PrimitiveCalculus(tab), lambda s: float(np.interp(s, grid, trapezoid))),
    ]
    for pc, negative_part in cases:
        s = rng.uniform(0.0, 25.0, 100)
        want = np.array([negative_part(float(x)) for x in s])
        assert np.all(np.abs(pc._Fminus_many(s) - want) <= 1e-8 * (1 + np.abs(want)))


def test_running_extrema_bracket_checkpoints(pc_sine):
    s = 17.0
    _, [rmin], [rmax] = pc_sine.extrema_many([s])
    assert rmin <= min(0.0, pc_sine.F(s)) + 1e-12
    assert rmax >= max(0.0, pc_sine.F(s)) - 1e-12
    for t in np.linspace(0.0, s, 50):
        Ft = pc_sine.F(float(t))
        assert rmin <= Ft + 1e-9
        assert rmax >= Ft - 1e-9


def test_reciprocal_primitive_frozen_oracle():
    # F(s) = s^{3/2} (1 + sin(1/s)) integrated from 0; values frozen from a
    # 50-digit split quadrature (plain head integral plus an oscillation-aware
    # tail summed between consecutive zeros of the integrand)
    frozen = {
        0.001: 2.109970026961219e-05,
        0.01: 6.751559359465954e-04,
        0.2122: 0.05783667701239045,
        0.5: 0.2677305129955924,
        1.0: 1.104347019204467,
        3.0: 5.278450230050744,
        50.0: 248.1736247698129,
        2000.0: 59716.25103482023,
    }
    pc = PrimitiveCalculus(ReciprocalOscillation(2.0))
    for s, want in frozen.items():
        assert pc.F(s) == pytest.approx(want, rel=5e-13)
    # vectorized path agrees with the scalar path
    s = np.array(sorted(frozen))
    np.testing.assert_allclose(pc.F_many(s), [frozen[x] for x in sorted(frozen)],
                               rtol=5e-13)


def test_quadrature_budget_exhaustion_raises():
    """An integrand no bisection resolves (nan past s = 2) raises."""
    cache = CachedPrefix(lambda s: np.where(s > 2.0, np.nan, s))
    assert cache.F_many(np.array([0.5]))[0] == pytest.approx(0.125, rel=1e-15)
    with pytest.raises(QuadratureFailure):
        cache.F_many(np.array([10.0]))


@pytest.mark.parametrize("target", [1e12, 1e300, math.inf])
def test_prefix_refuses_a_lattice_past_its_bound(target, monkeypatch):
    """A point past MAX_LATTICE_PANELS panels is refused before the
    lattice, the kinks or any integrand value is asked for."""
    nl = PowerTimesOnePlusSin(1.5)

    def untouched(*args):
        raise AssertionError("asked for the lattice")

    cache = CachedPrefix(untouched, kinks=untouched)
    monkeypatch.setattr(np, "arange", untouched)
    with pytest.raises(QuadratureFailure, match="quadrature panels"):
        cache.F_many(np.array([1.0, target]))
    monkeypatch.undo()
    with pytest.raises(QuadratureFailure):
        PrimitiveCalculus(nl).F_many(np.array([target]))
    assert MAX_LATTICE_PANELS * PANEL_WIDTH < 1e12


def test_kronrod_rule_degrees():
    """The 21-point Kronrod rule integrates monomials exactly to degree 31
    and its embedded 10-point Gauss rule to degree 19, not beyond."""
    def error(w, k):
        return abs(float(np.dot(_XK ** k, w)) - (2.0 / (k + 1) if k % 2 == 0 else 0.0))

    assert max(error(_WK, k) for k in range(32)) < 1e-15
    assert max(error(_WG, k) for k in range(20)) < 1e-15
    assert error(_WK, 32) > 1e-12 and error(_WG, 20) > 1e-6
    assert np.count_nonzero(_WG) == 10 and _XK.size == 21


def test_gap_rule_is_numpy_leggauss():
    """The time map's 5-point literals are leggauss(5) bit for bit."""
    x, w = np.polynomial.legendre.leggauss(5)
    np.testing.assert_array_equal(_XGAP, 0.5 * (1.0 + x))
    np.testing.assert_array_equal(_WGAP, w)


def test_prefix_extension_stops_at_rounding_level():
    """A Kronrod/Gauss disagreement at rounding level ends the refinement.

    Near s = 7000 the node placement alone moves s^3 (1 + sin s) by about
    eps * s relative, far above a 1e-12 tolerance; bisecting such panels
    until their values drop below 1 made this one extension take about 50 s.
    """
    cache = CachedPrefix(lambda s: s ** 3 * (1.0 + np.sin(s)), tol=1e-12)
    cache.F_many(np.array([6370.0]))
    start = time.perf_counter()
    got = cache.F_many(np.array([9128.0]))
    assert time.perf_counter() - start < 2.0
    np.testing.assert_allclose(got, _PowerSinPrimitive(3).F_many(np.array([9128.0])),
                               rtol=1e-12)


def test_prefix_at_tight_tolerance_passes_a_double_zero():
    """At 1e-13 the double zero of 1 + sin s at s = 7048.16 refines to an end.

    Without the rounding floor the panel holding it exhausted the
    subdivision depth and raised QuadratureFailure.
    """
    ps = _PowerSinPrimitive(3)
    cache = CachedPrefix(PowerTimesOnePlusSin(3.0).eval_many, tol=1e-13)
    s = np.linspace(7000.0, 7100.0, 41)
    np.testing.assert_allclose(cache.F_many(s), ps.F_many(s), rtol=1e-12)
    for x in (7048.0, 7048.163118328701, 7048.3):
        np.testing.assert_allclose(cache.F_many(np.array([x])),
                                   ps.F_many(np.array([x])), rtol=1e-12)


def test_limit_estimate_power_sin(pc_power):
    est = Operator.p_laplacian(2.0).limits(pc_power.nl, "infinity")
    assert est.classification == "FinitePair"
    assert est.L_minus == 0.5
    assert est.L_plus == 0.5
    assert est.to_json() == {"L_minus": 0.5, "L_plus": 0.5,
                             "classification": "FinitePair", "which": "F",
                             "direction": "infinity"}


def test_limit_estimate_constant_ratio_exact():
    # f(s) = 2 c s on the first segment, so F = c s^2 there: F/s^2 -> c
    c = 0.7
    tab = CustomTable(np.array([[0.0, 0.0], [5e5, 2 * c * 5e5], [1e6, 2 * c * 1e6]]))
    est = Operator.p_laplacian(2.0).limits(tab, "zero")
    assert est.classification == "FinitePair"
    assert est.L_minus == c
    assert est.L_plus == c


def test_limit_estimate_cubic_toward_zero():
    # the interpolant of s^3 is linear on its first segment, of slope
    # h^2 with h = 1/20001, so F ~ h^2 s^2 / 2 there
    tab = tabulate(lambda s: s ** 3, 1.0, 20001, direction="zero")
    est = Operator.p_laplacian(2.0).limits(tab)
    h = tab.xs[1]
    assert est.classification == "FinitePair"
    assert est.L_minus == est.L_plus == tab.ys[1] / h / 2.0
    assert est.L_plus == pytest.approx(1.25e-9, rel=1e-3)


def test_limit_estimate_validates_classification():
    with pytest.raises(DomainError):
        TailLimits(0.0, 1.0, "Sideways")
    with pytest.raises(DomainError):
        TailLimits(2.0, 1.0, "FinitePair")
    with pytest.raises(DomainError):
        Operator.p_laplacian(2.0).limits(PureSine(), "sideways")


#: the operators each tail case is checked for, in the order of its limits
_TAIL_OPERATORS = (Operator.p_laplacian(2.0), Operator.p_laplacian(3.0),
                   Operator.pucci(2.0))
INF = math.inf
#: case -> (f, {direction: (limits of G(s)/s^e for p = 2, p = 3 and Pucci
#: Lambda = 2, far-field tolerance)}); 1e-12 where G is exactly c s^m
_TAIL_CASES = {
    "power_sin r=1": (PowerTimesOnePlusSin(1.0), {
        "infinity": ((0.5, 0.0, 0.5), 1e-2), "zero": ((0.5, INF, 0.5), 1e-2)}),
    "power_sin r=0.5": (PowerTimesOnePlusSin(0.5), {
        "infinity": ((0.0, 0.0, 0.0), 1e-2), "zero": ((INF, INF, INF), 1e-2)}),
    "power_sin r=1.5": (PowerTimesOnePlusSin(1.5), {
        "infinity": ((INF, 0.0, INF), 1e-2), "zero": ((0.0, INF, 0.0), 1e-2)}),
    "reciprocal_sin r=2": (ReciprocalOscillation(2.0), {
        "infinity": ((0.0, 0.0, 0.0), 1e-2), "zero": ((INF, INF, INF), 1e-2)}),
    "reciprocal_sin r=0.5": (ReciprocalOscillation(0.5), {
        "infinity": ((INF, 1 / 3, INF), 1e-2),
        "zero": ((0.0, 1 / 3, 0.0), 1e-2)}),
    # F = 1 - cos s is bounded, and F- ~ s/pi weighs in at Lambda = 2
    "pure_sine": (PureSine(), {
        "infinity": ((0.0, 0.0, 0.0), 1e-2), "zero": ((0.5, INF, 0.5), 1e-2)}),
    "envelope_sin": (EnvelopeTimesOnePlusSin(
        np.array([[0.0, 1.0], [10.0, 1.5], [30.0, 3.0]])), {
        "infinity": ((0.0, 0.0, 0.0), 1e-2), "zero": ((INF, INF, INF), 1e-2)}),
    "table f = 0.7": (CustomTable(np.array([[0.0, 0.7], [1.0, 0.7]])), {
        "infinity": ((0.0, 0.0, 0.0), 1e-12),
        "zero": ((INF, INF, INF), 1e-12)}),
    "table f = -0.5": (CustomTable(np.array([[0.0, -0.5], [1.0, -0.5]])), {
        "infinity": ((0.0, 0.0, 0.0), 1e-12),
        "zero": ((-INF, -INF, -INF), 1e-12)}),
    "table f = 1.4 s": (CustomTable(np.array([[0.0, 0.0], [2.0, 2.8]])), {
        "infinity": ((0.0, 0.0, 0.0), 1e-2),
        "zero": ((0.7, INF, 0.7), 1e-12)}),
    # f^- weighs 1/Lambda^2: -s^2/2 becomes -s^2/8 at Lambda = 2
    "table f = -s": (CustomTable(np.array([[0.0, 0.0], [1.0, -1.0]])), {
        "infinity": ((0.0, 0.0, 0.0), 1e-2),
        "zero": ((-0.5, -INF, -0.125), 1e-12)}),
    "table ending at 0": (CustomTable(np.array([[0.0, 1.0], [1.0, 0.0]])), {
        "infinity": ((0.0, 0.0, 0.0), 1e-2), "zero": ((INF, INF, INF), 1e-2)}),
}


def _classification(L):
    return {0.0: "BothZero", INF: "PlusInfinite",
            -INF: "MinusInfinite"}.get(L, "FinitePair")


@pytest.mark.parametrize("case, direction", [
    (case, direction) for case in sorted(_TAIL_CASES)
    for direction in ("infinity", "zero")])
def test_tail_limits_are_exact_and_match_the_far_field(case, direction):
    """Each kind's leading term G = c s^m + o(s^m) gives the exact limits
    of G(s)/s^e; the term itself is checked against the primitives: G/s^e
    at s = 1e4 (1e-4 toward 0) is c s^(m-e) within the case's tolerance,
    and no farther from it than at s = 1e2 (1e-2)."""
    nl, expected = _TAIL_CASES[case]
    limits, tol = expected[direction]
    pc = PrimitiveCalculus(nl)
    s = np.array([1e2, 1e4] if direction == "infinity" else [1e-2, 1e-4])
    for op, L in zip(_TAIL_OPERATORS, limits):
        est = op.limits(nl, direction)
        assert (est.L_minus, est.L_plus, est.classification, est.which,
                est.direction) == (L, L, _classification(L), op.which,
                                   direction)
        m, c = nl.tail(direction, op.weight)
        G_many, _ = op.primitive(pc)
        ratio = G_many(s) / s ** op.exponent
        if c == 0.0:
            assert abs(ratio[1]) <= 1e-6
            continue
        err = np.abs(ratio / (c * s ** (m - op.exponent)) - 1.0)
        assert err[1] <= tol
        assert err[1] <= max(err[0], 1e-12)


# f(s) = 1 + sin s: smooth, and its F comes from the shared prefix cache
# (power_sin with integer r has a closed form and no cache)
UNIT_ENVELOPE = EnvelopeTimesOnePlusSin(np.array([[0.0, 1.0], [100.0, 1.0]]))


def _one_point_extrema(pc, x, Lambda):
    """(F_Lambda, min, max) at x from a one-point ``extrema_many`` call."""
    return tuple(float(v[0]) for v in pc.extrema_many([x], Lambda))


#: one-point reads that threads share: F, and the running extrema of
#: F_Lambda at two Lambda, whose tables the first reader of each creates
_SHARED_READS = (lambda pc, x: pc.F(x),
                 lambda pc, x: _one_point_extrema(pc, x, 1.5),
                 lambda pc, x: _one_point_extrema(pc, x, 2.0))


def test_concurrent_reads_match_serial():
    s = np.linspace(0.1, 35.0, 137)
    for nl in (UNIT_ENVELOPE, PureSine()):
        serial = [[read(PrimitiveCalculus(nl), float(x)) for x in s]
                  for read in _SHARED_READS]
        fresh = PrimitiveCalculus(nl)
        out = [[None] * len(s) for _ in _SHARED_READS]
        chunks = np.array_split(np.arange(len(s)), 8)

        def work(ix):
            for i in ix:
                for k, read in enumerate(_SHARED_READS):
                    out[k][i] = read(fresh, float(s[i]))

        threads = [threading.Thread(target=work, args=(ix,)) for ix in chunks]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert out == serial


def test_fresh_cache_reads_race_extensions():
    """Readers racing the first extensions of a fresh cache read one
    consistent (checkpoints, prefix values) snapshot: no index past the
    prefix array, and the serial values bit for bit."""
    s = np.linspace(0.1, 60.0, 97)
    ref = PrimitiveCalculus(UNIT_ENVELOPE)
    serial = np.array([ref.F(float(x)) for x in s])
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            fresh = PrimitiveCalculus(UNIT_ENVELOPE)
            out = np.full(len(s), np.nan)
            errors = []

            def work(ix):
                try:
                    for i in ix:
                        out[i] = fresh.F(float(s[i]))
                except Exception as ex:  # collected for the assertion below
                    errors.append(ex)

            threads = [threading.Thread(target=work, args=(range(j, len(s), 4),))
                       for j in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            np.testing.assert_array_equal(out, serial)
    finally:
        sys.setswitchinterval(old)


_PROPERTY_PC = PrimitiveCalculus(PureSine())


@given(st.floats(min_value=0.0, max_value=60.0, allow_nan=False))
def test_fbar_nonnegative_property(s):
    [fb] = _fbar(_PROPERTY_PC, [s])
    assert fb >= -1e-12
    assert fb >= _PROPERTY_PC.F(s) - 1e-12


# nonlinearities whose F comes from panel caches: sign-changing (with an F-
# cache), smooth, with a root kink at 0, and with table kinks; and a
# sign-changing table, whose negative part is exact
_PANEL_CACHE_CASES = {
    "pure_sine": PureSine(),
    "power_sin r=0.5": PowerTimesOnePlusSin(0.5),
    "power_sin r=1.5": PowerTimesOnePlusSin(1.5),
    "envelope_sin": EnvelopeTimesOnePlusSin(
        np.array([[0.0, 1.0], [7.3, 2.5], [19.1, 2.6], [50.0, 4.0]])),
    "cos table": tabulate(lambda s: math.cos(s) + 0.3, 40.0, 801),
}
_LAMBDAS = (1.0, 1.5, 2.0)
#: each quantity and the Lambda it is asked at; None asks extrema at its default
_QUANTITIES = {"F": (None,), "F_Lambda": _LAMBDAS, "extrema": (None,) + _LAMBDAS}


def _query(pc, quantity, xs, batched, Lambda):
    """``quantity`` at each x (at ``Lambda`` for the F_Lambda family), by
    one batched call or one call per point."""
    args = () if Lambda is None else (Lambda,)
    groups = [xs] if batched else [[x] for x in xs]
    if quantity == "extrema":
        return [pair for g in groups
                for pair in zip(*(v.tolist() for v in pc.extrema_many(g, *args)[1:]))]
    return [float(v) for g in groups
            for v in getattr(pc, quantity + "_many")(np.array(g), *args)]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(sorted(_PANEL_CACHE_CASES)),
       s=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=10),
       data=st.data())
def test_primitive_values_do_not_depend_on_query_order(case, s, data):
    """F, F_Lambda and the running extrema at a point have the same bits
    whatever was asked before, in whatever groups, at whatever Lambda, by
    one-point or batched calls: one PrimitiveCalculus serves every Lambda
    as a fresh one per Lambda does."""
    nl = _PANEL_CACHE_CASES[case]
    want = {}
    for q, lams in _QUANTITIES.items():
        for lam in lams:
            vals = _query(PrimitiveCalculus(nl), q, s, False, lam)
            want.update(((q, lam, x), v) for x, v in zip(s, vals))
    pc = PrimitiveCalculus(nl)
    order = data.draw(st.permutations(s))
    got = {}
    while order:
        k = data.draw(st.integers(1, len(order)))
        group, order = order[:k], order[k:]
        batched = data.draw(st.booleans())
        for q in data.draw(st.permutations(list(_QUANTITIES))):
            lam = data.draw(st.sampled_from(_QUANTITIES[q]))
            vals = _query(pc, q, group, batched, lam)
            got.update(((q, lam, x), v) for x, v in zip(group, vals))
    assert got == {key: want[key] for key in got}


#: the cache cases, a limit toward 0 and a table with f(0) < 0
_LAMBDA_ONE_CASES = {
    **_PANEL_CACHE_CASES,
    "reciprocal_sin": ReciprocalOscillation(2.0),
    "sin table": tabulate(lambda s: math.sin(1.3 * s) - 0.2, 30.0, 3001),
}


@pytest.mark.parametrize("case", sorted(_LAMBDA_ONE_CASES))
def test_pucci_at_lambda_one_is_the_laplacian_bit_for_bit(case):
    """At Lambda = 1, F_Lambda is F, so Pucci and the p = 2 Laplacian give
    the same bits in every closed form: limits, lambda_under, Gbar, the
    per-solution bound and a diagram row's primitives."""
    pc = PrimitiveCalculus(_LAMBDA_ONE_CASES[case])
    pucci, plap = Operator.pucci(1.0), Operator.p_laplacian(2.0)
    a, b = pucci.limits(pc.nl), plap.limits(pc.nl)
    assert (a.L_minus, a.L_plus, a.classification) == \
        (b.L_minus, b.L_plus, b.classification)
    assert pucci.lambda_under(1.5, a) == plap.lambda_under(1.5, b)
    cs = [0.3, 2.5, 8.6667, 17.3, 29.0]
    np.testing.assert_array_equal(pucci.Gbar_many(pc, cs), plap.Gbar_many(pc, cs))
    for c, Gbar in zip(cs, plap.Gbar_many(pc, cs).tolist()):
        if Gbar > 0.0:   # the sin table sits at its running min at some c
            assert pucci.bound(c, Gbar, 1.5) == plap.bound(c, Gbar, 1.5)
        # equal fields, with the nan bound of Gbar = 0 equal to itself
        np.testing.assert_array_equal(HeightPrimitives.at(pucci, pc, c, 1.5),
                                      HeightPrimitives.at(plap, pc, c, 1.5))


#: one nonlinearity per F backend: exact table, closed-form power_sin,
#: the reciprocal primitive, and the panel cache (with an F- cache), each
#: with its span and the points where f vanishes
_BACKEND_CASES = {
    "table": (_PANEL_CACHE_CASES["cos table"], 40.0),
    "power_sin": (PowerTimesOnePlusSin(1.0), 40.0),
    "reciprocal_sin": (ReciprocalOscillation(2.0), 0.5),
    "pure_sine": (PureSine(), 40.0),
}


def _vanishing_points(nl, span):
    if isinstance(nl, CustomTable):
        return nl.sign_change_points(span)
    return [z for z in nl.analytic_zeros(12) if z <= span]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(_BACKEND_CASES)),
       Lambda=st.sampled_from((1.0, 2.0)), data=st.data())
def test_extrema_many_is_the_one_point_extrema_for_every_backend(case, Lambda, data):
    """F_Lambda and its running (min, max) from one ``extrema_many`` call
    have the bits of one-point calls on a fresh PrimitiveCalculus, for
    points in any order, repeated, and on the zeros of f."""
    nl, span = _BACKEND_CASES[case]
    zeros = _vanishing_points(nl, span)
    s = data.draw(st.lists(st.floats(0.0, span) | st.sampled_from(zeros),
                           min_size=1, max_size=12))
    s = s + data.draw(st.lists(st.sampled_from(s), max_size=4))   # repeats
    G, lo, hi = PrimitiveCalculus(nl).extrema_many(np.array(s), Lambda)
    one = PrimitiveCalculus(nl)
    want = [_one_point_extrema(one, x, Lambda) for x in s]
    np.testing.assert_array_equal(_bits(np.column_stack([G, lo, hi])), _bits(want))


@pytest.mark.parametrize("op", [Operator.p_laplacian(3.0), Operator.pucci(2.0)],
                         ids=["p_laplacian", "pucci"])
@pytest.mark.parametrize("case", ["table", "pure_sine"])
def test_height_primitives_batch_is_per_height(case, op):
    """A diagram's batch of row primitives has the bits of one
    ``HeightPrimitives.at`` per height, nan bounds included."""
    nl, span = _BACKEND_CASES[case]
    cs = [17.3, 0.4, 2.5] + _vanishing_points(nl, 20.0) + [8.6667, 2.5, 33.0]
    batch = HeightPrimitives.many(op, PrimitiveCalculus(nl), cs, 1.5)
    one = PrimitiveCalculus(nl)
    np.testing.assert_array_equal(
        _bits(batch), _bits([HeightPrimitives.at(op, one, c, 1.5) for c in cs]))


_TIGHT_POWER_HALF = CachedPrefix(PowerTimesOnePlusSin(0.5).eval_many, tol=1e-15)

# (nonlinearity, oracle for F, interval checked)
_CACHE_ORACLES = {
    "pure_sine": (PureSine(), lambda s: 1.0 - np.cos(s), (0.0, 60.0)),
    "power_sin r=1": (PowerTimesOnePlusSin(1.0), _PowerSinPrimitive(1).F_many,
                      (0.0, 60.0)),
    "power_sin r=0.5": (PowerTimesOnePlusSin(0.5), _TIGHT_POWER_HALF.F_many,
                        (1e-4, 30.0)),
}


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(sorted(_CACHE_ORACLES)),
       prior=st.lists(st.lists(st.floats(0.0, 60.0), min_size=1, max_size=4),
                      max_size=4),
       s=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
@example(case="power_sin r=0.5", prior=[[1.0]], s=[0.01, 0.0233])
def test_cached_prefix_matches_oracles_after_any_queries(case, prior, s):
    """Earlier queries leave a panel cache within the quadrature tolerance
    of its oracle at every later point (s scaled onto the interval)."""
    nl, oracle, (lo, hi) = _CACHE_ORACLES[case]
    cache = CachedPrefix(nl.eval_many, kinks=nl.kink_points)
    for group in prior:
        cache.F_many(np.array(group))
    x = lo + (hi - lo) * np.array(s)
    got, want = cache.F_many(x), oracle(x)
    bound = np.maximum(TOL_QUAD * np.maximum(1.0, np.abs(want)), 1e-13)
    assert np.all(np.abs(got - want) <= bound), (x, got - want)
