import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oscillap._rk import brentq
from oscillap.errors import DomainError, NonpositiveFbar
from oscillap.nonlinearity import (CustomTable, PowerTimesOnePlusSin, PureSine,
                                  find_zeros)
from oscillap.primitives import PrimitiveCalculus
from oscillap.thresholds import (
    BallGeometry,
    Operator,
    TailLimits,
    ThresholdReport,
    ThresholdRow,
    compute_thresholds,
    estimate_M,
    lambda_bar_estimate,
    lambda_n_sequence,
    propose_gammas,
)

from helpers import tabulate

PI = math.pi
PLAP2 = Operator.p_laplacian(2.0)
#: f(s) = cos s + 0.3 on [0, 40]: sign-changing, with f(0) > 0
_XS = np.linspace(0.0, 40.0, 801)
COS_TABLE = CustomTable(np.column_stack([_XS, np.cos(_XS) + 0.3]))


@pytest.fixture(scope="module")
def pc_power():
    return PrimitiveCalculus(PowerTimesOnePlusSin(1.0))


@pytest.fixture(scope="module")
def canonical_gammas():
    # heights where 1 + sin peaks: the natural maximizers between zeros
    return [2 * PI * n + PI / 2 for n in range(1, 13)]


def test_ball_geometry_measures():
    g = BallGeometry(3, 2.0)
    assert g.unit_ball_volume == pytest.approx(4 * PI / 3, rel=1e-14)
    assert g.measure == pytest.approx(4 * PI / 3 * 8, rel=1e-14)
    # 1D ball of radius R is the interval (-R, R)
    assert BallGeometry(1, 1.0).measure == pytest.approx(2.0, rel=1e-15)


def test_ball_geometry_validation():
    with pytest.raises(DomainError):
        BallGeometry(0, 1.0)
    with pytest.raises(DomainError):
        BallGeometry(2, -1.0)


def _pair(L_minus, L_plus):
    """A finite limit pair as ``Operator.limits`` reports it."""
    return TailLimits(L_minus, L_plus, "FinitePair")


def test_lambda_under_plap_formula_and_degenerate_cases():
    plap2 = Operator.p_laplacian(2)
    assert plap2.lambda_under(1, _pair(0.5, 0.5)) == pytest.approx(1.0, rel=1e-15)
    assert plap2.lambda_under(1, _pair(-0.5, -0.3)) == math.inf
    assert Operator.p_laplacian(3).lambda_under(2, _pair(0.0, 0.0)) == math.inf
    # negative liminf widens the denominator
    assert plap2.lambda_under(1, _pair(-0.5, 0.5)) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(DomainError):
        plap2.lambda_under(1, _pair(0.7, 0.5))
    with pytest.raises(DomainError):
        plap2.lambda_under(1, _pair(0.5, math.inf))
    with pytest.raises(DomainError):
        Operator.p_laplacian(1.0).lambda_under(1, _pair(0.4, 0.5))


def test_lambda_under_pucci_formula():
    assert Operator.pucci(1).lambda_under(1, _pair(0.5, 0.5)) == pytest.approx(
        1.0, rel=1e-15)
    assert Operator.pucci(2).lambda_under(1, _pair(0.0, 1.0)) == pytest.approx(
        0.25, rel=1e-15)
    assert Operator.pucci(2).lambda_under(1, _pair(-0.1, -0.05)) == math.inf
    with pytest.raises(DomainError):
        Operator.pucci(0.5).lambda_under(1, _pair(0.4, 0.5))


@given(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
def test_pucci_matches_plap_at_unit_ellipticity(L, R):
    assert Operator.pucci(1.0).lambda_under(R, _pair(L, L)) == pytest.approx(
        Operator.p_laplacian(2.0).lambda_under(R, _pair(L, L)), rel=1e-12)


def _within_ulp(a: float, b: float) -> bool:
    """a is b or a neighbour of b."""
    return a == b or abs(a - b) <= math.ulp(b)


_finite = st.floats(-10.0, 10.0, allow_subnormal=False)


@given(p=st.floats(1.05, 6.0), Lambda=st.floats(1.0, 8.0),
       R=st.floats(0.05, 20.0), L=st.tuples(_finite, _finite),
       c=st.floats(1e-3, 1e4), Gbar=st.floats(1e-6, 1e8))
# libm's c ** 2.0 is one ulp from c * c here, and the Pucci bound two ulp
# from a reference that squares c by multiplication
@example(p=2.0, Lambda=1.1875, R=2.234375, L=(0.0, 0.0),
         c=0.14887433898163122, Gbar=31.0)
def test_operator_closed_forms_match_the_per_operator_formulas(p, Lambda, R, L,
                                                               c, Gbar):
    # the four closed forms, written out per operator
    L_minus, L_plus = sorted(L)
    plap, pucci = Operator.p_laplacian(p), Operator.pucci(Lambda)
    limits = _pair(L_minus, L_plus)
    if L_plus > 0.0:    # otherwise both are inf
        width = L_plus - min(0.0, L_minus)
        assert _within_ulp(plap.lambda_under(R, limits),
                           (p - 1.0) / (p * R ** p * width))
        assert _within_ulp(pucci.lambda_under(R, limits),
                           1.0 / (2.0 * Lambda * R ** 2 * width))
    assert _within_ulp(plap.bound(c, Gbar, R),
                       (p - 1.0) * c ** p / (p * R ** p * Gbar))
    assert _within_ulp(pucci.bound(c, Gbar, R),
                       c ** 2.0 / (2.0 * Lambda * R ** 2 * Gbar))

    # Pucci at Lambda = 1 is the Laplacian, bit for bit
    one, two = Operator.pucci(1.0), Operator.p_laplacian(2.0)
    assert (one.exponent, one.weight) == (two.exponent, two.weight)
    assert one.bound(c, Gbar, R) == two.bound(c, Gbar, R)
    assert one.lambda_under(R, limits) == two.lambda_under(R, limits)


def test_lambda_n_sequence_regression(pc_power, canonical_gammas):
    geom = BallGeometry(1, 1.0)
    rows = lambda_n_sequence(PLAP2, pc_power, geom, canonical_gammas,
                             M=0.0, beta=1.0, ell="infinity")
    r0 = rows[0]
    assert r0.gamma == pytest.approx(2 * PI + PI / 2, rel=1e-15)
    assert r0.delta == pytest.approx(0.322398358266072, rel=1e-12)
    assert r0.C1 == pytest.approx(0.355203283467856, rel=1e-12)
    assert r0.C2 == pytest.approx(9.620870230900847, rel=1e-12)
    assert r0.lam == pytest.approx(52.46984759772094, rel=1e-11)
    assert rows[-1].lam == pytest.approx(54.15278406173025, rel=1e-11)
    # closed form: lambda_n = (C2/C1) gamma^2 / (gamma^2/2 + 1)
    fac = r0.C2 / r0.C1
    for r in rows:
        want = fac * r.gamma ** 2 / (r.gamma ** 2 / 2 + 1)
        assert r.lam == pytest.approx(want, rel=1e-10)


def test_lambda_bar_last_quartile(pc_power, canonical_gammas):
    rows = lambda_n_sequence(PLAP2, pc_power, BallGeometry(1, 1.0),
                             canonical_gammas, M=0.0, ell="infinity")
    bar, monotone = lambda_bar_estimate(rows)
    assert bar == pytest.approx(54.14904412558528, rel=1e-11)
    assert monotone is True
    lams = [r.lam for r in rows]
    assert bar == pytest.approx(np.mean(lams[-3:]), rel=1e-14)


def test_lambda_n_dilation_scaling(pc_power, canonical_gammas):
    base = lambda_n_sequence(PLAP2, pc_power, BallGeometry(1, 1.0),
                             canonical_gammas, M=0.0, ell="infinity")
    for k in (2.0, 10.0):
        scaled = lambda_n_sequence(PLAP2, pc_power, BallGeometry(1, k),
                                   canonical_gammas, M=0.0, ell="infinity")
        for a, b in zip(scaled, base):
            assert a.lam == pytest.approx(b.lam / k ** 2, rel=1e-12)


def test_lambda_n_zero_direction_c1_is_core_measure(pc_power):
    # with M = 0 toward zero, C1 = |B| - |layer| = omega_N (R - delta)^N
    geom = BallGeometry(2, 1.0)
    rows = lambda_n_sequence(PLAP2, pc_power, geom, [2 * PI + PI / 2],
                             M=0.0, ell="zero")
    r = rows[0]
    assert r.C1 == pytest.approx(PI * (1 - r.delta) ** 2, rel=1e-12)


def test_lambda_n_rejects_bad_inputs(pc_power):
    geom = BallGeometry(1, 1.0)
    with pytest.raises(DomainError):
        lambda_n_sequence(PLAP2, pc_power, geom, [1.0], M=-0.5, ell="infinity")
    with pytest.raises(DomainError):
        lambda_n_sequence(PLAP2, pc_power, geom, [-3.0], M=0.0, ell="infinity")
    zero_tab = CustomTable(np.array([[0.0, 0.0], [9.0, 0.0]]))
    pcz = PrimitiveCalculus(zero_tab)
    with pytest.raises(NonpositiveFbar):
        lambda_n_sequence(PLAP2, pcz, geom, [5.0], M=0.0, ell="infinity")


def test_per_solution_bound_linear_oracle():
    pc = PrimitiveCalculus(tabulate(lambda s: s, 50.0, 2001))
    # Fbar(c) = c^2/2 exactly, so the bound is 1 for every height
    cs = [0.5, 3.0, 20.0]
    for c, Fbar in zip(cs, PLAP2.Gbar_many(pc, cs)):
        assert PLAP2.bound(c, Fbar, 1.0) == pytest.approx(1.0, rel=1e-12)
    # the actual 1D principal eigenvalue pi^2/4 clears the bound
    assert PI ** 2 / 4 >= 1.0


def test_per_solution_bound_exact_power_cancellation():
    p = 3.0
    # f = p s^{p-1} makes Fbar(c) = c^p exactly on the table
    pc = PrimitiveCalculus(tabulate(lambda s: p * s ** (p - 1), 30.0, 30001))
    op = Operator.p_laplacian(p)
    want = (p - 1) / p
    cs = [0.8, 4.0, 17.0]
    for c, Fbar in zip(cs, op.Gbar_many(pc, cs)):
        assert op.bound(c, Fbar, 1.0) == pytest.approx(want, rel=1e-6)


def test_per_solution_bound_scales_inversely_with_f():
    k = 3.0
    a = PrimitiveCalculus(tabulate(lambda s: s, 50.0, 2001))
    b = PrimitiveCalculus(tabulate(lambda s: k * s, 50.0, 2001))
    ca = PLAP2.bound(7.0, PLAP2.Gbar_many(a, [7.0])[0], 1.0)
    cb = PLAP2.bound(7.0, PLAP2.Gbar_many(b, [7.0])[0], 1.0)
    assert cb == pytest.approx(ca / k, rel=1e-12)


def test_pucci_bound_matches_plap_at_unit_ellipticity():
    pc = PrimitiveCalculus(tabulate(lambda s: s, 50.0, 2001))
    pucci = Operator.pucci(1.0)
    assert pucci.bound(7.0, pucci.Gbar_many(pc, [7.0])[0], 1.0) == \
        pytest.approx(PLAP2.bound(7.0, PLAP2.Gbar_many(pc, [7.0])[0], 1.0),
                      rel=1e-12)


def test_per_solution_bound_needs_positive_fbar():
    z = CustomTable(np.array([[0.0, 0.0], [9.0, 0.0]]))
    pc = PrimitiveCalculus(z)
    with pytest.raises(NonpositiveFbar):
        PLAP2.bound(1.0, PLAP2.Gbar_many(pc, [1.0])[0], 1.0)


def test_estimate_m_zero_for_nonnegative(pc_power):
    assert estimate_M(pc_power, [8.0, 15.0, 40.0]) == 0.0


def test_estimate_m_cosine_dip():
    tab = tabulate(math.cos, 12.0, 12001)
    pc = PrimitiveCalculus(tab)
    # F = sin: at gamma = 5pi/2 the dip is -1 and F(gamma) = 1, so M = 1
    got = estimate_M(pc, [2.5 * PI])
    assert got == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(DomainError):
        estimate_M(pc, [2 * PI])  # F(gamma) = 0 while the dip is -1


def test_propose_gammas_interleave_zeros(pc_power):
    zeros = find_zeros(pc_power.nl, 6)
    props = propose_gammas(pc_power, zeros, PLAP2, count=5)
    assert len(props) == 5
    assert all(x < y for x, y in zip(props, props[1:]))
    indices = [zeros.interval_index(g) for g in props]
    assert indices == [1, 2, 3, 4, 5]
    # each proposal beats the midpoint of its gap, well inside the gap
    asc = (0.0,) + zeros.ascending()
    for g, k in zip(props, indices):
        mid = 0.5 * (asc[k - 1] + asc[k])
        Fbar_g, Fbar_mid = PLAP2.Gbar_many(pc_power, [g, mid])
        assert Fbar_g / g ** 2 >= Fbar_mid / mid ** 2 - 1e-12
        assert min(g - asc[k - 1], asc[k] - g) >= 1e-6 * asc[k]


def test_heights_match_the_closed_form_maximizers(pc_power):
    """For f = s (1 + sin s), Fbar/s^2 = 1/2 + (sin s - s cos s)/s^2 peaks
    where (s^2 - 2) sin s + 2 s cos s = 0; each height is that root within
    1e-8 relative, about the width over which the ratio is flat to
    rounding."""
    def slope(s):
        return (s * s - 2.0) * math.sin(s) + 2.0 * s * math.cos(s)

    for g in propose_gammas(pc_power, find_zeros(pc_power.nl, 6), PLAP2, count=5):
        root = brentq(slope, g - 0.5, g + 0.5, xtol=1e-15, rtol=1e-15)
        assert abs(g - root) <= 1e-8 * root


@pytest.mark.parametrize("op", [Operator.pucci(1.0), Operator.pucci(2.0),
                                Operator.p_laplacian(3.0)],
                         ids=["pucci1", "pucci2", "plap3"])
def test_first_gap_is_skipped_when_f0_is_positive(op):
    """With f(0) > 0, Gbar(s)/s^e ~ f(0) s^(1-e) is unbounded as s -> 0:
    the gap (0, alpha_1) has no height, every later gap has one, so
    ``count`` heights still come from count + 1 zeros, none of them within
    1e-6 alpha_1 of 0 (the search used to return 1.1e-10)."""
    pc = PrimitiveCalculus(COS_TABLE)
    rep = compute_thresholds(op, pc, BallGeometry(1, 1.0), "infinity", count=4)
    zeros = find_zeros(pc.nl, 8)
    heights = [r.gamma for r in rep.rows]
    assert [zeros.interval_index(g) for g in heights] == [2, 3, 4, 5]
    assert min(heights) >= 1e-6 * zeros.ascending()[0]
    assert heights == propose_gammas(pc, zeros, op, count=4)
    assert len(propose_gammas(pc, zeros, op)) == 7


#: (nonlinearity, operator, whether the gap (0, alpha_1) is skipped)
#: triples whose every height the fine grid checks: the first gap goes
#: where the ratio is unbounded at 0 (f(0) > 0 on the cos table, F ~ s^2/2
#: and s^2.5/2.5 against s^3) or tends to 1/2 from below (1 - cos s over
#: s^2), and stays for s (1 + sin s) at p = 2 (0.936 against 1/2)
_GATE_CASES = {
    "power_sin plap2": (PowerTimesOnePlusSin(1.0), Operator.p_laplacian(2.0),
                        False),
    "power_sin plap3": (PowerTimesOnePlusSin(1.0), Operator.p_laplacian(3.0),
                        True),
    "power_sin1.5 plap3": (PowerTimesOnePlusSin(1.5),
                           Operator.p_laplacian(3.0), True),
    "pure_sine plap2": (PureSine(), Operator.p_laplacian(2.0), True),
    "pure_sine pucci2": (PureSine(), Operator.pucci(2.0), True),
    "cos table pucci1": (COS_TABLE, Operator.pucci(1.0), True),
    "cos table pucci2": (COS_TABLE, Operator.pucci(2.0), True),
}


@pytest.mark.parametrize("case", sorted(_GATE_CASES))
def test_heights_are_global_maximizers_on_a_fine_grid(case):
    """Every gap's height maximizes Gbar(s)/s^e over a 20,001-point grid of
    the whole gap within 1e-9 relative, and every gap with a positive ratio
    gets one, but the first where the limit of the ratio at 0 reaches the
    grid's maximum there within 1e-12 (the supremum is that limit).  The
    first gap's grid starts where the search does, 1e-12 of the gap in."""
    nl, op, skips_first = _GATE_CASES[case]
    pc = PrimitiveCalculus(nl)
    zeros = find_zeros(nl, 7)
    gammas = propose_gammas(pc, zeros, op)
    edges = (0.0,) + zeros.ascending()
    e = op.exponent
    checked = []
    for k, (a, b) in enumerate(zip(edges, edges[1:])):
        s = np.linspace(a, b, 20001)
        s[0] = max(a, 1e-12 * b)
        ratios = op.Gbar_many(pc, s) / s ** e
        inside = [g for g in gammas if a < g < b]
        if k == 0:
            limit = op.limits(nl, "zero").L_plus
            assert (limit >= ratios.max() * (1.0 - 1e-12)) == skips_first
        if ratios.max() <= 0.0 or (k == 0 and skips_first):
            assert not inside
            continue
        assert len(inside) == 1
        g = inside[0]
        assert ratios.max() <= op.Gbar_many(pc, [g])[0] / g ** e * (1.0 + 1e-9)
        checked.append(g)
    assert checked == gammas and len(checked) >= 5


def test_compute_thresholds_report(pc_power, canonical_gammas):
    rep = compute_thresholds(PLAP2, pc_power, BallGeometry(1, 1.0), "infinity",
                             gammas=canonical_gammas)
    assert rep.lambda_under == 1.0
    assert rep.lambda_bar == pytest.approx(54.149, rel=1e-3)
    assert rep.lambda_under <= rep.lambda_bar
    assert rep.M == 0.0
    assert rep.monotone is True
    assert rep.limits.classification == "FinitePair"
    js = rep.to_json()
    assert js["operator"] == {"kind": "p_laplacian", "p": 2.0}
    assert js["limits"] == {"L_minus": 0.5, "L_plus": 0.5,
                            "classification": "FinitePair", "which": "F",
                            "direction": "infinity"}
    assert len(js["sequence"]) == len(canonical_gammas)
    assert set(js["formulas"]) == {"lambda_under", "lambda_n", "C1", "C2",
                                   "lambda_bar"}


def test_compute_thresholds_pucci_operator(canonical_gammas):
    pc = PrimitiveCalculus(PowerTimesOnePlusSin(1.0))
    rep = compute_thresholds(Operator.pucci(2.0), pc, BallGeometry(1, 1.0),
                             "infinity", gammas=canonical_gammas)
    # f >= 0 makes F_Lambda = F, so the limits stay at 1/2 and the
    # closed form gives 1/(2*2*1*(1/2)) = 1/2
    assert rep.lambda_under == 0.5
    assert rep.to_json()["operator"] == {"kind": "pucci", "Lambda": 2.0}


@pytest.mark.parametrize("operator, closed_form", [
    # limits (-1/4, 1/2) on the radius-2 ball
    (Operator.p_laplacian(3.0), 2.0 / (3.0 * 8.0 * 0.75)),
    (Operator.pucci(2.0), 1.0 / (2.0 * 2.0 * 4.0 * 0.75)),
], ids=["p_laplacian", "pucci"])
def test_operator_lambda_under_by_classification(operator, closed_form):
    def limits(lo, hi, classification):
        return TailLimits(lo, hi, classification)

    assert operator.lambda_under(2.0, limits(-0.25, 0.5, "FinitePair")) \
        == pytest.approx(closed_form, rel=1e-15)
    assert operator.lambda_under(2.0, limits(0.0, 0.0, "BothZero")) == math.inf
    assert operator.lambda_under(2.0, limits(0.1, math.inf, "PlusInfinite")) == 0.0
    assert operator.lambda_under(2.0, limits(-math.inf, -math.inf,
                                             "MinusInfinite")) == math.inf


def test_a_negative_limsup_certifies_every_parameter():
    """Toward 0, the table f = -s has G(s)/s^e -> -1/2 at p = 2 and -inf at
    p = 3; either way no small solution has G(c) >= 0, so both operators
    certify every parameter, finite limit or not."""
    nl = CustomTable(np.array([[0.0, 0.0], [1.0, -1.0]]), direction="zero")
    for p, classification in ((2.0, "FinitePair"), (3.0, "MinusInfinite")):
        op = Operator.p_laplacian(p)
        limits = op.limits(nl)
        assert limits.classification == classification
        assert op.lambda_under(1.0, limits) == math.inf


def test_compute_thresholds_pucci_weighs_with_its_own_Lambda():
    # f = cos s + 0.3 changes sign, so F_Lambda depends on Lambda: on one
    # PrimitiveCalculus, Lambda = 1 gives lambda_bar 1013.53 and Lambda = 2
    # gives 750.31 (f(0) > 0, so the four heights lie in gaps 2-5)
    pc = PrimitiveCalculus(COS_TABLE)
    for Lambda, lambda_bar in ((1.0, 1013.53), (2.0, 750.31)):
        rep = compute_thresholds(Operator.pucci(Lambda), pc, BallGeometry(1, 1.0),
                                 "infinity", count=4)
        assert rep.lambda_bar == pytest.approx(lambda_bar, rel=1e-4)


def test_pucci_heights_maximize_their_own_ratio():
    """Pucci heights maximize Gbar_Lambda(s)/s^2, the ratio their lambda_n
    divide by: on the cos s + 0.3 table at Lambda = 2 the third gap's
    maximizer is 7.0245, where the plain Fbar(s)/s^2 peaks at 7.2928.
    f(0) > 0, so propose_gammas skips the first gap and the third gap's
    height is the second one returned; that each height is its gap's
    global maximizer is checked on a fine grid by
    test_heights_are_global_maximizers_on_a_fine_grid."""
    pc = PrimitiveCalculus(COS_TABLE)
    zeros = find_zeros(pc.nl, 5)
    gammas = propose_gammas(pc, zeros, Operator.pucci(2.0), count=4)
    assert [zeros.interval_index(g) for g in gammas] == [2, 3, 4, 5]
    assert gammas[1] == pytest.approx(7.0245, abs=1e-4)


def test_compute_thresholds_default_gammas(pc_power):
    rep = compute_thresholds(PLAP2, pc_power, BallGeometry(1, 1.0), "infinity",
                             count=6)
    assert len(rep.rows) == 6
    heights = [r.gamma for r in rep.rows]
    assert all(x < y for x, y in zip(heights, heights[1:]))


def test_threshold_report_validates_ordering(pc_power, canonical_gammas):
    rep = compute_thresholds(PLAP2, pc_power, BallGeometry(1, 1.0), "infinity",
                             gammas=canonical_gammas)
    with pytest.raises(DomainError):
        ThresholdReport(rep.lambda_bar * 2, rep.lambda_bar, rep.rows, rep.M,
                        rep.limits, rep.operator, rep.geometry, rep.beta,
                        rep.direction, rep.monotone)
    bad = ThresholdRow(1.0, 0.1, -1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ThresholdReport(0.5, 1.0, (bad,), 0.0, rep.limits, rep.operator,
                        rep.geometry, 1.0, "infinity", True)
