import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillap.errors import DomainError, QuadratureFailure
from oscillap.nonlinearity import (
    CustomTable,
    EnvelopeTimesOnePlusSin,
    PowerTimesOnePlusSin,
    PureSine,
    ReciprocalOscillation,
)
from oscillap.primitives import (
    CachedPrefix,
    LimitEstimate,
    PrimitiveCalculus,
    classify_ratio_samples,
)

PI = math.pi

# f(s) = s (1 + sin s) has the closed-form antiderivative s^2/2 + sin s - s cos s
def F_power1(s):
    return s * s / 2 + math.sin(s) - s * math.cos(s)


@pytest.fixture(scope="module")
def pc_power():
    return PrimitiveCalculus(PowerTimesOnePlusSin(1.0), p=2.0)


@pytest.fixture(scope="module")
def pc_sine():
    return PrimitiveCalculus(PureSine(), p=2.0, Lambda=2.0)


def test_primitive_closed_form_power_sin(pc_power):
    s = np.linspace(0.05, 40.0, 200)
    want = np.array([F_power1(x) for x in s])
    np.testing.assert_allclose(pc_power.F_many(s), want, rtol=1e-8)
    assert pc_power.F(10.0) == pytest.approx(50 + math.sin(10) - 10 * math.cos(10),
                                             rel=1e-10)
    assert pc_power.F(0.0) == 0.0


def _quadrature_reference(n):
    """1e-12 panel quadrature of s^n (1 + sin s), swept to 1e4 at once.

    At 1e-13 the embedded Gauss pair disagrees by rounding alone and
    bisects to its depth limit (n = 3 near s = 7048); the one sweep keeps
    later queries to their remainder panels.
    """
    cache = CachedPrefix(PowerTimesOnePlusSin(float(n)).eval_many, tol=1e-12)
    cache.value_many(np.array([1e4]))
    return cache


_QUADRATURE_REFERENCE = {n: _quadrature_reference(n) for n in (1, 2, 3)}


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 3]),
       s=st.lists(st.floats(1e-6, 1e4), min_size=1, max_size=8))
def test_power_sin_closed_form_matches_quadrature(n, s):
    """Integer r takes the closed form; it matches 1e-12 panel quadrature."""
    pc = PrimitiveCalculus(PowerTimesOnePlusSin(float(n)), p=2.0)
    s = np.array(s)
    want = _QUADRATURE_REFERENCE[n].value_many(s)
    np.testing.assert_allclose(pc.F_many(s), want, rtol=1e-12)
    assert pc.F(float(s[0])) == pytest.approx(want[0], rel=1e-12)
    np.testing.assert_array_equal(pc.F_Lambda_many(s), pc.F_many(s))


def test_primitive_zero_function():
    z = CustomTable(np.array([[0.0, 0.0], [40.0, 0.0]]))
    pc = PrimitiveCalculus(z, p=2.0)
    for s in (0.0, 1.0, 17.3):
        assert pc.F(s) == 0.0
        assert pc.Fbar(s) == 0.0


def test_primitive_one_plus_sin_envelope():
    nl = EnvelopeTimesOnePlusSin(np.array([[0.0, 1.0], [50.0, 1.0]]))
    pc = PrimitiveCalculus(nl, p=2.0)
    # F(s) = s + 1 - cos s for the unit envelope
    assert pc.F(2 * PI) == pytest.approx(2 * PI, rel=1e-10)
    assert pc.F(PI / 3) == pytest.approx(PI / 3 + 0.5, rel=1e-10)


def test_fbar_equals_f_for_nonnegative(pc_power):
    s = np.linspace(0.0, 30.0, 100)
    for x in s:
        assert pc_power.Fbar(float(x)) == pytest.approx(pc_power.F(float(x)),
                                                        rel=1e-12, abs=1e-12)


def test_fbar_cos_table():
    # F = sin s dips to -1 at 3pi/2, so Fbar(2pi) = 0 - (-1) = 1
    tab = CustomTable.from_function(math.cos, 7.0, 60001)
    pc = PrimitiveCalculus(tab, p=2.0)
    assert pc.Fbar(2 * PI) == pytest.approx(1.0, rel=1e-8)
    assert pc.Fbar(0.0) == 0.0


def test_fbar_dominates_f_and_zero(pc_sine):
    for s in np.linspace(0.0, 25.0, 120):
        fb = pc_sine.Fbar(float(s))
        assert fb >= -1e-12
        assert fb >= pc_sine.F(float(s)) - 1e-12


def test_fbar_nondecreasing_for_nonnegative_f(pc_power):
    s = np.linspace(0.0, 40.0, 400)
    vals = [pc_power.Fbar(float(x)) for x in s]
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-9)


def test_f_lambda_identity_at_one():
    pc = PrimitiveCalculus(PureSine(), p=2.0, Lambda=1.0)
    for s in np.linspace(0.0, 20.0, 80):
        F = pc.F(float(s))
        assert abs(pc.F_Lambda(float(s)) - F) <= 1e-10 * (1 + abs(F))


def test_f_lambda_equals_f_for_nonnegative():
    pc = PrimitiveCalculus(PowerTimesOnePlusSin(1.0), p=2.0, Lambda=3.0)
    for s in (0.5, 3.0, 11.0):
        assert pc.F_Lambda(s) == pytest.approx(pc.F(s), rel=1e-12)


def test_f_lambda_sine_closed_form(pc_sine):
    # over [0, 2pi]: int f+ = 2, int f- = 2, so F_Lambda = 2 - 2/4 = 1.5
    assert pc_sine.F_Lambda(2 * PI) == pytest.approx(1.5, rel=1e-8)


def test_f_splits_into_signed_parts():
    rng = np.random.default_rng(7)
    tab = CustomTable.from_function(lambda s: math.sin(1.3 * s) - 0.2, 30.0, 3001)
    cases = [
        PrimitiveCalculus(PowerTimesOnePlusSin(1.0), p=2.0),
        PrimitiveCalculus(PureSine(), p=2.0),
        PrimitiveCalculus(ReciprocalOscillation(2.0), p=1.5),
        PrimitiveCalculus(tab, p=2.0),
    ]
    for pc in cases:
        for s in rng.uniform(0.0, 25.0, 100):
            split = pc.Fplus(float(s)) - pc.Fminus(float(s))
            F = pc.F(float(s))
            assert abs(split - F) <= 1e-8 * (1 + abs(F))


def test_funder_closed_forms(pc_sine, pc_power):
    # f = sin: F = 1 - cos, max over [0, pi] is 2
    assert pc_sine.F_under(PI, 2 * PI) == pytest.approx(-2.0, abs=1e-8)
    # s1 = 0 admits only t = 0
    assert pc_sine.F_under(0.0, 5.0) == pytest.approx(pc_sine.F(5.0), rel=1e-10)
    # nondecreasing primitive: F_under(s, s) = 0
    assert pc_power.F_under(8.0, 8.0) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(DomainError):
        pc_sine.F_under(3.0, 2.0)


def test_funder_is_a_lower_envelope(pc_sine):
    rng = np.random.default_rng(3)
    s1, s2 = 9.0, 14.0
    fu = pc_sine.F_under(s1, s2)
    assert fu <= pc_sine.F(s2) + 1e-9
    for t in rng.uniform(0.0, s1, 20):
        assert fu <= pc_sine.F(s2) - pc_sine.F(float(t)) + 1e-9


def test_running_extrema_bracket_checkpoints(pc_sine):
    s = 17.0
    rmin, rmax = pc_sine.running_min(s), pc_sine.running_max(s)
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
    pc = PrimitiveCalculus(ReciprocalOscillation(2.0), p=1.5)
    for s, want in frozen.items():
        assert pc.F(s) == pytest.approx(want, rel=5e-13)
    # vectorized path agrees with the scalar path
    s = np.array(sorted(frozen))
    np.testing.assert_allclose(pc.F_many(s), [frozen[x] for x in sorted(frozen)],
                               rtol=5e-13)


def test_quadrature_budget_exhaustion_raises():
    pc = PrimitiveCalculus(PowerTimesOnePlusSin(0.5), p=2.0,
                           tol_quad=1e-16, max_depth=3)
    with pytest.raises(QuadratureFailure):
        pc.F(10.0)


def test_limit_estimate_power_sin(pc_power):
    est = pc_power.estimate_limits(direction="infinity")
    assert est.classification == "FinitePair"
    assert est.L_minus == pytest.approx(0.5, abs=0.02)
    assert est.L_plus == pytest.approx(0.5, abs=0.02)
    assert est.L_minus <= est.L_plus
    js = est.to_json()
    assert js["is_estimate"] is True


def test_limit_estimate_constant_ratio_exact():
    # piecewise-linear tables reproduce f(s) = 2 c s exactly, so F/s^2 == c
    c = 0.7
    tab = CustomTable(np.array([[0.0, 0.0], [5e5, 2 * c * 5e5], [1e6, 2 * c * 1e6]]))
    est = PrimitiveCalculus(tab, p=2.0).estimate_limits(direction="infinity")
    assert est.classification == "FinitePair"
    assert est.L_minus == pytest.approx(c, rel=1e-13)
    assert est.L_plus == pytest.approx(c, rel=1e-13)


def test_limit_estimate_cubic_toward_zero():
    tab = CustomTable.from_function(lambda s: s ** 3, 1.0, 20001,
                                    direction="zero")
    est = PrimitiveCalculus(tab, p=2.0).estimate_limits(direction="zero")
    assert est.classification == "BothZero"
    assert abs(est.L_minus) <= 1e-5
    assert abs(est.L_plus) <= 1e-5


def test_classify_minus_infinite_ratio():
    # F(s)/s^p behaving as s cos s has liminf -inf; precedence over the
    # simultaneously diverging limsup
    s = np.geomspace(1.0, 1e6, 200)
    est = classify_ratio_samples(s, s * np.cos(s), "infinity")
    assert est.classification == "MinusInfinite"
    assert est.L_minus == -math.inf


def test_classify_plus_infinite_ratio():
    s = np.geomspace(1.0, 1e6, 200)
    est = classify_ratio_samples(s, s * (1 + np.sin(s)), "infinity")
    assert est.classification == "PlusInfinite"
    assert est.L_plus == math.inf
    assert est.L_minus < math.inf


def test_limit_estimate_validates_classification():
    with pytest.raises(DomainError):
        LimitEstimate(0.0, 1.0, (1.0, 2.0), "Sideways")
    with pytest.raises(DomainError):
        LimitEstimate(2.0, 1.0, (1.0, 2.0), "FinitePair")


# f(s) = 1 + sin s: smooth, and its F comes from the shared prefix cache
# (power_sin with integer r has a closed form and no cache)
UNIT_ENVELOPE = EnvelopeTimesOnePlusSin(np.array([[0.0, 1.0], [100.0, 1.0]]))


def test_concurrent_reads_match_serial():
    s = np.linspace(0.1, 35.0, 137)
    serial = PrimitiveCalculus(UNIT_ENVELOPE, p=2.0).F_many(s)
    fresh = PrimitiveCalculus(UNIT_ENVELOPE, p=2.0)
    out = np.empty_like(serial)
    chunks = np.array_split(np.arange(len(s)), 8)

    def work(ix):
        for i in ix:
            out[i] = fresh.F(float(s[i]))

    threads = [threading.Thread(target=work, args=(ix,)) for ix in chunks]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    np.testing.assert_allclose(out, serial, rtol=1e-12)


def test_fresh_cache_reads_race_extensions():
    """Readers racing the first extensions of a fresh cache read one
    consistent (checkpoints, prefix values) snapshot: no index past the
    prefix array, and the serial values.  Extension order changes the
    checkpoint layout, so values agree to quadrature rounding."""
    s = np.linspace(0.1, 60.0, 97)
    ref = PrimitiveCalculus(UNIT_ENVELOPE, p=2.0)
    serial = np.array([ref.F(float(x)) for x in s])
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            fresh = PrimitiveCalculus(UNIT_ENVELOPE, p=2.0)
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
            np.testing.assert_allclose(out, serial, rtol=1e-12)
    finally:
        sys.setswitchinterval(old)


_PROPERTY_PC = PrimitiveCalculus(PureSine(), p=2.0)


@given(st.floats(min_value=0.0, max_value=60.0, allow_nan=False))
def test_fbar_nonnegative_property(s):
    fb = _PROPERTY_PC.Fbar(s)
    assert fb >= -1e-12
    assert fb >= _PROPERTY_PC.F(s) - 1e-12
