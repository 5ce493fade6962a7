import math

import numpy as np
import pytest

from oscillap.errors import DomainError, NoZerosFound
from oscillap.nonlinearity import (
    CustomTable,
    EnvelopeTimesOnePlusSin,
    PowerTimesOnePlusSin,
    PureSine,
    ReciprocalOscillation,
    ZeroSequence,
    find_zeros,
    nonlinearity_from_json,
)

from helpers import tabulate

PI = math.pi


def test_power_sin_eval_closed_forms():
    assert PowerTimesOnePlusSin(1.0).eval(1.5 * PI) == pytest.approx(0.0, abs=1e-12)
    assert PowerTimesOnePlusSin(2.0).eval(PI / 2) == pytest.approx(PI * PI / 2, rel=1e-14)
    assert PureSine().eval(PI / 2) == pytest.approx(1.0, rel=1e-15)


def test_eval_many_matches_eval():
    s = np.linspace(0.0, 30.0, 301)
    for nl in (PowerTimesOnePlusSin(1.0), ReciprocalOscillation(2.0), PureSine()):
        got = nl.eval_many(s)
        want = np.array([nl.eval(float(x)) for x in s])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_reciprocal_eval_continuous_at_zero():
    nl = ReciprocalOscillation(1.0)
    assert nl.eval(0.0) == 0.0
    assert nl.f0 == 0.0
    # envelope bound |f(s)| <= 2 s^{1/r} forces continuity at 0
    for s in (1e-9, 1e-6, 1e-3):
        assert abs(nl.eval(s)) <= 2.0 * s


def test_power_sin_zeros():
    zs = find_zeros(PowerTimesOnePlusSin(1.0), 3)
    want = [1.5 * PI, 1.5 * PI + 2 * PI, 1.5 * PI + 4 * PI]
    np.testing.assert_allclose(zs.alphas, want, rtol=1e-14)
    assert zs.direction == "infinity"


def test_reciprocal_zeros():
    # zeros at 1/(3pi/2 + 2pi k), ordered toward the accumulation point 0
    zs = find_zeros(ReciprocalOscillation(1.0), 2)
    np.testing.assert_allclose(zs.alphas, [2 / (3 * PI), 2 / (7 * PI)], rtol=1e-13)
    assert zs.alphas[0] > zs.alphas[1]
    assert zs.direction == "zero"


def test_pure_sine_zeros():
    zs = find_zeros(PureSine(), 4)
    np.testing.assert_allclose(zs.alphas, [PI, 2 * PI, 3 * PI, 4 * PI], rtol=1e-14)


def test_pure_sine_sign_changes_include_their_end():
    # k pi / pi rounds below k for some k; the point k pi is still in (0, k pi]
    for k in range(1, 200):
        assert PureSine().sign_change_points(k * PI)[-1] == k * PI
        assert len(PureSine().sign_change_points(k * PI)) == k


def test_zeros_are_numerically_zeros_all_kinds():
    g = np.array([[0.0, 1.0], [10.0, 1.0], [60.0, 3.0]])
    kinds = [
        PowerTimesOnePlusSin(1.5),
        ReciprocalOscillation(2.0),
        PureSine(),
        EnvelopeTimesOnePlusSin(g),
        tabulate(lambda s: math.sin(s), 40.0, 4001),
    ]
    for nl in kinds:
        zs = find_zeros(nl, 3)
        for a in zs.alphas:
            assert abs(nl.eval(a)) < 1e-9
        asc = zs.ascending()
        assert all(x < y for x, y in zip(asc, asc[1:]))


def test_constant_table_has_no_zeros():
    one = CustomTable(np.array([[0.0, 1.0], [50.0, 1.0]]))
    with pytest.raises(NoZerosFound):
        find_zeros(one, 1)


def test_too_many_requested_zeros_from_table():
    tab = tabulate(lambda s: math.sin(s), 10.0, 1001)
    with pytest.raises(NoZerosFound):
        find_zeros(tab, 10)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_reciprocal_scalar_and_batched_agree_where_1_over_s_overflows(r):
    # below 1/DBL_MAX ~ 5.6e-309 both forms take 1 + sin(1/s) as 1; above
    # it both evaluate sin(1/s)
    nl = ReciprocalOscillation(r)
    for s in (2e-309, 1e-300):
        batched = nl.eval_many(np.array([s]))[0]
        assert nl.eval(s) == batched
        assert math.isfinite(batched)
    assert nl.eval(2e-309) == 2e-309 ** (1.0 / r)
    assert nl.eval(1e-300) == 1e-300 ** (1.0 / r) * (1.0 + math.sin(1.0 / 1e-300))


def test_envelope_requires_nondecreasing_positive_table():
    with pytest.raises(DomainError):
        EnvelopeTimesOnePlusSin(np.array([[0.0, 2.0], [1.0, 1.0]]))
    with pytest.raises(DomainError):
        EnvelopeTimesOnePlusSin(np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_envelope_eval_interpolates_g():
    nl = EnvelopeTimesOnePlusSin(np.array([[0.0, 1.0], [10.0, 2.0], [20.0, 2.0]]))
    s = 5.0
    assert nl.eval(s) == pytest.approx(1.5 * (1 + math.sin(s)), rel=1e-14)
    assert 10.0 in nl.kink_points(0.0, 20.0)


def test_custom_table_validation():
    with pytest.raises(DomainError):
        CustomTable(np.array([[0.5, 1.0], [1.0, 2.0]]))  # first abscissa not 0
    with pytest.raises(DomainError):
        CustomTable(np.array([[0.0, 1.0], [1.0, 2.0], [1.0, 3.0]]))  # not increasing
    with pytest.raises(DomainError):
        CustomTable(np.array([[0.0, 1.0], [1.0, math.nan]]))
    with pytest.raises(DomainError):
        CustomTable(np.array([[0.0, 1.0]]))  # a single sample is not a table


def test_custom_table_crossings_and_sign():
    tab = tabulate(lambda s: math.sin(s) - 0.1, 20.0, 2001)
    zs = find_zeros(tab, 2)
    want = [math.asin(0.1), PI - math.asin(0.1)]
    np.testing.assert_allclose(zs.alphas, want, rtol=1e-4)
    assert tab.sign_change_points(20.0)[:2] == list(zs.alphas)
    # touch zeros of 1 + cos s at odd multiples of pi change no sign
    pos = tabulate(lambda s: 1 + math.cos(s), 20.0, 2001)
    assert pos.sign_change_points(20.0) == []


def test_zero_sequence_interval_index():
    zs = find_zeros(PowerTimesOnePlusSin(1.0), 3)
    a1, a2, _ = zs.ascending()
    # interval n is (alpha_{n-1}, alpha_n]; heights at or below alpha_1 are in 1
    assert zs.interval_index(0.5 * a1) == 1
    assert zs.interval_index(a1) == 1
    assert zs.interval_index(0.5 * (a1 + a2)) == 2
    assert zs.interval_index(a2 * 1.01) == 3


def test_zero_sequence_validation():
    with pytest.raises(DomainError):
        ZeroSequence((3.0, 1.0), "infinity")  # wrong order for the direction
    with pytest.raises(DomainError):
        ZeroSequence((0.0, 1.0), "infinity")
    with pytest.raises(DomainError):
        ZeroSequence((1.0, 2.0), "sideways")


def test_json_spec_builds_each_kind():
    table = [[0.0, -3.0], [2.0, 1.0], [5.0, 22.0]]
    cases = [
        ({"kind": "power_sin", "r": 1.5}, PowerTimesOnePlusSin(1.5)),
        ({"kind": "reciprocal_sin", "r": 2.0}, ReciprocalOscillation(2.0)),
        ({"kind": "pure_sine"}, PureSine()),
        ({"kind": "envelope_sin", "samples": [[0.0, 1.0], [30.0, 2.0]]},
         EnvelopeTimesOnePlusSin(np.array([[0.0, 1.0], [30.0, 2.0]]))),
        ({"kind": "table", "samples": table, "direction": "zero"},
         CustomTable(np.array(table), direction="zero")),
    ]
    pts = [0.0, 0.3, 1.7, 4.2]
    for spec, nl in cases:
        back = nonlinearity_from_json(spec)
        assert type(back) is type(nl)
        assert back.direction == nl.direction
        for s in pts:
            assert back.eval(s) == nl.eval(s)


@pytest.mark.parametrize("spec, direction", [
    ({"kind": "power_sin", "r": 1.0}, "infinity"),
    ({"kind": "reciprocal_sin", "r": 1.0}, "zero"),
    ({"kind": "pure_sine"}, "infinity"),
    ({"kind": "envelope_sin", "samples": [[0.0, 1.0], [30.0, 2.0]]}, "infinity"),
    ({"kind": "table", "samples": [[0.0, 1.0], [5.0, -1.0]]}, "infinity"),
])
def test_json_default_direction(spec, direction):
    # a spec without a direction takes the limit its zeros accumulate at
    assert nonlinearity_from_json(spec).direction == direction


def test_json_rejects_garbage():
    with pytest.raises(DomainError):
        nonlinearity_from_json({"kind": "mystery"})
    with pytest.raises(DomainError):
        nonlinearity_from_json({"kind": "power_sin", "r": -1.0})
    with pytest.raises(DomainError):
        nonlinearity_from_json({"kind": "table"})  # samples missing
    with pytest.raises(DomainError):
        nonlinearity_from_json({"kind": "pure_sine", "direction": "diagonal"})
