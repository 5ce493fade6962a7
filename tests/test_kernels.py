"""The in-package numerical kernels against the scipy routines they port.

``_rk.brentq`` and the tridiagonal LDL^T solve of ``variational`` follow
scipy's ``brentq`` and LAPACK ``dptsv`` operation for operation, so every
result must agree bit for bit, and the root finder with the same number of
function calls.  scipy is a test-only dependency; without it these tests
skip.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

scipy_optimize = pytest.importorskip("scipy.optimize")
scipy_lapack = pytest.importorskip("scipy.linalg.lapack")

from oscillap._rk import brentq  # noqa: E402
from oscillap.errors import NonConvergence  # noqa: E402
from oscillap.variational import _solve_tridiagonal  # noqa: E402

finite = st.floats(-4.0, 4.0, allow_nan=False)


def _counted(f):
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)
    return g, calls


def _polynomial(roots, scale):
    return lambda x: scale * math.prod(x - r for r in roots)


def _trig(w, phase, shift):
    return lambda x: math.sin(w * x + phase) + shift


functions = st.one_of(
    st.builds(_polynomial, st.lists(finite, min_size=1, max_size=5),
              st.floats(0.1, 10.0) | st.floats(-10.0, -0.1)),
    st.builds(_trig, st.floats(0.1, 20.0), st.floats(0.0, 6.3),
              st.floats(-0.9, 0.9)),
)

# (xtol, rtol) as the three callers pass them: event location (xtol from
# event_tol), zero polishing, and the lambda-star interpolant root
tolerance_shapes = st.sampled_from(["event", "zero", "interpolant"])


def _tolerances(shape, b, event_tol):
    if shape == "event":
        return max(event_tol, 1e-15), 1e-15
    if shape == "zero":
        return 1e-15, 1e-15
    return 1e-15 * max(1.0, abs(b)), 1e-15


@settings(max_examples=300, deadline=None)
@given(f=functions, a=st.floats(-4.0, 0.0), b=st.floats(0.0, 4.0),
       shape=tolerance_shapes, event_tol=st.sampled_from([1e-16, 1e-12, 1e-9]))
def test_brentq_matches_scipy_bit_for_bit(f, a, b, shape, event_tol):
    fa, fb = f(a), f(b)
    assume(fa * fb < 0.0)
    xtol, rtol = _tolerances(shape, b, event_tol)
    ours, our_calls = _counted(f)
    theirs, their_calls = _counted(f)
    try:
        want = scipy_optimize.brentq(theirs, a, b, xtol=xtol, rtol=rtol)
    except RuntimeError:        # out of iterations, e.g. at a triple root
        with pytest.raises(NonConvergence):
            brentq(ours, a, b, xtol=xtol, rtol=rtol)
    else:
        got = brentq(ours, a, b, xtol=xtol, rtol=rtol)
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert got == want
    assert our_calls == their_calls


def test_brentq_out_of_iterations_raises_nonconvergence():
    with pytest.raises(NonConvergence):
        brentq(lambda x: x ** 3 - 2.0, 0.0, 2.0, xtol=1e-15, rtol=1e-15,
               maxiter=2)
    assert brentq(lambda x: x ** 3 - 2.0, 0.0, 2.0, xtol=1e-15,
                  rtol=1e-15) == pytest.approx(2.0 ** (1 / 3), rel=1e-15)


def test_brentq_nan_inside_the_bracket_raises_nonconvergence():
    def f(x):
        return x - 1.0 if x in (0.0, 2.0) else math.nan
    with pytest.raises(NonConvergence):
        brentq(f, 0.0, 2.0, xtol=1e-15, rtol=1e-15)


def _systems(seed, n, kind):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=max(n - 1, 1)) * rng.uniform(0.1, 3.0)
    off = np.abs(e[:n - 1])
    d = np.concatenate([off, [0.0]]) + np.concatenate([[0.0], off])
    d += rng.uniform(1e-3, 1.0, size=n)        # diagonally dominant: SPD
    if kind == "indefinite":
        d -= rng.uniform(0.0, 2.0)
    b = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
    return d, e, b


@pytest.mark.parametrize("kind", ["spd", "indefinite"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 120])
def test_tridiagonal_solve_matches_dptsv(n, kind):
    infos = set()
    for seed in range(40):
        d, e, b = _systems(seed, n, kind)
        _, _, want, want_info = scipy_lapack.dptsv(d, e, b)
        got, info = _solve_tridiagonal(d, e, b)
        assert info == want_info
        infos.add(info)
        if info == 0:
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        else:
            assert got is None
    if kind == "spd":
        assert infos == {0}
    else:
        assert infos - {0}     # some systems hit a nonpositive pivot
