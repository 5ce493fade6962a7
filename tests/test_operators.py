"""The shooting path shared by the p-Laplacian and the Pucci operator.

Both operators run one shot -> batch -> row -> audit -> CSV path; these
properties hold for either of them.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillap.nonlinearity import PowerTimesOnePlusSin, find_zeros
from oscillap.shoot_plap import BifurcationDiagram, ShootConfig, shoot
from oscillap.shoot_pucci import PucciShootConfig

CANONICAL = PowerTimesOnePlusSin(1.0)
CANONICAL_ZEROS = find_zeros(CANONICAL, 6)

#: each operator with its rescaling exponent: p, or 2 for Pucci whatever Lambda is
_operators = st.sampled_from([(ShootConfig(2.0, 1, 1.0), 2.0),
                              (ShootConfig(3.0, 1, 1.0), 3.0),
                              (PucciShootConfig(1.0, 1, 1.0), 2.0),
                              (PucciShootConfig(2.0, 1, 1.0), 2.0)])


@settings(max_examples=20, deadline=None)
@given(op=_operators, N=st.sampled_from([1, 2, 3]),
       heights=st.lists(st.floats(0.5, 30.0), min_size=1, max_size=3),
       R=st.floats(0.1, 10.0), R2=st.floats(0.1, 10.0))
def test_rows_rescale_homogeneously(op, N, heights, R, R2):
    # the shots do not depend on the ball, so a scan on another radius has
    # the same outcomes and rho, and lambda and the per-solution bound both
    # scale by (R2/R)^exponent
    op, exponent = replace(op[0], N=N), op[1]
    a = BifurcationDiagram.scan(op, CANONICAL, R, heights, CANONICAL_ZEROS)
    b = BifurcationDiagram.scan(op, CANONICAL, R2, heights, CANONICAL_ZEROS)
    factor = (R2 / R) ** exponent
    for ra, rb in zip(a.rows, b.rows):
        assert ra.outcome == rb.outcome
        if ra.outcome == "HitZero":
            assert ra.rho == rb.rho
            assert ra.lam == pytest.approx(rb.lam * factor, rel=1e-12)
        if math.isfinite(ra.lower_bound):
            assert ra.lower_bound == pytest.approx(rb.lower_bound * factor,
                                                   rel=1e-12)


def test_unit_ellipticity_never_restarts():
    # at Lambda = 1 the switched right-hand side has no kink: the shot
    # reports no switches and matches the p = 2 shot, where Lambda = 2
    # restarts at every q sign change
    c = 7.0
    kinked = shoot(PucciShootConfig(2.0, 2, c, tol_ode=1e-10), CANONICAL)
    smooth = shoot(PucciShootConfig(1.0, 2, c, tol_ode=1e-10), CANONICAL)
    plap = shoot(ShootConfig(2.0, 2, c, tol_ode=1e-10), CANONICAL)
    assert kinked.q_sign_changes > 0
    assert smooth.q_sign_changes == 0
    assert smooth.outcome.rho == pytest.approx(plap.outcome.rho, rel=1e-8)
    np.testing.assert_array_equal(smooth.z, 0.0)
