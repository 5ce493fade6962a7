"""Compare the p-Laplacian and Pucci shooters on one nonlinearity.

At Lambda = 1 the extremal operator collapses to the Laplacian, so the two
integrators must agree; at Lambda = 2 the switched equation bends the
profile and shifts the first-zero radius.  The demo also prints both
nonexistence thresholds from the same primitive limits: ``Operator`` owns
the one closed form, with exponent and weight (p, 1) or (2, Lambda).

Run:  python3 demos/operator_comparison.py
"""

from oscillap import (
    HitZero,
    Operator,
    PowerTimesOnePlusSin,
    PrimitiveCalculus,
    PucciShootConfig,
    ShootConfig,
    check_necessary_conditions,
    pucci_shoot,
    shoot,
)

nl = PowerTimesOnePlusSin(1.0)

print(f"{'c':>6} {'rho (p=2)':>12} {'rho (Lam=1)':>12} {'rho (Lam=2)':>12} {'switches':>9}")
for c in (1.0, 3.0, 8.0, 13.0, 20.0):
    plap = shoot(ShootConfig(2.0, 2, c, tol_ode=1e-10), nl)
    same = pucci_shoot(PucciShootConfig(1.0, 2, c, tol_ode=1e-10), nl)
    bent = pucci_shoot(PucciShootConfig(2.0, 2, c, tol_ode=1e-10), nl)
    assert isinstance(plap.outcome, HitZero)
    print(f"{c:6.1f} {plap.outcome.rho:12.7f} {same.outcome.rho:12.7f} "
          f"{bent.outcome.rho:12.7f} {bent.q_sign_changes:9d}")

# the Lambda-weighted decay inequality audited along one trajectory
res = pucci_shoot(PucciShootConfig(2.0, 2, 8.0, tol_ode=1e-10), nl)
check = check_necessary_conditions(res, PrimitiveCalculus(nl), 1.0)
print(f"\nLambda=2, c=8: min inequality slack {check.min_slack:.3e} "
      f"(negative would refute the bound)")

# thresholds from the same exact limits L- = L+ = 1/2 of F(s)/s^2; f >= 0,
# so F_Lambda = F and every Lambda shares them
limits = Operator.p_laplacian(2.0).limits(nl)
print(f"\nlambda_under, R=1, limits ({limits.L_minus}, {limits.L_plus}):")
print(f"  p-Laplacian (p=2): {Operator.p_laplacian(2.0).lambda_under(1.0, limits)}")
for Lam in (1.0, 2.0, 4.0):
    print(f"  Pucci Lambda={Lam}:    {Operator.pucci(Lam).lambda_under(1.0, limits)}")
print("\nlarger Lambda widens the operator envelope and lowers the bar a"
      "\nsolution must clear, exactly by the 1/Lambda factor in the formula.")
