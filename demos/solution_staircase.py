"""Walk the existence mechanism end to end for f(s) = s (1 + sin s).

The oscillation gives f a ladder of zeros alpha_1 < alpha_2 < ... and each
gap (alpha_{n-1}, alpha_n] can trap one solution once lambda is large
enough.  The demo computes the two thresholds, scans a bifurcation diagram
to count solutions at a fixed lambda, and runs the variational minimizer
to produce the same staircase from the energy side.

Run:  python3 demos/solution_staircase.py
"""

import numpy as np

from oscillap import (
    BallGeometry,
    Operator,
    Potential,
    PowerTimesOnePlusSin,
    PrimitiveCalculus,
    clustered_heights,
    compute_thresholds,
    diagram,
    find_zeros,
    radial_grid,
    run_sequence,
)

nl = PowerTimesOnePlusSin(1.0)
pc = PrimitiveCalculus(nl, p=2.0)
zeros = find_zeros(nl, 12)

print("zeros of f:", ", ".join(f"{z:.4f}" for z in zeros.ascending()[:6]), "...")

# thresholds on the unit interval (N = 1, R = 1)
report = compute_thresholds(pc, BallGeometry(1, 1.0), "infinity",
                            operator=Operator.p_laplacian(2.0))
print(f"nonexistence below  lambda_under = {report.lambda_under:.6f}")
print(f"existence beyond    lambda_bar   = {report.lambda_bar:.6f}")

# count solutions at lambda* = 10 lambda_bar by scanning shooting heights
star = 10.0 * report.lambda_bar
heights = clustered_heights(zeros, c_max=40.0)
diag = diagram(nl, 2.0, 1, 1.0, heights, zeros, pc=pc)
crossings = diag.solutions_at(star)
print(f"\nlambda* = {star:.3f}: {len(crossings)} solutions on the diagram")
print(f"{'height c':>12} {'gap':>4} {'lambda(c)':>12}")
for x in crossings:
    print(f"{x.c:12.5f} {x.zero_interval_index:4d} {x.lam:12.5f}")

# the variational route: one global minimizer per truncation level
pot = Potential.p_laplacian(2.0)
gammas = [row.gamma for row in report.rows]
grid = radial_grid(1.0, 200, delta=report.rows[0].delta)
items = run_sequence(nl, pot, star, zeros, gammas, grid, 5,
                     pc=pc, lambda_bar=report.lambda_bar)
print(f"\nminimizers at lambda = {star:.3f}, truncated at alpha_1..alpha_5:")
print(f"{'n':>2} {'alpha_n':>10} {'sup |u_n|':>10} {'energy':>14}")
for it in items:
    print(f"{it.n:2d} {it.alpha_n:10.4f} {it.sup_norm:10.4f} {it.energy:14.4f}")
print("\nsup norms climb the same ladder the diagram sees: one solution per gap,"
      "\nheights marching toward infinity as the truncation level rises.")
