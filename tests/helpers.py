"""Helpers the tests share and the package does not need.

``tabulate`` builds sample tables from a function.  ``comparison_function``
and ``negativity_test`` are the plateau-and-ramp argument of the
existence proof: once the ramp at the height gamma_n of a zero gap has
negative energy, the minimizer of that truncation level is nontrivial.
"""

import numpy as np

from oscillap import CustomTable, DomainError, GridFunction, assemble_energy


def tabulate(fn, b: float, n: int, direction: str = "infinity") -> CustomTable:
    """``CustomTable`` of ``fn`` on n + 1 uniform nodes over [0, b]."""
    xs = np.linspace(0.0, float(b), int(n) + 1)
    ys = np.array([float(fn(x)) for x in xs])
    return CustomTable(np.column_stack([xs, ys]), direction=direction)


def comparison_function(gamma_n: float, delta: float, grid: np.ndarray,
                        N: int = 1, p: float = 2.0) -> GridFunction:
    """Plateau-and-ramp profile gamma_n min(1, (R - r)/delta) on the grid."""
    grid_r = np.asarray(grid, dtype=float)
    R = grid_r[-1]
    if not 0.0 < delta < R:
        raise DomainError(f"delta must sit inside (0, R), got {delta!r}")
    if not gamma_n > 0.0:
        raise DomainError(f"plateau height must be positive, got {gamma_n!r}")
    vals = gamma_n * np.minimum(1.0, (R - grid_r) / delta)
    vals[-1] = 0.0
    return GridFunction(grid_r, vals, N, p)


def negativity_test(tn, pot, lam: float, gamma_n: float, delta: float,
                    grid: np.ndarray, N: int = 1) -> bool:
    """True iff the ramp at gamma_n already has negative energy at lam."""
    w = comparison_function(gamma_n, delta, grid, N=N, p=pot.p)
    return assemble_energy(w, tn, pot, lam) < 0.0
