"""Minimum-cost perfect matching with forbidden entries.

scipy ``linear_sum_assignment`` with forbidden pairs passed as +inf costs.
Raises when the forbidden mask leaves no perfect matching; optimality is
cross-checked against brute force in the tests.  `reconstruct.solve_next_map`
matches the vertex stars of degree at most 4 itself, by enumerating
permutations, with the columns and total bits this gives; it calls
`solve_square` for larger stars, near ties and non-finite costs.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment


class InfeasibleAssignmentError(RuntimeError):
    """No perfect matching avoids all forbidden entries."""


def solve_square(cost: np.ndarray):
    """Return (columns, total) minimizing sum(cost[i, columns[i]]).

    ``cost`` must be square; +inf marks forbidden pairs.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("cost matrix must be square")
    n = c.shape[0]
    if n == 0:
        return np.zeros(0, dtype=int), 0.0
    if np.isnan(c).any():
        raise ValueError("cost matrix contains NaN")
    try:
        _, columns = linear_sum_assignment(c)
    except ValueError as exc:   # scipy's "cost matrix is infeasible"
        raise InfeasibleAssignmentError(
            "forbidden entries leave no perfect matching") from exc
    total = float(c[np.arange(n), columns].sum())
    if not np.isfinite(total):
        raise InfeasibleAssignmentError("matching uses a forbidden entry")
    return columns, total
