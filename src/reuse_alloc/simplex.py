"""Dense primal simplex for max c.x s.t. Ax <= b, x >= 0, with b >= 0.

Self-contained on purpose: the LP benchmark must be bit-reproducible, so no
external solver. The all-slack basis is feasible because every right-hand
side is nonnegative (capacities and per-arrival demand bounds). Pivoting is
Dantzig (most negative reduced cost) for speed, with an automatic permanent
switch to Bland's smallest-index rule once the objective stalls, which is the
anti-cycling guarantee. Both rules are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPT_TOL = 1e-9       # reduced-cost optimality tolerance
FEAS_TOL = 1e-9      # pivot / feasibility tolerance
STALL_LIMIT = 64     # degenerate iterations before switching to Bland
MAX_PIVOTS = 10**6

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
ITERATION_LIMIT = "IterationLimit"


@dataclass
class SimplexResult:
    status: str
    objective: float
    x: np.ndarray
    pivots: int


def solve(c, A, b) -> SimplexResult:
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if (b < 0).any():
        return SimplexResult(INFEASIBLE, 0.0, np.zeros(n), 0)

    # Tableau: [A | I | b], last row holds reduced costs (-c) and the value.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -c
    basis = np.arange(n, n + m)

    bland = False
    stall = 0
    last_obj = 0.0
    pivots = 0
    while pivots < MAX_PIVOTS:
        costs = T[m, :-1]
        if bland:
            neg = np.nonzero(costs < -OPT_TOL)[0]
            if neg.size == 0:
                break
            j = int(neg[0])
        else:
            j = int(np.argmin(costs))
            if costs[j] >= -OPT_TOL:
                break
        col = T[:m, j]
        pos = np.nonzero(col > FEAS_TOL)[0]
        if pos.size == 0:
            # Our models bound every variable through a demand row, so an
            # unbounded ray means a malformed input; surface it loudly.
            raise ValueError("LP is unbounded")
        ratios = T[pos, -1] / col[pos]
        best = ratios.min()
        tied = pos[ratios <= best + FEAS_TOL]
        i = int(tied[np.argmin(basis[tied])])  # smallest basis index on ties

        T[i, :] /= T[i, j]
        colv = T[:, j].copy()
        colv[i] = 0.0
        # Exact zeros in the pivot column skip whole rows losslessly; on the
        # assignment-like LPs built here most rows stay untouched per pivot.
        nz = np.flatnonzero(colv)
        if nz.size:
            T[nz] -= np.outer(colv[nz], T[i, :])
        basis[i] = j
        pivots += 1

        obj = T[m, -1]
        if obj <= last_obj + 1e-12:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
        else:
            stall = 0
        last_obj = obj
    else:
        return SimplexResult(ITERATION_LIMIT, float(T[m, -1]), _extract(T, basis, n, m), MAX_PIVOTS)

    return SimplexResult(OPTIMAL, float(T[m, -1]), _extract(T, basis, n, m), pivots)


def _extract(T, basis, n, m):
    x = np.zeros(n + m)
    x[basis] = T[: m, -1]
    return x[:n]
