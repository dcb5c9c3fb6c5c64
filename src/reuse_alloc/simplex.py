"""Dense primal simplex for max c.x s.t. Ax <= b, x >= 0, with b >= 0.

Self-contained on purpose: the LP benchmark must be bit-reproducible, so no
external solver. The all-slack basis is feasible because every right-hand
side is nonnegative (capacities and per-arrival demand bounds). Pivoting is
Dantzig (most negative reduced cost) for speed, with an automatic permanent
switch to Bland's smallest-index rule once the objective stalls, which is the
anti-cycling guarantee. Both rules are deterministic. An LP with no column
is optimal at once: objective 0.0, an empty x and zero duals.

A comes in as coordinates (`Coo`), scattered once without its exact zeros
into the zero tableau. A dense A (as the tests pass it) goes once through
`np.nonzero` into the same `Coo`, so a -0.0 in it enters as +0.0.

The tableau is a private anonymous mapping, and every write but b's zeros
lands on an entry that is nonzero before or after it: an untouched 4 KiB
page reads as the kernel's zero page, so only the pages that ever hold a
nonzero become resident (a quarter on upper_triangular 10x100), at one
fault each (a few microseconds). `np.zeros` would ask for huge pages at
4 MiB and up, which a few scattered writes make resident, and a MAP_SHARED
mapping (`mmap`'s default) makes its read faults resident too.

A pivot scales the pivot row at its nonzeros (a zero divided by p > 0 keeps
its sign), then updates only the rows with a nonzero in the pivot column,
at the columns where the scaled row is nonzero. Every skipped entry would
have had an exact zero, colv[r] * 0.0, subtracted from it, which leaves any
nonzero value as it is. So every nonzero entry, ratio test, basis choice,
x, objective, dual and pivot count is bit-identical to the full-row update.
The one thing that can differ is a zero's sign: a -0.0 stays -0.0 where the
full update could turn it into +0.0. The fluid LPs put -0.0 only into the
cost row's structural block (-c where a reward is 0; `build_lp` writes no
-0.0 into A or b), where no comparison tells -0.0 from +0.0 and no output
reads it. The fluid LPs' pivot rows and columns are mostly sparse, so a
pivot costs far less than the (m + 1) x (n + m + 1) of a full update.

At an optimum the cost row's slack block holds the duals y of the rows
Ax <= b: y >= 0, A^T y >= c and b.y = c.x up to rounding.
"""

from __future__ import annotations

import mmap
from collections import namedtuple
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
    y: np.ndarray            # row duals: the cost row's slack block


# An m x n matrix by coordinates: val[k] at (row[k], col[k]), no position twice.
Coo = namedtuple("Coo", "row col val shape")


def as_coo(A) -> Coo:
    """A `Coo` as it is; a dense matrix by its nonzero entries."""
    if isinstance(A, Coo):
        return A
    A = np.asarray(A, dtype=float)
    row, col = np.nonzero(A)
    return Coo(row, col, A[row, col], A.shape)


def solve(c, A, b) -> SimplexResult:
    """Solve max c.x s.t. Ax <= b, x >= 0; A is a `Coo` or a dense matrix."""
    c = np.asarray(c, dtype=float)
    A = as_coo(A)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if (b < 0).any():
        return SimplexResult(INFEASIBLE, 0.0, np.zeros(n), 0, np.zeros(m))
    if n == 0:
        return SimplexResult(OPTIMAL, 0.0, np.zeros(0), 0, np.zeros(m))

    # Tableau: [A | I | b], last row holds reduced costs (-c) and the value.
    T = np.frombuffer(mmap.mmap(-1, 8 * (m + 1) * (n + m + 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS),
                      dtype=float).reshape(m + 1, n + m + 1)
    stored = A.val != 0.0
    T[A.row[stored], A.col[stored]] = A.val[stored]
    T[np.arange(m), np.arange(n, n + m)] = 1.0
    T[:m, -1] = b
    T[m, :n] = -c
    basis = np.arange(n, n + m)

    status = OPTIMAL
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

        cols = (T[i] != 0.0).nonzero()[0]   # a bool mask finds nonzeros faster than flatnonzero
        T[i, cols] = row = T[i, cols] / T[i, j]
        colv = T[:, j].copy()
        colv[i] = 0.0
        nz = (colv != 0.0).nonzero()[0]
        if nz.size:
            live = row != 0.0
            T[nz[:, None], cols[live]] -= np.outer(colv[nz], row[live])
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
        status = ITERATION_LIMIT

    return SimplexResult(status, float(T[m, -1]), _extract(T, basis, n, m), pivots, T[m, n : n + m].copy())


def _extract(T, basis, n, m):
    x = np.zeros(n + m)
    x[basis] = T[: m, -1]
    return x[:n]
