"""Dense tableau simplex for max c.x s.t. Ax <= b, x >= 0, with b >= 0,
solved from the all-slack basis or, for rows added to an LP already solved,
on from its last basis.

Self-contained on purpose: the LP benchmark must be bit-reproducible, so no
external solver. The all-slack basis is feasible because every right-hand
side is nonnegative (capacities and per-arrival demand bounds). Primal
pivoting is Dantzig (most negative reduced cost) for speed, with an
automatic permanent switch to Bland's smallest-index rule once the objective
stalls, which is the anti-cycling guarantee. Every rule is deterministic. An
LP with no column is optimal at once: objective 0.0, an empty x and zero
duals.

Rows added to a solved LP (a `Tableau` that `solve` keeps between calls)
keep its basis dual feasible: a later call writes every row of its A at
once, in LP order, each with its slack basic at b - A x, which is negative
where the last optimum x breaks it. Dual simplex steps (dual steepest edge
among the tableau's rows below -FEAS_TOL, and Harris' ratio test) then
restore primal feasibility, and the primal loop cleans up; both loops share
the one pivot routine. Which rows enter, and when, is the caller's choice:
the LP value (`benchmarks.solve_lp_value`) adds only rows that its last
optimum breaks, a few at a time, so that the dual pivots, which fill the
tableau far more than the primal ones, update only rows that are needed.
A row is written in the basis by subtracting from it a_j times the row of
each basic column j it holds (a basic column is a unit vector, so no other
row changes). A first call writes every row at once from the all-slack
basis, where nothing is broken or eliminated, so its tableau, pivots and
outputs are those of a plain primal simplex. Where its A has one entry per
column, equal to 1.0 (the LP value's first round, its demand rows), the
tableau that simplex reaches is written without pivoting (`_unit_optimum`),
bit for bit, unless Bland's rule would take over or MAX_PIVOTS stop it.
Where the dual steps stall (STALL_LIMIT pivots without progress, where the
primal loop takes Bland's rule) or end at a point that fails `check` on the
LP so far (rounding that many pivots on one tableau can let grow), that LP
is solved again from the all-slack basis.

A comes in as coordinates (`Coo`), scattered without its exact zeros into
the zero tableau. A dense A (as the tests pass it) goes once through
`np.nonzero` into the same `Coo`, so a -0.0 in it enters as +0.0.

The tableau is a private anonymous mapping, and every write but b's zeros
lands on an entry that is nonzero before or after it: an untouched 4 KiB
page reads as the kernel's zero page, so only the pages that ever hold a
nonzero become resident (a quarter on upper_triangular 10x100), at one
fault each (a few microseconds). `np.zeros` would ask for huge pages at
4 MiB and up, which a few scattered writes make resident, and a MAP_SHARED
mapping (`mmap`'s default) makes its read faults resident too. A first
call makes room for its rows only, or, given a `Tableau` that later calls
will add rows to, for twice its rows; a later call that needs more moves
the nonzeros into a tableau with room for twice the rows it adds. So the
LP value's second round writes into the first round's mapping, and no
pivot reads the room's rows: they are zero.

A pivot scales the pivot row at its nonzeros (a zero divided by p keeps or
flips its sign), then updates only the rows with a nonzero in the pivot
column, at the columns where the scaled row is nonzero. Every skipped entry
would have had an exact zero, colv[r] * 0.0, subtracted from it, which
leaves any nonzero value as it is. So every nonzero entry, ratio test, basis
choice, x, objective, dual and pivot count is bit-identical to the full-row
update. The one thing that can differ is a zero's sign: a -0.0 stays -0.0
where the full update could turn it into +0.0. The fluid LPs put -0.0 only
into the cost row's structural block (-c where a reward is 0; `build_lp`
writes no -0.0 into A or b), where no comparison tells -0.0 from +0.0 and no
output reads it. The fluid LPs' pivot rows and columns are mostly sparse,
so a pivot costs far less than the (m + 1) x (n + m + 1) of a full update.
No BLAS call takes part in any of it.

At an optimum the cost row's slack block holds the duals y of the rows
Ax <= b: y >= 0, A^T y >= c and b.y = c.x up to rounding, as `check` measures.
"""

from __future__ import annotations

import dataclasses
import mmap
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .engine import dot

OPT_TOL = 1e-9       # reduced-cost optimality tolerance
FEAS_TOL = 1e-9      # pivot / feasibility tolerance; `check`'s, relative to max(1, |objective|)
PIVOT_TOL = 1e-7     # a ratio test's preferred least pivot magnitude
STALL_LIMIT = 64     # degenerate iterations before switching to Bland
MAX_PIVOTS = 10**6
ELIM_CELLS = 1 << 16  # most entries that writing rows in the basis gathers or multiplies at once

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
ITERATION_LIMIT = "IterationLimit"
_STALLED = "Stalled"     # the dual steps made no progress for STALL_LIMIT pivots


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


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[i], ..., starts[i] + counts[i] - 1, one after another."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


@dataclass
class Tableau:
    """An LP's tableau, kept by `solve` from one call to the next; empty
    until the first. T is (R + 1) x (n + R + 1), with room for R rows: its
    first m rows are the LP's rows so far, [A | I | 0 | b] in LP order, its
    last row is the cost row [-c | y | 0 | c.x], and the rest is zero.
    basis[i] is row i's basic column; lp holds the (A, b) of every call."""
    T: np.ndarray | None = None
    basis: np.ndarray | None = None
    lp: list = field(default_factory=list)


def solve(c, A, b, tableau=None) -> SimplexResult:
    """Solve max c.x s.t. Ax <= b, x >= 0; A is a `Coo` or a dense matrix.
    With a `Tableau` that earlier calls solved, the LP is their rows and then
    A's, solved on from the last basis (c must be the same); y is over all
    of them. Where the dual steps stall or their optimum fails `check` on
    the LP so far (rounding that many pivots on one tableau let grow), that
    LP is solved again from the all-slack basis; pivots then count both."""
    c = np.asarray(c, dtype=float)
    A = as_coo(A)
    b = np.asarray(b, dtype=float)
    k, n = A.shape
    if (b < 0).any():
        return SimplexResult(INFEASIBLE, 0.0, np.zeros(n), 0, np.zeros(k))
    if n == 0:
        return SimplexResult(OPTIMAL, 0.0, np.zeros(0), 0, np.zeros(k))

    tab = Tableau() if tableau is None else tableau
    warm = tab.T is not None
    tab.lp.append((A, b))
    res = _solve_on(tab, c, A, b, tableau is not None)
    if not warm or res.status not in (OPTIMAL, INFEASIBLE, _STALLED):
        return res
    A, b = _stack(tab.lp, n), np.concatenate([b for _, b in tab.lp])
    if res.status == OPTIMAL and all(breach <= tolerance(res) for _, breach in check(c, A, b, res)):
        return res
    tab.T = None
    again = _solve_on(tab, c, A, b, True)
    return dataclasses.replace(again, pivots=res.pivots + again.pivots)


def check(c, A, b, res) -> tuple:
    """How far res is from solving max c.x s.t. A x <= b, x >= 0 (A a `Coo`),
    as (name, breach) pairs: primal residual (A x - b, -x), dual feasibility
    (-y, c - A^T y) and the duality gap |b.y - c.x| (b.y bounds every
    feasible c.x), summed by `dot` whatever the BLAS threads. res is a
    certified optimum where no breach exceeds `tolerance(res)`."""
    x, y = res.x, res.y
    Ax = np.bincount(A.row, weights=A.val * x[A.col], minlength=A.shape[0])
    ATy = np.bincount(A.col, weights=A.val * y[A.row], minlength=A.shape[1])
    return (
        ("primal residual", max((Ax - b).max(initial=0.0), -x.min(initial=0.0))),
        ("dual feasibility", max(-y.min(initial=0.0), (c - ATy).max(initial=0.0))),
        ("duality gap", abs(dot(b, y) - dot(c, x))),
    )


def tolerance(res) -> float:
    """`check`'s tolerance for res: FEAS_TOL * max(1, |objective|)."""
    return FEAS_TOL * max(1.0, abs(res.objective))


def _solve_on(tab, c, A, b, spare):
    """`solve` on tab, whose rows so far are solved: the rows of A enter,
    and the dual and then the primal steps run (or, on a first call,
    `_unit_optimum` writes where they would end). A first call with
    `spare` makes room for twice its rows."""
    fresh = tab.T is None
    _make_room(tab, c, *A.shape, spare)
    _write_rows(tab, A, b)
    status, pivots = _iterate(tab.T, tab.basis, _dual_step, -1.0, 0)
    if status == OPTIMAL:
        written = _unit_optimum(tab.T, tab.basis, c, A, b) if fresh else None
        if written is None:
            status, pivots = _iterate(tab.T, tab.basis, _primal_step, 1.0, pivots)
        else:
            pivots = written
    T, n, m = tab.T, A.shape[1], tab.basis.size
    return SimplexResult(status, float(T[-1, -1]), _extract(T, tab.basis, n, m), pivots, T[-1, n : n + m].copy())


def _stack(lp, n) -> Coo:
    """The rows A of every (A, b) in lp, one under the other."""
    first = np.cumsum([0] + [b.size for _, b in lp])
    return Coo(np.concatenate([A.row + f for (A, _), f in zip(lp, first)]), np.concatenate([A.col for A, _ in lp]),
               np.concatenate([A.val for A, _ in lp]), (int(first[-1]), n))


def _zeros(rows, cols):
    """A zero matrix in a private anonymous mapping (see the module docstring)."""
    buf = mmap.mmap(-1, 8 * rows * cols, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(buf, dtype=float).reshape(rows, cols)


def _make_room(tab, c, k, n, spare):
    """Room for k more rows in tab: a first tableau, of the cost row -c with
    room for k rows (2k with `spare`), or, where the room left is too small,
    the nonzeros moved into a tableau with room for 2k more rows than it
    holds."""
    if tab.T is None:
        room = 2 * k if spare else k
        tab.T = _zeros(room + 1, n + room + 1)
        tab.T[room, :n] = -c
        tab.basis = np.zeros(0, dtype=np.int64)
        return
    m = tab.basis.size
    if m + k >= tab.T.shape[0]:
        old, room = tab.T, m + 2 * k
        tab.T = _zeros(room + 1, n + room + 1)
        r, j = old.nonzero()
        tab.T[np.where(r < m, r, room), np.where(j < n + m, j, n + room)] = old[r, j]


def _write_rows(tab, A, b):
    """Write the rows of A x <= b under the tableau's rows, each with its
    slack basic, and then in the basis: from each new row, a_j times the row
    of each basic column j it holds (a row whose column j is 1 and whose
    other basic columns are 0) is subtracted, in ascending order of those
    rows."""
    T, basis = tab.T, tab.basis
    m, n = basis.size, A.shape[1]
    new = m + np.arange(b.size)
    e = np.flatnonzero(A.val != 0.0)
    T[m + A.row[e], A.col[e]] = A.val[e]
    T[new, n + new] = 1.0
    T[new, -1] = b
    tab.basis = np.concatenate([basis, n + new])
    row_of = np.full(n, -1)
    row_of[basis[basis < n]] = np.flatnonzero(basis < n)
    e = e[row_of[A.col[e]] >= 0]
    if e.size == 0:
        return
    e = e[np.argsort(row_of[A.col[e]], kind="stable")]
    rows, k = np.unique(row_of[A.col[e]], return_inverse=True)
    r, c = _nonzeros(T, rows)
    nnz = np.bincount(r, minlength=rows.size)
    start = np.cumsum(nnz) - nnz
    at = (m + A.row[e]) * T.shape[1]        # T is C-contiguous: flat offsets
    done = np.cumsum(nnz[k])
    cuts = np.searchsorted(done, np.arange(ELIM_CELLS, done[-1], ELIM_CELLS), side="right").tolist()
    for lo, hi in zip([0, *cuts], [*cuts, e.size]):     # under ELIM_CELLS products at a time
        count = nnz[k[lo:hi]]
        pick = ranges(start[k[lo:hi]], count)
        np.subtract.at(T.reshape(-1), np.repeat(at[lo:hi], count) + c[pick],
                       np.repeat(A.val[e[lo:hi]], count) * T[rows[r[pick]], c[pick]])


def _unit_optimum(T, basis, c, A, b):
    """Where A has one entry per column, equal to 1.0, write the optimum the
    primal loop would reach from the all-slack basis into T and basis, and
    return its pivots; else, or where a cost is not finite or that loop
    would switch to Bland's rule or stop at MAX_PIVOTS, None. Each pivot leaves every row but the
    cost row as it is (its row scales by 1.0, and its column has no other
    entry) and pivoted rows' costs are >= 0, so Dantzig enters, in turn, the
    column of greatest c > OPT_TOL (ties to the lower index) among the rows
    not yet pivoted. Pivoting on column j of row r subtracts -c_j (times the
    row's 1.0) from the cost row at the row's columns and its slack, and
    -c_j * b_r from T[-1, -1]: the objective is the running sum of c_j * b_r."""
    n, k = c.size, b.size
    if A.val.size != n or (A.val != 1.0).any() or (np.bincount(A.col, minlength=n) != 1).any():
        return None
    if not np.isfinite(c).all():        # the loop's cost row would take inf - inf = NaN, and follow it
        return None
    row = np.empty(n, dtype=np.int64)
    row[A.col] = A.row
    order = np.argsort(-c, kind="stable")
    order = order[c[order] > OPT_TOL]
    enter = order[np.sort(np.unique(row[order], return_index=True)[1])]    # one column per row, in pivot order
    r = row[enter]
    obj = np.cumsum(np.concatenate([[0.0], c[enter] * b[r]]))             # left to right, as the pivots add
    moved = np.concatenate([[0], np.cumsum(obj[1:] > obj[:-1] + 1e-12)])  # pivots that moved it, so far
    if enter.size >= MAX_PIVOTS or (moved[STALL_LIMIT:] == moved[:-STALL_LIMIT]).any():
        return None
    cost = T[-1, enter]                     # -c_j, each pivot's multiple of its row
    at = np.full(k, -1)
    at[r] = np.arange(enter.size)
    e = np.flatnonzero(at[row] >= 0)
    T[-1, e] -= cost[at[row[e]]]
    T[-1, n + r] -= cost
    T[-1, -1] = obj[-1]
    basis[r] = enter
    return enter.size


def _nonzeros(T, rows):
    """(i, j) of the nonzeros of T[rows], row by row (i indexes `rows`),
    gathering a run of rows of under ELIM_CELLS entries at a time."""
    step = max(1, ELIM_CELLS // T.shape[1])
    return np.concatenate([np.array(T[rows[lo : lo + step]].nonzero()) + [[lo], [0]]
                           for lo in range(0, rows.size, step)], axis=1)


def _iterate(T, basis, step, sense, pivots):
    """Pivot where `step` says until it returns a status, counting on from
    `pivots`. Each pivot should move the objective up (sense 1.0) or down
    (-1.0); after STALL_LIMIT pivots in a row that do not, `step` is asked
    for Bland's choice from then on."""
    bland = False
    stall = 0
    last = sense * T[-1, -1]
    while pivots < MAX_PIVOTS:
        at = step(T, basis, bland)
        if isinstance(at, str):
            return at, pivots
        _pivot(T, basis, *at)
        pivots += 1
        obj = sense * T[-1, -1]
        if obj <= last + 1e-12:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
        else:
            stall = 0
        last = obj
    return ITERATION_LIMIT, pivots


def _candidates(entries):
    """A ratio test's positions: entries above PIVOT_TOL where there are
    any, else those above FEAS_TOL, so that a tiny pivot is a last resort."""
    pos = (entries > PIVOT_TOL).nonzero()[0]
    return pos if pos.size else (entries > FEAS_TOL).nonzero()[0]


def _primal_step(T, basis, bland):
    """The entering column (the most negative reduced cost, or under Bland
    the first one below -OPT_TOL) and the row of the least ratio, ties to
    the smallest basic index; OPTIMAL where no cost is below -OPT_TOL."""
    m = basis.size
    costs = T[-1, :-1]
    if bland:
        neg = np.nonzero(costs < -OPT_TOL)[0]
        if neg.size == 0:
            return OPTIMAL
        j = int(neg[0])
    else:
        j = int(np.argmin(costs))
        if costs[j] >= -OPT_TOL:
            return OPTIMAL
    col = T[:m, j]
    pos = _candidates(col)
    if pos.size == 0:
        # Our models bound every variable through a demand row, so an
        # unbounded ray means a malformed input; surface it loudly.
        raise ValueError("LP is unbounded")
    ratios = T[pos, -1] / col[pos]
    best = ratios.min()
    tied = pos[ratios <= best + FEAS_TOL]
    return int(tied[np.argmin(basis[tied])]), j     # smallest basis index on ties


def _dual_step(T, basis, bland):
    """The leaving row: of those whose basic value is below -FEAS_TOL, the
    one of the greatest value^2 / |its row of B^-1|^2 (dual steepest edge;
    B^-1 is the slack block). The entering column (Harris): of the negative
    entries of that row, those whose reduced cost / -entry is at most the
    least ratio of (reduced cost, at least 0, plus OPT_TOL) / -entry, and of
    them the largest -entry, so that a tiny entry with a slightly smaller
    ratio does not become the pivot. OPTIMAL where no basic value is below
    -FEAS_TOL, INFEASIBLE where the leaving row has no negative entry, and
    _STALLED where Bland's rule is asked for: `solve` then starts again
    from the all-slack basis."""
    m = basis.size
    rhs = T[:m, -1]
    neg = (rhs < -FEAS_TOL).nonzero()[0]
    if neg.size == 0:
        return OPTIMAL
    if bland:
        return _STALLED
    n = T.shape[1] - T.shape[0]
    inv = T[neg, n : n + m]
    i = int(neg[np.argmax(rhs[neg] ** 2 / np.einsum("ij,ij->i", inv, inv))])
    row = -T[i, :-1]
    pos = _candidates(row)
    if pos.size == 0:
        return INFEASIBLE
    ratios = T[-1, pos] / row[pos]
    near = pos[ratios <= ((np.maximum(T[-1, pos], 0.0) + OPT_TOL) / row[pos]).min()]
    return i, int(near[np.argmax(row[near])])


def _pivot(T, basis, i, j):
    """Make column j basic in row i: scale row i at its nonzeros, then
    update the rows with a nonzero in column j where row i is nonzero."""
    cols = (T[i] != 0.0).nonzero()[0]   # a bool mask finds nonzeros faster than flatnonzero
    T[i, cols] = row = T[i, cols] / T[i, j]
    m = basis.size
    colv = np.append(T[:m, j], T[-1, j])    # the rows written and the cost row; the room is zero
    colv[i] = 0.0
    nz = (colv != 0.0).nonzero()[0]
    if nz.size:
        live = row != 0.0
        T[np.where(nz < m, nz, -1)[:, None], cols[live]] -= np.outer(colv[nz], row[live])
    basis[i] = j


def _extract(T, basis, n, m):
    x = np.zeros(n + m)
    x[basis] = T[: m, -1]
    return x[:n]
