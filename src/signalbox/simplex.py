"""Dense two-phase primal simplex for small equality-form programs.

Solves ``minimize c.x subject to A x = b, x >= 0``.  The programs this
package generates are tiny (at most 17 rows before rank reduction and 32
columns), so a dense tableau with Bland's anti-cycling rule is both
simple and exactly reproducible, which matters because the solver serves
as an oracle in the test suite.  No external solver is involved.

Redundant equalities are removed up front by Gaussian elimination with
partial pivoting; an inconsistent system raises
:class:`~signalbox.errors.InfeasibleError` at that stage already.  The
pivot choices depend on A alone, so the elimination of A is recorded
once per matrix (a small LRU cache) and replayed on each right-hand side
with the same elementwise operations.  Every result is bit-identical to
eliminating ``[A | b]`` afresh, and to pivoting row by row: the pivots
update all touched rows in one masked operation, element by element
exactly as a loop over the rows would.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError, InfeasibleError, UnboundedError

_FEAS_TOL = 1e-9
# Pivot and reduced-cost threshold: entries within it count as zero.
_PIVOT_TOL = 1e-10
_MAX_PIVOTS = 100000


@dataclass(frozen=True)
class SimplexResult:
    """Optimal point plus certificates.

    ``reduced_costs`` are the final phase-2 reduced costs; at an optimum
    every entry is >= -1e-10, which callers can use as an optimality
    certificate without re-running the solver.
    """

    x: np.ndarray
    objective: float
    reduced_costs: np.ndarray
    iterations: int


@functools.lru_cache(maxsize=16)
def _eliminate(shape, data, tol):
    """Partial-pivoting elimination of A alone, cached per matrix.

    A arrives as its shape and C-order bytes, so that it can key the
    cache.  Returns ``(steps, keep)``: the ``(pivot row, factors)`` of
    every elimination step, step k making row k the pivot row, and the
    sorted indices of a maximal independent row subset.  The pivot choices read only A's columns,
    so one record serves every right-hand side.
    """
    work = np.frombuffer(data, dtype=float).reshape(shape).copy()
    m = shape[0]
    order = list(range(m))
    steps = []
    rank = 0
    for col in range(shape[1]):
        if rank >= m:
            break
        piv = rank + int(np.argmax(np.abs(work[rank:, col])))
        if abs(work[piv, col]) <= tol:
            continue
        if piv != rank:
            work[[rank, piv]] = work[[piv, rank]]
            order[rank], order[piv] = order[piv], order[rank]
        factors = work[rank + 1 :, col] / work[rank, col]
        work[rank + 1 :] -= np.outer(factors, work[rank])
        steps.append((piv, tuple(factors.tolist())))
        rank += 1
    keep = np.array(sorted(order[:rank]), dtype=np.intp)
    keep.setflags(write=False)
    return tuple(steps), keep


def _independent_rows(a, b, tol):
    """Indices of a maximal independent row subset of [A | b].

    Replays the elimination of A on b with the same elementwise
    operations, so b is reduced exactly as if it were a column of A.
    Raises InfeasibleError when elimination exposes a row 0 = beta with
    beta nonzero, i.e. the equality system is contradictory.
    """
    steps, keep = _eliminate(a.shape, a.tobytes(), tol)
    beta = b.tolist()
    for rank, (piv, factors) in enumerate(steps):
        if piv != rank:
            beta[rank], beta[piv] = beta[piv], beta[rank]
        top = beta[rank]
        for i, factor in enumerate(factors, rank + 1):
            beta[i] -= factor * top
    for i in range(len(keep), len(beta)):
        if abs(beta[i]) > _FEAS_TOL:
            raise InfeasibleError(
                f"equality system is inconsistent (residual {beta[i]:.3e})"
            )
    return keep


def _pivot(tableau, cost_row, basis, leave, enter):
    row = tableau[leave]
    row /= row[enter]
    column = tableau[:, enter]
    touched = column != 0.0
    touched[leave] = False
    np.subtract(
        tableau, np.multiply.outer(column, row), out=tableau, where=touched[:, None]
    )
    cost_row -= cost_row[enter] * row
    basis[leave] = enter


def _run_simplex(tableau, cost_row, basis, ncols):
    """Bland-rule simplex loop on a canonical tableau.

    ``ncols`` is the number of eligible entering columns (the rhs column
    and any columns beyond ncols never enter).  Returns the pivot count.
    """
    iterations = 0
    while True:
        eligible = cost_row[:ncols] < -_PIVOT_TOL
        enter = int(eligible.argmax())
        if not eligible[enter]:
            return iterations
        leave = -1
        best = np.inf
        rows = zip(tableau[:, enter].tolist(), tableau[:, -1].tolist())
        for i, (coef, rhs) in enumerate(rows):
            if coef > _PIVOT_TOL:
                ratio = rhs / coef
                if ratio < best - 1e-12:
                    best, leave = ratio, i
                elif ratio <= best + 1e-12 and leave >= 0 and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            raise UnboundedError("objective is unbounded below on the feasible set")
        _pivot(tableau, cost_row, basis, leave, enter)
        iterations += 1
        if iterations > _MAX_PIVOTS:
            raise ConsistencyError("simplex failed to terminate (cycling guard hit)")


def solve_lp(c, a, b) -> SimplexResult:
    """Minimize ``c.x`` over ``A x = b, x >= 0``.

    Two-phase method: phase 1 drives artificial variables to zero (a
    strictly positive phase-1 optimum means the program is infeasible),
    phase 2 optimizes the real objective with artificials ejected.
    Entering variables are chosen by Bland's rule (smallest index with a
    reduced cost below -1e-10), leaving rows by minimum ratio with
    smallest-basis-index tie-breaking, which rules out cycling.

    Raises :class:`~signalbox.errors.DomainError` for mismatched shapes
    or a NaN or infinite entry in ``c``, ``A`` or ``b``.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2:
        raise DomainError(f"constraint matrix must be 2-d, got {a.ndim}-d")
    m, n = a.shape
    if c.shape != (n,) or b.shape != (m,):
        raise DomainError(
            f"shape mismatch: A is {a.shape}, c is {c.shape}, b is {b.shape}"
        )
    for name, values in (("c", c), ("A", a), ("b", b)):
        if not np.isfinite(values).all():
            raise DomainError(f"{name} has a non-finite entry")

    keep = _independent_rows(a, b, _PIVOT_TOL)
    a = a[keep].copy()
    b = b[keep].copy()
    m = len(keep)
    if m == 0:
        # Every equation was vacuous; the origin is optimal for c >= 0.
        if np.all(c >= 0.0):
            return SimplexResult(np.zeros(n), 0.0, c.copy(), 0)
        raise UnboundedError("no constraints remain and the objective decreases")

    flip = b < 0.0
    a[flip] *= -1.0
    b[flip] *= -1.0

    # Phase 1 tableau: [A | I | b] with the artificial identity basic.
    tableau = np.hstack([a, np.eye(m), b.reshape(-1, 1)])
    basis = [n + i for i in range(m)]
    cost_row = np.zeros(n + m + 1)
    cost_row[:n] = -a.sum(axis=0)
    cost_row[-1] = -b.sum()

    iterations = _run_simplex(tableau, cost_row, basis, n + m)
    if -cost_row[-1] > _FEAS_TOL:
        raise InfeasibleError(
            f"no nonnegative solution: phase-1 optimum {-cost_row[-1]:.3e} > 0"
        )

    # Eject any artificial still basic at value zero.  After rank
    # reduction the real columns span every row, so a pivot always exists.
    for i in range(m):
        if basis[i] >= n:
            eligible = np.flatnonzero(np.abs(tableau[i, :n]) > _PIVOT_TOL)
            if eligible.size == 0:
                raise ConsistencyError(
                    "redundant row survived rank reduction; cannot eject artificial"
                )
            _pivot(tableau, cost_row, basis, i, int(eligible[0]))
            iterations += 1

    # Phase 2: drop artificial columns, rebuild reduced costs for c.
    tableau = np.hstack([tableau[:, :n], tableau[:, -1:]])
    cost_row = np.zeros(n + 1)
    cost_row[:n] = c
    for i in range(m):
        cost_row -= c[basis[i]] * tableau[i]

    iterations += _run_simplex(tableau, cost_row, basis, n)

    x = np.zeros(n)
    for i in range(m):
        x[basis[i]] = tableau[i, -1]
    x[x < 0.0] = 0.0
    return SimplexResult(
        x=x,
        objective=float(c @ x),
        reduced_costs=cost_row[:n].copy(),
        iterations=iterations,
    )
