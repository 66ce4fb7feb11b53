"""Dense two-phase primal simplex for small equality-form programs.

Solves ``minimize c.x subject to A x = b, x >= 0``.  The programs this
package generates are tiny (at most 17 rows before rank reduction and 32
columns), so a dense tableau with Bland's anti-cycling rule is both
simple and exactly reproducible, which matters because the solver serves
as an oracle in the test suite.  No external solver is involved.

Redundant equalities are removed up front by Gaussian elimination with
partial pivoting; an inconsistent system raises
:class:`~signalbox.errors.InfeasibleError` at that stage already.  The
pivot choices depend on A alone, so one record per matrix holds the
elimination's steps, the rows it keeps and the phase-1 tableau built
from them, all independent of b.  A solve finds a prepared program's
record (:func:`_prepare`) by A's identity, any other by A's bytes.
Each solve replays the steps on its right-hand side with the same
elementwise operations, skipping zero factors, and copies the tableau
with b written in.  The reduced costs are the tableau's last row, so
each pivot updates every touched row, costs included, in one masked
operation, element by element exactly as a loop over the rows would.
Every result is bit-identical to eliminating ``[A | b]`` and building
the tableau afresh with a separate cost row: a Bland pivot's entering
cost is nonzero, so it updates the cost row, and a pivot that ejects an
artificial may skip it: by then phase 1's objective has been read, and
phase 2 rebuilds the costs.  Phase 2 runs in the same array, its
artificial columns barred from entering; a pivot updates each column on
its own, so the bits hold.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .correlation import _frozen_record, _numeric_array
from .errors import ConsistencyError, DomainError, InfeasibleError, UnboundedError

_FEAS_TOL = 1e-9
# Pivot and reduced-cost threshold: entries within it count as zero.
_PIVOT_TOL = 1e-10
_MAX_PIVOTS = 100000
# id(A) -> (A, c, record) of each prepared program; holding A keeps its id unique.
_PROGRAMS = {}


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
def _eliminate(shape, data):
    """Partial-pivoting elimination of A alone, cached per matrix.

    A arrives as its shape and C-order bytes, so that it can key the
    cache.  Returns ``(steps, keep, tableau)``.  ``steps`` holds the
    ``(pivot row, factors)`` of every elimination step, step k making row
    k the pivot row, with only the nonzero factors kept as ``(row,
    factor)`` pairs.  ``keep`` holds the sorted indices of a maximal
    independent row subset.  ``tableau`` is the read-only phase-1
    template ``[A_keep | I | 0]`` above its reduced costs
    ``[-A_keep.sum(axis=0) | 0 | 0]``.  The pivot choices read only A's
    columns, so one record serves every right-hand side.
    """
    a = np.frombuffer(data, dtype=float).reshape(shape)
    work = a.copy()
    m, n = shape
    order = list(range(m))
    steps = []
    rank = 0
    for col in range(n):
        if rank >= m:
            break
        piv = rank + int(np.argmax(np.abs(work[rank:, col])))
        if abs(work[piv, col]) <= _PIVOT_TOL:
            continue
        if piv != rank:
            work[[rank, piv]] = work[[piv, rank]]
            order[rank], order[piv] = order[piv], order[rank]
        factors = work[rank + 1 :, col] / work[rank, col]
        work[rank + 1 :] -= np.outer(factors, work[rank])
        pairs = enumerate(factors.tolist(), rank + 1)
        steps.append((piv, tuple((i, f) for i, f in pairs if f != 0.0)))
        rank += 1
    keep = np.array(sorted(order[:rank]), dtype=np.intp)
    a_keep = a[keep]
    tableau = np.zeros((rank + 1, n + rank + 1))
    tableau[:rank, :n] = a_keep
    tableau[:rank, n:-1] = np.eye(rank)
    tableau[rank, :n] = -a_keep.sum(axis=0)
    for array in (keep, tableau):
        array.setflags(write=False)
    return tuple(steps), keep, tableau


def _prepare(a, c):
    """Check and eliminate a read-only float64 A once, with its costs c, for :func:`solve_lp`.

    A solve on this A skips A's conversion and checks, and c's too when c
    is this very object; neither array may be written afterwards.
    """
    for array in (a, c):
        if array.dtype != np.float64 or array.flags.writeable or not np.isfinite(array).all():
            raise DomainError("a prepared program needs read-only, finite float64 arrays")
    if a.ndim != 2 or c.shape != a.shape[1:]:
        raise DomainError(f"shape mismatch: A is {a.shape}, c is {c.shape}")
    _PROGRAMS[id(a)] = (a, c, _eliminate.__wrapped__(a.shape, a.tobytes()))


def _consistent_record(a, b):
    """The elimination record of A, once b is checked consistent with it.

    Replays the elimination of A on b with the same elementwise
    operations, so b is reduced exactly as if it were a column of A.  A
    zero factor is skipped: with a finite pivot entry it would subtract
    a zero, whose sign the check below does not read.  Only a replay
    that overflows, with b near the largest float, makes that product
    NaN and so hides a contradictory row that the skip reports.  Raises
    InfeasibleError when elimination exposes a row 0 = beta with beta
    nonzero, i.e. the equality system is contradictory.
    """
    program = _PROGRAMS.get(id(a))
    record = _eliminate(a.shape, a.tobytes()) if program is None else program[2]
    steps, keep = record[:2]
    beta = b.tolist()
    for rank, (piv, factors) in enumerate(steps):
        if piv != rank:
            beta[rank], beta[piv] = beta[piv], beta[rank]
        top = beta[rank]
        for i, factor in factors:
            beta[i] -= factor * top
    for i in range(len(keep), len(beta)):
        if abs(beta[i]) > _FEAS_TOL:
            raise InfeasibleError(
                f"equality system is inconsistent (residual {beta[i]:.3e})"
            )
    return record


def _pivot(tableau, basis, leave, enter):
    row = tableau[leave]
    row /= row[enter]
    column = tableau[:, enter]
    touched = column != 0.0
    touched[leave] = False
    np.subtract(tableau, column[:, None] * row, out=tableau, where=touched[:, None])
    basis[leave] = enter


def _run_simplex(tableau, basis, ncols):
    """Bland-rule simplex loop on a canonical tableau, costs in its last row.

    ``ncols`` is the number of eligible entering columns (the rhs column
    and any columns beyond ncols never enter).  Returns the pivot count.
    """
    # Views: each pivot writes through them, so they stay current.
    costs = tableau[-1, :ncols]
    rhs = tableau[:-1, -1]
    iterations = 0
    while True:
        eligible = costs < -_PIVOT_TOL
        enter = int(eligible.argmax())
        if not eligible[enter]:
            return iterations
        leave, best = -1, np.inf
        values = rhs.tolist()
        for i, coef in enumerate(tableau[:-1, enter].tolist()):
            if coef > _PIVOT_TOL:
                ratio = values[i] / coef
                if ratio < best - 1e-12:
                    best, leave = ratio, i
                elif ratio <= best + 1e-12 and leave >= 0 and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            raise UnboundedError("objective is unbounded below on the feasible set")
        _pivot(tableau, basis, leave, enter)
        iterations += 1
        if iterations > _MAX_PIVOTS:
            raise ConsistencyError("simplex failed to terminate (cycling guard hit)")


def solve_lp(c, a, b) -> SimplexResult:
    """Minimize ``c.x`` over ``A x = b, x >= 0``.

    Two-phase method: phase 1 drives artificial variables to zero (a
    strictly positive phase-1 optimum means the program is infeasible),
    phase 2 optimizes the real objective in the same tableau, with
    artificials ejected and barred from entering.
    Entering variables are chosen by Bland's rule (smallest index with a
    reduced cost below -1e-10), leaving rows by minimum ratio with
    smallest-basis-index tie-breaking, which rules out cycling.

    Raises :class:`~signalbox.errors.DomainError` for mismatched shapes,
    or a NaN, infinite, complex or non-numeric entry in ``c``, ``A`` or ``b``.
    """
    program = _PROGRAMS.get(id(a))
    if program is None:
        c, a, b = map(_numeric_array, (c, a, b))
        if a.ndim != 2:
            raise DomainError(f"constraint matrix must be 2-d, got {a.ndim}-d")
        checked = ()
    else:  # a prepared A, and its own c, were converted and checked once
        checked = ("A", "c") if c is program[1] else ("A",)
        c, b = c if "c" in checked else _numeric_array(c), _numeric_array(b)
    m, n = a.shape
    if c.shape != (n,) or b.shape != (m,):
        raise DomainError(
            f"shape mismatch: A is {a.shape}, c is {c.shape}, b is {b.shape}"
        )
    # count_nonzero: .all() and .any() pay a Python-level wrapper per call.
    for name, values in (("c", c), ("A", a), ("b", b)):
        if name not in checked and np.count_nonzero(np.isfinite(values)) != values.size:
            raise DomainError(f"{name} has a non-finite entry")

    _, keep, template = _consistent_record(a, b)
    m = len(keep)
    if m == 0:
        # Every equation was vacuous; the origin is optimal for c >= 0.
        if np.all(c >= 0.0):
            return SimplexResult(np.zeros(n), 0.0, c.copy(), 0)
        raise UnboundedError("no constraints remain and the objective decreases")

    # Phase 1: [A | I | b] above its costs, the artificial identity basic
    # and each row with b < 0 negated (apart from its artificial column).
    tableau = template.copy()
    b = b[keep]
    flip = b < 0.0
    if np.count_nonzero(flip):
        a = a[keep]
        a[flip] *= -1.0
        b[flip] *= -1.0
        tableau[:m, :n] = a
        tableau[m, :n] = -a.sum(axis=0)
    tableau[:m, -1] = b
    tableau[m, -1] = -b.sum()
    basis = [n + i for i in range(m)]

    iterations = _run_simplex(tableau, basis, n + m)
    if -tableau[m, -1] > _FEAS_TOL:
        raise InfeasibleError(
            f"no nonnegative solution: phase-1 optimum {-tableau[m, -1]:.3e} > 0"
        )

    # Eject any artificial still basic at value zero.  After rank
    # reduction the real columns span every row, so a pivot always exists.
    # A pivot here may leave the cost row stale; phase 2 rebuilds it.
    for i in range(m):
        if basis[i] >= n:
            eligible = np.flatnonzero(np.abs(tableau[i, :n]) > _PIVOT_TOL)
            if eligible.size == 0:
                raise ConsistencyError(
                    "redundant row survived rank reduction; cannot eject artificial"
                )
            _pivot(tableau, basis, i, int(eligible[0]))
            iterations += 1

    # Phase 2, in the same array: rebuild the last row's reduced costs
    # for c, subtracting the rows c_B[i] * T[i] one after another.
    terms = np.zeros(tableau.shape)
    terms[0, :n] = c
    np.multiply(c[basis][:, None], tableau[:m], out=terms[1:])
    np.subtract.reduce(terms, axis=0, out=tableau[m])

    iterations += _run_simplex(tableau, basis, n)

    x = np.zeros(n)
    x[basis] = tableau[:m, -1]
    x[x < 0.0] = 0.0
    return _frozen_record(
        SimplexResult, (x, float(c @ x), tableau[m, :n].copy(), iterations)
    )
