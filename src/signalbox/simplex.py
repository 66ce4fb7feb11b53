"""Dense two-phase primal simplex for small equality-form programs.

Solves ``minimize c.x subject to A x = b, x >= 0``.  The programs this
package generates are tiny (at most 17 rows before rank reduction and 32
columns), so a dense tableau with Bland's anti-cycling rule is both
simple and exactly reproducible, which matters because the solver serves
as an oracle in the test suite.  No external solver is involved.

Whatever depends on A alone is one :class:`_Program` per matrix: the
steps of a Gaussian elimination with partial pivoting, the rows it keeps
once redundant equalities are dropped, and a memo of phase 1's opening
pivots rooted at the phase-1 template.  A solve finds a prepared program
(:func:`_prepare`) by A's identity, any other in a cache of 16 keyed by
A's bytes.  Replaying the steps on b, zero factors skipped, raises
:class:`~signalbox.errors.InfeasibleError` for an inconsistent system
before any pivot.  The reduced costs are the tableau's last row, so
each pivot updates every touched row, costs included, in one masked
operation, element by element exactly as a loop over the rows would.
Every result is bit-identical to eliminating ``[A | b]`` and building
the tableau afresh with a separate cost row: a Bland pivot's entering
cost is nonzero, so it updates the cost row, and a pivot that ejects an
artificial may skip it: by then phase 1's objective has been read, and
phase 2 rebuilds the costs.  Phase 2 runs in the same array, its
artificial columns barred from entering; a pivot updates each column on
its own, so the bits hold.

For the same reason a solve can start phase 1 past its first pivots.
After a sequence of (leave, enter) pivots, the tableau apart from its
rhs column depends on that sequence alone, never on b, and Bland's
entering column reads only the cost row.  So b chooses the sequence
through the leaving rows, and the memo is a tree of the tableaux those
pivots reach, keyed by leaving row, at most 5 deep.  A solve whose b has
no negative entry walks it with b as floats: the simplex loop's ratio
test picks each leaving row, and only the rhs, phase 1's objective entry
included, is updated, with the pivot's own operations in its order.
Where the walk stops, the solve copies that node's tableau, writes the
rhs in and runs the loop on, with the bits and the pivot count of the
loop run from the start.  A negative entry negates its row, so that
solve starts from a copy of the template instead.  The memos hold at
most 1024 tableaux in each of 17 programs (the 16 cached and the
prepared catalog); the 24-column basis ``LOCAL_IDS + VIOLATING_IDS``
filled 419 over 25000 mixtures, 2.2 MB by tracemalloc.
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
# A program's memo records phase 1's first pivots down to this depth, in
# at most this many tableaux.
_MEMO_DEPTH = 5
_MEMO_NODES = 1024
# id(A) -> (A, c, program) of each prepared A; holding A keeps its id unique.
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


class _Node:
    """A phase-1 tableau reached from the start by one sequence of pivots.

    Its rhs column is not read.  ``enter`` is Bland's entering column
    there (-1 at a phase-1 optimum) and ``column`` that column as
    floats, costs included; ``children`` maps a leaving row to the node
    its pivot reaches.
    """

    __slots__ = ("tableau", "basis", "enter", "column", "children")

    def __init__(self, tableau, basis, ncols):
        tableau.setflags(write=False)
        self.tableau, self.basis = tableau, tuple(basis)
        self.enter = _entering(tableau[-1, :ncols])
        self.column = tableau[:, self.enter].tolist() if self.enter >= 0 else None
        self.children = {}


class _Program:
    """What every solve on one constraint matrix A shares, built from A alone.

    ``steps`` holds the ``(pivot row, factors)`` of every elimination
    step, step k making row k the pivot row, with only the nonzero
    factors kept as ``(row, factor)`` pairs.  ``keep`` holds the sorted
    indices of a maximal independent row subset.  Unless no row is kept,
    ``root`` is the memo's root: its tableau is the read-only phase-1
    template ``[A_keep | I | 0]`` above its reduced costs
    ``[-A_keep.sum(axis=0) | 0 | 0]``.  ``nodes`` counts the memo's tableaux.
    """

    def __init__(self, a):
        work = a.copy()
        m, n = a.shape
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
        self.steps, self.keep = tuple(steps), np.array(sorted(order[:rank]), dtype=np.intp)
        self.keep.setflags(write=False)
        self.ncols = n + rank
        a_keep = a[self.keep]
        tableau = np.zeros((rank + 1, self.ncols + 1))
        tableau[:rank, :n] = a_keep
        tableau[:rank, n:-1] = np.eye(rank)
        tableau[rank, :n] = -a_keep.sum(axis=0)
        # Without a kept row no solve pivots, and no column could enter.
        self.root = _Node(tableau, range(n, self.ncols), self.ncols) if rank else None
        self.nodes = 1

    def check(self, b):
        """Raise InfeasibleError unless b is consistent with A.

        Replays the elimination on b with the same elementwise operations,
        so b is reduced exactly as if it were a column of A, and refuses a
        dependent row left at |beta| > 1e-9.  A zero factor is skipped:
        with a finite pivot entry it would subtract a zero, whose sign the
        check does not read.  Only a replay that overflows, with b near the
        largest float, makes that product NaN and so hides a contradictory
        row that the skip reports.
        """
        beta = b.tolist()
        for rank, (piv, factors) in enumerate(self.steps):
            if piv != rank:
                beta[rank], beta[piv] = beta[piv], beta[rank]
            top = beta[rank]
            for i, factor in factors:
                beta[i] -= factor * top
        for i in range(len(self.keep), len(beta)):
            if abs(beta[i]) > _FEAS_TOL:
                raise InfeasibleError(
                    f"equality system is inconsistent (residual {beta[i]:.3e})"
                )

    def start(self, values):
        """Phase 1 after the memo's pivots from the start on rhs ``values``, a float list.

        ``values`` holds the kept rows of b, with no negative entry, so
        that no row is negated, then the phase-1 objective entry; it is
        updated in place.  Returns the tableau, its basis and the pivot
        count, as :func:`_run_simplex` would have left them after that
        many pivots.  A missing child below the depth and node bounds is
        recorded on the way.
        """
        node, depth = self.root, 0
        while depth < _MEMO_DEPTH and node.enter >= 0:
            # The column ends with the entering cost, below -1e-10, which
            # the ratio test passes over.
            column = node.column
            leave = _leaving_row(column, values, node.basis)
            child = node.children.get(leave)
            if child is None:
                if leave < 0 or self.nodes >= _MEMO_NODES:
                    break
                tableau, basis = node.tableau.copy(), list(node.basis)
                _pivot(tableau, basis, leave, node.enter)
                child = node.children[leave] = _Node(tableau, basis, self.ncols)
                self.nodes += 1
            # _pivot's operations on the rhs: divide the pivot row's entry,
            # subtract from each row whose column entry is nonzero, then
            # overwrite the pivot row's own result with the quotient.
            top = values[leave] / column[leave]
            for i, coef in enumerate(column):
                if coef != 0.0:
                    values[i] -= coef * top
            values[leave] = top
            node, depth = child, depth + 1
        tableau = node.tableau.copy()
        tableau[:, -1] = values
        return tableau, list(node.basis), depth


@functools.lru_cache(maxsize=16)
def _cached_program(shape, data):
    """The :class:`_Program` of the A with this shape and these C-order bytes."""
    return _Program(np.frombuffer(data, dtype=float).reshape(shape))


def _prepare(a, c):
    """Check a read-only float64 A once, with its costs c, and pin its program by A's identity.

    A solve on this A skips A's conversion and checks, and c's too when c
    is this very object; neither array may be written afterwards.
    """
    for array in (a, c):
        if array.dtype != np.float64 or array.flags.writeable or not np.isfinite(array).all():
            raise DomainError("a prepared program needs read-only, finite float64 arrays")
    if a.ndim != 2 or c.shape != a.shape[1:]:
        raise DomainError(f"shape mismatch: A is {a.shape}, c is {c.shape}")
    _PROGRAMS[id(a)] = (a, c, _Program(a))


def _pivot(tableau, basis, leave, enter):
    row = tableau[leave]
    row /= row[enter]
    column = tableau[:, enter]
    touched = column != 0.0
    touched[leave] = False
    np.subtract(tableau, column[:, None] * row, out=tableau, where=touched[:, None])
    basis[leave] = enter


def _entering(costs):
    """Bland's entering column: the first reduced cost below -1e-10, or -1 at an optimum."""
    eligible = costs < -_PIVOT_TOL
    enter = int(eligible.argmax())
    return enter if eligible[enter] else -1


def _leaving_row(column, values, basis):
    """Bland's leaving row, or -1 when no entry of ``column`` exceeds 1e-10.

    The least ratio ``values[i] / column[i]`` over the rows with
    ``column[i] > 1e-10``; ratios within 1e-12 of the least tie, and a
    tie goes to the row whose basic variable has the smaller index.
    """
    leave, best = -1, np.inf
    for i, coef in enumerate(column):
        if coef > _PIVOT_TOL:
            ratio = values[i] / coef
            if ratio < best - 1e-12:
                best, leave = ratio, i
            elif ratio <= best + 1e-12 and leave >= 0 and basis[i] < basis[leave]:
                leave = i
    return leave


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
        enter = _entering(costs)
        if enter < 0:
            return iterations
        leave = _leaving_row(tableau[:-1, enter].tolist(), rhs.tolist(), basis)
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
    prepared = _PROGRAMS.get(id(a))
    if prepared is None:
        c, a, b = map(_numeric_array, (c, a, b))
        if a.ndim != 2:
            raise DomainError(f"constraint matrix must be 2-d, got {a.ndim}-d")
        checked = ()
    else:  # a prepared A, and its own c, were converted and checked once
        checked = ("A", "c") if c is prepared[1] else ("A",)
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

    program = _cached_program(a.shape, a.tobytes()) if prepared is None else prepared[2]
    program.check(b)
    keep = program.keep
    m = len(keep)
    if m == 0:
        # Every equation was vacuous; the origin is optimal for c >= 0.
        if np.all(c >= 0.0):
            return SimplexResult(np.zeros(n), 0.0, c.copy(), 0)
        raise UnboundedError("no constraints remain and the objective decreases")

    # Phase 1: [A | I | b] above its costs, the artificial identity basic
    # and each row with b < 0 negated (apart from its artificial column).
    # With no row negated the solve starts past its memo's pivots.
    b = b[keep]
    flip = b < 0.0
    if np.count_nonzero(flip):
        tableau = program.root.tableau.copy()
        a = a[keep]
        a[flip] *= -1.0
        b[flip] *= -1.0
        tableau[:m, :n] = a
        tableau[m, :n] = -a.sum(axis=0)
        tableau[:m, -1] = b
        tableau[m, -1] = -b.sum()
        basis, iterations = [n + i for i in range(m)], 0
    else:
        tableau, basis, iterations = program.start(b.tolist() + [float(-b.sum())])

    iterations += _run_simplex(tableau, basis, n + m)
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
