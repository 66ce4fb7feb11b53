"""Dense two-phase primal simplex for small equality-form programs.

Solves ``minimize c.x subject to A x = b, x >= 0``.  The programs this
package generates are tiny (at most 17 rows before rank reduction and 32
columns), so a dense tableau with Bland's anti-cycling rule is both
simple and exactly reproducible, which matters because the solver serves
as an oracle in the test suite.  No external solver is involved.

Whatever depends on A alone is one :class:`_Program` per matrix: the
steps of a Gaussian elimination with partial pivoting, the rows it keeps
once redundant equalities are dropped, and a memo of whole solves rooted
at the phase-1 template.  A solve finds a prepared program
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

For the same reason a solve can skip its pivots.  After a sequence of
(leave, enter) pivots, the tableau apart from its rhs column depends on
that sequence alone, never on b, and Bland's entering column reads only
the cost row.  So b chooses the sequence through the leaving rows, and
the memo is one tree keyed by leaving row: phase 1's pivots, then, keyed
by the bytes of c, the pivots that eject artificials and phase 2's
pivots for that c.  A solve whose b has no negative entry walks it with
b as floats: the loop's ratio test picks each leaving row, and only the
rhs, phase 1's objective entry included, is updated, with the pivot's
own operations in its order.  A walk that reaches phase 2's optimum
reads x off the rhs, and the reduced costs and the dual off the node,
with no tableau pivot.  A node keeps only what the walk reads, the
entering column's nonzero entries, apart from the first 5 levels, which
keep their tableaux.  Where the walk leaves the tree, the solve copies
the deepest tableau on its path, replays the pivots below it, writes the
rhs in and runs the loop on, recording the nodes it reaches, with the
bits, the error and the pivot count of the loop run from the start.  A
negative entry negates its row, so that solve starts from a copy of the
template, and a program from the cache records nothing on its first
solve, so a matrix solved once builds no tree.  A memo holds at most
16384 nodes and 1024 tableaux, in each of 17 programs (the 16 cached and
the prepared catalog).  Over perfbench's ``decompose`` inputs (seed
3451) the catalog's memo held 1197 nodes, 147 with tableaux, after 120
operations, 1.46 MB by tracemalloc against 1.07 MB for a memo of phase
1's first 5 pivots alone; after 25000 it was full, with 400 tableaux, in
9.2 MB, about 0.4 KB a node beyond the tableaux.
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
# A program's memo holds at most this many nodes; those within this many
# pivots of the root keep their tableaux, at most this many of them.
_MEMO_NODES = 16384
_MEMO_DEPTH = 5
_MEMO_TABLEAUX = 1024
# id(A) -> (A, c, program) of each prepared A; holding A keeps its id unique.
_PROGRAMS = {}


@dataclass(frozen=True)
class SimplexResult:
    """Optimal point plus certificates.

    ``reduced_costs`` are the final phase-2 reduced costs; at an optimum
    every entry is >= -1e-10, which callers can use as an optimality
    certificate without re-running the solver.  ``dual`` holds one price
    per row of A, 0 on the rows dropped as redundant: ``A^T dual`` is c
    less the reduced costs, and ``dual . b`` the objective, up to
    rounding.  Both arrays are read-only.
    """

    x: np.ndarray
    objective: float
    reduced_costs: np.ndarray
    iterations: int
    dual: np.ndarray


class _Node:
    """A tableau reached from the phase-1 template by one sequence of pivots.

    ``enter`` is Bland's entering column there, -1 at its phase's optimum,
    and ``column`` that column's nonzero entries, costs included, as
    ``(row, float)`` pairs in row order, each pair shared with equal pairs
    of other nodes (a zero's sign is never read here).  ``children`` maps
    a leaving row to the node its pivot reaches; at phase 1's optimum it
    maps the bytes of a cost vector to phase 2's first tableau for it,
    whose ``eject`` holds the ``(row, enter, pivot entry, column)`` of the
    pivots that ejected artificials on the way.  At phase 2's optimum
    ``final`` holds the read-only reduced costs and dual.  Near the root
    the node keeps its read-only ``tableau``, with a zero rhs column, and
    ``basis``; elsewhere both are None.
    """

    __slots__ = ("enter", "column", "children", "tableau", "basis", "eject", "final")

    def __init__(self, tableau, basis, ncols, interned, snapshot):
        self.enter = _entering(tableau[-1, :ncols])
        self.column = None if self.enter < 0 else _sparse(tableau[:, self.enter], interned)
        self.children = {}
        self.tableau = self.basis = self.eject = self.final = None
        if snapshot:
            # A zero rhs stays zero, and finite, under any replayed pivot.
            self.tableau, self.basis = tableau.copy(), tuple(basis)
            self.tableau[:, -1] = 0.0
            self.tableau.setflags(write=False)


class _Program:
    """What every solve on one constraint matrix A shares, built from A alone.

    ``steps`` holds the ``(pivot row, factors)`` of every elimination
    step, step k making row k the pivot row, with only the nonzero
    factors kept as ``(row, factor)`` pairs.  ``keep`` holds the sorted
    indices of a maximal independent row subset.  Unless no row is kept,
    ``root`` is the memo's root: its tableau is the read-only phase-1
    template ``[A_keep | I | 0]`` above its reduced costs
    ``[-A_keep.sum(axis=0) | 0 | 0]``.  ``nodes`` and ``tableaux`` count
    the memo's nodes and the tableaux they keep.  ``warm`` says whether a
    solve records nodes: a prepared program from its first solve, a
    cached one from its second.
    """

    def __init__(self, a, warm=False):
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
        self.rows, self.ncols = m, n + rank
        # Equal (row, float) pairs and cost keys of the memo's nodes, shared.
        self.interned = {}
        a_keep = a[self.keep]
        tableau = np.zeros((rank + 1, self.ncols + 1))
        tableau[:rank, :n] = a_keep
        tableau[:rank, n:-1] = np.eye(rank)
        tableau[rank, :n] = -a_keep.sum(axis=0)
        # Without a kept row no solve pivots, and no column could enter.
        basis = range(n, self.ncols)
        self.root = _Node(tableau, basis, self.ncols, self.interned, True) if rank else None
        self.nodes = self.tableaux = 1
        self.warm = warm

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

    def walk(self, c, b):
        """Solve with the kept rows ``b`` of a b with no negative entry, walking the memo.

        The rhs is a float list, updated in place; ``basis`` follows the
        walk, and ``trail`` holds the keys taken below ``snap``, the
        deepest node on the path that keeps its tableau.  A cold program
        takes the loop from the template and records nothing.
        """
        m = len(b)
        values = b.tolist()
        # -b.sum() without ndarray.sum's Python wrapper: the same reduce.
        values.append(float(-np.add.reduce(b)))
        node, basis, iterations = self.root, list(self.root.basis), 0
        if not self.warm:
            self.warm = True
            tableau = node.tableau.copy()
            tableau[:, -1] = values
            return self.finish(c, tableau, basis)
        snap, trail, key, leave = node, [], None, -1
        while True:
            enter = node.enter
            if enter >= 0:
                leave, top = _leaving_row(node.column, values, basis)
                child = node.children.get(leave)
                if child is None:
                    break
                _rhs_pivot(values, node.column, leave, top)
                basis[leave] = enter
                iterations += 1
            elif key is None:  # phase 1's optimum
                if -values[m] > _FEAS_TOL:
                    raise InfeasibleError(
                        f"no nonnegative solution: phase-1 optimum {-values[m]:.3e} > 0"
                    )
                key = c.tobytes()
                child = node.children.get(key)
                if child is None:
                    leave = -1
                    break
                for row, enter, entry, column in child.eject:
                    _rhs_pivot(values, column, row, values[row] / entry)
                    basis[row] = enter
                iterations += len(child.eject)
                leave = key
            else:  # phase 2's optimum
                return _result(c, values[:m], basis, iterations, *node.final)
            if child.tableau is None:
                trail.append(leave)
            else:
                snap, trail = child, []
            node = child

        # Off the tree: the deepest kept tableau, the pivots below it replayed.
        tableau, replayed, at = snap.tableau.copy(), list(snap.basis), snap
        for step in trail:
            child = at.children[step]
            if at.enter >= 0:
                _pivot(tableau, replayed, step, at.enter)
            else:
                for row, enter, *_ in child.eject:
                    _pivot(tableau, replayed, row, enter)
                _phase2_costs(tableau, replayed, c, self.ncols - m)
            at = child
        tableau[:, -1] = values
        stage = 0 if key is None else 1 if node.enter < 0 else 2
        return self.finish(c, tableau, basis, stage, node, leave, iterations)

    def finish(self, c, tableau, basis, stage=0, node=None, leave=-1, iterations=0, flip=None):
        """Run the solve on in ``tableau`` from ``stage``, recording below ``node``.

        Stage 0 is phase 1, 1 the ejection of artificials at phase 1's
        optimum, 2 phase 2.  ``node`` is the memo's node of the tableau's
        state, or None to record nothing; ``leave`` the leaving row of a
        pivot already chosen there; ``iterations`` the pivots taken so far;
        ``flip`` the rows negated, for the dual.
        """
        m = len(basis)
        n = self.ncols - m
        if stage == 0:
            count, node = self.loop(tableau, basis, self.ncols, node, leave, iterations)
            iterations += count
            if -tableau[m, -1] > _FEAS_TOL:
                raise InfeasibleError(
                    f"no nonnegative solution: phase-1 optimum {-tableau[m, -1]:.3e} > 0"
                )
            leave = -1
        if stage < 2:
            # Eject any artificial still basic at value zero.  After rank
            # reduction the real columns span every row, so a pivot always
            # exists.  A pivot here may leave the cost row stale; phase 2
            # rebuilds it.
            eject = []
            for i in range(m):
                if basis[i] >= n:
                    eligible = np.flatnonzero(np.abs(tableau[i, :n]) > _PIVOT_TOL)
                    if eligible.size == 0:
                        raise ConsistencyError(
                            "redundant row survived rank reduction; cannot eject artificial"
                        )
                    enter = int(eligible[0])
                    if node is not None:
                        column = _sparse(tableau[:, enter], self.interned)
                        eject.append((i, enter, float(tableau[i, enter]), column))
                    _pivot(tableau, basis, i, enter)
                    iterations += 1
            _phase2_costs(tableau, basis, c, n)
            if node is not None:
                key = c.tobytes()
                key = self.interned.setdefault(key, key)
                node = self.grow(node, key, tableau, basis, n, iterations, tuple(eject))
        count, node = self.loop(tableau, basis, n, node, leave, iterations)
        iterations += count
        final = self.certificates(tableau, n, flip) if node is None else node.final
        return _result(c, tableau[:m, -1].tolist(), basis, iterations, *final)

    def certificates(self, tableau, n, flip=None):
        """The read-only reduced costs and dual at phase 2's optimum in ``tableau``.

        y = c_B B^-1 is minus the cost row over the artificial columns,
        where B^-1 stands; a row negated by ``flip`` negates its price.
        """
        m = len(self.keep)
        dual = -tableau[m, n:-1]
        if flip is not None:
            np.negative(dual, out=dual, where=flip)
        if m < self.rows:
            dual, prices = np.zeros(self.rows), dual
            dual[self.keep] = prices
        return _read_only(tableau[m, :n].copy(), dual)

    def loop(self, tableau, basis, ncols, node, leave, depth):
        """Bland-rule loop on a canonical tableau, costs in its last row.

        ``ncols`` is the number of eligible entering columns (the rhs
        column and any columns beyond ncols never enter).  Each tableau
        reached is recorded as a child of ``node``, at ``depth`` plus the
        pivots taken, while the memo has room; ``leave``, unless -1, is
        the first pivot's leaving row.  Returns the pivot count and the
        node of the optimum, or None.
        """
        # Views: each pivot writes through them, so they stay current.
        costs, rhs = tableau[-1, :ncols], tableau[:, -1]
        iterations = 0
        while True:
            enter = _entering(costs) if node is None else node.enter
            if enter < 0:
                return iterations, node
            if leave < 0:
                column = enumerate(tableau[:, enter].tolist()) if node is None else node.column
                leave = _leaving_row(column, rhs.tolist(), basis)[0]
                if leave < 0:
                    raise UnboundedError("objective is unbounded below on the feasible set")
            _pivot(tableau, basis, leave, enter)
            iterations += 1
            if iterations > _MAX_PIVOTS:
                raise ConsistencyError("simplex failed to terminate (cycling guard hit)")
            if node is not None:
                node = self.grow(node, leave, tableau, basis, ncols, depth + iterations)
            leave = -1

    def grow(self, parent, key, tableau, basis, ncols, depth, eject=None):
        """Record ``tableau``, reached by ``parent``'s pivot ``key``, as its child.

        ``eject`` holds the ejections taken on the way into phase 2.  The
        child is complete before ``parent`` holds it, its certificates
        included at phase 2's optimum.  Returns the child, or None once
        the memo holds ``_MEMO_NODES``.
        """
        if self.nodes >= _MEMO_NODES:
            return None
        snapshot = depth <= _MEMO_DEPTH and self.tableaux < _MEMO_TABLEAUX
        child = _Node(tableau, basis, ncols, self.interned, snapshot)
        child.eject = eject
        if child.enter < 0 and ncols < self.ncols:
            child.final = self.certificates(tableau, ncols)
        parent.children[key] = child
        self.nodes += 1
        self.tableaux += snapshot
        return child


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
    _PROGRAMS[id(a)] = (a, c, _Program(a, warm=True))


def _pivot(tableau, basis, leave, enter):
    row = tableau[leave]
    row /= row[enter]
    column = tableau[:, enter]
    touched = column != 0.0
    touched[leave] = False
    np.subtract(tableau, column[:, None] * row, out=tableau, where=touched[:, None])
    basis[leave] = enter


def _sparse(column, interned):
    """The nonzero entries of a tableau column as ``(row, float)`` pairs, equal pairs shared."""
    pairs = enumerate(column.tolist())
    return tuple(interned.setdefault(pair, pair) for pair in pairs if pair[1] != 0.0)


def _rhs_pivot(values, column, leave, top):
    """:func:`_pivot`'s operations on the rhs ``values``, a float list.

    ``top`` is the pivot row's entry divided by the pivot entry, and
    ``column`` the entering column's nonzero ``(row, float)`` pairs:
    subtract from each of their rows, then overwrite the pivot row's own
    result with the quotient.
    """
    for i, coef in column:
        values[i] -= coef * top
    values[leave] = top


def _phase2_costs(tableau, basis, c, n):
    """Rebuild the last row's reduced costs for c.

    Subtracts the rows ``c_B[i] * T[i]`` from ``[c | 0]`` one after another.
    """
    terms = np.zeros(tableau.shape)
    terms[0, :n] = c
    np.multiply(c[basis][:, None], tableau[:-1], out=terms[1:])
    np.subtract.reduce(terms, axis=0, out=tableau[-1])


def _entering(costs):
    """Bland's entering column: the first reduced cost below -1e-10, or -1 at an optimum."""
    eligible = costs < -_PIVOT_TOL
    enter = int(eligible.argmax())
    return enter if eligible[enter] else -1


def _leaving_row(column, values, basis):
    """Bland's leaving row and its ratio, or -1 when no entry of ``column`` exceeds 1e-10.

    ``column`` yields the entering column's ``(row, float)`` pairs; a
    zero entry may be left out.  The least ratio ``values[i] / coef``
    over the rows with ``coef > 1e-10``; ratios within 1e-12 of the least
    tie, and a tie goes to the row whose basic variable has the smaller
    index.  The entering column's cost entry is below -1e-10, so the cost
    row never leaves.
    """
    leave, best, top = -1, np.inf, np.inf
    for i, coef in column:
        if coef > _PIVOT_TOL:
            ratio = values[i] / coef
            if ratio < best - 1e-12:
                best = top = ratio
                leave = i
            elif ratio <= best + 1e-12 and leave >= 0 and basis[i] < basis[leave]:
                leave, top = i, ratio
    return leave, top


def _read_only(*arrays):
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _result(c, rhs, basis, iterations, reduced, dual):
    """The record of an optimum with basic values ``rhs``, a float list; a negative one is 0."""
    x = [0.0] * len(c)
    for j, value in zip(basis, rhs):
        x[j] = 0.0 if value < 0.0 else value
    x = np.array(x)
    return _frozen_record(SimplexResult, (x, float(c @ x), reduced, iterations, dual))


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
            reduced, dual = _read_only(c.copy(), np.zeros(len(b)))
            return SimplexResult(np.zeros(n), 0.0, reduced, 0, dual)
        raise UnboundedError("no constraints remain and the objective decreases")

    # Phase 1: [A | I | b] above its costs, the artificial identity basic.
    # With no row negated the solve walks its program's memo; a row with
    # b < 0 is negated (apart from its artificial column), and that solve
    # takes the loop from the start.
    b = b[keep]
    flip = b < 0.0
    if not np.count_nonzero(flip):
        return program.walk(c, b)
    tableau = program.root.tableau.copy()
    a = a[keep]
    a[flip] *= -1.0
    b[flip] *= -1.0
    tableau[:m, :n] = a
    tableau[m, :n] = -a.sum(axis=0)
    tableau[:m, -1] = b
    tableau[m, -1] = -b.sum()
    return program.finish(c, tableau, [n + i for i in range(m)], flip=flip)
