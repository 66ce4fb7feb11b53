"""Independent reference values for the benchmark's correctness check.

Nothing here calls into signalbox's numerics.  The strategy basis is
taken from the catalog's rule tables (the definition of the basis, not a
computation), and everything else is recomputed with numpy, or with
scipy's HiGHS solver for the linear programs:

* functional, disturbance cost and marginal shifts straight from the
  table entries;
* channel capacity by a dense ``channel_mutual_info`` grid that is
  refined around its best point (the objective is concave in the prior,
  so the maximum stays inside the bracket of the best grid point);
* sequential-qubit tables by the measurement-update formula
  ``p = (1 + u a.r)(1 + u v a.b) / 4``, and the Holevo quantity from
  Bloch-vector lengths;
* LP feasibility and minimum one-bit cost by HiGHS on the same
  32-column basis.
"""

from __future__ import annotations

import math

import numpy as np

# Grid refinement for the concave one-dimensional maximisations: each
# round evaluates GRID_POINTS points and keeps the two cells around the
# best, shrinking the bracket by (GRID_POINTS - 1) / 2 per round.
GRID_POINTS = 41
GRID_ROUNDS = 9

SIGNS = np.array([1.0, -1.0])
FUNCTIONAL_SIGNS = np.array([[1.0, 1.0], [-1.0, 1.0]])


def strategy_basis(sb):
    """(17, 32) equality matrix and one-bit cost vector of FULL_BASIS."""
    ids = sb.FULL_BASIS
    columns = np.zeros((16, len(ids)))
    cost = np.zeros(len(ids))
    for j, ident in enumerate(ids):
        strategy = sb.catalog(ident)
        p = np.zeros((2, 2, 2, 2))
        for a in (0, 1):
            for b in (0, 1):
                p[a, b, strategy.x_rule[a][b], strategy.y_rule[a][b]] = 1.0
        columns[:, j] = p.ravel()
        cost[j] = 0.0 if strategy.kind is sb.StrategyKind.LOCAL else 1.0
    return ids, columns, cost


def functional(p):
    """|E00 + E01 - E10 + E11| for one table or a stack of tables."""
    corr = np.einsum("...abxy,x,y->...ab", p, SIGNS, SIGNS)
    return np.abs(np.sum(FUNCTIONAL_SIGNS * corr, axis=(-2, -1)))


def bob_channels(p):
    """P(y=0 | a, b) as (..., b, a): the alice-to-bob channel per b."""
    py0 = p[..., :, :, :, 0].sum(axis=-1)  # (..., a, b)
    return np.swapaxes(py0, -1, -2)


def shifts(p):
    """The four marginal shifts (bob b=0, bob b=1, alice a=1, alice a=0)."""
    bob = bob_channels(p)
    px0 = p[..., :, :, 0, :].sum(axis=-1)  # P(x=0 | a, b) as (..., a, b)
    return np.stack(
        [
            np.abs(bob[..., 0, 0] - bob[..., 0, 1]),
            np.abs(bob[..., 1, 0] - bob[..., 1, 1]),
            np.abs(px0[..., 1, 0] - px0[..., 1, 1]),
            np.abs(px0[..., 0, 0] - px0[..., 0, 1]),
        ],
        axis=-1,
    )


def h2(q):
    """Binary entropy in bits, elementwise, with 0 log 0 = 0."""
    q = np.clip(q, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)
    return np.where((q > 0.0) & (q < 1.0), terms, 0.0)


def maximize_concave(fn, shape):
    """Maximise a concave fn(alpha) over [0, 1] for a batch of problems.

    ``fn`` maps an alpha array of shape ``shape + (k,)`` to values of the
    same shape.  Returns ``(alpha, value)`` arrays of shape ``shape``.
    """
    lo = np.zeros(shape)
    hi = np.ones(shape)
    steps = np.linspace(0.0, 1.0, GRID_POINTS)
    for _ in range(GRID_ROUNDS):
        grid = lo[..., None] + (hi - lo)[..., None] * steps
        best = np.argmax(fn(grid), axis=-1)
        width = (hi - lo) / (GRID_POINTS - 1)
        centre = np.take_along_axis(grid, best[..., None], axis=-1)[..., 0]
        lo = np.maximum(0.0, centre - width)
        hi = np.minimum(1.0, centre + width)
    grid = lo[..., None] + (hi - lo)[..., None] * steps
    values = fn(grid)
    best = np.argmax(values, axis=-1)
    pick = best[..., None]
    return (
        np.take_along_axis(grid, pick, axis=-1)[..., 0],
        np.take_along_axis(values, pick, axis=-1)[..., 0],
    )


def capacity(p0, p1):
    """Capacity and optimal prior of binary channels with P(y=0) = p0, p1."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)

    def mi(alpha):
        a0, a1 = p0[..., None], p1[..., None]
        return h2(alpha * a0 + (1.0 - alpha) * a1) - alpha * h2(a0) - (1.0 - alpha) * h2(a1)

    return maximize_concave(mi, p0.shape)


def classify_reference(tables):
    """Reference fields of ``classify`` for a stack of tables (N, 2,2,2,2).

    Returns a dict of arrays: functional, disturbance, S_mi (with the
    per-channel infos and priors), strength (bob shifts) and S_delta.
    """
    tables = np.asarray(tables, dtype=float)
    lam = functional(tables)
    bob = bob_channels(tables)
    alpha, info = capacity(bob[..., 0], bob[..., 1])  # (N, b)
    delta = shifts(tables)
    return {
        "functional": lam,
        "disturbance": np.maximum(0.0, lam / 2.0 - 1.0),
        "info_b": info,
        "alpha_b": alpha,
        "S_mutual_info": info.max(axis=-1),
        "strength": delta[..., :2].max(axis=-1),
        "S_delta": delta.max(axis=-1),
    }


def xz_direction(phi):
    return np.array([math.sin(phi), 0.0, math.cos(phi)])


def sequential_table(r, a0, a1, b0, b1):
    """Sequential-measurement table from Bloch vectors, by the update rule.

    Alice's outcome u = +/-1 comes with probability (1 + u a.r)/2 and
    leaves the qubit along u a; bob then sees v with probability
    (1 + v u a.b)/2.
    """
    p = np.empty((2, 2, 2, 2))
    for ia, av in enumerate((a0, a1)):
        for ib, bv in enumerate((b0, b1)):
            for x, u in enumerate(SIGNS):
                for y, v in enumerate(SIGNS):
                    p[ia, ib, x, y] = (1.0 + u * (av @ r)) * (1.0 + u * v * (av @ bv)) / 4.0
    return p


def holevo(alpha, r0, r1):
    """chi of the ensemble {alpha: r0, 1 - alpha: r1} of Bloch vectors.

    A qubit with Bloch vector r has entropy h2((1 + |r|) / 2).
    """
    alpha = np.asarray(alpha, dtype=float)
    blend = alpha[..., None] * r0 + (1.0 - alpha[..., None]) * r1
    entropy = [h2((1.0 + np.linalg.norm(v, axis=-1)) / 2.0) for v in (blend, r0, r1)]
    return entropy[0] - alpha * entropy[1] - (1.0 - alpha) * entropy[2]


def holevo_max(r0, r1):
    """Max of ``holevo`` over the weight, and the weight attaining it."""
    alpha, value = maximize_concave(lambda a: holevo(a, r0, r1), ())
    return float(alpha), float(value)


def theta_instance(theta):
    """Geometry of the angle sweep: (r, a0, a1, b0, b1) as Bloch vectors."""
    b0, a0 = xz_direction(0.0), xz_direction(theta)
    b1, a1 = xz_direction(2.0 * theta), xz_direction(3.0 * theta)
    return a1, a0, a1, b0, b1


def sweep_row(theta):
    """Reference row of ``theta_sweep`` at one angle, as a dict."""
    r, a0, a1, b0, b1 = theta_instance(theta)
    table = sequential_table(r, a0, a1, b0, b1)
    ref = classify_reference(table[None])
    lam = float(ref["functional"][0])
    cost = float(ref["disturbance"][0])
    info = float(ref["S_mutual_info"][0])
    # An unread measurement along n projects the Bloch vector onto n.
    _, chi = holevo_max((a0 @ r) * a0, (a1 @ r) * a1)
    return {
        "theta": float(theta),
        "functional": lam,
        "functional_norm": lam / 2.0,
        "restricted_info": info,
        "disturbance": cost,
        "holevo_info": chi,
        "classical": info >= cost,
    }


def crossover_gap(theta):
    row = sweep_row(theta)
    return row["restricted_info"] - row["disturbance"]


def crossover_angle(lo=0.9, hi=1.2, tol=1e-13):
    """The single sign change of info - cost on (0, pi/2), by bisection."""
    g_lo = crossover_gap(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g_mid = crossover_gap(mid)
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# The reference calls a table infeasible when its L1 gap to the hull
# exceeds INFEASIBLE_GAP and feasible below AMBIGUOUS_GAP.  In between,
# the program's own 1e-9 phase-1 threshold may go either way, so the
# feasibility verdict is not compared there.
INFEASIBLE_GAP = 1e-7
AMBIGUOUS_GAP = 1e-10
# HiGHS's default 1e-7 feasibility tolerances leave optimal costs off by
# up to about 2e-7 on these programs; 1e-10 brings them within 1e-15 of
# the exact optimum.
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class LPReference:
    """HiGHS minimum one-bit cost over FULL_BASIS, and an infeasibility gauge.

    Tables are solved in chunks as one block-diagonal program per chunk:
    the blocks share no variable, so the joint optimum is optimal in every
    block, and one HiGHS call replaces many small ones.
    """

    CHUNK = 50

    def __init__(self, sb):
        from scipy import sparse
        from scipy.optimize import linprog

        self._sparse = sparse
        self._linprog = linprog
        self.ids, self.columns, self.cost = strategy_basis(sb)
        self.a_eq = np.vstack([self.columns, np.ones((1, self.columns.shape[1]))])
        m, n = self.a_eq.shape
        self._gap_a = np.hstack([self.a_eq, np.eye(m), -np.eye(m)])
        self._gap_c = np.concatenate([np.zeros(n), np.ones(2 * m)])

    def _blocks(self, block, c, tables):
        """Solve one program per table at once; returns the x of each block."""
        k = len(tables)
        rhs = np.concatenate([np.concatenate([np.ravel(t), [1.0]]) for t in tables])
        res = self._linprog(
            np.tile(c, k),
            A_eq=self._sparse.kron(self._sparse.identity(k, format="csr"), self._sparse.csr_matrix(block), format="csr"),
            b_eq=rhs,
            bounds=(0, None),
            method="highs",
            options=HIGHS_OPTIONS,
        )
        if res.status != 0:
            raise RuntimeError(f"HiGHS failed on a chunk of {k} tables: {res.message}")
        return res.x.reshape(k, -1)

    def solve(self, tables, known_feasible):
        """``(verdict, cost)`` per table, verdict feasible/infeasible/ambiguous.

        ``known_feasible`` flags tables generated as mixtures of basis
        strategies, which are feasible by construction and skip the gauge.
        """
        out = [None] * len(tables)
        gauge = [i for i in range(len(tables)) if not known_feasible[i]]
        for lo in range(0, len(gauge), self.CHUNK):
            chunk = gauge[lo : lo + self.CHUNK]
            x = self._blocks(self._gap_a, self._gap_c, [tables[i] for i in chunk])
            for i, gap in zip(chunk, x @ self._gap_c):
                if gap > INFEASIBLE_GAP:
                    out[i] = ("infeasible", math.nan)
                elif gap > AMBIGUOUS_GAP:
                    out[i] = ("ambiguous", math.nan)
        feasible = [i for i in range(len(tables)) if out[i] is None]
        for lo in range(0, len(feasible), self.CHUNK):
            chunk = feasible[lo : lo + self.CHUNK]
            x = self._blocks(self.a_eq, self.cost, [tables[i] for i in chunk])
            for i, cost in zip(chunk, x @ self.cost):
                out[i] = ("feasible", float(cost))
        return out

    def reconstruction_error(self, weights, table):
        """Max-norm error of a weight dict against the table."""
        w = np.array([weights.get(ident, 0.0) for ident in self.ids])
        return float(np.max(np.abs(self.columns @ w - np.ravel(table))))

    def one_bit_weight(self, weights):
        return float(sum(weights.get(i, 0.0) * c for i, c in zip(self.ids, self.cost)))
