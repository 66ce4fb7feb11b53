"""Communication cost of a table and the signal-deficit verdict.

A table is "classical" when the signal it already carries pays for the
communication needed to simulate it with local strategies plus shared
randomness.  Three ingredients meet here:

* the disturbance cost, the unavoidable average weight any simulation
  must place on one-bit strategies (a function of the table's functional
  value alone),
* the signal actually present, measured either as channel information
  (:func:`signalbox.signaling.signal_info`) or as the largest marginal
  shift (:func:`signalbox.correlation.signaling_deltas`),
* a minimal-cost decomposition over the deterministic strategy catalog,
  found two independent ways: a closed-form weight assignment for the
  single-shift family, and a self-contained LP over any basis.

The deficit ``eta = C - S`` is zero exactly when the signal covers the
cost; a positive deficit certifies nonclassicality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .correlation import (
    FULL_BASIS,
    LOCAL_IDS,
    PLUS_LOCAL_IDS,
    STRATEGY_COSTS,
    STRATEGY_MATRIX,
    VIOLATING_IDS,
    _COLUMNS,
    _INPUT_SLACK,
    _STRATEGY_TABLES,
    Correlation,
    _check_real,
    _frozen_record,
    _table_terms,
    disturbance_cost,
    disturbance_from_functional,
    signaling_deltas,
    strategy_column,
    validate_tables,
)
from .errors import DomainError, InfeasibleError, PreconditionError
from .signaling import _best_channel

_RESIDUAL_TOL = 1e-9
_CLASSICAL_TOL = 1e-9
# Mixture weights below this are float noise and are dropped from results.
_WEIGHT_CUTOFF = 1e-12
# The closed form's sixteen strategies, one column each: the +2 locals,
# then the violating octet.  Each local reaches one table entry that no
# other of the sixteen reaches; _LOCAL_ENTRIES holds it, in local order.
_CLOSED_FORM_COLUMNS = STRATEGY_MATRIX[
    :, [strategy_column(ident) for ident in PLUS_LOCAL_IDS + VIOLATING_IDS]
]
_LOCAL_ENTRIES = tuple(
    int(np.flatnonzero((column == 1.0) & (_CLOSED_FORM_COLUMNS.sum(axis=1) == 1.0))[0])
    for column in _CLOSED_FORM_COLUMNS.T[: len(PLUS_LOCAL_IDS)]
)
# Table entries, then normalization; a basis's equalities select its columns.
_CATALOG_CONSTRAINTS = np.vstack([STRATEGY_MATRIX, np.ones((1, len(FULL_BASIS)))])
_CATALOG_CONSTRAINTS.setflags(write=False)
_STRATEGY_ROWS = _STRATEGY_TABLES.reshape(len(FULL_BASIS), -1)
_LOCALS = frozenset(LOCAL_IDS)


@functools.cache
def _solver():
    """The simplex module, loaded by the first priced table with the catalog program prepared."""
    from . import simplex

    simplex._prepare(_CATALOG_CONSTRAINTS, STRATEGY_COSTS)
    return simplex


@dataclass(frozen=True)
class Decomposition:
    """Mixture over catalog strategies reproducing a table.

    ``weights`` maps strategy id to probability (zeros omitted),
    ``cost`` is the total weight on one-bit strategies in bits, and
    ``residual`` the max-norm reconstruction error.
    """

    weights: dict
    cost: float
    residual: float


@dataclass(frozen=True)
class ClassificationReport:
    """Everything the signal-deficit criterion looks at.

    ``signal`` is the measure selected by the ``measure`` argument of
    :func:`classify`; both candidates are always carried alongside, with
    their separate verdicts, because they can genuinely disagree.
    """

    functional: float
    disturbance: float
    signal: float
    strength: float
    cost: float
    eta: float
    classical: bool
    signal_mutual_info: float
    signal_delta: float
    classical_by_mutual_info: bool
    classical_by_delta: bool
    alpha_star: float
    b_star: int
    measure: str


def verify_reconstruction(corr: Correlation, decomposition: Decomposition) -> float:
    """Max-norm error between a table and a weighted strategy sum.

    The weights are taken as given; they do not need to sum to one, so
    the function also measures deliberately wrong reconstructions.
    """
    return _max_residual(corr, decomposition.weights)


def _max_residual(corr: Correlation, weights: dict) -> float:
    try:
        rows = _STRATEGY_ROWS[[_COLUMNS[ident] for ident in weights]]
    except KeyError:  # strategy_column names the unknown id
        rows = _STRATEGY_ROWS[[strategy_column(ident) for ident in weights]]
    return _residual(corr, np.array(list(weights.values())), rows)


def _residual(corr: Correlation, values: np.ndarray, rows: np.ndarray) -> float:
    # Max-norm gap to ``values`` times the (k, 16) strategy rows.  A reduce
    # down axis 0 adds the stacked ``value * row`` one after another from
    # zero, bit for bit a loop of adds; a matrix product may move bits.
    weighted = values.reshape(-1, 1) * rows
    total = np.add.reduce(weighted, axis=0, initial=0.0)
    return float(np.abs(corr.p.ravel() - total).max())


def closed_form_decompose(corr: Correlation, sigma: float = 0.0) -> Decomposition:
    """Direct weight assignment for tables with one active marginal shift.

    Applies to tables whose only signaling channel is bob's b=0 marginal
    (the other three shifts vanish) with shift magnitude within the
    positivity window for the chosen ``sigma``.  The eight violating
    strategies receive

        symmetric six:  (cost - sigma) / 8
        imbalanced pair: (cost + 3 sigma) / 8 +/- shift / 2

    Each of the eight locals whose signed functional is +2 is the only
    one of these sixteen strategies that reaches one table entry, and
    takes that entry as its weight, so the locals do not depend on
    ``sigma``.  ``sigma`` moves weight between the symmetric and
    imbalanced assignments without changing the total cost; any value in
    ``[0, cost]`` yields the same cost and residual.

    Raises :class:`~signalbox.errors.PreconditionError` when several
    shifts are active or the shift exceeds the window, and
    :class:`~signalbox.errors.InfeasibleError` when the weights miss the
    table by more than 1e-9: the table is off the single-shift family.
    """
    # One read of the table gives the cost, the shifts and bob's marginals.
    functional, _, bob, to_bob, to_alice = _table_terms(corr._entries)
    cost = disturbance_from_functional(abs(functional))
    if not -_INPUT_SLACK <= _check_real(sigma, "sigma") <= cost + _INPUT_SLACK:
        raise DomainError(f"sigma {sigma} outside [0, {cost}]")
    sigma = min(max(sigma, 0.0), cost)

    side_shifts = (to_bob[1], to_alice[1], to_alice[0])
    if max(side_shifts) > 1e-9:
        raise PreconditionError(
            "closed form handles a single active shift (bob at b=0); "
            f"other channels shift by up to {max(side_shifts)}"
        )
    # Signed shift of bob's b=0 marginal when alice flips her setting.
    shift = bob[0][0] - bob[1][0]
    window = (cost + 3.0 * sigma) / 4.0
    if abs(shift) > window + _INPUT_SLACK:
        raise PreconditionError(
            f"shift {abs(shift)} exceeds the positivity window {window} "
            f"for sigma={sigma}"
        )

    weights = dict.fromkeys(VIOLATING_IDS, (cost - sigma) / 8.0)
    lifted = (cost + 3.0 * sigma) / 8.0
    # The window check keeps these above about -5e-13, half its slack.
    weights["signal_0_anb"] = max(0.0, lifted + shift / 2.0)
    weights["signal_1_canb"] = max(0.0, lifted - shift / 2.0)

    # No violating strategy reaches a local's entry, so the entry is its weight.
    for ident, k in zip(PLUS_LOCAL_IDS, _LOCAL_ENTRIES):
        weights[ident] = corr._entries[k]

    weights = {k: v for k, v in weights.items() if v > _WEIGHT_CUTOFF}
    one_bit = sum((v for k, v in weights.items() if k not in _LOCALS), 0.0)
    residual = _max_residual(corr, weights)
    if residual > _RESIDUAL_TOL:
        raise InfeasibleError(
            f"closed-form reconstruction misses the table by {residual}"
        )
    return _frozen_record(Decomposition, (weights, one_bit, residual))


def lp_min_cost(corr: Correlation, basis=None) -> Decomposition:
    """Minimal one-bit weight over a strategy basis, by linear program.

    Decision variables are the mixture weights over ``basis`` (the full
    32-strategy catalog by default).  The equalities pin every table
    entry plus normalization; the objective charges one bit per unit of
    weight on any non-local strategy.  Infeasibility means the table is
    outside the convex hull of the chosen basis; the consistency check
    also refuses a validated table whose setting-pair sums differ by
    more than 1e-9.
    """
    if isinstance(basis, str):
        raise DomainError(f"basis must be a collection of strategy ids, not {basis!r}")
    # By default the prepared catalog program itself, whose checks are done.
    ids, costs, constraints, rows = FULL_BASIS, STRATEGY_COSTS, _CATALOG_CONSTRAINTS, _STRATEGY_ROWS
    if basis is not None:
        ids = tuple(basis)
        if not ids:
            raise DomainError("basis must name at least one strategy")
        columns = [strategy_column(ident) for ident in ids]
        costs, constraints = STRATEGY_COSTS[columns], _CATALOG_CONSTRAINTS[:, columns]
        rows = _STRATEGY_ROWS[columns]
    # Looked up on the module per call, so a wrapper set on solve_lp is seen.
    solution = _solver().solve_lp(costs, constraints, corr._entries + (1.0,))
    # Bland's rule never lets a repeated id's later copy enter: kept ids are distinct.
    kept = (solution.x > _WEIGHT_CUTOFF).nonzero()[0]
    values = solution.x[kept]
    return _frozen_record(Decomposition, (
        dict(zip([ids[k] for k in kept.tolist()], values.tolist())),
        float(solution.objective),
        _residual(corr, values, rows.take(kept, axis=0)),
    ))


def communication_cost(corr: Correlation) -> float:
    """Lower bound on the bits needed to simulate the table.

    Returns ``max(disturbance_cost, largest marginal shift)``; both
    quantities are floors on the one-bit weight of any decomposition.
    The bound equals the minimal one-bit weight on three families:

    * mixtures of the +2 locals with the violating octet, where the
      disturbance cost is attained;
    * mixtures of all sixteen locals with one imbalanced pair and one
      aligned echo pair signaling in a single direction, when the
      dominant signed shift beats the weaker one by at least the
      disturbance cost, where the shift is attained;
    * the bob-shift mixtures that :func:`closed_form_decompose` handles.

    Elsewhere it can fall short: on random mixtures over the whole
    catalog, and on sequential qubit tables, a decomposition over every
    local and one-way one-bit strategy can need up to about a third of
    a bit more.
    """
    return max(disturbance_cost(corr), signaling_deltas(corr).max)


# The signal measures a verdict can use; the CLI offers the same choices.
_MEASURES = ("mutual_info", "delta")


def _check_measure(measure: str) -> None:
    if measure not in _MEASURES:
        raise DomainError(f"measure must be {' or '.join(map(repr, _MEASURES))}, got {measure!r}")


def classify(corr: Correlation, measure: str = "mutual_info") -> ClassificationReport:
    """Signal-deficit verdict for a table.

    ``measure`` selects which signal notion the verdict uses:
    ``"mutual_info"`` for the alice-to-bob channel information over both
    bob settings, ``"delta"`` for the largest marginal shift in any
    direction.  The report carries both measures and both verdicts
    regardless, because they can disagree on the same table.

    A table is classical when the deficit ``eta = C - S`` vanishes,
    i.e. when the observed signal pays for the disturbance cost.  The
    verdict kernel :func:`_verdict_row` runs on the entries the
    :class:`~signalbox.correlation.Correlation` already read.
    """
    _check_measure(measure)
    return _report(_verdict_row(corr._entries), measure)


def classify_batch(tables, measure: str = "mutual_info") -> list:
    """:func:`classify` of every table in an ``(N, 2, 2, 2, 2)`` array.

    Returns the N reports in order, each equal field for field to
    ``classify(Correlation(p), measure)``.  The tables are validated
    together, with the checks and error classes of
    :class:`~signalbox.correlation.Correlation`; an empty batch or a
    wrong shape raises :class:`~signalbox.errors.DomainError`.  The
    reports wrap the plain rows of :func:`_verdict_rows`.
    """
    _check_measure(measure)
    return [_report(row, measure) for row in _verdict_rows(validate_tables(tables))]


def _report(row: tuple, measure: str) -> ClassificationReport:
    """The report of one :func:`_verdict_row` under ``measure``."""
    lam, floor, info, alpha_star, b_star, strength, shift = row
    by_info, by_delta = _verdict(floor, info), _verdict(floor, shift)
    signal, (total, eta, classical) = (
        (info, by_info) if measure == "mutual_info" else (shift, by_delta)
    )
    return _frozen_record(ClassificationReport, (
        lam, floor, signal, strength, total, eta, classical, info, shift,
        by_info[2], by_delta[2], alpha_star, b_star, measure,
    ))


def _verdict_rows(tables: np.ndarray) -> list:
    """:func:`_verdict_row` of each validated table ``(N, 2, 2, 2, 2)``."""
    return list(map(_verdict_row, tables.reshape(len(tables), 16).tolist()))


def _verdict_row(t) -> tuple:
    """Verdict inputs of one validated table, given as its 16 entries in floats.

    One tuple, ``(lam, floor, info, alpha_star, b_star, strength,
    shift)``: a report's ``functional``, ``disturbance``,
    ``signal_mutual_info``, ``alpha_star``, ``b_star``, ``strength`` and
    ``signal_delta``.  :func:`~signalbox.correlation._table_terms`, the
    helper behind :func:`signed_functional`, :func:`signaling_deltas`
    and the signal measures of :mod:`signalbox.signaling`, gives its
    functional, marginals and shifts.
    The channel capacity is Python's ``math``, whose ``log1p`` and
    ``exp`` numpy does not match to the last bit.
    """
    functional, _, bob, (to_bob_0, to_bob_1), (to_alice_0, to_alice_1) = _table_terms(t)
    lam = abs(functional)
    # Each party's largest marginal shift over its own two settings.  The
    # shifts are finite and never -0.0, so a comparison gives numpy's max.
    strength = to_bob_0 if to_bob_0 >= to_bob_1 else to_bob_1
    to_alice = to_alice_0 if to_alice_0 >= to_alice_1 else to_alice_1
    shift = strength if strength >= to_alice else to_alice
    info, alpha_star, b_star = _best_channel(bob)
    return lam, disturbance_from_functional(lam), info, alpha_star, b_star, strength, shift


def _verdict(floor: float, signal: float):
    """``(C, eta, classical)`` for a disturbance cost and a signal."""
    total = max(floor, signal)
    eta = total - signal
    return total, eta, eta <= _CLASSICAL_TOL


def tsirelson_signal_box() -> Correlation:
    """Functional value 2*sqrt(2) with the saturating b=0 channel.

    The correlators match :func:`signalbox.quantum.tsirelson_box`, but
    the marginals are skewed so that bob's b=0 channel is exactly
    {1, 1/2}, the same channel the saturating measurement settings
    produce.  Under the channel-information measure the verdict is
    nonclassical with deficit (sqrt(2) - 1) - (log2(5) - 2); under the
    shift measure the shift of 1/2 covers the cost and the verdict flips
    to classical.  The two verdicts disagreeing is the point of the
    construction.
    """
    root = math.sqrt(2.0)
    hi = (2.0 + root) / 8.0
    lo = (2.0 - root) / 8.0
    p = np.empty((2, 2, 2, 2))
    # a=0, b=0: bob answers 0 with certainty, alice is biased.
    p[0, 0] = np.array([[2.0 * hi, 0.0], [2.0 * lo, 0.0]])
    # a=1, b=0: uniform marginals, anticorrelated pattern.
    p[1, 0] = np.array([[lo, hi], [hi, lo]])
    # b=1: uniform marginals, correlated pattern, no shift.
    p[0, 1] = np.array([[hi, lo], [lo, hi]])
    p[1, 1] = np.array([[hi, lo], [lo, hi]])
    return Correlation(p)


def _sig12(value: float) -> float:
    return float(f"{value:.12g}")


def decomposition_json_dict(decomposition: Decomposition) -> dict:
    """JSON payload with weights keyed by strategy id, 12 digits."""
    return {
        "weights": {
            ident: _sig12(w) for ident, w in sorted(decomposition.weights.items())
        },
        "cost": _sig12(decomposition.cost),
        "residual": _sig12(decomposition.residual),
    }


def report_json_dict(report: ClassificationReport) -> dict:
    """JSON payload for a classification report, 12 digits."""
    return {
        "lambda": _sig12(report.functional),
        "c_lambda": _sig12(report.disturbance),
        "S": _sig12(report.signal),
        "s": _sig12(report.strength),
        "C": _sig12(report.cost),
        "eta": _sig12(report.eta),
        "classical": report.classical,
        "S_mutual_info": _sig12(report.signal_mutual_info),
        "S_delta": _sig12(report.signal_delta),
        "classical_mutual_info": report.classical_by_mutual_info,
        "classical_delta": report.classical_by_delta,
        "alpha_star": _sig12(report.alpha_star),
        "b_star": report.b_star,
        "measure": report.measure,
    }
