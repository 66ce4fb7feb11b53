"""Two-setting, two-outcome bipartite correlation tables.

A correlation is stored as a rank-4 array ``p[a][b][x][y]``: the joint
probability that the first party (alice) sees outcome label ``x`` and the
second party (bob) sees outcome label ``y``, given settings ``a`` and ``b``.
Settings and outcome labels are both in {0, 1}.  An outcome label ``l``
corresponds to the measurement value ``(-1) ** l``, so label 0 is the +1
outcome.

The figure of merit throughout is the four-correlator combination

    E(0,0) + E(0,1) - E(1,0) + E(1,1)

whose absolute value is at most 2 for any mixture of local deterministic
strategies and reaches 4 on the box returned by :func:`pr_box`.

The module also ships a catalog of deterministic strategies.  An id
``local_<xt>_<yt>`` or ``signal_<xt>_<yt>`` names alice's rule ``xt`` and
bob's rule ``yt``; a local rule reads only its own setting.  A rule's
name is its entry in ``_RULE_NAMES``, indexed by its 4-bit truth table:
``0``, ``1``, a setting ``a``/``b`` or its negation ``na``/``nb``, the
conjunctions ``ab``, ``anb``, ``nab``, ``nanb`` (``a AND (NOT b)`` and so
on) and, with a ``c`` prefix, their complements.  The two parity rules
have no name.  An x-rule that reads ``b`` signals toward alice, a y-rule
that reads ``a`` toward bob.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NegativeProbabilityError,
    NormalizationError,
    UnknownStrategyError,
    WeightError,
)

NORMALIZATION_TOL = 1e-9
NEGATIVITY_TOL = 1e-9
TABLE_SHAPE = (2, 2, 2, 2)

# Value of outcome label l is (-1) ** l.
OUTCOME_VALUES = np.array([1.0, -1.0])
_FLOAT64 = np.dtype(float)


@dataclass(frozen=True, eq=False)
class Correlation:
    """Validated joint outcome table ``p[a][b][x][y]``.

    The wrapped array is coerced to float64, checked for shape, NaN
    entries, negativity and per-setting normalization, and frozen
    read-only.  The caller's data is copied, never written.
    Entries in ``[-1e-9, 0)`` are treated as rounding noise and clamped
    to zero; anything more negative raises
    :class:`~signalbox.errors.NegativeProbabilityError`.  The entry
    checks are those :func:`validate_tables` runs on a batch, with the
    same errors and messages, and input that is not numeric raises
    :class:`~signalbox.errors.DomainError` in both.  The 16 checked
    entries are kept as a tuple of floats, ``_entries``, in
    ``p[a][b][x][y]`` order, so the kernels read the table once.
    """

    p: np.ndarray

    def __post_init__(self) -> None:
        arr = _numeric_array(self.p)
        if arr.shape != TABLE_SHAPE:
            raise DomainError(
                f"correlation table must have shape (2, 2, 2, 2), got {arr.shape}"
            )
        object.__setattr__(self, "_entries", _check_table(arr))
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    def expectation(self, a: int, b: int) -> float:
        """Correlator E(a, b) of the two outcome values at one setting pair."""
        cell = self.p[_check_bit(a), _check_bit(b)]
        return float(np.einsum("xy,x,y->", cell, OUTCOME_VALUES, OUTCOME_VALUES))


def _check_entries(arr: np.ndarray) -> None:
    """NaN, negativity and normalization checks of a batch ``(N, 2, 2, 2, 2)``.

    Clamps entries in ``[-1e-9, 0)`` to zero in place.  One table takes
    :func:`_check_table`, with the same checks and messages.
    """
    # NaN propagates through min(), and infinities fail the checks below.
    low = float(arr.min())
    if math.isnan(low):
        raise DomainError("correlation table has a NaN entry")
    if low < -NEGATIVITY_TOL:
        raise NegativeProbabilityError(
            f"probability entry {low} is negative beyond tolerance"
        )
    if low < 0.0:
        arr[arr < 0.0] = 0.0
    with np.errstate(over="ignore"):  # an inf sum fails below, as in _check_table
        worst = float(np.abs(arr.sum(axis=(-2, -1)) - 1.0).max())
    if worst > NORMALIZATION_TOL:
        raise NormalizationError(
            f"per-setting outcome sums deviate from 1 by {worst}"
        )


def _check_table(arr: np.ndarray) -> tuple:
    """:func:`_check_entries` of one ``(2, 2, 2, 2)`` table, over its 16 floats.

    The same checks in the same order, with the same errors, messages and
    clamp, in plain float arithmetic instead of five numpy reductions on
    a 16-entry array.  A setting pair's sum is ``(((0.0 + p0) + p1) + p2)
    + p3``, the order of numpy's ``sum(axis=(-2, -1))``, so ``worst`` has
    its bits.  Returns the 16 entries as clamped, ``-0.0`` kept: those of
    ``arr.reshape(16).tolist()`` after the clamp.
    """
    t = arr.reshape(16).tolist()
    # min() is order-dependent with NaN, so NaN is looked for first.
    if any(map(math.isnan, t)):
        raise DomainError("correlation table has a NaN entry")
    low = min(t)
    if low < -NEGATIVITY_TOL:
        raise NegativeProbabilityError(
            f"probability entry {low} is negative beyond tolerance"
        )
    if low < 0.0:
        arr[arr < 0.0] = 0.0
        t = [0.0 if v < 0.0 else v for v in t]
    p0, p1, p2, p3, q0, q1, q2, q3, r0, r1, r2, r3, s0, s1, s2, s3 = t
    worst = max(
        abs((((0.0 + p0) + p1) + p2) + p3 - 1.0),
        abs((((0.0 + q0) + q1) + q2) + q3 - 1.0),
        abs((((0.0 + r0) + r1) + r2) + r3 - 1.0),
        abs((((0.0 + s0) + s1) + s2) + s3 - 1.0),
    )
    if worst > NORMALIZATION_TOL:
        raise NormalizationError(
            f"per-setting outcome sums deviate from 1 by {worst}"
        )
    return tuple(t)


def _numeric_array(data, error=DomainError) -> np.ndarray:
    """A float64 copy of ``data``; complex or non-numeric input raises ``error``.

    ``data`` is read once as it stands, so float64 input takes no second
    conversion and complex input is refused before a cast could drop its
    imaginary part.  Other real input converts as ``np.array(data,
    dtype=float)`` converts it, failures included.
    """
    try:
        arr = np.array(data)
        if arr.dtype is _FLOAT64:
            return arr
        if arr.dtype.kind != "c":
            return np.array(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"cannot interpret input as a numeric array: {exc}") from exc
    raise error("input has complex entries; only real numbers are accepted")


def validate_tables(data) -> np.ndarray:
    """Validated float64 copy of a batch of tables, shape ``(N, 2, 2, 2, 2)``.

    The batched form of :class:`Correlation`'s checks, with the same
    error classes and messages; entries in ``[-1e-9, 0)`` are clamped
    to zero.  Input that is not numeric, an empty batch or any other
    shape raises :class:`~signalbox.errors.DomainError`.
    """
    arr = _numeric_array(data)
    if arr.ndim != 5 or arr.shape[1:] != TABLE_SHAPE or not len(arr):
        raise DomainError(
            f"table batch must have shape (N, 2, 2, 2, 2) with N >= 1, got {arr.shape}"
        )
    _check_entries(arr)
    return arr


def _check_bit(value, name="setting") -> int:
    """A setting or outcome label as a plain ``int``; anything but 0 or 1 is a DomainError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value not in (0, 1):
        raise DomainError(f"{name} must be 0 or 1, got {value!r}")
    return int(value)


# How far any checked real input may stray past its bound by rounding.
_INPUT_SLACK = 1e-12


def _check_real(value, name):
    """``value`` itself if it is a real number and not a bool; anything else is a DomainError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    return value


def _frozen_record(cls, values):
    """``cls(*values)`` for a frozen dataclass, without one ``object.__setattr__`` per field.

    ``cls`` must have no ``__post_init__``, no defaults and no ``init=False``
    fields, so that its generated ``__init__`` only stores ``values`` in
    field order; ``==``, ``hash``, ``repr`` and ``replace`` are the class's own.
    """
    record = object.__new__(cls)
    record.__dict__.update(zip(cls.__dataclass_fields__, values))
    return record


def _table_terms(t) -> tuple:
    """Signed functional, zero-label marginals and shifts of one table.

    ``t`` is the table's 16 entries as floats, in ``p[a][b][x][y]`` order.
    Returns ``(functional, alice, bob, to_bob, to_alice)``: ``alice[a][b]``
    and ``bob[a][b]`` are nested lists of ``P(outcome label 0)``,
    ``to_bob[b]`` is bob's marginal shift at his setting b when alice flips
    hers, and ``to_alice[a]`` the mirror image.  The bits are those of
    numpy's ``einsum`` and ``sum``: a correlator is ``((p00 - p01) - p10)
    + p11``, and a marginal starts from ``0.0``, so ``-0.0 + -0.0`` is ``0.0``.
    """
    # p, q, r, s: setting pairs (0, 0), (0, 1), (1, 0), (1, 1); digit 2x + y.
    p0, p1, p2, p3, q0, q1, q2, q3, r0, r1, r2, r3, s0, s1, s2, s3 = t
    functional = (
        (((p0 - p1) - p2) + p3)
        + (((q0 - q1) - q2) + q3)
        - (((r0 - r1) - r2) + r3)
        + (((s0 - s1) - s2) + s3)
    )
    a00, a01, a10, a11 = 0.0 + p0 + p1, 0.0 + q0 + q1, 0.0 + r0 + r1, 0.0 + s0 + s1
    b00, b01, b10, b11 = 0.0 + p0 + p2, 0.0 + q0 + q2, 0.0 + r0 + r2, 0.0 + s0 + s2
    to_bob, to_alice = (abs(b00 - b10), abs(b01 - b11)), (abs(a00 - a01), abs(a10 - a11))
    return functional, [[a00, a01], [a10, a11]], [[b00, b01], [b10, b11]], to_bob, to_alice


def signed_functional(corr: Correlation) -> float:
    """The combination E(0,0) + E(0,1) - E(1,0) + E(1,1), sign kept."""
    return _table_terms(corr._entries)[0]


def functional_value(corr: Correlation) -> float:
    """Absolute value of the four-correlator combination.

    At most 2 on mixtures of local deterministic strategies, at most
    2 * sqrt(2) on the sequential qubit tables produced by
    :mod:`signalbox.quantum`, and 4 on :func:`pr_box`.
    """
    return abs(signed_functional(corr))


def disturbance_cost(corr: Correlation) -> float:
    """Excess of the functional over the local bound, in bit units.

    Defined as ``max(0, functional_value / 2 - 1)``: the minimum average
    one-bit-strategy weight any decomposition must spend on the table, as
    established by the decomposition routines in :mod:`signalbox.simulate`.
    """
    return disturbance_from_functional(functional_value(corr))


def disturbance_from_functional(lam: float) -> float:
    """:func:`disturbance_cost` of a table whose functional value is ``lam``."""
    return max(0.0, lam / 2.0 - 1.0)


def mix(weights, correlations) -> Correlation:
    """Convex mixture of correlation tables.

    Raises :class:`~signalbox.errors.WeightError` when the weight vector
    has NaN, infinite or negative entries, does not match the number of
    tables, or does not sum to one within 1e-12.
    """
    w = _numeric_array(weights, WeightError)
    tables = list(correlations)
    if w.ndim != 1 or w.size != len(tables):
        raise WeightError(
            f"need one weight per table, got {w.size} weights for {len(tables)} tables"
        )
    if w.size == 0:
        raise WeightError("cannot mix an empty collection")
    finite = np.isfinite(w)
    if not finite.all():
        raise WeightError(f"non-finite mixture weight {float(w[~finite][0])}")
    if float(w.min()) < -_INPUT_SLACK:
        raise WeightError(f"negative mixture weight {float(w.min())}")
    total = float(w.sum())
    if abs(total - 1.0) > _INPUT_SLACK:
        raise WeightError(f"mixture weights sum to {total}, expected 1")
    stack = np.stack([c.p for c in tables])
    return Correlation(np.einsum("i,iabxy->abxy", np.clip(w, 0.0, None), stack))


def marginal(corr: Correlation, side: str, own_setting: int, other_setting: int):
    """One party's outcome distribution at a fixed setting pair.

    Returns a length-2 array over that party's outcome labels.  For
    ``side="alice"`` the settings are (own, other) = (a, b); for
    ``side="bob"`` they are (b, a).  In a nonsignaling table the result
    would not depend on ``other_setting``; the whole point of this
    package is to quantify how much it does.
    """
    own_setting = _check_bit(own_setting)
    other_setting = _check_bit(other_setting)
    if side == "alice":
        return corr.p[own_setting, other_setting].sum(axis=1)
    if side == "bob":
        return corr.p[other_setting, own_setting].sum(axis=0)
    raise DomainError(f"side must be 'alice' or 'bob', got {side!r}")


@dataclass(frozen=True)
class SignalDeltas:
    """Marginal shifts induced by the remote setting, one per channel.

    Each field is the absolute change of ``P(outcome label 0)`` for one
    party, at one fixed own setting, when the other party flips theirs.
    """

    to_bob_at_b0: float
    to_bob_at_b1: float
    to_alice_at_a1: float
    to_alice_at_a0: float

    # vars() holds the four fields in declaration order.
    @property
    def max(self) -> float:
        return max(vars(self).values())


def signaling_deltas(corr: Correlation) -> SignalDeltas:
    """All four marginal-shift magnitudes of a table."""
    *_, to_bob, to_alice = _table_terms(corr._entries)
    return SignalDeltas(to_bob[0], to_bob[1], to_alice[1], to_alice[0])


class StrategyKind(enum.Enum):
    """Coarse classification of a deterministic strategy."""

    LOCAL = "local"
    ONE_BIT_VIOLATING = "one_bit_violating"
    ONE_BIT_NONVIOLATING = "one_bit_nonviolating"


@dataclass(frozen=True)
class Strategy:
    """Deterministic strategy: outcome rules indexed by the setting pair.

    ``x_rule[a][b]`` is alice's outcome label, ``y_rule[a][b]`` bob's.
    Local strategies simply ignore the remote index.  Each rule must be a
    2x2 tuple of tuples of the integers 0 and 1, or
    :class:`~signalbox.errors.DomainError` is raised.
    """

    id: str
    x_rule: tuple
    y_rule: tuple
    kind: StrategyKind

    def __post_init__(self) -> None:
        for rule in (self.x_rule, self.y_rule):
            rows = rule if isinstance(rule, tuple) else ()
            if [isinstance(row, tuple) and len(row) for row in rows] != [2, 2]:
                raise DomainError(f"strategy rule must be a 2x2 tuple, got {rule!r}")
            for label in rule[0] + rule[1]:
                _check_bit(label, "outcome label")

    def as_correlation(self) -> Correlation:
        """The deterministic (one-hot) correlation table of this strategy."""
        p = np.zeros((2, 2, 2, 2))
        x, y = self.x_rule, self.y_rule
        p[(0, 0, 1, 1), (0, 1, 0, 1), x[0] + x[1], y[0] + y[1]] = 1.0
        return Correlation(p)


# Rule names by truth table: a rule's outcome labels at (a, b) = 00, 01,
# 10, 11, read as 4 bits from the high bit down.  Parity rules are unnamed.
_RULE_NAMES = (
    "0", "ab", "anb", "a", "nab", "b", None, "cnanb",
    "nanb", None, "nb", "cnab", "na", "canb", "cab", "1",
)


# All 16 local deterministic strategies.
LOCAL_IDS = tuple(
    f"local_{xt}_{yt}" for xt in ("0", "1", "a", "na") for yt in ("0", "1", "b", "nb")
)

# The 8 locals whose signed functional is +2 (the other 8 give -2).
# These span every local table reachable by the closed-form decomposition.
PLUS_LOCAL_IDS = (
    "local_0_0",
    "local_a_0",
    "local_0_nb",
    "local_na_nb",
    "local_a_b",
    "local_1_b",
    "local_na_1",
    "local_1_1",
)

# One-bit strategies with signed functional +4, in an order where the
# pair averages (0,3), (1,2), (4,7), (5,6) each reproduce pr_box().
VIOLATING_IDS = (
    "signal_0_anb",
    "signal_na_cab",
    "signal_a_ab",
    "signal_1_canb",
    "signal_anb_0",
    "signal_nanb_nb",
    "signal_cnanb_b",
    "signal_canb_1",
)

# Pairs of violating strategies whose equal mixture is exactly pr_box().
VIOLATING_PAIRS = tuple(
    (VIOLATING_IDS[i], VIOLATING_IDS[j]) for i, j in ((0, 3), (1, 2), (4, 7), (5, 6))
)

# One-bit strategies that echo a setting on both sides; signed functional
# is +2 when the two rules agree and -2 when one side negates.
NONVIOLATING_IDS = tuple(
    f"signal_{xt}_{yt}" for s in ("a", "b") for xt in (s, "n" + s) for yt in (s, "n" + s)
)

FULL_BASIS = LOCAL_IDS + VIOLATING_IDS + NONVIOLATING_IDS


# An id's last two names are its x-rule and y-rule.  Bit 3 - 2a - b of a
# name's index in _RULE_NAMES is the rule's outcome label at (a, b).
_CATALOG = {
    ident: Strategy(
        ident,
        *(
            tuple(tuple((bits >> (3 - 2 * a - b)) & 1 for b in (0, 1)) for a in (0, 1))
            for bits in map(_RULE_NAMES.index, ident.split("_")[1:])
        ),
        kind,
    )
    for ids, kind in (
        (LOCAL_IDS, StrategyKind.LOCAL),
        (VIOLATING_IDS, StrategyKind.ONE_BIT_VIOLATING),
        (NONVIOLATING_IDS, StrategyKind.ONE_BIT_NONVIOLATING),
    )
    for ident in ids
}

# The catalog's tables, built and validated once.  Column k of
# STRATEGY_MATRIX is the flattened table of FULL_BASIS[k], and
# STRATEGY_COSTS[k] is the bit a one-bit strategy spends (0 for a local).
_STRATEGY_TABLES = np.stack(
    [_CATALOG[ident].as_correlation().p for ident in FULL_BASIS]
)
STRATEGY_MATRIX = np.ascontiguousarray(
    _STRATEGY_TABLES.reshape(len(FULL_BASIS), -1).T
)
STRATEGY_COSTS = np.array(
    [0.0 if _CATALOG[i].kind is StrategyKind.LOCAL else 1.0 for i in FULL_BASIS]
)
_STRATEGY_TABLES.setflags(write=False)
STRATEGY_MATRIX.setflags(write=False)
STRATEGY_COSTS.setflags(write=False)
_COLUMNS = {ident: k for k, ident in enumerate(FULL_BASIS)}


def _unknown_strategy(ident) -> UnknownStrategyError:
    return UnknownStrategyError(
        f"unknown strategy {ident!r}; see signalbox.FULL_BASIS"
    )


def catalog(ident: str) -> Strategy:
    """Look up a strategy by identifier.

    Raises :class:`~signalbox.errors.UnknownStrategyError` for anything
    not in :data:`FULL_BASIS`.
    """
    try:
        return _CATALOG[ident]
    except KeyError:
        raise _unknown_strategy(ident) from None


def strategy_column(ident: str) -> int:
    """Column of a strategy in :data:`STRATEGY_MATRIX`.

    Raises :class:`~signalbox.errors.UnknownStrategyError` like
    :func:`catalog`.
    """
    try:
        return _COLUMNS[ident]
    except KeyError:
        raise _unknown_strategy(ident) from None


def strategy_table(ident: str) -> np.ndarray:
    """The table of a strategy, as a read-only ``(2, 2, 2, 2)`` array.

    Equal to ``catalog(ident).as_correlation().p``, built once at import.
    """
    return _STRATEGY_TABLES[strategy_column(ident)]


def pr_box() -> Correlation:
    """The extremal box with functional value 4.

    Outcomes are uniformly random on each side but perfectly follow
    ``x XOR y = a AND (NOT b)``, matching the sign pattern of the
    functional.  Equal mixtures of the paired violating strategies
    reproduce this table exactly; it is the mean of the first pair's tables.
    """
    return Correlation(0.5 * (strategy_table("signal_0_anb") + strategy_table("signal_1_canb")))


def to_json_dict(corr: Correlation) -> dict:
    """JSON-ready payload: ``{"p": nested [a][b][x][y] lists}``."""
    return {"p": corr.p.tolist()}


def from_json_dict(payload) -> Correlation:
    """Parse the payload produced by :func:`to_json_dict`, strictly.

    Table entries must be JSON numbers: a string such as ``"0.25"`` or a
    boolean raises :class:`DomainError`, where numpy would read it as a
    number.  ``null`` reads as NaN and is refused as one.
    """
    if not isinstance(payload, dict):
        raise DomainError(f"expected a JSON object, got {type(payload).__name__}")
    if "p" not in payload:
        raise DomainError('payload is missing the "p" entry')
    # A loop, not recursion: the parser accepts nesting deeper than the
    # interpreter's recursion limit leaves room for here.
    pending = [payload["p"]]
    while pending:
        node = pending.pop()
        if isinstance(node, list):
            pending.extend(reversed(node))
        elif isinstance(node, (str, bool)):
            raise DomainError(f"table entry must be a JSON number, got {json.dumps(node)}")
    return Correlation(payload["p"])


def _read_correlation(handle, source) -> Correlation:
    """:func:`load_correlation` on an open text handle; ``source`` names it in errors."""
    try:
        payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{source}: invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"{source}: undecodable text: {exc}") from exc
    except RecursionError:
        raise DomainError(f"{source}: JSON nested too deeply") from None
    return from_json_dict(payload)


def load_correlation(path) -> Correlation:
    """Read a correlation table from a JSON file.

    Text that is not UTF-8, malformed JSON and JSON nested past the
    parser's recursion limit raise :class:`DomainError`.
    """
    with open(path, "r", encoding="utf-8") as handle:
        return _read_correlation(handle, path)


def save_correlation(corr: Correlation, path) -> None:
    """Write a correlation table to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_json_dict(corr), handle, indent=2, sort_keys=True)
        handle.write("\n")
