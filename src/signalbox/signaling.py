"""Information carried by the setting-to-marginal signaling channel.

When a correlation table signals from alice to bob, bob's marginal at a
fixed setting ``b`` depends on alice's setting ``a``.  That dependence is
a binary channel: input ``a`` with prior ``(alpha, 1 - alpha)``, output
``y``.  This module measures the channel two ways.

* :func:`signal_strength` is the raw marginal shift, the largest change
  of ``P(y = 0)`` when alice flips her setting.
* :func:`signal_info` is the largest mutual information the channel can
  carry over any input prior, in bits: the channel capacity, which with
  its optimal prior has a closed form, so no search is involved.

Both look only at the alice-to-bob direction, which is the one a
sequential measurement can exercise.  Use
:func:`signalbox.correlation.signaling_deltas` for all four directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .correlation import (
    _INPUT_SLACK, Correlation, _check_real, _table_terms, marginal, strategy_table,
)
from .errors import DomainError

# Relative gap |p0 - p1| / min(p0, p1) below which the optimal input
# weight comes from its series instead of the cancelling quotient.
SERIES_GAP = 1e-3


def _entropy(q: float) -> float:
    """:func:`binary_entropy` of ``q`` clamped to [0, 1], NaN read as 0, unchecked."""
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q) if 0.0 < q < 1.0 else 0.0


def _check_unit(what: str, *values: float) -> None:
    for value in values:
        if not -_INPUT_SLACK <= _check_real(value, what) <= 1.0 + _INPUT_SLACK:  # NaN fails too
            raise DomainError(f"{what} {value} outside [0, 1]")


def binary_entropy(q: float) -> float:
    """Entropy of a (q, 1 - q) coin in bits, 0 log 0 = 0; NaN or q 1e-12 past [0, 1] raises."""
    _check_unit("binary_entropy argument", q)
    return _entropy(q)


def channel_mutual_info(alpha: float, p0: float, p1: float) -> float:
    """Mutual information of a binary-input channel, in bits.

    The input is 0 with probability ``alpha``; the output is 0 with
    probability ``p0`` or ``p1`` depending on the input.  Each argument
    must lie within 1e-12 of [0, 1] and not be NaN.  Computed as output
    entropy minus average conditional entropy; above 1/2 the output
    entropy is read off the complementary outcome, whose small
    probability keeps the digits that the steep entropy near 1 needs.
    """
    _check_unit("input weight", alpha)
    _check_unit("binary_entropy argument", p0, p1)
    return _mutual_info((alpha if alpha < 1.0 else 1.0) if alpha > 0.0 else 0.0, p0, p1)


def _mutual_info(alpha: float, p0: float, p1: float) -> float:
    """:func:`channel_mutual_info` at ``alpha`` in [0, 1], entropy arguments clamped."""
    beta = 1.0 - alpha
    blended = alpha * p0 + beta * p1
    if blended > 0.5:
        blended = alpha * (1.0 - p0) + beta * (1.0 - p1)
    # The information is at least 0; rounding can take a near-silent
    # channel's difference of entropies a few ulps below it.
    info = _entropy(blended) - alpha * _entropy(p0) - beta * _entropy(p1)
    return info if info > 0.0 else 0.0


def _xlogx_slope(hi: float, lo: float, width: float) -> float:
    """(hi ln hi - lo ln lo) / width for hi - lo = width > 0, without cancellation."""
    if lo == 0.0:
        return math.log(hi)
    log_ratio = math.log1p(width / lo) if width < lo else math.log(hi) - math.log(lo)
    return math.log(hi) + lo * log_ratio / width


def _best_input_weight(p0: float, p1: float):
    """Capacity-achieving input weight of the channel and its information.

    With ``s = (h(p0) - h(p1)) / (p0 - p1)`` the output that maximizes
    the information is ``q* = 1 / (1 + 2**s)``, reached at input weight
    ``alpha* = (q* - p1) / (p0 - p1)`` (Silverman, 1955).  The outputs are
    relabelled so that the smaller probabilities carry the arithmetic,
    and the divided difference ``s`` is taken through ``log1p``.  Below a
    relative gap of ``SERIES_GAP`` the quotient for ``alpha*`` cancels,
    so the odd series ``1/2 - (1 - 2m) d / (24 m (1 - m)) + O(d**3)`` in
    the midpoint ``m`` and gap ``d`` takes over.  Marginals past [0, 1],
    which validation allows up to 1e-9 beyond 1, are read as clamped.
    """
    if abs(p0 - p1) < 1e-15:
        return 0.5, 0.0
    x0 = (p0 if p0 < 1.0 else 1.0) if p0 > 0.0 else 0.0
    x1 = (p1 if p1 < 1.0 else 1.0) if p1 > 0.0 else 0.0
    if x0 + x1 > 1.0:
        x0, x1 = 1.0 - x0, 1.0 - x1
    lo, hi = (x1, x0) if x1 < x0 else (x0, x1)
    width = hi - lo
    if width == 0.0:  # both marginals lay past the same end of [0, 1]
        alpha = 0.5
    elif width < SERIES_GAP * lo:
        mid = 0.5 * (x0 + x1)
        alpha = 0.5 - (1.0 - 2.0 * mid) * (x0 - x1) / (24.0 * mid * (1.0 - mid))
    else:
        # s in nats, so 2**s becomes exp(s)
        s = _xlogx_slope(1.0 - lo, 1.0 - hi, width) - _xlogx_slope(hi, lo, width)
        alpha = (1.0 / (1.0 + math.exp(s)) - x1) / (x0 - x1)
    alpha = (alpha if alpha < 1.0 else 1.0) if alpha > 0.0 else 0.0
    return alpha, _mutual_info(alpha, p0, p1)


@dataclass(frozen=True)
class SignalReport:
    """Outcome of the channel analysis of one correlation table.

    ``info`` is the best mutual information in bits, attained with bob
    setting ``b_star`` and input prior ``alpha_star``.  ``strength`` is
    the largest raw marginal shift over the same settings.
    """

    strength: float
    info: float
    alpha_star: float
    b_star: int


def signal_strength(corr: Correlation) -> float:
    """Largest alice-to-bob marginal shift over both bob settings."""
    bob = _table_terms(corr._entries)[2]
    return max(abs(bob[0][b] - bob[1][b]) for b in (0, 1))


def signal_info(corr: Correlation) -> SignalReport:
    """Best-case information of the alice-to-bob channel, in bits.

    For each bob setting the pair of conditional marginals forms a
    binary channel; its capacity-achieving input prior has a closed form
    (see :func:`_best_input_weight`).  The report keeps the winning
    setting and prior.  Ties go to b = 0.
    """
    bob = _table_terms(corr._entries)[2]
    strength = max(abs(bob[0][b] - bob[1][b]) for b in (0, 1))
    info, alpha_star, b_star = _best_channel(bob)
    return SignalReport(strength=strength, info=info, alpha_star=alpha_star, b_star=b_star)


def _best_channel(bob):
    """``(info, alpha_star, b_star)`` of the most informative bob setting.

    ``bob[a][b]`` is bob's ``P(outcome label 0)`` as nested float lists;
    each setting's capacity is :func:`_best_input_weight`'s, ties going
    to b = 0.
    """
    alpha_0, info_0 = _best_input_weight(bob[0][0], bob[1][0])
    alpha_1, info_1 = _best_input_weight(bob[0][1], bob[1][1])
    if info_1 > info_0 + 1e-15:
        return info_1, alpha_1, 1
    return info_0, alpha_0, 0


def unbalanced_pr(p: float) -> Correlation:
    """Two-strategy signaling mixture with functional value 4 for every p.

    Mixes ``signal_0_anb`` with weight ``p`` against ``signal_1_canb``.
    At ``p = 1/2`` the table is exactly :func:`signalbox.correlation.pr_box`;
    away from the midpoint the mixture trades outcome randomness for
    marginal signaling while the functional stays at 4.  The catalog's
    tables, validated at import, are mixed with the bits of ``mix``.
    """
    if not 0.0 <= _check_real(p, "mixing weight") <= 1.0:
        raise DomainError(f"mixing weight {p} outside [0, 1]")
    return Correlation(
        p * strategy_table("signal_0_anb") + (1.0 - p) * strategy_table("signal_1_canb")
    )


@dataclass(frozen=True)
class RandomnessReport:
    """Randomness versus signal bookkeeping for :func:`unbalanced_pr`.

    ``intrinsic`` is the local outcome randomness min(p, 1 - p) read off
    alice's marginal, ``strength`` the alice-to-bob marginal shift, and
    ``tradeoff`` their weighted sum ``strength + 2 * intrinsic``, which
    this family pins at 1.
    """

    p: float
    intrinsic: float
    strength: float
    tradeoff: float


def randomness_report(p: float) -> RandomnessReport:
    """Evaluate the randomness-signal tradeoff of :func:`unbalanced_pr`."""
    table = unbalanced_pr(p)
    alice = marginal(table, "alice", 0, 0)
    intrinsic = float(min(alice[0], alice[1]))
    strength = signal_strength(table)
    return RandomnessReport(
        p=p,
        intrinsic=intrinsic,
        strength=strength,
        tradeoff=strength + 2.0 * intrinsic,
    )


def cloning_violation(p: float) -> float:
    """Shortfall of the signal strength below its deterministic ceiling.

    For ``unbalanced_pr(p)`` with ``p`` in [0, 1/2] the marginal shift is
    ``1 - 2p``, so the shortfall is ``2p``: exactly twice the intrinsic
    randomness the mixture injects.  A perfect broadcast of alice's
    setting would need the shortfall to vanish.
    """
    if not 0.0 <= _check_real(p, "mixing weight") <= 0.5:
        raise DomainError(f"mixing weight {p} outside [0, 1/2]")
    return 1.0 - signal_strength(unbalanced_pr(p))
