"""Channel information, the unbalanced box family and the randomness trade-off."""

import dataclasses
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import signalbox as sb
from signalbox.correlation import _table_terms
from signalbox.quantum import _theta_batch
from signalbox.signaling import SERIES_GAP, _best_input_weight
from conftest import (
    NEAR_SILENT,
    bob_shift_mixture,
    near_nonsignaling_tables,
    random_quantum_instance,
    random_table,
    strategy_table,
    sub_cost_mixture,
)

MU = math.log2(5.0) - 2.0


def test_binary_entropy_endpoints():
    assert sb.binary_entropy(0.0) == 0.0
    assert sb.binary_entropy(1.0) == 0.0
    assert sb.binary_entropy(0.5) == pytest.approx(1.0)


def test_binary_entropy_symmetry(rng):
    for q in rng.random(50):
        assert sb.binary_entropy(q) == pytest.approx(sb.binary_entropy(1.0 - q))


def test_binary_entropy_domain():
    with pytest.raises(sb.DomainError):
        sb.binary_entropy(-0.01)
    with pytest.raises(sb.DomainError):
        sb.binary_entropy(1.01)
    # rounding slop just outside the unit interval is tolerated
    assert sb.binary_entropy(-1e-13) == 0.0
    assert sb.binary_entropy(1.0 + 1e-13) == 0.0


def test_mutual_info_vanishes_on_identical_outputs(rng):
    for _ in range(25):
        p = float(rng.random())
        alpha = float(rng.random())
        assert sb.channel_mutual_info(alpha, p, p) == pytest.approx(0.0, abs=1e-12)


def test_mutual_info_of_saturating_channel():
    """The {1, 1/2} output pair at weight 3/5 carries log2(5) - 2 bits."""
    assert sb.channel_mutual_info(0.6, 1.0, 0.5) == pytest.approx(MU, abs=1e-12)
    # and that weight is the argmax
    grid = np.linspace(0.0, 1.0, 2001)
    values = [sb.channel_mutual_info(a, 1.0, 0.5) for a in grid]
    assert max(values) <= MU + 1e-9


def test_mutual_info_is_nonnegative(rng):
    for _ in range(50):
        alpha, p0, p1 = rng.random(3)
        assert sb.channel_mutual_info(float(alpha), float(p0), float(p1)) >= -1e-12


def test_perfect_channel_carries_one_bit():
    assert sb.channel_mutual_info(0.5, 1.0, 0.0) == pytest.approx(1.0)


def test_signal_strength_examples():
    assert sb.signal_strength(sb.pr_box()) == pytest.approx(0.0, abs=1e-15)
    assert sb.signal_strength(strategy_table("signal_0_anb")) == pytest.approx(1.0)


def test_signal_info_on_nonsignaling_table():
    report = sb.signal_info(sb.pr_box())
    assert report.info <= 1e-9
    assert report.strength <= 1e-12


def test_signal_info_on_perfect_one_bit_channel():
    report = sb.signal_info(strategy_table("signal_0_anb"))
    assert report.info == pytest.approx(1.0, abs=1e-9)
    assert report.alpha_star == pytest.approx(0.5, abs=1e-3)
    assert report.b_star == 0
    assert report.strength == pytest.approx(1.0)


def test_unbalanced_family_functional_is_flat():
    for p in (0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 1.0):
        assert sb.functional_value(sb.unbalanced_pr(p)) == pytest.approx(4.0)


def test_unbalanced_family_strength_and_info():
    for p in np.linspace(0.0, 1.0, 21):
        table = sb.unbalanced_pr(float(p))
        assert sb.signal_strength(table) == pytest.approx(abs(1.0 - 2.0 * p), abs=1e-12)
    report = sb.signal_info(sb.unbalanced_pr(0.3))
    assert report.info == pytest.approx(1.0 - sb.binary_entropy(0.3), abs=1e-9)
    assert report.info == pytest.approx(0.1187091007693073, abs=1e-9)
    assert report.b_star == 0


def test_unbalanced_endpoints_are_catalog_strategies():
    assert np.array_equal(
        sb.unbalanced_pr(0.0).p, strategy_table("signal_1_canb").p
    )
    assert np.array_equal(
        sb.unbalanced_pr(1.0).p, strategy_table("signal_0_anb").p
    )
    assert np.array_equal(sb.unbalanced_pr(0.5).p, sb.pr_box().p)


def _unbalanced_by_mix(p):
    """unbalanced_pr as it stood: mix of the two freshly built catalog tables."""
    return sb.mix(
        [p, 1.0 - p],
        [sb.catalog("signal_0_anb").as_correlation(), sb.catalog("signal_1_canb").as_correlation()],
    )


def test_unbalanced_family_is_bit_identical_to_the_mix_chain(rng):
    """Weighted catalog tables give the mix chain's table and entries, hex for hex."""
    weights = [0, 1, 0.0, 1.0, -0.0, 0.5, 1e-300, 5e-324, 2.0**-53, 1.0 - 2.0**-53]
    weights += [Fraction(3, 10), np.float32(0.3), np.float16(0.7), np.float64(0.1)]
    weights += rng.uniform(0.0, 1.0, 500).tolist() + (10.0 ** -rng.uniform(0, 300, 100)).tolist()
    for p in weights:
        got, want = sb.unbalanced_pr(p), _unbalanced_by_mix(p)
        assert got.p.tobytes() == want.p.tobytes(), p
        assert [v.hex() for v in got._entries] == [v.hex() for v in want._entries], p


def test_unbalanced_rejects_out_of_range():
    with pytest.raises(sb.DomainError):
        sb.unbalanced_pr(-0.1)
    with pytest.raises(sb.DomainError):
        sb.unbalanced_pr(1.1)


def test_randomness_tradeoff_grid():
    for p in np.linspace(0.0, 1.0, 101):
        report = sb.randomness_report(float(p))
        assert report.intrinsic == pytest.approx(min(p, 1.0 - p), abs=1e-15)
        assert report.tradeoff == pytest.approx(1.0, abs=1e-12)
        assert report.strength + 2.0 * report.intrinsic == pytest.approx(
            1.0, abs=1e-12
        )


def test_cloning_violation_values():
    for p in np.linspace(0.0, 0.5, 26):
        assert sb.cloning_violation(float(p)) == pytest.approx(2.0 * p, abs=1e-12)
    with pytest.raises(sb.DomainError):
        sb.cloning_violation(0.6)
    with pytest.raises(sb.DomainError):
        sb.cloning_violation(-0.1)


def test_optimizer_matches_dense_grid(rng):
    """Closed-form optimal weight agrees with a brute-force scan."""
    from signalbox.signaling import _best_input_weight

    for _ in range(40):
        p0, p1 = (float(v) for v in rng.random(2))
        best = max(
            sb.channel_mutual_info(float(a), p0, p1)
            for a in np.linspace(0.0, 1.0, 10001)
        )
        alpha, info = _best_input_weight(p0, p1)
        assert info == pytest.approx(best, abs=1e-6)
        assert 0.0 <= alpha <= 1.0


def test_signal_info_on_random_tables_is_bounded(rng):
    for _ in range(20):
        table = random_table(rng)
        report = sb.signal_info(table)
        assert 0.0 <= report.info <= 1.0 + 1e-12
        assert report.b_star in (0, 1)
        assert report.strength <= 1.0 + 1e-12


def _oracle_capacity(p0, p1):
    """Optimal input weight and capacity of the (p0, p1) channel, 50 digits.

    Evaluates the textbook closed form ``q* = 1 / (1 + 2**s)`` with
    ``s = (h(p0) - h(p1)) / (p0 - p1)`` in decimal arithmetic, where the
    cancellations the float code has to avoid cost nothing.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        ln2 = Decimal(2).ln()

        def h(q):
            if q <= 0 or q >= 1:
                return Decimal(0)
            return -(q * q.ln() + (1 - q) * (1 - q).ln()) / ln2

        x0, x1 = Decimal(p0), Decimal(p1)
        if x0 == x1:
            return 0.5, 0.0
        s = (h(x0) - h(x1)) / (x0 - x1)
        q = 1 / (1 + (s * ln2).exp())
        alpha = (q - x1) / (x0 - x1)
        info = h(alpha * x0 + (1 - alpha) * x1) - alpha * h(x0) - (1 - alpha) * h(x1)
        return float(alpha), float(info)


def _bob_channel_table(p0, p1):
    """Table whose b=0 alice-to-bob channel has P(y=0 | a) = (p0, p1)."""
    p = np.zeros((2, 2, 2, 2))
    p[0, 0, 0] = (p0, 1.0 - p0)
    p[1, 0, 0] = (p1, 1.0 - p1)
    p[:, 1, 0, 0] = 1.0
    return sb.Correlation(p)


def test_capacity_matches_decimal_oracle(rng):
    """Closed-form weight and capacity against a 50-digit decimal oracle.

    Gaps |p0 - p1| are log-uniform on [1e-15, 1], with the pair near 0,
    near 1 or in the middle of the unit interval; every pair of edge
    values, denormals included, is added.  The weight is pinned to 1e-9
    on every pair with a gap of at least 1e-15, the nonsignaling cutoff,
    so also on every channel that carries 1e-9 bits or more.
    """
    edges = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-15, 0.5, 1.0 - 2**-53, 1.0)
    cases = [(p0, p1) for p0 in edges for p1 in edges]
    for _ in range(300):
        gap = 10.0 ** rng.uniform(-15.0, 0.0)
        near = 10.0 ** rng.uniform(-15.0, 0.0) * (1.0 - gap)
        for low in (near, 1.0 - gap - near, rng.uniform(0.0, 1.0 - gap)):
            pair = (float(low + gap), float(low))
            cases.append(pair if rng.random() < 0.5 else pair[::-1])
    worst = 0.0
    for p0, p1 in cases:
        report = sb.signal_info(_bob_channel_table(p0, p1))
        alpha, info = _oracle_capacity(p0, p1)
        assert 0.0 <= report.alpha_star <= 1.0
        assert abs(report.info - info) <= 1e-14, (p0, p1, report.info, info)
        if abs(p0 - p1) >= 1e-15:
            worst = max(worst, abs(report.alpha_star - alpha))
    assert worst <= 1e-9
    report = sb.signal_info(_bob_channel_table(1.0, 0.5))
    assert report.alpha_star == pytest.approx(0.6, abs=1e-15)
    assert report.info == pytest.approx(MU, abs=1e-15)
    for p0, p1 in ((1.0, 0.0), (0.0, 1.0)):
        report = sb.signal_info(_bob_channel_table(p0, p1))
        assert (report.alpha_star, report.info) == (0.5, 1.0)
    # Output probability near 1, where h is steep: the capacity stays
    # non-negative and within 1e-15 of the oracle.
    near_one = (0.9999999999999827, 0.9999999999999942)
    report = sb.signal_info(_bob_channel_table(*near_one))
    assert report.info >= 0.0
    assert abs(report.info - _oracle_capacity(*near_one)[1]) <= 1e-15


def test_capacity_clamps_marginals_past_the_unit_interval():
    """Validation lets a marginal reach 1 + 1e-9; the capacity reads it as 1.

    Such a marginal, or the negative complement it leaves in the blended
    output, used to fail the entropy's 1e-12 range check, so a table
    that passed validation could not be classified.
    """
    report = sb.signal_info(_bob_channel_table(1.0 + 1e-10, 1.0))
    assert (report.alpha_star, report.info) == (0.5, 0.0)
    p = np.full((2, 2, 2, 2), 0.25)
    p[0, 0] = [[0.50000000025, 0.0], [0.50000000025, 0.0]]
    p[1, 0] = [[0.3, 0.2], [0.3, 0.2]]
    trimmed = p.copy()
    trimmed[0, 0] = [[0.5, 0.0], [0.5, 0.0]]
    assert _table_terms(p.reshape(16).tolist())[2][0][0] > 1.0 + 1e-12
    for analyse in (sb.classify, sb.signal_info):
        got, want = analyse(sb.Correlation(p)), analyse(sb.Correlation(trimmed))
        for field in dataclasses.fields(got):
            value, expected = getattr(got, field.name), getattr(want, field.name)
            if isinstance(expected, float):
                assert value == pytest.approx(expected, abs=1e-9), field.name
            else:
                assert value == expected, field.name


def test_near_silent_channel_capacity_is_never_negative():
    assert sb.channel_mutual_info(0.5, 0.25 + 2.5e-14, 0.25) == 0.0
    assert _best_input_weight(0.25 + 2.5e-14, 0.25)[1] == 0.0
    for measure in ("mutual_info", "delta"):
        report = sb.classify(sb.Correlation(NEAR_SILENT), measure)
        assert report.signal_mutual_info == 0.0
        assert 0.0 <= report.eta <= report.disturbance


def test_scalar_arguments_must_be_real_numbers():
    """One rule at every scalar argument: a real number that is not a bool.

    Anything else is a DomainError naming the argument, and never a
    TypeError or a warning; values in range keep their results.
    """
    state = sb.QubitState.from_bloch([0.0, 0.0, 1.0])
    table = sb.unbalanced_pr(0.3)
    sites = {
        "ensemble weight": [lambda v: sb.holevo(v, state, state)],
        "binary_entropy argument": [
            sb.binary_entropy,
            lambda v: sb.channel_mutual_info(0.5, v, 0.2),
            lambda v: sb.channel_mutual_info(0.5, 0.2, v),
        ],
        "input weight": [lambda v: sb.channel_mutual_info(v, 0.5, 0.2)],
        "mixing weight": [sb.unbalanced_pr, sb.randomness_report, sb.cloning_violation],
        "sigma": [lambda v: sb.closed_form_decompose(table, sigma=v)],
        "sweep angle": [sb.theta_geometry],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, calls in sites.items():
            for call in calls:
                for bad in (True, False, 0.5j, np.complex128(0.3), "0.3", None, [0.3]):
                    with pytest.raises(sb.DomainError, match=f"^{name} must be a real number"):
                        call(bad)
                with pytest.raises(sb.DomainError, match=f"^{name} .* outside "):
                    call(7.0)
    assert sb.holevo(1, state, state) == sb.holevo(1.0, state, state) == 0.0
    assert sb.binary_entropy(np.float32(0.5)) == 1.0
    assert sb.unbalanced_pr(np.float64(0.3)).p.tobytes() == table.p.tobytes()
    assert sb.cloning_violation(0) == 0.0


def test_nan_is_outside_every_domain():
    """NaN fails the range checks instead of reading as a confident 0."""
    for args in ((math.nan, 0.2, 0.7), (0.5, math.nan, 0.7), (0.5, 0.2, math.nan)):
        with pytest.raises(sb.DomainError):
            sb.channel_mutual_info(*args)
    with pytest.raises(sb.DomainError):
        sb.binary_entropy(math.nan)


def test_signal_info_ties_go_to_first_listed_setting():
    """Within 1e-15 of each other, the first setting, b = 0, wins."""
    silent = sb.pr_box()
    assert sb.signal_info(silent).b_star == 0
    assert sb.classify(silent).b_star == 0


# The capacity chain of nested checked calls that the flat kernel in
# signalbox.signaling replaced, kept verbatim as the oracle it has to
# match bit for bit on every input both accept.
def _chain_binary_entropy(q):
    if q < -1e-12 or q > 1.0 + 1e-12:
        raise sb.DomainError(f"binary_entropy argument {q} outside [0, 1]")
    q = min(1.0, max(0.0, q))
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def _chain_mutual_info(alpha, p0, p1):
    if alpha < -1e-12 or alpha > 1.0 + 1e-12:
        raise sb.DomainError(f"input weight {alpha} outside [0, 1]")
    alpha = min(1.0, max(0.0, alpha))
    blended = alpha * p0 + (1.0 - alpha) * p1
    if blended > 0.5:
        blended = alpha * (1.0 - p0) + (1.0 - alpha) * (1.0 - p1)
    return (
        _chain_binary_entropy(blended)
        - alpha * _chain_binary_entropy(p0)
        - (1.0 - alpha) * _chain_binary_entropy(p1)
    )


def _chain_xlogx_slope(hi, lo, width):
    if lo == 0.0:
        return math.log(hi)
    log_ratio = math.log1p(width / lo) if width < lo else math.log(hi) - math.log(lo)
    return math.log(hi) + lo * log_ratio / width


def _chain_best_input_weight(p0, p1):
    if abs(p0 - p1) < 1e-15:
        return 0.5, 0.0
    x0, x1 = min(1.0, max(0.0, p0)), min(1.0, max(0.0, p1))
    if x0 + x1 > 1.0:
        x0, x1 = 1.0 - x0, 1.0 - x1
    lo, hi = min(x0, x1), max(x0, x1)
    width = hi - lo
    if width == 0.0:
        alpha = 0.5
    elif width < SERIES_GAP * lo:
        mid = 0.5 * (x0 + x1)
        alpha = 0.5 - (1.0 - 2.0 * mid) * (x0 - x1) / (24.0 * mid * (1.0 - mid))
    else:
        s = _chain_xlogx_slope(1.0 - lo, 1.0 - hi, width) - _chain_xlogx_slope(hi, lo, width)
        alpha = (1.0 / (1.0 + math.exp(s)) - x1) / (x0 - x1)
    alpha = min(1.0, max(0.0, alpha))
    return alpha, _chain_mutual_info(alpha, p0, p1)


def _chain_best_channel(bob):
    best = None
    for b in (0, 1):
        alpha, value = _chain_best_input_weight(bob[0][b], bob[1][b])
        if best is None or value > best[0] + 1e-15:
            best = (value, alpha, b)
    return best


def _hex(*values):
    return tuple(float(v).hex() for v in values)


def test_capacity_kernel_is_bit_identical_to_the_checked_chain(rng):
    """``(alpha*, info)`` of every channel, compared by ``float.hex``."""
    pairs = []
    rel_gaps = np.concatenate(
        [np.geomspace(1e-16, 2e-3, 80), SERIES_GAP * np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9])]
    )
    for lo in (1e-300, 1e-200, 1e-12, 1e-6, 1e-3, 0.1, 0.3, 0.45, 0.5, 0.7, 0.99):
        for rel in rel_gaps.tolist():
            hi = lo * (1.0 + rel)
            pairs += [(hi, lo), (lo, hi), (1.0 - hi, 1.0 - lo), (1.0 - lo, 1.0 - hi)]
    edges = (0.0, 5e-324, 1e-300, 1e-15, 0.25, 0.5, 0.75, 1.0 - 2**-53, 1.0,
             1.0 + 2**-52, 1.0 + 5e-13, 1.0 + 1e-12)
    pairs += [(p0, p1) for p0 in edges for p1 in edges]
    pairs += [(float(a), float(b)) for a, b in rng.random((2000, 2))]
    tables = [random_table(rng) for _ in range(100)]
    tables += [sub_cost_mixture(rng)[0] for _ in range(100)]
    tables += [bob_shift_mixture(rng)[0] for _ in range(100)]
    for _ in range(100):
        state, observables = random_quantum_instance(rng)
        tables.append(sb.sequential_correlation(state, *observables))
    tables += list(near_nonsignaling_tables(rng, 200))
    for table in tables:
        bob = _table_terms(table.p.reshape(16).tolist())[2]
        pairs += [(bob[0][b], bob[1][b]) for b in (0, 1)]
    flipped = silent = below = 0
    for p0, p1 in pairs:
        alpha, info = _chain_best_input_weight(p0, p1)
        # The kernel clamps the information at 0, where the chain can
        # round a few ulps below it.
        below += info < 0.0
        want = (alpha, info if info >= 0.0 else 0.0)
        assert _hex(*_best_input_weight(p0, p1)) == _hex(*want), (p0, p1)
        if abs(p0 - p1) >= 1e-15:
            x0, x1 = (min(1.0, max(0.0, p)) for p in (p0, p1))
            flipped += x0 + x1 > 1.0
            silent += x0 == x1
    assert flipped > 1000 and silent > 0 and below > 0


def test_sweep_verdicts_match_the_checked_chain():
    """classify_batch on the default sweep's tables, against the oracle capacity."""
    tables = _theta_batch(np.linspace(0.9, 1.2, 61))[0]
    for table, report in zip(tables, sb.classify_batch(tables)):
        bob = _table_terms(sb.Correlation(table).p.reshape(16).tolist())[2]
        info, alpha, b_star = _chain_best_channel(bob)
        got = (report.signal_mutual_info, report.signal, report.alpha_star)
        assert _hex(*got) == _hex(info, info, alpha)
        assert report.b_star == b_star
        total = max(report.disturbance, info)
        assert _hex(report.cost, report.eta) == _hex(total, total - info)
        assert report.classical == report.classical_by_mutual_info == (total - info <= 1e-9)
